import hashlib
import json
import tracemalloc
import sys
from functools import partial
from itertools import accumulate, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthdiagrams import jsontext
from growthdiagrams.jsontext import CHUNK_SIZE, dumps, iterdumps
from growthdiagrams.bst import bst_insert, labeled_tree_json_parts, labeled_tree_to_text
from growthdiagrams.trees import labeled_tree_to_json_obj, trees_to_text

# every code point but lone surrogates, so control characters and
# non-ASCII text come up in both keys and values
texts = st.text(st.characters(blacklist_categories=("Cs",)))
scalars = st.none() | st.booleans() | st.integers() | st.integers(-(10**400), 10**400) | texts
# flat lists exercise the one-join path; bools mixed into ints must not
flat_lists = st.lists(st.integers()) | st.lists(texts) | st.lists(st.integers() | st.booleans())
values = st.recursive(
    scalars | flat_lists,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_dumps_equals_json_dumps_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)
    assert "".join(iterdumps(value)) == dumps(value)


@settings(max_examples=100, deadline=None)
@given(values, flat_lists)
def test_a_list_shared_at_two_depths_is_indented_for_each(value, shared):
    payload = [shared, [value, [shared]], {"again": shared}, shared]
    assert dumps(payload) == json.dumps(payload, indent=2)


def test_a_list_of_strs_is_not_kept_after_its_text_is_written():
    # like the rows of a tree grid: lists that never recur, each with a
    # text as long as its strs together, about 2 MB in all
    strs = [f"{'(-,-)' * 40}{i}" for i in range(50)]
    payload = [list(strs) for _ in range(200)]
    tracemalloc.start()
    try:
        for _ in iterdumps(payload):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


class Text(str):
    """A str subclass that hashes like "" and compares equal to every str:
    its text must still be its own value's, never one remembered for an
    exact str."""

    __eq__ = lambda self, other: True  # noqa: E731
    __hash__ = lambda self: hash("")  # noqa: E731


@settings(max_examples=100, deadline=None)
@given(values, texts, texts)
def test_a_str_shared_at_several_depths_is_escaped_for_each(value, shared, other):
    sub = Text(other)
    payload = [
        "", shared, [value, [shared, sub], {"k": shared}], {"again": shared, shared: [shared]},
        (shared,), sub, [sub, shared], [[[shared]]], other, shared,
    ]
    assert dumps(payload) == json.dumps(payload, indent=2)
    assert "".join(iterdumps(payload)) == dumps(payload)


def test_one_str_object_at_several_depths():
    shared = "é\n\"\x00" * 3
    payload = {"a": shared, "b": [shared, [shared, [shared]]], "c": [[shared], shared], "d": Text(shared + "!")}
    assert dumps(payload) == json.dumps(payload, indent=2)
    assert dumps(["", Text("x"), ["", Text("y")]]) == json.dumps(["", "x", ["", "y"]], indent=2)


def test_empty_containers_and_scalars():
    for value in ([], {}, (), [[]], {"a": {}}, [(), [[], {}]], None, True, False, 0, -1, "", "\x00é"):
        assert dumps(value) == json.dumps(value, indent=2)


def test_unsupported_values_raise_type_error():
    for value in (1.5, [1, 2.0], {"a": {1, 2}}, {1: "a"}, {"a": {None: 1}}):
        with pytest.raises(TypeError):
            dumps(value)


# one level of nesting around a value: the container kind, a key, a sibling
# and whether the sibling comes first
wrappers = st.tuples(st.sampled_from(["list", "tuple", "dict"]), texts, values, st.booleans())


def _nest(inner, levels):
    """inner, wrapped in one container per level, innermost first."""
    for kind, key, sibling, sibling_first in levels:
        if kind == "dict":
            # a sibling key equal to key would replace inner
            items = [(key + "'", sibling), (key, inner)]
            inner = dict(items[:: 1 if sibling_first else -1])
        else:
            items = [sibling, inner] if sibling_first else [inner, sibling]
            inner = items if kind == "list" else tuple(items)
    return inner


deep_values = st.builds(_nest, values, st.lists(wrappers, max_size=150))


def _parts(value) -> list[str]:
    """The parts of the text of value as iterdumps defines them: an item
    (its comma, indentation and key, then a scalar, a flat list or an
    opening bracket) or a closing bracket with its indentation."""
    parts: list[str] = []

    def item(value, depth: int, head: str) -> None:
        pad = "  " * depth
        inner = ["\n" + pad + "  ", ",\n" + pad + "  "]
        if isinstance(value, dict) and value:
            parts.append(head + "{")
            for i, (k, v) in enumerate(value.items()):
                item(v, depth + 1, inner[i > 0] + json.dumps(k) + ": ")
            parts.append("\n" + pad + "}")
        elif isinstance(value, (list, tuple)) and value and set(map(type, value)) not in ({int}, {str}):
            parts.append(head + "[")
            for i, v in enumerate(value):
                item(v, depth + 1, inner[i > 0])
            parts.append("\n" + pad + "]")
        else:
            parts.append(head + json.dumps(value, indent=2).replace("\n", "\n" + pad))

    item(value, 0, "")
    return parts


@settings(max_examples=150, deadline=None)
@given(deep_values, st.integers(1, 300))
def test_pieces_are_whole_parts_and_end_once_chunk_size_is_reached(value, chunk_size):
    parts = _parts(value)
    ends = dict(zip(accumulate(map(len, parts)), map(len, parts)))  # end offset -> part length
    with mock.patch.object(jsontext, "CHUNK_SIZE", chunk_size):
        pieces = list(iterdumps(value))
    assert "".join(pieces) == "".join(parts) == json.dumps(value, indent=2)
    assert all(pieces)
    for end, piece in zip(accumulate(map(len, pieces)), pieces[:-1]):
        assert end in ends  # a piece ends where a part ends
        assert len(piece) >= chunk_size
        assert len(piece) - ends[end] < chunk_size  # the piece is full only with its last part


def _bad_key(key, first: bool):
    items = [(key, 1), ("ok", 0)][:: 1 if first else -1]
    return dict(items), f"keys must be str, not {type(key).__name__}"


def _bad_value(value, first: bool):
    items = [value, 0][:: 1 if first else -1]
    return items, f"Object of type {type(value).__name__} is not JSON serializable"


# a container holding a key other than str or a value of a type JSON lacks,
# first or after a good item, and the message of the TypeError it raises
bad_items = st.builds(_bad_key, st.none() | st.booleans() | st.integers(), st.booleans()) | st.builds(
    _bad_value, st.floats() | st.sets(st.integers()), st.booleans()
)


@settings(max_examples=150, deadline=None)
@given(st.lists(wrappers, max_size=30), bad_items)
def test_a_bad_key_or_value_raises_type_error_at_any_depth(levels, bad):
    inner, message = bad
    with pytest.raises(TypeError, match=message):
        dumps(_nest(inner, levels))


def test_circular_reference_is_rejected():
    loop: list = [1]
    loop.append([loop])
    with pytest.raises(ValueError, match="Circular reference"):
        dumps(loop)


DEPTH = 3000


def _same_text(got: str, expected: str) -> None:
    # no pytest diff: it takes minutes on texts this long
    if got != expected:
        i = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        pytest.fail(f"text differs from character {i} on: {got[i : i + 60]!r} instead of {expected[i : i + 60]!r}")


def _comb(depth: int):
    """A labeled right comb: node k holds label k and node k+1 on its right."""
    t = None
    for label in range(depth, 0, -1):
        t = (label, None, t)
    return t


def test_deep_labeled_comb_renders_without_recursion():
    assert DEPTH > sys.getrecursionlimit()
    obj = labeled_tree_to_json_obj(_comb(DEPTH))
    with pytest.raises(RecursionError):
        json.dumps(obj, indent=2)
    pad = lambda d: "  " * d  # noqa: E731
    expected = (
        "".join(
            f'{{\n{pad(d + 1)}"label": {d + 1},\n{pad(d + 1)}"left": null,\n{pad(d + 1)}"right": '
            for d in range(DEPTH)
        )
        + "null"
        + "".join(f"\n{pad(d)}}}" for d in reversed(range(DEPTH)))
    )
    _same_text(dumps(obj), expected)
    # the text is streamed: every piece but the last has at least
    # CHUNK_SIZE characters, and none more than one part beyond it, the
    # longest part being the deepest indentation with its key
    chunks = list(iterdumps(obj))
    _same_text("".join(chunks), expected)
    assert all(len(chunk) >= CHUNK_SIZE for chunk in chunks[:-1])
    assert max(map(len, chunks)) < CHUNK_SIZE + len(',\n' + "  " * DEPTH + '"right": ')


def test_deep_tree_text_without_recursion():
    left_comb = right_comb = None
    for _ in range(DEPTH):
        left_comb, right_comb = (left_comb, None), (None, right_comb)
    _same_text(trees_to_text((left_comb,))[0], "(" * DEPTH + "-" + ",-)" * DEPTH)
    _same_text(trees_to_text((right_comb,))[0], "(-," * DEPTH + "-" + ")" * DEPTH)
    labeled = "".join(f"(- {label} " for label in range(1, DEPTH + 1)) + "-" + ")" * DEPTH
    _same_text(labeled_tree_to_text(_comb(DEPTH)), labeled)
    texts = trees_to_text([right_comb, right_comb[1], None])
    for got, k in zip(texts, (DEPTH, DEPTH - 1, 0), strict=True):
        _same_text(got, "(-," * k + "-" + ")" * k)


# -- labeled trees written from their tuples -----------------------------------

def _rendered(t):
    return jsontext._Rendered(partial(labeled_tree_json_parts, t))


def _at_depth(text: str, depth: int) -> str:
    """The text of a value written ``depth`` levels inside its container."""
    return text.replace("\n", "\n" + "  " * depth)


def _zigzag(n: int):
    """1, n, 2, n - 1, ...: its search tree is a path that turns at every node."""
    return tuple(v for pair in zip(range(1, n + 1), range(n, 0, -1)) for v in pair)[:n]


def test_tree_parts_equal_the_text_of_the_dict_tree():
    trees = [None]
    for n in range(7):
        for p in permutations(range(1, n + 1)):
            for reading in ("left-to-right", "right-to-left"):
                trees += bst_insert(p, reading)
    # the nodes of these lie deeper than the 64 depths whose indentation is kept
    for reading in ("left-to-right", "right-to-left"):
        trees += bst_insert(_zigzag(150), reading)
        trees += bst_insert(range(1, 101), reading)
    for t in trees:
        obj = labeled_tree_to_json_obj(t)
        for depth in (0, 1, 2):
            expected = _at_depth(dumps(obj), depth)
            assert "".join(labeled_tree_json_parts(t, depth)) == expected
            assert expected == _at_depth(json.dumps(obj, indent=2), depth)
        # written after an item and before another
        assert dumps({"n": 0, "P": _rendered(t), "Q": [1]}) == dumps({"n": 0, "P": obj, "Q": [1]})


@pytest.mark.parametrize("chunk_size", [1, 7, 60, 400])
def test_pieces_of_a_written_tree_end_at_its_parts(chunk_size):
    t = bst_insert(_zigzag(90))[0]
    tree_parts = list(labeled_tree_json_parts(t, 1))
    parts = ["{", '\n  "P": ' + tree_parts[0], *tree_parts[1:], "\n}"]
    ends = dict(zip(accumulate(map(len, parts)), map(len, parts)))
    with mock.patch.object(jsontext, "CHUNK_SIZE", chunk_size):
        pieces = list(iterdumps({"P": _rendered(t)}))
    assert "".join(pieces) == "".join(parts) == dumps({"P": labeled_tree_to_json_obj(t)})
    for end, piece in zip(accumulate(map(len, pieces)), pieces[:-1]):
        assert end in ends
        assert len(piece) >= chunk_size
        assert len(piece) - ends[end] < chunk_size


def _streamed(value):
    """The digest of the text iterdumps streams for {"P": value()}, the
    length of each piece, and the peak memory traced while building the
    value and streaming."""
    digest = hashlib.sha256()
    lengths = []
    tracemalloc.start()
    try:
        for piece in iterdumps({"P": value()}):
            digest.update(piece.encode())
            lengths.append(len(piece))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return digest.hexdigest(), lengths, peak


def test_deep_comb_streams_from_its_tuples_in_less_memory_than_its_dicts():
    comb = _comb(5000)
    assert 5000 > sys.getrecursionlimit()
    digest, lengths, peak = _streamed(lambda: _rendered(comb))
    assert len(lengths) > 1000
    assert all(length >= CHUNK_SIZE for length in lengths[:-1])
    # the text and the memory of the path through nested dicts
    dict_digest, _, dict_peak = _streamed(lambda: labeled_tree_to_json_obj(comb))
    assert digest == dict_digest
    assert peak <= dict_peak, (peak, dict_peak)
