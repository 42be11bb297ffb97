import hashlib
import json
import re
import tracemalloc
import sys
from functools import partial
from itertools import accumulate, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthdiagrams import cli, jsontext
from growthdiagrams.compositions import compositions_of
from growthdiagrams.jsontext import CHUNK_SIZE, iterdumps
from growthdiagrams.bst import bst_insert, labeled_tree_json_parts, labeled_tree_to_text
from growthdiagrams.trees import labeled_tree_to_json_obj
from oracles import trees_to_text


def dumps(value) -> str:
    return "".join(iterdumps(value))


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


@settings(max_examples=100, deadline=None)
@given(values, flat_lists)
def test_a_list_shared_at_two_depths_is_indented_for_each(value, shared):
    payload = [shared, [value, [shared]], {"again": shared}, shared]
    assert dumps(payload) == json.dumps(payload, indent=2)


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


class Stream(list):
    """A list that :func:`_live` makes an iterator of, written an item at
    a time; json.dumps writes it as the list it is."""


def _live(value):
    """value for iterdumps: each Stream an iterator whose items are made
    as it is read, under dicts and Streams."""
    if isinstance(value, Stream):
        return (_live(item) for item in value)
    if isinstance(value, dict):
        return {key: _live(item) for key, item in value.items()}
    return value


def _parts(value, depth: int = 0) -> list[str]:
    """The parts of the text of a value at ``depth`` as iterdumps defines
    them.  A dict or Stream is written an item at a time: what goes in
    front of each item, with its key in a dict, then the item's parts if
    it is a dict or Stream itself, else in the same part its whole text;
    then the closing bracket, or the whole "{}" or "[]" if it is empty.
    Any other value is one part, its whole text."""
    if isinstance(value, dict):
        brackets, items = "{}", [(json.dumps(key) + ": ", item) for key, item in value.items()]
    elif isinstance(value, Stream):
        brackets, items = "[]", [("", item) for item in value]
    else:
        return [_at_depth(json.dumps(value, indent=2), depth)]
    parts = []
    for i, (key, item) in enumerate(items):
        lead = ("," if i else brackets[0]) + "\n" + "  " * (depth + 1) + key
        if isinstance(item, (dict, Stream)):
            parts += [lead, *_parts(item, depth + 1)]
        else:
            parts.append(lead + _at_depth(json.dumps(item, indent=2), depth + 1))
    return [*parts, "\n" + "  " * depth + brackets[1]] if parts else [brackets]


def _assert_pieces(pieces: list[str], parts: list[str], chunk_size: int) -> None:
    """Each piece but the last ends where a part ends, and has at least
    chunk_size characters, and fewer without that part."""
    ends = dict(zip(accumulate(map(len, parts)), map(len, parts)))  # end offset -> part length
    assert "".join(pieces) == "".join(parts)
    assert all(pieces)
    for end, piece in zip(accumulate(map(len, pieces)), pieces[:-1]):
        assert end in ends
        assert len(piece) >= chunk_size
        assert len(piece) - ends[end] < chunk_size


@settings(max_examples=150, deadline=None)
@given(deep_values | st.dictionaries(texts, deep_values, max_size=6), st.integers(1, 300))
def test_pieces_are_whole_parts_and_end_once_chunk_size_is_reached(value, chunk_size):
    parts = _parts(value)
    with mock.patch.object(jsontext, "CHUNK_SIZE", chunk_size):
        pieces = list(iterdumps(value))
    assert "".join(parts) == json.dumps(value, indent=2)
    _assert_pieces(pieces, parts, chunk_size)


@settings(max_examples=100, deadline=None)
@given(st.lists(values, max_size=6), st.integers(1, 300))
def test_a_streamed_list_is_written_an_item_at_a_time(items, chunk_size):
    model = {"n": 1, "ranks": Stream(items), "m": [2]}
    parts = _parts(model)
    assert "".join(parts) == json.dumps(model, indent=2)
    made = []

    def each():
        for item in items:
            made.append(item)
            yield item

    with mock.patch.object(jsontext, "CHUNK_SIZE", chunk_size):
        pieces = list(iterdumps({"n": 1, "ranks": each(), "m": [2]}))
    _assert_pieces(pieces, parts, chunk_size)
    # one part per piece: item k is made just before its first part, not earlier
    made.clear()
    with mock.patch.object(jsontext, "CHUNK_SIZE", 1):
        counts = [len(made) for _ in iterdumps({"n": 1, "ranks": each(), "m": [2]})]
    # each item has as many parts as a list of it alone, but for its end
    item_counts = [k + 1 for k, item in enumerate(items) for _ in _parts(Stream([item]))[:-1]]
    assert counts == [0, 0, *item_counts, len(items), len(items), len(items)]


def _fresh_items():
    """Items of fresh lists, each freed before the next is made."""
    return ([[k, k + 1], [k]] for k in range(300))


def test_a_streamed_list_of_fresh_lists_writes_each_item_as_its_own():
    # a new list may take the id of an earlier, freed one, whose text
    # must not be reused
    assert len({id(item[0]) for item in _fresh_items()}) < 300
    expected = json.dumps({"ranks": list(_fresh_items())}, indent=2)
    _same_text(dumps({"ranks": _fresh_items()}), expected)
    # and so in a streamed list under a dict in another
    nested = ({"edges": _fresh_items()} for _ in range(3))
    expected = json.dumps({"ranks": [{"edges": list(_fresh_items())}] * 3}, indent=2)
    _same_text(dumps({"ranks": nested}), expected)


int_lists = st.lists(st.lists(st.integers(), max_size=3), min_size=1, max_size=6, unique_by=tuple)
edge_ends = st.tuples(st.integers(0, 5), st.integers(0, 5))


@settings(max_examples=100, deadline=None)
@given(int_lists, st.lists(st.lists(edge_ends, max_size=12), max_size=4))
def test_a_graph_shaped_stream_equals_json_dumps_of_its_lists(vertices, ranks):
    """Ranks made one at a time, each a dict whose edges are made one at a
    time: a fresh list of a vertex and a fresh copy of one, which may take
    the id of an earlier edge's copy once that edge is freed."""

    def edge(i, j):
        return [vertices[i % len(vertices)], list(vertices[j % len(vertices)])]

    def made():
        for n, edges in enumerate(ranks):
            yield {"n": n, "vertices": vertices, "edges": (edge(*ends) for ends in edges)}

    expected = [{"n": n, "vertices": vertices, "edges": [edge(*ends) for ends in edges]} for n, edges in enumerate(ranks)]
    assert dumps({"name": "g", "ranks": made()}) == json.dumps({"name": "g", "ranks": expected}, indent=2)
    assert dumps(made()) == json.dumps(expected, indent=2)


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


DEPTH = 3000


def _same_text(got: str, expected: str) -> None:
    # no pytest diff: it takes minutes on texts this long
    if got != expected:
        i = next((k for k, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        pytest.fail(f"text differs from character {i} on: {got[i : i + 60]!r} instead of {expected[i : i + 60]!r}")


def _comb(depth: int, side: str = "right"):
    """A labeled comb: node k holds label k and node k+1 on its ``side``."""
    t = None
    for label in range(depth, 0, -1):
        t = (label, t, None) if side == "left" else (label, None, t)
    return t


def _comb_text(depth: int, at: int = 0, side: str = "right"):
    """The json.dumps(indent=2) text of the dicts of _comb(depth, side),
    as a value ``at`` levels inside its container, in pieces."""
    pad = lambda d: "  " * (at + d)  # noqa: E731
    for d in range(depth):
        if side == "left":
            yield f'{{\n{pad(d + 1)}"label": {d + 1},\n{pad(d + 1)}"left": '
        else:
            yield f'{{\n{pad(d + 1)}"label": {d + 1},\n{pad(d + 1)}"left": null,\n{pad(d + 1)}"right": '
    yield "null"
    for d in reversed(range(depth)):
        yield f',\n{pad(d + 1)}"right": null\n{pad(d)}}}' if side == "left" else f"\n{pad(d)}}}"


def test_deep_labeled_comb_renders_without_recursion():
    assert DEPTH > sys.getrecursionlimit()
    comb = _comb(DEPTH)
    with pytest.raises(RecursionError):
        json.dumps(labeled_tree_to_json_obj(comb), indent=2)
    expected = "".join(_comb_text(DEPTH))
    _same_text(dumps(_rendered(comb)), expected)
    # the text is streamed: every piece but the last has at least
    # CHUNK_SIZE characters, and none more than one part beyond it, the
    # longest part being the deepest indentation with its key
    chunks = list(iterdumps(_rendered(comb)))
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
    parts = ['{\n  "n": [\n    1,\n    2\n  ]', ',\n  "P": ', *labeled_tree_json_parts(t, 1), "\n}"]
    with mock.patch.object(jsontext, "CHUNK_SIZE", chunk_size):
        pieces = list(iterdumps({"n": [1, 2], "P": _rendered(t)}))
    assert "".join(parts) == dumps({"n": [1, 2], "P": labeled_tree_to_json_obj(t)})
    _assert_pieces(pieces, parts, chunk_size)
    # a tree that is the whole value is written in its own parts
    parts = list(labeled_tree_json_parts(t))
    with mock.patch.object(jsontext, "CHUNK_SIZE", chunk_size):
        pieces = list(iterdumps(_rendered(t)))
    _assert_pieces(pieces, parts, chunk_size)


def _traced_peak(run) -> int:
    """The peak memory traced while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deep_comb_streams_from_its_tuples_in_less_memory_than_its_dicts():
    assert 5000 > sys.getrecursionlimit()
    # the walk's stack holds no pair between the nodes of a right comb, and
    # one (depth, right subtree) pair per node above it on a left comb
    for side in ("right", "left"):
        comb = _comb(5000, side)
        digest = hashlib.sha256()
        lengths = []

        def stream():
            for piece in iterdumps({"P": _rendered(comb)}):
                digest.update(piece.encode())
                lengths.append(len(piece))

        peak = _traced_peak(stream)
        assert len(lengths) > 1000, side
        assert all(length >= CHUNK_SIZE for length in lengths[:-1]), side
        expected = hashlib.sha256()
        for text in ('{\n  "P": ', *_comb_text(5000, 1, side), "\n}"):
            expected.update(text.encode())
        assert digest.hexdigest() == expected.hexdigest(), side
        # the text is about 100 MB; streaming it holds a few pieces and the
        # open nodes, less than the comb's nested dicts alone take
        dict_peak = _traced_peak(lambda: labeled_tree_to_json_obj(comb))
        assert peak <= dict_peak, (side, peak, dict_peak)


@pytest.mark.parametrize(
    "value",
    [
        [_rendered(None)],
        (1, _rendered(None)),
        {"P": [_rendered(None)]},
        {"n": 1, "P": [[1], {"Q": _rendered((1, None, None))}]},
        {"P": iter([[_rendered(None)]])},
        iter([(1, {"Q": _rendered(None)})]),
    ],
)
def test_a_rendered_value_in_a_list_or_tuple_raises_type_error(value):
    with pytest.raises(TypeError, match="Object of type _Rendered is not JSON serializable"):
        list(iterdumps(value))


def test_a_rendered_value_under_a_nested_dict_or_in_a_streamed_list_writes_its_parts():
    t = bst_insert(_zigzag(12))[0]
    obj = labeled_tree_to_json_obj(t)
    cases = [
        # the value around a tree, and the depth of each tree in it
        (lambda tree: {"P": {"Q": tree}}, [2]),
        (lambda tree: {"n": 1, "P": Stream([tree, {"Q": tree}, [1]])}, [2, 3]),
        (lambda tree: Stream([Stream([tree]), {"P": {"Q": Stream([tree])}}]), [2, 4]),
    ]
    for make, depths in cases:
        with mock.patch.object(jsontext, "CHUNK_SIZE", 1):
            pieces = list(iterdumps(_live(make(_rendered(t)))))
        assert "".join(pieces) == json.dumps(make(obj), indent=2)
        for depth in depths:
            tree_parts = list(labeled_tree_json_parts(t, depth))
            assert any(pieces[i : i + len(tree_parts)] == tree_parts for i in range(len(pieces))), depth


@pytest.mark.parametrize("key", [1, None, True, ("P",)])
def test_a_key_of_the_top_level_dict_other_than_str_raises_type_error(key):
    for value in ({key: 1}, {"n": 1, key: _rendered(None)}):
        with pytest.raises(TypeError, match=f"keys must be str, not {type(key).__name__}"):
            list(iterdumps(value))


def _items(text: str, depth: int) -> list[str]:
    """The item texts of a non-empty list whose items are at ``depth``."""
    indent = "  " * depth
    assert text.startswith("[\n" + indent) and text.endswith("\n" + "  " * (depth - 1) + "]"), text
    body = text[len(indent) + 2 : -len(indent)]
    return re.split(f",\n{indent}(?! )", body)


def test_growth_and_graph_write_a_composition_in_one_form(capsys):
    """Every composition of rank <= 6 has one text: its vertex in ``graph
    binword`` (depth 4) is its cell in ``growth composition`` (depth 3)
    indented one level deeper, and ``json.dumps(parts, indent=2)``
    indented to depth 4."""
    assert cli.main(["graph", "binword", "--max-rank", "6", "--format", "json"]) == 0
    graph = {}
    for vertices in re.findall(r'"vertices": (\[.*?\n {6}\])', capsys.readouterr().out, re.DOTALL):
        for text in _items(vertices, 4):
            graph[tuple(json.loads(text))] = text
    growth = {}
    for p in permutations(range(1, 7)):
        assert cli.main(["growth", "composition", ",".join(map(str, p)), "--format", "json"]) == 0
        grid = re.search(r'"grid": (\[.*?\n  \])', capsys.readouterr().out, re.DOTALL).group(1)
        for row in _items(grid, 2):
            for text in _items(row, 3):
                growth[tuple(json.loads(text))] = text.replace("\n", "\n  ")
    assert sorted(graph) == sorted(growth) == sorted(c for n in range(7) for c in compositions_of(n))
    for parts, text in graph.items():
        assert text == growth[parts] == json.dumps(list(parts), indent=2).replace("\n", "\n" + "  " * 4), parts
