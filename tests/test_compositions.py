import gc
import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from growthdiagrams import compositions as comp
from growthdiagrams.compositions import (
    WordEncodingError,
    binword_covers,
    composition_to_word,
    compositions_of,
    increment_last,
    is_binword_cover,
    is_lifted_cover,
    lifted_covers,
    word_to_composition,
)
from oracles import composition_label

compositions = st.lists(st.integers(1, 5), max_size=6).map(tuple)


def all_words(length):
    if length == 0:
        return [""]
    return ["1" + "".join(bits) for bits in itertools.product("01", repeat=length - 1)]


def binword_deletion_positions(u, v):
    """
    Oracle for Binword covers at word level: all 1-based positions q >= 2
    such that deleting letter q from v gives u.  Empty when (u, v) is not
    a Binword cover.
    """
    if len(v) != len(u) + 1:
        raise ValueError(f"lengths differ by {len(v) - len(u)}, expected 1")
    return frozenset(q for q in range(2, len(v) + 1) if v[: q - 1] + v[q:] == u)


def test_word_examples():
    assert composition_to_word((3, 2, 1)) == "100101"
    assert composition_to_word(()) == ""
    assert composition_to_word((1, 1, 1)) == "111"
    assert word_to_composition("100101") == (3, 2, 1)
    assert word_to_composition("") == ()
    assert word_to_composition("1010") == (2, 2)


def test_word_rejects_leading_zero():
    with pytest.raises(WordEncodingError):
        word_to_composition("010")
    with pytest.raises(WordEncodingError):
        word_to_composition("12")


@given(compositions)
def test_word_round_trip(c):
    assert word_to_composition(composition_to_word(c)) == c


def test_round_trip_exhaustive():
    for n in range(11):
        for c in compositions_of(n):
            assert word_to_composition(composition_to_word(c)) == c


def test_composition_counts():
    assert compositions_of(0) == ((),)
    for n in range(1, 11):
        cs = compositions_of(n)
        assert len(cs) == 2 ** (n - 1)
        assert len(set(cs)) == len(cs)
        assert all(sum(c) == n for c in cs)


def test_canonical_order_is_word_lexicographic():
    assert compositions_of(3) == ((3,), (2, 1), (1, 2), (1, 1, 1))
    for n in range(8):
        words = [composition_to_word(c) for c in compositions_of(n)]
        assert words == sorted(words)
    # the index a graph gives a composition of n is its word value - 2^(n-1)
    for n in range(1, 11):
        assert [comp.word_value(c) for c in compositions_of(n)] == list(range(1 << (n - 1), 1 << n))


def test_lifted_covers_examples():
    assert lifted_covers((2, 1)) == {(2, 2), (2, 1, 1)}
    assert lifted_covers(()) == {(1,)}
    assert lifted_covers((3,)) == {(4,), (3, 1)}


def test_lifted_out_degree():
    for n in range(11):
        for c in compositions_of(n):
            assert len(lifted_covers(c)) == (2 if c else 1)


def test_increment_last():
    assert increment_last(()) == (1,)
    assert increment_last((2, 1)) == (2, 2)


def test_binword_covers_examples():
    assert binword_covers((3,)) == {(4,), (3, 1), (1, 3), (2, 2)}
    assert binword_covers((1, 1)) == {(1, 2), (1, 1, 1), (2, 1)}
    assert binword_covers(()) == {(1,)}


def test_binword_covers_match_deletion_filter():
    # oracle: enumerate every word one letter longer and keep those with a
    # deletable non-first letter
    for n in range(1, 9):
        for c in compositions_of(n):
            w = composition_to_word(c)
            expected = {
                word_to_composition(v)
                for v in all_words(n + 1)
                if binword_deletion_positions(w, v)
            }
            assert binword_covers(c) == expected


def test_deletion_positions_examples():
    assert binword_deletion_positions("10100", "101100") == {3, 4}
    assert binword_deletion_positions("1010", "10100") == {4, 5}
    assert binword_deletion_positions("1", "10") == {2}
    assert binword_deletion_positions("10", "111") == frozenset()
    with pytest.raises(ValueError):
        binword_deletion_positions("1", "100")


def test_cover_iff_deletion_positions_nonempty():
    # away from the special (empty, 1) edge, the cover relation is exactly
    # the deletion test at word level
    for n in range(1, 8):
        for c in compositions_of(n):
            w = composition_to_word(c)
            for c2 in compositions_of(n + 1):
                positions = binword_deletion_positions(w, composition_to_word(c2))
                assert (c2 in binword_covers(c)) == bool(positions)


def test_covers_reach_every_composition():
    # walking up from the empty composition visits each rank completely,
    # in both graphs
    for covers in (lifted_covers, binword_covers):
        frontier = {()}
        for n in range(1, 9):
            frontier = {c2 for c in frontier for c2 in covers(c)}
            assert frontier == set(compositions_of(n))


def test_same_run_lemma():
    # every deletable position of a given pair carries the same letter
    for length in range(1, 11):
        for v in all_words(length):
            by_result = {}
            for q in range(2, length + 1):
                by_result.setdefault(v[: q - 1] + v[q:], []).append(v[q - 1])
            for letters in by_result.values():
                assert len(set(letters)) == 1


@pytest.mark.parametrize(
    "is_cover, covers", [(is_lifted_cover, lifted_covers), (is_binword_cover, binword_covers)]
)
def test_cover_predicates_match_cover_sets(is_cover, covers):
    for n in range(8):
        for c in compositions_of(n):
            for d in compositions_of(n + 1):
                assert is_cover(c, d) == (d in covers(c)), (c, d)
            # same-rank and two-rank pairs are never covers
            assert not any(is_cover(c, d) for d in compositions_of(n))
            assert not any(is_cover(c, d) for d in compositions_of(n + 2))


def test_composition_label():
    assert [composition_label(c) for c in compositions_of(3)] == ["3", "2,1", "1,2", "1,1,1"]
    assert composition_label(()) == "e"
    assert composition_label((12, 1)) == "12,1"


def _module_memo_sizes() -> dict:
    """The entries that each module-level container and cache of the
    package holds."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "growthdiagrams":
            continue
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info):
                sizes[name, attr] = info().currsize
            elif isinstance(value, (dict, list, set)):
                sizes[name, attr] = len(value)
    return sizes


def test_fills_retain_no_growing_module_memo():
    # 50 composition fills in one process: after the first, no module-level
    # memo or cache of the package gains an entry, and the memory the
    # process still holds once the grids are dropped does not grow with
    # the number of fills
    from growthdiagrams.growth import build_growth_diagram

    def fill(p):
        # the label fill, then the text fill that every reader of a grid runs
        for _ in build_growth_diagram(p, "composition").rows():
            pass

    rng = random.Random(7)
    perms = sorted({tuple(rng.sample(range(1, 61), 60)) for _ in range(50)})
    assert len(perms) == 50
    fill(perms[0])
    sizes = _module_memo_sizes()
    tracemalloc.start()
    try:
        fill(perms[0])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        for p in perms[1:]:
            fill(p)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert _module_memo_sizes() == sizes
    # a memo of the ~2.5k vertices of each fill would hold megabytes
    assert grown < 64 * 1024
