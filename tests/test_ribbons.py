import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import recoils_composition
from test_growth import random_avoid231

from growthdiagrams.permutations import all_permutations
from growthdiagrams.ribbons import (
    QuasiRibbonTableau,
    RibbonTableau,
    hypoplactic_insert,
    render_tableau,
    shadow_lines,
)

perms = st.integers(0, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_insertion_steps_for_415362():
    # P of each prefix, in the prefix's own letters
    word = (4, 1, 5, 3, 6, 2)
    states = [
        ((4,),),
        ((1,), (4,)),
        ((1,), (4, 5)),
        ((1, 3), (4, 5)),
        ((1, 3), (4, 5, 6)),
        ((1, 2), (3,), (4, 5, 6)),
    ]
    for k, expected in enumerate(states, 1):
        letters = sorted(word[:k])
        rows = hypoplactic_insert(word[:k])[0].rows
        assert tuple(tuple(letters[v - 1] for v in row) for row in rows) == expected


def test_insert_rejects_duplicates():
    with pytest.raises(ValueError):
        hypoplactic_insert((1, 1))


def test_hypoplactic_insert_415362():
    p_tab, q_tab = hypoplactic_insert((4, 1, 5, 3, 6, 2))
    assert p_tab == QuasiRibbonTableau(((1, 2), (3,), (4, 5, 6)))
    assert q_tab == RibbonTableau(((2, 6), (4,), (1, 3, 5)))


def test_hypoplactic_insert_small():
    p_tab, q_tab = hypoplactic_insert((1, 2, 3))
    assert p_tab.rows == ((1, 2, 3),)
    assert q_tab.rows == ((1, 2, 3),)
    p_tab, q_tab = hypoplactic_insert((3, 2, 1))
    assert p_tab.rows == ((1,), (2,), (3,))
    assert q_tab.rows == ((3,), (2,), (1,))
    p_tab, q_tab = hypoplactic_insert(())
    assert p_tab.rows == () and q_tab.rows == ()


def test_recording_grows_like_the_worked_example():
    # Q of each prefix is the recording state after that many insertions
    word = (4, 1, 5, 3, 6, 2)
    q_states = [
        ((1,),),
        ((2,), (1,)),
        ((2,), (1, 3)),
        ((2, 4), (1, 3)),
        ((2, 4), (1, 3, 5)),
        ((2, 6), (4,), (1, 3, 5)),
    ]
    for k, expected in enumerate(q_states, 1):
        assert hypoplactic_insert(word[:k])[1].rows == expected


def test_shadow_lines_examples():
    p_tab, q_tab = shadow_lines((4, 1, 5, 3, 6, 2))
    assert p_tab.rows == ((1, 2), (3,), (4, 5, 6))
    assert q_tab.rows == ((2, 6), (4,), (1, 3, 5))
    p_tab, q_tab = shadow_lines((1, 2, 3))
    assert p_tab.rows == ((1, 2, 3),) and q_tab.rows == ((1, 2, 3),)
    p_tab, q_tab = shadow_lines((2, 1))
    assert p_tab.rows == ((1,), (2,)) and q_tab.rows == ((2,), (1,))


def test_shadow_equals_insertion_small():
    for n in range(6):
        for p in all_permutations(n):
            assert shadow_lines(p) == hypoplactic_insert(p)


@given(perms)
def test_shadow_equals_insertion_random(p):
    assert shadow_lines(p) == hypoplactic_insert(p)


def test_shape_law_small():
    for n in range(6):
        for p in all_permutations(n):
            p_tab, q_tab = hypoplactic_insert(p)
            assert p_tab.shape == recoils_composition(p)
            assert q_tab.shape == p_tab.shape


@given(perms)
def test_tableaux_are_standard_and_canonical(p):
    p_tab, q_tab = hypoplactic_insert(p)
    # standard: each reading word is a rearrangement of 1..n, P's in order
    assert p_tab.reading() == tuple(range(1, len(p) + 1))
    assert sorted(q_tab.reading()) == list(p_tab.reading())
    p_tab.validate()
    q_tab.validate()


def test_validation_rejects_bad_tableaux():
    with pytest.raises(ValueError):
        QuasiRibbonTableau(((3, 1),))  # row not increasing
    with pytest.raises(ValueError):
        QuasiRibbonTableau(((2, 3), (1,)))  # overlap column must increase down
    with pytest.raises(ValueError):
        RibbonTableau(((1, 2), (3,)))  # overlap column must increase up
    with pytest.raises(ValueError):
        QuasiRibbonTableau(((1,), (2,), ()))  # empty row
    with pytest.raises(ValueError):
        QuasiRibbonTableau(((1, 1),))  # duplicate label
    # the same rows can be fine for one kind and not the other
    RibbonTableau(((2, 3), (1,))).validate()
    QuasiRibbonTableau(((1, 2), (3,))).validate()


def test_kinds_do_not_compare_equal():
    assert QuasiRibbonTableau(((1,),)) != RibbonTableau(((1,),))


def test_layout_and_json():
    t = QuasiRibbonTableau(((1, 2), (3,), (4, 5, 6)))
    assert t.shape == (2, 1, 3)
    assert t.column_offsets() == (0, 1, 1)
    assert t.to_json_obj() == {"shape": [2, 1, 3], "rows": [[1, 2], [3], [4, 5, 6]]}
    assert render_tableau(t) == "1 2\n  3\n  4 5 6"
    assert render_tableau(QuasiRibbonTableau(())) == "(empty)"


# -- the scan-based step, kept as the oracle for the bisection step ----------

def scan_insert_rows(rows, a):
    """
    Hypoplactic insertion of one letter into raw rows, found by scanning
    the whole tableau: compare a with the last letter of the last row,
    otherwise put a just right of the last entry <= a in reading order and
    shift the rest of that row below it.  Returns the new rows and the
    1-based reading position of a.
    """
    if not rows:
        return ((a,),), 1
    if a > rows[-1][-1]:
        return rows[:-1] + (rows[-1] + (a,),), sum(map(len, rows)) + 1
    last_le = None  # (row, column, reading index) of the last entry <= a
    idx = 0
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v <= a:
                last_le = (i, j, idx)
            idx += 1
    if last_le is None:
        return ((a,),) + rows, 1
    i, j, idx = last_le
    head = rows[i][: j + 1] + (a,)
    tail = rows[i][j + 1 :]
    return rows[:i] + (head,) + ((tail,) if tail else ()) + rows[i + 1 :], idx + 2


def scan_hypoplactic_insert(word):
    """Fold of the scan step with the canonical relabeling of P."""
    rows = ()
    q_reading = []
    for step, a in enumerate(word, 1):
        rows, pos = scan_insert_rows(rows, a)
        q_reading.insert(pos - 1, step)
    rank = {v: i for i, v in enumerate(sorted(word), 1)}
    q_rows = []
    for row in rows:  # cut Q's reading word into rows of P's lengths
        q_rows.append(tuple(q_reading[: len(row)]))
        del q_reading[: len(row)]
    return (
        QuasiRibbonTableau(tuple(tuple(rank[v] for v in row) for row in rows)),
        RibbonTableau(q_rows),
    )


def test_step_matches_scan_exhaustive():
    for n in range(8):
        for p in all_permutations(n):
            assert hypoplactic_insert(p) == scan_hypoplactic_insert(p)


@pytest.mark.parametrize("kind", ["identity", "reverse", "avoid231", "random"])
def test_insertion_matches_scan_seeded(kind):
    n = 2000
    rng = random.Random(f"hypoplactic-{kind}")
    word = {
        "identity": lambda: tuple(range(1, n + 1)),
        "reverse": lambda: tuple(range(n, 0, -1)),
        "avoid231": lambda: random_avoid231(n, rng),
        "random": lambda: tuple(rng.sample(range(1, n + 1), n)),
    }[kind]()
    assert sorted(word) == list(range(1, n + 1))
    assert hypoplactic_insert(word) == scan_hypoplactic_insert(word)


def test_insertion_matches_scan_on_words_with_gaps():
    rng = random.Random("gaps")
    for n in (1, 2, 5, 17, 60, 400, 2000):
        word = rng.sample(range(1, 3 * n), n)
        assert hypoplactic_insert(word) == scan_hypoplactic_insert(word)


# the messages the scan-based step with per-step validation raised
@pytest.mark.parametrize(
    "word, message",
    [
        ((1, 1), "letters must be distinct"),
        ((2, 5, 2), "letters must be distinct"),
        ((0,), "labels must be positive integers, got 0"),
        ((2, 0), "labels must be positive integers, got 0"),
        ((3, -1), "labels must be positive integers, got -1"),
        ((1.5,), "labels must be positive integers, got 1.5"),
        ((1, 1.5), "labels must be positive integers, got 1.5"),
        ((2, 1.5), "labels must be positive integers, got 1.5"),
        ((1.5, 0), "labels must be positive integers, got 1.5"),
        (("a",), "labels must be positive integers, got 'a'"),
        # the scan-based step raised TypeError here, comparing "a" with 1
        ((1, "a"), "labels must be positive integers, got 'a'"),
    ],
)
def test_hypoplactic_insert_letter_errors(word, message):
    with pytest.raises(ValueError) as excinfo:
        hypoplactic_insert(word)
    assert str(excinfo.value) == message
