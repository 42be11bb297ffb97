"""
The library's checks against the row-by-row and value-by-value reference
checks (tests/oracles.py): on seeded random inputs, every entry point
accepts the same inputs with the same result, and rejects the others with
the same exception type and message.
"""
import random

from oracles import (
    hypoplactic_rows,
    loop_validate_permutation,
    shadow_line_rows,
    tableau_rows,
)

from growthdiagrams.permutations import validate_permutation
from growthdiagrams.ribbons import (
    QuasiRibbonTableau,
    RibbonTableau,
    hypoplactic_insert,
    shadow_lines,
)

# not positive ints, though some compare and hash like them
JUNK = (0, -1, -4, 1.5, 2.0, True, False, "a", "2", None)


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)


def rows_of(result):
    """A tableau, or a pair of them, as (kind, rows) values."""
    if isinstance(result, tuple):
        return tuple(map(rows_of, result))
    return type(result).__name__, result.rows


def random_word(rng, max_n):
    n = rng.randint(0, max_n)
    roll = rng.random()
    if roll < 0.2:
        word = sorted(rng.sample(range(1, 2 * max_n), n))
    elif roll < 0.4:
        word = [rng.randint(1, max(n // 2, 1)) for _ in range(n)]  # duplicates
    elif roll < 0.8:
        word = rng.sample(range(1, n + 1), n)  # a permutation
    else:
        word = rng.sample(range(1, 2 * max_n), n)  # gaps
    for i in range(n):
        if rng.random() < 0.06:
            word[i] = rng.choice(JUNK)
        elif rng.random() < 0.03:
            word[i] = rng.choice((n + 1, n + 5))  # out of range
    return word


def random_rows(rng, word):
    """Cut the word into rows, mostly where it falls (a ribbon's column
    break), sometimes where it rises (a quasi-ribbon's), with a few empty
    rows."""
    rows, row = [], []
    for i, v in enumerate(word):
        row.append(v)
        if i + 1 < len(word):
            try:
                falls = v > word[i + 1]
            except TypeError:
                falls = False
            if rng.random() < (0.8 if falls else 0.25):
                rows.append(row)
                row = []
    if row or rng.random() < 0.1:
        rows.append(row)
    if rng.random() < 0.05:
        rows.insert(rng.randint(0, len(rows)), [])
    return rows


def test_both_tableau_constructors_match_the_row_by_row_oracle():
    rng = random.Random(20070101)
    for _ in range(4000):
        word = random_word(rng, 9)
        rows = random_rows(rng, word)
        for kind, down in ((QuasiRibbonTableau, True), (RibbonTableau, False)):
            expected = outcome(tableau_rows, rows, down)
            if expected[0] == "ok":
                expected = "ok", (kind.__name__, expected[1])
            got = outcome(lambda: rows_of(kind(rows)))
            assert got == expected, (kind.__name__, rows)
            if all(rows):
                # row-end flags as bools, or as the 0/1 letters growth passes
                flag = rng.choice((bool, int))
                ends = [flag(j == len(row) - 1) for row in rows for j in range(len(row))][:-1]
                flat = [v for row in rows for v in row]
                got = outcome(lambda: rows_of(kind._from_reading(flat, ends)))
                assert got == expected, (kind.__name__, "from reading", rows)
                if expected[0] == "ok":
                    t = kind._from_reading(flat, ends)
                    assert t == kind(rows) and hash(t) == hash(kind(rows))
        assert outcome(validate_permutation, word) == outcome(loop_validate_permutation, word), word
        assert outcome(lambda: rows_of(shadow_lines(word))) == outcome(
            lambda: tuple(zip(("QuasiRibbonTableau", "RibbonTableau"), shadow_line_rows(word)))
        ), word
        assert outcome(lambda: rows_of(hypoplactic_insert(word))) == outcome(
            lambda: tuple(zip(("QuasiRibbonTableau", "RibbonTableau"), hypoplactic_rows(word)))
        ), word
