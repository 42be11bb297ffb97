"""
The walks that run `verify shadow` and `verify equivalence` over all
permutations of one size, against the public functions they stand in
for, which compare one permutation at a time: `shadow_walk`, a loop over
the permutations in lexicographic order, and `equivalence_walk`, a
depth-first walk over the prefixes of inverse(p).  On every size the
walk counts every permutation, and the permutations it reports include
every one where the public functions differ or reject a result.  Checked
on the code as it is for n <= 7, and with faults planted in the step
rules and conversions that both share.
"""
import math

import pytest

from growthdiagrams import bst, compositiongrowth, growth, growthcheck, ribbons
from growthdiagrams.cli import main
from growthdiagrams.permutations import all_permutations
from test_growth import _patch_pair

# each exhaustive check: its walk over one size, and the two public routes
ROUTES = {
    "shadow": (
        lambda n: ribbons.shadow_walk(n),
        lambda p: ribbons.shadow_lines(p),
        lambda p: ribbons.hypoplactic_insert(p),
    ),
    "composition": (
        lambda n: growthcheck.equivalence_walk(n, "composition"),
        lambda p: ribbons.hypoplactic_insert(p),
        lambda p: growthcheck.growth_insert(p, "composition"),
    ),
    "tree": (
        lambda n: growthcheck.equivalence_walk(n, "tree"),
        lambda p: bst.bst_insert(p, "left-to-right"),
        lambda p: growthcheck.growth_insert(p, "tree"),
    ),
}


def plant_wrong_recording_step(monkeypatch):
    """Hypoplactic insertion records step 2 in the wrong cell when it
    inserts 3 after 1: Q stays a ribbon tableau, but another one."""
    real = ribbons._insertion_forms

    def planted(word):
        reading, ends, q = real(word)
        if tuple(word[:2]) == (1, 3):
            # step 2 goes in front of step 1, and each later step where
            # it goes anyway: 1 and 2 trade places in Q's reading word
            q = [3 - v if v < 3 else v for v in q]
        return reading, ends, q

    monkeypatch.setattr(ribbons, "_insertion_forms", planted)


def plant_wrong_shadow_ends(monkeypatch):
    """The shadow lines of 231 and 312, whose inverses are 312 and 231,
    break as those of 123 do, nowhere, so their Q is one row that does
    not increase."""
    real = ribbons._shadow_ends

    def planted(inv):
        return real((1, 2, 3)) if tuple(inv) in ((3, 1, 2), (2, 3, 1)) else real(inv)

    monkeypatch.setattr(ribbons, "_shadow_ends", planted)


def plant_wrong_recording_tree(monkeypatch):
    """The growth diagram's Q comes out as the recording tree of 123 for
    231 and for 312.  The walk meets 312 first, as it visits permutations
    in the order of their inverses, 312 and 231."""
    slots = growth._pair("tree").q_from_labels
    wrong = bst.bst_insert((1, 2, 3))[1]
    hit = {bst.bst_insert(p)[1] for p in ((2, 3, 1), (3, 1, 2))}

    def planted(labels):
        q = slots(labels)
        return wrong if q in hit else q

    _patch_pair(monkeypatch, "tree", q_from_labels=planted)


def plant_unsorted_insertion(monkeypatch):
    """Every letter appended: P's reading word is unsorted from n = 2 on,
    which only the check of P can notice."""
    monkeypatch.setattr(ribbons, "bisect_right", lambda reading, a: len(reading))


def plant_wrong_ribbon_conversion(monkeypatch):
    """The growth diagram's Q reads the labels of 132 as those of 123, a
    valid ribbon tableau of another shape."""
    real = compositiongrowth._ribbon_forms

    def planted(labels):
        return real((3, 4, 6) if tuple(labels) == (3, 4, 7) else labels)

    monkeypatch.setattr(compositiongrowth, "_ribbon_forms", planted)


def plant_same_misordered_recording(monkeypatch):
    """Both composition routes make Q of 21 read 1, 2 and cut after its
    first cell, as it should be cut: the same Q, whose reading word rises
    at its row end, so it is no ribbon tableau."""
    insertion, conversion = ribbons._insertion_forms, compositiongrowth._ribbon_forms

    def misordered(q_forms):
        return ([1, 2], q_forms[1]) if q_forms == ([2, 1], (True,)) else q_forms

    def planted(word):
        reading, ends, q = insertion(word)
        return reading, ends, misordered((q, ends))[0]

    monkeypatch.setattr(ribbons, "_insertion_forms", planted)
    monkeypatch.setattr(compositiongrowth, "_ribbon_forms", lambda labels: misordered(conversion(labels)))


def fails(first, second, p) -> bool:
    """Whether the public routes differ on p or reject a result."""
    try:
        return first(p) != second(p)
    except ValueError:
        return True


@pytest.mark.parametrize("check", sorted(ROUTES))
def test_walks_count_and_pass_every_permutation(check):
    # the public functions pass every permutation too: test_acceptance,
    # criteria 5 and 6
    walk = ROUTES[check][0]
    for n in range(8):
        assert walk(n) == (math.factorial(n), [])


def test_the_tree_walk_meets_faults_in_the_order_of_inverses(monkeypatch):
    plant_wrong_recording_tree(monkeypatch)
    assert growthcheck.equivalence_walk(3, "tree") == (6, [(3, 1, 2), (2, 3, 1)])


def test_the_shadow_walk_meets_faults_in_lexicographic_order(monkeypatch):
    plant_wrong_shadow_ends(monkeypatch)
    assert ribbons.shadow_walk(3) == (6, [(2, 3, 1), (3, 1, 2)])


def test_insertion_makes_the_forms_the_leaf_does_not_check():
    # P's reading word is 1..n and Q's holds the ints 1..n once each, so
    # of both kinds' checks the leaf reads only Q's descents
    for n in range(8):
        identity = list(range(1, n + 1))
        for p in all_permutations(n):
            reading, _, q = ribbons._insertion_forms(p)
            assert reading == identity
            assert sorted(q) == identity and {type(v) for v in q} <= {int}


def test_the_leaf_reads_the_descents_of_a_common_recording_tableau(monkeypatch):
    plant_same_misordered_recording(monkeypatch)
    assert growthcheck.equivalence_walk(2, "composition") == (2, [(2, 1)])
    for route in ROUTES["composition"][1:]:
        with pytest.raises(ValueError, match="column must increase upwards: 1 above 2"):
            route((2, 1))


@pytest.mark.parametrize(
    "check, plant",
    [
        ("shadow", plant_wrong_recording_step),
        ("shadow", plant_unsorted_insertion),
        ("shadow", plant_wrong_shadow_ends),
        ("composition", plant_wrong_recording_step),
        ("composition", plant_unsorted_insertion),
        ("composition", plant_wrong_ribbon_conversion),
        ("composition", plant_same_misordered_recording),
        ("tree", plant_wrong_recording_tree),
    ],
)
def test_walks_report_every_permutation_the_public_functions_fail(monkeypatch, check, plant):
    walk, first, second = ROUTES[check]
    plant(monkeypatch)
    failed = 0
    for n in range(6):
        count, suspects = walk(n)
        assert count == math.factorial(n)
        assert len(set(suspects)) == len(suspects)
        failing = [p for p in all_permutations(n) if fails(first, second, p)]
        assert sorted(p for p in suspects if fails(first, second, p)) == failing
        failed += len(failing)
    # every plant breaks a result
    assert failed > 0


# -- the record's direct insertion and leaf test, as verify equivalence reads them

PLANTED = (2, 1, 3)


def plant_wrong_direct(monkeypatch, family):
    """The record's direct insertion gives 213 the (P, Q) pair of 312."""
    direct = growth._pair(family).direct
    _patch_pair(monkeypatch, family, direct=lambda p: direct((3, 1, 2) if tuple(p) == PLANTED else p))


def plant_leaf_failing_213(monkeypatch, family):
    """The record's leaf test fails 213 whatever its labels."""
    leaf = growth._pair(family).leaf
    _patch_pair(monkeypatch, family, leaf=lambda dual, p, *labels: p != PLANTED and leaf(dual, p, *labels))


def _verify_equivalence(capsys, family) -> tuple[int, str, str]:
    code = main(["verify", "equivalence", "--family", family, "--max-n", "4"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _passed(*sizes: int) -> str:
    return "".join(f"n={n}: {math.factorial(n)}/{math.factorial(n)} PASS\n" for n in sizes)


@pytest.mark.parametrize(
    "family, plants",
    [
        # the tree leaf compares the labels with the record's direct insertion
        ("tree", [plant_wrong_direct]),
        # the composition leaf reads the forms of hypoplactic insertion, so
        # the record's leaf must report 213 for its direct insertion to judge it
        ("composition", [plant_wrong_direct, plant_leaf_failing_213]),
        ("tree", [plant_wrong_direct, plant_leaf_failing_213]),
    ],
    ids=["tree-direct", "composition-direct-and-leaf", "tree-direct-and-leaf"],
)
def test_verify_equivalence_judges_by_the_records_direct_insertion_and_leaf(monkeypatch, capsys, family, plants):
    for plant in plants:
        plant(monkeypatch, family)
    mismatch = f"MISMATCH at permutation {PLANTED} (family {family})\n"
    assert _verify_equivalence(capsys, family) == (1, _passed(0, 1, 2) + mismatch, "")


@pytest.mark.parametrize("family", ["composition", "tree"])
def test_a_leaf_that_fails_a_permutation_by_itself_is_overruled(monkeypatch, capsys, family):
    # the walk reports 213, and the public functions find it agrees
    plant_leaf_failing_213(monkeypatch, family)
    assert growthcheck.equivalence_walk(3, family) == (6, [PLANTED])
    claim = f"growth diagrams match direct {family} insertion for all n <= 4\n"
    assert _verify_equivalence(capsys, family) == (0, _passed(0, 1, 2, 3, 4) + claim, "")
