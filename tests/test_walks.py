"""
The prefix walks that run `verify shadow` and `verify equivalence` over
all permutations of one size at once, against the public functions they
stand in for, which compare one permutation at a time: on every size the
walk counts every permutation, and the permutations it reports include
every one where the public functions differ or reject a result.  Checked
on the code as it is for n <= 7, and with faults planted in the step
rules, conversions and checks that both share.
"""
import math

import pytest

from growthdiagrams import bst, compositiongrowth, growth, growthcheck, ribbons
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
    real = ribbons._insert_letter

    def planted(reading, ends, a):
        k = real(reading, ends, a)
        return k - 1 if (reading, a) == ([1, 3], 3) else k

    monkeypatch.setattr(ribbons, "_insert_letter", planted)


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


def plant_declining_ribbon_check(monkeypatch):
    """The one-pass check declines every ribbon tableau; the row-by-row
    check then passes each valid one, so every result stands."""
    monkeypatch.setattr(ribbons.RibbonTableau, "_accepts", classmethod(lambda cls, reading, ends: False))


def plant_declining_quasi_ribbon_check(monkeypatch):
    """The same for quasi-ribbon tableaux, whose check the shadow walk
    runs once per size."""
    monkeypatch.setattr(ribbons.QuasiRibbonTableau, "_accepts", classmethod(lambda cls, reading, ends: False))


def plant_wrong_ribbon_conversion(monkeypatch):
    """The growth diagram's Q reads the labels of 132 as those of 123, a
    valid ribbon tableau of another shape."""
    real = compositiongrowth._ribbon_forms

    def planted(labels):
        return real((3, 4, 6) if tuple(labels) == (3, 4, 7) else labels)

    monkeypatch.setattr(compositiongrowth, "_ribbon_forms", planted)


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


@pytest.mark.parametrize(
    "check, plant",
    [
        ("shadow", plant_wrong_recording_step),
        ("shadow", plant_unsorted_insertion),
        ("shadow", plant_declining_ribbon_check),
        ("shadow", plant_declining_quasi_ribbon_check),
        ("composition", plant_wrong_recording_step),
        ("composition", plant_unsorted_insertion),
        ("composition", plant_declining_ribbon_check),
        ("composition", plant_declining_quasi_ribbon_check),
        ("composition", plant_wrong_ribbon_conversion),
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
    # the plant breaks a result, except where every result stands
    assert (failed == 0) == (plant in (plant_declining_ribbon_check, plant_declining_quasi_ribbon_check))
