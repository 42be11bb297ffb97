import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import descent_composition, recoils_composition

from growthdiagrams.permutations import (
    PermutationParseError,
    all_permutations,
    inverse,
    parse_permutation,
    permutation_matrix,
    validate_permutation,
)

perms = st.integers(0, 8).flatmap(lambda n: st.permutations(list(range(1, n + 1))))


def compose(p, q):
    return tuple(p[v - 1] for v in q)


def test_parse_digits():
    assert parse_permutation("415362") == (4, 1, 5, 3, 6, 2)
    assert parse_permutation("1") == (1,)
    assert parse_permutation("") == ()


def test_parse_commas():
    assert parse_permutation("4,1,5,3,6,2") == (4, 1, 5, 3, 6, 2)
    assert parse_permutation("10,2,3,4,5,6,7,8,9,1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)


@pytest.mark.parametrize(
    "text",
    [
        "44", "13", "0", "1,,2", "1,x,3", "a", "2,3",
        # int() and str.isdigit take these; only ASCII digits are accepted
        "\u00b2", "\u0661,\u0662", "\uff11\uff12", "+2,1", "2,1_0,3,4,5,6,7,8,9,1",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(PermutationParseError):
        parse_permutation(text)


def test_parse_error_names_token():
    with pytest.raises(PermutationParseError, match="duplicate value 1"):
        parse_permutation("1231")
    with pytest.raises(PermutationParseError, match="xx"):
        parse_permutation("1,xx,3")


def test_inverse_examples():
    # oracle: composing with the inverse gives the identity
    p = (4, 1, 5, 3, 6, 2)
    q = inverse(p)
    assert q == (2, 6, 4, 1, 3, 5)
    assert compose(p, q) == (1, 2, 3, 4, 5, 6)
    assert inverse((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)
    assert inverse((2, 1)) == (2, 1)


def test_inverse_involution_exhaustive():
    for n in range(8):
        for p in all_permutations(n):
            assert inverse(inverse(p)) == p


def test_descent_composition():
    assert descent_composition((2, 6, 4, 1, 3, 5)) == (2, 1, 3)
    assert descent_composition((1, 2, 3, 4)) == (4,)
    assert descent_composition((4, 3, 2, 1)) == (1, 1, 1, 1)
    assert descent_composition(()) == ()


def test_recoils_composition():
    assert recoils_composition((4, 1, 5, 3, 6, 2)) == (2, 1, 3)
    assert recoils_composition((1, 2, 3, 4)) == (4,)
    # oracle: recoils = descents of the inverse
    p = (3, 5, 1, 4, 2, 6)
    assert recoils_composition(p) == descent_composition(inverse(p)) == (2, 2, 2)


@given(perms)
def test_recoils_is_a_composition_of_n(p):
    p = tuple(p)
    c = recoils_composition(p)
    assert sum(c) == len(p)
    assert all(part >= 1 for part in c)


def test_permutation_matrix():
    cells = permutation_matrix((4, 1, 5, 3, 6, 2))
    assert (1, 4) in cells and (2, 1) in cells
    assert len({c for c, _ in cells}) == 6
    assert len({r for _, r in cells}) == 6


def test_validate_rejects_bad_words():
    with pytest.raises(PermutationParseError):
        validate_permutation((1, 1))
    with pytest.raises(PermutationParseError):
        validate_permutation((2, 3))
