import doctest

import pytest

from growthdiagrams import compositions, graphs, growth, jsontext, permutations, ribbons, trees


@pytest.mark.parametrize(
    "module", [permutations, compositions, trees, ribbons, growth, graphs, jsontext]
)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
