import doctest
import re
from pathlib import Path

import pytest

from growthdiagrams import (
    bst, compositiongrowth, compositions, graphs, growth, growthcheck, jsontext, permutations, ribbons, treegrowth,
    trees,
)

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "module",
    [permutations, compositions, trees, bst, ribbons, growth, compositiongrowth, treegrowth, growthcheck, graphs, jsontext],
)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_python_block_runs():
    # the README's library example names only exports and parameters that exist
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
