"""What each command and the package import: every CLI run is a fresh
process, so the modules it loads are part of its cost."""
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import growthdiagrams

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package exported before it resolved them lazily, by the
# module that defines it (test-only oracles and one-line wrappers have since
# left the package)
EXPORTS = {
    "compositions": (
        "binword_covers", "composition_to_word", "compositions_of", "is_binword_cover",
        "is_lifted_cover", "lifted_covers", "word_to_composition",
    ),
    "graphs": (
        "DUAL_PAIRS", "GRAPH_NAMES", "DualityReport", "GradedGraph", "check_duality",
        "export_dot", "export_json", "make_graph", "path_count_identity",
    ),
    "growth": (
        "BoundaryChains", "GrowthGrid", "GrowthRuleError", "build_growth_diagram",
        "chain_to_bst", "chain_to_increasing_tree", "chain_to_quasi_ribbon",
        "chain_to_ribbon", "growth_insert", "local_rule_composition", "local_rule_tree",
    ),
    "permutations": (
        "Permutation", "PermutationParseError", "all_permutations", "descent_composition",
        "inverse", "parse_permutation", "permutation_matrix", "recoils_composition",
    ),
    "ribbons": (
        "QuasiRibbonTableau", "RibbonTableau", "hypoplactic_insert", "shadow_lines",
    ),
    "trees": (
        "bst_insert", "delete_rightmost", "is_lattice_cover", "is_reflected_bracket_cover",
        "lattice_covers", "reflected_bracket_covers", "tree_to_bracketed_expression",
        "trees_of",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def _imported(*args: str) -> set[str]:
    """Modules that `python -X importtime ARGS` reports loading."""
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.fixture(scope="module")
def bare_interpreter() -> set[str]:
    return _imported("-c", "pass")


@pytest.mark.parametrize(
    "argv",
    [
        ("insert", "hypoplactic", "312"),
        ("insert", "bst-left", "312", "--format", "json"),
        ("insert", "bst-right", "312"),
        ("insert", "sylvester", "312"),
        ("growth", "composition", "312", "--check"),
        ("growth", "tree", "312", "--format", "json"),
        ("verify", "duality", "--max-rank", "3"),
        ("verify", "equivalence", "--max-n", "3"),
        ("verify", "shadow", "--max-n", "3"),
        ("verify", "paths", "--n", "3"),
        ("graph", "binword", "--max-rank", "2"),
    ],
    ids=" ".join,
)
def test_cold_start_imports(bare_interpreter, argv):
    loaded = _imported("-m", "growthdiagrams.cli", *argv) - bare_interpreter
    assert "growthdiagrams.ribbons" in loaded  # the report sees the package's modules
    assert "dataclasses" not in loaded
    runs_growth = argv[0] == "growth" or argv[:2] == ("verify", "equivalence")
    assert ("growthdiagrams.growth" in loaded) == runs_growth


@pytest.mark.parametrize(
    "argv",
    [
        ("insert", "bst-left", "312", "--format", "json"),
        ("growth", "composition", "312", "--format", "json"),
        ("verify", "paths", "--n", "3"),
        ("graph", "tree-lattice", "--max-rank", "2", "--format", "json"),
    ],
    ids=" ".join,
)
def test_json_text_loads_no_json_decoder(bare_interpreter, argv):
    # jsontext needs only the C string escaper; the json package would
    # load its decoder and scanner as well
    loaded = _imported("-m", "growthdiagrams.cli", *argv) - bare_interpreter
    assert "growthdiagrams.jsontext" in loaded
    assert not {"json.decoder", "json.scanner"} & loaded


def test_bare_package_import_loads_no_submodule():
    proc = _python("-c", "import growthdiagrams, sys; print(sorted(m for m in sys.modules if m.startswith('growthdiagrams.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("module, name", NAMES)
def test_exports_resolve_to_the_defining_object(module, name):
    assert getattr(growthdiagrams, name) is getattr(import_module(f"growthdiagrams.{module}"), name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from growthdiagrams import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(import_module(f"growthdiagrams.{module}"), name)


@pytest.mark.parametrize(
    "name",
    [
        "no_such_name", "shape", "binword_deletion_positions", "is_search_tree",
        "is_increasing_tree", "is_decreasing_tree", "tree_from_text", "labeled_tree_from_json_obj",
        "insert_letter", "restrict_prefix", "restrict_values", "node_count", "extend_right_spine",
        "push_down_rightmost", "vertex_label",
    ],
)
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(growthdiagrams, name)
    assert not any(hasattr(getattr(growthdiagrams, module), name) for module in EXPORTS)
