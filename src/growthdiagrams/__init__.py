"""
Insertion correspondences and growth diagrams on two dual graded graph
pairs: compositions (lifted binary tree / Binword) carrying the
hypoplactic insertion, and binary trees (lattice of binary trees /
reflected bracket tree) carrying binary search tree insertion.

Importing the package loads none of its modules: each name below, and
each submodule, is imported on first access (PEP 562), so a command
line tool pays only for the modules it runs.
"""
# each submodule and the public names it defines
_MODULE_EXPORTS = {
    "bst": ("bst_insert",),
    "compositions": (
        "binword_covers", "composition_to_word", "compositions_of", "is_binword_cover",
        "is_lifted_cover", "lifted_covers", "word_to_composition",
    ),
    "graphexport": ("export_dot", "export_json"),
    "graphs": ("DualityReport", "GradedGraph", "check_duality", "make_graph", "path_count_identity"),
    "growth": ("GrowthGrid", "build_growth_diagram"),
    "growthcheck": ("growth_insert", "local_rule_composition", "local_rule_tree"),
    "permutations": (
        "DUAL_PAIRS", "GRAPH_NAMES", "GrowthRuleError", "Permutation", "PermutationParseError",
        "all_permutations", "inverse", "parse_permutation", "permutation_matrix",
    ),
    "ribbons": (
        "QuasiRibbonTableau", "RibbonTableau", "hypoplactic_insert", "shadow_lines",
    ),
    "trees": (
        "delete_rightmost", "is_lattice_cover", "is_reflected_bracket_cover", "lattice_covers",
        "reflected_bracket_covers", "tree_to_bracketed_expression", "trees_of",
    ),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

_MODULES = frozenset(("compositiongrowth", "jsontext", "treegrowth", "verify", *_MODULE_EXPORTS))

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def _submodule(name: str):
    # the import statement's own path, unlike importlib.import_module,
    # is the one that -X importtime reports
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _MODULES:
        return _submodule(name)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_submodule(module), name)
    return value
