"""
Insertion correspondences and growth diagrams on two dual graded graph
pairs: compositions (lifted binary tree / Binword) carrying the
hypoplactic insertion, and binary trees (lattice of binary trees /
reflected bracket tree) carrying binary search tree insertion.
"""

from .compositions import (
    binword_covers,
    binword_deletion_positions,
    composition_to_word,
    compositions_of,
    is_binword_cover,
    is_lifted_cover,
    lifted_covers,
    word_to_composition,
)
from .graphs import (
    DUAL_PAIRS,
    GRAPH_NAMES,
    DualityReport,
    GradedGraph,
    check_duality,
    export_dot,
    export_json,
    make_graph,
    path_count_identity,
)
from .growth import (
    BoundaryChains,
    GrowthGrid,
    GrowthRuleError,
    build_growth_diagram,
    chain_to_bst,
    chain_to_increasing_tree,
    chain_to_quasi_ribbon,
    chain_to_ribbon,
    growth_insert,
    local_rule_composition,
    local_rule_tree,
)
from .permutations import (
    Permutation,
    PermutationParseError,
    all_permutations,
    descent_composition,
    inverse,
    parse_permutation,
    permutation_matrix,
    recoils_composition,
    restrict_prefix,
    restrict_values,
)
from .ribbons import (
    QuasiRibbonTableau,
    RibbonTableau,
    hypoplactic_insert,
    insert_letter,
    shadow_lines,
)
from .trees import (
    bst_insert,
    delete_rightmost,
    is_lattice_cover,
    is_reflected_bracket_cover,
    lattice_covers,
    reflected_bracket_covers,
    tree_to_bracketed_expression,
    trees_of,
)

__version__ = "0.1.0"
