"""Symmetry-breaking vertex colorings of finite bounded-valence trees.

The library colors a tree with c colors so that every color-preserving
automorphism fixes all vertices whose subtree reaches a leaf at distance at
least an exact threshold fix_radius(c, k), and ships an independent
automorphism-enumeration oracle to verify the guarantee and compute exact
distinguishing numbers at desk scale.
"""

from .coloring import (
    ColoringTrace,
    MainLine,
    balanced_colors,
    ceil_fix_radius,
    color_anchored,
    color_near_distinguishing,
    color_regular,
    color_spine,
    color_tree,
    fix_radius,
    longest_spine,
    lsb_digits,
    radius_bound,
)
from .errors import TreedistError
from .symmetry import (
    UNCOLORED,
    Coloring,
    FixReport,
    canonical_codes,
    canonical_labels,
    distinguishing_number,
    enumerate_automorphisms,
    fix_report,
    is_distinguishing,
    structural_codes,
    unfixed_vertices,
)
from .tree_core import (
    CenterKind,
    CenterLocus,
    FixRadius,
    RadiusKind,
    RootedView,
    Tree,
    center,
    format_edge_list,
    max_valence,
    parse_edge_list,
    random_tree,
    root_at,
    tree_from_edges,
)
from .verifier import (
    RADIUS_TABLE,
    CampaignReport,
    Failure,
    paired_class_minimax,
    reference_radius_table_check,
    run_random_campaign,
    verify_fixing_guarantee,
    verify_near_distinguishing,
)

__version__ = "0.1.0"
