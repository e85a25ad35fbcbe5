"""Symmetry-breaking vertex colorings of finite bounded-valence trees.

The library colors a tree with c colors so that every color-preserving
automorphism fixes all vertices whose subtree reaches a leaf at distance at
least the integer threshold fix_radius(c, k), and ships an independent
automorphism-enumeration oracle to verify the guarantee and compute exact
distinguishing numbers.
"""

from .coloring import (
    ColoringTrace,
    MainLine,
    balanced_colors,
    color_anchored,
    color_near_distinguishing,
    color_regular,
    color_spine,
    color_tree,
    fix_radius,
    longest_spine,
    lsb_digits,
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
    fixed_vertices,
    structural_codes,
)
from .tree_core import (
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
    CampaignReport,
    Failure,
    run_random_campaign,
    verify_fixing_guarantee,
    verify_near_distinguishing,
)

__version__ = "0.1.0"
