"""Symmetry-breaking vertex colorings of finite bounded-valence trees.

The library colors a tree with c colors so that every color-preserving
automorphism fixes all vertices whose subtree reaches a leaf at distance at
least the integer threshold fix_radius(c, k), and ships an independent
automorphism-enumeration oracle to verify the guarantee and compute exact
distinguishing numbers.

Importing the package imports none of its modules.  A public name, or a
module, is imported on first access (a module __getattr__, PEP 562), so a
`treedist` subcommand compiles only the modules it runs, and
`from treedist import X` works as it always has.
"""

#: The public names, by the module that defines them.
_EXPORTS = {
    "coloring": (
        "ColoringTrace",
        "balanced_colors",
        "color_anchored",
        "color_near_distinguishing",
        "color_regular",
        "color_spine",
        "color_tree",
        "longest_spine",
        "lsb_digits",
    ),
    "errors": ("TreedistError",),
    "symmetry": (
        "UNCOLORED",
        "Coloring",
        "FixReport",
        "canonical_labels",
        "distinguishing_number",
        "enumerate_automorphisms",
        "fix_report",
        "fixed_vertices",
    ),
    "tree_core": (
        "RootedView",
        "Tree",
        "center",
        "fix_radius",
        "format_edge_list",
        "max_valence",
        "parse_edge_list",
        "random_tree",
        "root_at",
        "tree_from_edges",
    ),
    "verifier": (
        "CampaignReport",
        "Failure",
        "run_random_campaign",
        "verify_fixing_guarantee",
        "verify_near_distinguishing",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the modules too, as `from treedist import *` bound them when this file
# imported them all
__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # also binds the module here
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
