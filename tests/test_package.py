"""The package's public names.  `import treedist` imports none of its
modules; each name is imported from its defining module on first access,
and the names are the ones `from treedist import *` bound when the package
imported every module up front."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import treedist

#: Each public name's defining module.
DEFINED_IN = {
    "coloring": [
        "ColoringTrace",
        "balanced_colors",
        "color_anchored",
        "color_near_distinguishing",
        "color_regular",
        "color_spine",
        "color_tree",
        "longest_spine",
        "lsb_digits",
    ],
    "errors": ["TreedistError"],
    "symmetry": [
        "Coloring",
        "FixReport",
        "UNCOLORED",
        "canonical_labels",
        "distinguishing_number",
        "enumerate_automorphisms",
        "fix_report",
        "fixed_vertices",
    ],
    "tree_core": [
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
    ],
    "verifier": [
        "CampaignReport",
        "Failure",
        "run_random_campaign",
        "verify_fixing_guarantee",
        "verify_near_distinguishing",
    ],
}
NAMES = [(module, name) for module, names in DEFINED_IN.items() for name in names]
#: What `from treedist import *` bound before the package imported lazily:
#: the public names and the five modules.
EXPORTS = sorted([*DEFINED_IN, *(name for _, name in NAMES)])


def test_all_is_the_export_list():
    assert len(EXPORTS) == 38
    assert sorted(treedist.__all__) == EXPORTS


@pytest.mark.parametrize("name", ["canonical_codes", "structural_codes"])
def test_byte_code_oracles_not_exported(name):
    # the byte-code builders are reference oracles: treedist.symmetry keeps
    # them for the tests and the benchmark, the package namespace does not
    assert callable(getattr(treedist.symmetry, name))
    assert name not in treedist.__all__
    with pytest.raises(AttributeError, match=f"'{name}'"):
        getattr(treedist, name)


@pytest.mark.parametrize("module, name", NAMES)
def test_name_is_its_modules_object(module, name):
    assert getattr(treedist, name) is getattr(importlib.import_module(f"treedist.{module}"), name)


@pytest.mark.parametrize("module", DEFINED_IN)
def test_module_is_the_submodule(module):
    assert getattr(treedist, module) is importlib.import_module(f"treedist.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        treedist.no_such_name
    assert not hasattr(treedist, "__no_such_dunder__")
    with pytest.raises(ImportError):
        from treedist import no_such_name  # noqa: F401


def test_coloring_defines_one_record_type():
    # a main line is the tuple of its vertices; no record type wraps it
    defined = [
        name
        for name, value in vars(treedist.coloring).items()
        if isinstance(value, type) and value.__module__ == "treedist.coloring"
    ]
    assert defined == ["ColoringTrace"]


def test_fix_radius_reexported_from_coloring():
    # fix_radius moved to tree_core; coloring, its first home, keeps it
    assert treedist.coloring.fix_radius is treedist.tree_core.fix_radius is treedist.fix_radius


def _fresh(statement: str) -> str:
    """What `statement` prints in a bare interpreter (-S: no site packages)
    with this checkout's src/ first on its path.  There every name goes
    through the module __getattr__, as no test has touched it yet."""
    src = str(Path(treedist.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {statement}"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout


def test_star_import_in_a_fresh_interpreter():
    statement = (
        "import importlib; ns = {}; exec('from treedist import *', ns); "
        f"bad = [n for m, n in {NAMES!r} if ns[n] is not getattr(importlib.import_module('treedist.' + m), n)]; "
        "print(sorted(k for k in ns if k != '__builtins__'), bad)"
    )
    assert _fresh(statement) == f"{EXPORTS} []\n"


def test_dir_lists_every_name():
    # in a fresh interpreter, before any name is imported
    names = _fresh("import treedist; print(*dir(treedist))").split()
    assert set(EXPORTS) <= set(names)
    assert "__version__" in names and names == sorted(names)


def test_dir_in_process():
    # the module __dir__ in this process; the test above runs it in a subprocess
    assert set(treedist.__all__) <= set(dir(treedist))


def test_module_attribute_in_a_fresh_interpreter():
    # `import treedist` once bound every module; its attributes still reach them
    assert _fresh("import treedist; print(treedist.verifier.__name__, treedist.fix_radius(2, 7))") == (
        "treedist.verifier 4\n"
    )


def test_one_error_class_per_source_of_a_mistake():
    errors = importlib.import_module("treedist.errors")
    defined = {
        name: cls for name, cls in vars(errors).items() if isinstance(cls, type) and cls.__module__ == errors.__name__
    }
    assert sorted(defined) == ["BadFormat", "BadParams", "BudgetExceeded", "NotATree", "TreedistError"]
    assert all(cls.__bases__ == (errors.TreedistError,) for name, cls in defined.items() if name != "TreedistError")
    # every subclass names a mistake that the library does report
    raised = set()
    for path in Path(treedist.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    assert set(defined) - {"TreedistError"} <= raised


def test_console_script_is_cli_main():
    # pip makes the `treedist` command from this entry; nothing else runs it
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["treedist"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is importlib.import_module("treedist.cli").main
