"""The shipped package depends on nothing beyond the standard library.

Every import statement in src/treedist, nested ones included (such as the
process pool imported inside run_random_campaign), must name treedist itself
or a standard-library module.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treedist"


def imported_modules(path: Path) -> set[str]:
    """Top-level module of every import in the file; relative imports count
    as treedist."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("treedist" if node.level else node.module.split(".")[0])
    return found


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        outside = imported_modules(path) - {"treedist"} - sys.stdlib_module_names
        assert not outside, (path.name, sorted(outside))


def test_nested_imports_are_seen():
    # the process pool is imported inside a function, so a walk of the
    # module body alone would miss it
    assert "concurrent" in imported_modules(PACKAGE / "verifier.py")
