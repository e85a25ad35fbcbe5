"""Oracle workload: explicit automorphism enumeration against fix_report.

Run as a script in a fresh interpreter, with the treedist sources on
PYTHONPATH:

    python3 bench/oracle.py MANIFEST.json

MANIFEST lists edge-list files, each with the colorings to check ("color_tree"
at a given colour count, or "zero" for the all-zero coloring).  For every
(tree, coloring) pair the script enumerates the colour-preserving
automorphisms and checks that their number equals fix_report's aut_count and
that the orbits they generate equal fix_report's orbits.  It prints one JSON
object; the benchmark times the whole process with its own clock.

treedist is reached through module attributes, looked up at call time, so the
traced run can wrap the functions after this module is imported.
"""

from __future__ import annotations

import hashlib
import json
import sys

import treedist.coloring as coloring
import treedist.symmetry as symmetry
import treedist.tree_core as tree_core


def orbits_match(n: int, perms: list[tuple[int, ...]], orbit: tuple[int, ...]) -> bool:
    images = [set() for _ in range(n)]
    for p in perms:
        for v in range(n):
            images[v].add(p[v])
    members: dict[int, set[int]] = {}
    for v, o in enumerate(orbit):
        members.setdefault(o, set()).add(v)
    return all(images[v] == members[orbit[v]] for v in range(n))


def check(tree, kind: str, colors: int) -> dict:
    """Cross-check one coloring; any exception is reported, not raised."""
    try:
        if kind == "zero":
            col = symmetry.Coloring(1, (0,) * tree.n)
        else:
            col, _ = coloring.color_tree(tree, colors)
        perms = symmetry.enumerate_automorphisms(tree, col)
        report = symmetry.fix_report(tree, col)
    except Exception as exc:  # recorded as a failed operation
        return {"coloring": kind, "error": type(exc).__name__}
    return {
        "coloring": kind,
        "colors_sha": hashlib.sha256(repr(col.colors).encode()).hexdigest()[:16],
        "aut_count": report.aut_count,
        "perms": len(perms),
        "ok": len(perms) == report.aut_count and orbits_match(tree.n, perms, report.orbit),
    }


def run(manifest: list[dict]) -> dict:
    results = []
    for item in manifest:
        with open(item["file"], "r", encoding="utf-8") as fh:
            tree = tree_core.parse_edge_list(fh.read())
        for kind in item["colorings"]:
            results.append(check(tree, kind, item.get("colors", 2)))
    return {"checks": results, "perms": sum(r.get("perms", 0) for r in results)}


def main(argv: list[str]) -> int:
    with open(argv[0], "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    print(json.dumps(run(manifest), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
