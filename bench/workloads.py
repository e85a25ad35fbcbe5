"""Workload definitions shared by the untraced run (run.py) and the traced
run (trace.py): which inputs each workload generates from its seed, which
operations it runs on them, and how an operation's outputs are checked and
digested.

An operation is one `treedist` CLI invocation, or one run of the oracle
script.  Both runs execute the same operations with the same arguments, so
their payload digests must agree.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import gen

WORKLOADS = ("large_random", "symmetric", "campaign", "oracle")

CAMPAIGN_TRIALS = 4000
ORACLE_RANDOM_TREES = 300
ORACLE_MAX_N = 40
#: Degree caps of the oracle's random trees.  With larger caps a rare
#: all-zero coloring has a group so large that it alone sets a run's cost.
ORACLE_DEGREE_CAPS = (2, 4)
#: Operations that hit a known defect of the program: `dnumber` and
#: `enumerate_automorphisms` recurse once per level of the tree and raise
#: RecursionError on these paths.  They are probes: each runs once per run,
#: outside the timed loop, and a RecursionError there is counted as a known
#: defect, not as a failed operation; any other failure of a probe is failed.
#: When the defect is fixed the probe's output is checked like any other.
PROBES = ("path/dnumber", "oracle/path")


@dataclass
class Op:
    name: str
    stage: str  # color | verify | dnumber | campaign_jobs1 | campaign_jobs2 | oracle
    family: str  # tree family, for the scaling entries
    argv: list[str]  # CLI arguments, or [manifest path] for the oracle
    items: int = 0  # vertices (CLI ops on a tree) or trials (campaign)
    outputs: list[str] = field(default_factory=list)
    parts: list[str] = field(default_factory=list)  # oracle: part label per check

    @property
    def is_oracle(self) -> bool:
        return self.stage == "oracle"

    @property
    def probe(self) -> bool:
        return self.name in PROBES


@dataclass
class Outcome:
    """Checked result of one execution of an Op."""

    attempted: int
    crashed: int
    mismatched: int
    digests: dict[str, str | None]  # part key -> sha256 prefix, None if it failed
    perms: int = 0
    known: int = 0  # checks of a probe that hit the known defect, not in attempted


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _write_tree(workdir: Path, name: str, n: int, edges: gen.Edges) -> str:
    path = workdir / f"{name}.tree"
    path.write_text(gen.edge_list_text(n, edges), encoding="utf-8")
    return str(path)


def _pipeline(workdir: Path, member: str, family: str, n: int, edges: gen.Edges, colors: list[int]) -> list[Op]:
    """color at each colour count, verify each coloring, then dnumber."""
    tree = _write_tree(workdir, member, n, edges)
    ops = []
    for c in colors:
        out = [str(workdir / f"{member}.c{c}.{ext}") for ext in ("coloring.json", "trace.json", "dot")]
        argv = ["color", tree, "-c", str(c), "--coloring-out", out[0], "--trace-out", out[1], "--dot-out", out[2]]
        ops.append(Op(f"{member}/color/c{c}", "color", family, argv, n, out))
    for c in colors:
        coloring = str(workdir / f"{member}.c{c}.coloring.json")
        argv = ["verify", tree, "--coloring", coloring, "--max-n", str(n)]
        ops.append(Op(f"{member}/verify/c{c}", "verify", family, argv, n))
    ops.append(Op(f"{member}/dnumber", "dnumber", family, ["dnumber", tree, "--size-guard", str(n)], n))
    return ops


def build(workload: str, seed: int, workdir: Path, half: bool = False) -> list[Op]:
    """Generate the workload's input files under workdir and return its
    operations.  `half` builds the half-size members used for the scaling
    entries (large_random and symmetric only).

    Tree shapes come from a fixed generator seed and `seed` relabels their
    vertices, so every run measures the same shapes.  The cost of random
    shapes varies too much between draws (dnumber's work changes threefold
    with the distinguishing number and the kind of centre of the tree) for
    runs with different seeds to be compared.
    """
    shape = random.Random(f"{workload}:shape:{int(half)}")
    rng = random.Random(f"{workload}:{seed}:{int(half)}")
    div = 2 if half else 1
    if workload == "large_random":
        n, edges = gen.relabel(gen.random_recursive(2**15 // div, 8, shape), rng)
        k = gen.max_degree(n, edges)
        colors = sorted({2, 3, k - 1})
        return _pipeline(workdir, "random", "random", n, edges, colors)
    if workload == "symmetric":
        members = [
            ("caterpillar", gen.caterpillar(500 // div, 6), 2),
            ("spider", gen.spider(8, 500 // div), 2),
            ("path", gen.path(8000 // div), 2),
            ("complete6", gen.complete(6, 5, root_branches=6 // div), 3),
            ("hub_binary", gen.hub(4, gen.complete(2, 10 if div == 1 else 9)), 2),
        ]
        ops = []
        for name, raw, c in members:
            n, edges = gen.relabel(raw, rng)
            ops += _pipeline(workdir, name, name, n, edges, [c])
        return ops
    if workload == "campaign":
        return [
            Op(
                f"campaign/jobs{jobs}",
                f"campaign_jobs{jobs}",
                "campaign",
                ["campaign", "--trials", str(CAMPAIGN_TRIALS), "--n-max", "40", "--k-max", "8",
                 "--seed", str(seed), "--jobs", str(jobs)],
                CAMPAIGN_TRIALS,
            )
            for jobs in (1, 2)
        ]
    if workload == "oracle":
        # the binary tree comes first: its 32768 permutations then set the
        # peak memory, and a later tree reuses the memory they freed
        n, edges = gen.relabel(gen.complete(2, 4), rng)
        manifest = [{"file": _write_tree(workdir, "binary4", n, edges), "colorings": ["zero"], "part": "binary"}]
        for i in range(ORACLE_RANDOM_TREES):
            size = shape.randint(1, ORACLE_MAX_N)
            cap = shape.randint(*ORACLE_DEGREE_CAPS)
            n, edges = gen.relabel(gen.random_recursive(size, cap, shape), rng)
            file = _write_tree(workdir, f"oracle{i}", n, edges)
            manifest.append({"file": file, "colorings": ["color_tree", "zero"], "part": "random"})
        n, edges = gen.relabel(gen.path(1500), rng)
        probe = [{"file": _write_tree(workdir, "path1500", n, edges), "colorings": ["zero"], "part": "path"}]
        ops = []
        for name, items in (("oracle", manifest), ("oracle/path", probe)):
            path = workdir / f"{name.replace('/', '_')}_manifest.json"
            path.write_text(json.dumps(items), encoding="utf-8")
            parts = [item["part"] for item in items for _ in item["colorings"]]
            ops.append(Op(name, "oracle", "oracle", [str(path)], parts=parts))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def check(op: Op, returncode: int, stdout: bytes, stderr: bytes) -> Outcome:
    """Judge one execution: a nonzero exit or a traceback is a crash; output
    that contradicts the program's own guarantees is a mismatch."""
    if op.is_oracle:
        return _check_oracle(op, returncode, stdout, stderr)
    # verify and campaign exit 1 when they find a violation; anything else
    # nonzero is an error exit
    allowed = (0,) if op.stage in ("color", "dnumber") else (0, 1)
    if b"Traceback" in stderr or returncode not in allowed:
        if op.probe and b"RecursionError" in stderr:
            return Outcome(0, 0, 0, {op.name: None}, known=1)
        return Outcome(1, 1, 0, {op.name: None})
    text = stdout.decode("utf-8", "replace")
    ok = returncode == 0
    try:
        if op.stage == "color":
            ok = ok and text.startswith("n=") and all(Path(p).is_file() for p in op.outputs)
        elif op.stage == "verify":
            ok = ok and json.loads(text)["failures"] == []
        elif op.stage == "dnumber":
            ok = ok and int(text) >= 1
        else:
            rep = json.loads(text)
            ok = ok and rep["failures"] == [] and rep["trials"] == op.items
    except (ValueError, KeyError):
        ok = False
    if not ok:
        return Outcome(1, 0, 1, {op.name: None})
    payload = [stdout] + [Path(p).read_bytes() for p in op.outputs]
    return Outcome(1, 0, 0, {op.name: _sha(b"".join(_sha(p).encode() for p in payload))})


def _check_oracle(op: Op, returncode: int, stdout: bytes, stderr: bytes) -> Outcome:
    try:
        checks = json.loads(stdout)["checks"]
    except (ValueError, KeyError):
        checks = None
    if returncode != 0 or b"Traceback" in stderr or checks is None or len(checks) != len(op.parts):
        keys = sorted(set(op.parts))
        return Outcome(len(op.parts), len(op.parts), 0, {f"oracle/{k}": None for k in keys})
    known = sum(1 for c in checks if c.get("error") == "RecursionError") if op.probe else 0
    crashed = sum(1 for c in checks if "error" in c) - known
    mismatched = sum(1 for c in checks if "error" not in c and not c["ok"])
    grouped: dict[str, list[dict]] = {}
    for part, c in zip(op.parts, checks):
        grouped.setdefault(part, []).append(c)
    digests = {}
    for part, group in grouped.items():
        good = all("error" not in c and c["ok"] for c in group)
        digests[f"oracle/{part}"] = _sha(json.dumps(group, sort_keys=True).encode()) if good else None
    perms = sum(c.get("perms", 0) for c in checks)
    return Outcome(len(checks) - known, crashed, mismatched, digests, perms, known)
