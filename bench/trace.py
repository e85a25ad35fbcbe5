"""Traced run: per-layer time and counts for one workload.

    python3 bench/trace.py PLAN.json RESULT.json

run.py writes PLAN (the workload's operations, the half-size operations used
for the scaling entries, and where to write the spans) and reads RESULT.  The
operations run in this process: `treedist.cli.main(argv)` with the same argv
as the untraced run, or the oracle script's main.  They run once untraced,
then once with the public functions of tree_core, symmetry, coloring,
verifier and cli wrapped, then (traced) at half size.

A wrapper records a span (name, start, end, parent span, operation id) and
rebinds the name in every treedist module that imported it, since
`from .x import y` bindings are looked up at call time.  Per-vertex and
per-group helpers (meets_distance_condition, FixRadius.admits, lsb_digits,
balanced_colors) stay unwrapped.  A layer's self time is its span time minus
the time of the wrapped calls it made.  Campaigns run with --jobs 1 here,
because worker processes cannot be wrapped from outside.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import signal
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import treedist.cli
import treedist.coloring
import treedist.symmetry
import treedist.tree_core
import treedist.verifier

import oracle
import workloads
from workloads import Op, Outcome

TARGETS = {
    "tree_core": ("parse_edge_list", "center", "root_at", "random_tree"),
    "symmetry": (
        "subtree_code",
        "canonical_codes",
        "structural_codes",
        "fix_report",
        "distinguishing_number",
        "enumerate_automorphisms",
    ),
    "coloring": ("color_tree", "color_near_distinguishing"),
    "verifier": ("verify_fixing_guarantee", "verify_near_distinguishing", "run_random_campaign"),
    "cli": ("main",),
}
RULE_TAGS = (
    "root",
    "step2_default",
    "step3_optimal",
    "main_line",
    "step4_case1",
    "step4_case1_no_branch",
    "step4_case2",
    "lemma",
)
#: Exact counts reported on every workload, 0 where nothing was counted.
COUNTS = (
    *(f"coloring.rule.{tag}" for tag in RULE_TAGS),
    "coloring.main_lines",
    "coloring.line_groups",
    "verifier.trials_with_main_line",
    "verifier.run_random_campaign.trials",
    "verifier.run_random_campaign.skipped",
    "symmetry.subtree_code.bytes",
    "symmetry.canonical_codes.bytes",
    "symmetry.enumerate_automorphisms.perms",
)
#: A scaling cell whose layer time passes this is recorded as "over_cap";
#: a half-size operation is interrupted there.
CELL_CAP_S = 20.0


class OverCap(BaseException):
    """Raised by the interval timer; a BaseException so that the program's
    and the oracle's own `except Exception` handlers let it through."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.op_counts: Counter = Counter()  # (name, op id) -> count

    def take(self) -> tuple[list[list], Counter, Counter]:
        """Hand over what was recorded so far and start afresh."""
        taken = self.spans, self.counts, self.op_counts
        self.spans, self.counts, self.op_counts = [], Counter(), Counter()
        return taken

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value
        self.op_counts[(name, self.op_id)] += value

    def wrap(self, name, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id]
            self.spans.append(span)
            self.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, idx, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "treedist" or n.startswith("treedist.")]
        for mod_name, names in TARGETS.items():
            module = sys.modules[f"treedist.{mod_name}"]
            for name in names:
                original = getattr(module, name)
                wrapper = self.wrap(f"{mod_name}.{name}", original, AFTER.get(f"{mod_name}.{name}"))
                for m in modules:
                    if getattr(m, name, None) is original:
                        setattr(m, name, wrapper)

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)


def _after_subtree_code(tr: Tracer, idx: int, args, result) -> None:
    tr.count("symmetry.subtree_code.bytes", len(result))
    parent = tr.spans[idx][3]
    if parent >= 0 and tr.spans[parent][0] == "coloring.color_tree":
        tr.counts["coloring.separate.subtree_code_calls"] += 1


def _after_canonical_codes(tr: Tracer, idx: int, args, result) -> None:
    tr.count("symmetry.canonical_codes.bytes", sum(map(len, result)))


def _after_enumerate(tr: Tracer, idx: int, args, result) -> None:
    tr.counts["symmetry.enumerate_automorphisms.perms"] += len(result)


def _after_color_tree(tr: Tracer, idx: int, args, result) -> None:
    trace = result[1]
    for tag, m in Counter(trace.rules).items():
        tr.counts["coloring.rule." + tag.split("[")[0]] += m
    lines = len(trace.main_lines)
    tr.counts["coloring.main_lines"] += lines
    tr.counts["coloring.line_groups"] += len(trace.line_groups)
    if lines and tr.in_span("verifier.run_random_campaign"):
        tr.counts["verifier.trials_with_main_line"] += 1


def _after_campaign(tr: Tracer, idx: int, args, result) -> None:
    tr.counts["verifier.run_random_campaign.trials"] += result.trials
    tr.counts["verifier.run_random_campaign.skipped"] += result.skipped


AFTER = {
    "symmetry.subtree_code": _after_subtree_code,
    "symmetry.canonical_codes": _after_canonical_codes,
    "symmetry.enumerate_automorphisms": _after_enumerate,
    "coloring.color_tree": _after_color_tree,
    "verifier.run_random_campaign": _after_campaign,
}


def _on_alarm(signum, frame):
    raise OverCap()


def run_op(op: Op) -> tuple[Outcome, float]:
    """Run one operation in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = oracle.main(op.argv) if op.is_oracle else treedist.cli.main(op.argv)
        except Exception:  # a crash of the program is a failed operation
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - start
    return workloads.check(op, rc, out.getvalue().encode(), err.getvalue().encode()), wall


def run_pass(ops: list[Op], tracer: Tracer | None, cap: bool = False):
    outcomes, walls, capped = [], [], set()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        if cap:
            signal.setitimer(signal.ITIMER_REAL, CELL_CAP_S)
        try:
            outcome, wall = run_op(op)
        except OverCap:
            capped.add(i)
            outcome, wall = None, CELL_CAP_S
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcomes.append(outcome)
        walls.append(wall)
    return outcomes, walls, capped


def layer_times(spans: list[list], ops: list[Op]):
    """Totals per layer, and span time per (layer, op id) for the scaling entries."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(int)
    per_op: dict[tuple[str, int], float] = defaultdict(float)
    for i, (name, start, end, _, op_id) in enumerate(spans):
        dur = end - start
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += dur
        totals[f"{name}.self_s"] += dur - child[i]
        if name == "cli.main":
            totals[f"cli.main.{ops[op_id].argv[0]}.self_s"] += dur - child[i]
        per_op[(name, op_id)] += dur
    return totals, per_op


def by_family(ops: list[Op], per_op: dict, op_counts: Counter) -> dict[tuple[str, str], float]:
    """Layer times and byte counts summed per (metric, tree family)."""
    out: dict[tuple[str, str], float] = defaultdict(float)
    for (layer, i), dur in per_op.items():
        out[(f"{layer}.s", ops[i].family)] += dur
    for (name, i), value in op_counts.items():
        out[(name, ops[i].family)] += value
    return out


def scaling(ops, full, half_ops, half, capped) -> dict[str, float | str]:
    """log(x(n)/x(n/2)) / log(n/(n/2)) per (metric, family), for every layer
    time and byte count: the exponent of a power law through the two sizes."""
    capped_families = {half_ops[i].family for i in capped}
    size = {op.family: op.items for op in ops}
    half_size = {op.family: op.items for op in half_ops}
    cells: dict[str, float | str] = {}
    for metric, family in sorted(set(full) | set(half)):
        x1, x0 = full.get((metric, family), 0.0), half.get((metric, family), 0.0)
        key = f"scaling.{metric}.{family}"
        over = metric.endswith(".s") and (x1 > CELL_CAP_S or x0 > CELL_CAP_S)
        if family in capped_families or over:
            cells[key] = "over_cap"
        elif x1 > 0 and x0 > 0:
            cells[key] = math.log(x1 / x0) / math.log(size[family] / half_size[family])
    return cells


def unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name in ("coloring.subtree_code_calls_per_line", "trace.overhead"):
        return "ratio"
    return "count"


def summarize(outcomes: list[Outcome | None]) -> dict:
    done = [o for o in outcomes if o is not None]
    digests: dict[str, str | None] = {}
    for o in done:
        digests.update(o.digests)
    return {
        "digests": digests,
        "attempted": sum(o.attempted for o in done),
        "failed": sum(o.crashed + o.mismatched for o in done),
        "correct": not any(o.mismatched for o in done),
    }


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    ops = [Op(**d) for d in plan["ops"]]
    half_ops = [Op(**d) for d in plan["half"]]

    untraced, untraced_walls, _ = run_pass(ops, None)
    tracer = Tracer()
    tracer.install()
    traced, traced_walls, _ = run_pass(ops, tracer)
    spans, counts, op_counts = tracer.take()
    totals, per_op = layer_times(spans, ops)
    families = by_family(ops, per_op, op_counts)
    cells: dict[str, float | str] = {}
    half_spans: list[list] = []
    if half_ops:
        signal.signal(signal.SIGALRM, _on_alarm)
        _, _, capped = run_pass(half_ops, tracer, cap=True)
        half_spans, _, half_counts = tracer.take()
        half = by_family(half_ops, layer_times(half_spans, half_ops)[1], half_counts)
        cells = scaling(ops, families, half_ops, half, capped)

    layers = [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]
    metrics: dict[str, float] = {f"{layer}.{suffix}": totals.get(f"{layer}.{suffix}", 0)
                                 for layer in layers for suffix in ("calls", "s", "self_s")}
    for sub in ("color", "verify", "dnumber", "campaign"):
        metrics[f"cli.main.{sub}.self_s"] = totals.get(f"cli.main.{sub}.self_s", 0)
    metrics.update(dict.fromkeys(COUNTS, 0))
    metrics.update(counts)
    attempts = counts["coloring.separate.subtree_code_calls"]
    # attempts per useful outcome; with no main line every call was wasted
    metrics["coloring.subtree_code_calls_per_line"] = attempts / max(counts["coloring.main_lines"], 1)
    metrics["trace.overhead"] = sum(traced_walls) / sum(untraced_walls)

    print(f"traced: {len(spans)} spans over {len(ops)} operations; in-process wall "
          f"{sum(untraced_walls):.4f} s untraced, {sum(traced_walls):.4f} s traced")
    print(f"base: coloring.subtree_code_calls_per_line = {attempts} calls / "
          f"{counts['coloring.main_lines']} main lines")
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {unit(name)}")
    if len({op.family for op in ops}) > 1:
        for (metric, family), value in sorted(families.items()):
            print(f"family {family}: {metric}: {value:.6g} {unit(metric)}")
    for name, value in cells.items():
        print(f"{name}: {value if isinstance(value, str) else f'{value:.3f}'}")

    Path(plan["spans_file"]).write_text(json.dumps({
        "ops": [op.name for op in ops],
        "spans": spans,
        "half_ops": [op.name for op in half_ops],
        "half_spans": half_spans,
    }))
    result = summarize(traced)
    reference = summarize(untraced)
    result.update(
        correct=result["correct"] and reference["correct"],
        untraced_digests=reference["digests"],
        metrics=metrics,
        scaling=cells,
    )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
