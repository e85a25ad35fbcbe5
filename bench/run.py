#!/usr/bin/env python3
"""treedist benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`
directory.  Workloads (see workloads.py and README.md):

  large_random  color/verify/dnumber on one random recursive tree, n = 2^15
  symmetric     the same pipeline on caterpillar, spider, path, complete
                6-ary and hub-of-binary-trees members
  campaign      `treedist campaign`, 4000 trials, with --jobs 1 and --jobs 2
  oracle        explicit automorphism enumeration against fix_report

With --trace 0 every operation runs as a subprocess, in a closed loop over
the workload's operations until S seconds have gone and each has run once,
and the last line of stdout is a JSON object with the end-to-end metrics.  With --trace 1 one
untraced pass gives the reference digests, then trace.py runs the same
operations in-process with the treedist layers wrapped and the last line
carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import workloads
from workloads import Op, Outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
OUT = ROOT / ".bench_out"

#: Fresh interpreters timed importing treedist.cli, and running REFERENCE,
#: before the loop; in the loop both are timed again before an execution
#: once SAMPLE_EVERY_S has passed since they last were, so that the samples
#: span the run evenly without taking much of it from the operations.
SETUP_REPEATS = 5
SAMPLE_EVERY_S = 2.0
#: A fixed job that does not touch treedist: a fresh interpreter importing
#: standard-library modules and doing some dict, str and sort work.  The
#: host's speed drifts by up to 20% within minutes and moves CPU time with
#: it; the median CPU time of this job measures that speed in the same run.
REFERENCE = """
import argparse, dataclasses, inspect, json, concurrent.futures
d = {}
for i in range(50000):
    d[i % 997] = (i, str(i))
json.dumps(sorted(d.items()))
"""
#: The end-to-end times are scaled to a host on which REFERENCE takes this
#: much CPU time (about what it takes on the host that set the baseline):
#: t * REF_CPU_S / median(reference CPU time).
REF_CPU_S = 0.15
#: An operation still running after this long is killed and counted as failed.
OP_TIMEOUT_S = 150
CLI = "import sys; from treedist.cli import main; sys.exit(main())"

#: Metric names and units, as BENCHMARK.json declares them.
SPEC = ROOT / "BENCHMARK.json"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Usage(NamedTuple):
    rc: int  # exit code
    wall: float  # s
    rss_mb: float  # peak RSS
    cpu: float  # user + system CPU time, s


def spawn(cmd: list[str], stdout: Path, stderr: Path, cwd: Path) -> Usage:
    """Run cmd to completion through runner.py.  The peak RSS and the CPU
    time cover every descendant cmd waited for, such as the campaign's
    worker processes."""
    report = stdout.with_suffix(".rusage")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "runner.py"), str(report), "--", *cmd],
                                stdout=out, stderr=err, cwd=cwd, env=child_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.terminate)
        timer.start()
        try:
            proc.wait()
        except BaseException:  # interrupted: do not leave the command running
            proc.terminate()
            proc.wait()
            raise
        finally:
            timer.cancel()
    if proc.returncode != 0:  # the runner was stopped: the command timed out
        return Usage(proc.returncode, float(OP_TIMEOUT_S), 0.0, float(OP_TIMEOUT_S))
    rc, wall, rss_kb, cpu = report.read_text().split()
    return Usage(int(rc), float(wall), int(rss_kb) / 1024, float(cpu))


def time_import(workdir: Path) -> Usage:
    """Time a fresh interpreter importing treedist.cli, which must come from
    this checkout's src/."""
    probe = "import treedist, treedist.cli; print(treedist.__file__)"
    usage = spawn([sys.executable, "-c", probe], workdir / "setup.out", workdir / "setup.err", workdir)
    if usage.rc != 0:
        raise SystemExit(f"error: cannot import treedist from {SRC}")
    where = Path((workdir / "setup.out").read_text().strip()).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: treedist imported from {where}, not from {SRC}")
    return usage


def time_reference(workdir: Path) -> Usage:
    usage = spawn([sys.executable, "-c", REFERENCE], workdir / "ref.out", workdir / "ref.err", workdir)
    if usage.rc != 0:
        raise SystemExit("error: the reference job failed")
    return usage


def run_op(op: Op, workdir: Path) -> tuple[Outcome, Usage]:
    if op.is_oracle:
        cmd = [sys.executable, str(BENCH / "oracle.py"), *op.argv]
    else:
        cmd = [sys.executable, "-c", CLI, *op.argv]
    out, err = workdir / "op.out", workdir / "op.err"
    usage = spawn(cmd, out, err, workdir)
    return workloads.check(op, usage.rc, out.read_bytes(), err.read_bytes()), usage


class Tally:
    """Attempted/failed operations and the correctness verdict of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0  # probe checks that hit the known defect
        self.mismatches: list[str] = []

    def add(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.known += outcome.known
        self.failed += outcome.crashed + outcome.mismatched
        if outcome.mismatched:
            self.mismatches.append(f"{outcome.mismatched} output check(s) failed")

    def mismatch(self, what: str) -> None:
        self.failed += 1
        self.mismatches.append(what)


def compare_digests(tally: Tally, label: str, got: dict[str, str | None], ref: dict[str, str | None]) -> None:
    """Every part that succeeded on both sides must have the same digest."""
    for key, sha in got.items():
        other = ref.get(key)
        if sha is not None and other is not None and sha != other:
            tally.mismatch(f"{key}: payload differs from {label}")


def expected_digests(workload: str, seed: int) -> dict[str, str]:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed), {})


def reference_pass(ops: list[Op], workdir: Path, tally: Tally) -> dict[str, str | None]:
    """Run every operation once; return the payload digests."""
    digests: dict[str, str | None] = {}
    for op in ops:
        outcome, _ = run_op(op, workdir)
        tally.add(outcome)
        digests.update(outcome.digests)
    return digests


#: What items_per_cpu_s counts on each workload.
ITEM = {"large_random": "vertices", "symmetric": "vertices", "campaign": "trials", "oracle": "permutations"}


def fmt(value: float) -> str:
    return f"{value:.6g}"


def run_untraced(workload: str, ops: list[Op], workdir: Path, seconds: int, seed: int) -> dict:
    setup, ref = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(time_import(workdir))
        ref.append(time_reference(workdir))
    tally = Tally()
    probes = [op for op in ops if op.probe]
    ops = [op for op in ops if not op.probe]
    runs: dict[str, list[Usage]] = {op.name: [] for op in ops}
    first: dict[str, str | None] = {}
    perms = 0  # oracle: permutations enumerated by one execution
    # a closed loop over the operations, in order, until the time is up and
    # every operation has run at least once
    deadline = time.perf_counter() + seconds
    sampled = time.perf_counter()
    done = 0
    while done < len(ops) or time.perf_counter() < deadline:
        op = ops[done % len(ops)]
        if time.perf_counter() - sampled >= SAMPLE_EVERY_S:
            setup.append(time_import(workdir))
            ref.append(time_reference(workdir))
            sampled = time.perf_counter()
        outcome, usage = run_op(op, workdir)
        tally.add(outcome)
        runs[op.name].append(usage)
        if done < len(ops):
            first.update(outcome.digests)
            perms += outcome.perms
        else:
            compare_digests(tally, "the first pass", outcome.digests, first)
        done += 1
    known = []
    for op in probes:  # once each, untimed
        outcome, _ = run_op(op, workdir)
        tally.add(outcome)
        first.update(outcome.digests)
        if outcome.known:
            known.append(op.name)
    compare_digests(tally, f"the values recorded for seed {seed}", first, expected_digests(workload, seed))
    if workload == "campaign":
        compare_digests(tally, "campaign --jobs 1", {"campaign/jobs1": first["campaign/jobs2"]}, first)

    # per operation: median wall and CPU time, largest peak RSS
    op_wall = {name: statistics.median(u.wall for u in us) for name, us in runs.items()}
    op_cpu = {name: statistics.median(u.cpu for u in us) for name, us in runs.items()}
    op_rss = {name: max(u.rss_mb for u in us) for name, us in runs.items()}
    stage_s: dict[str, float] = {}
    for op in ops:
        stage_s[op.stage] = stage_s.get(op.stage, 0.0) + op_wall[op.name]
    items = perms if workload == "oracle" else sum(op.items for op in ops)
    slowdown = statistics.median(u.cpu for u in ref) / REF_CPU_S
    setup_s = statistics.median(u.cpu for u in setup) / slowdown
    items_per_cpu_s = items / (sum(op_cpu.values()) / slowdown)
    rss_mb = statistics.mean(op_rss.values())

    print(f"workload: {workload}  seed: {seed}  executions: {done} of {len(ops)} operations")
    for name, us in runs.items():
        print(f"op {name}: over {len(us)}, median wall {fmt(op_wall[name])} s, cpu {fmt(op_cpu[name])} s; "
              f"wall " + " ".join(fmt(u.wall) for u in us) + "; cpu " + " ".join(fmt(u.cpu) for u in us))
    print(f"reference: median CPU {fmt(slowdown * REF_CPU_S)} s of {len(ref)} runs; CPU times below are "
          f"scaled by {fmt(1 / slowdown)} to a host where it takes {REF_CPU_S} s")
    print(f"setup_s: {fmt(setup_s)} s  (median CPU time of {len(setup)} fresh imports of treedist.cli, scaled; "
          f"unscaled {fmt(setup_s * slowdown)} s CPU, {fmt(statistics.median(u.wall for u in setup))} s wall)")
    print(f"items_per_cpu_s: {fmt(items_per_cpu_s)} 1/s  ({items} {ITEM[workload]} over "
          f"{fmt(sum(op_cpu.values()) / slowdown)} scaled CPU s; unscaled {fmt(items_per_cpu_s / slowdown)} 1/s)")
    print(f"items_per_s: {fmt(items / sum(op_wall.values()))} 1/s  (over {fmt(sum(op_wall.values()))} wall s)")
    for stage, label in (("color", "color_s"), ("verify", "verify_s"), ("dnumber", "dnumber_s")):
        if stage in stage_s:
            print(f"{label}: {fmt(stage_s[stage])} s")
    for stage, label in (("campaign_jobs1", "trials_per_s"), ("campaign_jobs2", "trials_per_s_parallel")):
        if stage in stage_s:
            print(f"{label}: {fmt(workloads.CAMPAIGN_TRIALS / stage_s[stage])} 1/s")
    if "oracle" in stage_s:
        print(f"perms_per_s: {fmt(items / stage_s['oracle'])} 1/s  ({items} permutations)")
    print(f"peak_rss_mb: {fmt(max(op_rss.values()))} MB  (largest operation)")
    print(f"rss_mb: {fmt(rss_mb)} MB  (mean over operations of their peak)")
    print(f"failed_ops: {tally.failed}/{tally.attempted}")
    for name in known:
        print(f"known defect: {name} raises RecursionError (a probe, not counted in failed_ops)")
    for what in tally.mismatches:
        print(f"mismatch: {what}")
    for name in sorted(first):
        print(f"digest {name} {first[name]}")

    return {
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_cpu_s": {"value": items_per_cpu_s, "unit": "1/s"},
            "rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def run_traced(workload: str, ops: list[Op], workdir: Path, seed: int) -> dict:
    time_import(workdir)  # checks where treedist is imported from
    ref_tally = Tally()
    digests = reference_pass(ops, workdir, ref_tally)
    compare_digests(ref_tally, f"the values recorded for seed {seed}", digests, expected_digests(workload, seed))
    half = []
    if workload in ("large_random", "symmetric"):
        (workdir / "half").mkdir()
        half = [op for op in workloads.build(workload, seed, workdir / "half", half=True) if not op.probe]
    plan = workdir / "plan.json"
    # worker processes cannot be wrapped from outside: trace --jobs 1 only;
    # the probes are not traced, their count comes from the pass above
    traced_ops = [op for op in ops if op.stage != "campaign_jobs2" and not op.probe]
    plan.write_text(json.dumps({
        "ops": [vars(op) for op in traced_ops],
        "half": [vars(op) for op in half],
        "spans_file": str(OUT / f"spans-{workload}-{seed}.json"),
    }))
    result = workdir / "trace_result.json"
    OUT.mkdir(exist_ok=True)
    rc = spawn([sys.executable, str(BENCH / "trace.py"), str(plan), str(result)],
               workdir / "trace.out", workdir / "trace.err", workdir).rc
    sys.stdout.write((workdir / "trace.out").read_text())
    if rc != 0:
        sys.stderr.write((workdir / "trace.err").read_text())
        raise SystemExit(f"error: traced run exited with {rc}")
    traced = json.loads(result.read_text())
    tally = Tally()
    tally.attempted, tally.failed = traced["attempted"], traced["failed"]
    compare_digests(tally, "the untraced run", traced["digests"], digests)
    compare_digests(tally, "the in-process untraced run", traced["digests"], traced["untraced_digests"])
    mismatches = ref_tally.mismatches + tally.mismatches
    for what in mismatches:
        print(f"mismatch: {what}")
    layers = traced["metrics"]
    layers["known_defects"] = ref_tally.known
    print(f"known_defects: {ref_tally.known} count  (probe checks that raised RecursionError)")
    return {
        "correct": not mismatches and traced["correct"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                    for m in json.loads(SPEC.read_text())["per_layer"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running child is stopped and the scratch
    # directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "treedist" / "cli.py").is_file():
        print(f"error: no treedist sources under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            result = run_traced(args.workload, ops, workdir, args.seed)
        else:
            result = run_untraced(args.workload, ops, workdir, args.seconds, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
