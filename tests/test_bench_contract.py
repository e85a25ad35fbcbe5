"""The benchmark's traced run wraps treedist functions by name.

bench/trace.py lists them in TARGETS and looks each one up with getattr, so a
rename in treedist would only surface when the traced benchmark runs.  This
reads TARGETS from the source, without importing the benchmark, and checks
every name against the package.  The traced run also reads attributes of
what it wraps returns (the trace of color_tree, the campaign report), and
the last test feeds real results to its readers.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "bench" / "trace.py"


def traced_targets() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACE}")


def test_every_traced_function_exists():
    targets = traced_targets()
    assert targets
    for module_name, names in targets.items():
        module = importlib.import_module(f"treedist.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"treedist.{module_name}.{name}"


def test_every_bench_cli_operation_parses(tmp_path, monkeypatch):
    # the benchmark passes flags such as --max-n and --size-guard; a CLI
    # change that drops one would only surface when the benchmark runs
    from treedist import cli

    monkeypatch.syspath_prepend(str(TRACE.parent))
    workloads = importlib.import_module("workloads")
    parser = cli.build_parser()
    flags = set()
    for workload in workloads.WORKLOADS:
        for half in (False, True):
            workdir = tmp_path / f"{workload}{int(half)}"
            workdir.mkdir()
            for op in workloads.build(workload, 0, workdir, half=half):
                if op.is_oracle:
                    continue
                try:
                    args = parser.parse_args(op.argv)
                except SystemExit:
                    raise AssertionError(f"{workload}: CLI rejects {op.argv}") from None
                assert args.command == op.argv[0]
                flags.update(a for a in op.argv if a.startswith("--"))
    assert {"--max-n", "--size-guard"} <= flags


def test_traced_results_read_by_name(monkeypatch):
    # the traced run counts rules, main lines and line groups from
    # color_tree's trace, and trials and skips from the campaign report
    import helpers
    from treedist import color_tree, run_random_campaign

    # loaded by path: the standard library has a module named trace too
    monkeypatch.syspath_prepend(str(TRACE.parent))
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_module)
    tree = helpers.load_fixture("hub10_tails2")
    _, trace = color_tree(tree, 3)
    assert len(trace.rules) == tree.n
    assert [len(group) for group in trace.line_groups] == [4, 3, 3]
    assert trace.main_lines == [line for group in trace.line_groups for line in group]
    assert all(type(line) is tuple and len(line) == 3 for line in trace.main_lines)
    report = run_random_campaign(30, 12, 5, 0)
    assert report.trials == 30 and report.skipped > 0

    tracer = trace_module.Tracer()
    trace_module.AFTER["coloring.color_tree"](tracer, 0, (tree, 3), (None, trace))
    trace_module.AFTER["verifier.run_random_campaign"](tracer, 0, (30, 12, 5, 0), report)
    counts = tracer.counts
    assert counts["coloring.rule.main_line"] == 20
    assert counts["coloring.main_lines"] == 10
    assert counts["coloring.line_groups"] == 3
    assert sum(n for name, n in counts.items() if name.startswith("coloring.rule.")) == tree.n
    assert counts["verifier.run_random_campaign.trials"] == 30
    assert counts["verifier.run_random_campaign.skipped"] == report.skipped
