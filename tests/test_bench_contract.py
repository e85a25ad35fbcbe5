"""The benchmark's traced run wraps treedist functions by name.

bench/trace.py lists them in TARGETS and looks each one up with getattr, so a
rename in treedist would only surface when the traced benchmark runs.  This
reads TARGETS from the source, without importing the benchmark, and checks
every name against the package.
"""

from __future__ import annotations

import ast
import importlib
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
