from __future__ import annotations

import contextlib
import decimal
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treedist import cli, coloring, format_edge_list, random_tree, symmetry, tree_core, verifier
from treedist.cli import main, render_radius_table
from treedist.errors import TreedistError

import helpers

FIXDIR = helpers.FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.tree", tmp_path / "b.tree"
        assert main(["gen", "-n", "20", "-k", "3", "-s", "7", "-o", str(a)]) == 0
        assert main(["gen", "-n", "20", "-k", "3", "-s", "7", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_vertex_header(self, capsys):
        code, out, _ = run(capsys, "gen", "-n", "1")
        assert code == 0
        assert out == "# n=1\n"

    def test_infeasible_exit2(self, capsys):
        code, _, err = run(capsys, "gen", "-n", "10", "-k", "1")
        assert code == 2
        assert "error" in err

    def test_write_peak_memory(self, monkeypatch, tmp_path):
        # only the write runs: the tree is made beforehand.  gen once built
        # an edge list and an f-string per edge, joined into one string, and
        # peaked at 115 bytes a vertex; written line by line it reads 7 to
        # 16 (see test_tree_core's TestPeakMemory)
        tree = random_tree(20000, 8, 0)
        monkeypatch.setattr(tree_core, "random_tree", lambda *args: tree)
        out = tmp_path / "gen.tree"
        code, peak, _ = helpers.traced_peak(lambda: main(["gen", "-n", "20000", "-k", "8", "-o", str(out)]))
        assert code == 0
        assert out.read_text() == format_edge_list(tree)
        assert peak < 24 * tree.n, peak / tree.n


class TestColor:
    def test_summary_line(self, capsys):
        code, out, _ = run(capsys, "color", "--colors", "3", str(FIXDIR / "hub10_tails2.tree"))
        assert code == 0
        assert re.fullmatch(r"n=31 k=10 c=3 r_ceil=2 fixed=\d+/31\n", out)

    def test_path_all_fixed(self, capsys):
        code, out, _ = run(capsys, "color", "--colors", "2", str(FIXDIR / "path10.tree"))
        assert code == 0
        assert out.strip().endswith("fixed=10/10")

    def test_regular_algorithm(self, capsys):
        code, out, _ = run(
            capsys, "color", "-a", "regular", str(FIXDIR / "complete_1_4_depth2.tree")
        )
        assert code == 0
        assert "c=2" in out

    def test_outputs_written(self, capsys, tmp_path):
        colj = tmp_path / "coloring.json"
        trj = tmp_path / "trace.json"
        dot = tmp_path / "tree.dot"
        code, _, _ = run(
            capsys,
            "color",
            "--colors",
            "3",
            str(FIXDIR / "hub10_tails2.tree"),
            "--coloring-out",
            str(colj),
            "--trace-out",
            str(trj),
            "--dot-out",
            str(dot),
        )
        assert code == 0
        coloring = json.loads(colj.read_text())
        assert coloring["num_colors"] == 3
        assert len(coloring["colors"]) == 31
        trace = json.loads(trj.read_text())
        assert len(trace["rules"]) == 31
        assert trace["main_lines"]
        text = dot.read_text()
        assert text.startswith("graph tree {")
        assert "penwidth=2" in text
        assert 'fillcolor="white"' in text

    def test_dot_to_stdout_matches_file(self, capsys, tmp_path):
        tree = str(FIXDIR / "hub10_tails2.tree")
        dot = tmp_path / "tree.dot"
        code, summary, _ = run(capsys, "color", "-c", "3", tree, "--dot-out", str(dot))
        assert code == 0
        code, out, _ = run(capsys, "color", "-c", "3", tree, "--dot-out", "-")
        assert code == 0
        assert out == dot.read_bytes().decode("utf-8") + summary

    def test_dot_write_peak_memory(self, capsys, monkeypatch, tmp_path):
        # only the DOT write runs: the tree, coloring and trace are made
        # beforehand and the fixed pass is stubbed.  Writing the DOT once
        # peaked at 200 bytes a vertex (an f-string per vertex and per edge,
        # an edge list, all joined into one string); written line by line it
        # reads about 6 (see test_tree_core's TestPeakMemory)
        tree = random_tree(20000, 8, 0)
        made = coloring.color_tree(tree, 2)
        monkeypatch.setattr(cli, "read_tree", lambda path: tree)
        monkeypatch.setattr(coloring, "color_tree", lambda *args, **kwargs: made)
        monkeypatch.setattr(symmetry, "fixed_vertices", lambda *args: [])
        argv = ["color", "-", "-c", "2", "--dot-out", str(tmp_path / "tree.dot")]
        code, peak, _ = helpers.traced_peak(lambda: main(argv))
        assert code == 0
        assert peak < 12 * tree.n, peak / tree.n

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["-a", "near", "hub10_tails2"], "0c64dbad481d2ee8"),
            (["-a", "near", "complete_1_3_depth3"], "d571503cc75501b6"),
            (["-a", "regular", "complete_1_4_depth2"], "b6d2249d0a8b8087"),
            (["-a", "spine", "path5"], "fd1aa37d6fea487f"),
            (["-a", "spine", "hub10_tails2"], "2946e0cc7f06f257"),
            (["-a", "anchored", "--anchor", "16", "complete_1_4_depth2"], "9974c729832184e7"),
            (["-a", "anchored", "--anchor", "0", "path10"], "741190cdfa5b7cf3"),
        ],
    )
    def test_dot_without_trace_bytes_pinned(self, capsys, tmp_path, argv, digest):
        # only the main algorithm makes a trace; the others draw no bold
        # edge.  Digests are sha256 prefixes of the DOT bytes
        *flags, name = argv
        dot = tmp_path / "tree.dot"
        code, _, _ = run(capsys, "color", *flags, str(FIXDIR / f"{name}.tree"), "--dot-out", str(dot))
        assert code == 0
        text = dot.read_bytes()
        assert b"penwidth" not in text
        assert hashlib.sha256(text).hexdigest()[:16] == digest

    def test_dot_cost_independent_of_color_count(self, capsys, tmp_path):
        # any c >= k colors every vertex distinctly, so the bytes are those
        # of c = 10 (GOLDEN_FIX_AND_DOT); the DOT once made one attribute
        # string per color in 0..c-1, some 100 MB at this c
        dot = tmp_path / "tree.dot"
        argv = ["color", "-c", "1000000", str(FIXDIR / "hub10_tails2.tree"), "--dot-out", str(dot)]
        code, peak, _ = helpers.traced_peak(lambda: main(argv))
        capsys.readouterr()
        assert code == 0
        assert hashlib.sha256(dot.read_bytes()).hexdigest()[:16] == "175a1e805feb2da0"
        assert peak < 1_000_000, peak

    def test_missing_colors_exit2(self, capsys):
        code, _, err = run(capsys, "color", str(FIXDIR / "path10.tree"))
        assert code == 2

    @pytest.mark.parametrize(
        "algorithm, message",
        [
            ("main", "--colors is required for the main algorithm"),
            ("anchored", "--anchor is required for the anchored algorithm"),
        ],
    )
    def test_missing_algorithm_option_exit2(self, capsys, tmp_path, algorithm, message):
        # the error goes through main's one error path, before any output
        out_file = tmp_path / "coloring.json"
        argv = ["color", "-a", algorithm, str(FIXDIR / "path10.tree"), "--coloring-out", str(out_file)]
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not out_file.exists()

    def test_bad_vertex_count_header_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tree"
        for header in ("# n=x", "# n=0", "# n=-3"):
            bad.write_text(f"{header}\n0 1\n1 2\n")
            code, _, err = run(capsys, "color", "--colors", "2", str(bad))
            assert code == 2
            assert err.startswith("error: line 1: vertex count"), header

    def test_parse_error_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, "color", "--colors", "2", str(bad))
        assert code == 2
        assert "error" in err

    def test_root_option_removed_exit2(self, capsys):
        # colorings are rooted at the center only, where verify checks them
        with pytest.raises(SystemExit) as exc:
            main(["color", "--root", "0", str(FIXDIR / "path5.tree"), "-c", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --root" in capsys.readouterr().err
        assert run(capsys, "color", "-c", "9", str(FIXDIR / "hub10_tails2.tree"))[0] == 0

    def test_spine_algorithm(self, capsys):
        code, out, _ = run(capsys, "color", "-a", "spine", str(FIXDIR / "path5.tree"))
        assert code == 0

    @pytest.mark.parametrize("spine", ["a,b", "1,,2"])
    def test_bad_spine_token_exit2(self, capsys, spine):
        code, out, err = run(capsys, "color", "-a", "spine", "--spine", spine, str(FIXDIR / "path5.tree"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--spine" in err


class TestVerify:
    @pytest.mark.parametrize("fixture", sorted(p.stem for p in FIXDIR.glob("*.tree")))
    def test_round_trip_exit0(self, capsys, tmp_path, fixture):
        # color -c C then verify, for every C from 2 to the valence
        colj = tmp_path / "coloring.json"
        tree_path = str(FIXDIR / f"{fixture}.tree")
        for c in range(2, max(2, tree_core.max_valence(helpers.load_fixture(fixture))) + 1):
            code, _, _ = run(capsys, "color", "--colors", str(c), tree_path, "--coloring-out", str(colj))
            assert code == 0, c
            code, out, _ = run(capsys, "verify", tree_path, "--coloring", str(colj))
            assert (code, json.loads(out)["failures"]) == (0, []), c

    def test_verify_peak_memory(self, capsys, monkeypatch, tmp_path):
        # the tree is made beforehand; reading the coloring, rooting the tree
        # and the labelling of the fixed pass run measured.  Together they
        # peak at about 106 bytes a vertex, of which the view cached on the
        # tree keeps 64 (see test_tree_core's TestPeakMemory).  While the
        # tree held a tuple of neighbours per vertex and an int object per
        # vertex that the view's order shared, they read 74, and the bound
        # was twice the tree's 96
        tree = random_tree(20000, 8, 0)
        colj = tmp_path / "coloring.json"
        made, _ = coloring.color_tree(random_tree(20000, 8, 0), 2)
        colj.write_text(json.dumps(made.to_json_dict()))
        monkeypatch.setattr(cli, "read_tree", lambda path: tree)
        argv = ["verify", "-", "--coloring", str(colj)]
        code, peak, _ = helpers.traced_peak(lambda: main(argv))
        assert code == 0
        assert json.loads(capsys.readouterr().out)["failures"] == []
        assert peak < 130 * tree.n, peak / tree.n

    def test_broken_coloring_exit1(self, capsys, tmp_path):
        colj = tmp_path / "coloring.json"
        tree_path = str(FIXDIR / "hub10_tails2.tree")
        run(capsys, "color", "--colors", "3", tree_path, "--coloring-out", str(colj))
        data = json.loads(colj.read_text())
        data["colors"] = [0] * 31  # monochromatic: nothing separated
        colj.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", tree_path, "--coloring", str(colj))
        assert code == 1
        assert json.loads(out)["failures"]

    def test_report_prints_a_count_of_any_length(self, capsys, tmp_path):
        # 2000! has 5736 digits, more than the interpreter writes or reads as
        # text by default (4300 from 3.10.7 on): the report prints them all
        # and leaves the cap as it was.  Decimal reads the digits uncapped
        tree_path, colj = tmp_path / "star.tree", tmp_path / "coloring.json"
        tree_path.write_text(format_edge_list(helpers.star_tree(2000)))
        colj.write_text(json.dumps({"num_colors": 1, "colors": [0] * 2001}))
        cap = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "verify", str(tree_path), "--coloring", str(colj), "--report")
        assert (code, err) == (0, "")
        report = json.loads(out, parse_int=decimal.Decimal)
        assert report["aut_count"] == math.factorial(2000)
        assert report["orbit"] == [0] + [1] * 2000
        assert sys.get_int_max_str_digits() == cap

    def test_more_colors_than_valence(self, capsys, tmp_path):
        colj = tmp_path / "coloring.json"
        tree_path = str(FIXDIR / "path5.tree")
        assert run(capsys, "color", "-c", "5", tree_path, "--coloring-out", str(colj))[0] == 0
        code, out, _ = run(capsys, "verify", tree_path, "--coloring", str(colj))
        assert (code, json.loads(out)["failures"]) == (0, [])
        data = json.loads(colj.read_text())
        data["colors"] = [0, 1, 2, 1, 0]  # the path may still be reversed
        colj.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", tree_path, "--coloring", str(colj))
        assert code == 1
        assert json.loads(out)["failures"][0]["witness"] == {"unfixed_but_guaranteed": [0, 1, 3, 4]}

    def test_partial_coloring_exit2(self, capsys, tmp_path):
        colj = tmp_path / "coloring.json"
        for colors, message in (([0, -1, 0, 1, 0], "has uncolored vertices"), ([0, 1, 0], "covers 3 of 5 vertices")):
            colj.write_text(json.dumps({"num_colors": 2, "colors": colors}))
            code, _, err = run(capsys, "verify", str(FIXDIR / "path5.tree"), "--coloring", str(colj))
            assert (code, err) == (2, f"error: coloring {message}\n")

    @pytest.mark.parametrize(
        "data",
        [
            b"not json at all",
            b"\xff\xfe not UTF-8",
            b'{"colors": [0, 1, 0, 1, 0]}',
            b'{"num_colors": 2}',
            b"[0, 1, 0, 1, 0]",
            b'{"num_colors": 2, "colors": 7}',
            b'{"num_colors": 2, "colors": "01010"}',
            b'{"num_colors": 2, "colors": {"0": 1}}',
            b'{"num_colors": "two", "colors": [0, 1, 0, 1, 0]}',
            b'{"num_colors": Infinity, "colors": [0, 1, 0, 1, 0]}',
            b'{"num_colors": "2", "colors": [0, 1, 0, 1, 0]}',
            b'{"num_colors": 2.0, "colors": [0, 1, 0, 1, 0]}',
            b'{"num_colors": true, "colors": [0, 0, 0, 0, 0]}',
            b'{"num_colors": 2, "colors": [0, 1.7, 0, 1, 0]}',
            b'{"num_colors": 2, "colors": [0, "1", 0, 1, 0]}',
            b'{"num_colors": 2, "colors": [0, true, 0, 1, 0]}',
            b'{"num_colors": 2, "colors": [0, 1.0, 0, 1, 0]}',
            b'{"num_colors": 2, "colors": [0, NaN, 0, 1, 0]}',
            pytest.param(b"[" * 100_000, id="nested-100000-deep"),
            b'{"num_colors": 2, "colors": [0, 1, 0]}',
        ],
    )
    def test_malformed_coloring_exit2(self, capsys, tmp_path, data):
        colj = tmp_path / "coloring.json"
        colj.write_bytes(data)
        for report in ([], ["--report"]):
            code, _, err = run(capsys, "verify", str(FIXDIR / "path5.tree"), "--coloring", str(colj), *report)
            assert code == 2
            assert err.startswith("error: ")
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"[0, 1, 0, 1, 0]", "the coloring must be a JSON object, not list"),
            (b'{"colors": [0, 1, 0, 1, 0]}', "KeyError: 'num_colors'"),
        ],
    )
    def test_malformed_coloring_message(self, capsys, tmp_path, data, message):
        colj = tmp_path / "coloring.json"
        colj.write_bytes(data)
        for report in ([], ["--report"]):
            code, out, err = run(capsys, "verify", str(FIXDIR / "path5.tree"), "--coloring", str(colj), *report)
            assert (code, out, err) == (2, "", f"error: malformed coloring: {message}\n")

    def test_no_size_cap(self, capsys, tmp_path):
        tree_path = tmp_path / "big.tree"
        tree_path.write_text(format_edge_list(random_tree(500, 4, 3)))
        colj = tmp_path / "coloring.json"
        assert run(capsys, "color", "-c", "2", str(tree_path), "--coloring-out", str(colj))[0] == 0
        code, out, _ = run(capsys, "verify", str(tree_path), "--coloring", str(colj))
        assert code == 0
        assert json.loads(out) == {"trials": 1, "skipped": 0, "failures": []}
        # the deleted cap's flag is still accepted, and ignored
        assert run(capsys, "verify", str(tree_path), "--coloring", str(colj), "--max-n", "1") == (0, out, "")

    def test_report_mode(self, capsys, tmp_path):
        colj = tmp_path / "coloring.json"
        tree_path = str(FIXDIR / "glued_stars.tree")
        run(capsys, "color", "-a", "near", tree_path, "--coloring-out", str(colj))
        code, out, _ = run(capsys, "verify", tree_path, "--coloring", str(colj), "--report")
        assert code == 0
        report = json.loads(out)
        assert report["aut_count"] == 2
        assert sum(1 for f in report["fixed"] if not f) == 2


class TestDnumber:
    def test_star3(self, capsys):
        code, out, _ = run(capsys, "dnumber", str(FIXDIR / "complete_1_3_depth1.tree"))
        assert (code, out.strip()) == (0, "3")

    def test_complete_depth2(self, capsys):
        code, out, _ = run(capsys, "dnumber", str(FIXDIR / "complete_1_3_depth2.tree"))
        assert (code, out.strip()) == (0, "3")

    def test_path5(self, capsys):
        code, out, _ = run(capsys, "dnumber", str(FIXDIR / "path5.tree"))
        assert (code, out.strip()) == (0, "2")

    def test_deep_path(self, capsys, tmp_path):
        # one level per vertex: deeper than the interpreter's recursion limit
        n = 8000
        tree = tmp_path / "path.tree"
        tree.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        code, out, _ = run(capsys, "dnumber", str(tree))
        assert (code, out.strip()) == (0, "2")

    def test_over_budget_exit2(self, capsys):
        # the size guard is gone: its flag is still accepted, and ignored
        tree = str(FIXDIR / "hub10_tails2.tree")
        code, out, _ = run(capsys, "dnumber", tree)
        assert (code, out.strip()) == (0, "3")
        assert run(capsys, "dnumber", tree, "--size-guard", "1") == (0, out, "")

    def test_star_no_size_cap(self, capsys, tmp_path):
        # D = n-1 on a star: a scan over d would make n counting passes
        n = 20_001
        tree = tmp_path / "star.tree"
        tree.write_text("".join(f"0 {i}\n" for i in range(1, n)))
        start = time.process_time()
        code, out, _ = run(capsys, "dnumber", str(tree))
        assert (code, out.strip()) == (0, str(n - 1))
        assert time.process_time() - start < 10.0


class TestTable:
    def test_default_matches_embedded_table(self, capsys):
        from helpers import RADIUS_TABLE

        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["c\\k"] + [str(k) for k in range(2, 17)]
        for line, (c, row) in zip(lines[1:], sorted(RADIUS_TABLE.items())):
            cells = line.split()
            assert cells[0] == str(c)
            expected = ["-" if x is None else str(x) for x in row]
            assert cells[1:] == expected

    def test_single_row_slice(self, capsys):
        code, out, _ = run(capsys, "table", "--c-max", "2", "--k-max", "4")
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.split()[1:] == ["0", "1", "3"]

    def test_diagonal_zero(self, capsys):
        code, out, _ = run(capsys, "table", "--c-max", "5", "--k-max", "5")
        row_c5 = out.strip().splitlines()[-1]
        assert row_c5.split() == ["5", "-", "-", "-", "0"]

    def test_rendering_stable(self):
        assert render_radius_table() == render_radius_table()

    @pytest.mark.parametrize("flags", [["--c-max", "1"], ["--k-max", "1"], ["--c-max", "0", "--k-max", "-4"]])
    def test_empty_range_exit2(self, capsys, flags):
        # an empty range once printed a bare header, or row labels with no
        # cells, and exited 0
        code, out, err = run(capsys, "table", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "c_max >= 2 and k_max >= 2" in err

    def test_smallest_range(self, capsys):
        code, out, _ = run(capsys, "table", "--c-max", "2", "--k-max", "2")
        assert (code, out) == (0, "c\\k  2\n2    0\n")


class TestCampaign:
    def test_small_campaign(self, capsys):
        code, out, err = run(
            capsys, "campaign", "--trials", "20", "--n-max", "15", "--k-max", "5", "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 20
        assert payload["failures"] == []
        assert "elapsed" not in payload  # payload stays timestamp-free
        assert "elapsed" in err

    def test_payload_deterministic(self, capsys):
        args = ["campaign", "--trials", "12", "--n-max", "12", "--k-max", "4", "--seed", "8"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exit2(self, capsys, jobs):
        code, out, err = run(capsys, "campaign", "--trials", "3", "--jobs", jobs)
        assert (code, out, err) == (2, "", f"error: need jobs >= 1, got {jobs}\n")

    def test_jobs2_prints_jobs1_payload(self, capsys):
        args = ["campaign", "--trials", "16", "--n-max", "14", "--k-max", "5", "--seed", "11"]
        code1, out1, _ = run(capsys, *args, "--jobs", "1")
        code2, out2, _ = run(capsys, *args, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2


def _loaded_after(statement: str, *modules: str) -> list[str]:
    """Which of `modules` a bare interpreter (-S: no site packages) holds
    after running `statement` with this checkout's src/ first on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); {statement}; "
        f"print(' '.join(m for m in {modules!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    return done.stdout.splitlines()[-1].split()


def test_cli_import_loads_no_process_pool():
    # the process pool is imported only by campaign --jobs > 1, so every
    # other run skips its import cost
    assert _loaded_after("import treedist.cli", "concurrent.futures.process", "multiprocessing") == []


def test_cli_import_loads_no_dataclasses():
    # the result types are plain classes, so no run pays for importing
    # dataclasses and the inspect, dis, ast and tokenize it pulls in
    assert _loaded_after("import treedist.cli", "dataclasses", "inspect") == []


class TestLoadedLayers:
    """Each subcommand imports only the layers it runs.  Where no bytecode
    is cached, a process compiles every module it imports from source, so
    each layer skipped is start-up saved."""

    LAYERS = ("treedist.coloring", "treedist.symmetry", "treedist.verifier")

    def test_package_import_loads_no_module(self):
        files = Path(cli.__file__).parent.glob("*.py")
        modules = [f"treedist.{path.stem}" for path in files if path.stem != "__init__"]
        assert "treedist.cli" in modules
        assert _loaded_after("import treedist", *modules) == []

    def test_cli_import_loads_no_layer(self):
        assert _loaded_after("import treedist.cli", *self.LAYERS) == []

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["table"], []),
            (["gen", "-n", "50"], []),
            (["dnumber", "TREE"], ["treedist.symmetry"]),
            (["verify", "TREE", "--coloring", "COLORING"], ["treedist.symmetry", "treedist.verifier"]),
            (["verify", "TREE", "--coloring", "COLORING", "--report"], ["treedist.symmetry"]),
            (["color", "-c", "3", "TREE"], ["treedist.coloring", "treedist.symmetry"]),
            (["color", "-a", "near", "TREE", "--dot-out", "-"], ["treedist.coloring", "treedist.symmetry"]),
            (["campaign", "--trials", "5"], list(LAYERS)),
        ],
    )
    def test_subcommand_loads_its_layers(self, capsys, tmp_path, argv, loaded):
        tree = str(FIXDIR / "hub10_tails2.tree")
        colj = tmp_path / "coloring.json"
        assert main(["color", "-c", "3", tree, "--coloring-out", str(colj)]) == 0
        argv = [{"TREE": tree, "COLORING": str(colj)}.get(arg, arg) for arg in argv]
        statement = f"import treedist.cli; assert treedist.cli.main({argv!r}) == 0"
        assert _loaded_after(statement, *self.LAYERS) == loaded


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n"))
    code, out, _ = run(capsys, "color", "--colors", "2", "-")
    assert code == 0
    assert out.startswith("n=3 k=2 c=2")


NOT_UTF8 = b"\xff\xfe 0 1\n"


@pytest.mark.parametrize("argv", [["color", "-c", "2"], ["verify"], ["dnumber"]])
def test_tree_file_not_utf8_exit2(capsys, tmp_path, argv):
    bad = tmp_path / "bad.tree"
    bad.write_bytes(NOT_UTF8)
    if argv == ["verify"]:
        colj = tmp_path / "coloring.json"
        colj.write_text(json.dumps({"num_colors": 2, "colors": [0, 1]}))
        argv = argv + ["--coloring", str(colj)]
    code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_stdin_not_utf8_exit2(capsys, monkeypatch, errors):
    # the interpreter decodes stdin strictly under a UTF-8 locale and with
    # surrogateescape under C/POSIX; read_tree decodes the raw bytes itself,
    # so both say the input is not UTF-8
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors=errors)
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "color", "--colors", "2", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "stream, argv, message",
    [
        ("stdin", ["color", "-c", "2", "-"], "-: standard input is closed"),
        ("stdin", ["verify", "-", "--coloring", "unread.json"], "-: standard input is closed"),
        ("stdin", ["dnumber", "-"], "-: standard input is closed"),
        ("stdout", ["gen", "-n", "5"], "standard output is closed"),
        ("stdout", ["table"], "standard output is closed"),
        (
            "stdout",
            ["color", "-c", "2", str(FIXDIR / "path5.tree"), "--coloring-out", "-"],
            "standard output is closed",
        ),
    ],
)
def test_closed_standard_stream_exit2(capsys, monkeypatch, stream, argv, message):
    # a process started with a standard stream closed (`<&-`, `>&-`) has
    # None in its place, not a file
    monkeypatch.setattr(f"sys.{stream}", None)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


MISSING = "missing/x"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["color", "-c", "2", MISSING], None),
        (["verify", "PATH5", "--coloring", MISSING], None),
        (["color", "-c", "2", "PATH5", "--coloring-out", MISSING], None),
        (["gen", "-n", "3", "-o", MISSING], None),
        (["verify", "PATH5", "--coloring", "ZERO_COLORS"], "num_colors must be >= 1"),
        (["dnumber", "--max-colors", "0", "PATH5"], "max_colors must be >= 1"),
        (["gen", "-n", "0"], "n must be >= 1"),
        (["gen", "-n", "2", "-k", "0"], "an edge needs degree 1 at both ends"),
        (["color", "-a", "spine", "--spine", "0,1,0", "PATH5"], "spine repeats a vertex"),
    ],
)
def test_bad_input_exit2(capsys, tmp_path, argv, message):
    # a missing input, an unwritable output and each out-of-range parameter
    # end in exit 2 with one error line, never a traceback
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"num_colors": 0, "colors": [0] * 5}))
    names = {"PATH5": str(FIXDIR / "path5.tree"), "ZERO_COLORS": str(zero), MISSING: str(tmp_path / MISSING)}
    argv = [names.get(arg, arg) for arg in argv]
    if message is None:
        message = f"[Errno 2] No such file or directory: {str(tmp_path / MISSING)!r}"
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


_PAYLOAD_TREES = st.one_of(
    st.builds(random_tree, st.integers(1, 60), st.integers(2, 8), st.integers(0, 10**6)),
    # complete trees with valence 5 or 6 build main lines at c = 3
    st.builds(helpers.complete_tree, st.integers(5, 6), st.integers(2, 3)),
)


@settings(max_examples=60, deadline=None)
@given(tree=_PAYLOAD_TREES, c=st.one_of(st.none(), st.integers(2, 8)), batch=st.integers(1, 8))
@example(tree=helpers.complete_tree(5, 3), c=3, batch=2)  # 18 main lines
@example(tree=helpers.complete_tree(5, 3), c=None, batch=2)
def test_json_payloads_equal_json_dumps(tree, c, batch):
    """--coloring-out and --trace-out hold json.dumps(x.to_json_dict()) + "\\n",
    byte for byte, although cmd_color writes them from shared chunks, a
    batch of list elements at a time (small batches here, so that lists
    span several).  c None stands for -a near, whose trace is empty."""
    if c is None:
        made = coloring.color_near_distinguishing(tree)
        flags = ["-a", "near"]
        expected_trace = {"rules": [], "main_lines": []}
    else:
        made, trace = coloring.color_tree(tree, c)
        flags = ["-c", str(c)]
        expected_trace = trace.to_json_dict()
    with tempfile.TemporaryDirectory() as tmp:
        tree_path, colj, trj = Path(tmp, "t.tree"), Path(tmp, "c.json"), Path(tmp, "t.json")
        tree_path.write_text(format_edge_list(tree), encoding="utf-8")
        argv = ["color", str(tree_path), *flags, "--coloring-out", str(colj), "--trace-out", str(trj)]
        with mock.patch.object(cli, "JSON_BATCH", batch), contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert colj.read_bytes() == (json.dumps(made.to_json_dict()) + "\n").encode()
        assert trj.read_bytes() == (json.dumps(expected_trace) + "\n").encode()


class TestRootsOnce:
    """Each subcommand centers and roots its tree once; every later use
    shares the cached Tree.centered view."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = Counter()
        original_center = tree_core.center

        def counted_center(tree):
            counts["center"] += 1
            return original_center(tree)

        class CountedView(tree_core.RootedView):
            def __init__(self, tree, roots):
                counts["RootedView"] += 1
                super().__init__(tree, roots)

        # rebind every module's `from .tree_core import ...` binding too
        for module in (tree_core, symmetry, coloring, verifier, cli):
            if getattr(module, "center", None) is original_center:
                monkeypatch.setattr(module, "center", counted_center)
            if getattr(module, "RootedView", None) is tree_core.RootedView:
                monkeypatch.setattr(module, "RootedView", CountedView)
        return counts

    @pytest.mark.parametrize(
        "argv",
        [
            ["color", "-c", "2", "hub10_tails2"],
            ["color", "-c", "3", "hub10_tails2"],
            ["color", "-c", "9", "hub10_tails2"],
            ["color", "-c", "10", "hub10_tails2"],
            ["color", "-a", "near", "glued_stars"],
            ["color", "-a", "regular", "complete_1_4_depth2"],
            ["dnumber", "hub10_tails2"],
        ],
    )
    def test_color_and_dnumber(self, capsys, built, argv):
        *flags, name = argv
        code, _, _ = run(capsys, *flags, str(FIXDIR / f"{name}.tree"))
        assert code == 0
        assert built == {"center": 1, "RootedView": 1}

    @pytest.mark.parametrize("extra", [[], ["--report"]])
    def test_verify(self, capsys, tmp_path, built, extra):
        colj = tmp_path / "coloring.json"
        tree_path = str(FIXDIR / "hub10_tails2.tree")
        run(capsys, "color", "-c", "3", tree_path, "--coloring-out", str(colj))
        built.clear()
        code, _, _ = run(capsys, "verify", tree_path, "--coloring", str(colj), *extra)
        assert code == 0
        assert built == {"center": 1, "RootedView": 1}

    @pytest.mark.parametrize("spine, views", [([], 3), (["--spine", "0,1,2,3,4"], 2)])
    def test_spine(self, capsys, built, spine, views):
        # longest_spine roots the tree at 0 and at the spine's first vertex,
        # and color_spine walks that second view; the fixed count adds the
        # centered one
        code, _, _ = run(capsys, "color", "-a", "spine", *spine, str(FIXDIR / "path5.tree"))
        assert code == 0
        assert built == {"center": 1, "RootedView": views}

    def test_campaign_trial(self, built):
        rooted = 0
        for index in range(200):
            built.clear()
            skipped, failures = verifier._campaign_range((0, range(index, index + 1), 40, 8))
            assert failures == []
            assert built["center"] == built["RootedView"] <= 1
            rooted += built["center"]
        assert rooted > 150


class TestFixReportCalls:
    """Every check reads the fixed pass; only verify --report builds the
    orbits and the automorphism count."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("fix_report", "fixed_vertices"):
            original = getattr(symmetry, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module in (symmetry, verifier, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("c", ["2", "3"])
    def test_color(self, capsys, calls, c):
        code, out, _ = run(capsys, "color", "-c", c, str(FIXDIR / "hub10_tails2.tree"))
        assert code == 0 and "fixed=" in out
        assert calls == {"fixed_vertices": 1}

    @pytest.mark.parametrize("extra, expected", [([], "fixed_vertices"), (["--report"], "fix_report")])
    def test_verify(self, capsys, tmp_path, calls, extra, expected):
        colj = tmp_path / "coloring.json"
        tree_path = str(FIXDIR / "hub10_tails2.tree")
        run(capsys, "color", "-c", "3", tree_path, "--coloring-out", str(colj))
        calls.clear()
        code, _, _ = run(capsys, "verify", tree_path, "--coloring", str(colj), *extra)
        assert code == 0
        assert calls == {expected: 1}

    def test_campaign_trial(self, calls):
        for index in range(200):
            verifier._campaign_range((0, range(index, index + 1), 40, 8))
        assert calls["fix_report"] == 0
        assert calls["fixed_vertices"] > 300


def _edge_list_bytes():
    line = st.one_of(
        st.tuples(st.integers(-2, 12), st.integers(-2, 12)).map("{0[0]} {0[1]}".format),
        st.sampled_from(["", "#", "# n=1", "# n=0", "# n=x", "0", "0 1 2", "a b", "1.5 2", "\t0\x0b1"]),
    )
    return st.lists(line, max_size=14).map("\n".join).map(str.encode)


_VALID_TREE = st.builds(random_tree, st.integers(1, 30), st.integers(2, 6), st.integers(0, 10**6)).map(
    lambda t: format_edge_list(t).encode()
)
#: Tree file contents: raw bytes, edge-list-like lines, and valid trees (half
#: the draws, so that verify often gets as far as reading the coloring).
TREE_BYTES = st.one_of(st.binary(max_size=64), _edge_list_bytes(), _VALID_TREE, _VALID_TREE)
JSON_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.5, 10**30]),
    st.text(max_size=3),
)


@pytest.mark.parametrize(
    "command", [["color", "-c", "2"], ["verify"], ["dnumber"]], ids=["color", "verify", "dnumber"]
)
@settings(max_examples=300, deadline=None)
@given(tree_bytes=TREE_BYTES, data=st.data())
def test_fuzzed_files_keep_exit_contract(command, tree_bytes, data):
    """Any tree and coloring file: exit 0, 1 or 2 and never a traceback;
    1 only from verify, with a real violation in its payload."""
    # a coloring of the tree's own size lets verify reach the guarantee check
    try:
        n = tree_core.parse_edge_list(tree_bytes.decode("utf-8")).n
    except (UnicodeDecodeError, TreedistError):
        n = data.draw(st.integers(0, 5))
    c = data.draw(st.integers(1, 4))
    proper = st.fixed_dictionaries(
        {"num_colors": st.just(c), "colors": st.lists(st.integers(0, c - 1), min_size=n, max_size=n)}
    )
    odd = st.fixed_dictionaries(
        {
            "num_colors": st.one_of(st.just(c), JSON_VALUE),
            "colors": st.one_of(st.lists(JSON_VALUE, max_size=n + 1), JSON_VALUE),
        }
    )
    coloring_bytes = data.draw(
        st.one_of(st.binary(max_size=64), st.one_of(proper, odd).map(lambda d: json.dumps(d).encode()))
    )
    with tempfile.TemporaryDirectory() as tmp:
        tree_path, coloring_path = Path(tmp, "t.tree"), Path(tmp, "c.json")
        tree_path.write_bytes(tree_bytes)
        coloring_path.write_bytes(coloring_bytes)
        argv = [*command, str(tree_path)]
        if command == ["verify"]:
            argv += ["--coloring", str(coloring_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    # an uncaught exception would leave main() with a traceback; stderr holds
    # at most the one "error: ..." line (which may quote the input)
    assert code in (0, 1, 2)
    stderr = err.getvalue()
    assert stderr == "" or (stderr.startswith("error: ") and stderr.count("\n") == 1)
    if code == 1:
        assert command == ["verify"]
        assert json.loads(out.getvalue())["failures"]
