from __future__ import annotations

import io
import json
import re
from collections import Counter

import pytest

from treedist import cli, coloring, symmetry, tree_core, verifier
from treedist.cli import main, render_radius_table

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

    def test_missing_colors_exit2(self, capsys):
        code, _, err = run(capsys, "color", str(FIXDIR / "path10.tree"))
        assert code == 2

    def test_bad_vertex_count_header_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("# n=x\n0 1\n1 2\n")
        code, _, err = run(capsys, "color", "--colors", "2", str(bad))
        assert code == 2
        assert err.startswith("error: ")

    def test_parse_error_exit2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, "color", "--colors", "2", str(bad))
        assert code == 2
        assert "error" in err

    def test_spine_algorithm(self, capsys):
        code, out, _ = run(capsys, "color", "-a", "spine", str(FIXDIR / "path5.tree"))
        assert code == 0


class TestVerify:
    def test_round_trip_exit0(self, capsys, tmp_path):
        colj = tmp_path / "coloring.json"
        for fixture in ("hub10_tails2", "glued_stars", "path10", "complete_1_3_depth3"):
            tree_path = str(FIXDIR / f"{fixture}.tree")
            code, _, _ = run(
                capsys, "color", "--colors", "2", tree_path, "--coloring-out", str(colj)
            )
            assert code == 0
            code, out, _ = run(capsys, "verify", tree_path, "--coloring", str(colj))
            assert code == 0
            assert json.loads(out)["failures"] == []

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

    def test_partial_coloring_exit2(self, capsys, tmp_path):
        colj = tmp_path / "coloring.json"
        colj.write_text(json.dumps({"num_colors": 2, "colors": [0, -1, 0, 1, 0]}))
        code, _, err = run(capsys, "verify", str(FIXDIR / "path5.tree"), "--coloring", str(colj))
        assert code == 2

    @pytest.mark.parametrize(
        "data",
        [
            b"not json at all",
            b"\xff\xfe not UTF-8",
            b'{"colors": [0, 1, 0, 1, 0]}',
            b'{"num_colors": 2}',
            b"[0, 1, 0, 1, 0]",
            b'{"num_colors": 2, "colors": 7}',
            b'{"num_colors": "two", "colors": [0, 1, 0, 1, 0]}',
        ],
    )
    def test_malformed_coloring_exit2(self, capsys, tmp_path, data):
        colj = tmp_path / "coloring.json"
        colj.write_bytes(data)
        code, _, err = run(capsys, "verify", str(FIXDIR / "path5.tree"), "--coloring", str(colj))
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

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
        code, out, _ = run(capsys, "dnumber", str(tree), "--size-guard", str(n))
        assert (code, out.strip()) == (0, "2")

    def test_over_budget_exit2(self, capsys):
        code, _, err = run(capsys, "dnumber", str(FIXDIR / "hub10_tails2.tree"))
        assert code == 2
        code, out, _ = run(
            capsys, "dnumber", str(FIXDIR / "hub10_tails2.tree"), "--size-guard", "40"
        )
        assert code == 0


class TestTable:
    def test_default_matches_embedded_table(self, capsys):
        from treedist import RADIUS_TABLE

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
    # surrogateescape under C/POSIX; both end in exit 2
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors=errors)
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "color", "--colors", "2", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


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
            ["dnumber", "--size-guard", "40", "hub10_tails2"],
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

    def test_campaign_trial(self, built):
        rooted = 0
        for index in range(200):
            built.clear()
            skipped, failures = verifier._campaign_trial((0, index, 40, 8))
            assert failures == []
            assert built["center"] == built["RootedView"] <= 1
            rooted += built["center"]
        assert rooted > 150
