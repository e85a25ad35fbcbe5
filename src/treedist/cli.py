"""Command-line front end.

Subcommands: color, verify, dnumber, table, gen, campaign.  Exit codes:
0 success, 1 verification failure, 2 usage/parse/budget errors.  All payload
outputs (edge lists, coloring/trace JSON, DOT, campaign JSON) are
deterministic given the flags; nothing embeds timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coloring import (
    ceil_fix_radius,
    color_anchored,
    color_near_distinguishing,
    color_regular,
    color_spine,
    color_tree,
    longest_spine,
    ColoringTrace,
)
from .errors import BadFormat, TreedistError
from .symmetry import Coloring, distinguishing_number, fix_report
from .tree_core import Tree, format_edge_list, max_valence, parse_edge_list, random_tree
from .verifier import MAX_ORACLE_N, run_random_campaign, verify_fixing_guarantee

DOT_PALETTE = ("white", "black", "gray", "lightblue", "orange", "palegreen", "plum", "khaki")


def read_tree(path: str) -> Tree:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise BadFormat(f"{path}: tree file is not UTF-8 text: {exc}") from None
    return parse_edge_list(text)


def render_dot(tree: Tree, coloring: Coloring | None = None, trace: ColoringTrace | None = None) -> str:
    """Graphviz rendering: vertices filled by color index (8-entry palette,
    cycling), main-line edges drawn with penwidth 2."""
    bold = set()
    if trace is not None:
        for line in trace.main_lines:
            for u, v in zip(line.vertices, line.vertices[1:]):
                bold.add((min(u, v), max(u, v)))
    out = ["graph tree {", "  node [style=filled, shape=circle];"]
    for v in range(tree.n):
        if coloring is None or coloring.colors[v] < 0:
            out.append(f'  {v} [fillcolor="none"];')
            continue
        fill = DOT_PALETTE[coloring.colors[v] % len(DOT_PALETTE)]
        font = ', fontcolor="white"' if fill == "black" else ""
        out.append(f'  {v} [fillcolor="{fill}"{font}];')
    for u, v in tree.edges():
        attr = " [penwidth=2]" if (u, v) in bold else ""
        out.append(f"  {u} -- {v}{attr};")
    out.append("}")
    return "\n".join(out) + "\n"


def render_radius_table(c_max: int = 7, k_max: int = 16) -> str:
    """Aligned grid of ceil_fix_radius values, '-' where c > k."""
    ks = list(range(2, k_max + 1))
    lines = ["c\\k" + "".join(f"{k:>3}" for k in ks)]
    for c in range(2, c_max + 1):
        cells = []
        for k in ks:
            cells.append("-" if c > k else str(ceil_fix_radius(c, k)))
        lines.append(f"{c:<3}" + "".join(f"{cell:>3}" for cell in cells))
    return "\n".join(lines) + "\n"


def _write_or_print(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_color(args: argparse.Namespace) -> int:
    tree = read_tree(args.tree)
    k = max_valence(tree)
    trace = None
    if args.algorithm == "main":
        if args.colors is None:
            print("error: --colors is required for the main algorithm", file=sys.stderr)
            return 2
        coloring, trace = color_tree(tree, args.colors, root=args.root)
    elif args.algorithm == "near":
        coloring = color_near_distinguishing(tree)
    elif args.algorithm == "regular":
        coloring = color_regular(tree)
    elif args.algorithm == "spine":
        spine = [int(x) for x in args.spine.split(",")] if args.spine else longest_spine(tree)
        coloring = color_spine(tree, spine)
    else:  # anchored
        if args.anchor is None:
            print("error: --anchor is required for the anchored algorithm", file=sys.stderr)
            return 2
        coloring = color_anchored(tree, args.anchor)

    if args.coloring_out:
        _write_or_print(json.dumps(coloring.to_json_dict()) + "\n", args.coloring_out)
    if args.trace_out:
        payload = trace.to_json_dict() if trace is not None else {"rules": [], "main_lines": []}
        _write_or_print(json.dumps(payload) + "\n", args.trace_out)
    if args.dot_out:
        _write_or_print(render_dot(tree, coloring, trace), args.dot_out)

    report = fix_report(tree, coloring)
    c = coloring.num_colors
    r_ceil = str(ceil_fix_radius(c, k)) if c >= 2 else "-"
    fixed = sum(report.fixed)
    print(f"n={tree.n} k={k} c={c} r_ceil={r_ceil} fixed={fixed}/{tree.n}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tree = read_tree(args.tree)
    with open(args.coloring, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also covers bytes that are not UTF-8
            raise BadFormat(f"{args.coloring}: not a coloring JSON file: {exc}") from None
    coloring = Coloring.from_json_dict(data)
    if not coloring.is_total or len(coloring.colors) != tree.n:
        print("error: coloring is partial or does not match the tree", file=sys.stderr)
        return 2
    if args.report:
        print(json.dumps(fix_report(tree, coloring).to_json_dict()))
        return 0
    c = coloring.num_colors
    rep = verify_fixing_guarantee(tree, c, coloring=coloring, max_n=args.max_n)
    print(json.dumps(rep.to_json_dict()))
    return 0 if rep.passed else 1


def cmd_dnumber(args: argparse.Namespace) -> int:
    tree = read_tree(args.tree)
    max_colors = args.max_colors if args.max_colors is not None else max_valence(tree) + 1
    d = distinguishing_number(tree, max_colors, size_guard=args.size_guard)
    print(d)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    sys.stdout.write(render_radius_table(args.c_max, args.k_max))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    tree = random_tree(args.nodes, args.max_degree, args.seed)
    _write_or_print(format_edge_list(tree), args.out)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    rep = run_random_campaign(args.trials, args.n_max, args.k_max, args.seed, jobs=args.jobs)
    print(json.dumps(rep.to_json_dict()))
    print(f"elapsed: {rep.elapsed:.2f}s", file=sys.stderr)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedist",
        description="Symmetry-breaking colorings of finite trees and their verification. "
        "The TREEDIST_BUDGET environment variable overrides the automorphism "
        "enumeration budget (default 10^6).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color a tree and report how much gets fixed")
    p.add_argument("tree", help="edge-list file, or - for stdin")
    p.add_argument("-c", "--colors", type=int, help="number of colors (main algorithm)")
    p.add_argument(
        "-a",
        "--algorithm",
        choices=["main", "near", "regular", "spine", "anchored"],
        default="main",
    )
    p.add_argument("--root", type=int, default=None, help="root override (main algorithm)")
    p.add_argument("--spine", help="comma-separated spine vertices (spine algorithm)")
    p.add_argument("--anchor", type=int, help="anchor vertex (anchored algorithm)")
    p.add_argument("--coloring-out", help="write coloring JSON here")
    p.add_argument("--trace-out", help="write trace JSON here")
    p.add_argument("--dot-out", help="write Graphviz DOT here")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="verify a coloring against the fixing guarantee")
    p.add_argument("tree")
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    p.add_argument("--report", action="store_true", help="print the raw orbit report instead")
    p.add_argument("--max-n", type=int, default=MAX_ORACLE_N)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dnumber", help="exact distinguishing number")
    p.add_argument("tree")
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--size-guard", type=int, default=24)
    p.set_defaults(func=cmd_dnumber)

    p = sub.add_parser("table", help="print the radius threshold table")
    p.add_argument("--c-max", type=int, default=7)
    p.add_argument("--k-max", type=int, default=16)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("gen", help="generate a seeded random tree")
    p.add_argument("-n", "--nodes", type=int, required=True)
    p.add_argument("-k", "--max-degree", type=int, default=3)
    p.add_argument("-s", "--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("campaign", help="seeded random verification campaign")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_campaign)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TreedistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
