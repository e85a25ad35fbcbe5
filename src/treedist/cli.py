"""Command-line front end.

Subcommands: color, verify, dnumber, table, gen, campaign.  Exit codes:
0 success, 1 verification failure, 2 usage/parse/parameter errors.  No
subcommand caps the tree size.  All payload outputs (edge lists,
coloring/trace JSON, DOT, campaign JSON) are deterministic given the flags;
nothing embeds timestamps, and campaign's run time goes to stderr.

Each cmd_* function imports the layers it runs, so a process compiles only
those: table and gen need only tree_core, verify and dnumber skip the
colorings, and color skips the verifier.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Iterable, Iterator
from itertools import islice

from .errors import BadFormat, BadParams, TreedistError
from .tree_core import Tree, fix_radius, max_valence, parse_edge_list

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only; color imports both modules itself
    from .coloring import ColoringTrace
    from .symmetry import Coloring

#: List elements joined into one string at a time when writing JSON.
JSON_BATCH = 4096
DOT_PALETTE = ("white", "black", "gray", "lightblue", "orange", "palegreen", "plum", "khaki")


def read_tree(path: str) -> Tree:
    try:
        if path == "-":
            if sys.stdin is None:  # started with its standard input closed
                raise BadFormat("-: standard input is closed")
            # the raw bytes, decoded strictly: the interpreter's own stdin
            # decoder may be lenient (surrogateescape under a C/POSIX locale)
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise BadFormat(f"{path}: tree file is not UTF-8 text: {exc}") from None
    return parse_edge_list(text)


def _dot_lines(tree: Tree, coloring: Coloring, trace: ColoringTrace) -> Iterator[str]:
    """Graphviz rendering, one line at a time, each ending in a newline:
    vertices filled by color index (8-entry palette, cycling), main-line
    edges drawn with penwidth 2 (only the main algorithm's trace has any).
    cmd_color writes the lines as they are made, so the whole text is never
    held at once.  Every -a algorithm colors every vertex, so each color
    indexes the palette."""
    bold = set()
    for line in trace.main_lines:
        for u, v in zip(line, line[1:]):
            bold.add((min(u, v), max(u, v)))
    yield "graph tree {\n"
    yield "  node [style=filled, shape=circle];\n"
    # the attributes of each color in use are written once, not once per
    # vertex; num_colors may be far larger than the colors used
    attrs = {}
    for c in set(coloring.colors):
        fill = DOT_PALETTE[c % len(DOT_PALETTE)]
        font = ', fontcolor="white"' if fill == "black" else ""
        attrs[c] = f' [fillcolor="{fill}"{font}];\n'
    for v, attr in enumerate(map(attrs.__getitem__, coloring.colors)):
        yield f"  {v}{attr}"
    for u, v in tree.edges():
        attr = " [penwidth=2]" if bold and (u, v) in bold else ""
        yield f"  {u} -- {v}{attr};\n"
    yield "}\n"


def render_radius_table(c_max: int = 7, k_max: int = 16) -> str:
    """Aligned grid of fix_radius values, '-' where c > k."""
    if c_max < 2 or k_max < 2:
        raise BadParams(f"the table needs c_max >= 2 and k_max >= 2, got {c_max} and {k_max}")
    ks = list(range(2, k_max + 1))
    lines = ["c\\k" + "".join(f"{k:>3}" for k in ks)]
    for c in range(2, c_max + 1):
        cells = []
        for k in ks:
            cells.append("-" if c > k else str(fix_radius(c, k)))
        lines.append(f"{c:<3}" + "".join(f"{cell:>3}" for cell in cells))
    return "\n".join(lines) + "\n"


def _json_pieces(payload: dict) -> Iterator[str]:
    """The text of json.dumps(payload) + "\n", in pieces.  A list of ints
    and strings is written from one encoded chunk per distinct value, joined
    with ", " a batch at a time: json.dumps would make a new string for every
    element, n of them for a per-vertex list of colors or rule tags."""
    yield "{"
    sep = ""
    for key, value in payload.items():
        yield f"{sep}{json.dumps(key)}: "
        sep = ", "
        if type(value) is list and set(map(type, value)) <= {int, str}:
            chunk = {x: json.dumps(x) for x in set(value)}
            encoded = map(chunk.__getitem__, value)
            yield "[" + ", ".join(islice(encoded, JSON_BATCH))
            while batch := ", ".join(islice(encoded, JSON_BATCH)):
                yield ", " + batch
            yield "]"
        else:
            yield json.dumps(value)
    yield "}\n"


def _write_or_print(lines: Iterable[str], path: str | None) -> None:
    if path is None or path == "-":
        if sys.stdout is None:  # started with its standard output closed
            raise OSError("standard output is closed")
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def cmd_color(args: argparse.Namespace) -> int:
    from .coloring import ColoringTrace, color_anchored, color_near_distinguishing, color_regular
    from .coloring import color_spine, color_tree
    from .symmetry import fixed_vertices

    tree = read_tree(args.tree)
    k = max_valence(tree)
    trace = ColoringTrace([])  # only the main algorithm fills one in
    if args.algorithm == "main":
        if args.colors is None:
            raise BadParams("--colors is required for the main algorithm")
        coloring, trace = color_tree(tree, args.colors)
    elif args.algorithm == "near":
        coloring = color_near_distinguishing(tree)
    elif args.algorithm == "regular":
        coloring = color_regular(tree)
    elif args.algorithm == "spine":
        spine = None  # the longest spine
        if args.spine:
            try:
                spine = [int(x) for x in args.spine.split(",")]
            except ValueError:
                raise BadFormat(f"--spine must be comma-separated vertex ids, got {args.spine!r}") from None
        coloring = color_spine(tree, spine)
    else:  # anchored
        if args.anchor is None:
            raise BadParams("--anchor is required for the anchored algorithm")
        coloring = color_anchored(tree, args.anchor)

    if args.coloring_out:
        _write_or_print(_json_pieces(coloring.to_json_dict()), args.coloring_out)
    if args.trace_out:
        _write_or_print(_json_pieces(trace.to_json_dict()), args.trace_out)
    if args.dot_out:
        _write_or_print(_dot_lines(tree, coloring, trace), args.dot_out)

    c = coloring.num_colors
    r_ceil = str(fix_radius(c, k)) if c >= 2 else "-"
    fixed = sum(fixed_vertices(tree, coloring))
    print(f"n={tree.n} k={k} c={c} r_ceil={r_ceil} fixed={fixed}/{tree.n}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .symmetry import Coloring, fix_report

    tree = read_tree(args.tree)
    with open(args.coloring, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
            raise BadFormat(f"{args.coloring}: not a coloring JSON file: {exc}") from None
    coloring = Coloring.from_json_dict(data)
    if args.report:
        report = fix_report(tree, coloring).to_json_dict()
        # the count is printed in full, past the interpreter's cap on the
        # digits of an int written as text (0 is no cap); the cap comes back
        # after, as main also runs inside other programs
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = json.dumps(report)
        finally:
            sys.set_int_max_str_digits(cap)
        print(text)
        return 0
    from .verifier import verify_fixing_guarantee

    rep = verify_fixing_guarantee(tree, coloring)
    print(json.dumps(rep.to_json_dict()))
    return 0 if rep.passed else 1


def cmd_dnumber(args: argparse.Namespace) -> int:
    from .symmetry import distinguishing_number

    tree = read_tree(args.tree)
    max_colors = args.max_colors if args.max_colors is not None else max_valence(tree) + 1
    d = distinguishing_number(tree, max_colors)
    print(d)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    _write_or_print([render_radius_table(args.c_max, args.k_max)], None)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .tree_core import edge_list_lines, random_tree

    tree = random_tree(args.nodes, args.max_degree, args.seed)
    _write_or_print(edge_list_lines(tree), args.out)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .verifier import run_random_campaign

    start = time.perf_counter()
    rep = run_random_campaign(args.trials, args.n_max, args.k_max, args.seed, jobs=args.jobs)
    seconds = time.perf_counter() - start
    print(json.dumps(rep.to_json_dict()))
    print(f"elapsed: {seconds:.2f}s", file=sys.stderr)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedist",
        description="Symmetry-breaking colorings of finite trees and their verification. "
        "No subcommand caps the tree size or spends an enumeration budget.",
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
    # ignored, as is dnumber's --size-guard; deleted once ROADMAP item 6 drops both from the benchmark
    p.add_argument("--max-n", type=int, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dnumber", help="exact distinguishing number")
    p.add_argument("tree")
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--size-guard", type=int, help=argparse.SUPPRESS)
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
    except (TreedistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
