"""Ground-truth engine: canonical labels, automorphism enumeration, orbits.

Subtree isomorphism is decided by canonical_labels, the Aho-Hopcroft-Ullman
scheme: bottom-up, each vertex's (color, sorted child labels) pair is interned
to a small integer, so equal labels mean isomorphic colored rooted subtrees.
A vertex with k children costs one sort of k integers and one dict lookup,
O(n log k) for a tree of max valence k, where nested byte codes grew with
subtree size, O(n^2) on a path.  Those byte-code builders (canonical_codes,
subtree_code, structural_codes) remain as reference oracles for the tests;
only color_regular, whose sibling order is defined by the bytewise order of
structural codes, still calls one.

Everything here is pure given immutable inputs, so different trees can be
processed in parallel without coordination.  fix_report computes orbits and
the exact automorphism count from canonical labels alone;
enumerate_automorphisms is a deliberately separate search path that lists
explicit permutations, so the two can be checked against each other.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import count

from .errors import (
    BadFormat,
    BadParams,
    LimitExceeded,
    NotFoundWithinMax,
    PartialColoring,
    SearchBudgetExceeded,
)
from .tree_core import RootedView, Tree

UNCOLORED = -1

#: Default cap on explicitly enumerated automorphisms; the TREEDIST_BUDGET
#: environment variable overrides it.
DEFAULT_AUT_LIMIT = 10**6


def oracle_budget() -> int:
    raw = os.environ.get("TREEDIST_BUDGET")
    if raw is None:
        return DEFAULT_AUT_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise BadParams(f"TREEDIST_BUDGET must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color map with colors in 0..num_colors-1; -1 marks uncolored."""

    num_colors: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.num_colors < 1:
            raise BadParams("num_colors must be >= 1")
        for v, c in enumerate(self.colors):
            if c != UNCOLORED and not 0 <= c < self.num_colors:
                raise BadParams(f"vertex {v} has color {c}, not in 0..{self.num_colors - 1}")

    @property
    def is_total(self) -> bool:
        return UNCOLORED not in self.colors

    def to_json_dict(self) -> dict:
        return {"num_colors": self.num_colors, "colors": list(self.colors)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Coloring":
        try:
            num_colors = int(data["num_colors"])
            colors = tuple(int(c) for c in data["colors"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BadFormat(f"malformed coloring: {type(exc).__name__}: {exc}") from None
        return cls(num_colors=num_colors, colors=colors)


def canonical_labels(
    rv: RootedView, colors: Sequence[int], tops: Sequence[int] | None = None
) -> list[int]:
    """Canonical integer label of the colored subtree below each vertex of `tops`.

    Labels are assigned bottom-up: each vertex's key is its color together
    with the sorted labels of its children, and every distinct key is interned
    to the next small integer.  The intern table is shared by all vertices of
    one call, so two of them get equal labels exactly when their rooted
    colored subtrees are isomorphic.  UNCOLORED is a color like any other.
    Without `tops` every vertex is labelled and the result is indexed by
    vertex; with `tops` only their subtrees are visited and the result
    follows the order of `tops`.  Labels from different calls are unrelated.
    """
    table: dict[tuple[int, tuple[int, ...]], int] = {}
    children = rv.children
    if tops is None:
        labels: list[int] | dict[int, int] = [0] * rv.tree.n
        order: Iterable[int] = reversed(rv.order)
    else:
        labels = {}
        # every vertex is listed before its descendants, so reversed() puts
        # children first
        listed: list[int] = []
        stack = list(tops)
        while stack:
            u = stack.pop()
            listed.append(u)
            stack.extend(children[u])
        order = reversed(listed)
    for u in order:
        key = (colors[u], tuple(sorted([labels[w] for w in children[u]])))
        labels[u] = table.setdefault(key, len(table))
    if tops is None:
        return labels
    return [labels[t] for t in tops]


def _byte_codes(
    rv: RootedView, order: Iterable[int], colors: Sequence[int] | None = None, num_colors: int = 0
) -> dict[int, bytes]:
    """Nested byte code of every vertex in `order` (children before parents):
    the vertex's color as 4 bytes (none when `colors` is None; UNCOLORED as
    the sentinel num_colors), then its children's codes sorted bytewise, in
    parentheses."""
    codes: dict[int, bytes] = {}
    for u in order:
        if colors is None:
            tag = b""
        else:
            tag = (num_colors if colors[u] == UNCOLORED else colors[u]).to_bytes(4, "big")
        codes[u] = b"(" + tag + b"".join(sorted(codes[w] for w in rv.children[u])) + b")"
    return codes


def canonical_codes(rv: RootedView, coloring: Coloring) -> list[bytes]:
    """Per-vertex canonical byte code of the colored subtree below each vertex.

    A reference oracle for canonical_labels: codes grow with subtree size, so
    no library path calls this.  Equal codes mean isomorphic colored subtrees.
    """
    codes = _byte_codes(rv, reversed(rv.order), coloring.colors, coloring.num_colors)
    return [codes[u] for u in range(rv.tree.n)]


def subtree_code(rv: RootedView, colors: list[int], num_colors: int, u: int) -> bytes:
    """Canonical byte code of u's subtree over a raw color array (partial
    allowed); the reference oracle for canonical_labels with `tops`."""
    return _byte_codes(rv, reversed(rv.subtree(u)), colors, num_colors)[u]


def structural_codes(rv: RootedView) -> list[bytes]:
    """Per-vertex canonical byte code of the uncolored subtree shape below
    each vertex.  color_regular orders siblings by these codes bytewise."""
    codes = _byte_codes(rv, reversed(rv.order))
    return [codes[u] for u in range(rv.tree.n)]


@dataclass(frozen=True)
class FixReport:
    """Orbit partition under color-preserving automorphisms.

    fixed[v] is True exactly when v's orbit has size 1; aut_count is the
    exact order of the color-preserving automorphism group.
    """

    orbit: tuple[int, ...]
    fixed: tuple[bool, ...]
    aut_count: int

    def fixed_set(self) -> set[int]:
        return {v for v, f in enumerate(self.fixed) if f}

    def unfixed_set(self) -> set[int]:
        return {v for v, f in enumerate(self.fixed) if not f}

    def to_json_dict(self) -> dict:
        return {
            "aut_count": self.aut_count,
            "orbit": list(self.orbit),
            "fixed": list(self.fixed),
        }


def _require_total(tree: Tree, coloring: Coloring) -> None:
    if len(coloring.colors) != tree.n:
        raise PartialColoring(f"coloring covers {len(coloring.colors)} of {tree.n} vertices")
    if not coloring.is_total:
        raise PartialColoring("coloring has uncolored vertices")


def fix_report(tree: Tree, coloring: Coloring) -> FixReport:
    """Orbits, fixed set and exact automorphism count for a total coloring.

    The tree is rooted at its center.  With an edge center the two halves may
    additionally be swapped when their colored canonical labels coincide; that
    swap merges the matched orbits and doubles the count.
    """
    _require_total(tree, coloring)
    rv = tree.centered
    labels = canonical_labels(rv, coloring.colors)

    aut = 1
    for u in range(tree.n):
        mult: dict[int, int] = {}
        for w in rv.children[u]:
            mult[labels[w]] = mult.get(labels[w], 0) + 1
        for m in mult.values():
            aut *= math.factorial(m)

    swap = len(rv.roots) == 2 and labels[rv.roots[0]] == labels[rv.roots[1]]
    if swap:
        aut *= 2

    orbit = [-1] * tree.n
    ids = count()
    if swap:
        shared = next(ids)
        orbit[rv.roots[0]] = shared
        orbit[rv.roots[1]] = shared
    else:
        for r in rv.roots:
            orbit[r] = next(ids)
    # depth order guarantees parents are labelled first; vertices merge when
    # their parents share an orbit and their labels coincide
    groups: dict[tuple[int, int], int] = {}
    for u in rv.order:
        if orbit[u] >= 0:
            continue
        key = (orbit[rv.parent[u]], labels[u])
        if key not in groups:
            groups[key] = next(ids)
        orbit[u] = groups[key]

    sizes: dict[int, int] = {}
    for o in orbit:
        sizes[o] = sizes.get(o, 0) + 1
    fixed = tuple(sizes[orbit[v]] == 1 for v in range(tree.n))
    return FixReport(orbit=tuple(orbit), fixed=fixed, aut_count=aut)


def enumerate_automorphisms(
    tree: Tree, coloring: Coloring, limit: int | None = None
) -> list[tuple[int, ...]]:
    """Explicit list of all color-preserving automorphisms as permutations.

    Independent of the canonical-label machinery: a backtracking search maps
    vertices in BFS order, and every produced permutation is re-verified to
    map edges to edges and preserve colors.  Raises LimitExceeded once more
    than `limit` permutations are found (default: the oracle budget).
    """
    _require_total(tree, coloring)
    if limit is None:
        limit = oracle_budget()
    n = tree.n
    cols = coloring.colors
    order: list[int] = []
    bfs_parent: list[int | None] = [None] * n
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in tree.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                bfs_parent[w] = u
                queue.append(w)

    results: list[tuple[int, ...]] = []
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> None:
        if i == len(order):
            perm = tuple(mapping)
            for u in range(n):
                if cols[perm[u]] != cols[u]:
                    return
                for w in tree.adjacency[u]:
                    if perm[w] not in tree.adjacency[perm[u]]:
                        return
            results.append(perm)
            if len(results) > limit:
                raise LimitExceeded(f"more than {limit} automorphisms")
            return
        v = order[i]
        p = bfs_parent[v]
        if p is None:
            candidates = range(n)
        else:
            candidates = tree.adjacency[mapping[p]]
        dv, cv = tree.degree(v), cols[v]
        for w in candidates:
            if used[w] or tree.degree(w) != dv or cols[w] != cv:
                continue
            ok = True
            for x in tree.adjacency[v]:
                if mapping[x] >= 0 and mapping[x] not in tree.adjacency[w]:
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            extend(i + 1)
            mapping[v] = -1
            used[w] = False

    extend(0)
    return sorted(results)


def is_distinguishing(tree: Tree, coloring: Coloring) -> bool:
    """True iff only the identity preserves the coloring."""
    return fix_report(tree, coloring).aut_count == 1


def unfixed_vertices(tree: Tree, coloring: Coloring) -> set[int]:
    """Vertices moved by some color-preserving automorphism."""
    return fix_report(tree, coloring).unfixed_set()


def _distinguishing_class_counts(rv: RootedView, shape: list[int], d: int, cap: int) -> dict[int, int]:
    """Number of isomorphism classes of distinguishing d-colorings of each
    rooted subtree shape, keyed by shape label and capped at `cap` (a
    threshold-safe ceiling).

    A coloring of a rooted subtree is distinguishing when, within every
    isomorphism class of sibling subtrees, the colored versions hung below are
    pairwise non-isomorphic and each is itself distinguishing.  The counts only
    ever feed "are there at least m classes" questions with m <= cap-1, so
    capping keeps the integers small without changing any comparison.
    Shapes are counted bottom-up, once each, so depth costs no recursion.
    """
    counts: dict[int, int] = {}
    for u in reversed(rv.order):
        if shape[u] in counts:
            continue
        mult: dict[int, int] = {}
        for w in rv.children[u]:
            mult[shape[w]] = mult.get(shape[w], 0) + 1
        total = d
        for label, m in mult.items():
            total *= math.comb(min(counts[label], cap), m)
            if total == 0:
                break
        counts[shape[u]] = min(total, cap)
    return counts


def distinguishing_number(tree: Tree, max_colors: int, size_guard: int = 24) -> int:
    """Smallest d <= max_colors admitting a distinguishing d-coloring.

    Decided exactly by counting distinguishing colored-subtree classes over
    sibling isomorphism classes, rooted at the center; an edge center needs
    two distinct colored halves when the halves are isomorphic as shapes.
    """
    if max_colors < 1:
        raise BadParams("max_colors must be >= 1")
    if tree.n > size_guard:
        raise SearchBudgetExceeded(f"n={tree.n} exceeds size guard {size_guard}")
    rv = tree.centered
    shape = canonical_labels(rv, [0] * tree.n)
    cap = tree.n + 2
    for d in range(1, max_colors + 1):
        counts = _distinguishing_class_counts(rv, shape, d, cap)
        if len(rv.roots) == 1:
            ok = counts[shape[rv.roots[0]]] >= 1
        else:
            a, b = rv.roots
            if shape[a] == shape[b]:
                ok = counts[shape[a]] >= 2
            else:
                ok = counts[shape[a]] >= 1 and counts[shape[b]] >= 1
        if ok:
            return d
    raise NotFoundWithinMax(f"no distinguishing coloring with <= {max_colors} colors")
