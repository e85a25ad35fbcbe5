"""Tree representation and the structural queries everything else consumes.

Trees are immutable: vertices are exactly 0..n-1, adjacency lists are sorted
tuples.  A RootedView adds parent/depth/children indexing from one root (or
from the two endpoints of an edge center, each rooting its own half) and is
likewise immutable, so both types are safe to share across threads.  Every
Tree carries its center-rooted view, Tree.centered, built on first use and
then shared by all callers; the view is a deterministic function of the
tree, so building it twice yields equal views and sharing stays safe.

Distance thresholds are kept in exact form (FixRadius) and compared with
integer exponentiation only; no floats are involved anywhere, so boundaries
that fall exactly on powers of the base are classified correctly.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import (
    BadFormat,
    InfeasibleParams,
    NonContiguousIds,
    NotATree,
    VertexOutOfRange,
)


@dataclass(frozen=True)
class Tree:
    """Undirected tree on vertices 0..n-1 with sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def is_leaf(self, v: int) -> bool:
        return len(self.adjacency[v]) == 1

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{self.n - 1}")

    @cached_property
    def centered(self) -> RootedView:
        """The tree rooted at its center, built on first use and then shared.

        cached_property stores the view in the instance __dict__, so the
        dataclass fields, equality, hash and repr are untouched.  center and
        root_at are called through this module's globals, so a wrapper rebound
        on either name (as the benchmark's traced run does) sees the call.
        """
        return root_at(self, center(self))


class CenterKind(Enum):
    VERTEX = "vertex"
    EDGE = "edge"


@dataclass(frozen=True)
class CenterLocus:
    """Center of a tree: a single vertex or the two endpoints of a central edge."""

    kind: CenterKind
    vertices: tuple[int, ...]


class RadiusKind(Enum):
    ZERO = "zero"
    ONE = "one"
    LOG = "log"


@dataclass(frozen=True)
class FixRadius:
    """Exact leaf-distance threshold: 0, 1, or log_base(argument) + offset.

    The LOG case stores the base, the integer argument of the logarithm and
    an additive offset (1 only when base == 2), so the threshold is held
    exactly rather than as a float.
    """

    kind: RadiusKind
    base: int = 0
    argument: int = 0
    offset: int = 0

    def admits(self, depth: int) -> bool:
        """True iff an integer distance `depth` meets the threshold.

        LOG case: depth >= log_base(argument) + offset, decided as
        base**(depth - offset) >= argument in exact integer arithmetic.
        """
        if self.kind is RadiusKind.ZERO:
            return True
        if self.kind is RadiusKind.ONE:
            return depth >= 1
        if depth < self.offset:
            return False
        return self.base ** (depth - self.offset) >= self.argument

    def ceil(self) -> int:
        """Smallest integer distance admitted by the threshold."""
        if self.kind is RadiusKind.ZERO:
            return 0
        if self.kind is RadiusKind.ONE:
            return 1
        e = 0
        power = 1
        while power < self.argument:
            power *= self.base
            e += 1
        return e + self.offset


def tree_from_edges(edges: list[tuple[int, int]], n: int | None = None) -> Tree:
    """Build and validate a Tree from an edge list.

    Vertex ids must be exactly 0..n-1; n defaults to max id + 1 (or the
    explicit argument, required for the single-vertex tree).
    """
    ids = set()
    for u, v in edges:
        if u < 0 or v < 0:
            raise NonContiguousIds(f"negative vertex id in edge ({u}, {v})")
        ids.add(u)
        ids.add(v)
    max_id = max(ids, default=-1)
    if ids and len(ids) != max_id + 1:
        missing = sorted(set(range(max_id + 1)) - ids)
        raise NonContiguousIds(f"vertex ids missing from edge list: {missing[:5]}")
    if n is None:
        if max_id < 0:
            raise NotATree("empty edge list with no vertex count")
        n = max_id + 1
    if max_id >= n:
        raise NonContiguousIds(f"vertex id {max_id} exceeds declared count {n}")
    if len(edges) != n - 1:
        raise NotATree(f"{len(edges)} edges for {n} vertices; a tree needs {n - 1}")

    adj: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if u == v:
            raise NotATree(f"self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise NotATree(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)

    # edge count is n-1, so connectivity from 0 implies tree and id coverage
    reached = [False] * n
    reached[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not reached[w]:
                reached[w] = True
                count += 1
                queue.append(w)
    if count != n:
        raise NotATree(f"disconnected: {count} of {n} vertices reachable from 0")

    return Tree(n=n, adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj))


def parse_edge_list(text: str) -> Tree:
    """Parse the plain edge-list format: one "u v" pair per line.

    Blank lines and '#' comments are ignored, except that a comment of the
    form "# n=K" pins the vertex count (the only way to express the
    single-vertex tree, which has no edges); K must be an integer.
    """
    edges: list[tuple[int, int]] = []
    declared_n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                try:
                    declared_n = int(body[2:])
                except ValueError:
                    raise BadFormat(f"line {lineno}: vertex count is not an integer in {line!r}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BadFormat(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadFormat(f"line {lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise BadFormat(f"line {lineno}: negative vertex id in {line!r}")
        edges.append((u, v))
    return tree_from_edges(edges, n=declared_n)


def format_edge_list(tree: Tree) -> str:
    """Serialize a Tree to the edge-list format (with a "# n=K" header)."""
    lines = [f"# n={tree.n}"]
    lines.extend(f"{u} {v}" for u, v in tree.edges())
    return "\n".join(lines) + "\n"


def max_valence(tree: Tree) -> int:
    """Largest vertex degree (0 for the single-vertex tree)."""
    return max(len(nbrs) for nbrs in tree.adjacency)


def center(tree: Tree) -> CenterLocus:
    """Center by repeated leaf peeling: one vertex or one edge remains."""
    n = tree.n
    if n == 1:
        return CenterLocus(CenterKind.VERTEX, (0,))
    if n == 2:
        return CenterLocus(CenterKind.EDGE, (0, 1))
    deg = [tree.degree(v) for v in range(n)]
    layer = [v for v in range(n) if deg[v] == 1]
    removed = len(layer)
    while removed < n:
        nxt: list[int] = []
        for u in layer:
            deg[u] = 0
            for w in tree.adjacency[u]:
                if deg[w] > 0:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        removed += len(nxt)
        layer = nxt
    remaining = tuple(sorted(layer))
    if len(remaining) == 1:
        return CenterLocus(CenterKind.VERTEX, remaining)
    return CenterLocus(CenterKind.EDGE, remaining)


class RootedView:
    """A Tree indexed from its root(s): parent, depth, children, heights.

    With an edge-center locus both endpoints sit at depth 0, the edge between
    them carries no parent/child relation, and each endpoint roots its own
    half.  Children lists are ascending by vertex id; every traversal in the
    library derives its determinism from that ordering.  heights[u] is the
    greatest distance from u to a leaf of its own subtree, 0 at leaves.
    """

    def __init__(self, tree: Tree, roots: tuple[int, ...]):
        self.tree = tree
        self.roots = tuple(sorted(roots))
        n = tree.n
        root_set = set(self.roots)
        parent: list[int | None] = [None] * n
        depth = [-1] * n
        children: list[list[int]] = [[] for _ in range(n)]
        order: list[int] = []
        queue = deque(self.roots)
        for r in self.roots:
            depth[r] = 0
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in tree.adjacency[u]:
                if depth[w] >= 0:
                    continue
                if u in root_set and w in root_set:
                    continue
                depth[w] = depth[u] + 1
                parent[w] = u
                children[u].append(w)
                queue.append(w)
        heights = [0] * n
        for u in reversed(order):
            if children[u]:
                heights[u] = 1 + max(heights[w] for w in children[u])
        self.parent = tuple(parent)
        self.depth = tuple(depth)
        self.children = tuple(tuple(c) for c in children)
        self.order = tuple(order)
        self.heights = tuple(heights)

    def subtree(self, u: int) -> list[int]:
        """u together with all of its descendants, in preorder."""
        self.tree.check_vertex(u)
        out = [u]
        stack = list(reversed(self.children[u]))
        while stack:
            w = stack.pop()
            out.append(w)
            stack.extend(reversed(self.children[w]))
        return out


def root_at(tree: Tree, locus: CenterLocus | int) -> RootedView:
    """Root the tree at a CenterLocus or at an explicit vertex."""
    if isinstance(locus, CenterLocus):
        roots = locus.vertices
    else:
        roots = (locus,)
    for r in roots:
        tree.check_vertex(r)
    return RootedView(tree, roots)


def random_tree(n: int, max_degree: int, seed: int) -> Tree:
    """Deterministic random tree: attach each new vertex to a uniformly drawn
    earlier vertex, rejecting parents already at the degree cap."""
    if n < 1:
        raise InfeasibleParams("n must be >= 1")
    if n >= 3 and max_degree < 2:
        raise InfeasibleParams(f"no tree on {n} vertices with max degree {max_degree}")
    if n == 2 and max_degree < 1:
        raise InfeasibleParams("an edge needs degree 1 at both ends")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    deg = [0] * n
    for v in range(1, n):
        while True:
            p = rng.randrange(v)
            if deg[p] < max_degree:
                break
        deg[p] += 1
        deg[v] += 1
        edges.append((p, v))
    return tree_from_edges(edges, n=n)
