"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's canonical-code machinery:
brute_force_automorphisms filters raw permutations, bfs_dist is a plain BFS,
and prufer_tree enumerates labeled trees directly, so library results are
checked against genuinely separate computations.  The reference_* functions
are the straightforward versions of the parser, validator and rooting that the
library's tuned versions must match exactly, errors included.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations
from pathlib import Path

from treedist import Coloring, Tree, parse_edge_list, tree_from_edges
from treedist.errors import BadFormat, NonContiguousIds, NotATree

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> Tree:
    return parse_edge_list((FIXTURES / f"{name}.tree").read_text())


def path_tree(n: int) -> Tree:
    return tree_from_edges([(i, i + 1) for i in range(n - 1)], n=n)


def star_tree(leaves: int) -> Tree:
    return tree_from_edges([(0, i) for i in range(1, leaves + 1)], n=leaves + 1)


def complete_tree(k: int, depth: int) -> Tree:
    """Every internal vertex has valence k, all leaves at the given depth."""
    edges = []
    nxt = 1
    frontier = [0]
    for d in range(depth):
        new = []
        for v in frontier:
            for _ in range(k if d == 0 else k - 1):
                edges.append((v, nxt))
                new.append(nxt)
                nxt += 1
        frontier = new
    return tree_from_edges(edges, n=nxt)


def brute_force_automorphisms(tree: Tree, coloring: Coloring) -> list[tuple[int, ...]]:
    """All color-preserving automorphisms by filtering every permutation.

    Only usable for small n; completely independent of the library's search.
    """
    n = tree.n
    edge_set = {(u, v) for u in range(n) for v in tree.adjacency[u]}
    cols = coloring.colors
    out = []
    for perm in permutations(range(n)):
        if any(cols[perm[v]] != cols[v] for v in range(n)):
            continue
        if any((perm[u], perm[v]) not in edge_set for (u, v) in edge_set):
            continue
        out.append(perm)
    return out


def bfs_dist(tree: Tree, src: int) -> list[int]:
    dist = [-1] * tree.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in tree.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def prufer_tree(seq: tuple[int, ...], n: int) -> Tree:
    """Labeled tree on 0..n-1 from a Prufer sequence (length n-2)."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return tree_from_edges(edges, n=n)


def all_labeled_trees(n: int) -> list[Tree]:
    """Every labeled tree on 0..n-1 (n^(n-2) of them via Prufer sequences)."""
    if n == 1:
        return [tree_from_edges([], n=1)]
    if n == 2:
        return [tree_from_edges([(0, 1)], n=2)]
    from itertools import product

    return [prufer_tree(seq, n) for seq in product(range(n), repeat=n - 2)]


def reference_tree_from_edges(edges: list[tuple[int, int]], n: int | None = None) -> Tree:
    """tree_from_edges as first written: every check in one pass per edge."""
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


def reference_parse_edge_list(text: str) -> Tree:
    """parse_edge_list as first written: every line stripped, then split."""
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
    return reference_tree_from_edges(edges, n=declared_n)


def reference_view_fields(tree: Tree, roots: tuple[int, ...]) -> dict:
    """The fields of RootedView(tree, roots) as first computed: a deque BFS
    that skips the edge between two roots explicitly, and heights as the
    maximum over children."""
    roots = tuple(sorted(roots))
    n = tree.n
    root_set = set(roots)
    parent: list[int | None] = [None] * n
    depth = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []
    queue = deque(roots)
    for r in roots:
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
    return {
        "roots": roots,
        "parent": tuple(parent),
        "depth": tuple(depth),
        "children": tuple(tuple(c) for c in children),
        "order": tuple(order),
        "heights": tuple(heights),
    }
