"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's canonical-code machinery:
brute_force_automorphisms filters raw permutations, bfs_dist is a plain BFS
(reference_longest_spine runs two), and prufer_tree enumerates labeled
trees directly, so library results are checked against genuinely separate
computations.  The reference_* functions
are the straightforward versions of the parser, validator, center and rooting
that the library's tuned versions must match exactly, errors included;
reference_orbits is fix_report's orbit numbering as first written, and
reference_random_tree is random_tree's randrange loop.

reference_distinguishing_number is the plain scan over d = 1, 2, 3, ... that
the library's galloping search must match, its BadParams included.

reference_enumerate_automorphisms is the automorphism search that re-verifies
each permutation on its own as it is found; the library's batched
re-verification must return the same list and raise BudgetExceeded at the
same limits.

reference_radius keeps the fixing threshold in its exact log form (a kind,
plus base, argument and offset), which the library's integer fix_radius must
decide identically.  RADIUS_TABLE, radius_bound and paired_class_minimax are
further reference values and bounds that only the tests consult.
"""

from __future__ import annotations

import functools
import gc
import math
import random
import tracemalloc
from collections import deque
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

from treedist import (
    CampaignReport,
    Coloring,
    Failure,
    Tree,
    canonical_labels,
    fix_radius,
    parse_edge_list,
    random_tree,
    tree_from_edges,
)
from treedist.errors import BadFormat, BadParams, BudgetExceeded, NotATree
from treedist.symmetry import DEFAULT_AUT_LIMIT, _require_total

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@functools.cache
def memory_probe_tree() -> Tree:
    """The tree the peak-memory tests measure on, built once per test run."""
    return random_tree(20000, 8, 0)


def traced_peak(step):
    """Run step() under tracemalloc: its result, the peak of the memory it
    allocated, and how much of that it keeps (alive in the result).  A full
    collection first empties the interpreter's free lists, so every object
    step() makes is a traced allocation whatever ran before it."""
    gc.collect()
    tracemalloc.start()
    try:
        result = step()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, kept


def load_fixture(name: str) -> Tree:
    return parse_edge_list((FIXTURES / f"{name}.tree").read_text())


def path_tree(n: int) -> Tree:
    return tree_from_edges([(i, i + 1) for i in range(n - 1)], n=n)


def star_tree(leaves: int) -> Tree:
    return tree_from_edges([(0, i) for i in range(1, leaves + 1)], n=leaves + 1)


def caterpillar_tree(spine: int, legs: int) -> Tree:
    """A path of `spine` vertices, each carrying `legs` pendant leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for s in range(spine):
        for _ in range(legs):
            edges.append((s, nxt))
            nxt += 1
    return tree_from_edges(edges, n=nxt)


def binary_tree(depth: int) -> Tree:
    """Complete binary tree: every internal vertex has two children, all
    leaves at the given depth; 2^(2^depth - 1) automorphisms."""
    n = 2 ** (depth + 1) - 1
    return tree_from_edges([((v - 1) // 2, v) for v in range(1, n)], n=n)


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


def edges(tree: Tree) -> list[tuple[int, int]]:
    """All edges as (u, v) with u < v, sorted."""
    return [(u, v) for u in range(tree.n) for v in tree.adjacency[u] if u < v]


def reference_longest_spine(tree: Tree) -> list[int]:
    """longest_spine from two plain BFS passes: a is the vertex farthest
    from 0, b the one farthest from a (smallest id on ties), and the path
    runs from a to b."""
    if tree.n == 1:
        return [0]

    def farthest(dist: list[int]) -> int:
        return max(range(tree.n), key=lambda v: (dist[v], -v))

    a = farthest(bfs_dist(tree, 0))
    dist = bfs_dist(tree, a)
    path = [farthest(dist)]
    while path[-1] != a:
        path.append(next(w for w in tree.adjacency[path[-1]] if dist[w] == dist[path[-1]] - 1))
    return path[::-1]


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
    if n is not None and n < 1:
        raise NotATree(f"vertex count {n}; a tree has at least 1 vertex")
    ids = set()
    for u, v in edges:
        if u < 0 or v < 0:
            raise NotATree(f"negative vertex id in edge ({u}, {v})")
        ids.add(u)
        ids.add(v)
    max_id = max(ids, default=-1)
    if ids and len(ids) != max_id + 1:
        # the first five ids in the gaps below the sorted present ids: no
        # set of every id up to max_id, which may be 10^30
        present = sorted(ids)
        missing: list[int] = []
        for a, b in zip([-1, *present], present):
            missing.extend(range(a + 1, min(b, a + 6)))
        raise NotATree(f"vertex ids missing from edge list: {missing[:5]}")
    if n is None:
        if max_id < 0:
            raise NotATree("empty edge list with no vertex count")
        n = max_id + 1
    if max_id >= n:
        raise NotATree(f"vertex id {max_id} exceeds declared count {n}")
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
                if declared_n < 1:
                    raise BadFormat(f"line {lineno}: vertex count must be at least 1 in {line!r}")
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


def reference_center(tree: Tree) -> tuple[int, ...]:
    """center as first written: leaf peeling over a degree list, on its own,
    after the tree is built."""
    n = tree.n
    if n <= 2:
        return tuple(range(n))
    deg = list(map(len, tree.adjacency))
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
    return tuple(sorted(layer))


def reference_random_tree(n: int, max_degree: int, seed: int) -> Tree:
    """random_tree as first written: each parent drawn with
    random.Random(seed).randrange(v), redrawn while it is at the degree cap;
    the library draws the same values from getrandbits directly."""
    rng = random.Random(seed)
    deg = [0] * n
    edges = []
    for v in range(1, n):
        while True:
            p = rng.randrange(v)
            if deg[p] < max_degree:
                break
        deg[p] += 1
        deg[v] += 1
        edges.append((p, v))
    return tree_from_edges(edges, n=n)


def spider_tree(legs: int, length: int) -> Tree:
    """`legs` paths of `length` edges each, joined at vertex 0."""
    edges = []
    for leg in range(legs):
        prev = 0
        for i in range(length):
            v = 1 + leg * length + i
            edges.append((prev, v))
            prev = v
    return tree_from_edges(edges, n=1 + legs * length)


def view_children(rv) -> tuple[tuple[int, ...], ...]:
    """Each vertex's children in rv, as the ascending tuples a RootedView
    once kept: every vertex but a root listed under its parent."""
    children: list[list[int]] = [[] for _ in range(rv.n)]
    for v, p in enumerate(rv.parent):
        if p is not None:
            children[p].append(v)
    return tuple(map(tuple, children))


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


def reference_orbits(rv, labels: list[int]) -> tuple[int, ...]:
    """fix_report's orbit ids as first computed: every child keyed by its
    parent's orbit and its label, in one table for unfixed parents and in a
    fresh one per fixed parent, leaves included."""
    orbit = [-1] * rv.n
    sizes: list[int] = []
    if len(rv.roots) == 2 and labels[rv.roots[0]] == labels[rv.roots[1]]:
        orbit[rv.roots[0]] = orbit[rv.roots[1]] = 0
        sizes.append(2)
    else:
        for r in rv.roots:
            orbit[r] = len(sizes)
            sizes.append(1)
    shared: dict[tuple[int, int], int] = {}
    children = view_children(rv)
    for u in rv.order:
        o = orbit[u]
        groups = shared if sizes[o] > 1 else {}
        for w in children[u]:
            key = (o, labels[w])
            x = groups.get(key)
            if x is None:
                groups[key] = x = len(sizes)
                sizes.append(1)
            else:
                sizes[x] += 1
            orbit[w] = x
    return tuple(orbit)


@dataclass(frozen=True)
class ReferenceRadius:
    """Exact leaf-distance threshold: 0, 1, or log_base(argument) + offset.

    kind is "zero", "one" or "log".  The log case stores the base, the
    integer argument of the logarithm and an additive offset (1 only when
    base == 2), so the threshold is held exactly rather than as a float.
    """

    kind: str
    base: int = 0
    argument: int = 0
    offset: int = 0

    def admits(self, depth: int) -> bool:
        """True iff an integer distance `depth` meets the threshold; the log
        case is decided as base**(depth - offset) >= argument."""
        if self.kind == "zero":
            return True
        if self.kind == "one":
            return depth >= 1
        if depth < self.offset:
            return False
        return self.base ** (depth - self.offset) >= self.argument


def reference_radius(num_colors: int, max_degree: int) -> ReferenceRadius:
    """The threshold behind fix_radius(num_colors, max_degree), in exact form:
    zero for paths or at least max_degree colors, one with max_degree - 1
    colors, else log_c(max{3, ceil((k-2)/(c-1))}), with argument k-2 and an
    extra +1 offset in the two-color case."""
    c, k = num_colors, max_degree
    if c < 2:
        raise BadParams("need at least 2 colors")
    if k < 0:
        raise BadParams("max_degree must be >= 0")
    if k <= 2 or c >= k:
        return ReferenceRadius("zero")
    if c == k - 1:
        return ReferenceRadius("one")
    if c == 2:
        return ReferenceRadius("log", base=2, argument=max(3, k - 2), offset=1)
    argument = max(3, -((k - 2) // -(c - 1)))
    return ReferenceRadius("log", base=c, argument=argument, offset=0)


def reference_admits(num_colors: int, max_degree: int, depth: int) -> bool:
    return reference_radius(num_colors, max_degree).admits(depth)


def radius_bound(num_colors: int, max_degree: int) -> int:
    """Smallest integer r with k <= 2**(r-1) (c = 2) or k <= c**r * (c-1) + 2
    (c > 2); 0 when c = k and 1 when c = k - 1.

    This is the coarser closed-form bound; it dominates fix_radius
    everywhere both are defined.
    """
    c, k = num_colors, max_degree
    if c < 2 or c > k:
        raise BadParams(f"need 2 <= colors <= max_degree, got ({c}, {k})")
    if c == k:
        return 0
    if c == k - 1:
        return 1
    if c == 2:
        r = 1
        while k > 2 ** (r - 1):
            r += 1
        return r
    r = 0
    while k > c**r * (c - 1) + 2:
        r += 1
    return r


#: Reference grid of fix_radius values, rows by color count c = 2..7,
#: columns by max valence k = 2..16; None where c > k.  Transcribed once and
#: cross-checked against the formula by reference_radius_table_check.
RADIUS_TABLE: dict[int, tuple[int | None, ...]] = {
    2: (0, 1, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5),
    3: (None, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2),
    4: (None, None, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2),
    5: (None, None, None, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    6: (None, None, None, None, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    7: (None, None, None, None, None, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1),
}
RADIUS_TABLE_K = range(2, 17)


def reference_radius_table_check() -> CampaignReport:
    """Compare fix_radius against every defined entry of RADIUS_TABLE."""
    trials = 0
    failures = []
    for c, row in RADIUS_TABLE.items():
        for k, expected in zip(RADIUS_TABLE_K, row):
            if expected is None:
                continue
            trials += 1
            actual = fix_radius(c, k)
            if actual != expected:
                failures.append(
                    Failure(
                        seed=None,
                        n=0,
                        k=k,
                        c=c,
                        prop="radius_table",
                        witness={"expected": expected, "actual": actual},
                    )
                )
    return CampaignReport(trials=trials, failures=failures)


def paired_class_minimax(slots: int, colors: int) -> int:
    """Exhaustive minimum, over all colorings of `slots` sibling slots with at
    most `colors` colors in which every used color appears at least twice, of
    the largest color class.

    Enumerates all partitions of `slots` into at most `colors` parts of size
    >= 2 (color identities are interchangeable, so partitions cover every
    coloring) and takes the smallest maximum part.
    """
    if slots < 2:
        raise BadParams("need at least 2 slots for the pair constraint")
    if colors < 1:
        raise BadParams("need at least 1 color")
    best: int | None = None

    def descend(remaining: int, cap: int, used: int, largest: int) -> None:
        nonlocal best
        if remaining == 0:
            best = largest if best is None else min(best, largest)
            return
        if used == colors or remaining < 2:
            return
        for part in range(min(cap, remaining), 1, -1):
            descend(remaining - part, part, used + 1, max(largest, part))

    descend(slots, slots, 0, 0)
    assert best is not None
    return best


def reference_class_counts(rv, shape: list[int], d: int, cap: int) -> dict[int, int]:
    """The distinguishing class count of each shape for d colors, capped at
    `cap`, as first written: a walk over every vertex that rebuilds each
    shape's child multiplicities on every pass."""
    counts: dict[int, int] = {}
    children = view_children(rv)
    for u in reversed(rv.order):
        if shape[u] in counts:
            continue
        mult: dict[int, int] = {}
        for w in children[u]:
            mult[shape[w]] = mult.get(shape[w], 0) + 1
        total = d
        for label, m in mult.items():
            total *= math.comb(min(counts[label], cap), m)
            if total == 0:
                break
        counts[shape[u]] = min(total, cap)
    return counts


def reference_distinguishing_number(tree: Tree, max_colors: int) -> int:
    """distinguishing_number as first written: one counting pass per d, for
    d = 1, 2, ..., max_colors, so D passes in all (D = n-1 on a star)."""
    if max_colors < 1:
        raise BadParams("max_colors must be >= 1")
    rv = tree.centered
    shape = canonical_labels(rv, [0] * tree.n)
    cap = tree.n + 2
    for d in range(1, max_colors + 1):
        counts = reference_class_counts(rv, shape, d, cap)
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
    raise BadParams(f"no distinguishing coloring with <= {max_colors} colors")


def reference_enumerate_automorphisms(
    tree: Tree, coloring: Coloring, limit: int = DEFAULT_AUT_LIMIT
) -> list[tuple[int, ...]]:
    """The same BFS-order search as enumerate_automorphisms, with every
    already-mapped neighbour tested in the loop and each permutation
    re-verified on its own as it is found (one that fails is dropped)."""
    _require_total(tree, coloring)
    n = tree.n
    cols = coloring.colors
    adjacency = tree.adjacency
    degree = [len(nbrs) for nbrs in adjacency]
    order = [0]
    bfs_parent: list[int | None] = [None] * n
    seen = [False] * n
    seen[0] = True
    for u in order:
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                bfs_parent[w] = u
                order.append(w)

    def preserved(perm: tuple[int, ...]) -> bool:
        for u in range(n):
            if cols[perm[u]] != cols[u]:
                return False
            image = adjacency[perm[u]]
            for w in adjacency[u]:
                if perm[w] not in image:
                    return False
        return True

    results: list[tuple[int, ...]] = []
    mapping = [-1] * n
    used = [False] * n
    stack = [iter(range(n))]
    while stack:
        i = len(stack) - 1
        v = order[i]
        if mapping[v] >= 0:
            used[mapping[v]] = False
            mapping[v] = -1
        dv, cv, around = degree[v], cols[v], adjacency[v]
        for w in stack[i]:
            if used[w] or degree[w] != dv or cols[w] != cv:
                continue
            image = adjacency[w]
            for x in around:
                if mapping[x] >= 0 and mapping[x] not in image:
                    break
            else:
                break
        else:
            stack.pop()
            continue
        mapping[v] = w
        used[w] = True
        if i + 1 < n:
            stack.append(iter(adjacency[mapping[bfs_parent[order[i + 1]]]]))
        elif preserved(perm := tuple(mapping)):
            results.append(perm)
            if len(results) > limit:
                raise BudgetExceeded(f"more than {limit} automorphisms")
    return sorted(results)
