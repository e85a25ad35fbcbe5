"""Seeded tree generators for the benchmark.

The benchmark builds its inputs here, independently of the program under
test, so a change to treedist's own generator cannot change what is measured.
Every tree is returned as (n, edges) with vertex ids relabelled by a seeded
random permutation and the edge order shuffled, the way an arbitrary input
file would arrive.
"""

from __future__ import annotations

import random

Edges = list[tuple[int, int]]


def random_recursive(n: int, max_degree: int, rng: random.Random) -> Edges:
    """Attach each new vertex to a uniformly drawn earlier vertex whose degree
    is still below the cap (the random recursive model treedist also uses)."""
    deg = [0] * n
    edges: Edges = []
    for v in range(1, n):
        while True:
            p = rng.randrange(v)
            if deg[p] < max_degree:
                break
        deg[p] += 1
        deg[v] += 1
        edges.append((p, v))
    return edges


def path(n: int) -> Edges:
    return [(i, i + 1) for i in range(n - 1)]


def caterpillar(spine: int, legs: int) -> Edges:
    """A path of `spine` vertices, each carrying `legs` pendant leaves."""
    edges = path(spine)
    nxt = spine
    for s in range(spine):
        for _ in range(legs):
            edges.append((s, nxt))
            nxt += 1
    return edges


def spider(legs: int, length: int) -> Edges:
    """`legs` paths of `length` vertices glued at one centre vertex."""
    edges: Edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges


def complete(arity: int, depth: int, root_branches: int | None = None) -> Edges:
    """Complete tree: every internal vertex has `arity` children, all leaves at
    `depth`; `root_branches` keeps only that many subtrees of the root."""
    edges: Edges = []
    frontier = [0]
    nxt = 1
    for d in range(depth):
        new = []
        for v in frontier:
            for _ in range(root_branches if d == 0 and root_branches else arity):
                edges.append((v, nxt))
                new.append(nxt)
                nxt += 1
        frontier = new
    return edges


def hub(copies: int, sub: Edges) -> Edges:
    """`copies` disjoint copies of the rooted tree `sub` (root 0) with their
    roots joined to one new hub vertex."""
    size = len(sub) + 1
    edges: Edges = []
    for i in range(copies):
        base = 1 + i * size
        edges.append((0, base))
        edges.extend((base + u, base + v) for u, v in sub)
    return edges


def relabel(edges: Edges, rng: random.Random) -> tuple[int, Edges]:
    """Apply a random vertex permutation, edge order and endpoint order."""
    n = len(edges) + 1
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return n, out


def edge_list_text(n: int, edges: Edges) -> str:
    """The plain edge-list file format, with the "# n=K" header."""
    lines = [f"# n={n}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def max_degree(n: int, edges: Edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg)
