"""Tree representation and the structural queries everything else consumes.

A Tree is two flat arrays of machine ints: every vertex's neighbours, one
ascending block per vertex, and the n+1 offsets of those blocks.  Vertices
are exactly 0..n-1, and only this module reads the arrays; the rest of the
library asks Tree.neighbors, Tree.degree, Tree.arcs and Tree.edges.  A
RootedView adds parent, order, heights and depth indexing from one root (or
from the two endpoints of an edge center, each rooting its own half), keeps
each vertex's children as one block of its breadth-first order, and is
likewise immutable, so both types are safe to share across threads.  Every
Tree carries its center-rooted view, Tree.centered, built on first use and
then shared by all callers; the view is a deterministic function of the
tree, so building it twice yields equal views and sharing stays safe.
RootedView.heights holds each vertex's subtree height, the integer that
callers compare with the fixing threshold fix_radius.

A tree is validated by leaf peeling: with exactly n-1 edges the graph is a
tree when repeatedly removing every leaf removes all vertices.  The same
peel yields the center (the last layer), which the Tree caches, so no tree
is peeled twice.  random_tree cannot make anything but a tree, so it is
peeled only when its center is asked for.  Every RootedView, at the center
or elsewhere, checks its roots and is built by one breadth-first loop over
the neighbour blocks and one bottom-up pass for the heights.
"""

from __future__ import annotations

import json
import random
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import sub

from .errors import BadFormat, BadParams, NotATree


class Record:
    """Value semantics for a plain class: equality, hash and repr over the
    attributes named in _fields, as a frozen dataclass gives them.  The
    library's result types use it instead of dataclasses, whose import pulls
    inspect, dis, ast and tokenize into every CLI run, about a megabyte."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({inner})"


class Tree(Record):
    """Undirected tree on vertices 0..n-1, as two arrays of machine ints
    (typecode "i"): nbrs holds the 2(n-1) neighbours, each vertex's block
    ascending, and offsets the n+1 ends of the blocks, so v's neighbours
    are nbrs[offsets[v]:offsets[v + 1]]."""

    _fields = ("n", "nbrs", "offsets")

    def __init__(self, n: int, nbrs: array, offsets: array):
        self.n = n
        self.nbrs = nbrs
        self.offsets = offsets

    def __hash__(self):
        # an array has no hash; its bytes do
        return hash((self.n, self.nbrs.tobytes(), self.offsets.tobytes()))

    def neighbors(self, v: int) -> array:
        """v's neighbours, ascending, as a new array."""
        offsets = self.offsets
        return self.nbrs[offsets[v] : offsets[v + 1]]

    def degree(self, v: int) -> int:
        offsets = self.offsets
        return offsets[v + 1] - offsets[v]

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Every edge in both directions, as (u, v) for each neighbour v of
        u, in ascending order."""
        offsets = self.offsets
        heads = map(repeat, range(self.n), map(sub, islice(offsets, 1, None), offsets))
        return zip(chain.from_iterable(heads), self.nbrs)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once, as (u, v) with u < v, in ascending order."""
        return ((u, v) for u, v in self.arcs() if u < v)

    @cached_property
    def _center(self) -> tuple[int, ...]:
        """The center, peeled on first use; a tree whose validation peeled
        it is handed that peel's center instead."""
        found = _peel(self.nbrs, self.offsets)
        if found is None:
            raise NotATree("leaf peeling stalls: the graph has a cycle or is disconnected")
        return found

    @cached_property
    def centered(self) -> RootedView:
        """The tree rooted at its center, built on first use and then shared.

        cached_property stores the center and the view in the instance
        __dict__, so the fields, equality, hash and repr are untouched.
        center and root_at are called through this module's globals, so a
        wrapper rebound on either name (as the benchmark's traced run does)
        sees the call.
        """
        return root_at(self, center(self))


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise BadParams(f"vertex {v} not in 0..{n - 1}")


def tree_from_edges(edges: Iterable[tuple[int, int]], n: int | None = None) -> Tree:
    """Build and validate a Tree from an edge list.

    Vertex ids must be exactly 0..n-1; n defaults to max id + 1 (or the
    explicit argument, required for the single-vertex tree).
    """
    return _tree_from_ends(list(chain.from_iterable(edges)), n)


def _tree_from_ends(ends: Sequence[int], n: int | None) -> Tree:
    """tree_from_edges on the edges' ends laid out flat: edge i joins
    ends[2i] and ends[2i+1].  parse_edge_list fills an array of machine
    ints, so no int object is kept per end.  The Tree caches the center
    that the validating peel found."""
    m = len(ends) // 2
    if n is not None and n < 1:
        raise NotATree(f"vertex count {n}; a tree has at least 1 vertex")
    if ends and min(ends) < 0:
        i = next(i for i, x in enumerate(ends) if x < 0) & ~1
        raise NotATree(f"negative vertex id in edge ({ends[i]}, {ends[i + 1]})")
    max_id = max(ends, default=-1)
    # deg[v] counts v's ends, and its running sums are the offsets.  The
    # ids are contiguous when every one of 0..max_id has an end; a max_id
    # of 2*m or more rules that out before anything is allocated in the
    # largest id, however short the input
    if max_id < 2 * m:
        deg = [0] * (max_id + 1)
        for x in ends:
            deg[x] += 1
    if max_id >= 2 * m or 0 in deg:
        # from the gaps between present ids, for the same reason
        present = sorted(set(ends))
        gaps = (range(a + 1, b) for a, b in zip([-1, *present], present))
        missing = list(islice(chain.from_iterable(gaps), 5))
        raise NotATree(f"vertex ids missing from edge list: {missing}")
    if n is None:
        if max_id < 0:
            raise NotATree("empty edge list with no vertex count")
        n = max_id + 1
    if max_id >= n:
        raise NotATree(f"vertex id {max_id} exceeds declared count {n}")
    if m != n - 1:
        raise NotATree(f"{m} edges for {n} vertices; a tree needs {n - 1}")
    deg.extend(repeat(0, n - 1 - max_id))
    offsets = array("i", accumulate(deg, initial=0))
    del deg
    nbrs = _blocks(islice(ends, 0, None, 2), islice(ends, 1, None, 2), offsets)
    # a block is in edge order: two entries are put in order by one
    # comparison, more by a sort
    for i, j in zip(offsets, islice(offsets, 1, None)):
        if j - i == 2:
            v = nbrs[i]
            if v > nbrs[i + 1]:
                nbrs[i] = nbrs[i + 1]
                nbrs[i + 1] = v
        elif j - i > 2:
            nbrs[i:j] = array("i", sorted(nbrs[i:j]))

    # with n-1 edges, peeling removes every vertex exactly when the graph is
    # a tree
    found = _peel(nbrs, offsets)
    if found is None:
        # n-1 edges with a self-loop or a repeated edge cannot connect n
        # vertices, so these are looked for only here; the first in edge
        # order is reported, self-loop before repeat
        seen = set()
        it = iter(ends)
        for u, v in zip(it, it):
            if u == v:
                raise NotATree(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise NotATree(f"duplicate edge {key}")
            seen.add(key)
        reached = bytearray(n)
        reached[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for w in nbrs[offsets[u] : offsets[u + 1]]:
                if not reached[w]:
                    reached[w] = 1
                    count += 1
                    stack.append(w)
        raise NotATree(f"disconnected: {count} of {n} vertices reachable from 0")
    tree = Tree(n, nbrs, offsets)
    tree._center = found
    return tree


def _blocks(us: Iterable[int], vs: Iterable[int], offsets: array) -> array:
    """The neighbour array of the edges (us[i], vs[i]), with each vertex's
    block, as offsets bounds it, filled in edge order."""
    nbrs = array("i", [0]) * offsets[-1]
    fill = offsets[:-1]  # each block's next free slot
    for u, v in zip(us, vs):
        i = fill[u]
        nbrs[i] = v
        fill[u] = i + 1
        i = fill[v]
        nbrs[i] = u
        fill[v] = i + 1
    return nbrs


def _peel(nbrs: array, offsets: array) -> tuple[int, ...] | None:
    """Remove every leaf, round after round, until one vertex or one edge
    is left: the center, returned as a sorted tuple.  None when a round
    finds no leaf: with n-1 edges, exactly when the graph is not a tree."""
    n = len(offsets) - 1
    if n <= 1:
        return tuple(range(n))
    deg = list(map(sub, islice(offsets, 1, None), offsets))
    layer = [v for v, d in enumerate(deg) if d == 1]
    removed = len(layer)
    while removed < n:
        nxt: list[int] = []
        for u in layer:
            deg[u] = 0
            # a leaf has one neighbour left, however many it had: the
            # first of its block that is not removed, looked for without
            # a slice
            i = offsets[u]
            w = nbrs[i]
            if not deg[w]:
                i += 1
                j = offsets[u + 1]
                while i < j:
                    w = nbrs[i]
                    if deg[w]:
                        break
                    i += 1
                else:
                    continue
            d = deg[w] - 1
            deg[w] = d
            if d == 1:
                nxt.append(w)
        if not nxt:
            return None
        removed += len(nxt)
        layer = nxt
    return tuple(sorted(layer))


#: The text that format_edge_list, `treedist gen` and the benchmark write:
#: an optional "# n=K" first line, then "u v" lines of ASCII digits, one
#: space between, each ending in a newline.  The ids have no leading zero
#: and at most 18 digits, so each is a JSON number that fits a machine int.
#: The lines repeat possessively: a backtracking repeat would keep a state
#: per line.
_ID = "(?:0|[1-9][0-9]{0,17})"
_CANONICAL = rf"(?:# n=([1-9][0-9]{{0,17}})\n)?(?:{_ID} {_ID}\n)*+"
#: Canonical text is converted this many characters at a time, cut at a
#: newline, so the whole text is never split at once.
_CHUNK = 1 << 16
#: Turns a chunk of canonical lines into the body of a JSON array.
_TO_JSON = str.maketrans(" \n", ",,")


def parse_edge_list(text: str) -> Tree:
    """Parse the plain edge-list format: one "u v" pair per line.

    Blank lines and '#' comments are ignored, except that a comment of the
    form "# n=K" pins the vertex count (the only way to express the
    single-vertex tree, which has no edges); K must be an integer of at
    least 1.  Canonical text (see _CANONICAL) is proved so by one regular
    expression match and converted in bulk, as JSON; any other text is read
    line by line, with the same result.
    """
    match = re.fullmatch(_CANONICAL, text)
    if match is not None:
        ends = array("q")
        head = match.group(1)
        pos = match.end(1) + 1 if head else 0
        while pos < len(text):
            cut = text.rfind("\n", pos, pos + _CHUNK) + 1 if pos + _CHUNK < len(text) else len(text)
            ends.fromlist(json.loads("[" + text[pos : cut - 1].translate(_TO_JSON) + "]"))
            pos = cut
        return _tree_from_ends(ends, int(head) if head else None)
    ends = array("q")
    append = ends.append
    declared_n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0][0] == "#":
            line = raw.strip()
            body = line[1:].strip()
            if body.startswith("n="):
                try:
                    declared_n = int(body[2:])
                except ValueError:
                    raise BadFormat(f"line {lineno}: vertex count is not an integer in {line!r}") from None
                if declared_n < 1:
                    raise BadFormat(f"line {lineno}: vertex count must be at least 1 in {line!r}")
            continue
        if len(parts) != 2:
            raise BadFormat(f"line {lineno}: expected 'u v', got {raw.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadFormat(f"line {lineno}: non-integer token in {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise BadFormat(f"line {lineno}: negative vertex id in {raw.strip()!r}")
        try:
            append(u)
            append(v)
        except OverflowError:
            # an id of 2^63 or more, which the builder reports as leaving
            # ids missing: from here on a list holds the ends, whole pairs
            ends = ends.tolist()[: len(ends) & ~1]
            append = ends.append
            append(u)
            append(v)
    return _tree_from_ends(ends, declared_n)


def edge_list_lines(tree: Tree) -> Iterator[str]:
    """The lines of format_edge_list, each ending in a newline; `treedist
    gen` writes them as they are made, so the whole text is never held."""
    yield f"# n={tree.n}\n"
    for u, v in tree.edges():
        yield f"{u} {v}\n"


def format_edge_list(tree: Tree) -> str:
    """Serialize a Tree to the edge-list format (with a "# n=K" header)."""
    return "".join(edge_list_lines(tree))


def max_valence(tree: Tree) -> int:
    """Largest vertex degree (0 for the single-vertex tree)."""
    offsets = tree.offsets
    return max(map(sub, islice(offsets, 1, None), offsets))


def fix_radius(num_colors: int, max_degree: int) -> int:
    """Least subtree height at which color_tree fixes a vertex, with
    num_colors colors on a tree of max valence max_degree.

    Zero when the tree is a path or there are at least max_degree colors;
    one when exactly max_degree - 1 colors are available; otherwise the
    least integer at or above log_c(max{3, ceil((k-2)/(c-1))}), plus one in
    the two-color case.  Every use compares the threshold with an integer
    height, so this smallest admitted integer decides exactly what the log
    form decides; it is found by exact integer powers, without floats.
    """
    c, k = num_colors, max_degree
    if c < 2:
        raise BadParams("need at least 2 colors")
    if k < 0:
        raise BadParams("max_degree must be >= 0")
    if k <= 2 or c >= k:
        return 0
    if c == k - 1:
        return 1
    argument = max(3, -((k - 2) // -(c - 1)))
    radius = 1 if c == 2 else 0
    power = 1
    while power < argument:
        power *= c
        radius += 1
    return radius


def center(tree: Tree) -> tuple[int, ...]:
    """Center by repeated leaf peeling: the sorted tuple of the one vertex or
    the two endpoints of the one edge that remain.  A Tree built by
    tree_from_edges or parse_edge_list was peeled when it was validated;
    any other, random_tree's included, is peeled on its first call.
    Either way the tree caches the center."""
    return tree._center


class RootedView:
    """A Tree indexed from its root(s): parent, order, heights, first and
    stop, and depth on demand.

    With an edge center both endpoints sit at depth 0, the edge between
    them carries no parent/child relation, and each endpoint roots its own
    half.  u's children, its neighbours but its parent and, at an edge
    center, the other root, are the block order[first[u]:stop[u]], ascending
    by vertex id; every traversal in the library derives its determinism
    from that ordering.  The blocks tile order after the roots, and a leaf's
    is empty.  heights[u] is the greatest distance from u to a leaf of its
    own subtree, 0 exactly when u has no children.

    One breadth-first loop over the tree's neighbour blocks builds every
    view, and one bottom-up pass its heights.  The roots must be vertices of
    the tree, checked in the order given, and one vertex or the two ends of
    an edge: the loop follows edges only.  A view keeps its tree's vertex
    count n and nothing else of the tree, so Tree.centered forms no
    reference cycle and reference counting frees a tree and its view as
    soon as the last caller drops it.
    """

    def __init__(self, tree: Tree, roots: tuple[int, ...]):
        self.n = n = tree.n
        for r in roots:
            _check_vertex(r, n)
        self.roots = ends = tuple(sorted(roots))
        if len(ends) not in (1, 2) or len(ends) == 2 and ends[1] not in tree.neighbors(ends[0]):
            raise BadParams(f"roots {tuple(roots)} are neither one vertex nor the two ends of an edge")
        nbrs, offsets = tree.nbrs, tree.offsets
        parent: list[int | None] = [None] * n
        # breadth-first: order doubles as the queue; a vertex's children are
        # its neighbours but its parent, and each child's parent is set as it
        # is enqueued.  Each end of a central edge starts with the other as
        # its parent, so the edge between them is left out too
        if len(ends) == 2:
            a, b = ends
            parent[a], parent[b] = b, a
        # u's children are enqueued as one block; a leaf's stays 0:0, empty
        first = array("i", [0]) * n
        stop = array("i", [0]) * n
        order = list(ends)
        for u in order:
            i, j = offsets[u], offsets[u + 1]
            p = parent[u]
            if p is None:
                block = nbrs[i:j]
            elif j - i == 1:
                continue
            elif j - i == 2:
                # a lone child, enqueued without a slice
                w = nbrs[i]
                if w == p:
                    w = nbrs[i + 1]
                parent[w] = u
                k = len(order)
                first[u] = k
                stop[u] = k + 1
                order.append(w)
                continue
            else:
                block = nbrs[i:j]
                block.remove(p)
            for w in block:
                parent[w] = u
            first[u] = len(order)
            order.extend(block)
            stop[u] = len(order)
        for r in ends:
            parent[r] = None
        heights = [0] * n
        for u in reversed(order):
            p = parent[u]
            if p is not None and heights[p] <= heights[u]:
                heights[p] = heights[u] + 1
        # one list at a time becomes its tuple and is dropped
        self.parent = tuple(parent)
        del parent
        self.order = tuple(order)
        del order
        self.heights = tuple(heights)
        self.first = first
        self.stop = stop

    @cached_property
    def depth(self) -> tuple[int, ...]:
        """Each vertex's distance from its root, built on first access;
        only longest_spine reads it, so no other view pays for it."""
        depth = [0] * self.n
        parent = self.parent
        for u in islice(self.order, len(self.roots), None):
            depth[u] = depth[parent[u]] + 1
        return tuple(depth)

    def children_of(self, u: int) -> list[int]:
        """u's children, ascending: its block of order, as a new list."""
        return list(self.order[self.first[u] : self.stop[u]])

    def subtree(self, u: int) -> list[int]:
        """u together with all of its descendants, in preorder."""
        _check_vertex(u, self.n)
        order, first, stop = self.order, self.first, self.stop
        out = []
        stack = [u]
        while stack:
            x = stack.pop()
            out.append(x)
            stack.extend(reversed(order[first[x] : stop[x]]))
        return out


def root_at(tree: Tree, root: int | tuple[int, ...]) -> RootedView:
    """Root the tree at a vertex, or at a center as returned by center():
    one vertex, or the two ends of an edge."""
    return RootedView(tree, (root,) if isinstance(root, int) else root)


def random_tree(n: int, max_degree: int, seed: int) -> Tree:
    """Deterministic random tree: attach each new vertex to a uniformly drawn
    earlier vertex, rejecting parents already at the degree cap.

    A parent below v is drawn as random.Random(seed).randrange(v) draws it,
    bit_length(v) random bits at a time until the value is below v, so the
    trees are those of that randrange loop; the draw is written out, so they
    do not change if randrange's own algorithm does.
    """
    if n < 1:
        raise BadParams("n must be >= 1")
    if n >= 3 and max_degree < 2:
        raise BadParams(f"no tree on {n} vertices with max degree {max_degree}")
    if n == 2 and max_degree < 1:
        raise BadParams("an edge needs degree 1 at both ends")
    getrandbits = random.Random(seed).getrandbits
    # deg counts each vertex's edge to its parent from the start, as no
    # vertex is drawn before it is attached.  A parent precedes its
    # children, so with the edges (parent[v], v) taken in the order they
    # are drawn every block fills in ascending order
    deg = [0] + [1] * (n - 1)
    parent = [0] * n
    for v in range(1, n):
        bits = v.bit_length()
        p = getrandbits(bits)
        while p >= v or deg[p] >= max_degree:
            p = getrandbits(bits)
        deg[p] += 1
        parent[v] = p
    offsets = array("i", accumulate(deg, initial=0))
    del deg
    return Tree(n, _blocks(islice(parent, 1, None), range(1, n), offsets), offsets)
