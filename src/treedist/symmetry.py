"""Ground-truth engine: canonical labels, automorphism enumeration, orbits.

Subtree isomorphism is decided by canonical_labels, the Aho-Hopcroft-Ullman
scheme: one height level at a time, each vertex's (color, sorted child
labels) pair is interned to a small integer, so equal labels mean isomorphic
colored rooted subtrees.  A vertex with k children costs one sort of k
integers and one dict lookup, O(n log k) for a tree of max valence k, where
nested byte codes grew with subtree size, O(n^2) on a path; the intern table
holds one level's keys at a time.  It always labels the whole rooted view:
color_tree labels the uncolored shape once and groups sibling twins by
color and shape, which suffices because no twin has a colored descendant
yet.  The byte-code builders (canonical_codes, subtree_code,
structural_codes) remain as reference oracles for the tests and the
benchmark's traced run; no library path calls one.  Every byte code tags
each vertex with a color: structural_codes is canonical_codes over the
one-color coloring.

Everything here is pure given immutable inputs, so different trees can be
processed in parallel without coordination.  fixed_vertices decides which
vertices every color-preserving automorphism fixes, from canonical labels
and one top-down pass; that is all the guarantee checks read.  fix_report
builds on the same pass and adds the orbits and the exact automorphism
count, a product over orbits; enumerate_automorphisms is a deliberately
separate search path that lists explicit permutations, so the two can be
checked against each other.  It re-verifies the permutations it finds a
batch at a time, with one set test per vertex and per edge across the whole
batch, and raises AssertionError on one that fails, which only a wrong
search can produce.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain, compress

from .errors import BadFormat, BadParams, BudgetExceeded
from .tree_core import Record, RootedView, Tree

UNCOLORED = -1

#: Default cap on explicitly enumerated automorphisms.
DEFAULT_AUT_LIMIT = 10**6


class Coloring(Record):
    """Vertex -> color map with colors in 0..num_colors-1; -1 marks uncolored."""

    __slots__ = _fields = ("num_colors", "colors")

    def __init__(self, num_colors: int, colors: tuple[int, ...]):
        if type(num_colors) is not int:
            raise BadParams(f"num_colors {num_colors!r} is not an integer")
        if num_colors < 1:
            raise BadParams("num_colors must be >= 1")
        # whole-tuple checks first; the first bad vertex is looked for only
        # when one fails.  A bool is not a color, though it is an int.
        if not set(map(type, colors)) <= {int}:
            v, c = next((v, c) for v, c in enumerate(colors) if type(c) is not int)
            raise BadParams(f"vertex {v} has color {c!r}, not an integer")
        if colors and (min(colors) < UNCOLORED or max(colors) >= num_colors):
            for v, c in enumerate(colors):
                if c != UNCOLORED and not 0 <= c < num_colors:
                    raise BadParams(f"vertex {v} has color {c}, not in 0..{num_colors - 1}")
        self.num_colors = num_colors
        self.colors = colors

    @property
    def is_total(self) -> bool:
        return UNCOLORED not in self.colors

    def to_json_dict(self) -> dict:
        return {"num_colors": self.num_colors, "colors": list(self.colors)}

    @classmethod
    def from_json_dict(cls, data: object) -> "Coloring":
        """Values are taken as they are: __init__ refuses 1.7, "1" or true.
        The coloring must be a JSON object and colors a JSON array; a string
        or an object is iterable too, as its characters or keys."""
        if type(data) is not dict:
            raise BadFormat(f"malformed coloring: the coloring must be a JSON object, not {type(data).__name__}")
        try:
            num_colors = data["num_colors"]
            colors = data["colors"]
        except KeyError as exc:
            raise BadFormat(f"malformed coloring: KeyError: {exc}") from None
        if type(colors) is not list:
            raise BadFormat(f"malformed coloring: colors must be a JSON array, not {type(colors).__name__}")
        return cls(num_colors=num_colors, colors=tuple(colors))


def canonical_labels(rv: RootedView, colors: Sequence[int]) -> list[int]:
    """Canonical integer label of the colored subtree below every vertex,
    indexed by vertex.

    Each vertex's key is its color together with the sorted labels of its
    children, and every distinct key is interned to a small integer, so two
    vertices get equal labels exactly when their rooted colored subtrees
    are isomorphic.  UNCOLORED is a color like any other.  Labels from
    different calls are unrelated.

    Only subtrees of equal height can be isomorphic, so the vertices are
    labelled one height at a time, lowest first (Aho, Hopcroft and Ullman),
    and the intern table holds one level's keys: it is emptied between
    levels, and a running base keeps every label of the call distinct.
    Each level is taken in breadth-first order, and only two levels are
    held at a time: the pass that labels the leaves collects the vertices
    of height 1, and each level yields the next as it is labelled.
    """
    order, first, stop, heights, parent = rv.order, rv.first, rv.stop, rv.heights, rv.parent
    table: dict[int | tuple[int, int] | tuple[int, tuple[int, ...]], int] = {}
    labels = [-1] * rv.n
    label_of = labels.__getitem__
    # a leaf's key is its color
    level = []
    for u in order:
        h = heights[u]
        if not h:
            labels[u] = table.setdefault(colors[u], len(table))
        elif h == 1:
            level.append(u)
    base = len(table)
    # a vertex of height h + 1 has a child of height h, and breadth-first
    # order lists parents in the order of their children, whose blocks are
    # contiguous: so the next level is the new parents of this one that
    # have height h + 1, in the order they are met.  A lone child's key is
    # its label bare, which no tuple of labels equals
    h = 1
    while level:
        table.clear()
        h += 1
        above = []
        last = None
        for u in level:
            i, j = first[u], stop[u]
            if j - i == 1:
                key = (colors[u], labels[order[i]])
            else:
                key = (colors[u], tuple(sorted(map(label_of, order[i:j]))))
            labels[u] = table.setdefault(key, base + len(table))
            p = parent[u]
            if p != last:
                last = p
                if p is not None and heights[p] == h:
                    above.append(p)
        base += len(table)
        level = above
    return labels


def _byte_codes(rv: RootedView, order: Iterable[int], colors: Sequence[int], num_colors: int) -> dict[int, bytes]:
    """Nested byte code of every vertex in `order` (children before parents):
    the vertex's color as 4 bytes (UNCOLORED as the sentinel num_colors),
    then its children's codes sorted bytewise, in parentheses."""
    codes: dict[int, bytes] = {}
    for u in order:
        tag = (num_colors if colors[u] == UNCOLORED else colors[u]).to_bytes(4, "big")
        codes[u] = b"(" + tag + b"".join(sorted(codes[w] for w in rv.children_of(u))) + b")"
    return codes


def canonical_codes(rv: RootedView, coloring: Coloring) -> list[bytes]:
    """Per-vertex canonical byte code of the colored subtree below each vertex.

    A reference oracle for canonical_labels: codes grow with subtree size, so
    no library path calls this.  Equal codes mean isomorphic colored subtrees.
    """
    codes = _byte_codes(rv, reversed(rv.order), coloring.colors, coloring.num_colors)
    return [codes[u] for u in range(rv.n)]


def subtree_code(rv: RootedView, colors: list[int], num_colors: int, u: int) -> bytes:
    """Canonical byte code of u's subtree over a raw color array (partial
    allowed); the reference oracle for the labels canonical_labels gives
    siblings."""
    return _byte_codes(rv, reversed(rv.subtree(u)), colors, num_colors)[u]


def structural_codes(rv: RootedView) -> list[bytes]:
    """Per-vertex canonical byte code of the uncolored subtree shape below
    each vertex: the codes of the one-color coloring, whose constant tag
    leaves only the shape to tell two vertices apart."""
    return canonical_codes(rv, Coloring(1, (0,) * rv.n))


class FixReport(Record):
    """Orbit partition under color-preserving automorphisms.

    fixed[v] is True exactly when v's orbit has size 1; aut_count is the
    exact order of the color-preserving automorphism group.
    """

    __slots__ = _fields = ("orbit", "fixed", "aut_count")

    def __init__(self, orbit: tuple[int, ...], fixed: tuple[bool, ...], aut_count: int):
        self.orbit = orbit
        self.fixed = fixed
        self.aut_count = aut_count

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
        raise BadParams(f"coloring covers {len(coloring.colors)} of {tree.n} vertices")
    if not coloring.is_total:
        raise BadParams("coloring has uncolored vertices")


def _fixed(rv: RootedView, labels: Sequence[int]) -> list[bool]:
    """Whether each vertex is fixed by every color-preserving automorphism,
    given the canonical labels of rv's subtrees.

    The roots are siblings below a virtual fixed vertex, so they are fixed
    unless they are the two ends of an edge center whose halves carry equal
    labels, which a swap exchanges.  Below them, one top-down pass over the
    blocks of children: a child is fixed exactly when its parent is and no
    sibling shares its label, since an automorphism fixing the parent
    permutes its children within classes of equal label, and every such
    permutation extends to one.  An unfixed parent's subtree stays unfixed.
    """
    fixed = [False] * rv.n
    order, first, stop, heights = rv.order, rv.first, rv.stop, rv.heights
    # the roots are the block of a virtual fixed vertex, None, at the head
    # of order.  A leaf's block is empty, and a lone child is fixed
    for u in chain((None,), order):
        if u is None:
            i, j = 0, len(rv.roots)
        elif fixed[u] and heights[u]:
            i, j = first[u], stop[u]
        else:
            continue
        if j - i == 1:
            fixed[order[i]] = True
            continue
        block = order[i:j]
        labs = list(map(labels.__getitem__, block))
        if len(set(labs)) == len(labs):
            for w in block:
                fixed[w] = True
        else:
            tally = Counter(labs)
            for w, label in zip(block, labs):
                fixed[w] = tally[label] == 1
    return fixed


def fixed_vertices(tree: Tree, coloring: Coloring) -> list[bool]:
    """Whether each vertex is fixed by every color-preserving automorphism of
    a total coloring: fix_report(tree, coloring).fixed, without the orbits
    and the automorphism count.  One labelling run and one top-down pass."""
    _require_total(tree, coloring)
    rv = tree.centered
    return _fixed(rv, canonical_labels(rv, coloring.colors))


def fix_report(tree: Tree, coloring: Coloring) -> FixReport:
    """Orbits, fixed set and exact automorphism count for a total coloring.

    The tree is rooted at its center.  With an edge center the two halves may
    additionally be swapped when their colored canonical labels coincide; that
    swap merges the matched orbits and doubles the count.  The fixed set is
    the one fixed_vertices computes.  The count is a product over orbits:
    (m!)^p for each orbit below an orbit of p vertices, m children apiece.
    """
    _require_total(tree, coloring)
    rv = tree.centered
    labels = canonical_labels(rv, coloring.colors)
    fixed = _fixed(rv, labels)

    # orbits are numbered in breadth-first order of their first vertex, which
    # is rv.order: the roots, then each parent's block of children in turn.
    # A fixed vertex is an orbit of its own.  Other children share an orbit
    # when their parents do and their labels coincide, which a table keyed
    # by (parent's orbit, label) finds; a fixed parent's orbit is the parent
    # alone, so its children are grouped among themselves.  An orbit is
    # complete before its vertices are visited as parents.  The roots are
    # the block of a virtual orbit -1, so the two halves a swap exchanges
    # share their orbits
    orbit = [-1] * tree.n
    count = 0  # the next orbit id
    shared: dict[tuple[int, int], int] = {}
    order, first, stop = rv.order, rv.first, rv.stop
    for u in chain((None,), order):
        o, block = (-1, rv.roots) if u is None else (orbit[u], order[first[u] : stop[u]])
        for w in block:
            if fixed[w]:
                x = count
                count += 1
            else:
                key = (o, labels[w])
                x = shared.get(key)
                if x is None:
                    shared[key] = x = count
                    count += 1
            orbit[w] = x

    # each of the p vertices of orbit o has m = size[x] / p children in the
    # shared orbit x, which an automorphism fixing it permutes freely: (m!)^p.
    # A fixed orbit and the virtual one have one vertex.  Exponents are
    # tallied per m, so no big integer is regrown per orbit
    size = Counter(compress(orbit, map(operator.not_, fixed)))
    exponents: Counter[int] = Counter()
    for (o, _), x in shared.items():
        p = size.get(o, 1)
        exponents[size[x] // p] += p
    aut = math.prod(math.factorial(m) ** e for m, e in exponents.items())
    del size, shared  # before the report's tuples, which set the peak

    return FixReport(orbit=tuple(orbit), fixed=tuple(fixed), aut_count=aut)


#: Found permutations are re-verified this many at a time, column by column.
VERIFY_BATCH = 1024


def _check_batch(tree: Tree, colors: Sequence[int], batch: list[tuple[int, ...]]) -> None:
    """Raise AssertionError unless every map of `batch` is a permutation
    that preserves colors and maps edges to edges.  zip(*batch) gives each
    vertex's images, so one set test per vertex or edge checks it in the
    whole batch."""
    if not batch:
        return
    classes: dict[int, set[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, set()).add(v)
    arcs = set(tree.arcs())
    images = list(zip(*batch))
    if not (
        set(map(len, map(set, batch))) == {len(colors)}
        and all(map(set.issuperset, map(classes.__getitem__, colors), images))
        and all(arcs.issuperset(zip(images[u], images[w])) for u, w in arcs if u < w)
    ):
        raise AssertionError("enumerate_automorphisms found a permutation that is not an automorphism")


def enumerate_automorphisms(
    tree: Tree, coloring: Coloring, limit: int = DEFAULT_AUT_LIMIT
) -> list[tuple[int, ...]]:
    """Sorted list of all color-preserving automorphisms as permutations.

    Independent of the canonical-label machinery: a backtracking search maps
    vertices in BFS order, and the permutations it finds are re-verified,
    VERIFY_BATCH at a time (see _check_batch), to be bijections that map
    edges to edges and preserve colors; a map that fails raises
    AssertionError, as only a wrong search can produce one.  Raises
    BudgetExceeded once more than `limit` permutations are found.  The cost
    is bound by the output: per permutation, a few list steps in the search
    and O(n) C-level set lookups in the check.
    """
    _require_total(tree, coloring)
    n = tree.n
    cols = coloring.colors
    # each vertex's neighbours as a tuple, which the search iterates fastest
    adjacency = [tuple(tree.neighbors(v)) for v in range(n)]
    # an image must have the same degree and color: one int holds both
    kind = [len(nbrs) + n * c for nbrs, c in zip(adjacency, cols)]
    # BFS from vertex 0: above[i] is the parent of order[i]
    order, above = [0], [0]
    seen = [False] * n
    seen[0] = True
    for u in order:
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
                above.append(u)

    # depth-first over order: level i tries the candidate images of
    # order[i] from its[i], undoing the last one first.  The BFS parent is
    # the only neighbour mapped so far, and the candidates are the
    # neighbours of its image, so that edge is kept by construction.  The
    # last vertex's image is not marked used: nothing is mapped after it.
    results: list[tuple[int, ...]] = []
    mapping = [-1] * n
    used = [False] * n
    its = [iter(range(n))] * n  # level i > 0 is set on entering it
    last = n - 1
    i = 0
    while i >= 0:
        v = order[i]
        if mapping[v] >= 0:
            used[mapping[v]] = False
        kv = kind[v]
        for w in its[i]:
            if kind[w] == kv and not used[w]:
                break
        else:
            mapping[v] = -1
            i -= 1
            continue
        mapping[v] = w
        if i < last:
            used[w] = True
            i += 1
            its[i] = iter(adjacency[mapping[above[i]]])
            continue
        results.append(tuple(mapping))
        if len(results) > limit:
            raise BudgetExceeded(f"more than {limit} automorphisms")
        if len(results) % VERIFY_BATCH == 0:
            _check_batch(tree, cols, results[-VERIFY_BATCH:])
    # the search's tuples go before the last check's arcs are built
    del adjacency, its
    _check_batch(tree, cols, results[len(results) - len(results) % VERIFY_BATCH :])
    results.sort()
    return results


def _shape_classes(rv: RootedView, shape: list[int]) -> dict[int, list[tuple[int, int]]]:
    """Each distinct shape label with its children's (shape label,
    multiplicity) pairs, in bottom-up order: every shape follows the shapes
    of its children, and last the virtual class -1, whose children are the
    center's roots.  The pairs do not depend on the number of colors, so
    they are built once, and each counting pass visits shapes, not vertices."""
    order, first, stop = rv.order, rv.first, rv.stop
    classes: dict[int, list[tuple[int, int]]] = {}
    for u in reversed(order):
        if shape[u] not in classes:
            classes[shape[u]] = list(Counter(map(shape.__getitem__, order[first[u] : stop[u]])).items())
    classes[-1] = list(Counter(map(shape.__getitem__, rv.roots)).items())
    return classes


def _distinguishing_class_counts(classes: dict[int, list[tuple[int, int]]], d: int, cap: int) -> dict[int, int]:
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
    for s, mult in classes.items():
        total = d
        for label, m in mult:
            total *= math.comb(counts[label], m)
            if total == 0:
                break
        counts[s] = min(total, cap)
    return counts


def distinguishing_number(tree: Tree, max_colors: int) -> int:
    """Smallest d <= max_colors admitting a distinguishing d-coloring.

    Decided exactly by counting distinguishing colored-subtree classes over
    sibling isomorphism classes.  The center's roots are siblings below a
    virtual vertex, so the two halves of an edge center that share a shape
    need distinct colored versions, as any two such siblings do.  A
    distinguishing d-coloring is also one with d+1 colors, so d is found by
    galloping (1, 2, 4, ... up to max_colors) and then bisecting: O(log D)
    counting passes, where a scan over d would cost D passes (D = n-1 on a
    star).  Each pass is linear in the number of distinct shapes and their
    child classes, not in n.
    """
    if max_colors < 1:
        raise BadParams("max_colors must be >= 1")
    rv = tree.centered
    shape = canonical_labels(rv, bytes(tree.n))
    classes = _shape_classes(rv, shape)
    del shape
    cap = tree.n + 2

    def distinguishes(d: int) -> bool:
        return _distinguishing_class_counts(classes, d, cap)[-1] >= 1

    # invariant: no distinguishing coloring with `fails` colors; `hi` is the
    # next candidate
    fails, hi = 0, 1
    while not distinguishes(hi):
        if hi == max_colors:
            raise BadParams(f"no distinguishing coloring with <= {max_colors} colors")
        fails, hi = hi, min(2 * hi, max_colors)
    while hi - fails > 1:
        mid = (fails + hi) // 2
        if distinguishes(mid):
            hi = mid
        else:
            fails = mid
    return hi
