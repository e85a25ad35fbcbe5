"""Constructive colorings that pin down vertices far enough from the leaves.

The central entry point is color_tree: given c colors and a tree of maximum
valence k it produces a coloring under which every color-preserving
automorphism fixes all vertices u whose subtree contains a leaf at distance
at least fix_radius(c, k) from u.  Sibling groups that would otherwise be
interchangeable are separated by "main lines": along a deepest descent from
each group member, the next fix_radius(c, k) vertices receive the digits of
the member's group index written least-significant-first in base c, so
distinct members read distinct digit strings.

All functions here are pure and deterministic: ties are broken by ascending
vertex id everywhere, so repeated runs are byte-identical.
"""

from __future__ import annotations

from itertools import islice

from .errors import BadParams
from .symmetry import UNCOLORED, Coloring, canonical_labels
from .tree_core import Record, RootedView, Tree, _check_vertex, fix_radius, max_valence, root_at


def balanced_colors(count: int, palette: list[int], pairs_required: bool = False) -> list[int]:
    """Deterministic assignment of `count` sibling slots to palette colors.

    Without pairs_required the slots simply cycle through the palette, so the
    largest class has ceil(count/|palette|) members.  With pairs_required every
    used color appears at least twice: the slots are split over
    min(|palette|, count // 2) colors into classes as even as possible (each of
    size >= 2), emitted two at a time per color and then one at a time, which
    keeps the largest class at max{2 or 3 by parity, ceil(count/|palette|)} --
    the least possible under the pair constraint.
    """
    if count < 1:
        raise BadParams("count must be >= 1")
    if not palette:
        raise BadParams("palette must be nonempty")
    if not pairs_required:
        return [palette[i % len(palette)] for i in range(count)]
    if count < 2:
        raise BadParams("pairs_required needs at least 2 slots")
    used = min(len(palette), count // 2)
    base, extra = divmod(count, used)
    remaining = [base + 1 if i < extra else base for i in range(used)]
    out: list[int] = []
    while len(out) < count:
        for i in range(used):
            take = min(2, remaining[i])
            if take:
                out.extend([palette[i]] * take)
                remaining[i] -= take
    return out


def lsb_digits(index: int, length: int, base: int) -> list[int]:
    """Digits of `index` in the given base, least significant first, padded
    with zeros to `length`.  Raises BadParams when index needs more digits."""
    if base < 2 or length < 0:
        raise BadParams("need base >= 2 and length >= 0")
    if index < 0 or index >= base**length:
        raise BadParams(f"index {index} does not fit in {length} base-{base} digits")
    digits = []
    x = index
    for _ in range(length):
        digits.append(x % base)
        x //= base
    return digits


class ColoringTrace(Record):
    """Which rule colored each vertex, plus the main lines grouped by event.

    Rule tags: "root", "step2_default", "step3_optimal", "main_line[i]",
    "step4_case1", "step4_case1_no_branch", "step4_case2", "lemma"
    (delegated colorings).  A main line is the tuple of its vertices: a
    group member (its anchor), then the fix_radius(c, k) vertices of a
    deepest descent below it, whose colors are lsb_digits(i, radius, c) for
    the group's i-th member.  line_groups holds one list of lines per group,
    in the order the groups were separated, and main_lines all of them.
    Lines within one group carry pairwise distinct digit strings and are
    vertex-disjoint from all other lines.
    """

    __slots__ = _fields = ("rules", "line_groups")
    __hash__ = None  # mutable: the coloring appends to both lists

    def __init__(self, rules: list[str]):
        self.rules = rules
        self.line_groups: list[list[tuple[int, ...]]] = []

    @property
    def main_lines(self) -> list[tuple[int, ...]]:
        return [line for group in self.line_groups for line in group]

    def to_json_dict(self) -> dict:
        return {"rules": list(self.rules), "main_lines": [list(line) for line in self.main_lines]}


def _fill_sibling_distinct(rv: RootedView, colors: list[int], palette_size: int) -> None:
    """Give every child that is still UNCOLORED its index among its siblings,
    its offset in its parent's block, as its color, in one pass over the
    view: below the vertices colored beforehand, the roots among them, every
    vertex's children get pairwise different colors, ascending ids mapped
    to ascending colors."""
    parent, first = rv.parent, rv.first
    k = len(rv.roots)
    for pos, w in enumerate(islice(rv.order, k, None), k):
        if colors[w] == UNCOLORED:
            i = pos - first[parent[w]]
            assert i < palette_size, "sibling group exceeds palette"
            colors[w] = i


def _descent(rv: RootedView, v: int, length: int) -> tuple[int, ...]:
    """The first `length` vertices (fewer at a leaf) of a path from v to a
    deepest leaf of its subtree; ties descend through the smallest vertex id.
    A deepest child is one a level lower, and each block is ascending."""
    order, first, stop, heights = rv.order, rv.first, rv.stop, rv.heights
    path = [v]
    cur = v
    while len(path) < length and heights[cur]:
        below = heights[cur] - 1
        cur = next(x for x in order[first[cur] : stop[cur]] if heights[x] == below)
        path.append(cur)
    return tuple(path)


def color_tree(tree: Tree, num_colors: int) -> tuple[Coloring, ColoringTrace]:
    """Color the tree with num_colors colors so that every vertex meeting the
    distance condition for fix_radius(num_colors, max_valence) is fixed by all
    color-preserving automorphisms.

    With at least max_valence colors all sibling groups get pairwise distinct
    colors (everything is fixed); with exactly max_valence - 1 the
    near-distinguishing coloring is used; otherwise the sphere-sweep algorithm
    runs: vertices failing the distance condition default to color 0, sibling
    groups that meet it are colored as evenly as possible, and same-colored
    groups that are still structurally indistinguishable get main lines.
    The tree is rooted at its center.
    """
    if num_colors < 2:
        raise BadParams("need at least 2 colors")
    n = tree.n
    c = num_colors
    k = max_valence(tree)
    rv = tree.centered
    if c >= k:
        rules = ["lemma"] * n
        for r in rv.roots:
            rules[r] = "root"
        return _color_sibling_distinct(rv, c), ColoringTrace(rules=rules)
    if c == k - 1:
        return color_near_distinguishing(tree), ColoringTrace(rules=["lemma"] * n)

    # 2 <= c <= k-2, hence k >= 4 and a log-form radius
    radius = fix_radius(c, k)
    order, first, stop, heights = rv.order, rv.first, rv.stop, rv.heights
    colors = [UNCOLORED] * n
    trace = ColoringTrace(rules=[""] * n)
    rules = trace.rules

    # a lone root gets 0, the two roots of an edge center 1 and 0
    for i, r in enumerate(reversed(rv.roots)):
        colors[r] = i
        rules[r] = "root"

    shape: list[int] | None = None  # structural labels, computed on first need

    def twins(siblings: list[int]) -> list[list[int]]:
        """Groups (ascending, >= 2 members, ordered by first member) of
        admitted siblings whose colored subtrees are isomorphic: those that
        share their own color and their uncolored shape.

        No member has a colored proper descendant yet.  Every colored vertex
        has a colored parent: the roots come first, steps 2 and 3 run in BFS
        order, a main line runs down from its colored anchor, and step 4 and
        _two_color_descent color only children of colored vertices.  A
        sibling set is colored when it is created and separated when it is
        popped; in between, separate() colors only inside other members'
        subtrees, which are disjoint from it.  So two members' colored
        subtrees are isomorphic exactly when their colors and their shapes
        are equal.  Every set arrives in ascending order, and the dict keeps
        the groups in order of their first member.
        """
        nonlocal shape
        admitted = [x for x in siblings if heights[x] >= radius]
        if len(admitted) < 2:
            return []
        if shape is None:
            shape = canonical_labels(rv, bytes(n))
        groups: dict[tuple[int, int], list[int]] = {}
        for x in admitted:
            groups.setdefault((colors[x], shape[x]), []).append(x)
        return [g for g in groups.values() if len(g) >= 2]

    def step4(line: tuple[int, ...]) -> list[list[int]]:
        created: list[list[int]] = []
        for w, on_line in zip(line, line[1:]):
            a = colors[on_line]
            offline = [x for x in rv.children_of(w) if x != on_line]
            if not offline:
                continue
            if len(offline) == 1:
                v2 = offline[0]
                assert colors[v2] == UNCOLORED
                colors[v2] = (a + 1) % c
                rules[v2] = "step4_case1"
                if c == 2:
                    created.extend(_two_color_descent(rv, v2, colors, rules))
            else:
                palette = [x for x in range(c) if x != a]
                for x, col in zip(offline, balanced_colors(len(offline), palette, pairs_required=True)):
                    assert colors[x] == UNCOLORED
                    colors[x] = col
                    rules[x] = "step4_case2"
                created.append(offline)
        return created

    def separate(sets: list[list[int]]) -> None:
        # same-colored, still-indistinguishable members of a freshly colored
        # sibling set get main lines; step 4 colors the branches hanging off
        # those lines and may create new sets, processed depth-first
        stack = list(sets)
        while stack:
            lines: list[tuple[int, ...]] = []
            for group in twins(stack.pop()):
                event = []
                for idx, v in enumerate(group):
                    line = _descent(rv, v, radius + 1)
                    assert len(line) == radius + 1, "distance condition guarantees room"
                    for w, col in zip(line[1:], lsb_digits(idx, radius, c)):
                        assert colors[w] == UNCOLORED
                        colors[w] = col
                        rules[w] = f"main_line[{idx}]"
                    event.append(line)
                trace.line_groups.append(event)
                lines.extend(event)
            for line in lines:
                stack.extend(step4(line))

    for u in order:
        if colors[u] != UNCOLORED:
            continue
        if heights[u] < radius:
            colors[u] = 0
            rules[u] = "step2_default"
            continue
        # u's siblings before it in BFS order are colored
        p = rv.parent[u]
        group = [x for x in order[first[p] : stop[p]] if colors[x] == UNCOLORED and heights[x] >= radius]
        for x, col in zip(group, balanced_colors(len(group), list(range(c)))):
            colors[x] = col
            rules[x] = "step3_optimal"
        separate([group])

    assert UNCOLORED not in colors
    return Coloring(c, tuple(colors)), trace


def _two_color_descent(rv: RootedView, v2: int, colors: list[int], rules: list[str]) -> list[list[int]]:
    """Two-color continuation below a lone off-line sibling: the chain down to
    the first branching is colored 1; a branching of 2-3 siblings is colored
    all 1, a larger one as evenly as possible over {0, 1}.  The branching,
    if any, is returned as a new sibling set."""
    chain: list[int] = []
    branch = rv.children_of(v2)
    while len(branch) == 1:
        chain += branch
        branch = rv.children_of(branch[0])
    rule = "step4_case1" if branch else "step4_case1_no_branch"
    tail = balanced_colors(len(branch), [0, 1]) if len(branch) > 3 else [1] * len(branch)
    for x, col in zip(chain + branch, [1] * len(chain) + tail):
        colors[x] = col
        rules[x] = rule
    return [branch] if branch else []


def _color_sibling_distinct(rv: RootedView, num_colors: int) -> Coloring:
    """A lone root gets 0, the two roots of an edge center 1 and 0, and
    below them every vertex's children pairwise different colors, so every
    color-preserving automorphism that keeps the roots fixes every vertex."""
    colors = [UNCOLORED] * rv.n
    for i, r in enumerate(reversed(rv.roots)):
        colors[r] = i
    _fill_sibling_distinct(rv, colors, num_colors)
    return Coloring(num_colors, tuple(colors))


def color_anchored(tree: Tree, anchor: int, max_degree: int | None = None) -> Coloring:
    """Coloring that breaks every automorphism fixing `anchor`: outward from
    the anchor, each vertex's children get pairwise different colors from a
    palette of max_degree - 1."""
    k = max_valence(tree) if max_degree is None else max_degree
    if max_valence(tree) > k:
        raise BadParams(f"tree valence {max_valence(tree)} exceeds declared bound {k}")
    _check_vertex(anchor, tree.n)
    if tree.n == 1:
        return Coloring(1, (0,))
    if k < 2:
        raise BadParams("max_degree must be >= 2 for n >= 2")
    if tree.degree(anchor) > k - 1:
        raise BadParams(f"anchor valence {tree.degree(anchor)} must be <= {k - 1}")
    return _color_sibling_distinct(root_at(tree, anchor), k - 1)


def color_near_distinguishing(tree: Tree) -> Coloring:
    """Coloring with max_valence - 1 colors that fixes every vertex except at
    most one pair of sibling leaves (guaranteed for max_valence >= 3).

    A vertex center gets color 0 and its neighbors as many distinct colors as
    possible (one repeat only when the center has full valence); each branch
    continues sibling-distinct.  When the two repeated branches are isomorphic
    as colored trees, one leaf color in one branch is changed, preferring a
    change that collides with no sibling leaf.  An edge center gets 0/1 and
    both halves continue sibling-distinct, fixing everything.
    """
    n = tree.n
    if n == 1:
        return Coloring(1, (0,))
    k = max_valence(tree)
    num = max(k - 1, 1)
    rv = tree.centered
    colors = [UNCOLORED] * n
    nbrs: tuple[int, ...] = ()
    if len(rv.roots) == 1:
        v = rv.roots[0]
        colors[v] = 0
        nbrs = rv.order[rv.first[v] : rv.stop[v]]
        for i, x in enumerate(nbrs):
            colors[x] = i % num
    else:
        a, b = rv.roots
        colors[a], colors[b] = 0, 1 % num
    _fill_sibling_distinct(rv, colors, num)
    if len(nbrs) == num + 1 and num >= 2:
        # full-valence center: first and last neighbor share color 0
        # two bare sibling leaves stay as the allowed exceptional pair, and
        # branches of different heights are not isomorphic
        twin_a, twin_b = nbrs[0], nbrs[num]
        if 0 < rv.heights[twin_b] == rv.heights[twin_a]:
            labels = canonical_labels(rv, colors)
            if labels[twin_a] == labels[twin_b]:
                _retint_one_leaf(rv, colors, num, twin_b)
    return Coloring(num, tuple(colors))


def _retint_one_leaf(rv: RootedView, colors: list[int], num: int, branch_root: int) -> None:
    """Change one leaf color inside the branch to break its isomorphism with
    the twin branch, preferring a new color that no sibling leaf carries (so
    no interchangeable pair is created at all)."""
    heights = rv.heights
    leaves = [w for w in rv.subtree(branch_root) if not heights[w]]
    for a in leaves:
        siblings = [s for s in rv.children_of(rv.parent[a]) if s != a]
        for y in range(num):
            if y == colors[a]:
                continue
            if not any(colors[s] == y and not heights[s] for s in siblings):
                colors[a] = y
                return
    a = leaves[0]
    colors[a] = (colors[a] + 1) % num


def color_regular(tree: Tree) -> Coloring:
    """Two-coloring of a tree whose valences are all 1 or k, fixing every
    internal vertex (only leaves may stay interchangeable).

    The center's roots are white (an edge center's second root black) and
    their children black; below that, same-colored
    internal siblings are told apart by giving their child groups pairwise
    different black-counts (there are exactly k such patterns on k-1 slots),
    assigned in ascending vertex id.
    """
    n = tree.n
    if n == 1:
        return Coloring(2, (0,))
    k = max_valence(tree)
    bad = [v for v in range(n) if tree.degree(v) not in (1, k)]
    if bad:
        raise BadParams(f"vertex {bad[0]} has valence {tree.degree(bad[0])}, not 1 or {k}")
    rv = tree.centered
    order, first, stop, heights = rv.order, rv.first, rv.stop, rv.heights
    colors = [UNCOLORED] * n
    for i, r in enumerate(rv.roots):
        colors[r] = i
        for x in order[first[r] : stop[r]]:
            colors[x] = 1
    for u in order:
        if not heights[u]:
            continue
        by_color: dict[int, list[int]] = {}
        for x in order[first[u] : stop[u]]:
            if heights[x]:
                by_color.setdefault(colors[x], []).append(x)
        for col in sorted(by_color):
            for blacks, x in enumerate(by_color[col]):
                for i, y in enumerate(order[first[x] : stop[x]]):
                    colors[y] = 1 if i < blacks else 0
    return Coloring(2, tuple(colors))


def color_spine(tree: Tree, spine: list[int] | None = None, max_degree: int | None = None) -> Coloring:
    """Color a marked leaf-anchored path with 1 and everything hanging off it
    so that any color-preserving automorphism fixing the spine pointwise is
    the identity.

    Off-spine neighbors of each spine vertex get pairwise different colors
    avoiding 1; their hanging subtrees continue sibling-distinct over the full
    palette of max_degree - 1 colors.  The spine defaults to
    longest_spine(tree), and the view that finds it, rooted at its first
    vertex, is the one the coloring walks.
    """
    rv = None
    if spine is None:
        spine, rv = _longest_spine_view(tree)
    n = tree.n
    k = max_valence(tree) if max_degree is None else max_degree
    if max_valence(tree) > k:
        raise BadParams(f"tree valence {max_valence(tree)} exceeds declared bound {k}")
    if not spine:
        raise BadParams("spine is empty")
    for z in spine:
        _check_vertex(z, n)
    if len(set(spine)) != len(spine):
        raise BadParams("spine repeats a vertex")
    if n == 1:
        return Coloring(2, (1,))
    if tree.degree(spine[0]) != 1:
        raise BadParams(f"spine must start at a leaf; vertex {spine[0]} has valence {tree.degree(spine[0])}")
    for z, nxt in zip(spine, spine[1:]):
        if nxt not in tree.neighbors(z):
            raise BadParams(f"spine vertices {z} and {nxt} are not adjacent")
    num = max(k - 1, 2)
    off_palette = [x for x in range(num) if x != 1]
    if rv is None:
        rv = root_at(tree, spine[0])
    colors = [UNCOLORED] * n
    spine_next = {z: nxt for z, nxt in zip(spine, spine[1:])}
    for z in spine:
        colors[z] = 1
    for z in spine:
        offline = [x for x in rv.children_of(z) if x != spine_next.get(z)]
        if len(offline) > len(off_palette):
            raise BadParams(
                f"spine vertex {z} has {len(offline)} hanging branches; at most {len(off_palette)} fit"
            )
        for i, x in enumerate(offline):
            colors[x] = off_palette[i]
    _fill_sibling_distinct(rv, colors, num)
    assert UNCOLORED not in colors
    return Coloring(num, tuple(colors))


def longest_spine(tree: Tree) -> list[int]:
    """A longest path in the tree, as a vertex list starting at a leaf;
    deterministic via smallest-id tie-breaks: a is the vertex farthest from
    0, b the one farthest from a, and the path runs from a to b."""
    return _longest_spine_view(tree)[0]


def _longest_spine_view(tree: Tree) -> tuple[list[int], RootedView]:
    """longest_spine(tree) together with the tree rooted at its first vertex."""

    def farthest(rv: RootedView) -> int:
        depth = rv.depth
        return max(range(tree.n), key=lambda v: (depth[v], -v))

    a = farthest(root_at(tree, 0))
    rv = root_at(tree, a)
    path = [farthest(rv)]
    while path[-1] != a:
        path.append(rv.parent[path[-1]])
    path.reverse()
    return path, rv
