"""Constructive colorings that pin down vertices far enough from the leaves.

The central entry point is color_tree: given c colors and a tree of maximum
valence k it produces a coloring under which every color-preserving
automorphism fixes all vertices u whose subtree contains a leaf at distance
at least fix_radius(c, k) from u.  Sibling groups that would otherwise be
interchangeable are separated by "main lines": along a deepest descent from
each group member, the next ceil(radius) vertices receive the digits of the
member's group index written least-significant-first in base c, so distinct
members read distinct digit strings.

All functions here are pure and deterministic: ties are broken by ascending
vertex id everywhere, so repeated runs are byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import BadParams, BadSpine, IndexOverflow, NotRegularProfile
from .symmetry import UNCOLORED, Coloring, canonical_labels, structural_codes
from .tree_core import (
    CenterLocus,
    FixRadius,
    RadiusKind,
    RootedView,
    Tree,
    max_valence,
    root_at,
)


def fix_radius(num_colors: int, max_degree: int) -> FixRadius:
    """Exact leaf-distance threshold for fixing vertices with the given palette.

    Zero when the tree is a path or there are at least max_degree colors;
    one when exactly max_degree - 1 colors are available; otherwise the
    log-form threshold log_c(max{3, ceil((k-2)/(c-1))}), with argument k-2
    and an extra +1 offset in the two-color case.
    """
    c, k = num_colors, max_degree
    if c < 2:
        raise BadParams("need at least 2 colors")
    if k < 0:
        raise BadParams("max_degree must be >= 0")
    if k <= 2 or c >= k:
        return FixRadius(RadiusKind.ZERO)
    if c == k - 1:
        return FixRadius(RadiusKind.ONE)
    if c == 2:
        return FixRadius(RadiusKind.LOG, base=2, argument=max(3, k - 2), offset=1)
    argument = max(3, -((k - 2) // -(c - 1)))
    return FixRadius(RadiusKind.LOG, base=c, argument=argument, offset=0)


def ceil_fix_radius(num_colors: int, max_degree: int) -> int:
    """Smallest integer distance admitted by fix_radius(num_colors, max_degree)."""
    return fix_radius(num_colors, max_degree).ceil()


def radius_bound(num_colors: int, max_degree: int) -> int:
    """Smallest integer r with k <= 2**(r-1) (c = 2) or k <= c**r * (c-1) + 2
    (c > 2); 0 when c = k and 1 when c = k - 1.

    This is the coarser closed-form bound; it dominates ceil_fix_radius
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
    with zeros to `length`.  Raises IndexOverflow when index needs more digits."""
    if base < 2 or length < 0:
        raise BadParams("need base >= 2 and length >= 0")
    if index < 0 or index >= base**length:
        raise IndexOverflow(f"index {index} does not fit in {length} base-{base} digits")
    digits = []
    x = index
    for _ in range(length):
        digits.append(x % base)
        x //= base
    return digits


@dataclass(frozen=True)
class MainLine:
    """One separated group member: its anchor, the anchor plus the
    digit-colored segment below it, the digit sequence, and the group index."""

    anchor: int
    vertices: tuple[int, ...]
    sequence: tuple[int, ...]
    index: int


@dataclass
class ColoringTrace:
    """Which rule colored each vertex, plus the main lines grouped by event.

    Rule tags: "root", "step2_default", "step3_optimal", "main_line[i]",
    "step4_case1", "step4_case1_no_branch", "step4_case2", "lemma"
    (delegated colorings).  Lines within one group carry pairwise distinct
    digit sequences and are vertex-disjoint from all other lines.
    """

    rules: list[str]
    line_groups: list[list[MainLine]] = field(default_factory=list)

    @property
    def main_lines(self) -> list[MainLine]:
        return [ml for group in self.line_groups for ml in group]

    def to_json_dict(self) -> dict:
        return {
            "rules": list(self.rules),
            "main_lines": [list(ml.vertices) for ml in self.main_lines],
        }


def _extend_sibling_distinct(rv: RootedView, top: int, colors: list[int], palette_size: int) -> None:
    """Below `top`, give every vertex's children pairwise different colors,
    ascending ids mapped to ascending colors."""
    for u in rv.subtree(top):
        for i, w in enumerate(rv.children[u]):
            assert i < palette_size, "sibling group exceeds palette"
            colors[w] = i


def _longest_descent(rv: RootedView, v: int) -> list[int]:
    """Path from v to a deepest leaf of its subtree; ties descend through the
    smallest vertex id."""
    path = [v]
    cur = v
    while rv.children[cur]:
        cur = max(rv.children[cur], key=lambda x: (rv.heights[x], -x))
        path.append(cur)
    return path


def color_tree(
    tree: Tree, num_colors: int, root: int | CenterLocus | None = None
) -> tuple[Coloring, ColoringTrace]:
    """Color the tree with num_colors colors so that every vertex meeting the
    distance condition for fix_radius(num_colors, max_valence) is fixed by all
    color-preserving automorphisms.

    With at least max_valence colors all sibling groups get pairwise distinct
    colors (everything is fixed); with exactly max_valence - 1 the
    near-distinguishing coloring is used; otherwise the sphere-sweep algorithm
    runs: vertices failing the distance condition default to color 0, sibling
    groups that meet it are colored as evenly as possible, and same-colored
    groups that are still structurally indistinguishable get main lines.
    `root` overrides the default center rooting (no guarantee beyond the
    center-rooted one is claimed).
    """
    if num_colors < 2:
        raise BadParams("need at least 2 colors")
    n = tree.n
    c = num_colors
    k = max_valence(tree)
    if c >= k:
        return _color_all_distinct(tree, c, root)
    if c == k - 1:
        coloring = color_near_distinguishing(tree)
        return coloring, ColoringTrace(rules=["lemma"] * n)

    # 2 <= c <= k-2, hence k >= 4 and a log-form radius
    rv = tree.centered if root is None else root_at(tree, root)
    radius = fix_radius(c, k)
    seq_len = radius.ceil()
    colors = [UNCOLORED] * n
    trace = ColoringTrace(rules=[""] * n)
    rules = trace.rules

    if len(rv.roots) == 1:
        colors[rv.roots[0]] = 0
    else:
        colors[rv.roots[0]] = 1
        colors[rv.roots[1]] = 0
    for r in rv.roots:
        rules[r] = "root"

    def admits(u: int) -> bool:
        return radius.admits(rv.heights[u])

    shape: list[int] | None = None  # structural labels, computed on first need

    def twins(siblings: list[int]) -> list[list[int]]:
        """Groups (ascending, >= 2 members, ordered by first member) of
        admitted siblings whose colored subtrees are isomorphic.  Such twins
        share their own color and their uncolored shape, so only classes of
        that pair with two or more members are labelled by colored subtree."""
        nonlocal shape
        admitted = [x for x in sorted(siblings) if admits(x)]
        if len(admitted) < 2:
            return []
        if shape is None:
            shape = canonical_labels(rv, [0] * n)
        candidates: dict[tuple[int, int], list[int]] = {}
        for x in admitted:
            candidates.setdefault((colors[x], shape[x]), []).append(x)
        multi: list[list[int]] = []
        for cand in candidates.values():
            if len(cand) < 2:
                continue
            groups: dict[int, list[int]] = {}
            for x, label in zip(cand, canonical_labels(rv, colors, cand)):
                groups.setdefault(label, []).append(x)
            multi.extend(g for g in groups.values() if len(g) >= 2)
        return sorted(multi, key=lambda g: g[0])

    def step4(line: MainLine) -> list[list[int]]:
        created: list[list[int]] = []
        verts = line.vertices
        for j in range(len(verts) - 1):
            w, on_line = verts[j], verts[j + 1]
            a = colors[on_line]
            offline = [x for x in rv.children[w] if x != on_line]
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
            lines: list[MainLine] = []
            for group in twins(stack.pop()):
                event: list[MainLine] = []
                for idx, v in enumerate(group):
                    path = _longest_descent(rv, v)
                    seq = lsb_digits(idx, seq_len, c)
                    assert len(path) > seq_len, "distance condition guarantees room"
                    for pos, col in enumerate(seq):
                        w = path[pos + 1]
                        assert colors[w] == UNCOLORED
                        colors[w] = col
                        rules[w] = f"main_line[{idx}]"
                    event.append(
                        MainLine(
                            anchor=v,
                            vertices=tuple(path[: seq_len + 1]),
                            sequence=tuple(seq),
                            index=idx,
                        )
                    )
                trace.line_groups.append(event)
                lines.extend(event)
            for line in lines:
                stack.extend(step4(line))

    for u in rv.order:
        if colors[u] != UNCOLORED:
            continue
        if not admits(u):
            colors[u] = 0
            rules[u] = "step2_default"
            continue
        parent = rv.parent[u]
        group = [x for x in rv.children[parent] if colors[x] == UNCOLORED and admits(x)]
        for x, col in zip(group, balanced_colors(len(group), list(range(c)))):
            colors[x] = col
            rules[x] = "step3_optimal"
        separate([group])

    assert UNCOLORED not in colors
    return Coloring(c, tuple(colors)), trace


def _two_color_descent(rv: RootedView, v2: int, colors: list[int], rules: list[str]) -> list[list[int]]:
    """Two-color continuation below a lone off-line sibling: the chain down to
    the first branching is colored 1; a branching of 2-3 siblings is colored
    all 1, a larger one as evenly as possible over {0, 1}."""
    chain: list[int] = []
    cur = v2
    branch: list[int] | None = None
    while True:
        kids = rv.children[cur]
        if not kids:
            break
        if len(kids) == 1:
            chain.append(kids[0])
            cur = kids[0]
            continue
        branch = list(kids)
        break
    if branch is None:
        for x in chain:
            colors[x] = 1
            rules[x] = "step4_case1_no_branch"
        return []
    for x in chain:
        colors[x] = 1
        rules[x] = "step4_case1"
    if len(branch) <= 3:
        for x in branch:
            colors[x] = 1
            rules[x] = "step4_case1"
    else:
        for x, col in zip(branch, balanced_colors(len(branch), [0, 1])):
            colors[x] = col
            rules[x] = "step4_case1"
    return [branch]


def _color_all_distinct(
    tree: Tree, num_colors: int, root: int | CenterLocus | None = None
) -> tuple[Coloring, ColoringTrace]:
    """With at least max_valence colors, give every sibling group pairwise
    distinct colors; every vertex ends up fixed."""
    rv = tree.centered if root is None else root_at(tree, root)
    colors = [UNCOLORED] * tree.n
    rules = ["lemma"] * tree.n
    if len(rv.roots) == 1:
        colors[rv.roots[0]] = 0
    else:
        colors[rv.roots[0]] = 1
        colors[rv.roots[1]] = 0
    for r in rv.roots:
        rules[r] = "root"
    for u in rv.order:
        for i, w in enumerate(rv.children[u]):
            assert i < num_colors
            colors[w] = i
    return Coloring(num_colors, tuple(colors)), ColoringTrace(rules=rules)


def color_anchored(tree: Tree, anchor: int, max_degree: int | None = None) -> Coloring:
    """Coloring that breaks every automorphism fixing `anchor`: outward from
    the anchor, each vertex's children get pairwise different colors from a
    palette of max_degree - 1."""
    k = max_valence(tree) if max_degree is None else max_degree
    if max_valence(tree) > k:
        raise BadParams(f"tree valence {max_valence(tree)} exceeds declared bound {k}")
    tree.check_vertex(anchor)
    if tree.n == 1:
        return Coloring(1, (0,))
    if k < 2:
        raise BadParams("max_degree must be >= 2 for n >= 2")
    if tree.degree(anchor) > k - 1:
        raise BadParams(f"anchor valence {tree.degree(anchor)} must be <= {k - 1}")
    num = max(k - 1, 1)
    rv = root_at(tree, anchor)
    colors = [UNCOLORED] * tree.n
    colors[anchor] = 0
    _extend_sibling_distinct(rv, anchor, colors, num)
    return Coloring(num, tuple(colors))


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
    if len(rv.roots) == 1:
        v = rv.roots[0]
        colors[v] = 0
        nbrs = rv.children[v]
        for i, x in enumerate(nbrs):
            colors[x] = i % num
        for x in nbrs:
            _extend_sibling_distinct(rv, x, colors, num)
        if len(nbrs) == num + 1 and num >= 2:
            # full-valence center: first and last neighbor share color 0
            twin_a, twin_b = nbrs[0], nbrs[num]
            label_a, label_b = canonical_labels(rv, colors, (twin_a, twin_b))
            if label_a == label_b:
                if rv.children[twin_b]:
                    _retint_one_leaf(rv, colors, num, twin_b)
                # two bare sibling leaves stay as the allowed exceptional pair
    else:
        a, b = rv.roots
        if num >= 2:
            colors[a], colors[b] = 0, 1
        else:
            colors[a] = colors[b] = 0
        for r in (a, b):
            _extend_sibling_distinct(rv, r, colors, num)
    return Coloring(num, tuple(colors))


def _retint_one_leaf(rv: RootedView, colors: list[int], num: int, branch_root: int) -> None:
    """Change one leaf color inside the branch to break its isomorphism with
    the twin branch, preferring a new color that no sibling leaf carries (so
    no interchangeable pair is created at all)."""
    leaves = [w for w in rv.subtree(branch_root) if not rv.children[w]]
    for a in leaves:
        siblings = [s for s in rv.children[rv.parent[a]] if s != a]
        for y in range(num):
            if y == colors[a]:
                continue
            if not any(colors[s] == y and not rv.children[s] for s in siblings):
                colors[a] = y
                return
    a = leaves[0]
    colors[a] = (colors[a] + 1) % num


def color_regular(tree: Tree) -> Coloring:
    """Two-coloring of a tree whose valences are all 1 or k, fixing every
    internal vertex (only leaves may stay interchangeable).

    The center is white with black neighbors; below that, same-colored
    internal siblings are told apart by giving their child groups pairwise
    different black-counts (there are exactly k such patterns on k-1 slots),
    assigned in ascending order of subtree shape.
    """
    n = tree.n
    if n == 1:
        return Coloring(2, (0,))
    k = max_valence(tree)
    bad = [v for v in range(n) if tree.degree(v) not in (1, k)]
    if bad:
        raise NotRegularProfile(f"vertex {bad[0]} has valence {tree.degree(bad[0])}, not 1 or {k}")
    rv = tree.centered
    struct = structural_codes(rv)
    colors = [UNCOLORED] * n
    if len(rv.roots) == 1:
        v = rv.roots[0]
        colors[v] = 0
        for x in rv.children[v]:
            colors[x] = 1
    else:
        a, b = rv.roots
        colors[a], colors[b] = 0, 1
        for r in (a, b):
            for x in rv.children[r]:
                colors[x] = 1
    for u in rv.order:
        kids = rv.children[u]
        if not kids:
            continue
        by_color: dict[int, list[int]] = {}
        for x in kids:
            if rv.children[x]:
                by_color.setdefault(colors[x], []).append(x)
        for col in sorted(by_color):
            members = sorted(by_color[col], key=lambda x: (struct[x], x))
            for blacks, x in enumerate(members):
                for i, y in enumerate(rv.children[x]):
                    colors[y] = 1 if i < blacks else 0
    return Coloring(2, tuple(colors))


def color_spine(tree: Tree, spine: list[int], max_degree: int | None = None) -> Coloring:
    """Color a marked leaf-anchored path with 1 and everything hanging off it
    so that any color-preserving automorphism fixing the spine pointwise is
    the identity.

    Off-spine neighbors of each spine vertex get pairwise different colors
    avoiding 1; their hanging subtrees continue sibling-distinct over the full
    palette of max_degree - 1 colors.
    """
    n = tree.n
    k = max_valence(tree) if max_degree is None else max_degree
    if max_valence(tree) > k:
        raise BadParams(f"tree valence {max_valence(tree)} exceeds declared bound {k}")
    if not spine:
        raise BadSpine("spine is empty")
    for z in spine:
        tree.check_vertex(z)
    if len(set(spine)) != len(spine):
        raise BadSpine("spine repeats a vertex")
    if n == 1:
        return Coloring(2, (1,))
    if tree.degree(spine[0]) != 1:
        raise BadSpine(f"spine must start at a leaf; vertex {spine[0]} has valence {tree.degree(spine[0])}")
    for z, nxt in zip(spine, spine[1:]):
        if nxt not in tree.adjacency[z]:
            raise BadSpine(f"spine vertices {z} and {nxt} are not adjacent")
    num = max(k - 1, 2)
    off_palette = [x for x in range(num) if x != 1]
    rv = root_at(tree, spine[0])
    colors = [UNCOLORED] * n
    spine_next = {z: nxt for z, nxt in zip(spine, spine[1:])}
    for z in spine:
        colors[z] = 1
    for z in spine:
        offline = [x for x in rv.children[z] if x != spine_next.get(z)]
        if len(offline) > len(off_palette):
            raise BadSpine(
                f"spine vertex {z} has {len(offline)} hanging branches; at most {len(off_palette)} fit"
            )
        for i, x in enumerate(offline):
            colors[x] = off_palette[i]
        for x in offline:
            _extend_sibling_distinct(rv, x, colors, num)
    assert UNCOLORED not in colors
    return Coloring(num, tuple(colors))


def longest_spine(tree: Tree) -> list[int]:
    """A longest path in the tree, as a vertex list starting at a leaf;
    deterministic via smallest-id tie-breaks."""
    if tree.n == 1:
        return [0]

    def farthest(src: int) -> tuple[int, list[int]]:
        dist = [-1] * tree.n
        parent = [-1] * tree.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in tree.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
        best = max(range(tree.n), key=lambda v: (dist[v], -v))
        return best, parent

    a, _ = farthest(0)
    b, parent = farthest(a)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path
