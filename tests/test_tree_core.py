from __future__ import annotations

import gc
import hashlib
import re
import tracemalloc
import weakref
from array import array

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedist import (
    RootedView,
    Tree,
    center,
    color_anchored,
    color_tree,
    fix_report,
    fix_radius,
    format_edge_list,
    max_valence,
    parse_edge_list,
    random_tree,
    root_at,
    tree_from_edges,
)
from treedist import tree_core
from treedist.cli import main
from treedist.errors import BadFormat, BadParams, NotATree
from treedist.tree_core import _canonical_form

import helpers


class TestParseEdgeList:
    def test_path3(self):
        t = parse_edge_list("0 1\n1 2")
        assert t.n == 3
        assert t.nbrs == array("i", [1, 0, 2, 1])
        assert t.offsets == array("i", [0, 1, 3, 4])
        assert [tuple(t.neighbors(v)) for v in range(3)] == [(1,), (0, 2), (1,)]

    def test_star(self):
        t = parse_edge_list("0 1\n0 2\n0 3")
        assert t.n == 4
        assert max_valence(t) == 3

    def test_comments_and_blanks(self):
        t = parse_edge_list("# a comment\n\n0 1\n  \n# another\n1 2\n")
        assert t.n == 3

    def test_single_vertex_via_header(self):
        t = parse_edge_list("# n=1\n")
        assert t.n == 1
        assert (t.nbrs, t.offsets) == (array("i"), array("i", [0, 0]))
        assert list(t.edges()) == []

    def test_disconnected(self):
        with pytest.raises(NotATree, match="^2 edges for 4 vertices; a tree needs 3$"):
            parse_edge_list("0 1\n2 3")

    def test_cycle(self):
        with pytest.raises(NotATree, match="^3 edges for 3 vertices; a tree needs 2$"):
            parse_edge_list("0 1\n1 2\n2 0")

    def test_duplicate_edge(self):
        with pytest.raises(NotATree, match="^4 edges for 4 vertices; a tree needs 3$"):
            parse_edge_list("0 1\n1 0\n1 2\n2 3")

    def test_bad_token(self):
        with pytest.raises(BadFormat):
            parse_edge_list("0 x")

    def test_too_many_fields(self):
        with pytest.raises(BadFormat):
            parse_edge_list("0 1 2")

    def test_non_integer_vertex_count_header(self):
        with pytest.raises(BadFormat):
            parse_edge_list("# n=x\n0 1\n")

    @pytest.mark.parametrize("text, line", [("# n=0\n", 1), ("0 1\n# n=-3\n", 2)])
    def test_vertex_count_below_one_header(self, text, line):
        with pytest.raises(BadFormat, match=f"^line {line}: vertex count must be at least 1"):
            parse_edge_list(text)

    @pytest.mark.parametrize("edges, n", [([], 0), ([(0, 1)], -3)])
    def test_vertex_count_below_one(self, edges, n):
        with pytest.raises(NotATree, match="at least 1 vertex"):
            tree_from_edges(edges, n)

    def test_non_contiguous_ids(self):
        with pytest.raises(NotATree, match=r"^vertex ids missing from edge list: \[2\]$"):
            parse_edge_list("0 1\n1 3\n3 4")

    def test_huge_id_costs_no_memory(self):
        # a ten-byte file must not cost memory in its largest id
        tracemalloc.start()
        try:
            with pytest.raises(NotATree, match=r"missing from edge list: \[1, 2, 3, 4, 5\]"):
                parse_edge_list("0 2000000\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "text, missing",
        [
            ("0 1\n1 99999999999999999999", "[2, 3, 4, 5, 6]"),
            ("99999999999999999999 1\n0 1", "[2, 3, 4, 5, 6]"),
            (f"# n=3\n0 1\n1 {2**63}\n2 {2**63 + 2}", "[3, 4, 5, 6, 7]"),
        ],
    )
    def test_ids_past_64_bits(self, text, missing):
        # the ends outgrow the parser's array of machine ints; the ids are
        # reported missing below them as for any other id out of range
        with pytest.raises(NotATree, match=re.escape(f"missing from edge list: {missing}")):
            parse_edge_list(text)

    def test_round_trip(self):
        t = helpers.load_fixture("glued_stars")
        again = parse_edge_list(format_edge_list(t))
        assert again == t


def _assert_two_arrays(tree):
    """The tree keeps exactly its two arrays of machine ints, the
    neighbours and the offsets, and nothing of the parser's ends."""
    kept = [value for value in vars(tree).values() if isinstance(value, array)]
    assert kept == [tree.nbrs, tree.offsets]
    assert [x.typecode for x in kept] == ["i", "i"]
    assert (len(tree.nbrs), len(tree.offsets)) == (2 * (tree.n - 1), tree.n + 1)


#: Bytes per vertex a Tree keeps: its two arrays hold 12 (4 per neighbour
#: entry, two per edge, and 4 per offset).  A tuple of neighbour tuples,
#: sharing one int object per vertex, kept about 96.
TREE_BYTES_PER_VERTEX = 14


class TestPeakMemory:
    """A step's tracemalloc peak, or what it keeps, in bytes per vertex of
    helpers.memory_probe_tree() (n = 20000) or of a path of the same size.
    Parsing once peaked at 3.2 times the Tree it returned (a set of every
    id and a sorted copy of every adjacency list, alive next to the lists
    and the final tuples), then at 155 bytes a vertex with an adjacency
    list per vertex alive next to the tuples they became; filling the two
    arrays straight from the ends it reads about 64, much of it the
    parser's JSON chunks, 64 KiB of text each whatever n (84 on Python
    3.10, which reads the text line by line).  Rooting once peaked at 2.8 times
    its view (n children lists, then a tuple copy of each), then at 1.28
    while the view's order shared the tree's int objects; today it reads
    about 1.14."""

    def test_parse(self):
        # the tree keeps its peel only until its view is built, so the peel
        # is dropped before `kept` is read
        probe = helpers.memory_probe_tree()
        text = format_edge_list(probe)

        def parse_without_peel():
            tree = parse_edge_list(text)
            del tree._peel
            return tree

        tree, peak, kept = helpers.traced_peak(parse_without_peel)
        assert tree == probe
        assert peak < 100 * tree.n, (peak / tree.n, kept / tree.n)
        assert kept < TREE_BYTES_PER_VERTEX * tree.n, kept / tree.n

    @pytest.mark.parametrize("build", ["parse", "random_tree", "direct"])
    def test_no_peel_left_once_centered(self, build):
        probe = helpers.memory_probe_tree()
        if build == "parse":
            tree = parse_edge_list(format_edge_list(probe))
        elif build == "random_tree":
            # built unpeeled: the peel comes with the first center() call
            tree = random_tree(2000, 5, 1)
            center(tree)
        else:
            tree = Tree(probe.n, probe.nbrs, probe.offsets)
            center(tree)
        # the peel leaves the center on the tree, and no array but the two
        assert vars(tree)["_peel"] == helpers.reference_center(tree)
        _assert_two_arrays(tree)
        tree.centered
        assert sorted(vars(tree)) == ["centered", "n", "nbrs", "offsets"]
        _assert_two_arrays(tree)

    @pytest.mark.parametrize("build", ["parse", "random_tree", "tree_from_edges"])
    def test_tree_bytes_per_vertex(self, build):
        # the tree holds no int object per vertex, only its two arrays
        probe = helpers.memory_probe_tree()
        text = format_edge_list(probe)
        edges = helpers.edges(probe)
        steps = {
            "parse": lambda: parse_edge_list(text),
            "random_tree": lambda: random_tree(20000, 8, 0),
            "tree_from_edges": lambda: tree_from_edges(edges),
        }
        tree, _, kept = helpers.traced_peak(steps[build])
        assert tree == probe
        assert kept < TREE_BYTES_PER_VERTEX * tree.n, kept / tree.n

    def test_root_at(self):
        tree = helpers.memory_probe_tree()
        loc = center(tree)
        _, peak, kept = helpers.traced_peak(lambda: root_at(tree, loc))
        assert peak < 1.4 * kept, (peak, kept)

    def test_centered_path_bytes_per_vertex(self):
        # a centered path once kept 164 bytes a vertex: 101 in its tuples
        # of neighbours and 63 in its view, whose order shared the tree's
        # int objects.  The two arrays keep 12, and the view, which now
        # holds an int object of its own per vertex in order, about 95:
        # parent, order and heights, and the first and stop arrays of the
        # children's blocks
        t, _, tree_bytes = helpers.traced_peak(lambda: parse_edge_list(format_edge_list(helpers.path_tree(20000))))
        _, _, kept = helpers.traced_peak(lambda: t.centered)
        assert tree_bytes + kept < 120 * t.n, (tree_bytes / t.n, kept / t.n)


class TestMaxValence:
    def test_star_center(self):
        assert max_valence(helpers.star_tree(3)) == 3

    def test_path(self):
        assert max_valence(helpers.path_tree(3)) == 2

    def test_single_vertex(self):
        assert max_valence(tree_from_edges([], n=1)) == 0


class TestCenter:
    def test_odd_path_midpoint(self):
        loc = center(helpers.path_tree(5))
        assert len(loc) == 1
        assert loc == (2,)

    def test_even_path_middle_edge(self):
        loc = center(helpers.path_tree(4))
        assert len(loc) == 2
        assert loc == (1, 2)

    def test_star(self):
        loc = center(helpers.star_tree(3))
        assert len(loc) == 1
        assert loc == (0,)

    def test_edge_center_is_adjacent(self):
        for seed in range(30):
            t = random_tree(14, 4, seed)
            loc = center(t)
            if len(loc) == 2:
                a, b = loc
                assert b in t.neighbors(a)

    def test_not_a_tree_built_directly(self):
        # a bare Tree is not validated; its peel stalls instead of looping
        cycle = helpers.tree_from_lists([[1, 2], [0, 2], [0, 1]])
        with pytest.raises(NotATree, match="peeling stalls"):
            center(cycle)


class TestRootAt:
    def test_path_depths(self):
        rv = root_at(helpers.path_tree(5), 2)
        assert rv.depth == (2, 1, 0, 1, 2)

    def test_star_leaves_depth1(self):
        t = helpers.star_tree(3)
        rv = root_at(t, center(t))
        assert rv.depth == (0, 1, 1, 1)

    def test_edge_rooting(self):
        rv = root_at(helpers.path_tree(4), center(helpers.path_tree(4)))
        assert rv.roots == (1, 2)
        assert rv.depth == (1, 0, 0, 1)
        # the center edge carries no parent/child relation
        assert rv.parent[1] is None and rv.parent[2] is None
        children = helpers.view_children(rv)
        assert 2 not in children[1] and 1 not in children[2]

    def test_out_of_range(self):
        with pytest.raises(BadParams, match=r"^vertex 7 not in 0\.\.2$"):
            root_at(helpers.path_tree(3), 7)

    # RootedView is public too, and its one loop follows edges only
    @pytest.mark.parametrize("build", [root_at, RootedView])
    @pytest.mark.parametrize("roots", [(), (0, 2), (1, 1), (0, 1, 2)])
    def test_roots_not_a_vertex_or_an_edge(self, build, roots):
        with pytest.raises(BadParams, match="neither one vertex nor the two ends of an edge"):
            build(helpers.path_tree(3), roots)

    def test_children_partition_and_parent_inverts(self):
        randoms = [random_tree(18, 5, seed) for seed in range(20)]
        # one vertex, one edge center alone, and an edge center with children
        small = [tree_from_edges([], n=1), tree_from_edges([(0, 1)]), helpers.path_tree(4)]
        for t in small + randoms:
            rv = root_at(t, center(t))
            children = [rv.children_of(u) for u in range(t.n)]
            seen = [v for u in range(t.n) for v in children[u]]
            assert sorted(seen) == sorted(set(range(t.n)) - set(rv.roots))
            for u in range(t.n):
                assert children[u] == sorted(children[u])
                for v in children[u]:
                    assert rv.parent[v] == u
            self._assert_blocks(rv)
        for t in randoms:
            for v in range(t.n):
                self._assert_blocks(root_at(t, v))

    @staticmethod
    def _assert_blocks(rv):
        """Each vertex's children are its block of order, as the parents
        name them; a leaf's block is empty, and the blocks, taken in BFS
        order, tile order after the roots."""
        by_parent = helpers.view_children(rv)
        tiled = []
        for u in rv.order:
            block = rv.order[rv.first[u] : rv.stop[u]]
            assert block == tuple(rv.children_of(u)) == by_parent[u]
            if not rv.heights[u]:
                assert block == ()
            tiled.extend(block)
        assert tuple(tiled) == rv.order[len(rv.roots) :]

    def test_depth_is_bfs_distance(self):
        for seed in range(20):
            t = random_tree(16, 4, seed)
            loc = center(t)
            rv = root_at(t, loc)
            dists = [helpers.bfs_dist(t, r) for r in rv.roots]
            for v in range(t.n):
                assert rv.depth[v] == min(d[v] for d in dists)


VIEW_FIELDS = ("roots", "parent", "depth", "order", "heights")


def _view_fields(rv) -> dict:
    """The view's fields, with each vertex's children as the view once
    kept them; the view itself keeps them as blocks of order instead."""
    assert not hasattr(rv, "children")
    return {name: getattr(rv, name) for name in VIEW_FIELDS} | {"children": helpers.view_children(rv)}


class TestCentered:
    """Tree.centered is the shared center-rooted view: equal to a fresh
    root_at(tree, center(tree)) and built once per tree."""

    @staticmethod
    def _assert_fresh_view(t):
        fresh = root_at(t, center(t))
        assert t.centered.n == t.n
        # the view keeps nothing of the tree but its vertex count
        assert not hasattr(t.centered, "adjacency")
        assert all(x is not t.nbrs and x is not t.offsets for x in vars(t.centered).values())
        assert _view_fields(t.centered) == _view_fields(fresh)

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 40), k=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_matches_fresh_rooting(self, n, k, seed):
        self._assert_fresh_view(random_tree(n, k, seed))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10])
    def test_paths_vertex_and_edge_centered(self, n):
        t = helpers.path_tree(n)
        self._assert_fresh_view(t)
        assert len(t.centered.roots) == len(center(t))
        assert t.centered.roots == center(t)

    def test_built_once_and_shared(self):
        t = helpers.complete_tree(3, 3)
        assert t.centered is t.centered

    def test_fields_equality_hash_repr_untouched(self):
        t = helpers.path_tree(4)
        twin = tree_from_edges([(2, 3), (0, 1), (1, 2)])
        before = repr(t)
        assert t.centered.roots == (1, 2)
        assert t == twin and hash(t) == hash(twin)
        assert repr(t) == before
        assert "centered" not in repr(t)

    def test_freed_by_reference_counting(self):
        # the view keeps n, not the tree, so a parsed, centered tree and its
        # view are freed when the last name goes, with no cyclic collection
        t = parse_edge_list("0 1\n1 2\n1 3\n3 4\n")
        assert t.centered.roots == (1, 3)
        ref = weakref.ref(t)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del t
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestOnePeel:
    """No call sequence peels a tree twice: the peel that validated it gives
    the center, a view at the center built before Tree.centered leaves it
    in place, and center() reads the centered view's roots once the tree
    has dropped it."""

    @pytest.fixture
    def peels(self, monkeypatch):
        calls = []
        original = tree_core._peel

        def counted(nbrs, offsets):
            calls.append(len(offsets) - 1)
            return original(nbrs, offsets)

        monkeypatch.setattr(tree_core, "_peel", counted)
        return calls

    def test_anchored_at_center_then_fix_report(self, peels):
        # center 0 has valence 2 < k - 1 = 3, so it may anchor
        t = tree_from_edges([(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8)])
        (anchor,) = center(t)
        fix_report(t, color_anchored(t, anchor))
        assert len(peels) == 1

    def test_random_tree_peeled_on_first_center(self, peels):
        # random_tree cannot make anything but a tree, so it is not peeled
        # until its center is asked for, and then once
        t = random_tree(50, 4, 3)
        assert peels == []
        assert center(t) == center(t) == helpers.reference_center(t)
        assert len(peels) == 1

    def test_centered_then_center(self, peels):
        t = random_tree(50, 4, 3)
        roots = t.centered.roots
        assert center(t) == roots
        assert sorted(vars(t)) == ["centered", "n", "nbrs", "offsets"]
        assert len(peels) == 1

    def test_cli_spine_on_star_centered_at_0(self, peels, tmp_path):
        path = tmp_path / "star.tree"
        path.write_text(format_edge_list(helpers.star_tree(5)), encoding="utf-8")
        peels.clear()
        assert main(["color", "-a", "spine", str(path)]) == 0
        assert len(peels) == 1

    def test_color_tree_rooted_at_center_then_fix_report(self, peels):
        t = helpers.complete_tree(4, 3)
        assert max_valence(t) >= 4
        coloring, _ = color_tree(t, 2)
        fix_report(t, coloring)
        assert len(peels) == 1


#: How a test tree is built: by random_tree or tree_from_edges (peeled as
#: it is validated), parsed from canonical text, or as a bare Tree (peeled
#: only when center() is called).
SOURCES = ("built", "parsed", "direct")


def _rebuilt(tree, source):
    if source == "parsed":
        return parse_edge_list(format_edge_list(tree))
    if source == "direct":
        return Tree(tree.n, tree.nbrs, tree.offsets)
    return tree


NAMED_TREES = {
    "single": lambda: tree_from_edges([], n=1),
    "edge": lambda: helpers.path_tree(2),
    "path3": lambda: helpers.path_tree(3),
    "path8": lambda: helpers.path_tree(8),
    "path9": lambda: helpers.path_tree(9),
    "star1": lambda: helpers.star_tree(1),
    "star5": lambda: helpers.star_tree(5),
    "spider3x4": lambda: helpers.spider_tree(3, 4),
    "spider2x3": lambda: helpers.spider_tree(2, 3),
    "caterpillar": lambda: helpers.caterpillar_tree(6, 2),
    **{
        f"fixture_{path.stem}": (lambda path=path: parse_edge_list(path.read_text()))
        for path in helpers.FIXTURES.glob("*.tree")
    },
}


def _outcome(build, *args):
    """A built tree, or the type and message of the error raised instead."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


MUTATIONS = ("self_loop", "duplicate", "reversed_duplicate", "drop", "negative", "over_count", "extra", "huge")
#: Ids the parser's array of machine ints holds last (2^63 - 1) or cannot hold.
HUGE_IDS = (2**63 - 1, 2**63, 2**64 + 1, 10**30)


@st.composite
def edge_lists(draw):
    """A random tree's edges, shuffled and flipped, then possibly broken:
    self-loops, repeated edges, missing, negative, too large or huge (past
    64 bits) ids, too few or too many edges; with no, the right or a wrong
    vertex count."""
    n = draw(st.integers(1, 14))
    t = random_tree(n, draw(st.integers(2, 5)), draw(st.integers(0, 10**6)))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in helpers.edges(t)]
    rnd.shuffle(edges)
    for op in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        i = rnd.randrange(len(edges)) if edges else None
        if op == "self_loop" and edges:
            x = rnd.randrange(n)
            edges[i] = (x, x)
        elif op == "duplicate" and edges:
            edges.insert(rnd.randrange(len(edges) + 1), edges[i])
            edges.pop(rnd.randrange(len(edges)))
        elif op == "reversed_duplicate" and edges:
            u, v = edges[i]
            edges.insert(rnd.randrange(len(edges) + 1), (v, u))
        elif op == "drop" and edges:
            edges.pop(i)
        elif op == "negative":
            edges.append((rnd.randrange(-2, n), -rnd.randint(1, 2)))
        elif op == "over_count" and edges:
            edges[i] = (edges[i][0], n + rnd.randrange(3))
        elif op == "extra":
            edges.append((rnd.randrange(n), rnd.randrange(n + 1)))
        elif op == "huge" and edges:
            edges[i] = (edges[i][0], rnd.choice(HUGE_IDS))
    declared = draw(st.sampled_from([None, None, n, n, n + 1, n - 1, 0]))
    return edges, declared


TOKENS = ("0", "1", "2", "3", "7", "-1", "x", "+2", "1_0", "#", "# n=3", "# n=x", "#n=2", "# n=", "# note", str(2**64))


@st.composite
def edge_list_texts(draw):
    """Edge-list text: a third exactly as format_edge_list writes it (the
    parser's bulk path), the rest a tree's lines with stray tokens, blank
    and comment lines, `# n=` headers (some malformed) and mixed line
    endings."""
    if draw(st.integers(0, 2)) == 0:
        n, k, seed = draw(st.integers(1, 14)), draw(st.integers(2, 5)), draw(st.integers(0, 10**6))
        return format_edge_list(random_tree(n, k, seed))
    edges, _ = draw(edge_lists())
    gaps = st.sampled_from([" ", "  ", "\t"])
    lines = [str(u) + draw(gaps) + str(v) for u, v in edges]
    for _ in range(draw(st.integers(0, 3))):
        words = draw(st.lists(st.sampled_from(TOKENS), max_size=3))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), pad + " ".join(words) + pad)
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n"]))


#: Texts in the canonical form, which parse_edge_list converts in bulk, and
#: texts one step off it, which it reads line by line.
BOUNDARY_TEXTS = [
    # canonical: the bulk path
    "",
    "# n=1\n",
    "# n=2\n",
    "0 1\n",
    "# n=3\n0 1\n1 2\n",
    "# n=3\n1 0\n2 1\n",
    "# n=4\n0 1\n1 2\n",
    "0 1\n1 0\n1 2\n2 3\n",
    "0 0\n0 1\n",
    "0 1\n1 2\n2 0\n",
    "0 1\n1 3\n3 4\n",
    "# n=2\n0 2000000\n",
    f"0 1\n1 {10**18 - 1}\n",
    # one step off the canonical form: the line-by-line path
    "# n=3\r\n0 1\r\n1 2\r\n",
    "0 1\r1 2\n",
    "0\t1\n1 2\n",
    "0  1\n1 2\n",
    "0 1 \n1 2\n",
    " 0 1\n1 2\n",
    "0 1\n1 2",
    "0 1\n\n1 2\n",
    "00 1\n1 2\n",
    "0 01\n1 2\n",
    "0 +1\n1 2\n",
    "0 1_0\n",
    "0 \u0661\n1 2\n",
    "0 \uff11\n",
    f"0 1\n1 {2**63}\n",
    f"0 1\n1 {10**18}\n",
    f"0 {10**30}\n",
    "0 -1\n",
    "# n=0\n",
    "# n=00\n0 1\n",
    "# n=x\n0 1\n",
    "#n=2\n0 1\n",
    "# n=2 \n0 1\n",
    "0 1\n# n=2\n",
    "0 1\n# note\n1 2\n",
    "# n=3\n# n=3\n0 1\n1 2\n",
    "0 1\n1 2\n\x0c",
]


def _parse_line_by_line(text: str):
    """parse_edge_list as it runs before Python 3.11, where _canonical_form
    is None and canonical text too is read line by line."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_core, "_canonical_form", lambda: None)
        return parse_edge_list(text)


class TestAgainstReference:
    """The tuned parser, validator and rooting match their straightforward
    reference versions (tests/helpers.py): the same Tree and view fields, or
    the same error type and message."""

    @settings(max_examples=400, deadline=None)
    @given(case=edge_lists())
    def test_tree_from_edges(self, case):
        edges, declared = case
        expected = _outcome(helpers.reference_tree_from_edges, list(edges), declared)
        assert _outcome(tree_from_edges, list(edges), declared) == expected

    @settings(max_examples=400, deadline=None)
    @given(text=edge_list_texts())
    def test_parse_edge_list(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(helpers.reference_parse_edge_list, text)

    @pytest.mark.parametrize(
        "edges, n, message",
        [
            ([(0, 1), (1, 1), (2, 3)], None, "self-loop at 1"),
            ([(0, 1), (1, 0), (2, 2), (2, 3)], 5, "duplicate edge (0, 1)"),
            ([(0, 1), (2, 2), (1, 0)], 4, "self-loop at 2"),
            ([(0, 1), (2, 3), (3, 2)], None, "duplicate edge (2, 3)"),
            ([(0, 1), (2, 3), (3, 4), (2, 4)], None, "disconnected: 2 of 5 vertices reachable from 0"),
            # n-1 edges: a cycle and a detached path, either holding vertex 0
            ([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)], None, "disconnected: 3 of 6 vertices reachable from 0"),
            ([(3, 4), (0, 1), (2, 5), (1, 3), (5, 6), (6, 2)], None, "disconnected: 4 of 7 vertices reachable from 0"),
            # a self-loop or a repeated edge first, in the middle and last
            ([(2, 2), (0, 1), (1, 2)], 4, "self-loop at 2"),
            ([(0, 1), (3, 3), (1, 2)], 4, "self-loop at 3"),
            ([(0, 1), (1, 2), (2, 2)], 4, "self-loop at 2"),
            ([(1, 0), (0, 1), (1, 2)], 4, "duplicate edge (0, 1)"),
            ([(0, 1), (2, 1), (1, 2), (3, 4)], 5, "duplicate edge (1, 2)"),
            ([(0, 1), (1, 2), (3, 4), (4, 3)], 5, "duplicate edge (3, 4)"),
        ],
    )
    def test_first_error_in_edge_order(self, edges, n, message):
        # self-loops and repeats are reported as the first of them in edge
        # order, self-loop before repeat, even though they are looked for
        # only once leaf peeling has stalled
        with pytest.raises(NotATree, match=f"^{re.escape(message)}$") as exc:
            tree_from_edges(edges, n)
        assert str(exc.value) == message
        assert _outcome(helpers.reference_tree_from_edges, edges, n) == (NotATree, message)

    @pytest.mark.parametrize("text", BOUNDARY_TEXTS)
    def test_parse_at_the_canonical_boundary(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(helpers.reference_parse_edge_list, text)

    @pytest.mark.parametrize("text", BOUNDARY_TEXTS)
    def test_line_by_line_at_the_canonical_boundary(self, text):
        expected = _outcome(helpers.reference_parse_edge_list, text)
        assert _outcome(_parse_line_by_line, text) == _outcome(parse_edge_list, text) == expected

    @settings(max_examples=400, deadline=None)
    @given(text=edge_list_texts())
    def test_parse_edge_list_line_by_line(self, text):
        expected = _outcome(helpers.reference_parse_edge_list, text)
        assert _outcome(_parse_line_by_line, text) == _outcome(parse_edge_list, text) == expected

    def test_canonical_form_is_what_is_written(self):
        # format_edge_list output, fixtures included, takes the bulk path,
        # and nothing the form excludes does
        for tree in [random_tree(300, 4, 2), *(f() for f in NAMED_TREES.values())]:
            assert _canonical_form().fullmatch(format_edge_list(tree))
        for text in ["0 1", "0 01\n", "# n=0\n", f"{2**63} 0\n", "1 2\r\n", "0 1\n# n=2\n", "0 \u0661\n"]:
            assert not _canonical_form().fullmatch(text)

    @settings(max_examples=200, deadline=None)
    @given(case=edge_lists())
    def test_parse_canonical_lines(self, case):
        # broken trees in the canonical form: the bulk path's errors are
        # the line-by-line path's
        edges, declared = case
        head = "" if declared is None else f"# n={declared}\n"
        text = head + "".join(f"{u} {v}\n" for u, v in edges)
        expected = _outcome(helpers.reference_parse_edge_list, text)
        assert _outcome(parse_edge_list, text) == expected
        assert _outcome(_parse_line_by_line, text) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(2, 6),
        seed=st.integers(0, 10**6),
        pick=st.integers(0, 10**6),
        kind=st.sampled_from(["center", "vertex", "edge"]),
        source=st.sampled_from(SOURCES),
    )
    def test_rooted_view_fields(self, n, k, seed, pick, kind, source):
        t = _rebuilt(random_tree(n, k, seed), source)
        # the center-rooted view takes its roots from the peel that
        # validated the tree (or, built directly, from the one center()
        # runs); every view computes its heights in a bottom-up pass
        expected = helpers.reference_view_fields(t, helpers.reference_center(t))
        assert _view_fields(t.centered) == expected
        if kind == "center":
            roots = center(t)
        elif kind == "vertex" or n == 1:
            roots = (pick % n,)
        else:
            u, v = helpers.edges(t)[pick % (n - 1)]
            roots = (v, u)
        rv = RootedView(t, roots)
        assert _view_fields(rv) == helpers.reference_view_fields(t, roots)


    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("name", sorted(NAMED_TREES))
    def test_centered_view_of_named_trees(self, name, source):
        t = _rebuilt(NAMED_TREES[name](), source)
        assert center(t) == helpers.reference_center(t)
        expected = helpers.reference_view_fields(t, helpers.reference_center(t))
        assert _view_fields(t.centered) == expected


def _assert_flat(tree, edges):
    """tree lays out exactly the given edges: its two arrays of machine
    ints have lengths 2(n-1) and n+1, and each vertex's block is its
    neighbours, ascending, as long as its degree, every edge stored at
    both of its ends."""
    n = tree.n
    assert (tree.nbrs.typecode, tree.offsets.typecode) == ("i", "i")
    assert (len(tree.nbrs), len(tree.offsets)) == (2 * (n - 1), n + 1)
    assert tree.offsets[0] == 0
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for v in range(n):
        block = list(tree.neighbors(v))
        assert block == sorted(set(block))
        assert len(block) == tree.degree(v) == degree[v]
        assert all(v in tree.neighbors(w) for w in block)
    assert list(tree.edges()) == sorted((min(u, v), max(u, v)) for u, v in edges)


#: sha256 of format_edge_list over random_tree at these (n, k, seed), in
#: order, as random_tree wrote them while it built a tuple per vertex
RANDOM_TREES = [(1, 2, 0), (2, 2, 1), (50, 2, 3), (1000, 3, 7), (4096, 8, 2**40 + 3), (20000, 5, 11)]
RANDOM_TREES_DIGEST = "c5f252d82d25d87df58628c3fa3b8f585ec23151a17e73255724c5c2be0b1295"


class TestFlatBuilder:
    """Both parser paths, tree_from_edges and random_tree lay a tree out as
    the two arrays, whatever the order and orientation of the edges."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 40),
        k=st.integers(2, 6),
        seed=st.integers(0, 10**6),
        rnd=st.randoms(use_true_random=False),
        header=st.booleans(),
    )
    def test_shuffled_relabelled_edges(self, n, k, seed, rnd, header):
        names = list(range(n))
        rnd.shuffle(names)
        edges = [(names[u], names[v]) for u, v in helpers.edges(random_tree(n, k, seed))]
        edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
        rnd.shuffle(edges)
        text = (f"# n={n}\n" if header or n == 1 else "") + "".join(f"{u} {v}\n" for u, v in edges)
        for build in (parse_edge_list, _parse_line_by_line):
            _assert_flat(build(text), edges)
        _assert_flat(tree_from_edges(edges, n), edges)

    @pytest.mark.parametrize("name", sorted(NAMED_TREES))
    def test_named_trees(self, name):
        t = NAMED_TREES[name]()
        _assert_flat(t, helpers.edges(t))

    def test_random_tree_blocks(self):
        for n, k, seed in RANDOM_TREES:
            t = random_tree(n, k, seed)
            _assert_flat(t, list(t.edges()))

    @pytest.mark.parametrize("build", [parse_edge_list, _parse_line_by_line])
    def test_format_round_trip_bytes(self, build):
        for t in [random_tree(300, 4, 2), random_tree(500, 2, 9), *(f() for f in NAMED_TREES.values())]:
            text = format_edge_list(t)
            again = build(text)
            assert again == t
            assert format_edge_list(again) == text

    def test_random_tree_digest(self):
        digest = hashlib.sha256()
        for n, k, seed in RANDOM_TREES:
            digest.update(format_edge_list(random_tree(n, k, seed)).encode())
        assert digest.hexdigest() == RANDOM_TREES_DIGEST

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), k=st.integers(2, 5), seed=st.integers(0, 10**6), rnd=st.randoms(use_true_random=False))
    def test_twins_equal_and_hash_equal(self, n, k, seed, rnd):
        # a Tree hashes its arrays' bytes, as an array has no hash
        t = random_tree(n, k, seed)
        edges = helpers.edges(t)
        rnd.shuffle(edges)
        text = format_edge_list(t)
        twins = [
            t,
            parse_edge_list(text),
            _parse_line_by_line(text),
            tree_from_edges(edges, n),
            helpers.reference_tree_from_edges(edges, n),
            Tree(n, array("i", t.nbrs), array("i", t.offsets)),
        ]
        assert all(twin == t for twin in twins)
        assert len(set(twins)) == 1
        assert {hash(twin) for twin in twins} == {hash(t)}


class TestSubtree:
    def test_path_subtree(self):
        rv = root_at(helpers.path_tree(5), 2)
        assert set(rv.subtree(1)) == {1, 0}

    def test_root_subtree_is_everything(self):
        t = helpers.star_tree(3)
        rv = root_at(t, 0)
        assert set(rv.subtree(0)) == {0, 1, 2, 3}

    def test_leaf_subtree(self):
        rv = root_at(helpers.path_tree(5), 2)
        assert rv.subtree(4) == [4]


class TestSubtreeHeight:
    def test_leaf(self):
        rv = root_at(helpers.path_tree(5), 2)
        assert rv.heights[0] == 0

    def test_path_child(self):
        rv = root_at(helpers.path_tree(5), 2)
        assert rv.heights[1] == 1

    def test_complete_tree_child_of_root(self):
        t = helpers.complete_tree(3, 3)
        rv = root_at(t, center(t))
        child = helpers.view_children(rv)[rv.roots[0]][0]
        # independent oracle: deepest leaf of the subtree by plain BFS
        dist = helpers.bfs_dist(t, child)
        sub = set(rv.subtree(child))
        expected = max(dist[w] for w in sub if t.degree(w) == 1)
        assert expected == 2
        assert rv.heights[child] == expected

    def test_heights_match_bfs_oracle_everywhere(self):
        for seed in range(15):
            t = random_tree(20, 4, seed)
            rv = root_at(t, center(t))
            for u in range(t.n):
                sub = rv.subtree(u)
                dist = helpers.bfs_dist(t, u)
                childless = [w for w in sub if not helpers.view_children(rv)[w]]
                assert rv.heights[u] == max(dist[w] for w in childless)


class TestDistanceCondition:
    def test_zero_radius_always_true(self):
        rv = root_at(helpers.path_tree(5), 2)
        r = helpers.ReferenceRadius("zero")
        assert all(r.admits(rv.heights[u]) for u in range(5))
        assert all(rv.heights[u] >= fix_radius(5, 2) for u in range(5))

    def test_c3_k10(self):
        r = helpers.reference_radius(3, 10)
        assert r.argument == 4 and r.offset == 0
        assert r.admits(2)
        assert not r.admits(1)
        assert fix_radius(3, 10) == 2

    def test_c2_k4(self):
        r = helpers.reference_radius(2, 4)
        assert r.argument == 3 and r.offset == 1
        assert r.admits(3)  # 2^2 = 4 >= 3
        assert not r.admits(2)  # 2^1 = 2 < 3
        assert fix_radius(2, 4) == 3

    def test_monotone_in_depth(self):
        for k in range(2, 17):
            for c in range(2, k + 1):
                r = helpers.reference_radius(c, k)
                admitted = [r.admits(d) for d in range(13)]
                first = admitted.index(True)
                assert all(admitted[first:])
                assert not any(admitted[:first])

    def test_integer_vs_high_precision_log(self):
        mpmath.mp.dps = 50
        for k in range(2, 17):
            for c in range(2, k + 1):
                r = helpers.reference_radius(c, k)
                if r.kind == "zero":
                    real = mpmath.mpf(0)
                elif r.kind == "one":
                    real = mpmath.mpf(1)
                else:
                    real = mpmath.log(r.argument) / mpmath.log(r.base) + r.offset
                for d in range(13):
                    assert r.admits(d) == (d >= real - mpmath.mpf("1e-30"))
                    assert (d >= fix_radius(c, k)) == (d >= real - mpmath.mpf("1e-30"))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_integer_threshold_matches_exact_power_form(self, data):
        k = data.draw(st.integers(0, 300), label="k")
        c = data.draw(st.integers(2, k + 2), label="c")
        # thresholds for k <= 300 are at most 10, so half the draws stay
        # near them; the rest cover large exponents
        d = data.draw(st.one_of(st.integers(0, 16), st.integers(0, 3000)), label="d")
        assert (d >= fix_radius(c, k)) == helpers.reference_admits(c, k, d)

    def test_integer_threshold_matches_at_the_boundary(self):
        # the property's random d rarely lands next to the threshold, so
        # check both sides of it for every (c, k) of the property's range
        for k in range(0, 301):
            for c in range(2, k + 3):
                r = fix_radius(c, k)
                assert helpers.reference_admits(c, k, r)
                assert r == 0 or not helpers.reference_admits(c, k, r - 1)


class TestRandomTree:
    def test_single_vertex(self):
        assert random_tree(1, 3, 5).n == 1

    def test_valence_bound(self):
        t = random_tree(20, 3, 7)
        assert t.n == 20
        assert max_valence(t) <= 3

    def test_deterministic(self):
        assert helpers.edges(random_tree(20, 3, 7)) == helpers.edges(random_tree(20, 3, 7))

    def test_infeasible(self):
        with pytest.raises(BadParams, match="^no tree on 10 vertices with max degree 1$"):
            random_tree(10, 1, 0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_matches_randrange_loop(self, seed):
        # the parents are drawn from getrandbits as randrange(v) draws them
        for n in range(1, 65):
            for k in range(2, 10):
                assert random_tree(n, k, seed) == helpers.reference_random_tree(n, k, seed), (n, k)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 2000), k=st.integers(2, 9), seed=st.integers(0, 2**64))
    def test_matches_randrange_loop_large(self, n, k, seed):
        assert random_tree(n, k, seed) == helpers.reference_random_tree(n, k, seed)

    def test_gen_bytes_pinned(self, tmp_path):
        # the sha256 of `treedist gen -n 20000 -k 8 -s 0`, recorded while
        # random_tree still called randrange
        out = tmp_path / "t.tree"
        assert main(["gen", "-n", "20000", "-k", "8", "-s", "0", "-o", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "f9dc6e4b33ab987084683a3f3666b32374f2a23dc65d0f46742e91c2cdc3db4a"

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30), k=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_is_a_tree(self, n, k, seed):
        t = random_tree(n, k, seed)
        assert len(helpers.edges(t)) == t.n - 1
        assert all(d >= 0 for d in helpers.bfs_dist(t, 0))
        assert max_valence(t) <= max(k, 1)


def test_tree_equality_and_edges():
    t = helpers.path_tree(4)
    assert helpers.edges(t) == [(0, 1), (1, 2), (2, 3)]
    assert t == tree_from_edges([(2, 3), (0, 1), (1, 2)])
