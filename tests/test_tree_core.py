from __future__ import annotations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedist import (
    CenterKind,
    FixRadius,
    RadiusKind,
    center,
    fix_radius,
    format_edge_list,
    max_valence,
    parse_edge_list,
    random_tree,
    root_at,
    tree_from_edges,
)
from treedist.errors import (
    BadFormat,
    InfeasibleParams,
    NonContiguousIds,
    NotATree,
    VertexOutOfRange,
)

import helpers


class TestParseEdgeList:
    def test_path3(self):
        t = parse_edge_list("0 1\n1 2")
        assert t.n == 3
        assert t.adjacency == ((1,), (0, 2), (1,))

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
        assert t.adjacency == ((),)

    def test_disconnected(self):
        with pytest.raises(NotATree):
            parse_edge_list("0 1\n2 3")

    def test_cycle(self):
        with pytest.raises(NotATree):
            parse_edge_list("0 1\n1 2\n2 0")

    def test_duplicate_edge(self):
        with pytest.raises(NotATree):
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

    def test_non_contiguous_ids(self):
        with pytest.raises(NonContiguousIds):
            parse_edge_list("0 1\n1 3\n3 4")

    def test_round_trip(self):
        t = helpers.load_fixture("glued_stars")
        again = parse_edge_list(format_edge_list(t))
        assert again == t


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
        assert loc.kind is CenterKind.VERTEX
        assert loc.vertices == (2,)

    def test_even_path_middle_edge(self):
        loc = center(helpers.path_tree(4))
        assert loc.kind is CenterKind.EDGE
        assert loc.vertices == (1, 2)

    def test_star(self):
        loc = center(helpers.star_tree(3))
        assert loc.kind is CenterKind.VERTEX
        assert loc.vertices == (0,)

    def test_edge_center_is_adjacent(self):
        for seed in range(30):
            t = random_tree(14, 4, seed)
            loc = center(t)
            if loc.kind is CenterKind.EDGE:
                a, b = loc.vertices
                assert b in t.adjacency[a]


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
        assert 2 not in rv.children[1] and 1 not in rv.children[2]

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            root_at(helpers.path_tree(3), 7)

    def test_children_partition_and_parent_inverts(self):
        for seed in range(20):
            t = random_tree(18, 5, seed)
            rv = root_at(t, center(t))
            seen = [v for u in range(t.n) for v in rv.children[u]]
            assert sorted(seen) == sorted(set(range(t.n)) - set(rv.roots))
            for u in range(t.n):
                for v in rv.children[u]:
                    assert rv.parent[v] == u

    def test_depth_is_bfs_distance(self):
        for seed in range(20):
            t = random_tree(16, 4, seed)
            loc = center(t)
            rv = root_at(t, loc)
            dists = [helpers.bfs_dist(t, r) for r in rv.roots]
            for v in range(t.n):
                assert rv.depth[v] == min(d[v] for d in dists)


VIEW_FIELDS = ("roots", "parent", "depth", "children", "order", "heights")


class TestCentered:
    """Tree.centered is the shared center-rooted view: equal to a fresh
    root_at(tree, center(tree)) and built once per tree."""

    @staticmethod
    def _assert_fresh_view(t):
        fresh = root_at(t, center(t))
        assert t.centered.tree is t
        for name in VIEW_FIELDS:
            assert getattr(t.centered, name) == getattr(fresh, name), name

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 40), k=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_matches_fresh_rooting(self, n, k, seed):
        self._assert_fresh_view(random_tree(n, k, seed))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10])
    def test_paths_vertex_and_edge_centered(self, n):
        t = helpers.path_tree(n)
        self._assert_fresh_view(t)
        assert len(t.centered.roots) == len(center(t).vertices)
        assert (len(t.centered.roots) == 2) == (center(t).kind is CenterKind.EDGE)

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
        child = rv.children[rv.roots[0]][0]
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
                childless = [w for w in sub if not rv.children[w]]
                assert rv.heights[u] == max(dist[w] for w in childless)


class TestDistanceCondition:
    def test_zero_radius_always_true(self):
        rv = root_at(helpers.path_tree(5), 2)
        r = FixRadius(RadiusKind.ZERO)
        assert all(r.admits(rv.heights[u]) for u in range(5))

    def test_c3_k10(self):
        r = fix_radius(3, 10)
        assert r.argument == 4 and r.offset == 0
        assert r.admits(2)
        assert not r.admits(1)

    def test_c2_k4(self):
        r = fix_radius(2, 4)
        assert r.argument == 3 and r.offset == 1
        assert r.admits(3)  # 2^2 = 4 >= 3
        assert not r.admits(2)  # 2^1 = 2 < 3

    def test_monotone_in_depth(self):
        for k in range(2, 17):
            for c in range(2, k + 1):
                r = fix_radius(c, k)
                admitted = [r.admits(d) for d in range(13)]
                first = admitted.index(True)
                assert all(admitted[first:])
                assert not any(admitted[:first])

    def test_integer_vs_high_precision_log(self):
        mpmath.mp.dps = 50
        for k in range(2, 17):
            for c in range(2, k + 1):
                r = fix_radius(c, k)
                if r.kind is RadiusKind.ZERO:
                    real = mpmath.mpf(0)
                elif r.kind is RadiusKind.ONE:
                    real = mpmath.mpf(1)
                else:
                    real = mpmath.log(r.argument) / mpmath.log(r.base) + r.offset
                for d in range(13):
                    assert r.admits(d) == (d >= real - mpmath.mpf("1e-30"))


class TestRandomTree:
    def test_single_vertex(self):
        assert random_tree(1, 3, 5).n == 1

    def test_valence_bound(self):
        t = random_tree(20, 3, 7)
        assert t.n == 20
        assert max_valence(t) <= 3

    def test_deterministic(self):
        assert random_tree(20, 3, 7).edges() == random_tree(20, 3, 7).edges()

    def test_infeasible(self):
        with pytest.raises(InfeasibleParams):
            random_tree(10, 1, 0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30), k=st.integers(2, 6), seed=st.integers(0, 10**6))
    def test_is_a_tree(self, n, k, seed):
        t = random_tree(n, k, seed)
        assert len(t.edges()) == t.n - 1
        assert all(d >= 0 for d in helpers.bfs_dist(t, 0))
        assert max_valence(t) <= max(k, 1)


def test_tree_equality_and_edges():
    t = helpers.path_tree(4)
    assert t.edges() == [(0, 1), (1, 2), (2, 3)]
    assert t == tree_from_edges([(2, 3), (0, 1), (1, 2)])
