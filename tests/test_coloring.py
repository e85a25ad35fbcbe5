from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedist import (
    balanced_colors,
    center,
    color_anchored,
    color_near_distinguishing,
    color_regular,
    color_spine,
    color_tree,
    enumerate_automorphisms,
    fix_radius,
    fix_report,
    longest_spine,
    lsb_digits,
    max_valence,
    random_tree,
    root_at,
    tree_from_edges,
)
from treedist.errors import BadParams

import helpers
from helpers import radius_bound, reference_radius


def digits(coloring, line):
    """The digit string a main line spells: the colors below its anchor."""
    return tuple(coloring.colors[v] for v in line[1:])


class TestFixRadius:
    def test_zero_when_colors_match_valence(self):
        assert reference_radius(5, 5).kind == "zero"
        assert fix_radius(5, 5) == 0

    def test_one_when_one_color_short(self):
        assert reference_radius(3, 4).kind == "one"
        assert fix_radius(3, 4) == 1

    def test_log_form_c3_k10(self):
        r = reference_radius(3, 10)
        assert r.kind == "log"
        assert (r.base, r.argument, r.offset) == (3, 4, 0)

    def test_log_form_c2_has_offset(self):
        r = reference_radius(2, 4)
        assert (r.base, r.argument, r.offset) == (2, 3, 1)

    def test_case_trichotomy(self):
        for k in range(0, 17):
            for c in range(2, 18):
                r = reference_radius(c, k)
                if k <= 2 or c >= k:
                    assert r.kind == "zero"
                    assert fix_radius(c, k) == 0
                elif c == k - 1:
                    assert r.kind == "one"
                    assert fix_radius(c, k) == 1
                else:
                    assert r.kind == "log"
                    assert 2 <= c <= k - 2 and k >= 4
                    assert r.offset == (1 if c == 2 else 0)

    def test_bad_params(self):
        with pytest.raises(BadParams, match="^need at least 2 colors$"):
            fix_radius(1, 5)


class TestCeilFixRadius:
    @pytest.mark.parametrize(
        "c,k,expected",
        [(2, 4, 3), (2, 7, 4), (2, 11, 5), (3, 8, 1), (3, 9, 2), (4, 14, 1), (4, 15, 2)],
    )
    def test_reference_values(self, c, k, expected):
        assert fix_radius(c, k) == expected

    def test_matches_smallest_admitted_depth(self):
        for k in range(2, 17):
            for c in range(2, k + 1):
                r = reference_radius(c, k)
                smallest = next(d for d in range(0, 20) if r.admits(d))
                assert fix_radius(c, k) == smallest


class TestRadiusBound:
    def test_c2_k4(self):
        # independent search against the printed inequality k <= 2^(r-1)
        expected = next(r for r in range(1, 10) if 4 <= 2 ** (r - 1))
        assert expected == 3
        assert radius_bound(2, 4) == expected

    def test_c3_k9(self):
        expected = next(r for r in range(0, 10) if 9 <= 3**r * 2 + 2)
        assert expected == 2
        assert radius_bound(3, 9) == expected

    def test_equal_colors(self):
        for k in range(2, 10):
            assert radius_bound(k, k) == 0

    def test_one_short(self):
        for k in range(3, 10):
            assert radius_bound(k - 1, k) == 1

    def test_dominates_exact_ceiling(self):
        for k in range(2, 17):
            for c in range(2, k + 1):
                assert fix_radius(c, k) <= radius_bound(c, k)

    def test_bad_params(self):
        with pytest.raises(BadParams, match=r"^need 2 <= colors <= max_degree, got \(5, 4\)$"):
            radius_bound(5, 4)


class TestBalancedColors:
    def test_pairs_four_slots(self):
        assert balanced_colors(4, [1, 2], pairs_required=True) == [1, 1, 2, 2]

    def test_pairs_five_slots(self):
        out = balanced_colors(5, [1, 2], pairs_required=True)
        assert out == [1, 1, 2, 2, 1]
        assert max(out.count(c) for c in set(out)) == 3

    def test_plain_round_robin(self):
        assert balanced_colors(3, [0, 1, 2]) == [0, 1, 2]
        assert balanced_colors(10, [0, 1, 2]) == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_pairs_every_used_color_twice(self):
        for t in range(2, 13):
            for j in range(1, 7):
                out = balanced_colors(t, list(range(j)), pairs_required=True)
                counts = [out.count(c) for c in set(out)]
                assert all(cnt >= 2 for cnt in counts)
                assert min(counts, default=0) >= 2
                assert max(counts) <= max(3, -(t // -j))

    def test_pairs_achieve_exhaustive_minimum(self):
        from helpers import paired_class_minimax

        for t in range(2, 13):
            for j in range(1, 7):
                out = balanced_colors(t, list(range(j)), pairs_required=True)
                assert max(out.count(c) for c in set(out)) == paired_class_minimax(t, j)

    def test_bad_params(self):
        with pytest.raises(BadParams, match="^count must be >= 1$"):
            balanced_colors(0, [0])
        with pytest.raises(BadParams, match="^palette must be nonempty$"):
            balanced_colors(3, [])
        with pytest.raises(BadParams, match="^pairs_required needs at least 2 slots$"):
            balanced_colors(1, [0, 1], pairs_required=True)


class TestLsbDigits:
    def test_base2(self):
        assert lsb_digits(3, 5, 2) == [1, 1, 0, 0, 0]

    def test_base3(self):
        assert lsb_digits(3, 5, 3) == [0, 1, 0, 0, 0]

    def test_zero_index(self):
        assert lsb_digits(0, 4, 2) == [0, 0, 0, 0]
        assert lsb_digits(0, 4, 7) == [0, 0, 0, 0]

    def test_overflow(self):
        with pytest.raises(BadParams, match="^index 8 does not fit in 3 base-2 digits$"):
            lsb_digits(8, 3, 2)
        assert lsb_digits(7, 3, 2) == [1, 1, 1]


def guaranteed_vertices(tree, num_colors):
    rv = root_at(tree, center(tree))
    radius = reference_radius(num_colors, max_valence(tree))
    return {u for u in range(tree.n) if radius.admits(rv.heights[u])}


class TestColorTreeMain:
    def test_path_everything_fixed(self):
        for n in (1, 2, 5, 10):
            t = helpers.path_tree(n)
            for c in (2, 3):
                coloring, _ = color_tree(t, c)
                assert fix_report(t, coloring).fixed_set() == set(range(n))

    def test_hub10_scenario(self):
        t = helpers.load_fixture("hub10_tails2")
        coloring, trace = color_tree(t, 3)
        rv = root_at(t, center(t))
        assert rv.roots == (0,)
        sphere1 = [v for v in range(t.n) if rv.depth[v] == 1]
        # balanced classes of size at most 4 on the hub's children
        counts = {}
        for v in sphere1:
            counts[coloring.colors[v]] = counts.get(coloring.colors[v], 0) + 1
        assert sorted(counts.values(), reverse=True) == [4, 3, 3]
        # the size-4 class is separated by lines of two digits: 00, 10, 20, 01
        groups = {len(g) for g in trace.line_groups}
        assert groups == {3, 4}
        big = next(g for g in trace.line_groups if len(g) == 4)
        assert [digits(coloring, line) for line in big] == [(0, 0), (1, 0), (2, 0), (0, 1)]
        assert all(len(line) == 3 for line in trace.main_lines)  # anchor + 2 digits
        rep = fix_report(t, coloring)
        assert all(rep.fixed[v] for v in sphere1)
        assert guaranteed_vertices(t, 3) <= rep.fixed_set()

    def test_complete_1_4_depth3_two_colors(self):
        t = helpers.load_fixture("complete_1_4_depth3")
        assert fix_radius(2, 4) == 3
        coloring, _ = color_tree(t, 2)
        rep = fix_report(t, coloring)
        assert guaranteed_vertices(t, 2) <= rep.fixed_set()

    def test_case2_groups_stay_within_sequence_capacity(self):
        # k = 8, c = 3: a main-line vertex with six further branches forces the
        # paired coloring, whose classes of 3 must fit one base-3 digit
        edges = []
        nxt = 1
        for _ in range(8):
            a = nxt
            edges.append((0, a))
            nxt += 1
            deep = [nxt, nxt + 1, nxt + 2]
            edges += [(a, deep[0]), (deep[0], deep[1]), (deep[1], deep[2])]
            nxt += 3
            for _ in range(6):
                s = nxt
                edges += [(a, s), (s, nxt + 1)]
                nxt += 2
        t = tree_from_edges(edges, n=nxt)
        assert max_valence(t) == 8
        coloring, trace = color_tree(t, 3)
        rep = fix_report(t, coloring)
        assert guaranteed_vertices(t, 3) <= rep.fixed_set()
        assert any(rule == "step4_case2" for rule in trace.rules)
        assert max(len(g) for g in trace.line_groups) <= 3

    def test_deterministic(self):
        t = random_tree(35, 6, 11)
        a = color_tree(t, 3)
        b = color_tree(t, 3)
        assert a[0] == b[0]
        assert a[1].to_json_dict() == b[1].to_json_dict()

    def test_trace_covers_every_vertex_once(self):
        t = helpers.load_fixture("hub10_tails2")
        _, trace = color_tree(t, 3)
        assert len(trace.rules) == t.n
        assert all(rule for rule in trace.rules)

    def test_bad_params(self):
        with pytest.raises(BadParams, match="^need at least 2 colors$"):
            color_tree(helpers.path_tree(3), 1)

    def test_mini_guarantee_campaign(self):
        rng = random.Random(7)
        checked = 0
        for seed in range(150):
            t = random_tree(rng.randint(2, 30), rng.randint(3, 8), seed)
            kv = max_valence(t)
            if kv < 2:
                continue
            for c in range(2, kv + 1):
                coloring, trace = color_tree(t, c)
                rep = fix_report(t, coloring)
                assert guaranteed_vertices(t, c) <= rep.fixed_set(), (seed, t.n, kv, c)
                checked += 1
                self._check_trace_properties(t, c, kv, coloring, trace)
        assert checked > 300

    @staticmethod
    def _check_trace_properties(t, c, kv, coloring, trace):
        seen = set()
        for group in trace.line_groups:
            seqs = [digits(coloring, line) for line in group]
            assert len(set(seqs)) == len(seqs)  # pairwise distinct sequences
            for line in group:
                for v in line:
                    assert v not in seen  # lines are vertex-disjoint
                    seen.add(v)
        if c <= kv - 2:
            # largest same-colored sibling group meeting the distance condition
            bound = max(3, -((kv - 2) // -(c - 1)))
            if trace.line_groups:
                assert max(len(g) for g in trace.line_groups) <= bound
            rv = root_at(t, center(t))
            radius = reference_radius(c, kv)
            children = helpers.view_children(rv)
            for p in range(t.n):
                counts = {}
                for x in children[p]:
                    if radius.admits(rv.heights[x]):
                        counts[coloring.colors[x]] = counts.get(coloring.colors[x], 0) + 1
                assert all(v <= bound for v in counts.values()), (p, counts)


def _three_arm_tree(branch_size: int, member_chain: int = 0):
    """Root with three identical deep arms plus two pendant leaves; each arm's
    level-1 vertex carries an off-line subtree: a chain, then `branch_size`
    siblings, each continued by a chain of `member_chain`."""
    edges = []
    nxt = 1
    for _ in range(3):
        arm = nxt
        edges.append((0, arm))
        nxt += 1
        x1 = nxt
        edges.append((arm, x1))
        nxt += 1
        prev = x1
        for _ in range(4):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        y = nxt
        edges.append((x1, y))
        nxt += 1
        y1 = nxt
        edges.append((y, y1))
        nxt += 1
        for _ in range(branch_size):
            member = nxt
            edges.append((y1, member))
            nxt += 1
            prev = member
            for _ in range(member_chain):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
    for _ in range(2):
        edges.append((0, nxt))
        nxt += 1
    return tree_from_edges(edges, n=nxt)


class TestStepFourVariants:
    """Directed constructions for the branches random trees rarely reach."""

    @staticmethod
    def _assert_guarantee(t, c, coloring):
        rep = fix_report(t, coloring)
        assert guaranteed_vertices(t, c) <= rep.fixed_set()

    @staticmethod
    def _tags(trace):
        from collections import Counter

        return Counter(rule.split("[")[0] for rule in trace.rules)

    def test_two_color_no_branch_chain(self):
        t = _three_arm_tree(branch_size=0)
        coloring, trace = color_tree(t, 2)
        tags = self._tags(trace)
        assert tags["step4_case1"] == 2
        assert tags["step4_case1_no_branch"] == 2
        self._assert_guarantee(t, 2, coloring)

    def test_two_color_small_branching_all_ones(self):
        t = _three_arm_tree(branch_size=3)
        coloring, trace = color_tree(t, 2)
        tags = self._tags(trace)
        assert tags["step4_case1"] == 10  # 2 lines: y, chain vertex, 3 branch members
        children = helpers.view_children(root_at(t, center(t)))
        for group in trace.line_groups:
            for line in group:
                off = [x for x in children[line[1]] if x != line[2]]
                (y,) = off
                branch = children[children[y][0]]
                assert all(coloring.colors[b] == 1 for b in branch)
        self._assert_guarantee(t, 2, coloring)

    def test_two_color_wide_branching_balanced(self):
        t = _three_arm_tree(branch_size=4)
        coloring, trace = color_tree(t, 2)
        children = helpers.view_children(root_at(t, center(t)))
        found = 0
        for group in trace.line_groups:
            for line in group:
                off = [x for x in children[line[1]] if x != line[2]]
                (y,) = off
                branch = children[children[y][0]]
                assert [coloring.colors[b] for b in branch] == [0, 1, 0, 1]
                found += 1
        assert found == 2
        self._assert_guarantee(t, 2, coloring)

    def test_two_color_rework_lines_inside_offline_subtree(self):
        # deep branch members satisfy the distance condition, so the sweep must
        # separate them with further main lines after step 4
        t = _three_arm_tree(branch_size=4, member_chain=3)
        coloring, trace = color_tree(t, 2)
        tags = self._tags(trace)
        assert tags["main_line"] > 6
        self._assert_guarantee(t, 2, coloring)

    def test_three_color_shift_on_lone_sibling(self):
        # k=5, c=3: a line vertex with exactly two children colors the off-line
        # child one step past the on-line digit
        edges = []
        nxt = 1
        for _ in range(4):
            arm = nxt
            edges.append((0, arm))
            nxt += 1
            deep = nxt
            edges.append((arm, deep))
            nxt += 1
            edges.append((deep, nxt))
            nxt += 1
            edges.append((arm, nxt))  # shallow off-line leaf
            nxt += 1
        edges.append((0, nxt))
        nxt += 1
        t = tree_from_edges(edges, n=nxt)
        assert max_valence(t) == 5
        coloring, trace = color_tree(t, 3)
        children = helpers.view_children(root_at(t, center(t)))
        assert trace.line_groups
        shifts = 0
        for line in trace.main_lines:
            anchor, on_line = line[0], line[1]
            for x in children[anchor]:
                if x != on_line:
                    assert coloring.colors[x] == (coloring.colors[on_line] + 1) % 3
                    shifts += 1
        assert shifts >= 2
        self._assert_guarantee(t, 3, coloring)

    def test_edge_center_roots_colored_apart(self):
        # two identical halves joined by a central edge, c <= k-2
        half_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (0, 7), (7, 8), (8, 9)]
        edges = list(half_edges)
        offset = 10
        edges += [(u + offset, v + offset) for u, v in half_edges]
        edges.append((0, offset))
        t = tree_from_edges(edges, n=20)
        loc = center(t)
        assert loc == (0, 10)
        for c in range(2, max_valence(t) + 1):
            coloring, _ = color_tree(t, c)
            assert coloring.colors[0] != coloring.colors[10]
            self._assert_guarantee(t, c, coloring)


class TestSymmetricFamilies:
    """Guarantee checks on worst-case symmetric shapes, every admissible c."""

    def test_complete_trees_all_colors(self):
        for k in (3, 4, 5, 6):
            for depth in (1, 2, 3):
                t = helpers.complete_tree(k, depth)
                for c in range(2, k + 1):
                    coloring, _ = color_tree(t, c)
                    assert guaranteed_vertices(t, c) <= fix_report(t, coloring).fixed_set(), (
                        k,
                        depth,
                        c,
                    )

    def test_mirrored_halves_all_colors(self):
        half = helpers.complete_tree(4, 3)
        edges = helpers.edges(half)
        edges += [(u + half.n, v + half.n) for u, v in helpers.edges(half)]
        edges.append((0, half.n))
        t = tree_from_edges(edges, n=2 * half.n)
        for c in range(2, max_valence(t) + 1):
            coloring, _ = color_tree(t, c)
            assert guaranteed_vertices(t, c) <= fix_report(t, coloring).fixed_set(), c

    def test_spider_with_identical_arms(self):
        edges, nxt = [], 1
        for _ in range(8):
            a = nxt
            edges.append((0, a))
            nxt += 1
            b = nxt
            edges.append((a, b))
            nxt += 1
            tip = nxt
            edges.append((b, tip))
            nxt += 1
            edges += [(b, nxt), (b, nxt + 1), (tip, nxt + 2)]
            nxt += 3
        t = tree_from_edges(edges, n=nxt)
        for c in range(2, max_valence(t) + 1):
            coloring, _ = color_tree(t, c)
            assert guaranteed_vertices(t, c) <= fix_report(t, coloring).fixed_set(), c

    def test_near_distinguishing_full_valence_centers(self):
        from treedist import verify_near_distinguishing

        for k in (3, 4, 5):
            for depth in (1, 2, 3):
                t = helpers.complete_tree(k, depth)
                assert verify_near_distinguishing(t, color_near_distinguishing(t)).passed


class TestColorAnchored:
    def test_star_anchor_leaf(self):
        t = helpers.star_tree(3)
        coloring = color_anchored(t, 1, max_degree=4)
        autos = enumerate_automorphisms(t, coloring)
        assert all(a == tuple(range(4)) for a in autos if a[1] == 1)

    def test_path_end(self):
        t = helpers.path_tree(4)
        coloring = color_anchored(t, 0)
        autos = enumerate_automorphisms(t, coloring)
        assert [a for a in autos if a[0] == 0] == [tuple(range(4))]

    def test_single_vertex(self):
        assert color_anchored(tree_from_edges([], n=1), 0).colors == (0,)

    def test_anchor_valence_too_high(self):
        with pytest.raises(BadParams, match="^anchor valence 3 must be <= 2$"):
            color_anchored(helpers.star_tree(3), 0, max_degree=3)

    def test_random_stabilizers_broken(self):
        rng = random.Random(31)
        for seed in range(40):
            t = random_tree(rng.randint(2, 10), 4, seed)
            k = max_valence(t)
            anchors = [v for v in range(t.n) if t.degree(v) <= k - 1]
            if not anchors:
                continue
            v = anchors[rng.randrange(len(anchors))]
            coloring = color_anchored(t, v, max_degree=k)
            identity = tuple(range(t.n))
            for a in enumerate_automorphisms(t, coloring):
                if a[v] == v:
                    assert a == identity


class TestColorNearDistinguishing:
    def test_glued_stars_leaves_one_pair(self):
        t = helpers.load_fixture("glued_stars")
        coloring = color_near_distinguishing(t)
        assert coloring.num_colors == 2
        unfixed = fix_report(t, coloring).unfixed_set()
        assert len(unfixed) == 2
        a, b = sorted(unfixed)
        assert t.degree(a) == 1 and t.degree(b) == 1
        assert set(t.adjacency[a]) == set(t.adjacency[b])

    def test_p3_monochromatic_pair(self):
        t = helpers.path_tree(3)
        coloring = color_near_distinguishing(t)
        assert coloring.num_colors == 1
        assert fix_report(t, coloring).unfixed_set() == {0, 2}

    def test_star_full_valence(self):
        t = helpers.star_tree(4)
        coloring = color_near_distinguishing(t)
        assert coloring.num_colors == 3
        unfixed = sorted(fix_report(t, coloring).unfixed_set())
        assert len(unfixed) == 2
        assert all(t.degree(v) == 1 for v in unfixed)

    def test_random_trees_leave_at_most_one_leaf_pair(self):
        rng = random.Random(13)
        checked = 0
        for seed in range(120):
            t = random_tree(rng.randint(3, 20), rng.randint(3, 6), seed)
            if max_valence(t) < 3:
                continue
            coloring = color_near_distinguishing(t)
            unfixed = sorted(fix_report(t, coloring).unfixed_set())
            assert len(unfixed) in (0, 2), (seed, unfixed)
            if unfixed:
                a, b = unfixed
                assert t.degree(a) == 1 and t.degree(b) == 1
                assert set(t.adjacency[a]) & set(t.adjacency[b])
            checked += 1
        assert checked > 80


class TestColorRegular:
    def test_complete_1_4_depth2_internal_fixed(self):
        t = helpers.complete_tree(4, 2)
        coloring = color_regular(t)
        rep = fix_report(t, coloring)
        internal = {v for v in range(t.n) if t.degree(v) > 1}
        assert internal <= rep.fixed_set()

    def test_complete_1_3_depth3_unfixed_only_leaves(self):
        t = helpers.complete_tree(3, 3)
        unfixed = fix_report(t, color_regular(t)).unfixed_set()
        assert all(t.degree(v) == 1 for v in unfixed)

    def test_k2(self):
        t = helpers.path_tree(2)
        coloring = color_regular(t)
        assert coloring.colors == (0, 1)
        assert fix_report(t, coloring).fixed_set() == {0, 1}

    def test_paths_fix_internals(self):
        for n in range(3, 11):
            t = helpers.path_tree(n)
            unfixed = fix_report(t, color_regular(t)).unfixed_set()
            assert all(t.degree(v) == 1 for v in unfixed)

    def test_rejects_irregular(self):
        t = tree_from_edges([(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])
        with pytest.raises(BadParams, match="^vertex 5 has valence 2, not 1 or 3$"):
            color_regular(t)

    @staticmethod
    @st.composite
    def regular_trees(draw):
        """A tree whose valences are all 1 or k: a k-star whose random
        leaves are expanded into k-1 children each, then relabelled."""
        k = draw(st.integers(3, 6))
        edges = [(0, i) for i in range(1, k + 1)]
        leaves = list(range(1, k + 1))
        for _ in range(draw(st.integers(0, 8))):
            leaf = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
            for _ in range(k - 1):
                leaves.append(len(edges) + 1)
                edges.append((leaf, len(edges) + 1))
        name = draw(st.permutations(range(len(edges) + 1)))
        return tree_from_edges([(name[u], name[v]) for u, v in edges])

    @settings(max_examples=200, deadline=None)
    @given(t=regular_trees())
    def test_random_regular_unfixed_only_leaves(self, t):
        coloring = color_regular(t)
        assert coloring.num_colors == 2 and coloring.is_total
        unfixed = fix_report(t, coloring).unfixed_set()
        assert all(t.degree(v) == 1 for v in unfixed)

    def test_path_peak_memory(self):
        # siblings were once ordered by their structural byte codes, which
        # total about n^2/2 bytes on a path: a peak of about 90 times the
        # tree here; with the view built beforehand it reads about 0.15
        t, _, tree_bytes = helpers.traced_peak(lambda: helpers.path_tree(20000))
        t.centered
        coloring, peak, _ = helpers.traced_peak(lambda: color_regular(t))
        assert coloring.is_total
        assert peak < 0.5 * tree_bytes, (peak, tree_bytes)


def caterpillar(spine_len: int, pendants: int = 1):
    edges = [(i, i + 1) for i in range(spine_len)]
    nxt = spine_len + 1
    for z in range(1, spine_len):
        for _ in range(pendants):
            edges.append((z, nxt))
            nxt += 1
    return tree_from_edges(edges, n=nxt), list(range(spine_len + 1))


class TestColorSpine:
    def test_caterpillar_spine_stabilizer_trivial(self):
        t, spine = caterpillar(6)
        coloring = color_spine(t, spine, max_degree=3)
        identity = tuple(range(t.n))
        for a in enumerate_automorphisms(t, coloring):
            if all(a[z] == z for z in spine):
                assert a == identity

    def test_bare_path_all_one(self):
        t = helpers.path_tree(5)
        coloring = color_spine(t, [0, 1, 2, 3, 4])
        assert coloring.colors == (1, 1, 1, 1, 1)

    def test_two_pendants_avoid_spine_color(self):
        t = tree_from_edges([(0, 1), (1, 2), (2, 3), (1, 4), (1, 5)])
        coloring = color_spine(t, [0, 1, 2, 3], max_degree=4)
        assert {coloring.colors[4], coloring.colors[5]} == {0, 2}

    def test_rejects_non_leaf_start(self):
        t = helpers.path_tree(5)
        with pytest.raises(BadParams, match="^spine must start at a leaf; vertex 2 has valence 2$"):
            color_spine(t, [2, 3, 4])

    def test_rejects_non_adjacent(self):
        t = helpers.path_tree(5)
        with pytest.raises(BadParams, match="^spine vertices 0 and 2 are not adjacent$"):
            color_spine(t, [0, 2, 4])

    def test_rejects_overloaded_end(self):
        t = helpers.star_tree(3)
        with pytest.raises(BadParams, match="^spine vertex 0 has 2 hanging branches; at most 1 fit$"):
            color_spine(t, [1, 0], max_degree=3)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 40), k=st.integers(2, 5), seed=st.integers(0, 10**6), data=st.data())
    def test_longest_spine_matches_bfs_reference(self, n, k, seed, data):
        # relabelled, so that the smallest-id tie-breaks meet every shape
        perm = data.draw(st.permutations(range(n)))
        base = random_tree(n, k, seed)
        t = tree_from_edges([(perm[u], perm[v]) for u, v in helpers.edges(base)], n=n)
        assert longest_spine(t) == helpers.reference_longest_spine(t)
        # without a spine, color_spine colors along the longest one
        try:
            expected = color_spine(t, longest_spine(t))
        except BadParams as exc:
            with pytest.raises(BadParams, match=f"^{re.escape(str(exc))}$"):
                color_spine(t)
        else:
            assert color_spine(t) == expected

    def test_longest_spine_starts_at_leaf(self):
        for seed in range(20):
            t = random_tree(random.Random(seed).randint(1, 20), 4, seed)
            spine = longest_spine(t)
            if t.n > 1:
                assert t.degree(spine[0]) == 1
            for z, nxt in zip(spine, spine[1:]):
                assert nxt in t.adjacency[z]
