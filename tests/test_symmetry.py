from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treedist import (
    Coloring,
    UNCOLORED,
    canonical_labels,
    center,
    color_anchored,
    color_near_distinguishing,
    color_regular,
    color_spine,
    color_tree,
    distinguishing_number,
    enumerate_automorphisms,
    fix_radius,
    fix_report,
    fixed_vertices,
    longest_spine,
    lsb_digits,
    max_valence,
    random_tree,
    root_at,
    tree_from_edges,
)
from treedist.cli import _dot_lines
from treedist.errors import BadFormat, BadParams, BudgetExceeded, TreedistError
from treedist.symmetry import VERIFY_BATCH, _check_batch, canonical_codes, structural_codes, subtree_code
import treedist.coloring as coloring_module
import treedist.symmetry as symmetry
import treedist.tree_core as tree_core

import helpers


def mono(n: int, num_colors: int = 1) -> Coloring:
    return Coloring(num_colors, tuple([0] * n))


class TestCanonicalCodes:
    def test_equal_colored_leaves_share_code(self):
        t = helpers.star_tree(2)
        rv = root_at(t, 0)
        codes = canonical_codes(rv, Coloring(2, (0, 1, 1)))
        assert codes[1] == codes[2]

    def test_differently_colored_leaves_differ(self):
        t = helpers.star_tree(2)
        rv = root_at(t, 0)
        codes = canonical_codes(rv, Coloring(2, (0, 0, 1)))
        assert codes[1] != codes[2]

    def test_star_two_zero_leaves(self):
        t = helpers.star_tree(3)
        rv = root_at(t, 0)
        codes = canonical_codes(rv, Coloring(2, (0, 0, 0, 1)))
        assert codes[1] == codes[2]
        assert codes[1] != codes[3]

    def test_uncolored_sentinel_distinct_from_real_colors(self):
        t = helpers.star_tree(2)
        rv = root_at(t, 0)
        codes = canonical_codes(rv, Coloring(2, (0, UNCOLORED, 1)))
        assert codes[1] != codes[2]

    def test_sibling_code_equality_matches_pair_automorphism(self):
        # codes of siblings agree exactly when the induced parent+two-subtrees
        # tree admits a color-preserving automorphism swapping them
        rng = random.Random(99)
        checked = 0
        for seed in range(60):
            t = random_tree(rng.randint(3, 9), 3, seed)
            cols = tuple(rng.randint(0, 1) for _ in range(t.n))
            coloring = Coloring(2, cols)
            rv = root_at(t, center(t))
            codes = canonical_codes(rv, coloring)
            labels = canonical_labels(rv, cols)
            children = helpers.view_children(rv)
            for p in range(t.n):
                kids = children[p]
                for i in range(len(kids)):
                    for j in range(i + 1, len(kids)):
                        u, w = kids[i], kids[j]
                        verts = [p] + rv.subtree(u) + rv.subtree(w)
                        index = {v: x for x, v in enumerate(verts)}
                        sub_edges = [
                            (index[a], index[b])
                            for a, b in helpers.edges(t)
                            if a in index and b in index
                        ]
                        sub = tree_from_edges(sub_edges, n=len(verts))
                        sub_col = Coloring(2, tuple(cols[v] for v in verts))
                        autos = helpers.brute_force_automorphisms(sub, sub_col)
                        swaps = any(a[index[u]] == index[w] for a in autos)
                        assert swaps == (codes[u] == codes[w]) == (labels[u] == labels[w])
                        checked += 1
        assert checked > 50


@st.composite
def partially_colored_trees(draw):
    """A random tree rooted at its center or at a random vertex, and a random
    coloring with up to 3 colors in which any vertex may stay UNCOLORED."""
    t = random_tree(draw(st.integers(1, 30)), draw(st.integers(2, 5)), draw(st.integers(0, 10**6)))
    root = draw(st.one_of(st.none(), st.integers(0, t.n - 1)))
    rv = root_at(t, center(t) if root is None else root)
    c = draw(st.integers(1, 3))
    colors = draw(st.lists(st.integers(UNCOLORED, c - 1), min_size=t.n, max_size=t.n))
    return rv, Coloring(c, tuple(colors))


class TestCanonicalLabels:
    @settings(max_examples=150, deadline=None)
    @given(case=partially_colored_trees())
    def test_label_equality_is_code_equality(self, case):
        rv, coloring = case
        labels = canonical_labels(rv, coloring.colors)
        codes = canonical_codes(rv, coloring)
        n = rv.n
        for u in range(n):
            for v in range(n):
                assert (labels[u] == labels[v]) == (codes[u] == codes[v])

    @settings(max_examples=150, deadline=None)
    @given(case=partially_colored_trees())
    def test_sibling_labels_match_subtree_codes(self, case):
        rv, coloring = case
        colors = list(coloring.colors)
        labels = canonical_labels(rv, colors)
        for kids in helpers.view_children(rv):
            codes = {x: subtree_code(rv, colors, coloring.num_colors, x) for x in kids}
            for x in kids:
                for y in kids:
                    assert (labels[x] == labels[y]) == (codes[x] == codes[y])

    @settings(max_examples=150, deadline=None)
    @given(case=partially_colored_trees())
    def test_structural_codes_match_uncolored_labels(self, case):
        rv, _ = case
        labels = canonical_labels(rv, bytes(rv.n))
        codes = structural_codes(rv)
        for u in range(rv.n):
            for v in range(rv.n):
                assert (labels[u] == labels[v]) == (codes[u] == codes[v])

    def test_uncolored_is_its_own_color(self):
        rv = root_at(helpers.star_tree(3), 0)
        labels = canonical_labels(rv, (0, UNCOLORED, 0, UNCOLORED))
        assert labels[1] == labels[3] != labels[2]


@st.composite
def totally_colored_trees(draw, max_n=40, max_degree=6):
    """A random tree and a random total coloring with up to 3 colors."""
    t = random_tree(draw(st.integers(1, max_n)), draw(st.integers(2, max_degree)), draw(st.integers(0, 10**6)))
    c = draw(st.integers(1, 3))
    colors = draw(st.lists(st.integers(0, c - 1), min_size=t.n, max_size=t.n))
    return t, Coloring(c, tuple(colors))


def joined_copies(t):
    """Two copies of t joined at vertex 0 and its copy, so the joining edge
    is the center."""
    n = t.n
    pairs = helpers.edges(t)
    return tree_from_edges([*pairs, *((u + n, v + n) for u, v in pairs), (0, n)], n=2 * n)


def hub_of(copies, sub):
    """`copies` copies of sub, each vertex 0 joined to a new hub vertex 0."""
    pairs = helpers.edges(sub)
    starts = range(1, copies * sub.n + 1, sub.n)
    hub = [(0, s) for s in starts]
    return tree_from_edges([*hub, *((u + s, v + s) for s in starts for u, v in pairs)], n=copies * sub.n + 1)


def monochrome(t):
    return t, mono(t.n)


def swapped_binary(depth):
    # two equal halves colored by depth parity: each half keeps its sibling
    # swaps, and the edge center swaps the halves
    t = helpers.binary_tree(depth)
    half = tuple((v + 1).bit_length() % 2 for v in range(t.n))
    return joined_copies(t), Coloring(2, half + half)


@st.composite
def matched_halves(draw):
    """Two copies of a random tree joined at vertex 0 and its copy, so the
    joining edge is the center; the copy's colors repeat the first half's
    or are drawn afresh, so the halves match or (usually) differ."""
    t = random_tree(draw(st.integers(1, 12)), draw(st.integers(2, 4)), draw(st.integers(0, 10**6)))
    n = t.n
    joined = joined_copies(t)
    half = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    first = draw(half)
    second = first if draw(st.booleans()) else draw(half)
    return joined, Coloring(2, tuple(first + second))


@st.composite
def colored_stars(draw):
    leaves = draw(st.integers(1, 8))
    c = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(0, c - 1), min_size=leaves + 1, max_size=leaves + 1))
    return helpers.star_tree(leaves), Coloring(c, tuple(colors))


class TestFixedVertices:
    @settings(max_examples=300, deadline=None)
    @given(
        case=st.one_of(
            totally_colored_trees(),
            totally_colored_trees(max_n=2),
            colored_stars(),
            matched_halves(),
        )
    )
    def test_matches_fix_report_and_orbit_sizes(self, case):
        # the fixed pass, fix_report's fixed set and "orbit of size 1" under
        # the reference orbit numbering all agree
        t, coloring = case
        fixed = fixed_vertices(t, coloring)
        assert fixed == list(fix_report(t, coloring).fixed)
        rv = t.centered
        orbit = helpers.reference_orbits(rv, canonical_labels(rv, coloring.colors))
        sizes = Counter(orbit)
        assert fixed == [sizes[o] == 1 for o in orbit]

    def test_edge_center_halves(self):
        # a path of 4: mirrored colors let the halves swap, otherwise nothing moves
        t = helpers.path_tree(4)
        assert fixed_vertices(t, Coloring(2, (0, 1, 1, 0))) == [False] * 4
        assert fixed_vertices(t, Coloring(2, (0, 1, 1, 1))) == [True] * 4

    def test_small_trees(self):
        assert fixed_vertices(tree_from_edges([], n=1), mono(1)) == [True]
        assert fixed_vertices(helpers.path_tree(2), mono(2)) == [False, False]
        assert fixed_vertices(helpers.path_tree(2), Coloring(2, (1, 0))) == [True, True]
        assert fixed_vertices(helpers.star_tree(3), Coloring(2, (0, 0, 0, 1))) == [True, False, False, True]

    def test_partial_coloring_rejected(self):
        t = helpers.path_tree(3)
        with pytest.raises(BadParams, match="^coloring has uncolored vertices$"):
            fixed_vertices(t, Coloring(2, (0, UNCOLORED, 0)))
        with pytest.raises(BadParams, match="^coloring covers 2 of 3 vertices$"):
            fixed_vertices(t, Coloring(2, (0, 1)))


class TestFixReport:
    @settings(max_examples=150, deadline=None)
    @given(case=totally_colored_trees())
    # orbits nested below orbits, an edge-center swap, and counts of many digits
    @example(case=monochrome(helpers.complete_tree(3, 4)))
    @example(case=swapped_binary(3))
    @example(case=monochrome(helpers.star_tree(2000)))
    @example(case=monochrome(hub_of(4, helpers.binary_tree(3))))
    def test_aut_count_is_product_of_factorials(self, case):
        # siblings with equal colored labels permute freely: the group order
        # is the product of (multiplicity)! over every vertex's child labels,
        # doubled when the two halves of an edge center match
        t, coloring = case
        rv = root_at(t, center(t))
        labels = canonical_labels(rv, coloring.colors)
        expected = 1
        for below in helpers.view_children(rv):
            for m in Counter(labels[w] for w in below).values():
                expected *= math.factorial(m)
        if len(rv.roots) == 2 and labels[rv.roots[0]] == labels[rv.roots[1]]:
            expected *= 2
        assert fix_report(t, coloring).aut_count == expected

    @settings(max_examples=150, deadline=None)
    @given(case=totally_colored_trees())
    def test_orbit_ids_match_reference(self, case):
        # leaves skipped, a fixed parent's only child numbered directly and a
        # fixed parent's children keyed by label alone: the same orbit ids
        t, coloring = case
        rv = t.centered
        expected = helpers.reference_orbits(rv, canonical_labels(rv, coloring.colors))
        assert fix_report(t, coloring).orbit == expected

    @pytest.mark.parametrize("spine", [2, 3, 4, 7, 40, 41])
    def test_caterpillar_aut_count(self, spine):
        # every spine vertex permutes its 6 legs freely, and the spine can be
        # reversed: through the central edge (even spine) or the center's two
        # spine children (odd spine)
        t = helpers.caterpillar_tree(spine, 6)
        assert fix_report(t, mono(t.n)).aut_count == 2 * 720**spine

    def test_star_monochromatic(self):
        t = helpers.star_tree(3)
        rep = fix_report(t, mono(4))
        assert rep.aut_count == 6
        assert rep.fixed_set() == {0}

    def test_star_rainbow_leaves(self):
        t = helpers.star_tree(3)
        rep = fix_report(t, Coloring(3, (0, 0, 1, 2)))
        assert rep.aut_count == 1
        assert rep.fixed_set() == {0, 1, 2, 3}

    def test_path4_monochromatic(self):
        t = helpers.path_tree(4)
        rep = fix_report(t, mono(4))
        assert rep.aut_count == 2
        assert rep.fixed_set() == set()
        assert rep.orbit[0] == rep.orbit[3] and rep.orbit[1] == rep.orbit[2]

    def test_partial_coloring_rejected(self):
        t = helpers.path_tree(3)
        with pytest.raises(BadParams, match="^coloring has uncolored vertices$"):
            fix_report(t, Coloring(2, (0, UNCOLORED, 0)))
        with pytest.raises(BadParams, match="^coloring covers 2 of 3 vertices$"):
            fix_report(t, Coloring(2, (0, 1)))

    def test_orbit_refinement_under_fresh_color(self):
        # recoloring any one vertex with a brand-new color only splits orbits
        rng = random.Random(5)
        for seed in range(25):
            t = random_tree(rng.randint(2, 14), 4, seed)
            cols = tuple(rng.randint(0, 1) for _ in range(t.n))
            before = fix_report(t, Coloring(2, cols))
            for v in range(t.n):
                mutated = list(cols)
                mutated[v] = 2
                after = fix_report(t, Coloring(3, tuple(mutated)))
                pairs_before = {
                    (a, b)
                    for a in range(t.n)
                    for b in range(t.n)
                    if before.orbit[a] == before.orbit[b]
                }
                for a in range(t.n):
                    for b in range(t.n):
                        if after.orbit[a] == after.orbit[b]:
                            assert (a, b) in pairs_before


def _old_range_check(num_colors, colors):
    """Coloring's per-vertex range check as first written: the error
    message, or None when it accepts."""
    for v, c in enumerate(colors):
        if c != UNCOLORED and not 0 <= c < num_colors:
            return f"vertex {v} has color {c}, not in 0..{num_colors - 1}"
    return None


class TestColoringValidation:
    @pytest.mark.parametrize(
        "colors, message",
        [
            ((0, 0.5, True), "vertex 1 has color 0.5, not an integer"),
            ((0, True), "vertex 1 has color True, not an integer"),
            ((False,), "vertex 0 has color False, not an integer"),
            ((0, 1.0), "vertex 1 has color 1.0, not an integer"),
            (("1",), "vertex 0 has color '1', not an integer"),
            ((0, 1, None), "vertex 2 has color None, not an integer"),
            ((0, 7, 1.5), "vertex 2 has color 1.5, not an integer"),
        ],
    )
    def test_rejects_non_integers(self, colors, message):
        with pytest.raises(BadParams, match=f"^{re.escape(message)}$") as exc:
            Coloring(2, colors)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "num_colors, colors, message",
        [
            (2, (0, 2), "vertex 1 has color 2, not in 0..1"),
            (2, (0, 1, -2), "vertex 2 has color -2, not in 0..1"),
            (3, (5, 0, 7), "vertex 0 has color 5, not in 0..2"),
            (1, (UNCOLORED, 0, 1), "vertex 2 has color 1, not in 0..0"),
        ],
    )
    def test_out_of_range_message(self, num_colors, colors, message):
        with pytest.raises(BadParams, match=f"^{re.escape(message)}$") as exc:
            Coloring(num_colors, colors)
        assert str(exc.value) == message

    @pytest.mark.parametrize("num_colors, colors", [(2, ()), (1, (UNCOLORED, 0)), (3, (2, 1, 0, UNCOLORED))])
    def test_accepts(self, num_colors, colors):
        assert Coloring(num_colors, colors).colors == colors

    @settings(max_examples=300, deadline=None)
    @given(num_colors=st.integers(1, 4), colors=st.lists(st.integers(-3, 5), max_size=12))
    def test_range_check_matches_per_vertex_check(self, num_colors, colors):
        expected = _old_range_check(num_colors, colors)
        try:
            Coloring(num_colors, tuple(colors))
        except BadParams as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_json_colors_become_ints(self):
        # they do not: a file's values are checked as they are, so a value
        # that int() would have turned into a color or count is refused
        for data, message in (
            ({"num_colors": 2, "colors": [0, True, 1]}, "vertex 1 has color True, not an integer"),
            ({"num_colors": 2, "colors": [0, 1.7, 1]}, "vertex 1 has color 1.7, not an integer"),
            ({"num_colors": 2, "colors": [0, "1", 1]}, "vertex 1 has color '1', not an integer"),
            ({"num_colors": 2, "colors": [0, 1.0, 1]}, "vertex 1 has color 1.0, not an integer"),
            ({"num_colors": 2.0, "colors": [0, 1, 1]}, "num_colors 2.0 is not an integer"),
            ({"num_colors": "2", "colors": [0, 1, 1]}, "num_colors '2' is not an integer"),
            ({"num_colors": True, "colors": [0, 0, 0]}, "num_colors True is not an integer"),
        ):
            with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
                Coloring.from_json_dict(data)

    @pytest.mark.parametrize(
        "colors, message",
        [
            ("010", "colors must be a JSON array, not str"),
            ({"0": 1, "1": 0, "2": 1}, "colors must be a JSON array, not dict"),
            (7, "colors must be a JSON array, not int"),
            (None, "colors must be a JSON array, not NoneType"),
        ],
    )
    def test_json_colors_must_be_an_array(self, colors, message):
        # a string or an object is iterable, but its characters or keys are
        # not the colors
        with pytest.raises(BadFormat, match=f"^malformed coloring: {re.escape(message)}$"):
            Coloring.from_json_dict({"num_colors": 2, "colors": colors})

    @pytest.mark.parametrize(
        "data, message",
        [
            ([0, 1, 0, 1, 0], "the coloring must be a JSON object, not list"),
            (None, "the coloring must be a JSON object, not NoneType"),
            ("01010", "the coloring must be a JSON object, not str"),
        ],
    )
    def test_json_coloring_must_be_an_object(self, data, message):
        with pytest.raises(BadFormat, match=f"^malformed coloring: {re.escape(message)}$"):
            Coloring.from_json_dict(data)


class TestFixReportPeakMemory:
    def test_peak_against_report(self):
        # fix_report once peaked at 3.5-4.0 times the report it returned: a
        # (parent orbit, label) key per vertex in one table and a Counter of
        # all n orbit ids; today it reads about 1.7 (see test_tree_core's
        # TestPeakMemory for why a ratio)
        tree = helpers.memory_probe_tree()
        coloring, _ = color_tree(tree, 2)
        tree.centered
        _, peak, kept = helpers.traced_peak(lambda: fix_report(tree, coloring))
        assert peak < 2.5 * kept, (peak, kept)


class TestCanonicalLabelsPeakMemory:
    def test_path_peak_bytes_per_vertex(self):
        # one intern table for the whole call once kept a key per distinct
        # class: 120 bytes a vertex on a randomly 2-colored path.  One
        # height level at a time it holds at most two keys here; with the
        # internal vertices sorted by height the peak read 48, and with
        # only two levels held at a time, about 40: the labels and their
        # int objects
        t = helpers.path_tree(20000)
        rv = t.centered
        draw = random.Random(0)
        colors = tuple(draw.randrange(2) for _ in range(t.n))
        labels, peak, _ = helpers.traced_peak(lambda: canonical_labels(rv, colors))
        assert len(labels) == t.n
        assert peak < 44 * t.n, peak / t.n


class TestEnumerateAutomorphisms:
    def test_identity_always_present(self):
        t = helpers.path_tree(5)
        autos = enumerate_automorphisms(t, mono(5))
        assert tuple(range(5)) in autos

    def test_star_monochromatic_brute_force(self):
        t = helpers.star_tree(3)
        autos = enumerate_automorphisms(t, mono(4))
        assert len(autos) == 6
        assert autos == sorted(helpers.brute_force_automorphisms(t, mono(4)))

    def test_distinguishing_coloring_leaves_identity(self):
        t = helpers.star_tree(3)
        autos = enumerate_automorphisms(t, Coloring(3, (0, 0, 1, 2)))
        assert autos == [tuple(range(4))]

    def test_limit_exceeded(self):
        t = helpers.star_tree(6)
        with pytest.raises(BudgetExceeded):
            enumerate_automorphisms(t, mono(7), limit=10)

    def test_long_path_is_not_recursive(self):
        # one search level per vertex: a recursive search overflows the stack
        t = helpers.path_tree(1500)
        autos = enumerate_automorphisms(t, mono(1500))
        assert autos == [tuple(range(1500)), tuple(range(1499, -1, -1))]

    def test_single_vertex(self):
        assert enumerate_automorphisms(tree_from_edges([], n=1), mono(1)) == [(0,)]

    def test_permutations_verified(self):
        rng = random.Random(17)
        for seed in range(20):
            t = random_tree(rng.randint(2, 8), 3, seed)
            cols = tuple(rng.randint(0, 1) for _ in range(t.n))
            coloring = Coloring(2, cols)
            autos = enumerate_automorphisms(t, coloring)
            assert autos == sorted(helpers.brute_force_automorphisms(t, coloring))


class TestBatchedEnumeration:
    """enumerate_automorphisms re-verifies its permutations VERIFY_BATCH at a
    time; it must return exactly what the one-at-a-time search in
    tests/helpers.py returns, at every batch boundary."""

    @settings(max_examples=200, deadline=None)
    @given(case=totally_colored_trees(max_degree=4))
    def test_matches_reference(self, case):
        t, coloring = case
        expected = helpers.reference_enumerate_automorphisms(t, coloring)
        assert enumerate_automorphisms(t, coloring) == expected
        count = len(expected)
        assert enumerate_automorphisms(t, coloring, limit=count) == expected
        assert helpers.reference_enumerate_automorphisms(t, coloring, limit=count) == expected
        for enumerate_ in (enumerate_automorphisms, helpers.reference_enumerate_automorphisms):
            with pytest.raises(BudgetExceeded):
                enumerate_(t, coloring, limit=count - 1)

    @pytest.mark.parametrize(
        "tree, count, full_batches, partial_batch",
        [
            (helpers.binary_tree(4), 32768, 32, False),  # nothing left for the last check
            (helpers.star_tree(6), 720, 0, True),
            (helpers.star_tree(7), 5040, 4, True),
        ],
        ids=["binary4", "star6", "star7"],
    )
    def test_batch_boundaries(self, tree, count, full_batches, partial_batch):
        assert count // VERIFY_BATCH == full_batches
        assert (count % VERIFY_BATCH > 0) == partial_batch
        coloring = mono(tree.n)
        autos = enumerate_automorphisms(tree, coloring)
        assert len(autos) == count == fix_report(tree, coloring).aut_count
        assert autos[0] == tuple(range(tree.n))
        assert all(a < b for a, b in zip(autos, autos[1:]))

    # on the path 0-1-2-3 colored (0, 1, 0, 0), (0, 1, 3, 2) keeps every
    # color but maps the one edge 1-2 to 1-3, and the reversal keeps every
    # edge but gives vertices 1 and 2 each other's color; with one color,
    # the fold (0, 1, 2, 1) keeps every edge and color but is no bijection
    PATH = helpers.path_tree(4)
    BROKEN = {
        "edge": ((0, 1, 0, 0), (0, 1, 3, 2)),
        "color": ((0, 1, 0, 0), (3, 2, 1, 0)),
        "bijection": ((0, 0, 0, 0), (0, 1, 2, 1)),
    }

    def test_check_batch_accepts_automorphisms(self):
        _check_batch(self.PATH, (0, 1, 0, 0), [(0, 1, 2, 3)] * VERIFY_BATCH)
        _check_batch(self.PATH, (0, 0, 0, 0), [(0, 1, 2, 3), (3, 2, 1, 0)])
        _check_batch(self.PATH, (0, 1, 0, 0), [])

    @pytest.mark.parametrize("broken", ["edge", "color", "bijection"])
    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_check_batch_rejects(self, broken, first):
        colors, bad = self.BROKEN[broken]
        fill = [(0, 1, 2, 3)] * (VERIFY_BATCH - 1)
        batch = [bad, *fill] if first else [*fill, bad]
        with pytest.raises(AssertionError):
            _check_batch(self.PATH, colors, batch)

    def test_independent_of_canonical_labels_and_centering(self, monkeypatch):
        # the oracles stay independent of each other: enumeration may not
        # reach canonical labels, fix_report or the centered view
        cases = []
        for path in sorted(helpers.FIXTURES.glob("*.tree")):
            t = helpers.load_fixture(path.stem)
            for coloring in (mono(t.n), color_tree(t, 2)[0]):
                try:
                    expected = helpers.reference_enumerate_automorphisms(t, coloring, limit=5000)
                except BudgetExceeded:
                    expected = BudgetExceeded
                cases.append((helpers.load_fixture(path.stem), coloring, expected))

        def forbidden(*args, **kwargs):
            raise AssertionError("enumerate_automorphisms reached another oracle")

        monkeypatch.setattr(symmetry, "canonical_labels", forbidden)
        monkeypatch.setattr(symmetry, "fix_report", forbidden)
        monkeypatch.setattr(tree_core, "center", forbidden)
        monkeypatch.setattr(tree_core, "root_at", forbidden)
        for t, coloring, expected in cases:
            if expected is BudgetExceeded:
                with pytest.raises(BudgetExceeded):
                    enumerate_automorphisms(t, coloring, limit=5000)
            else:
                assert enumerate_automorphisms(t, coloring, limit=5000) == expected
        assert any(expected is BudgetExceeded for _, _, expected in cases)
        assert any(len(expected) > 1 for _, _, expected in cases if expected is not BudgetExceeded)

    @settings(max_examples=150, deadline=None)
    @given(case=totally_colored_trees(max_n=14, max_degree=4))
    def test_matches_networkx(self, case):
        # the brute force in tests/helpers.py stops at n = 8; VF2 reaches 14,
        # and checks fix_report's count and orbits there as well
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        t, coloring = case
        g = nx.Graph()
        g.add_nodes_from((v, {"color": c}) for v, c in enumerate(coloring.colors))
        g.add_edges_from(helpers.edges(t))
        matcher = GraphMatcher(g, g, node_match=lambda a, b: a["color"] == b["color"])
        expected = sorted(tuple(m[v] for v in range(t.n)) for m in matcher.isomorphisms_iter())
        assert enumerate_automorphisms(t, coloring) == expected
        report = fix_report(t, coloring)
        assert report.aut_count == len(expected)
        # the orbit of v under the whole group is the set of its images
        generated = {frozenset(a[v] for a in expected) for v in range(t.n)}
        reported: dict[int, set[int]] = {}
        for v, o in enumerate(report.orbit):
            reported.setdefault(o, set()).add(v)
        assert generated == set(map(frozenset, reported.values()))


class TestOracleEquivalence:
    def test_fix_report_matches_enumeration_sampled(self):
        rng = random.Random(23)
        for seed in range(40):
            t = random_tree(rng.randint(1, 9), 4, seed)
            c = rng.randint(1, 3)
            cols = tuple(rng.randrange(c) for _ in range(t.n))
            coloring = Coloring(c, cols)
            rep = fix_report(t, coloring)
            autos = enumerate_automorphisms(t, coloring)
            assert rep.aut_count == len(autos)
            moved = {v for a in autos for v in range(t.n) if a[v] != v}
            assert rep.unfixed_set() == moved
            # orbits match the enumerated group's orbits
            for v in range(t.n):
                orbit_v = {a[v] for a in autos}
                assert orbit_v == {w for w in range(t.n) if rep.orbit[w] == rep.orbit[v]}


class TestIsDistinguishing:
    def test_star_rainbow(self):
        assert fix_report(helpers.star_tree(3), Coloring(3, (0, 0, 1, 2))).aut_count == 1

    def test_star_with_repeat(self):
        assert fix_report(helpers.star_tree(3), Coloring(2, (0, 0, 0, 1))).aut_count != 1

    def test_single_vertex(self):
        assert fix_report(tree_from_edges([], n=1), mono(1)).aut_count == 1


class TestUnfixedVertices:
    def test_distinguishing_coloring(self):
        assert fix_report(helpers.star_tree(3), Coloring(3, (0, 0, 1, 2))).unfixed_set() == set()

    def test_path4_monochromatic(self):
        assert fix_report(helpers.path_tree(4), mono(4)).unfixed_set() == {0, 1, 2, 3}

    def test_star_two_zero_leaves(self):
        assert fix_report(helpers.star_tree(3), Coloring(2, (0, 0, 0, 1))).unfixed_set() == {1, 2}


def brute_force_has_distinguishing(tree, d: int) -> bool:
    from itertools import product

    for cols in product(range(d), repeat=tree.n):
        if not helpers.brute_force_automorphisms(tree, Coloring(d, cols))[1:]:
            return True
    return False


class TestDistinguishingNumber:
    def test_star3(self):
        assert distinguishing_number(helpers.star_tree(3), 4) == 3

    def test_complete_tree_depth2(self):
        assert distinguishing_number(helpers.complete_tree(3, 2), 4) == 3

    def test_path2(self):
        assert distinguishing_number(helpers.path_tree(2), 3) == 2

    def test_not_found_within_max(self):
        with pytest.raises(BadParams, match="^no distinguishing coloring with <= 2 colors$"):
            distinguishing_number(helpers.star_tree(4), 2)

    def test_size_guard(self):
        # no size guard: the counting search is near-linear in n
        assert distinguishing_number(helpers.path_tree(30), 3) == 2

    def test_matches_brute_force_small(self):
        rng = random.Random(3)
        for seed in range(25):
            t = random_tree(rng.randint(1, 7), 4, seed)
            expected = next(d for d in range(1, 6) if brute_force_has_distinguishing(t, d))
            assert distinguishing_number(t, 6) == expected

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 20), k=st.integers(2, 5), seed=st.integers(0, 10**6))
    def test_always_succeeds_with_max_valence_plus_one(self, n, k, seed):
        t = random_tree(n, k, seed)
        d = distinguishing_number(t, max_valence(t) + 1)
        assert 1 <= d <= max_valence(t) + 1

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 60), k=st.integers(2, 12), seed=st.integers(0, 10**6))
    def test_galloping_matches_linear_scan(self, n, k, seed):
        t = random_tree(n, k, seed)
        for max_colors in range(1, max_valence(t) + 3):
            try:
                expected = helpers.reference_distinguishing_number(t, max_colors)
            except BadParams as exc:
                with pytest.raises(BadParams, match=f"^{re.escape(str(exc))}$"):
                    distinguishing_number(t, max_colors)
            else:
                assert distinguishing_number(t, max_colors) == expected


def _spider(legs: int, length: int):
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return tree_from_edges(edges, n=nxt)


def _hub(copies: int, sub):
    edges = []
    for i in range(copies):
        base = 1 + i * sub.n
        edges.append((0, base))
        edges.extend((base + u, base + v) for u, v in helpers.edges(sub))
    return tree_from_edges(edges, n=1 + copies * sub.n)


#: Digests (sha256 prefix) of the coloring and trace JSON that color_tree
#: produced for every fixture, plus six generated trees on which main lines
#: fire, at every c from 2 to the max valence.  Recorded with the byte-code
#: labelling, before the switch to interned labels, which must not change a
#: single output byte; three_arm_no_branch, whose two-color sweep is the only
#: one to use step4_case1_no_branch, was recorded later, before the
#: single-vertex special cases left the colorings.
GOLDEN_COLOR_TREE = {
    ("complete_1_3_depth1", 2): ("945451573d4b9a4b", "c6b91bd482a43c38"),
    ("complete_1_3_depth1", 3): ("ac83787b2c016fa0", "35ad399115c2c370"),
    ("complete_1_3_depth2", 2): ("7044aab263e55098", "c8a19543a9b7d351"),
    ("complete_1_3_depth2", 3): ("27dd243eb6467ddf", "29f0433ccea247b7"),
    ("complete_1_3_depth3", 2): ("4d60b3bffc215988", "c512a1173871893f"),
    ("complete_1_3_depth3", 3): ("9dfd3697c2057cec", "3be0ae46cb9f7a3b"),
    ("complete_1_4_depth1", 2): ("9a43b82aa7d8203b", "6bc0dcc7dc36eedf"),
    ("complete_1_4_depth1", 3): ("01944d0d2cd132f3", "49d0af5e56da43fb"),
    ("complete_1_4_depth1", 4): ("e34349c86c729e5f", "fd8ab8fa29a4ac7e"),
    ("complete_1_4_depth2", 2): ("f93093394cfe4a7a", "d99a033b5c8b7444"),
    ("complete_1_4_depth2", 3): ("649525924a408e1b", "1a07e07f31eab3f0"),
    ("complete_1_4_depth2", 4): ("32b5c090908547af", "db8e0674628cc2d2"),
    ("complete_1_4_depth3", 2): ("35ab48516adbac01", "1f1da925cf36277b"),
    ("complete_1_4_depth3", 3): ("274763d250a7cae1", "3192d5d0e8326337"),
    ("complete_1_4_depth3", 4): ("330327e654b102cf", "ebcc9e0cabbac639"),
    ("glued_stars", 2): ("7044aab263e55098", "c8a19543a9b7d351"),
    ("glued_stars", 3): ("27dd243eb6467ddf", "29f0433ccea247b7"),
    ("hub10_tails2", 2): ("6360d54a16f68ac8", "763b4d558494ae88"),
    ("hub10_tails2", 3): ("e4cccd8fc7818a8b", "9a294dce3223b118"),
    ("hub10_tails2", 4): ("9d09b493bcb558cb", "3b3028ae91000c60"),
    ("hub10_tails2", 5): ("7bd0601036024194", "6d995b852c173b2c"),
    ("hub10_tails2", 6): ("fa5e49e550d52fcc", "d142016bff6d3348"),
    ("hub10_tails2", 7): ("7b09be94cbc47b40", "67e37db7b077394a"),
    ("hub10_tails2", 8): ("9e29ce00a236c27a", "d2ab30fa8967647e"),
    ("hub10_tails2", 9): ("929d4b1d6022271f", "26bbc92d6b376939"),
    ("hub10_tails2", 10): ("b57712cd0a25552b", "0fd3095625d1323c"),
    ("path10", 2): ("c1acae768e8ca293", "d1d7bede96311429"),
    ("path4", 2): ("27bba8ac7011beaa", "7211305f38656b4e"),
    ("path5", 2): ("54aefbc6448338c4", "4c598564312bb69e"),
    ("spider_8x6", 2): ("dddc79cbb8cdf861", "c0dcc577aed4f1b3"),
    ("spider_8x6", 3): ("6b82e3834e698e6f", "ff5dadf94b664062"),
    ("spider_8x6", 4): ("155438b6b3921be6", "34a4a3d8ec124c30"),
    ("spider_8x6", 5): ("9d10adde1c69222a", "d479217d54c841b2"),
    ("spider_8x6", 6): ("840dfc44c57b49f2", "4d61eb51b444152e"),
    ("spider_8x6", 7): ("991bab17ae62ad2b", "891215309a8b612e"),
    ("spider_8x6", 8): ("da2f4033af5f02db", "f69fef3284345f65"),
    ("complete_1_7_depth3", 2): ("cd1dc0732816f0b7", "2578e2edd47d084b"),
    ("complete_1_7_depth3", 3): ("5c10bc71438b30df", "0abf99a22192ca22"),
    ("complete_1_7_depth3", 4): ("2f934153ece74245", "8bd513cc3c3fa725"),
    ("complete_1_7_depth3", 5): ("c463bc047780b77c", "0abe11b0558b1806"),
    ("complete_1_7_depth3", 6): ("4e1639d0daaad0fc", "340af241f1eda80f"),
    ("complete_1_7_depth3", 7): ("bd7a46ae05c3da8d", "02b9c5cc90212e99"),
    ("hub4_binary4", 2): ("e31691e1d052c086", "f7e79aec817e8788"),
    ("hub4_binary4", 3): ("8e3acec779c2f3f4", "a5c0abf42c2fb641"),
    ("hub4_binary4", 4): ("9e37f2bfcf78ab0c", "5401a8fbdec77a28"),
    ("random_300_k6", 2): ("40fee06587da9ce1", "a1f822bc9e2e677d"),
    ("random_300_k6", 3): ("dc969b837e53d2d5", "e984b2f81ec8e383"),
    ("random_300_k6", 4): ("982f61a3ae24613b", "a3c3f19fef3cd381"),
    ("random_300_k6", 5): ("3cfedb1452a0995b", "5118d70f993cbb8f"),
    ("random_300_k6", 6): ("0a6ae26afe9be539", "a56f9e17b212f99e"),
    # at c = 2 the two-color descent below a lone off-line sibling reaches a
    # branching of 4 siblings 4 times and a leaf without branching 4 times;
    # recorded before the descent was folded into one coloring loop
    ("hub4_random16", 2): ("e80d50a73bdabb2b", "1974890610aff4f7"),
    ("hub4_random16", 3): ("daa4efc14cd5f644", "207304df83d25bd1"),
    ("hub4_random16", 4): ("53a15743b2c45688", "f7a1671a7709538e"),
    ("hub4_random16", 5): ("b4ecfb773a505a27", "5a162bfd4e85747a"),
    ("three_arm_no_branch", 2): ("77419b96c68d2c6f", "0552ee83f976bda7"),
    ("three_arm_no_branch", 3): ("b47b527d810bf139", "a7340bc13e8b75ab"),
    ("three_arm_no_branch", 4): ("8e719e39f91d38bb", "39b73c33f477ef74"),
    ("three_arm_no_branch", 5): ("5f006e8b2ce973aa", "6746cdae746e4e63"),
}


#: Digests (sha256 prefix) of the fix_report JSON and the DOT text for each
#: GOLDEN_COLOR_TREE coloring and trace: they pin the orbit numbering and the
#: DOT bytes, recorded before the orbit pass and the DOT writer were rewritten
#: to drop their transient per-vertex copies.
GOLDEN_FIX_AND_DOT = {
    ("complete_1_3_depth1", 2): ("42491c15365374a8", "2b502387bd8373ca"),
    ("complete_1_3_depth1", 3): ("d024fbe7f3d8c057", "973c7cb537ff4fae"),
    ("complete_1_3_depth2", 2): ("f51ddfc9b31b2ebc", "909e4b940875d1f8"),
    ("complete_1_3_depth2", 3): ("e0846e1e3e0fdfd9", "4e388183c00b5563"),
    ("complete_1_3_depth3", 2): ("aa766e90dd94fb94", "d571503cc75501b6"),
    ("complete_1_3_depth3", 3): ("e33e1656aed24be0", "3756a9fdd763b4a2"),
    ("complete_1_4_depth1", 2): ("fa21cc66c21fe99e", "67d11955b3213817"),
    ("complete_1_4_depth1", 3): ("3d3d71058b34e218", "b230d20bdd0be731"),
    ("complete_1_4_depth1", 4): ("7b0091beeea008ec", "dcf646239f66d3f9"),
    ("complete_1_4_depth2", 2): ("337b12c8b0c2d585", "02cb9cec68c7fd96"),
    ("complete_1_4_depth2", 3): ("2aa7a86b12758dcd", "9c45cffb5600f989"),
    ("complete_1_4_depth2", 4): ("0a288d2ecd1612ce", "e5fe7ac3b9c82d16"),
    ("complete_1_4_depth3", 2): ("5c6c5daf5b6cc2d1", "9b5cf96c3d99c54b"),
    ("complete_1_4_depth3", 3): ("d7e39888f625cc02", "c18c0c882cc9550b"),
    ("complete_1_4_depth3", 4): ("f52472de10d61391", "f41ce63d6bbc8d8c"),
    ("glued_stars", 2): ("f51ddfc9b31b2ebc", "909e4b940875d1f8"),
    ("glued_stars", 3): ("e0846e1e3e0fdfd9", "4e388183c00b5563"),
    ("hub10_tails2", 2): ("a4a7d7c2c4280ae0", "5fc01002218bfc6d"),
    ("hub10_tails2", 3): ("b0baacf457928792", "e2857d325f1eeeec"),
    ("hub10_tails2", 4): ("b0baacf457928792", "899e5fb6fb0c3603"),
    ("hub10_tails2", 5): ("b0baacf457928792", "57eb4725ba6fa042"),
    ("hub10_tails2", 6): ("b0baacf457928792", "01ecf1ca9c64e0a9"),
    ("hub10_tails2", 7): ("b0baacf457928792", "803d52bc140331a1"),
    ("hub10_tails2", 8): ("b0baacf457928792", "3a1d4dcef3c7e024"),
    ("hub10_tails2", 9): ("b0baacf457928792", "0c64dbad481d2ee8"),
    ("hub10_tails2", 10): ("b0baacf457928792", "175a1e805feb2da0"),
    ("path10", 2): ("6d4f36270910bc66", "f3073c60c5f2f0d3"),
    ("path4", 2): ("298ca22e04cf659e", "bb315bfad748a2a6"),
    ("path5", 2): ("0c23c1535ec4c8d2", "c9dbde46fcaa4777"),
    ("spider_8x6", 2): ("95a0998f8b4866a3", "0eb03e6eaae24b1a"),
    ("spider_8x6", 3): ("95a0998f8b4866a3", "21c22dff8473d891"),
    ("spider_8x6", 4): ("95a0998f8b4866a3", "1ab4a4ab66b249a6"),
    ("spider_8x6", 5): ("95a0998f8b4866a3", "f512446f2f8519dd"),
    ("spider_8x6", 6): ("95a0998f8b4866a3", "4b26319623c2f769"),
    ("spider_8x6", 7): ("95a0998f8b4866a3", "26008d43b9ea5898"),
    ("spider_8x6", 8): ("95a0998f8b4866a3", "71f95fa54816f3fd"),
    ("complete_1_7_depth3", 2): ("8f4b7addb7108d8d", "82cbf4a4948de6b1"),
    ("complete_1_7_depth3", 3): ("bdab40c5f1130a8b", "eecdd3314f01c43b"),
    ("complete_1_7_depth3", 4): ("52cb091eea237283", "9edbf10c429d23d3"),
    ("complete_1_7_depth3", 5): ("8ca5ae188908a318", "b734dbb3a83041f4"),
    ("complete_1_7_depth3", 6): ("006532c1598c3b46", "77e1a617c0e2ffaf"),
    ("complete_1_7_depth3", 7): ("365b2fc244d9fe34", "4177d65fc221a12e"),
    ("hub4_binary4", 2): ("8053a6e0ef33c26f", "7a0f458e47cd6eb9"),
    ("hub4_binary4", 3): ("a8eb5ceb39771f2c", "b82221d6c9221e8a"),
    ("hub4_binary4", 4): ("a8eb5ceb39771f2c", "f1fe84acd406d6e1"),
    ("random_300_k6", 2): ("ff847c8392ff3cf0", "c07e17df56f63cf3"),
    ("random_300_k6", 3): ("62af928e1006ed7d", "fc2205ceb2515c63"),
    ("random_300_k6", 4): ("bf359ee6a8e80aa5", "bca1430933d64ec0"),
    ("random_300_k6", 5): ("eeb7a851bc13e17d", "2b3a4ebf36c5fdfe"),
    ("random_300_k6", 6): ("eeb7a851bc13e17d", "53337dacc32d45bb"),
    ("hub4_random16", 2): ("4839dbb68e4329cd", "f49671ae993ff27a"),
    ("hub4_random16", 3): ("9012cffddb045ac0", "c2be3665e3312a6f"),
    ("hub4_random16", 4): ("ff2015c15d9ef7b0", "0f0e678d93675a03"),
    ("hub4_random16", 5): ("ff2015c15d9ef7b0", "0f0e678d93675a03"),
    ("three_arm_no_branch", 2): ("6ebcbd4a1d0c2a66", "257ce4c9eb41aa0b"),
    ("three_arm_no_branch", 3): ("6ebcbd4a1d0c2a66", "c4bdd81c53ca8962"),
    ("three_arm_no_branch", 4): ("1106a268400af239", "e72ac32fa8dfbce7"),
    ("three_arm_no_branch", 5): ("1106a268400af239", "165dcffeac9ab722"),
}


def _digest(payload: dict | str) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload)
    return hashlib.sha256(text.encode()).hexdigest()[:16]

def _golden_tree(name: str):
    generated = {
        "spider_8x6": lambda: _spider(8, 6),
        "complete_1_7_depth3": lambda: helpers.complete_tree(7, 3),
        "hub4_binary4": lambda: _hub(4, helpers.complete_tree(3, 4)),
        "hub4_random16": lambda: _hub(4, random_tree(16, 6, 101)),
        "random_300_k6": lambda: random_tree(300, 6, 2),
        "three_arm_no_branch": lambda: helpers.three_arm_tree(branch_size=0),
    }
    return generated[name]() if name in generated else helpers.load_fixture(name)


class TestColorTreeGolden:
    def test_every_fixture_and_color_count_covered(self):
        for path in helpers.FIXTURES.glob("*.tree"):
            k = max_valence(helpers.load_fixture(path.stem))
            assert {c for name, c in GOLDEN_COLOR_TREE if name == path.stem} == set(range(2, k + 1))

    @pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_COLOR_TREE}))
    def test_coloring_and_trace_bytes_pinned(self, name):
        t = _golden_tree(name)
        for c in range(2, max_valence(t) + 1):
            coloring, trace = color_tree(t, c)
            got = (_digest(coloring.to_json_dict()), _digest(trace.to_json_dict()))
            assert got == GOLDEN_COLOR_TREE[(name, c)], (name, c)

    def test_golden_trees_fire_every_rule_tag(self):
        tags = set()
        for name in {name for name, _ in GOLDEN_COLOR_TREE}:
            t = _golden_tree(name)
            for c in range(2, max_valence(t) + 1):
                tags.update(rule.split("[")[0] for rule in color_tree(t, c)[1].rules)
        assert tags == {
            "root",
            "step2_default",
            "step3_optimal",
            "main_line",
            "step4_case1",
            "step4_case1_no_branch",
            "step4_case2",
            "lemma",
        }

    @pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_FIX_AND_DOT}))
    def test_fix_report_and_dot_bytes_pinned(self, name):
        t = _golden_tree(name)
        for c in range(2, max_valence(t) + 1):
            coloring, trace = color_tree(t, c)
            got = (_digest(fix_report(t, coloring).to_json_dict()), _digest("".join(_dot_lines(t, coloring, trace))))
            assert got == GOLDEN_FIX_AND_DOT[(name, c)], (name, c)


def _outcome(make) -> str:
    """Digest of the JSON of what make() returns (a coloring, or a coloring
    and its trace), or the type and message of the treedist error it
    raises."""
    try:
        made = make()
    except TreedistError as exc:
        return f"{type(exc).__name__}: {exc}"
    parts = made if isinstance(made, tuple) else (made,)
    return _digest(json.dumps([part.to_json_dict() for part in parts]))


def _sibling_fill_outcomes(t) -> tuple[str, ...]:
    """The colorings that end in a sibling-distinct fill below a few
    pre-colored vertices: near-distinguishing, anchored at vertex 0, at
    the (first) center vertex and at the first leaf, spine along
    longest_spine, and color_regular."""
    middle = center(t)[0]
    leaf = min(range(t.n), key=lambda v: (t.degree(v) != 1, v))
    return (
        _outcome(lambda: color_near_distinguishing(t)),
        _outcome(lambda: color_anchored(t, 0)),
        _outcome(lambda: color_anchored(t, middle)),
        _outcome(lambda: color_anchored(t, leaf)),
        _outcome(lambda: color_spine(t, longest_spine(t))),
        _outcome(lambda: color_regular(t)),
    )


#: _sibling_fill_outcomes of every golden tree, and one digest of them over
#: 300 seeded random trees, recorded before the per-subtree fills were
#: folded into one pass over the rooted view.  The random digest was
#: re-recorded over these six outcomes when color_tree lost its root
#: override, before color_anchored and color_tree shared one routine.  An
#: error is pinned by type and message; both were re-recorded on the code
#: from before the error classes were merged, each old class name read as
#: the name of the class that absorbed it.
GOLDEN_SIBLING_FILL = {
    "complete_1_3_depth1": (
        "11108a4f659434a3",
        "BadParams: anchor valence 3 must be <= 2",
        "BadParams: anchor valence 3 must be <= 2",
        "597b82ed1b23f601",
        "711148d020c92963",
        "951ed7e4519617d3",
    ),
    "complete_1_3_depth2": (
        "e52a8c78e60bbf63",
        "BadParams: anchor valence 3 must be <= 2",
        "BadParams: anchor valence 3 must be <= 2",
        "2645769f11ea9c7c",
        "ef937cd9defc8446",
        "aad17464168a6533",
    ),
    "complete_1_3_depth3": (
        "cf8eb7eca1fd5632",
        "BadParams: anchor valence 3 must be <= 2",
        "BadParams: anchor valence 3 must be <= 2",
        "334377a5dddb956b",
        "e9e0f703426b5a88",
        "ec9c643cf1a7d2ba",
    ),
    "complete_1_4_depth1": (
        "2f336842c1468089",
        "BadParams: anchor valence 4 must be <= 3",
        "BadParams: anchor valence 4 must be <= 3",
        "a6e25a9db67d0bef",
        "5ec67f70993db618",
        "05f1e4094aa50849",
    ),
    "complete_1_4_depth2": (
        "302c5872e84d21dd",
        "BadParams: anchor valence 4 must be <= 3",
        "BadParams: anchor valence 4 must be <= 3",
        "3bbe43c18a86f232",
        "c021c2c958327bba",
        "0730e874fea96d6e",
    ),
    "complete_1_4_depth3": (
        "3f1262797f73a230",
        "BadParams: anchor valence 4 must be <= 3",
        "BadParams: anchor valence 4 must be <= 3",
        "e9d6053e4047053e",
        "63c48c00539288ea",
        "10074ef73f0dd4f6",
    ),
    "complete_1_7_depth3": (
        "d52106b4bf26faf0",
        "BadParams: anchor valence 7 must be <= 6",
        "BadParams: anchor valence 7 must be <= 6",
        "0f9162861de9792b",
        "06ea0f342604f514",
        "2b49ec3249bfb99f",
    ),
    "glued_stars": (
        "e52a8c78e60bbf63",
        "BadParams: anchor valence 3 must be <= 2",
        "BadParams: anchor valence 3 must be <= 2",
        "2645769f11ea9c7c",
        "ef937cd9defc8446",
        "aad17464168a6533",
    ),
    "hub10_tails2": (
        "6c6e3a2777e2cc3e",
        "BadParams: anchor valence 10 must be <= 9",
        "BadParams: anchor valence 10 must be <= 9",
        "032477ca4d6be661",
        "621143d50a6436e0",
        "BadParams: vertex 1 has valence 2, not 1 or 10",
    ),
    "hub4_binary4": (
        "3929a8607b5cb2ae",
        "BadParams: anchor valence 4 must be <= 3",
        "BadParams: anchor valence 4 must be <= 3",
        "ba2f44202297253f",
        "a8e4c23f563dc2b2",
        "BadParams: vertex 2 has valence 3, not 1 or 4",
    ),
    "hub4_random16": (
        "371dfb69d7a61187",
        "371dfb69d7a61187",
        "371dfb69d7a61187",
        "4329e8d74046367d",
        "e3280b28f8e395ae",
        "BadParams: vertex 0 has valence 4, not 1 or 5",
    ),
    "path10": (
        "4f2ec7dd309d7acc",
        "4f2ec7dd309d7acc",
        "BadParams: anchor valence 2 must be <= 1",
        "4f2ec7dd309d7acc",
        "84edbd42e324c205",
        "c9ed3d5214328589",
    ),
    "path4": (
        "8ee08f3b7c44ae31",
        "8ee08f3b7c44ae31",
        "BadParams: anchor valence 2 must be <= 1",
        "8ee08f3b7c44ae31",
        "f6fd369d5d036838",
        "9941c7e857f0d46a",
    ),
    "path5": (
        "5d0f1a1d9792ffd0",
        "5d0f1a1d9792ffd0",
        "BadParams: anchor valence 2 must be <= 1",
        "5d0f1a1d9792ffd0",
        "0aab630666312e48",
        "5ed254b1939b6c50",
    ),
    "random_300_k6": (
        "64c68e05bdeaef1b",
        "BadParams: anchor valence 6 must be <= 5",
        "dd8c1a209816d415",
        "a16ca9bd11ead71c",
        "c99392c196455f66",
        "BadParams: vertex 2 has valence 3, not 1 or 6",
    ),
    "spider_8x6": (
        "00ee5ea62d33c384",
        "BadParams: anchor valence 8 must be <= 7",
        "BadParams: anchor valence 8 must be <= 7",
        "25c295fa2919c7c2",
        "088c010cac07e7da",
        "BadParams: vertex 1 has valence 2, not 1 or 8",
    ),
    "three_arm_no_branch": (
        "fe259a191e299ccd",
        "BadParams: anchor valence 5 must be <= 4",
        "BadParams: anchor valence 5 must be <= 4",
        "c7662e1473433c4d",
        "f5be26729202876a",
        "BadParams: vertex 1 has valence 2, not 1 or 5",
    ),
    "random_300": "f7ddc55b0454a064",
}


def _random_fill_trees():
    rng = random.Random(1810)
    return [random_tree(rng.randint(1, 60), rng.randint(2, 7), seed) for seed in range(300)]


class TestSiblingFillGolden:
    @pytest.mark.parametrize("name", sorted({name for name, _ in GOLDEN_COLOR_TREE}))
    def test_colorings_pinned(self, name):
        assert _sibling_fill_outcomes(_golden_tree(name)) == GOLDEN_SIBLING_FILL[name]

    def test_random_trees_pinned(self):
        got = _digest(json.dumps([_sibling_fill_outcomes(t) for t in _random_fill_trees()]))
        assert got == GOLDEN_SIBLING_FILL["random_300"]


def _separation_trees():
    """Trees on which color_tree groups sibling twins: spiders with equal
    legs, complete k-ary trees, hubs of glued copies, caterpillars, and 500
    seeded random trees."""
    for legs in range(3, 9):
        for length in range(1, 5):
            yield helpers.spider_tree(legs, length)
    for k in range(3, 8):
        for depth in range(1, 4):
            yield helpers.complete_tree(k, depth)
    subs = (
        helpers.complete_tree(3, 2),
        helpers.complete_tree(3, 3),
        helpers.spider_tree(2, 2),
        helpers.caterpillar_tree(3, 2),
    )
    for copies in range(2, 7):
        for sub in subs:
            yield _hub(copies, sub)
    for spine in range(2, 8):
        for legs in range(1, 6):
            yield helpers.caterpillar_tree(spine, legs)
    rng = random.Random(1815)
    for seed in range(500):
        yield random_tree(rng.randint(1, 120), rng.randint(3, 8), seed)


#: One digest of color_tree's coloring and trace at every c from 2 to the
#: max valence, and of color_near_distinguishing, over _separation_trees;
#: recorded while twins still relabelled each candidate class by its
#: colored subtrees.
GOLDEN_SEPARATION = "343d7f9a2d163cea"


def test_separation_outputs_pinned():
    digest = hashlib.sha256()
    lines = 0
    for t in _separation_trees():
        for c in range(2, max_valence(t) + 1):
            coloring, trace = color_tree(t, c)
            lines += len(trace.main_lines)
            digest.update(json.dumps([coloring.to_json_dict(), trace.to_json_dict()]).encode())
        digest.update(json.dumps(color_near_distinguishing(t).to_json_dict()).encode())
    assert lines >= 100
    assert digest.hexdigest()[:16] == GOLDEN_SEPARATION


@pytest.mark.parametrize("name", ["spider_8x6", "complete_1_7_depth3", "hub4_binary4", "hub10_tails2"])
def test_main_lines_spell_group_indices(name):
    # below its anchor, the i-th line of a group reads lsb_digits(i) down a
    # deepest descent, so the lines of one group spell different strings
    t = _golden_tree(name)
    k = max_valence(t)
    rv = t.centered
    lines = 0
    for c in range(2, k - 1):
        coloring, trace = color_tree(t, c)
        radius = fix_radius(c, k)
        for group in trace.line_groups:
            spelled = set()
            for i, line in enumerate(group):
                assert len(line) == radius + 1
                for u, v in zip(line, line[1:]):
                    assert rv.parent[v] == u and rv.heights[v] == rv.heights[u] - 1
                digits = [coloring.colors[v] for v in line[1:]]
                assert digits == lsb_digits(i, radius, c)
                spelled.add(tuple(digits))
            assert len(spelled) == len(group)
            lines += len(group)
    assert lines


class TestColorTreeLabelCalls:
    """color_tree labels the uncolored shape once and groups twins by color
    and shape; it never labels a colored subtree."""

    @pytest.mark.parametrize("name, c", [("hub4_binary4", 2), ("complete_1_7_depth3", 3)])
    def test_one_shape_labelling(self, monkeypatch, name, c):
        t = _golden_tree(name)
        calls = []
        original = coloring_module.canonical_labels

        def counted(rv, colors):
            calls.append(set(colors))
            return original(rv, colors)

        monkeypatch.setattr(coloring_module, "canonical_labels", counted)
        _, trace = color_tree(t, c)
        assert len(trace.line_groups) >= 2
        assert calls == [{0}]
