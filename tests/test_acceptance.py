"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

from __future__ import annotations

import random
import time

from treedist import (
    Coloring,
    color_anchored,
    color_near_distinguishing,
    color_regular,
    color_spine,
    color_tree,
    distinguishing_number,
    enumerate_automorphisms,
    fix_radius,
    fix_report,
    max_valence,
    random_tree,
    root_at,
    center,
    tree_from_edges,
    verify_fixing_guarantee,
    verify_near_distinguishing,
)
import helpers
from helpers import paired_class_minimax, reference_radius, reference_radius_table_check


def announce(num: int, name: str, detail: str) -> None:
    print(f"criterion {num:2d} ({name}): PASS - {detail}")


def test_criterion_01_radius_table():
    start = time.perf_counter()
    report = reference_radius_table_check()
    assert report.passed and report.trials == 75
    assert fix_radius(2, 7) == 4
    assert fix_radius(3, 9) == 2
    assert fix_radius(4, 15) == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, "radius table", f"75/75 entries match, {elapsed:.3f}s")


def test_criterion_02_hub10_fixture():
    start = time.perf_counter()
    t = helpers.load_fixture("hub10_tails2")
    assert max_valence(t) == 10
    radius = reference_radius(3, 10)
    assert not radius.admits(1)
    assert radius.admits(2)
    assert fix_radius(3, 10) == 2
    coloring, trace = color_tree(t, 3)
    assert trace.line_groups
    for group in trace.line_groups:
        seqs = [tuple(coloring.colors[v] for v in line[1:]) for line in group]
        assert len(set(seqs)) == len(seqs)
        for line in group:
            assert len(line) == 3  # anchor plus two colored spheres, one digit each
    rep = fix_report(t, coloring)
    rv = root_at(t, center(t))
    sphere1 = [v for v in range(t.n) if rv.depth[v] == 1]
    assert all(rep.fixed[v] for v in sphere1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(2, "hub-10 fixture", f"{len(trace.main_lines)} lines of length 2, sphere 1 fixed, {elapsed:.3f}s")


def test_criterion_03_main_guarantee_campaign():
    start = time.perf_counter()
    rng = random.Random(20260810)
    checks = 0
    failures = []
    for trial in range(1000):
        n = rng.randint(2, 40)
        k_param = rng.randint(3, 8)
        t = random_tree(n, k_param, seed=rng.randrange(2**32))
        kv = max_valence(t)
        for c in range(2, kv + 1):
            report = verify_fixing_guarantee(t, color_tree(t, c)[0])
            checks += 1
            if not report.passed:
                failures.append((trial, n, k_param, c, report.failures))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert checks >= 1000
    assert elapsed < 60.0
    announce(3, "main guarantee", f"1000 trees, {checks} (tree, c) checks, 0 failures, {elapsed:.1f}s")


def test_criterion_04_distinguishing_fixtures():
    for n in range(2, 7):
        assert distinguishing_number(helpers.star_tree(n), n + 1) == n
    for depth in (1, 2, 3):
        assert distinguishing_number(helpers.complete_tree(3, depth), 4) == 3
    for n in range(2, 9):
        assert distinguishing_number(helpers.path_tree(n), 3) == 2
    announce(4, "distinguishing numbers", "stars n=2..6, complete trees depth 1..3, paths n=2..8")


def test_criterion_05_near_distinguishing_campaign():
    start = time.perf_counter()
    rng = random.Random(55)
    checked = skipped = 0
    failures = []
    for trial in range(500):
        n = rng.randint(2, 20)
        k_param = rng.randint(3, 6)
        t = random_tree(n, k_param, seed=rng.randrange(2**32))
        report = verify_near_distinguishing(t, color_near_distinguishing(t))
        if report.skipped:
            skipped += 1  # max valence < 3: the k-1 = 1 color guarantee does not exist
            continue
        checked += 1
        if not report.passed:
            failures.append((trial, n, k_param, report.failures))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert checked >= 350
    announce(5, "near-distinguishing", f"{checked} trees checked ({skipped} valence<3 skips), 0 failures, {elapsed:.1f}s")


def test_criterion_06_regular_trees():
    cases = 0
    for k in (3, 4, 5):
        for depth in (1, 2, 3):
            t = helpers.complete_tree(k, depth)
            coloring = color_regular(t)
            unfixed = fix_report(t, coloring).unfixed_set()
            assert all(t.degree(v) == 1 for v in unfixed), (k, depth)
            cases += 1
    announce(6, "regular two-coloring", f"{cases} complete trees, unfixed only leaves")


def test_criterion_07_anchored_stabilizers():
    start = time.perf_counter()
    rng = random.Random(77)
    checked = 0
    for trial in range(200):
        n = rng.randint(2, 12)
        t = random_tree(n, rng.randint(2, 4), seed=rng.randrange(2**32))
        k = max_valence(t)
        if k < 2:
            continue
        anchors = [v for v in range(t.n) if t.degree(v) <= k - 1]
        if not anchors:
            continue
        v = anchors[rng.randrange(len(anchors))]
        coloring = color_anchored(t, v, max_degree=k)
        identity = tuple(range(t.n))
        for a in enumerate_automorphisms(t, coloring):
            if a[v] == v:
                assert a == identity, (trial, v, a)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 170
    announce(7, "anchored stabilizer breaking", f"{checked} trees, identity only, {elapsed:.1f}s")


def test_criterion_08_paired_minimax():
    start = time.perf_counter()
    points = 0
    for t in range(2, 13):
        for j in range(1, 7):
            value = paired_class_minimax(t, j)
            assert value <= max(3, -(t // -j))
            if t % 2 == 0:
                expected = 2 if j >= t // 2 else -(t // -j)
            elif j >= (t - 1) // 2:
                expected = 3
            else:
                # the odd case adds 1 only when the even part splits equally
                expected = (t - 1) // j + 1 if (t - 1) % j == 0 else -((t - 1) // -j)
            assert value == expected, (t, j)
            points += 1
    # the three points where the unqualified +1 would overshoot
    assert paired_class_minimax(9, 3) == 3
    assert paired_class_minimax(11, 3) == 4
    assert paired_class_minimax(11, 4) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(8, "paired minimax", f"{points} (t, j) points exact, {elapsed:.3f}s")


def _oracle_equivalence(t, coloring) -> None:
    rep = fix_report(t, coloring)
    autos = enumerate_automorphisms(t, coloring)
    assert rep.aut_count == len(autos)
    moved = {v for a in autos for v in range(t.n) if a[v] != v}
    assert rep.unfixed_set() == moved


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(99)
    checks = 0
    for n in range(1, 7):
        for t in helpers.all_labeled_trees(n):
            colorings = [Coloring(1, tuple([0] * n))]
            for c in (2, 3):
                colorings.append(Coloring(c, tuple(rng.randrange(c) for _ in range(n))))
            for coloring in colorings:
                _oracle_equivalence(t, coloring)
                checks += 1
    sampled = 0
    for trial in range(300):
        n = rng.randint(1, 9)
        t = random_tree(n, rng.randint(2, 4), seed=rng.randrange(2**32))
        c = rng.randint(1, 3)
        coloring = Coloring(c, tuple(rng.randrange(c) for _ in range(n)))
        _oracle_equivalence(t, coloring)
        sampled += 1
    elapsed = time.perf_counter() - start
    assert sampled == 300
    announce(9, "oracle equivalence", f"{checks} exhaustive + {sampled} sampled checks, {elapsed:.1f}s")


def _random_caterpillar(rng: random.Random) -> tuple:
    k = rng.randint(3, 5)
    spine_edges = rng.randint(1, 8)
    edges = [(i, i + 1) for i in range(spine_edges)]
    nxt = spine_edges + 1
    for z in range(1, spine_edges + 1):
        for _ in range(rng.randint(0, min(2, k - 2))):
            shape = rng.choice(("leaf", "chain2", "cherry"))
            root = nxt
            edges.append((z, root))
            nxt += 1
            if shape == "chain2":
                edges.append((root, nxt))
                nxt += 1
            elif shape == "cherry":
                edges.append((root, nxt))
                edges.append((root, nxt + 1))
                nxt += 2
    t = tree_from_edges(edges, n=nxt)
    return t, list(range(spine_edges + 1)), k


def test_criterion_10_spine_surrogate():
    start = time.perf_counter()
    rng = random.Random(1010)
    for trial in range(100):
        t, spine, k = _random_caterpillar(rng)
        assert max_valence(t) <= k
        coloring = color_spine(t, spine, max_degree=k)
        identity = tuple(range(t.n))
        for a in enumerate_automorphisms(t, coloring):
            if all(a[z] == z for z in spine):
                assert a == identity, (trial, a)
    elapsed = time.perf_counter() - start
    announce(10, "spine-stabilizer surrogate", f"100 caterpillar fixtures, identity only, {elapsed:.1f}s")
