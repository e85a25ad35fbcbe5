from __future__ import annotations

import hashlib
import json
import multiprocessing

import pytest

from treedist import (
    Coloring,
    color_near_distinguishing,
    color_tree,
    fix_radius,
    max_valence,
    random_tree,
    run_random_campaign,
    tree_from_edges,
    verify_fixing_guarantee,
    verify_near_distinguishing,
)
from treedist import verifier
from treedist.errors import BadParams

import helpers
from helpers import RADIUS_TABLE, RADIUS_TABLE_K, paired_class_minimax, reference_radius_table_check


class TestPairedClassMinimax:
    @pytest.mark.parametrize("t,j,expected", [(4, 2, 2), (5, 2, 3), (9, 2, 5)])
    def test_reference_values(self, t, j, expected):
        assert paired_class_minimax(t, j) == expected

    def test_upper_bound(self):
        for t in range(2, 13):
            for j in range(1, 7):
                assert paired_class_minimax(t, j) <= max(3, -(t // -j))

    def test_case_formulas(self):
        # even t: 2 when colors abound, else even split; odd t: 3 when colors
        # abound, else the one-ignored-slot construction, whose +1 only bites
        # when the even part splits into equal classes
        for t in range(2, 13):
            for j in range(1, 7):
                if t % 2 == 0:
                    expected = 2 if j >= t // 2 else -(t // -j)
                elif j >= (t - 1) // 2:
                    expected = 3
                else:
                    expected = (t - 1) // j + 1 if (t - 1) % j == 0 else -((t - 1) // -j)
                assert paired_class_minimax(t, j) == expected, (t, j)

    def test_infeasible(self):
        with pytest.raises(BadParams, match="^need at least 2 slots for the pair constraint$"):
            paired_class_minimax(1, 2)
        with pytest.raises(BadParams, match="^need at least 1 color$"):
            paired_class_minimax(4, 0)

    def test_matches_true_brute_force(self):
        # independent double check: enumerate raw color assignments
        from itertools import product

        for t in range(2, 9):
            for j in range(1, 5):
                best = None
                for assign in product(range(j), repeat=t):
                    counts = [assign.count(c) for c in set(assign)]
                    if any(c < 2 for c in counts):
                        continue
                    worst = max(counts)
                    best = worst if best is None else min(best, worst)
                assert paired_class_minimax(t, j) == best, (t, j)


class TestRadiusTable:
    def test_zero_mismatches(self):
        report = reference_radius_table_check()
        assert report.passed
        assert report.trials == 75

    def test_spot_values(self):
        assert fix_radius(2, 16) == 5
        assert fix_radius(7, 8) == 1

    def test_table_shape(self):
        assert set(RADIUS_TABLE) == set(range(2, 8))
        assert all(len(row) == len(list(RADIUS_TABLE_K)) for row in RADIUS_TABLE.values())
        dashes = sum(1 for row in RADIUS_TABLE.values() for x in row if x is None)
        assert dashes == 15


class TestVerifyFixingGuarantee:
    def test_hub10_passes_and_fixes_sphere1(self):
        t = helpers.load_fixture("hub10_tails2")
        report = verify_fixing_guarantee(t, color_tree(t, 3)[0])
        assert report.passed

    def test_path_passes(self):
        t = helpers.path_tree(9)
        report = verify_fixing_guarantee(t, color_tree(t, 2)[0])
        assert report.passed

    def test_corrupted_coloring_yields_witness(self):
        t = helpers.load_fixture("hub10_tails2")
        coloring, trace = color_tree(t, 3)
        group = max(trace.line_groups, key=len)
        first, second = group[0], group[1]
        mutated = list(coloring.colors)
        for a, b in zip(first[1:], second[1:]):
            mutated[b] = mutated[a]  # force two main lines equal
        bad = Coloring(coloring.num_colors, tuple(mutated))
        report = verify_fixing_guarantee(t, bad)
        assert not report.passed
        witness = report.failures[0].witness["unfixed_but_guaranteed"]
        assert first[0] in witness and second[0] in witness

    def test_witness_replay(self):
        t = random_tree(20, 4, 123)
        coloring, _ = color_tree(t, 2)
        mutated = list(coloring.colors)
        mutated[5] = (mutated[5] + 1) % 2
        bad = Coloring(2, tuple(mutated))
        first = verify_fixing_guarantee(t, bad)
        again = verify_fixing_guarantee(t, bad)
        assert first.to_json_dict() == again.to_json_dict()

    def test_oracle_budget(self):
        # no size cap: the oracle, fix_report, is near-linear in n
        t = helpers.path_tree(70)
        assert verify_fixing_guarantee(t, color_tree(t, 2)[0]).passed

    def test_color_count_domain(self):
        with pytest.raises(BadParams, match="^need at least 2 colors, got 1$"):
            verify_fixing_guarantee(helpers.path_tree(5), Coloring(1, (0,) * 5))

    def test_more_colors_than_valence(self):
        # the radius is 0 there, so every vertex must be fixed
        for t in (helpers.path_tree(5), helpers.load_fixture("hub10_tails2")):
            for c in (max_valence(t), max_valence(t) + 1, 12):
                assert verify_fixing_guarantee(t, color_tree(t, c)[0]).passed
        report = verify_fixing_guarantee(helpers.path_tree(5), Coloring(5, (0, 1, 2, 1, 0)))
        assert report.failures[0].witness == {"unfixed_but_guaranteed": [0, 1, 3, 4]}


class TestVerifyNearDistinguishing:
    def test_glued_stars(self):
        t = helpers.load_fixture("glued_stars")
        report = verify_near_distinguishing(t, color_near_distinguishing(t))
        assert report.passed and report.skipped == 0

    def test_asymmetric_tree(self):
        t = tree_from_edges([(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6), (6, 7)])
        report = verify_near_distinguishing(t, color_near_distinguishing(t))
        assert report.passed

    def test_complete_tree_depth2(self):
        t = helpers.complete_tree(3, 2)
        report = verify_near_distinguishing(t, color_near_distinguishing(t))
        assert report.passed

    def test_paths_are_skipped(self):
        t = helpers.path_tree(6)
        report = verify_near_distinguishing(t, color_near_distinguishing(t))
        assert report.passed and report.skipped == 1


class TestRunRandomCampaign:
    def test_small_campaign_clean(self):
        report = run_random_campaign(trials=60, n_max=25, k_max=6, seed=42)
        assert report.passed
        assert report.trials == 60

    def test_reference_campaign_clean(self):
        report = run_random_campaign(trials=1000, n_max=40, k_max=8, seed=42)
        assert report.passed
        assert report.trials == 1000

    def test_single_vertex_trial(self):
        report = run_random_campaign(trials=1, n_max=1, k_max=2, seed=0)
        assert report.passed

    def test_deterministic(self):
        a = run_random_campaign(trials=25, n_max=20, k_max=5, seed=9)
        b = run_random_campaign(trials=25, n_max=20, k_max=5, seed=9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_parallel_matches_serial(self):
        a = run_random_campaign(trials=24, n_max=18, k_max=5, seed=4, jobs=1)
        b = run_random_campaign(trials=24, n_max=18, k_max=5, seed=4, jobs=2)
        assert a.to_json_dict() == b.to_json_dict()

    @pytest.mark.parametrize(
        "jobs,trials,cpus,workers",
        [(10**6, 24, 8, 8), (10**6, 5, 8, 5), (3, 24, 8, 3), (10**6, 24, None, None), (2, 1, 8, None)],
    )
    def test_worker_count_clamped(self, monkeypatch, jobs, trials, cpus, workers):
        # an in-process stand-in for the pool records the worker count, so no
        # process is ever started; None means the campaign ran sequentially
        import concurrent.futures

        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        report = run_random_campaign(trials=trials, n_max=12, k_max=4, seed=2, jobs=jobs)
        assert seen == ([] if workers is None else [workers])
        serial = run_random_campaign(trials=trials, n_max=12, k_max=4, seed=2, jobs=1)
        assert report.to_json_dict() == serial.to_json_dict()

    # sha256 of the campaign JSON at the CLI's defaults (n_max 40, k_max 8,
    # seed 0), recorded when the trials still ran one call each and the
    # failures were sorted after the run
    PAYLOAD_SHA256 = {
        1: "63cf6785e98cef28e29753098a18448ed3a0a24b08d4dd69c3f751f7f94ddd80",
        3: "66de9f3577f29f25b53643292ee33c461c41822a6291428bc0a2a44720034959",
        7: "5fce94496b4d71ba1e81441b79098e4499772f3767d975ce387f1211ddf2633c",
        601: "125ad7282d61755cb4b8cd1fd5dbd6683f6fb6612132086074cacc66f0bfe5d9",
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("trials", sorted(PAYLOAD_SHA256))
    def test_payload_pinned(self, trials, jobs):
        # trials below 4 x workers give ranges of one trial, or one worker
        report = run_random_campaign(trials, 40, 8, 0, jobs=jobs)
        payload = json.dumps(report.to_json_dict()).encode()
        assert hashlib.sha256(payload).hexdigest() == self.PAYLOAD_SHA256[trials]

    @pytest.mark.parametrize("trials", [1, 2, 3, 7, 8, 9, 601])
    @pytest.mark.parametrize("parts", [1, 4, 8])
    def test_trial_ranges_cover_every_index_once_in_order(self, trials, parts):
        ranges = verifier._trial_ranges(trials, parts)
        assert len(ranges) == min(trials, parts)
        assert [i for r in ranges for i in r] == list(range(trials))
        assert max(map(len, ranges)) - min(map(len, ranges)) <= 1

    def test_failures_in_seed_then_property_order(self, monkeypatch):
        # with nothing fixed both checks fail on many trials; the ranges,
        # joined unsorted, must give every trial's failures in trial order
        monkeypatch.setattr(verifier, "fixed_vertices", lambda tree, coloring: [False] * tree.n)
        report = run_random_campaign(trials=40, n_max=12, k_max=5, seed=3)
        serial = [f for i in range(40) for f in verifier._campaign_range((3, range(i, i + 1), 12, 5))[1]]
        assert len({f.prop for f in serial}) == 2
        assert report.failures == serial
        assert report.failures == sorted(serial, key=lambda f: (f.seed, f.prop))

    def test_traced_peak_flat_in_trials(self):
        # each range call keeps only its skip count and failures, and a
        # trial's tree is freed once the next trial's replaces it: the peak
        # must not follow the trial count
        run_random_campaign(1, 12, 5, 1)
        _, small, _ = helpers.traced_peak(lambda: run_random_campaign(1000, 12, 5, 1))
        _, large, _ = helpers.traced_peak(lambda: run_random_campaign(8000, 12, 5, 1))
        assert large <= 1.2 * small, (small, large)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="the patched check reaches workers only by fork"
    )
    def test_failures_joined_in_order_across_workers(self, monkeypatch):
        # the patch is made before the pool forks, so every worker fails its
        # checks too: the ranges the workers return, joined unsorted, must
        # give the in-process list, trial by trial
        monkeypatch.setattr(verifier, "fixed_vertices", lambda tree, coloring: [False] * tree.n)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        serial = run_random_campaign(trials=40, n_max=12, k_max=5, seed=3, jobs=1)
        parallel = run_random_campaign(trials=40, n_max=12, k_max=5, seed=3, jobs=2)
        assert len(serial.failures) > 40
        assert parallel.failures == serial.failures

    def test_bad_params(self):
        with pytest.raises(BadParams, match="^need trials >= 1, n_max >= 1, k_max >= 2$"):
            run_random_campaign(0, 10, 4, 1)

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one(self, jobs):
        with pytest.raises(BadParams, match=f"^need jobs >= 1, got {jobs}$"):
            run_random_campaign(3, 10, 4, 1, jobs=jobs)

    def test_no_size_cap(self):
        report = run_random_campaign(1, 1000, 4, 1)
        assert report.passed and report.trials == 1


def test_branching_bound_dominates_two_color_case():
    # the two-color branching situation never exceeds the paired-coloring bound
    for k in range(4, 65):
        assert max(3, -((k - 1) // -2)) <= max(3, k - 2)
