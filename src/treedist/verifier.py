"""Campaign runners and independent oracles for the coloring guarantees.

Every check returns a CampaignReport whose failures are self-describing: a
failure carries the generator arguments (seed, n, k) plus the color count, so
it can be replayed standalone.  A check judges the coloring it is given and
makes none; a campaign trial makes both colorings of its tree.  Trials are
independent, so a campaign runs as contiguous ranges of trial indices, over
a process pool if asked; the ranges are joined in index order, so failures
come out sorted by seed.
The oracle is symmetry.fixed_vertices, one labelling run and one top-down
pass, near-linear in n, so no check caps the tree size.
Reports carry no timing, so payloads are byte-identical across runs.
"""

from __future__ import annotations

import os
import random

from .errors import BadParams
from .symmetry import Coloring, fixed_vertices
from .tree_core import Record, Tree, fix_radius, max_valence, random_tree

class Failure(Record):
    """One violated property with enough context to replay it."""

    __slots__ = _fields = ("seed", "n", "k", "c", "prop", "witness")
    __hash__ = None  # mutable, as its witness dict is

    def __init__(self, seed: int | None, n: int, k: int, c: int | None, prop: str, witness: dict):
        self.seed = seed
        self.n = n
        self.k = k
        self.c = c
        self.prop = prop
        self.witness = witness

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "k": self.k,
            "c": self.c,
            "property": self.prop,
            "witness": self.witness,
        }


class CampaignReport(Record):
    """Aggregate of verification trials; passed iff failures is empty."""

    __slots__ = _fields = ("trials", "skipped", "failures")
    __hash__ = None  # mutable, as its failures list is

    def __init__(self, trials: int, skipped: int = 0, failures: list[Failure] | None = None):
        self.trials = trials
        self.skipped = skipped
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "skipped": self.skipped,
            "failures": [f.to_json_dict() for f in sorted(self.failures, key=lambda f: (f.seed or 0, f.prop))],
        }


def verify_fixing_guarantee(tree: Tree, coloring: Coloring) -> CampaignReport:
    """Check that the coloring fixes every vertex meeting the distance
    condition for its own color count c = coloring.num_colors.

    Compares the fixed set from fixed_vertices against the set of vertices
    whose subtree reaches a leaf at distance >= fix_radius(c, max_valence).
    With at least max_valence colors the radius is 0: every vertex must be
    fixed.  color_tree(tree, c)[0] is the coloring this guarantee is for.
    """
    k = max_valence(tree)
    c = coloring.num_colors
    if c < 2:
        raise BadParams(f"need at least 2 colors, got {c}")
    fixed = fixed_vertices(tree, coloring)
    heights = tree.centered.heights
    radius = fix_radius(c, k)
    witnesses = [u for u in range(tree.n) if heights[u] >= radius and not fixed[u]]
    witness = {"unfixed_but_guaranteed": witnesses} if witnesses else None
    return _one_trial(tree, k, c, "fixing_guarantee", witness)


def verify_near_distinguishing(tree: Tree, coloring: Coloring) -> CampaignReport:
    """Check that the coloring, as color_near_distinguishing(tree) makes it,
    leaves nothing unfixed beyond one pair of leaves with a common neighbor.

    Trees with max valence < 3 are skipped: with k - 1 = 1 color a path of 4
    or more vertices cannot be pinned down at all, so the guarantee only
    exists from k = 3 up.
    """
    k = max_valence(tree)
    if k < 3:
        return CampaignReport(trials=1, skipped=1)
    unfixed = [v for v, f in enumerate(fixed_vertices(tree, coloring)) if not f]
    ok = not unfixed
    if len(unfixed) == 2:
        a, b = unfixed
        shared = set(tree.neighbors(a)) & set(tree.neighbors(b))
        ok = tree.degree(a) == 1 == tree.degree(b) and bool(shared)
    return _one_trial(tree, k, coloring.num_colors, "near_distinguishing", None if ok else {"unfixed": unfixed})


def _one_trial(tree: Tree, k: int, c: int, prop: str, witness: dict | None) -> CampaignReport:
    """The report of one check of `prop`: passed without a witness, else one
    failure with no seed, since the caller's tree came from no generator."""
    failures = [] if witness is None else [Failure(None, tree.n, k, c, prop, witness)]
    return CampaignReport(trials=1, failures=failures)


def _campaign_range(args: tuple[int, range, int, int]) -> tuple[int, list[Failure]]:
    """The trials of one index range, in order, with their checks' failures
    keyed to the trial seed: only the skip count and the failures are kept,
    so a call's memory does not grow with the range."""
    # imported here, so `treedist verify`, which checks a given coloring,
    # never loads the colorings
    from .coloring import color_near_distinguishing, color_tree

    seed, indices, n_max, k_max = args
    skipped = 0
    failures: list[Failure] = []
    for index in indices:
        trial_seed = seed * 1_000_003 + index
        rng = random.Random(trial_seed)
        n = rng.randint(1, n_max)
        k_param = rng.randint(2, max(2, k_max))
        tree = random_tree(n, k_param, trial_seed)
        kv = max_valence(tree)
        # a tree of one or two vertices admits no color count, and one of
        # max valence < 3 has no near-distinguishing guarantee: no coloring
        # is made for a check that skips it
        skip = CampaignReport(trials=1, skipped=1)
        fixing = verify_fixing_guarantee(tree, color_tree(tree, rng.randint(2, kv))[0]) if kv >= 2 else skip
        near = verify_near_distinguishing(tree, color_near_distinguishing(tree)) if kv >= 3 else skip
        skipped += fixing.skipped + near.skipped
        failures += [Failure(trial_seed, n, k_param, f.c, f.prop, f.witness) for r in (fixing, near) for f in r.failures]
    return skipped, failures


def _trial_ranges(trials: int, parts: int) -> list[range]:
    """range(trials) cut into min(trials, parts) contiguous ranges, in order,
    whose lengths differ by at most one."""
    parts = min(trials, parts)
    return [range(trials * i // parts, trials * (i + 1) // parts) for i in range(parts)]


def run_random_campaign(
    trials: int, n_max: int, k_max: int, seed: int, jobs: int = 1
) -> CampaignReport:
    """Seeded random campaign: per trial, generate a tree, verify the fixing
    guarantee at a random admissible color count, and verify the
    near-distinguishing guarantee.  Deterministic for fixed arguments.

    The trials run as about 4 contiguous index ranges per worker, one call
    each, and a call returns only its skip count and failures, so memory
    does not grow with the trial count.  Ranges are joined in index order,
    which is (seed, property) order: the failures need no sort."""
    if trials < 1 or n_max < 1 or k_max < 2:
        raise BadParams("need trials >= 1, n_max >= 1, k_max >= 2")
    if jobs < 1:
        raise BadParams(f"need jobs >= 1, got {jobs}")
    # imported before the pool forks its workers, so no worker compiles it
    from . import coloring  # noqa: F401

    # more workers than trials or cores only costs process start-ups
    workers = min(jobs, trials, os.cpu_count() or 1)
    work = [(seed, r, n_max, k_max) for r in _trial_ranges(trials, 4 * workers)]
    if workers > 1:
        # imported here: the pool costs every other run its import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_campaign_range, work))
    else:
        results = list(map(_campaign_range, work))
    skipped = sum(s for s, _ in results)
    failures = [f for _, fs in results for f in fs]
    return CampaignReport(trials=trials, skipped=skipped, failures=failures)
