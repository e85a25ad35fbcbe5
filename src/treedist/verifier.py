"""Campaign runners and independent oracles for the coloring guarantees.

Every check returns a CampaignReport whose failures are self-describing: a
failure carries the generator arguments (seed, n, k) plus the color count, so
it can be replayed standalone.  Trials are independent, so campaigns can be
sharded over a process pool; the aggregate is order-independent (failures are
sorted by seed).
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .coloring import color_near_distinguishing, color_tree, fix_radius
from .errors import BadParams, InfeasibleParams, OracleBudgetExceeded
from .symmetry import Coloring, fix_report
from .tree_core import Tree, max_valence, random_tree

#: Verification ops refuse trees beyond this size (desk-scale oracle budget).
MAX_ORACLE_N = 64

#: Reference grid of ceil_fix_radius values, rows by color count c = 2..7,
#: columns by max valence k = 2..16; None where c > k.  Transcribed once and
#: cross-checked against the formula by reference_radius_table_check.
RADIUS_TABLE: dict[int, tuple[int | None, ...]] = {
    2: (0, 1, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5),
    3: (None, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2),
    4: (None, None, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2),
    5: (None, None, None, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    6: (None, None, None, None, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    7: (None, None, None, None, None, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1),
}
RADIUS_TABLE_K = range(2, 17)


@dataclass(frozen=True)
class Failure:
    """One violated property with enough context to replay it."""

    seed: int | None
    n: int
    k: int
    c: int | None
    prop: str
    witness: dict

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "k": self.k,
            "c": self.c,
            "property": self.prop,
            "witness": self.witness,
        }


@dataclass
class CampaignReport:
    """Aggregate of verification trials; passed iff failures is empty.

    The serialized form deliberately omits elapsed time so that payloads are
    byte-identical across runs.
    """

    trials: int
    skipped: int = 0
    failures: list[Failure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "skipped": self.skipped,
            "failures": [f.to_json_dict() for f in sorted(self.failures, key=lambda f: (f.seed or 0, f.prop))],
        }


def verify_fixing_guarantee(
    tree: Tree,
    num_colors: int,
    coloring: Coloring | None = None,
    max_n: int = MAX_ORACLE_N,
    seed: int | None = None,
) -> CampaignReport:
    """Check that every vertex meeting the distance condition is fixed.

    Runs color_tree when no coloring is supplied, then compares the
    oracle-computed fixed set against the set of vertices whose subtree
    reaches a leaf at distance >= fix_radius(num_colors, max_valence).
    """
    start = time.perf_counter()
    if tree.n > max_n:
        raise OracleBudgetExceeded(f"n={tree.n} exceeds oracle budget {max_n}")
    k = max_valence(tree)
    if num_colors < 2 or num_colors > k:
        raise BadParams(f"need 2 <= colors <= max valence, got ({num_colors}, {k})")
    if coloring is None:
        coloring, _ = color_tree(tree, num_colors)
    report = fix_report(tree, coloring)
    heights = tree.centered.heights
    radius = fix_radius(num_colors, k)
    witnesses = [u for u in range(tree.n) if radius.admits(heights[u]) and not report.fixed[u]]
    failures = []
    if witnesses:
        failures.append(
            Failure(
                seed=seed,
                n=tree.n,
                k=k,
                c=num_colors,
                prop="fixing_guarantee",
                witness={"unfixed_but_guaranteed": witnesses},
            )
        )
    return CampaignReport(trials=1, failures=failures, elapsed=time.perf_counter() - start)


def verify_near_distinguishing(
    tree: Tree, max_n: int = MAX_ORACLE_N, seed: int | None = None
) -> CampaignReport:
    """Check that color_near_distinguishing leaves nothing unfixed beyond one
    pair of leaves with a common neighbor.

    Trees with max valence < 3 are skipped: with k - 1 = 1 color a path of 4
    or more vertices cannot be pinned down at all, so the guarantee only
    exists from k = 3 up.
    """
    start = time.perf_counter()
    if tree.n > max_n:
        raise OracleBudgetExceeded(f"n={tree.n} exceeds oracle budget {max_n}")
    k = max_valence(tree)
    if k < 3:
        return CampaignReport(trials=1, skipped=1, elapsed=time.perf_counter() - start)
    coloring = color_near_distinguishing(tree)
    unfixed = sorted(fix_report(tree, coloring).unfixed_set())
    ok = not unfixed
    if len(unfixed) == 2:
        a, b = unfixed
        shared = set(tree.adjacency[a]) & set(tree.adjacency[b])
        ok = tree.degree(a) == 1 == tree.degree(b) and bool(shared)
    failures = []
    if not ok:
        failures.append(
            Failure(
                seed=seed,
                n=tree.n,
                k=k,
                c=coloring.num_colors,
                prop="near_distinguishing",
                witness={"unfixed": unfixed},
            )
        )
    return CampaignReport(trials=1, failures=failures, elapsed=time.perf_counter() - start)


def paired_class_minimax(slots: int, colors: int) -> int:
    """Exhaustive minimum, over all colorings of `slots` sibling slots with at
    most `colors` colors in which every used color appears at least twice, of
    the largest color class.

    Enumerates all partitions of `slots` into at most `colors` parts of size
    >= 2 (color identities are interchangeable, so partitions cover every
    coloring) and takes the smallest maximum part.
    """
    if slots < 2:
        raise InfeasibleParams("need at least 2 slots for the pair constraint")
    if colors < 1:
        raise InfeasibleParams("need at least 1 color")
    best: int | None = None

    def descend(remaining: int, cap: int, used: int, largest: int) -> None:
        nonlocal best
        if remaining == 0:
            best = largest if best is None else min(best, largest)
            return
        if used == colors or remaining < 2:
            return
        for part in range(min(cap, remaining), 1, -1):
            descend(remaining - part, part, used + 1, max(largest, part))

    descend(slots, slots, 0, 0)
    assert best is not None
    return best


def reference_radius_table_check() -> CampaignReport:
    """Compare ceil_fix_radius against every defined entry of RADIUS_TABLE."""
    start = time.perf_counter()
    trials = 0
    failures = []
    for c, row in RADIUS_TABLE.items():
        for k, expected in zip(RADIUS_TABLE_K, row):
            if expected is None:
                continue
            trials += 1
            actual = fix_radius(c, k).ceil()
            if actual != expected:
                failures.append(
                    Failure(
                        seed=None,
                        n=0,
                        k=k,
                        c=c,
                        prop="radius_table",
                        witness={"expected": expected, "actual": actual},
                    )
                )
    return CampaignReport(trials=trials, failures=failures, elapsed=time.perf_counter() - start)


def _campaign_trial(args: tuple[int, int, int, int]) -> tuple[int, list[Failure]]:
    seed, index, n_max, k_max = args
    trial_seed = seed * 1_000_003 + index
    rng = random.Random(trial_seed)
    n = rng.randint(1, n_max)
    k_param = rng.randint(2, max(2, k_max))
    tree = random_tree(n, k_param, trial_seed)
    kv = max_valence(tree)
    skipped = 0
    failures: list[Failure] = []

    if kv >= 2:
        c = rng.randint(2, kv)
        sub = verify_fixing_guarantee(tree, c, seed=trial_seed)
        for f in sub.failures:
            failures.append(Failure(trial_seed, n, k_param, c, f.prop, f.witness))
    else:
        skipped += 1

    sub = verify_near_distinguishing(tree, seed=trial_seed)
    skipped += sub.skipped
    for f in sub.failures:
        failures.append(Failure(trial_seed, n, k_param, f.c, f.prop, f.witness))
    return skipped, failures


def run_random_campaign(
    trials: int, n_max: int, k_max: int, seed: int, jobs: int = 1
) -> CampaignReport:
    """Seeded random campaign: per trial, generate a tree, verify the fixing
    guarantee at a random admissible color count, and verify the
    near-distinguishing guarantee.  Deterministic for fixed arguments."""
    if trials < 1 or n_max < 1 or k_max < 2:
        raise BadParams("need trials >= 1, n_max >= 1, k_max >= 2")
    if n_max > MAX_ORACLE_N:
        raise OracleBudgetExceeded(f"n_max={n_max} exceeds oracle budget {MAX_ORACLE_N}")
    start = time.perf_counter()
    work = [(seed, i, n_max, k_max) for i in range(trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_campaign_trial, work, chunksize=max(1, trials // (4 * jobs))))
    else:
        results = [_campaign_trial(w) for w in work]
    skipped = sum(s for s, _ in results)
    failures = [f for _, fs in results for f in fs]
    failures.sort(key=lambda f: (f.seed or 0, f.prop))
    return CampaignReport(
        trials=trials, skipped=skipped, failures=failures, elapsed=time.perf_counter() - start
    )
