"""Acceptance suites: every checkable claim behind the library, end to end.

This module is the one definition of each acceptance criterion.  Each suite
runs at the full stated scale by default ("full" tier) and at a reduced
scale for smoke runs ("quick").  SUITES holds one record per criterion: its
name, tolerance, wall-time ceiling and check.  Results carry the measured
values and the tolerance they were held to; a suite passes only if every one
of its checks does, including its ceiling.  The CLI command
`verify-paper` and the acceptance tests (one per suite, at tier "full") both
run these suites and add no checks of their own.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from shatterlab import bounds, compression, dtree, randgen, scan, search, setsystem
from shatterlab._bits import iter_size_subsets
from shatterlab.complexes import SimplicialComplex, delta_d, span_count
from shatterlab.complexes import overlap_witness as overlap_witness_op
from shatterlab.errors import DEFAULT_SUBSET_LIMIT, InvalidArgumentError

DEFAULT_SEED = 20260810
# ground size and member draws of the seeded systems behind suites 3 and 4
RANDOM_SYSTEM_MAX_N = 10
RANDOM_SYSTEM_MAX_MEMBERS = 60


@dataclass
class SuiteResult:
    name: str
    passed: bool
    tolerance: str
    measured: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    def line(self) -> str:
        """The suite's line of `verify-paper` output."""
        obj = {
            "suite": self.name,
            "status": "pass" if self.passed else "fail",
            "tolerance": self.tolerance,
            "measured": self.measured,
            "wall_time": self.wall_time,
        }
        if self.failures:
            obj["failures"] = self.failures[:10]
        return setsystem.json_line(obj)


@dataclass(frozen=True)
class Suite:
    """One acceptance criterion: its check fills a result's measured values
    and failures; calling the suite times the check against its wall-time
    ceiling in seconds (None: no ceiling) and sets passed."""

    name: str
    tolerance: str
    ceiling_s: float | None
    check: Callable[[SuiteResult, str, int], None]

    def __call__(self, tier: str, seed: int) -> SuiteResult:
        start = time.perf_counter()
        result = SuiteResult(self.name, False, self.tolerance)
        self.check(result, tier, seed)
        elapsed = time.perf_counter() - start
        if self.ceiling_s is not None and elapsed >= self.ceiling_s:
            result.failures.append(f"took {elapsed:.1f} s, ceiling {self.ceiling_s} s")
        result.wall_time = round(elapsed, 3)
        result.passed = not result.failures
        return result


# -- suite 1 + 2: canonical d-tree grid -------------------------------------


def grid_cells(tier: str):
    d_max = 3 if tier == "full" else 2
    for d in range(1, d_max + 1):
        for q in range(1, 6):
            if d * q > 12:
                continue
            r_top = 2 * q + 1 if tier == "full" else q + 1
            for r in range(0, r_top + 1):
                yield d, q, r


GRID_CSV_HEADER = "d,Q,r,formula,blockmin,brutemin,balanced,facets"


def check_grid_cell(cell: tuple[int, int, int]) -> tuple[str, list[str]]:
    """One (d, Q, r) cell's GRID_CSV_HEADER row and its failed checks: the
    formula, block-scan and brute-force minimum densities agree, the tree is
    a d-tree, is balanced, and has its facet, root and vertex counts."""
    d, q, r = cell
    tree = dtree.build_Tr(d, q, r)
    formula = dtree.min_density_formula(d, q, r)
    block, _, _ = dtree.contiguous_min_density(tree)
    brute, witness = dtree.min_density_bruteforce(tree)
    facets = len(tree.complex.facets())
    # the tree is balanced exactly when this holds: ties go to the larger
    # set, and the full unrooted set is the only largest one
    balanced = witness == tree.unrooted_mask
    tag = f"(d={d},Q={q},r={r})"
    failures = []
    if not formula == block == brute:
        failures.append(f"{tag} density mismatch: formula={formula} block={block} brute={brute}")
    if not dtree.is_d_tree(tree.complex, d):
        failures.append(f"{tag} complex is not a d-tree")
    if not balanced:
        failures.append(f"{tag} brute-force minimum not at the unrooted vertices")
    if facets != d * q + r:
        failures.append(f"{tag} facet count {facets} != {d * q + r}")
    if tree.roots.bit_count() != r:
        failures.append(f"{tag} root count {tree.roots.bit_count()} != {r}")
    if tree.complex.n != d * (q + 1) + r:
        failures.append(f"{tag} vertex count {tree.complex.n}")
    return f"{d},{q},{r},{formula},{block},{brute},{int(balanced)},{facets}", failures


def _dtree_grid(res: SuiteResult, tier: str, seed: int) -> None:
    cells = list(grid_cells(tier))
    for cell in cells:
        res.failures += check_grid_cell(cell)[1]
    res.measured = {"cells": len(cells)}


# -- suites 3 + 4: compression and Sauer consistency ------------------------


def random_system(rng: random.Random):
    n = rng.randint(1, RANDOM_SYSTEM_MAX_N)
    count = rng.randint(1, RANDOM_SYSTEM_MAX_MEMBERS)
    masks = {rng.randrange(1 << n) for _ in range(count)}
    return setsystem.SetSystem.from_masks(n, masks)


def _compression(res: SuiteResult, tier: str, seed: int) -> None:
    trials = 500 if tier == "full" else 100
    rng = random.Random(seed)
    for i in range(trials):
        system = random_system(rng)
        comp = compression.compress(system)
        if len(comp) != len(system):
            res.failures.append(f"trial {i}: size {len(system)} -> {len(comp)}")
        if not compression.is_downward_closed(comp):
            res.failures.append(f"trial {i}: output not downward closed")
        prof_in = setsystem.shatter_profile(system)
        prof_out = setsystem.shatter_profile(comp)
        if not prof_in.dominates(prof_out):
            res.failures.append(
                f"trial {i}: profile not dominated: {prof_out.values} vs {prof_in.values}"
            )
    res.measured = {"systems": trials}


def _sauer(res: SuiteResult, tier: str, seed: int) -> None:
    trials = 500 if tier == "full" else 100
    rng = random.Random(seed)
    for i in range(trials):
        system = random_system(rng)
        comp = compression.compress(system)
        d = setsystem.vc_dimension(comp)
        cap = bounds.g_k(comp.n, d)
        if len(comp) > cap:
            res.failures.append(f"trial {i}: |C|={len(comp)} > g_{d}({comp.n})={cap}")
    skeletons = 0
    for k in range(1, 5):
        for n in range(k + 1, 11):
            skel = setsystem.SetSystem.from_masks(
                n, (m for m in range(1 << n) if m.bit_count() <= k)
            )
            d = setsystem.vc_dimension(skel)
            skeletons += 1
            if d != k or len(skel) != bounds.g_k(n, d):
                res.failures.append(
                    f"skeleton k={k} n={n}: vc={d} size={len(skel)} != g={bounds.g_k(n, d)}"
                )
    res.measured = {"systems": trials, "skeletons": skeletons}


# -- suite 5: growth exponents ----------------------------------------------


def _growth(res: SuiteResult, tier: str, seed: int) -> None:
    if tier == "full":
        n3, trials3 = (256, 512, 1024, 2048, 4096, 8192), 20
        n5, trials5 = (256, 512, 1024), 20
    else:
        n3, trials3 = (256, 512, 1024), 5
        n5, trials5 = (128, 256, 512), 5
    g3 = randgen.growth_experiment(Fraction(3), 4, n3, trials3, seed)
    res.measured["slope_s3"] = round(g3.slope, 4)
    if g3.target_exponent != Fraction(3, 2):
        res.failures.append(f"s=3 target exponent {g3.target_exponent} != 3/2")
    if not 1.3 <= g3.slope <= 1.7:
        res.failures.append(f"s=3 slope {g3.slope:.4f} outside 1.5 +/- 0.2")
    if any(r.f_m_exact != "sampled" and r.f_m_exact >= 15 for r in g3.reports):
        res.failures.append("s=3: some exact f(4) >= sm + s = 15")
    g5 = randgen.growth_experiment(Fraction(5), 4, n5, trials5, seed + 1)
    res.measured["slope_s5"] = round(g5.slope, 4)
    if g5.target_exponent != 2:
        res.failures.append(f"s=5 target exponent {g5.target_exponent} != 2")
    if not 1.75 <= g5.slope <= 2.25:
        res.failures.append(f"s=5 slope {g5.slope:.4f} outside 2.0 +/- 0.25")


# -- suite 6: prune guarantee at n = 80 --------------------------------------


def _prune_guarantee(res: SuiteResult, tier: str, seed: int) -> None:
    seeds = 5 if tier == "full" else 2
    n, m = 80, 4
    _, jobs = randgen._plan(Fraction(3), m, (n,), seeds, seed, DEFAULT_SUBSET_LIMIT)
    z = jobs[0].params.z
    if z != 10:
        res.failures.append(f"z = {z} != 10")
    combos = scan.combination_array(n, m)
    verts = np.arange(n, dtype=np.int16)
    spans = []
    f4s = []
    for i, job in enumerate(jobs):
        pruned = randgen.materialize(randgen._sample_pruned(job, True)[0])
        counts = scan.dim_ge1_counts(pruned, combos, verts)
        if len(counts) != math.comb(n, m):
            res.failures.append(f"seed {i}: scanned {len(counts)} 4-sets, not C(80,4)")
        worst = int(counts.max())
        spans.append(worst)
        if worst >= z:
            res.failures.append(f"seed {i}: a 4-set spans {worst} >= z = {z}")
        f4 = scan.exact_shatter_value(pruned, m)
        f4s.append(f4)
        if not f4 < 15:
            res.failures.append(f"seed {i}: exact f(4) = {f4} not < 15")
    res.measured = {"max_span_per_seed": spans, "f4_per_seed": f4s}


# -- suite 7: overlap witness -----------------------------------------------


def planted_overlap_instance(rng: random.Random):
    d = rng.randint(1, 3)
    d_prime = rng.randint(0, d - 1)
    pool = rng.randint(d - d_prime + 1, 11)
    rho = tuple(range(d_prime + 1))
    base = d_prime + 1
    facets = []
    for _ in range(rng.randint(1, 6)):
        extra = rng.sample(range(base, base + pool), d - d_prime)
        facets.append(rho + tuple(extra))
    n = base + pool
    for _ in range(rng.randint(0, 6)):
        facets.append(tuple(rng.sample(range(n), 2)))
    cx = SimplicialComplex.from_facets(n, facets)
    rho_mask = (1 << (d_prime + 1)) - 1
    n_simplices = sum(
        1 for f in cx.faces_of_dim(d) if f & rho_mask == rho_mask
    )
    if n_simplices == 0:
        return None
    m = rng.randint(d + 1, min(n, d + 8))
    return cx, rho_mask, d, d_prime, m, n_simplices


def _overlap(res: SuiteResult, tier: str, seed: int) -> None:
    target = 200 if tier == "full" else 50
    rng = random.Random(seed)
    done = 0
    while done < target:
        inst = planted_overlap_instance(rng)
        if inst is None:
            continue
        cx, rho_mask, d, d_prime, m, n_simp = inst
        done += 1
        witness = overlap_witness_op(cx, rho_mask, d, m)
        ratio = Fraction((1 << (d + 1)) - (1 << (d_prime + 1)), d - d_prime)
        bound = min(Fraction(n_simp), ratio * (m - d))
        if witness.count < bound:
            res.failures.append(
                f"instance {done}: count {witness.count} < bound {bound} "
                f"(d={d}, d'={d_prime}, m={m}, N={n_simp})"
            )
        if witness.vertex_set.bit_count() > m:
            res.failures.append(f"instance {done}: witness larger than m")
        if witness.count != span_count(cx, witness.vertex_set):
            res.failures.append(f"instance {done}: count disagrees with span_count")
    res.measured = {"instances": done}


# -- suite 8: embedding lower bound -----------------------------------------


def complete_complex(n: int, dim: int) -> SimplicialComplex:
    """Every face of at most dim + 1 of the n vertices."""
    return SimplicialComplex.from_facets(n, iter_size_subsets(n, min(n, dim + 1)))


def _embedding(res: SuiteResult, tier: str, seed: int) -> None:
    trees = [
        dtree.build_Tr(d, q, r)
        for d, q, r in [(1, 1, 0), (1, 2, 0), (1, 3, 0), (2, 1, 0), (1, 2, 1), (3, 1, 0)]
    ]
    checked = 0
    n_max = 12 if tier == "full" else 9
    for tree in trees:
        d = tree.d
        f = len(tree.complex.facets())
        if f > 3:
            continue
        for n in range(d + 3, n_max + 1):
            if d >= 3 and n > 9:
                continue
            cx = complete_complex(n, d)
            delta = delta_d(cx, d)
            if delta < f + 1:
                continue
            sigma = (1 << d) - 1  # any (d-1)-simplex; the complex is symmetric
            count = dtree.count_embeddings(tree, cx, sigma)
            checked += 1
            lower = (delta - f) ** f
            if count.saturated or count.count < lower:
                res.failures.append(
                    f"tree f={f} d={d} n={n}: count {count.count} < ({delta}-{f})^{f} = {lower}"
                )
    if checked < 10:
        res.failures.append(f"only {checked} tree/complex pairs checked, need 10")
    res.measured = {"pairs": checked}


# -- suite 9: extremal oracle equivalence ------------------------------------


def _extremal(res: SuiteResult, tier: str, seed: int) -> None:
    n_max = 5 if tier == "full" else 4
    queries = 0
    for n in range(1, n_max + 1):
        for m in range(0, n + 1):
            for b in range(1, (1 << m) + 1):
                got = search.extremal_max_sets(n, m, b)
                want = search.extremal_oracle(n, m, b)
                queries += 1
                if got.max_size != want.max_size:
                    res.failures.append(
                        f"(n={n},m={m},b={b}): branch {got.max_size} != oracle {want.max_size}"
                    )
                wit = got.witness
                prof = setsystem.shatter_value(wit, m)
                if len(wit) != got.max_size or prof > b:
                    res.failures.append(f"(n={n},m={m},b={b}): witness invalid")
                if m >= 1 and b == (1 << m) - 1:
                    cap = bounds.g_k(n, m - 1)
                    if got.max_size > cap:
                        res.failures.append(
                            f"(n={n},m={m},b={b}): {got.max_size} > Sauer cap {cap}"
                        )
    res.measured = {"queries": queries}


# -- suite 10: bound identities ----------------------------------------------


def _bounds(res: SuiteResult, tier: str, seed: int) -> None:
    top = 64 if tier == "full" else 24
    for n in range(1, top + 1):
        for k in range(1, top + 1):
            if bounds.g_k(n, k) != bounds.g_k(n - 1, k) + bounds.g_k(n - 1, k - 1):
                res.failures.append(f"Pascal fails at (n={n},k={k})")
    m_top = 10_000 if tier == "full" else 500
    for k in range(1, 7):
        for m in range(1, m_top + 1):
            lo, hi = bounds.tk_bounds(m, k)
            if not lo < hi:
                res.failures.append(f"bounds cross at (m={m},k={k})")
                break
    s_grid = [Fraction(a, b) for a in range(4, 65) for b in (1, 2, 3) if Fraction(a, b) >= 2]
    checked = 0
    for s in sorted(set(s_grid)):
        t = bounds.floor_log2(s)
        for d in range(0, t + 1):
            _, s_d = bounds.sd_td(s, d)
            closed = d + 1 - Fraction((1 << (d + 1)) - d - 2, 1) / (s - 1)
            checked += 1
            if s_d != closed:
                res.failures.append(f"telescoping fails at s={s}, d={d}")
    res.measured = {"pascal_grid": top, "tk_grid": m_top, "sd_checks": checked}


# -- suite 11: Bondy-Hajnal probe ---------------------------------------------


def _bh_probe(res: SuiteResult, tier: str, seed: int) -> None:
    if tier == "full":
        n_list, trials = (256, 512, 1024, 2048, 4096), 3
    else:
        n_list, trials = (256, 512), 2
    probe = randgen.bondy_hajnal_probe(2, 13, n_list, trials, seed, epsilon=1)
    res.measured = {
        "exponent": round(probe.exponent, 4),
        "target": str(probe.target_exponent),
        "max_trace": max(i.max_trace_seen for i in probe.instances),
        "g_k_m": probe.g_k_m,
    }
    if not probe.premise_all_ok:
        bad = [i for i in probe.instances if not i.premise_ok]
        res.failures.append(
            f"premise violated on {len(bad)} instances, worst trace "
            f"{max(i.max_trace_seen for i in bad)} > {probe.g_k_m}"
        )
    if probe.g_k_m != 92:
        res.failures.append(f"g_2(13) = {probe.g_k_m} != 92")
    if probe.target_exponent != Fraction(11, 5):
        res.failures.append(f"target exponent {probe.target_exponent} != 11/5")
    if probe.exponent < 2.0:
        res.failures.append(f"exponent {probe.exponent:.4f} < 2.0")
    if not probe.exceeds_k:
        res.failures.append("exponent does not exceed k (no conjecture tension)")


SUITES = {
    suite.name: suite
    for suite in (
        Suite("dtree-grid", "exact rational equality", 60.0, _dtree_grid),
        Suite("compression", "zero violations over seeded systems", 60.0, _compression),
        Suite("sauer", "exact: |C| <= g_d(n), equality on skeletons", None, _sauer),
        Suite("growth", "slope 1.5 +/- 0.2 (s=3), 2.0 +/- 0.25 (s=5)", 600.0, _growth),
        Suite(
            "prune-guarantee",
            "exact per seed: max span <= 9, f(4) < 15",
            300.0,
            _prune_guarantee,
        ),
        Suite("overlap", "exact count >= min(N, ratio * (m - d))", None, _overlap),
        Suite("embedding", "exact count >= (delta_d - f)^f", None, _embedding),
        Suite("extremal", "exact equality with exhaustive oracle", 300.0, _extremal),
        Suite("bounds", "exact integer/rational identities", None, _bounds),
        Suite(
            "bh-probe",
            "premise f(13) <= 92 on all checks; exponent >= 2.0",
            None,
            _bh_probe,
        ),
    )
}


def run_suites(
    names=None, *, tier: str = "full", seed: int = DEFAULT_SEED
) -> list[SuiteResult]:
    chosen = list(SUITES) if not names else list(names)
    unknown = [x for x in chosen if x not in SUITES]
    if unknown:
        raise InvalidArgumentError(f"unknown suites: {unknown}; available: {sorted(SUITES)}")
    return [SUITES[name](tier, seed) for name in chosen]
