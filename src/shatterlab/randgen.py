"""Seeded random simplicial complexes and the experiments built on them.

The level-gated model examines subsets in increasing size: a set becomes a
face with probability p only if all its proper subsets already are faces.
Face decisions are keyed by (seed, level, colex rank), so the sampled complex
is a pure function of seed and parameters; a vectorized sampler reproduces
the reference construction bit for bit and scales to millions of candidate
faces.  Pruning removes the vertices of every m-set that spans too many
faces of dimension >= 1, after which no surviving m-set can.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from shatterlab import scan
from shatterlab._bits import bits, mask_of
from shatterlab._keyed import (
    GENERATOR_ID,
    derive_seed,
    inverse_power_threshold,
    level_key,
    probability_threshold,
    rank_u53,
    rank_u53_np,
)
from shatterlab.bounds import floor_log2, g_k, growth_exponent
from shatterlab.complexes import SimplicialComplex
from shatterlab.errors import InvalidArgumentError, ResourceLimitError
from shatterlab.scan import DEFAULT_SUBSET_LIMIT

_PAIR_CHUNK = 1 << 21
_EDGE_CHUNK = 1 << 12


def _threshold(p) -> int:
    try:
        return probability_threshold(p)
    except ValueError as exc:
        raise InvalidArgumentError(str(exc)) from exc


def sample_complex(
    n: int, t: int, p, seed: int, *, limit: int = DEFAULT_SUBSET_LIMIT
) -> SimplicialComplex:
    """Reference level-wise sampler; initialized with all n vertices.

    Candidate sets of each size 2..t+1 are visited in colex order and gated
    on all their proper subsets being faces.  Identical (seed, params) give
    an identical complex on any platform.
    """
    if n < 1 or t < 1:
        raise InvalidArgumentError("need n >= 1 and t >= 1")
    threshold = _threshold(p)
    faces: set[int] = {1 << v for v in range(n)}
    for k in range(2, t + 2):
        total = math.comb(n, k)
        if total > limit:
            raise ResourceLimitError(f"level {k} has {total} candidates (limit {limit})")
        key = level_key(seed, k)
        rank = 0
        if k > n:
            break
        mask = (1 << k) - 1
        top = 1 << n
        while mask < top:
            gated = True
            rest = mask
            while rest:
                low = rest & -rest
                if mask ^ low not in faces:
                    gated = False
                    break
                rest ^= low
            if gated and rank_u53(key, rank) < threshold:
                faces.add(mask)
            rank += 1
            c = mask & -mask
            r = mask + c
            mask = (((r ^ mask) >> 2) // c) | r
    return SimplicialComplex(n, faces, validate=False)


def expected_top_faces(n: int, t: int, p) -> float:
    """C(n, t+1) * p^(2^(t+1) - t - 2), the expected t-face count of the model."""
    return math.comb(n, t + 1) * float(p) ** ((1 << (t + 1)) - t - 2)


# ---------------------------------------------------------------------------
# vectorized sampler
# ---------------------------------------------------------------------------


@dataclass
class LevelSample:
    """Sampled complex of dimension <= 2 in array form.

    Holds what the experiments need (edge endpoints, triangle count, keys to
    re-derive any face decision) without materializing bitmask faces.
    """

    n: int
    t: int
    seed: int
    thresholds: tuple[int, ...]  # per level 2..t+1
    edges_u: np.ndarray
    edges_v: np.ndarray
    tri_count: int = 0
    triangles: np.ndarray | None = None  # (k, 3) when collected
    present: np.ndarray | None = None  # surviving vertices after pruning; None = all
    _adj: np.ndarray | None = field(default=None, repr=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges_u)

    @property
    def vertex_count(self) -> int:
        return self.n if self.present is None else int(self.present.sum())

    def counts_by_dim(self) -> tuple[int, ...]:
        out = [self.vertex_count, self.edge_count]
        if self.t >= 2:
            out.append(self.tri_count)
        return tuple(out)

    def adjacency(self) -> np.ndarray:
        if self._adj is None:
            adj = np.zeros((self.n, self.n), dtype=bool)
            adj[self.edges_u, self.edges_v] = True
            adj[self.edges_v, self.edges_u] = True
            self._adj = adj
        return self._adj

    def degrees(self) -> np.ndarray:
        return self.adjacency().sum(axis=1)

    def has_triangle(self, a: int, b: int, c: int) -> bool:
        """Face decision for the triangle {a,b,c}, recomputed from the key."""
        u, v, w = sorted((a, b, c))
        rank = u + math.comb(v, 2) + math.comb(w, 3)
        return rank_u53(level_key(self.seed, 3), rank) < self.thresholds[1]

    def span_dim_ge1(self, subset) -> int:
        """Faces of dimension >= 1 inside the given vertex set (exact)."""
        ys = sorted(set(subset))
        adj = self.adjacency()
        count = 0
        pairs = []
        for i, u in enumerate(ys):
            for v in ys[i + 1 :]:
                if adj[u, v]:
                    count += 1
                    pairs.append((u, v))
        if self.t >= 2:
            for u, v in pairs:
                for w in ys:
                    if w > v and adj[u, w] and adj[v, w] and self.has_triangle(u, v, w):
                        count += 1
        return count

    def trace_count(self, subset) -> int:
        """Distinct traces on the subset (empty trace and vertices included)."""
        ys = set(subset)
        alive = (
            len(ys) if self.present is None else sum(1 for v in ys if self.present[v])
        )
        return 1 + alive + self.span_dim_ge1(ys)


def _decode_pair_ranks(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = ranks.astype(np.float64)
    v = ((1.0 + np.sqrt(8.0 * r + 1.0)) / 2.0).astype(np.int64)
    base = v * (v - 1) // 2
    over = base > ranks.astype(np.int64)
    v[over] -= 1
    base[over] = v[over] * (v[over] - 1) // 2
    under = (v + 1) * v // 2 <= ranks.astype(np.int64)
    v[under] += 1
    base[under] = v[under] * (v[under] - 1) // 2
    u = ranks.astype(np.int64) - base
    return u, v


def _sample_edges_np(n: int, threshold: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    key = level_key(seed, 2)
    total = math.comb(n, 2)
    us, vs = [], []
    if threshold > 0:
        for lo in range(0, total, _PAIR_CHUNK):
            ranks = np.arange(lo, min(lo + _PAIR_CHUNK, total), dtype=np.uint64)
            hit = ranks[rank_u53_np(key, ranks) < np.uint64(threshold)]
            if len(hit):
                u, v = _decode_pair_ranks(hit)
                us.append(u.astype(np.int32))
                vs.append(v.astype(np.int32))
    if not us:
        e = np.zeros(0, dtype=np.int32)
        return e, e.copy()
    return np.concatenate(us), np.concatenate(vs)


# row b holds the 8 bits of byte value b, most significant first (packbits order)
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(bool)


def _triangle_pass(
    sample: LevelSample, threshold: int, *, collect: bool
) -> tuple[int, np.ndarray | None]:
    """Stream gated triangle candidates (common neighbors above each edge).

    For each edge u < v the candidates are the w > v adjacent to both, read
    from the AND of the bit-packed adjacency rows of u and v with the packed
    mask of columns above v.  Common neighbors are sparse (density about
    p^2), so only the non-zero bytes of a chunk's AND are expanded: their
    flat positions give (edge, byte), and a 256x8 bit table gives the set
    bits of each byte.  Flat positions ascend row by row and the table lists
    bits most significant first, which packbits assigns to the lowest
    column, so candidates come out in edge order and then w ascending: the
    same order, hashed ranks and triangles array as a dense unpack.
    """
    n = sample.n
    key = level_key(sample.seed, 3)
    packed = np.packbits(sample.adjacency(), axis=1)
    cut = np.packbits(np.triu(np.ones((n, n), dtype=bool), k=1), axis=1)
    nbytes = packed.shape[1]
    comb2 = np.array([math.comb(x, 2) for x in range(n)], dtype=np.int64)
    comb3 = np.array([math.comb(x, 3) for x in range(n)], dtype=np.int64)
    count = 0
    kept = []
    eu, ev = sample.edges_u, sample.edges_v
    for lo in range(0, len(eu), _EDGE_CHUNK):
        u_c = eu[lo : lo + _EDGE_CHUNK]
        v_c = ev[lo : lo + _EDGE_CHUNK]
        common = (packed[u_c] & packed[v_c] & cut[v_c]).ravel()
        at = np.flatnonzero(common)
        if not len(at):
            continue
        hit = np.flatnonzero(_BYTE_BITS[common[at]])
        at = at[hit >> 3]
        ei = at // nbytes
        w = (at % nbytes) * 8 + (hit & 7)
        uu = u_c[ei].astype(np.int64)
        vv = v_c[ei].astype(np.int64)
        ranks = (uu + comb2[vv] + comb3[w]).astype(np.uint64)
        ok = rank_u53_np(key, ranks) < np.uint64(threshold)
        count += int(ok.sum())
        if collect and ok.any():
            kept.append(np.stack([uu[ok], vv[ok], w[ok]], axis=1).astype(np.int32))
    tris = None
    if collect:
        tris = np.concatenate(kept) if kept else np.zeros((0, 3), dtype=np.int32)
    return count, tris


def sample_levels(
    n: int, t: int, p, seed: int, *, collect: bool = False
) -> LevelSample:
    """Vectorized sampler for t <= 2; identical output to sample_complex."""
    if t not in (1, 2):
        raise InvalidArgumentError("vectorized sampling supports t in {1, 2}")
    if n < 1:
        raise InvalidArgumentError("need n >= 1")
    thr = _threshold(p)
    thresholds = tuple(thr for _ in range(2, t + 2))
    us, vs = _sample_edges_np(n, thr, seed)
    sample = LevelSample(n, t, seed, thresholds, us, vs)
    if t >= 2 and n >= 3:
        sample.tri_count, sample.triangles = _triangle_pass(sample, thr, collect=collect)
    return sample


def materialize(sample: LevelSample) -> SimplicialComplex:
    faces = {1 << v for v in range(sample.n)}
    for u, v in zip(sample.edges_u.tolist(), sample.edges_v.tolist()):
        faces.add((1 << int(u)) | (1 << int(v)))
    if sample.t >= 2:
        if sample.triangles is None and sample.tri_count:
            raise InvalidArgumentError("triangles were not collected for this sample")
        if sample.triangles is not None:
            for a, b, c in sample.triangles.tolist():
                faces.add((1 << int(a)) | (1 << int(b)) | (1 << int(c)))
    return SimplicialComplex(sample.n, faces, validate=False)


# ---------------------------------------------------------------------------
# bad-m-set pruning
# ---------------------------------------------------------------------------


def max_possible_dim_ge1_span(m: int, dim: int) -> int:
    """Ceiling on faces of dimension >= 1 inside m vertices of a dim-bounded complex."""
    return sum(math.comb(m, i) for i in range(2, min(m, dim + 1) + 1))


@dataclass(frozen=True)
class PruneResult:
    complex: SimplicialComplex
    removed_vertices: tuple[int, ...]
    bad_sets_found: int
    subsets_scanned: int
    shortcut: bool  # z exceeded the dimension ceiling, so no scan was needed


def prune_bad_msets(
    cx: SimplicialComplex, m: int, z, *, limit: int = DEFAULT_SUBSET_LIMIT
) -> PruneResult:
    """Remove the vertices of every m-set spanning >= z faces of dimension >= 1.

    Only subsets of edge-covered vertices are enumerated: an m-set spans
    exactly what its edge-covered part spans, so removing the bad cores is
    what the guarantee needs, and isolated vertices can never contribute.
    When z exceeds the dimension ceiling sum_{i>=2} C(m,i) the scan is
    skipped outright; the result is provably identical.  The scan is exact
    or it raises; it never samples.
    """
    zf = Fraction(z)
    if zf < 1:
        raise InvalidArgumentError("z must be >= 1")
    if not 1 <= m <= cx.n:
        raise InvalidArgumentError(f"m must be in 1..{cx.n}")
    zc = math.ceil(zf)
    if max_possible_dim_ge1_span(m, cx.dimension) < zc:
        return PruneResult(cx, (), 0, 0, True)
    active = scan.active_vertices(cx)
    k = min(m, len(active))
    if k < 2:
        return PruneResult(cx, (), 0, 0, False)
    total = math.comb(len(active), k)
    if total > limit:
        raise ResourceLimitError(
            f"bad-m-set scan needs {total} subsets of {len(active)} active vertices "
            f"(limit {limit})"
        )
    verts = np.asarray(active, dtype=np.int16)
    combos = scan.combination_array(len(active), k)
    counts = scan.dim_ge1_counts(cx, combos, verts)
    bad = np.nonzero(counts >= zc)[0]
    if not len(bad):
        return PruneResult(cx, (), 0, total, False)
    removed = 0
    for row in verts[combos[bad]]:
        removed |= mask_of(int(v) for v in row)
    faces = {f for f in cx.faces if not f & removed}
    pruned = SimplicialComplex(cx.n, faces, validate=False)
    return PruneResult(pruned, tuple(bits(removed)), int(len(bad)), total, False)


def default_skeleton_p(n: int) -> Fraction:
    """Default d-simplex probability for the skeleton model.

    log log(max(n,16)) / n sits inside the window omega(1/n), o(log n / n)
    for every desk-scale n; recorded in reports as an exact fraction.
    """
    return Fraction(math.log(math.log(max(n, 16)))).limit_denominator(10**9) / n


def sample_skeleton_complex(
    n: int, d: int, m: int, p, seed: int, *, limit: int = DEFAULT_SUBSET_LIMIT
) -> SimplicialComplex:
    """Complete (d-1)-skeleton plus independent random d-simplices, then one
    deletion round: every d-simplex inside an m-set spanning >= m-d+1
    d-simplices (counted before any deletion) is removed."""
    if d < 1:
        raise InvalidArgumentError("d must be >= 1")
    if m <= d:
        raise InvalidArgumentError("m must exceed d")
    if n < d + 1:
        raise InvalidArgumentError("need n >= d + 1")
    threshold = _threshold(p)
    skeleton_total = sum(math.comb(n, i) for i in range(1, d + 1))
    if skeleton_total > limit or math.comb(n, d + 1) > limit:
        raise ResourceLimitError("skeleton too large for explicit construction")
    faces: set[int] = set()
    for size in range(1, d + 1):
        mask = (1 << size) - 1
        top = 1 << n
        while mask < top:
            faces.add(mask)
            c = mask & -mask
            r = mask + c
            mask = (((r ^ mask) >> 2) // c) | r
    key = level_key(seed, d + 1)
    simplices = []
    rank = 0
    mask = (1 << (d + 1)) - 1
    top = 1 << n
    while mask < top:
        if rank_u53(key, rank) < threshold:
            simplices.append(mask)
        rank += 1
        c = mask & -mask
        r = mask + c
        mask = (((r ^ mask) >> 2) // c) | r
    # one deletion round against the pre-deletion complex
    kept = simplices
    if simplices:
        total = math.comb(n, m)
        if total > limit:
            raise ResourceLimitError(f"deletion scan needs {total} subsets (limit {limit})")
        if n > 63:
            raise ResourceLimitError("skeleton deletion scan requires n <= 63")
        combos = scan.combination_array(n, m)
        masks = scan._combo_masks(np.arange(n, dtype=np.int16)[combos])
        counts = np.zeros(len(combos), dtype=np.int32)
        for s in simplices:
            counts += (masks & np.uint64(s)) == np.uint64(s)
        bad_masks = masks[counts >= m - d + 1]
        if len(bad_masks):
            kept = [
                s
                for s in simplices
                if not bool(((bad_masks & np.uint64(s)) == np.uint64(s)).any())
            ]
    faces.update(kept)
    return SimplicialComplex(n, faces, validate=False)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentParams:
    s: Fraction
    m: int
    n: int
    t: int
    p: float
    z: Fraction


@dataclass
class ExperimentReport:
    """One seeded trial: (seed, params) fully determine a re-run."""

    seed: int
    params: ExperimentParams
    faces_by_dim: tuple[int, ...]
    f_m_exact: int | str  # exact value, or "sampled" when enumeration is off-limits
    bad_sets_removed: int
    vertices_removed: int
    wall_time: float
    pruning: str  # "scan", "shortcut", or "skipped"
    generator: str = GENERATOR_ID

    @property
    def total_faces(self) -> int:
        return sum(self.faces_by_dim)

    @property
    def top_faces(self) -> int:
        return self.faces_by_dim[-1]

    def csv_row(self) -> str:
        p = self.params
        return ",".join(
            str(x)
            for x in (
                self.seed,
                p.n,
                p.s,
                p.m,
                p.t,
                repr(p.p),
                self.total_faces,
                self.top_faces,
                self.f_m_exact,
                self.bad_sets_removed,
                self.vertices_removed,
            )
        )


REPORT_CSV_HEADER = "seed,n,s,m,t,p,faces_total,faces_top,f_m,bad_msets,removed_vertices"


def _growth_trial(
    s: Fraction,
    m: int,
    n: int,
    t: int,
    threshold: int,
    trial_seed: int,
    exact_limit: int,
    scan_limit: int,
) -> ExperimentReport:
    start = time.perf_counter()
    z = (s - 1) * (m + 1)
    p_float = threshold / float(1 << 53)
    params = ExperimentParams(s, m, n, t, p_float, z)
    shortcut = max_possible_dim_ge1_span(m, t) < math.ceil(z)
    need_material = math.comb(n, m) <= exact_limit or not shortcut
    if need_material:
        sample = sample_levels(n, t, Fraction(threshold, 1 << 53), trial_seed, collect=True)
        cx = materialize(sample)
        res = prune_bad_msets(cx, m, z, limit=scan_limit)
        pruned = res.complex
        counts = tuple(len(pruned.faces_of_dim(dim)) for dim in range(t + 1))
        f_m: int | str
        try:
            f_m = scan.exact_shatter_value(pruned, m, limit=exact_limit)
        except ResourceLimitError:
            f_m = "sampled"
        report = ExperimentReport(
            trial_seed,
            params,
            counts,
            f_m,
            res.bad_sets_found,
            len(res.removed_vertices),
            time.perf_counter() - start,
            "shortcut" if res.shortcut else "scan",
        )
    else:
        sample = sample_levels(n, t, Fraction(threshold, 1 << 53), trial_seed)
        report = ExperimentReport(
            trial_seed,
            params,
            sample.counts_by_dim(),
            "sampled",
            0,
            0,
            time.perf_counter() - start,
            "shortcut",
        )
    return report


@dataclass
class GrowthResult:
    s: Fraction
    m: int
    n_list: tuple[int, ...]
    trials: int
    master_seed: int
    reports: list[ExperimentReport]
    slope: float
    target_exponent: Fraction

    def csv_lines(self) -> list[str]:
        return [REPORT_CSV_HEADER] + [r.csv_row() for r in self.reports]


def growth_experiment(
    s,
    m: int,
    n_list,
    trials: int,
    seed: int,
    *,
    exact_limit: int = DEFAULT_SUBSET_LIMIT,
    scan_limit: int = DEFAULT_SUBSET_LIMIT,
    workers: int = 1,
) -> GrowthResult:
    """Seeded sample->prune sweeps over n_list with a log-log regression slope.

    Per trial: p = n^(-1/(s-1)) via an exact integer threshold, pruning at
    z = (s-1)(m+1), total face count of the pruned complex recorded, exact
    f(m) whenever C(n,m) fits under the enumeration limit.  With workers > 1
    the trials run in a pool of at most min(workers, trial count, CPU count)
    processes.
    """
    s = Fraction(s)
    if s < 2:
        raise InvalidArgumentError("s must be >= 2")
    if m < 1 or trials < 1:
        raise InvalidArgumentError("need m >= 1 and trials >= 1")
    t = floor_log2(s)
    if t not in (1, 2):
        raise InvalidArgumentError("growth experiments support t in {1, 2}")
    n_list = tuple(int(n) for n in n_list)
    jobs = []
    for n in n_list:
        threshold = inverse_power_threshold(n, 1 / (s - 1))
        for trial in range(trials):
            trial_seed = derive_seed(seed, n, trial)
            jobs.append((s, m, n, t, threshold, trial_seed, exact_limit, scan_limit))
    bound = min(workers, len(jobs), os.cpu_count() or 1)
    if bound > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=bound) as pool:
            reports = list(pool.map(_growth_trial_star, jobs, chunksize=1))
    else:
        reports = [_growth_trial(*job) for job in jobs]
    means = []
    for n in n_list:
        totals = [r.total_faces for r in reports if r.params.n == n]
        means.append(sum(totals) / len(totals))
    slope = _loglog_slope(n_list, means)
    return GrowthResult(
        s, m, n_list, trials, seed, reports, slope, growth_exponent(s)
    )


def _loglog_slope(n_list, means) -> float:
    """Least-squares slope of log(mean) against log(n).

    nan for a single point, or when some mean is <= 0 (pruning can empty
    every instance at some n), where the log-log fit is undefined.
    """
    if len(n_list) < 2 or min(means) <= 0:
        return float("nan")
    xs = np.log(np.asarray(n_list, dtype=float))
    ys = np.log(np.asarray(means, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def _growth_trial_star(args):
    return _growth_trial(*args)


# ---------------------------------------------------------------------------
# Bondy-Hajnal probe
# ---------------------------------------------------------------------------


@dataclass
class ProbeInstance:
    seed: int
    n: int
    faces_by_dim: tuple[int, ...]
    max_trace_seen: int
    premise_ok: bool
    pruning: str
    subsets_checked: int
    spot_traces: dict[str, int]


@dataclass
class ProbeResult:
    k: int
    s: Fraction
    m: int
    g_k_m: int
    n_list: tuple[int, ...]
    master_seed: int
    instances: list[ProbeInstance]
    exponent: float
    target_exponent: Fraction
    premise_all_ok: bool
    exceeds_k: bool

    def csv_lines(self) -> list[str]:
        lines = ["seed,n,faces_total,max_trace,gk_m,premise_ok,pruning,subsets_checked"]
        for inst in self.instances:
            lines.append(
                ",".join(
                    str(x)
                    for x in (
                        inst.seed,
                        inst.n,
                        sum(inst.faces_by_dim),
                        inst.max_trace_seen,
                        self.g_k_m,
                        int(inst.premise_ok),
                        inst.pruning,
                        inst.subsets_checked,
                    )
                )
            )
        return lines


def _probe_spot_sets(sample: LevelSample, m: int) -> dict[str, tuple[int, ...]]:
    """Deterministic adversarial-ish subsets for the premise spot checks."""
    deg = sample.degrees()
    order = np.argsort(deg, kind="stable")
    top = tuple(int(v) for v in order[-m:])
    hub = int(order[-1])
    nbrs = np.nonzero(sample.adjacency()[hub])[0]
    nbrs = sorted((int(v) for v in nbrs), key=lambda v: int(deg[v]), reverse=True)
    hood = tuple(sorted({hub, *nbrs[: m - 1]}))
    out = {"top_degree": top}
    if len(hood) == m:
        out["hub_neighborhood"] = hood
    return out


def bondy_hajnal_probe(
    k: int,
    m: int,
    n_list,
    trials: int,
    seed: int,
    *,
    epsilon=Fraction(1),
    subset_samples: int = 600,
    scan_limit: int = DEFAULT_SUBSET_LIMIT,
) -> ProbeResult:
    """Premise + growth-trend check against the g_k(m) shatter hypothesis.

    s = 2^(k+1) - k - 1 + epsilon.  Each instance is sampled and pruned when
    the bad-set scan is feasible (otherwise recorded as skipped); the premise
    f(m) <= g_k(m) is then checked exactly on sampled m-subsets plus
    deterministic spot sets.  That check can refute the premise but not prove
    it; the full asymptotic statement is out of desk reach by design.
    """
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    s = Fraction((1 << (k + 1)) - k - 1) + Fraction(epsilon)
    gk_m = g_k(m, k)
    if s * m + s - 1 > gk_m:
        raise InvalidArgumentError(
            f"m={m} too small: need s*m + s - 1 <= g_k(m) = {gk_m}, got {s * m + s - 1}"
        )
    t = floor_log2(s)
    if t not in (1, 2):
        raise InvalidArgumentError("probe sampling supports t in {1, 2}")
    z = (s - 1) * (m + 1)
    n_list = tuple(int(n) for n in n_list)
    instances = []
    for n in n_list:
        threshold = inverse_power_threshold(n, 1 / (s - 1))
        for trial in range(trials):
            trial_seed = derive_seed(seed, n, trial)
            pruning = "skipped"
            if max_possible_dim_ge1_span(m, t) < math.ceil(z):
                pruning = "shortcut"
            elif math.comb(n, m) <= scan_limit:
                pruning = "scan"
            sample = sample_levels(
                n, t, Fraction(threshold, 1 << 53), trial_seed, collect=pruning == "scan"
            )
            if pruning == "scan":
                res = prune_bad_msets(materialize(sample), m, z, limit=scan_limit)
                sample = _levels_from_complex(res.complex, t, trial_seed, threshold)
            rng = random.Random(derive_seed(seed, n, trial, 0xBAD5E75))
            max_trace = m + 1  # any m isolated-ish vertices give m+1 traces
            for _ in range(subset_samples):
                ys = rng.sample(range(n), m)
                max_trace = max(max_trace, sample.trace_count(ys))
            spot_traces = {}
            for name, ys in _probe_spot_sets(sample, m).items():
                tc = sample.trace_count(ys)
                spot_traces[name] = tc
                max_trace = max(max_trace, tc)
            instances.append(
                ProbeInstance(
                    trial_seed,
                    n,
                    sample.counts_by_dim(),
                    max_trace,
                    max_trace <= gk_m,
                    pruning,
                    subset_samples + len(spot_traces),
                    spot_traces,
                )
            )
    means = []
    for n in n_list:
        totals = [sum(i.faces_by_dim) for i in instances if i.n == n]
        means.append(sum(totals) / len(totals))
    exponent = _loglog_slope(n_list, means)
    return ProbeResult(
        k,
        s,
        m,
        gk_m,
        n_list,
        seed,
        instances,
        exponent,
        growth_exponent(s),
        all(i.premise_ok for i in instances),
        exponent > k,
    )


def _levels_from_complex(
    cx: SimplicialComplex, t: int, seed: int, threshold: int
) -> LevelSample:
    """Re-wrap a materialized (possibly pruned) complex for subset queries."""
    us, vs = [], []
    for e in cx.faces_of_dim(1):
        u, v = bits(e)
        us.append(u)
        vs.append(v)
    present = np.zeros(cx.n, dtype=bool)
    for f in cx.faces_of_dim(0):
        present[f.bit_length() - 1] = True
    sample = LevelSample(
        cx.n,
        t,
        seed,
        tuple(threshold for _ in range(2, t + 2)),
        np.asarray(us, dtype=np.int32),
        np.asarray(vs, dtype=np.int32),
        present=present,
    )
    if t >= 2:
        tris = [tuple(bits(f)) for f in cx.faces_of_dim(2)]
        sample.tri_count = len(tris)
        sample.triangles = (
            np.asarray(tris, dtype=np.int32) if tris else np.zeros((0, 3), dtype=np.int32)
        )
    return sample
