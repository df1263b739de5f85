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

import dataclasses
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from shatterlab import _bits, _keyed, scan
from shatterlab._bits import blocks, facets_present, iter_size_subsets, mask_of
from shatterlab._keyed import (
    GENERATOR_ID,
    derive_seed,
    inverse_power_threshold,
    level_key,
    probability_threshold,
    rank_u53,
    rank_u53_np,
)
from shatterlab._pool import block_map, block_threads, bounded_map
from shatterlab.bounds import floor_log2, g_k, growth_exponent
from shatterlab.complexes import SimplicialComplex
from shatterlab.errors import DEFAULT_SUBSET_LIMIT, InvalidArgumentError, ResourceLimitError
from shatterlab.scan import max_possible_dim_ge1_span

# most bytes of each packed-row operand the triangle pass gathers at once
_TRIANGLE_CHUNK_BYTES = 1 << 18
# uniform random m-subsets whose traces the Bondy-Hajnal probe counts per instance
PROBE_SUBSET_SAMPLES = 600
# largest n the vectorized sampler takes: it hashes all C(n, 2) pairs, and
# t = 2 and probe samples hold n^2/8 bytes of packed adjacency
MAX_SAMPLE_VERTICES = 1 << 14


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
    threshold = probability_threshold(p)
    _check_level_sizes(n, t, limit)
    faces: set[int] = {1 << v for v in range(n)}
    for k in range(2, t + 2):
        key = level_key(seed, k)
        for rank, mask in enumerate(iter_size_subsets(n, k)):
            # gated on every facet of the candidate being a face
            if facets_present(faces, mask) and rank_u53(key, rank) < threshold:
                faces.add(mask)
    return SimplicialComplex(n, faces)


def _check_level_sizes(n: int, t: int, limit: int) -> None:
    """Raise for the first level k in 2..t+1 with more than limit k-sets."""
    for k in range(2, t + 2):
        total = math.comb(n, k)
        if total > limit:
            raise ResourceLimitError(f"level {k} has {total} candidates (limit {limit})")


def sampled_complex(
    n: int, t: int, p, seed: int, *, limit: int = DEFAULT_SUBSET_LIMIT
) -> SimplicialComplex:
    """sample_complex's complex, or its error, from the vectorized sampler
    when t <= 2 and n <= MAX_SAMPLE_VERTICES, and from sample_complex
    otherwise."""
    if t not in (1, 2) or not 1 <= n <= MAX_SAMPLE_VERTICES:
        return sample_complex(n, t, p, seed, limit=limit)
    # sample_complex's checks, in its order, so the first error is the same
    probability_threshold(p)
    _check_level_sizes(n, t, limit)
    return materialize(sample_levels(n, t, p, seed, collect=True))


# ---------------------------------------------------------------------------
# vectorized sampler
# ---------------------------------------------------------------------------


@dataclass
class LevelSample:
    """Sampled complex of dimension <= 2 in array form.

    Holds what the experiments need (edges as colex pair ranks, triangle
    count, keys to re-derive any face decision) without materializing
    bitmask faces; trace_count answers batches of m-set queries from the
    upper rows and the keys, and so does the pruned sample that prune and
    remove_vertices return.  Face counts read only the ranks; the edge
    endpoints are decoded from them once, when first read.
    """

    n: int
    t: int
    seed: int
    threshold: int  # the keyed-hash threshold of every level 2..t+1
    pair_ranks: np.ndarray  # int32 colex ranks u + v(v - 1)/2 of the edges, ascending
    present: np.ndarray  # bool per vertex: False once pruning removed it
    tri_count: int = 0
    triangles: np.ndarray | None = None  # (k, 3) when collected

    @property
    def edge_count(self) -> int:
        return len(self.pair_ranks)

    @functools.cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges_u, edges_v), the int32 ends u < v of the pair ranks, decoded
        on the hash's threads in blocks of _bits.BLOCK_CELLS // 4 pairs: each
        takes about four int64 temporaries."""
        ranks, starts = self.pair_ranks, _pair_offsets(self.n)
        us = np.empty(len(ranks), dtype=np.int32)
        vs = np.empty_like(us)

        def decode(slot, lo, hi):
            us[lo:hi], vs[lo:hi] = _decode_pair_ranks(ranks[lo:hi], starts)

        spans = list(blocks(len(ranks), 4))
        block_map(decode, spans, block_threads(len(spans)))
        return us, vs

    edges_u = property(lambda self: self.endpoints[0])
    edges_v = property(lambda self: self.endpoints[1])

    def counts_by_dim(self) -> tuple[int, ...]:
        out = [int(np.count_nonzero(self.present)), self.edge_count]
        if self.t >= 2:
            out.append(self.tri_count)
        return tuple(out)

    @functools.cached_property
    def upper(self) -> np.ndarray:
        """The adjacency above the diagonal, packed: row u of ceil(n/8) bytes
        holds each neighbour w > u as bit w & 7, from the most significant, of
        byte w >> 3 (np.packbits order).  Built once, from the edges."""
        rows = np.zeros((self.n, (self.n + 7) // 8), dtype=np.uint8)
        v = self.edges_v
        np.bitwise_or.at(rows, (self.edges_u, v >> 3), (0x80 >> (v & 7)).astype(np.uint8))
        return rows

    def collected_triangles(self) -> np.ndarray:
        """The (k, 3) triangles; raises when some were counted but not collected."""
        if self.triangles is None and self.tri_count:
            raise InvalidArgumentError("triangles were not collected for this sample")
        return np.zeros((0, 3), dtype=np.int32) if self.triangles is None else self.triangles

    def faces(self) -> list[np.ndarray]:
        """The edges and the triangles as (F, d + 1) label arrays, rows
        ascending, up to the top dimension with a face: the scans' input,
        as scan.face_labels gives it for the sample's complex."""
        edges = np.stack([self.edges_u, self.edges_v], axis=1)
        return [f for f in (edges, self.collected_triangles()) if len(f)]

    def prune(self, m: int, z, limit: int) -> tuple[LevelSample, PruneResult]:
        """prune_bad_msets on the sample's complex, from its arrays: the
        sample without the removed vertices, and the prune's numbers, whose
        complex is None."""
        res = _prune(self.n, self.faces(), m, z, limit)
        return self.remove_vertices(res.removed_vertices), res

    def remove_vertices(self, removed) -> LevelSample:
        """The sample without the given vertices, besides those already
        removed, and every edge and triangle that touches them."""
        present = self.present.copy()
        present[list(removed)] = False
        eu, ev = self.endpoints
        keep = present[eu] & present[ev]
        tris = self.collected_triangles()
        tris = tris[present[tris].all(axis=1)]
        out = dataclasses.replace(self, pair_ranks=self.pair_ranks[keep], present=present)
        out.endpoints = eu[keep], ev[keep]
        out.tri_count, out.triangles = len(tris), tris
        return out

    def trace_count(self, rows) -> np.ndarray:
        """Traces on each row of a (B, m) array of distinct vertices: 1 (the
        empty trace) + surviving vertices + faces of dimension >= 1.

        Rows go in blocks of at most _bits.BLOCK_CELLS induced adjacency cells
        (or one row), gathered from the upper rows: sorted rows make each
        block strictly upper-triangular.  A block's triangle candidates are
        its edges u < v with each w > v of the row adjacent to both, gated in
        chunks of at most _bits.BLOCK_CELLS cells by re-deriving their
        decisions from the key.
        """
        rows = np.sort(np.asarray(rows, dtype=np.int64), axis=1)  # u < v < w by position
        m = rows.shape[1]
        out = 1 + self.present[rows].sum(axis=1)
        key = level_key(self.seed, 3)
        for lo, hi in blocks(len(rows), m * m):
            block = rows[lo:hi]
            col = block[:, None, :]
            sub = ((self.upper[block[:, :, None], col >> 3] << (col & 7)) & 0x80) != 0
            r, i, j = np.nonzero(sub)
            out[lo:hi] += np.bincount(r, minlength=len(block))
            if self.t < 2:
                continue
            for at, to in blocks(len(r), m):
                rc, ic, jc = r[at:to], i[at:to], j[at:to]
                e, k = np.nonzero(sub[rc, ic] & sub[rc, jc])
                rc, ic, jc = rc[e], ic[e], jc[e]
                ranks = _triangle_ranks(block[rc, ic], block[rc, jc], block[rc, k])
                # _keyed's hash: randgen.rank_u53_np is the sampling passes' own
                ok = _keyed.rank_u53_np(key, ranks, self.threshold)
                out[lo:hi] += np.bincount(rc[ok], minlength=len(block))
        return out


def _triangle_ranks(u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Colex ranks of the triangles u < v < w (int64 vertex arrays)."""
    return u + v * (v - 1) // 2 + w * (w - 1) * (w - 2) // 6


def _pair_offsets(n: int) -> np.ndarray:
    """Colex rank v(v - 1)/2 of the first pair with top vertex v, for v < n."""
    starts = np.arange(n, dtype=np.int64)
    return starts * (starts - 1) // 2


def _decode_pair_ranks(ranks: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs u < v < n with the given colex ranks u + v(v - 1)/2, where
    starts is _pair_offsets(n)."""
    ranks = ranks.astype(np.int64, copy=False)
    v = np.searchsorted(starts, ranks, side="right") - 1
    return ranks - starts[v], v


def _sample_edges_np(n: int, threshold: int, seed: int) -> tuple[np.ndarray]:
    """(ranks,): the int32 colex ranks of the accepted pairs, ascending, from
    one hash call on all C(n, 2) ranks, which fit int32 for n up to
    MAX_SAMPLE_VERTICES.  A one-item tuple, as perfbench's layer counts the
    accepted edges as len(result[0])."""
    ranks = rank_u53_np(level_key(seed, 2), range(math.comb(n, 2)), threshold)
    return (ranks.astype(np.int32, copy=False),)


def _triangle_pass(
    sample: LevelSample, threshold: int, *, collect: bool
) -> tuple[int, np.ndarray | None]:
    """Stream gated triangle candidates (common neighbors above each edge).

    For each edge u < v the candidates are the w > v adjacent to both: the
    AND of the upper rows of u and v.  Common neighbors are sparse (density
    about p^2 at the sample's edge probability p), so edges go in chunks
    whose gathered bytes hold about _bits.BLOCK_CELLS candidates:
    BLOCK_CELLS / (8 p^2) bytes per operand, at most _TRIANGLE_CHUNK_BYTES.
    Edges come in colex order, so v ascends within a chunk and no candidate
    lies below its first v's byte: each chunk gathers only the bytes from
    there on.  Only the non-zero bytes of a chunk's AND are unpacked, most
    significant bit (lowest column) first: candidates come out in edge order
    and then w ascending, the reference sampler's colex order.  Each rank is
    the edge's _triangle_ranks(u, v, 0) plus _triangle_ranks(0, 0, w) = C(w, 3).
    The chunks' candidates are built on the threads of _pool.block_map, and
    the calling thread gates each chunk, in chunk order, with one keyed-hash
    call.
    """
    key = level_key(sample.seed, 3)
    upper = sample.upper
    nbytes = upper.shape[1]
    ranks_w = _triangle_ranks(0, 0, np.arange(sample.n))  # C(w, 3)
    eu, ev = sample.edges_u, sample.edges_v
    budget = _TRIANGLE_CHUNK_BYTES
    if sample.threshold:
        budget = min(budget, (_bits.BLOCK_CELLS << 103) // sample.threshold**2)

    def build(slot, lo, hi):
        # the chunk's candidate ranks, and when collecting their int32 edge
        # indexes and w; None when it has none.  Each temporary is dropped
        # once used, so a thread holds few candidate-sized arrays at a time
        u_c = eu[lo:hi]
        v_c = ev[lo:hi]
        first = int(v_c[0]) >> 3
        common = upper[u_c, first:]
        common &= upper[v_c, first:]
        common = common.ravel()
        at = np.flatnonzero(common != 0)
        if not len(at):
            return None
        w = np.flatnonzero(np.unpackbits(common[at]).view(bool))
        del common
        ei = at[w >> 3]  # flat byte positions, then edges within the chunk
        del at
        w &= 7
        stride = nbytes - first
        col = ei % stride
        ei //= stride
        col += first
        col <<= 3
        w += col
        del col
        ranks = ranks_w[w]
        ranks += _triangle_ranks(u_c.astype(np.int64), v_c.astype(np.int64), 0)[ei]
        if not collect:
            return ranks, None, None
        ei += lo
        return ranks, ei.astype(np.int32), w.astype(np.int32)

    count = 0
    kept = []

    def gate(built):
        nonlocal count
        if built is None:
            return
        ranks, ei, w = built
        ok = rank_u53_np(key, ranks, threshold)
        count += len(ok)
        if collect:
            ei = ei[ok]
            kept.append(np.stack([eu[ei], ev[ei], w[ok]], axis=1))

    spans = list(blocks(len(eu), nbytes, budget))
    block_map(build, spans, block_threads(len(spans)), gate)
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
    if n > MAX_SAMPLE_VERTICES:
        raise ResourceLimitError(
            f"n = {n} is over the sampler's limit of {MAX_SAMPLE_VERTICES} vertices"
        )
    thr = probability_threshold(p)
    (ranks,) = _sample_edges_np(n, thr, seed)
    sample = LevelSample(n, t, seed, thr, ranks, np.ones(n, dtype=bool))
    if t >= 2 and n >= 3:
        sample.tri_count, sample.triangles = _triangle_pass(sample, thr, collect=collect)
    return sample


def materialize(sample: LevelSample) -> SimplicialComplex:
    """The sample's complex: its present vertices, edges and triangles."""
    faces = {1 << v for v in np.flatnonzero(sample.present).tolist()}
    for u, v in zip(sample.edges_u.tolist(), sample.edges_v.tolist()):
        faces.add((1 << u) | (1 << v))
    for a, b, c in sample.collected_triangles().tolist():
        faces.add((1 << a) | (1 << b) | (1 << c))
    return SimplicialComplex(sample.n, faces)


# ---------------------------------------------------------------------------
# bad-m-set pruning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PruneResult:
    complex: SimplicialComplex | None  # None from LevelSample.prune, whose sample stands for it
    removed_vertices: tuple[int, ...]
    bad_sets_found: int
    subsets_scanned: int
    shortcut: bool  # z exceeded the dimension ceiling, so no scan was needed
    # the most faces of dimension >= 1 an m-set spans, when the scan ran and
    # removed nothing; None after a removal or the shortcut
    span_max: int | None = None


def prune_bad_msets(cx: SimplicialComplex, m: int, z) -> PruneResult:
    """Remove the vertices of every m-set spanning >= z faces of dimension >= 1,
    scanning at most DEFAULT_SUBSET_LIMIT subsets."""
    res = _prune(cx.n, scan.face_labels(cx), m, z, DEFAULT_SUBSET_LIMIT)
    removed = mask_of(res.removed_vertices)
    if removed:
        cx = SimplicialComplex(cx.n, {f for f in cx.faces if not f & removed})
    return dataclasses.replace(res, complex=cx)


def _prune(n: int, faces: list[np.ndarray], m: int, z, limit: int) -> PruneResult:
    """The prune of prune_bad_msets on a complex on n vertices with the given
    faces (as scan.active_span_counts takes them), without the pruned
    complex.

    Only subsets of edge-covered vertices are enumerated: an m-set spans
    exactly what its edge-covered part spans, so removing the bad cores is
    what the guarantee needs, and isolated vertices can never contribute.
    When z exceeds the dimension ceiling sum_{i>=2} C(m,i) the scan is
    skipped outright; the result is provably identical.  The scan is exact
    or it raises; it never samples.  It keeps the rows at or above
    min(ceil(z), g), g the span of a greedy set: when none reaches ceil(z),
    g was below it, so the rows hold the largest span, which the result
    reports as span_max.
    """
    zf = Fraction(z)
    if zf < 1:
        raise InvalidArgumentError("z must be >= 1")
    if not 1 <= m <= n:
        raise InvalidArgumentError(f"m must be in 1..{n}")
    zc = math.ceil(zf)
    if max_possible_dim_ge1_span(m, len(faces)) < zc:
        return PruneResult(None, (), 0, 0, True)
    # past the shortcut the complex has an edge and m >= 2, so k >= 2
    verts, rows, counts = scan.active_span_counts(faces, m, zc, limit)
    total = math.comb(len(verts), rows.shape[1])
    bad = np.flatnonzero(counts >= zc)
    if not len(bad):
        return PruneResult(None, (), 0, total, False, int(counts.max()))
    hit = np.zeros(len(verts), dtype=bool)
    hit[rows[bad]] = True
    return PruneResult(None, tuple(verts[hit].tolist()), len(bad), total, False)


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


@dataclass(frozen=True)
class _Trial:
    """One (n, trial) point of a sweep, with the constants all its points share."""

    params: ExperimentParams
    shortcut: bool  # no m-set of a dimension-t complex spans ceil(z) faces
    limit: int  # the scan limit
    master_seed: int
    trial: int
    threshold: int  # p as an exact keyed-hash threshold
    seed: int  # derive_seed(master_seed, n, trial)


def _sample_pruned(job: _Trial, prune: bool) -> tuple[LevelSample, PruneResult | None]:
    """Sample the job's level model; when prune is set, also prune it at
    (m, z) and return the sample without the removed vertices, which
    answers queries as the pruned complex."""
    p = job.params
    sample = sample_levels(p.n, p.t, Fraction(job.threshold, 1 << 53), job.seed, collect=prune)
    if not prune:
        return sample, None
    return sample.prune(p.m, p.z, job.limit)


def _plan(s: Fraction, m: int, n_list, trials: int, seed: int, limit: int):
    """The (n, trial) jobs of a sweep at p = n^(-1/(s-1)) and z = (s-1)(m+1),
    n-major, each seeded by derive_seed(seed, n, trial).  Returns (n_list as
    a tuple, jobs)."""
    if s < 2:
        raise InvalidArgumentError("s must be >= 2")
    if m < 1 or trials < 1:
        raise InvalidArgumentError("need m >= 1 and trials >= 1")
    n_list = tuple(int(n) for n in n_list)
    if not n_list:
        raise InvalidArgumentError("need at least one size n")
    t = floor_log2(s)
    if t not in (1, 2):
        raise InvalidArgumentError("sampling supports t in {1, 2}")
    z = (s - 1) * (m + 1)
    shortcut = max_possible_dim_ge1_span(m, t) < math.ceil(z)
    jobs = []
    for n in n_list:
        threshold = inverse_power_threshold(n, 1 / (s - 1))
        params = ExperimentParams(s, m, n, t, threshold / float(1 << 53), z)
        jobs += [
            _Trial(params, shortcut, limit, seed, trial, threshold, derive_seed(seed, n, trial))
            for trial in range(trials)
        ]
    return n_list, jobs


def _sweep(s: Fraction, m: int, n_list, trials: int, seed: int, instance, limit: int, workers: int):
    """Run instance on each job of _plan in a pool bounded by workers
    (instance must then be a module-level function), and fit the log-log
    slope of the total faces of each result against n.  A size listed twice
    runs once and its results repeat.  Returns (n_list as a tuple, results,
    slope)."""
    n_list, jobs = _plan(s, m, n_list, trials, seed, limit)
    # a repeated size repeats its jobs: run each distinct job once
    distinct = list(dict.fromkeys(jobs))
    done = dict(zip(distinct, list(bounded_map(instance, distinct, workers))))
    results = [done[job] for job in jobs]
    totals = [(job.params.n, sum(res.faces_by_dim)) for job, res in zip(jobs, results)]
    return n_list, results, _loglog_slope(totals)


def _loglog_slope(totals) -> float:
    """Least-squares slope of log(mean total) against log(n).

    totals holds (n, total face count) pairs, averaged per distinct n in
    order of first occurrence.  nan for fewer than two distinct sizes, or
    when some mean is <= 0 (pruning can empty every instance at some n),
    where the log-log fit is undefined.
    """
    at_n: dict[int, list[int]] = {}
    for n, total in totals:
        at_n.setdefault(n, []).append(total)
    means = [sum(group) / len(group) for group in at_n.values()]
    if len(means) < 2 or min(means) <= 0:
        return float("nan")
    xs = np.log(np.asarray(list(at_n), dtype=float))
    ys = np.log(np.asarray(means, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def _growth_trial(job: _Trial) -> ExperimentReport:
    """Prune when C(n, m) fits under the limit or the shortcut fails; exact
    f(m) of the pruned sample when the scan fits.  A prune that removed
    nothing reports the largest span of its own scan, so f(m) takes no
    second scan."""
    p = job.params
    prune = math.comb(p.n, p.m) <= job.limit or not job.shortcut
    sample, res = _sample_pruned(job, prune)
    f_m: int | str = "sampled"
    if res is not None:
        try:
            span = res.span_max
            if span is None:  # after a removal or the shortcut
                span = scan.span_max(sample.faces(), p.m, job.limit)
            f_m = scan.shatter_from_span(sample.counts_by_dim()[0], p.m, span)
        except ResourceLimitError:
            pass
    return ExperimentReport(
        job.seed,
        p,
        sample.counts_by_dim(),
        f_m,
        res.bad_sets_found if res else 0,
        len(res.removed_vertices) if res else 0,
        "scan" if res and not res.shortcut else "shortcut",
    )


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
    scan_limit: int = DEFAULT_SUBSET_LIMIT,
    workers: int = 1,
) -> GrowthResult:
    """Seeded sample->prune sweeps over n_list with a log-log regression slope.

    Per trial at p = n^(-1/(s-1)) and z = (s-1)(m+1): the pruned complex's
    face counts, and exact f(m) whenever C(n,m) fits under the enumeration
    limit.  With workers > 1 the trials run in a pool of at most
    min(workers, trial count, CPU count) processes.
    """
    s = Fraction(s)
    n_list, reports, slope = _sweep(s, m, n_list, trials, seed, _growth_trial, scan_limit, workers)
    return GrowthResult(s, m, n_list, trials, seed, reports, slope, growth_exponent(s))


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
    eu, ev = sample.edges_u, sample.edges_v
    deg = np.bincount(eu, minlength=sample.n) + np.bincount(ev, minlength=sample.n)
    order = np.argsort(deg, kind="stable")
    top = tuple(int(v) for v in order[-m:])
    hub = int(order[-1])
    # colex edge order: the hub's neighbours below it, then those above, ascend
    nbrs = np.concatenate([eu[ev == hub], ev[eu == hub]])
    nbrs = sorted((int(v) for v in nbrs), key=lambda v: int(deg[v]), reverse=True)
    hood = tuple(sorted({hub, *nbrs[: m - 1]}))
    out = {"top_degree": top}
    if len(hood) == m:
        out["hub_neighborhood"] = hood
    return out


def _probe_instance(job: _Trial, gk_m: int) -> ProbeInstance:
    """Prune when the scan fits, then count the traces of
    PROBE_SUBSET_SAMPLES uniform m-sets and the spot sets against g_k(m)."""
    n, m = job.params.n, job.params.m
    pruning = "skipped"
    if job.shortcut:
        pruning = "shortcut"
    elif math.comb(n, m) <= job.limit:
        pruning = "scan"
    sample, _ = _sample_pruned(job, pruning == "scan")
    rng = random.Random(derive_seed(job.master_seed, n, job.trial, 0xBAD5E75))
    rows = [rng.sample(range(n), m) for _ in range(PROBE_SUBSET_SAMPLES)]
    spots = _probe_spot_sets(sample, m)
    traces = sample.trace_count(rows + list(spots.values())).tolist()
    counts = sample.counts_by_dim()
    # an m-set holding min(m, vertices left) present vertices traces each and the empty set
    max_trace = max(1 + min(m, counts[0]), *traces)
    spot_traces = dict(zip(spots, traces[PROBE_SUBSET_SAMPLES:]))
    return ProbeInstance(
        job.seed,
        n,
        counts,
        max_trace,
        max_trace <= gk_m,
        pruning,
        PROBE_SUBSET_SAMPLES + len(spot_traces),
        spot_traces,
    )


def bondy_hajnal_probe(
    k: int,
    m: int,
    n_list,
    trials: int,
    seed: int,
    *,
    epsilon=Fraction(1),
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
    instance = functools.partial(_probe_instance, gk_m=gk_m)
    n_list, instances, exponent = _sweep(s, m, n_list, trials, seed, instance, scan_limit, 1)
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
