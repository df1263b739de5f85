import dataclasses
import hashlib
import math
import random
import re
import threading
import tracemalloc
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from shatterlab import _bits, _keyed, _pool, randgen, scan
from shatterlab._bits import bits, facets_present, mask_of
from shatterlab._keyed import (
    inverse_power_threshold,
    level_key,
    probability_threshold,
    rank_u53,
    rank_u53_np,
)
from shatterlab.complexes import SimplicialComplex, span_count
from shatterlab.errors import DEFAULT_SUBSET_LIMIT, InvalidArgumentError, ResourceLimitError
from shatterlab.randgen import (
    REPORT_CSV_HEADER,
    bondy_hajnal_probe,
    growth_experiment,
    materialize,
    max_possible_dim_ge1_span,
    prune_bad_msets,
    sample_complex,
    sample_levels,
    _decode_pair_ranks,
    _pair_offsets,
    _sample_edges_np,
    _triangle_pass,
    _triangle_ranks,
)
from shatterlab.verify import DEFAULT_SEED


def _accepted_by_scalar(key, ranks, threshold):
    return [i for i, r in enumerate(ranks) if rank_u53(key, r) < threshold]


# thresholds 0 and 2^53 take no hash; 2^53 - 1 is the largest the filter on
# the top bits sees
THRESHOLDS = (0, 1, 1 << 40, 1 << 52, (1 << 53) - 1, 1 << 53)


def test_keyed_hash_threshold_is_exact():
    # rank r is accepted at threshold h(r) + 1 and not at h(r): the filter on
    # the top bits never drops a survivor, and the exact compare decides
    key = level_key(987654321, 2)
    ranks = np.random.default_rng(1).integers(0, 1 << 40, 300, dtype=np.int64)
    for r in ranks.tolist():
        h = rank_u53(key, r)
        one = np.array([r], dtype=np.int64)
        assert rank_u53_np(key, one, h).tolist() == []
        assert rank_u53_np(key, one, h + 1).tolist() == [0]
        assert rank_u53_np(key, range(r, r + 1), h + 1).tolist() == [0]
    hashes = sorted(rank_u53(key, r) for r in ranks.tolist())
    for threshold in (*THRESHOLDS, hashes[0], hashes[150], hashes[-1]):
        got = rank_u53_np(key, ranks, threshold)
        assert got.tolist() == _accepted_by_scalar(key, ranks.tolist(), threshold)
    # 50,000 consecutive ranks at p = 1/64, the sampler's form
    got = rank_u53_np(key, range(50_000), 1 << 47)
    assert got.tolist() == _accepted_by_scalar(key, range(50_000), 1 << 47)
    assert 600 < len(got) < 950


def test_keyed_hash_agrees_at_the_ends_of_its_range():
    # ranges and int64 arrays near 2^53 and ending at 2^64 - 1 (read mod
    # 2^64), where start * salt wraps, and int64 triangle ranks up to
    # C(2^14, 3), the sampler's largest; no input array is written
    key = level_key(987654321, 3)
    top = range((1 << 64) - 1000, 1 << 64)
    near53 = range((1 << 53) - 500, (1 << 53) + 500)
    rng = np.random.default_rng(2)
    uvw = np.sort(rng.choice(1 << 14, size=(2000, 3)), axis=1)
    uvw = uvw[(uvw[:, 0] < uvw[:, 1]) & (uvw[:, 1] < uvw[:, 2])]
    tri = _triangle_ranks(uvw[:, 0], uvw[:, 1], uvw[:, 2])
    tri = np.concatenate([tri, [0, math.comb(1 << 14, 3) - 1]]).astype(np.int64)
    for threshold in (*THRESHOLDS, 1 << 49):
        for span in (top, near53):
            want = _accepted_by_scalar(key, span, threshold)
            array = np.array(span, dtype=np.uint64).view(np.int64)
            before = array.copy()
            assert rank_u53_np(key, span, threshold).tolist() == want
            assert rank_u53_np(key, array, threshold).tolist() == want
            assert np.array_equal(array, before)
        before = tri.copy()
        got = rank_u53_np(key, tri, threshold)
        assert np.array_equal(tri, before) and tri.dtype == np.int64
        assert got.tolist() == _accepted_by_scalar(key, tri.tolist(), threshold)


def test_keyed_hash_of_a_range_longer_than_its_salt_table(monkeypatch):
    # the table is one block long: a longer range is hashed a block at a
    # time, on one thread or on up to 3; a stepped range raises
    key = level_key(5, 2)
    monkeypatch.setattr(_bits, "BLOCK_CELLS", 7)
    table = _keyed._salt_table(_bits.BLOCK_CELLS)
    assert len(table) == 7 and not table.flags.writeable
    for cpus in (1, 3):
        monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
        for span in (range((1 << 64) - 7, 1 << 64), range((1 << 64) - 50, 1 << 64), range(3, 999)):
            for threshold in (1 << 50, 1 << 52):
                want = _accepted_by_scalar(key, span, threshold)
                assert rank_u53_np(key, span, threshold).tolist() == want, (cpus, span)
    assert rank_u53_np(key, range(9, 9), 1 << 52).tolist() == []
    assert rank_u53_np(key, np.zeros(0, dtype=np.int64), 1 << 52).tolist() == []
    for bad in (range(0, 10, 2), range(10, 0, -1)):
        with pytest.raises(ValueError):
            rank_u53_np(key, bad, 1 << 52)


def test_probability_threshold_exact():
    assert probability_threshold(0) == 0
    assert probability_threshold(1) == 1 << 53
    assert probability_threshold(Fraction(1, 2)) == 1 << 52
    with pytest.raises(ValueError):
        probability_threshold(Fraction(3, 2))


def test_inverse_power_threshold_exact():
    # T = floor(2^53 n^(-b/a)): check the defining inequalities directly
    for n, expo in [(256, Fraction(1, 2)), (100, Fraction(1, 2)), (81, Fraction(1, 4)),
                    (1000, Fraction(2, 5)), (7, Fraction(5, 3))]:
        t = inverse_power_threshold(n, expo)
        a, b = expo.denominator, expo.numerator
        assert t**a * n**b <= 2 ** (53 * a)
        assert (t + 1) ** a * n**b > 2 ** (53 * a)
    assert inverse_power_threshold(256, Fraction(1, 2)) == 2**53 // 16


def test_sample_p0_vertices_only():
    cx = sample_complex(12, 2, 0, 5)
    assert cx.face_counts() == {0: 12}
    assert scan.exact_shatter_value(cx, 6) == 7  # f(m) = m + 1


def test_sample_p1_full_skeleton():
    n, t = 9, 2
    cx = sample_complex(n, t, 1, 5)
    for k in range(1, t + 2):
        assert len(cx.faces_of_dim(k - 1)) == math.comb(n, k)


def test_sample_rejects_bad_p():
    with pytest.raises(InvalidArgumentError):
        sample_complex(5, 1, Fraction(3, 2), 0)


def test_sample_determinism():
    a = sample_complex(30, 2, Fraction(1, 4), 123)
    b = sample_complex(30, 2, Fraction(1, 4), 123)
    assert a == b
    c = sample_complex(30, 2, Fraction(1, 4), 124)
    assert a != c  # different seed, different complex (overwhelmingly)


def test_sample_downward_closed():
    for seed in (1, 2, 3):
        cx = sample_complex(18, 2, Fraction(2, 5), seed)
        assert all(facets_present(cx.faces | {0}, f) for f in cx.faces)


def test_fast_sampler_matches_reference():
    for n, t, p, seed in [(40, 1, Fraction(1, 5), 7), (36, 2, Fraction(3, 10), 99),
                          (20, 2, Fraction(9, 10), 3), (15, 1, 1, 4), (15, 1, 0, 4)]:
        ref = sample_complex(n, t, p, seed)
        fast = materialize(sample_levels(n, t, p, seed, collect=True))
        assert ref == fast


def test_fast_sampler_matches_reference_across_edge_chunks(monkeypatch):
    # n % 8 != 0 leaves a padding byte in each packed row.  Chunks of 1 and 3
    # edges start at nearly every top vertex v, so the column trim starts in
    # every byte; 40-edge chunks span top vertices in several bytes (a trim
    # past the first v's byte loses candidates) and split a top vertex's edges
    p, seed = Fraction(3, 5), 4
    for n in (37, 41, 123):
        ref = sample_complex(n, 2, p, seed)
        ev = sample_levels(n, 1, p, seed).edges_v
        assert any(ev[at - 1] == ev[at] for at in range(40, len(ev), 40))
        for edges in (1, 3, 40):
            monkeypatch.setattr(randgen, "_TRIANGLE_CHUNK_BYTES", edges * ((n + 7) // 8))
            assert materialize(sample_levels(n, 2, p, seed, collect=True)) == ref, (n, edges)


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("chunk", [7, 64, math.comb(40, 2), math.comb(40, 2) - 1])
def test_fast_sampler_matches_reference_across_pair_chunks(monkeypatch, chunk, t):
    # chunks of 7 and 64 split the pairs of one top vertex; C(40, 2) is one
    # exact chunk, and one less leaves the last pair alone in a second
    monkeypatch.setattr(_bits, "BLOCK_CELLS", chunk)
    fast = materialize(sample_levels(40, t, Fraction(3, 10), 5, collect=True))
    assert fast == sample_complex(40, t, Fraction(3, 10), 5)


def test_fast_sampler_matches_reference_across_default_pair_chunks():
    assert math.comb(400, 2) > _bits.BLOCK_CELLS
    fast = materialize(sample_levels(400, 1, Fraction(1, 20), 3))
    assert fast == sample_complex(400, 1, Fraction(1, 20), 3)


def _assert_pinned_edges():
    # C(8192, 2) pairs span hundreds of pair chunks; the digest was recorded
    # with 2^21-rank chunks and a hash that allocated a new array per step
    sample = sample_levels(8192, 1, Fraction(1, 90), 11)
    data = sample.edges_u.astype("<i4").tobytes() + sample.edges_v.astype("<i4").tobytes()
    assert sample.edge_count == 372_739
    assert (
        hashlib.sha256(data).hexdigest()
        == "1b8a057c13de869519a319da843d5924ec7b2588e64c3c35e2b91335677f1ed8"
    )


def test_sampled_edges_are_pinned():
    _assert_pinned_edges()


@pytest.mark.parametrize("cpus", [1, 3])
def test_sampled_edges_are_pinned_at_any_cpu_count(monkeypatch, cpus):
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    _assert_pinned_edges()


def test_edge_sampling_memory_is_bounded(monkeypatch):
    # one hash call takes every pair rank as a range, which it hashes a
    # block at a time, so the hash's buffers stay small whatever n is;
    # 2^21-rank chunks would peak near 51 MB
    n = 8192
    calls = []

    def recorded(key, ranks, threshold):
        calls.append(ranks)
        return rank_u53_np(key, ranks, threshold)

    monkeypatch.setattr(randgen, "rank_u53_np", recorded)
    tracemalloc.start()
    try:
        _sample_edges_np(n, inverse_power_threshold(n, Fraction(1, 2)), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [range(math.comb(n, 2))]
    assert peak < 16 << 20


def test_edge_pass_hashes_in_one_pair_of_buffers_per_thread(monkeypatch):
    # C(60, 2) = 1,770 ranks in 19 blocks of 97 on up to 3 threads: each
    # thread hashes all its blocks in one pair of arrays, at most 3 pairs
    # exist, and the edges are those of the default blocks
    n, threshold = 60, probability_threshold(Fraction(1, 3))
    want = _sample_edges_np(n, threshold, 4)
    monkeypatch.setattr(_bits, "BLOCK_CELLS", 97)
    monkeypatch.setattr(_pool, "cpu_count", lambda: 3)
    calls = []

    def recorded(z, tmp, key, threshold):
        calls.append((threading.get_ident(), z, tmp))
        return accepted(z, tmp, key, threshold)

    accepted = _keyed._accepted
    monkeypatch.setattr(_keyed, "_accepted", recorded)
    got = _sample_edges_np(n, threshold, 4)
    assert len(calls) == math.ceil(math.comb(n, 2) / 97)
    pairs = {}
    for thread, z, tmp in calls:
        pairs.setdefault(thread, (z, tmp))
        z0, tmp0 = pairs[thread]
        assert np.shares_memory(z, z0) and np.shares_memory(tmp, tmp0)
    assert len(pairs) <= 3
    arrays = [a for pair in pairs.values() for a in pair]
    assert not any(np.shares_memory(a, b) for a, b in combinations(arrays, 2))
    assert all(np.array_equal(a, b) for a, b in zip(got, want)) and len(want[0]) > 500
    # no pair to hash, and one
    assert [len(us) for us, _ in (_sample_edges_np(k, 1 << 53, 4) for k in (1, 2))] == [0, 1]


@pytest.mark.parametrize("n", [2, 3, 60, 400])
def test_edges_on_three_threads_equal_the_serial_edges(monkeypatch, n):
    # blocks of 97 ranks and of 97 // 4 decoded pairs, claimed by up to 3 threads
    threshold = probability_threshold(Fraction(1, 3))
    monkeypatch.setattr(_pool, "cpu_count", lambda: 1)
    want = [_sample_edges_np(n, threshold, seed) for seed in range(3)]
    monkeypatch.setattr(_bits, "BLOCK_CELLS", 97)
    monkeypatch.setattr(_pool, "cpu_count", lambda: 3)
    for seed, (us, vs) in enumerate(want):
        got_u, got_v = _sample_edges_np(n, threshold, seed)
        assert got_u.dtype == got_v.dtype == np.int32
        assert np.array_equal(got_u, us) and np.array_equal(got_v, vs), seed
    assert sum(len(us) for us, _ in want) > 0


def test_pair_decode_is_the_colex_order():
    for n in (2, 3, 9, 200):
        ranks = np.arange(math.comb(n, 2), dtype=np.uint64)
        u, v = _decode_pair_ranks(ranks, _pair_offsets(n))
        assert list(zip(u.tolist(), v.tolist())) == [(a, b) for b in range(n) for a in range(b)]
    n = 8192
    ranks = np.random.default_rng(0).integers(0, math.comb(n, 2), 20_000).astype(np.uint64)
    ranks[:2] = (0, math.comb(n, 2) - 1)
    u, v = _decode_pair_ranks(ranks, _pair_offsets(n))
    for r, a, b in zip(ranks.tolist(), u.tolist(), v.tolist()):
        assert 0 <= a < b < n and a + math.comb(b, 2) == r


def _dense_adjacency(sample) -> np.ndarray:
    """The sample's n x n symmetric bool adjacency, set from its edges."""
    adj = np.zeros((sample.n, sample.n), dtype=bool)
    adj[sample.edges_u, sample.edges_v] = True
    adj[sample.edges_v, sample.edges_u] = True
    return adj


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 1001])
def test_upper_rows_are_the_strict_upper_triangle(n):
    # n = 7 and 9 leave padding bits in each row's last byte; pruning drops
    # every third vertex, and the unpruned sample keeps its rows
    p = Fraction(1, 2) if n < 1000 else Fraction(1, 5)
    sample = sample_levels(n, 2, p, n, collect=True)
    pruned = sample.remove_vertices(range(0, n, 3))
    for s in (sample, pruned, sample):
        rows = s.upper
        assert rows.shape == (n, (n + 7) // 8) and rows.dtype == np.uint8
        bits_ = np.unpackbits(rows, axis=1)
        assert not bits_[:, n:].any()
        assert np.array_equal(bits_[:, :n], np.triu(_dense_adjacency(s), k=1))


def test_sample_with_its_upper_rows_fits_in_4_mb():
    # the upper rows take n^2/8 = 2 MB and the 131k edges 1 MB; an n x n bool
    # adjacency would add 16 MB
    tracemalloc.start()
    try:
        sample = sample_levels(4096, 2, Fraction(1, 64), 5)
        sample.upper
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sample.tri_count > 0
    assert current <= 4 << 20


def test_pruning_uncollected_triangles_is_refused():
    # without the triangles the pruned sample cannot know its triangle count
    sample = sample_levels(24, 2, Fraction(1, 3), 0)
    assert sample.counts_by_dim() == (24, 84, 24)
    with pytest.raises(InvalidArgumentError):
        sample.remove_vertices(range(12))
    collected = sample_levels(24, 2, Fraction(1, 3), 0, collect=True)
    assert collected.remove_vertices(range(12)).counts_by_dim() == (12, 15, 2)
    edges_only = sample_levels(24, 1, Fraction(1, 3), 0)
    assert edges_only.remove_vertices(range(12)).counts_by_dim() == (12, 15)


def test_triangle_candidates_match_trace_of_cube(monkeypatch):
    # threshold 2^53 accepts every candidate, so the pass counts the graph's
    # triangles: trace(A^3)/6, exact in float64 at this size; with the
    # default budget and with chunks of 7 edges (1000 // 126-byte rows)
    sample = sample_levels(1001, 1, Fraction(1, 5), 6)
    adj = _dense_adjacency(sample).astype(np.float64)
    cube = int(np.trace(adj @ adj @ adj)) // 6
    assert cube > 0
    for budget in (randgen._TRIANGLE_CHUNK_BYTES, 1000):
        monkeypatch.setattr(randgen, "_TRIANGLE_CHUNK_BYTES", budget)
        count, tris = _triangle_pass(sample, 1 << 53, collect=False)
        assert tris is None
        assert count == cube, budget


@pytest.mark.parametrize("cpus", [1, 3])
def test_sampled_triangles_are_pinned(monkeypatch, cpus):
    # 92,394 edges in 181 chunks of 512 edges; helpers build candidates, and
    # every hash call runs on the calling thread.  The digest, the count and
    # the candidates hashed were recorded with 4096-edge chunks over whole
    # packed rows, on one thread
    n = 1024
    threshold = inverse_power_threshold(n, Fraction(1, 4))
    sample = sample_levels(n, 1, Fraction(threshold, 1 << 53), 3)
    hashed, callers = [], set()

    def counted(key, ranks, threshold):
        hashed.append(len(ranks))
        callers.add(threading.get_ident())
        return rank_u53_np(key, ranks, threshold)

    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    monkeypatch.setattr(randgen, "_TRIANGLE_CHUNK_BYTES", 1 << 16)
    monkeypatch.setattr(randgen, "rank_u53_np", counted)
    count, tris = _triangle_pass(sample, threshold, collect=True)
    assert len(hashed) >= 20
    assert callers == {threading.get_ident()}
    assert cpus == 1 or _pool._helper_count >= 2
    assert sample.edge_count == 92_394
    assert sum(hashed) == 980_366
    assert count == len(tris) == 173_235
    assert (
        hashlib.sha256(tris.astype("<i4").tobytes()).hexdigest()
        == "7998163143f41b35cc49640383f965d84c8da6016af3b2e6293ff1f66c11153a"
    )


@pytest.mark.parametrize("cpus", [1, 3])
def test_triangle_pass_memory_is_bounded(monkeypatch, cpus):
    # the upper rows take n^2/8 bytes (2 MB here), built before tracing; at
    # p = 1/64 a chunk gathers 2^18-byte operands, and at most 2 * 3 chunks'
    # candidates wait for the gate; unpacked n x n bool temporaries would
    # peak near 50 MB
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    n = 4096
    sample = sample_levels(n, 1, Fraction(1, 64), 5)
    sample.upper
    tracemalloc.start()
    try:
        count, _ = _triangle_pass(sample, 1 << 53, collect=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > 0
    assert peak < 8 << 20


@pytest.mark.parametrize("cpus, bound", [(1, 3), (3, 9)])
def test_triangle_chunks_hold_about_a_block_of_candidates(monkeypatch, cpus, bound):
    # p = 2048^(-1/5): 456,545 edges in 677 chunks of 675 edges, whose
    # 172,950 bytes per operand hold about BLOCK_CELLS candidates; the pass
    # holds a few chunks' candidates per thread, whatever n is (it read 2.0
    # and 7.0 MB)
    monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
    n = 2048
    threshold = inverse_power_threshold(n, Fraction(1, 5))
    sample = sample_levels(n, 1, Fraction(threshold, 1 << 53), 7)
    sample.upper
    tracemalloc.start()
    try:
        count, _ = _triangle_pass(sample, threshold, collect=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > 0
    assert peak < bound << 20


def test_edge_count_mean_within_tolerance():
    # t=1, n=512, p=1/sqrt(n): mean over 50 seeds within 5 sigma of C(n,2) p
    n = 512
    threshold = inverse_power_threshold(n, Fraction(1, 2))
    p = threshold / 2**53
    total = math.comb(n, 2)
    counts = [sample_levels(n, 1, Fraction(threshold, 1 << 53), seed).edge_count
              for seed in range(50)]
    mean = sum(counts) / len(counts)
    sigma_mean = math.sqrt(total * p * (1 - p) / len(counts))
    assert abs(mean - total * p) <= 5 * sigma_mean


def test_max_possible_span_ceiling():
    assert max_possible_dim_ge1_span(4, 1) == 6
    assert max_possible_dim_ge1_span(4, 2) == 10
    assert max_possible_dim_ge1_span(13, 2) == math.comb(13, 2) + math.comb(13, 3)
    assert max_possible_dim_ge1_span(3, 0) == 0


def test_prune_identity_on_flat_complex():
    cx = SimplicialComplex(6, [1 << v for v in range(6)])
    res = prune_bad_msets(cx, 3, 1)
    assert res.complex == cx and not res.removed_vertices


def test_prune_shortcut_when_z_unreachable():
    cx = sample_complex(30, 1, Fraction(1, 4), 9)
    res = prune_bad_msets(cx, 4, 10)  # 4 vertices span at most 6 edges
    assert res.shortcut and res.complex == cx


def test_prune_removes_bad_cores_and_guarantee_holds():
    # dense planted clique forces bad sets at z below the ceiling
    rng = random.Random(3)
    facets = [[0, 1], [1, 2], [0, 2], [0, 3], [1, 3], [2, 3]]  # K4 on 0..3
    for _ in range(6):
        facets.append(rng.sample(range(4, 12), 2))
    cx = SimplicialComplex.from_facets(12, facets)
    res = prune_bad_msets(cx, 4, 5)
    assert not res.shortcut
    assert res.bad_sets_found >= 1
    assert set(res.removed_vertices) >= {0, 1, 2, 3}
    # exhaustive verification over all ambient 4-subsets
    assert scan.max_dim_ge1_span(res.complex, 4, vertices=range(12)) < 5


def test_prune_guarantee_against_bruteforce_oracle():
    rng = random.Random(8)
    for trial in range(10):
        n = rng.randint(6, 14)
        cx = sample_complex(n, 2, Fraction(3, 5), trial)
        m = rng.randint(2, 4)
        z = rng.randint(1, 8)
        try:
            res = prune_bad_msets(cx, m, z)
        except ResourceLimitError:
            continue
        # oracle: no m-subset (itertools, sets) of survivors spans >= z
        faces = [frozenset(bits(f)) for f in res.complex.faces if f.bit_count() >= 2]
        survivors = res.complex.vertices()
        for ys in combinations(survivors, min(m, len(survivors))):
            got = sum(1 for f in faces if f <= set(ys))
            assert got < z


def test_prune_resource_limit():
    sample = sample_levels(40, 1, Fraction(1, 2), 0, collect=True)
    with pytest.raises(ResourceLimitError):
        sample.prune(6, 2, 1000)


def test_prune_rejects_bad_args():
    cx = sample_complex(8, 1, Fraction(1, 2), 0)
    with pytest.raises(InvalidArgumentError):
        prune_bad_msets(cx, 9, 2)
    with pytest.raises(InvalidArgumentError):
        prune_bad_msets(cx, 3, 0)


def test_post_prune_shatter_bound():
    # f(m) < z + m + 1 after pruning (z = (s-1)(m+1), s = 3, m = 4)
    s, m = Fraction(3), 4
    z = (s - 1) * (m + 1)
    for seed in range(3):
        n = 60
        threshold = inverse_power_threshold(n, 1 / (s - 1))
        cx = materialize(sample_levels(n, 1, Fraction(threshold, 1 << 53), seed, collect=True))
        pruned = prune_bad_msets(cx, m, z).complex
        f_m = scan.exact_shatter_value(pruned, m)
        assert f_m < z + m + 1
        assert f_m <= s * m + s - 1  # integral s: the statement form also holds


def test_growth_report_invariants():
    res = growth_experiment(Fraction(3), 4, (64, 128), 3, 99)
    assert len(res.reports) == 6
    for rep in res.reports:
        assert rep.params.z == (rep.params.s - 1) * (rep.params.m + 1)
        assert rep.params.t == 1
        assert len(rep.faces_by_dim) == 2
        if rep.f_m_exact != "sampled":
            assert rep.f_m_exact < rep.params.s * rep.params.m + rep.params.s
    rows = res.csv_lines()
    assert rows[0] == REPORT_CSV_HEADER
    assert len(rows) == 7


def test_growth_target_exponents():
    assert growth_experiment(Fraction(2), 4, (32, 64), 1, 0).target_exponent == 1
    res = growth_experiment(Fraction(3), 4, (32, 64), 1, 0)
    assert res.target_exponent == Fraction(3, 2)


def test_growth_deterministic():
    a = growth_experiment(Fraction(3), 4, (64, 128), 2, 5)
    b = growth_experiment(Fraction(3), 4, (64, 128), 2, 5)
    assert a.slope == b.slope
    assert [r.csv_row() for r in a.reports] == [r.csv_row() for r in b.reports]


def test_growth_pool_is_bounded(recording_pool):
    serial = growth_experiment(Fraction(3), 4, (32, 64), 2, 5).csv_lines()
    assert growth_experiment(Fraction(3), 4, (32, 64), 2, 5, workers=8).csv_lines() == serial
    growth_experiment(Fraction(3), 4, (32,), 2, 5, workers=8)
    growth_experiment(Fraction(3), 4, (32, 64), 2, 5, workers=2)
    growth_experiment(Fraction(3), 4, (32,), 1, 5, workers=8)  # one trial: no pool
    assert recording_pool == [3, 2, 2]


def test_repeated_sizes_run_once(monkeypatch):
    # n = 64 twice with 2 trials is 2 distinct (n, trial) points, not 4
    calls = []
    trial = randgen._growth_trial

    def counted(job):
        calls.append(job)
        return trial(job)

    once = growth_experiment(Fraction(3), 4, (64,), 2, 5).csv_lines()
    monkeypatch.setattr(randgen, "_growth_trial", counted)
    twice = growth_experiment(Fraction(3), 4, (64, 64), 2, 5)
    assert len(calls) == 2
    assert twice.csv_lines() == once + once[1:]
    assert math.isnan(twice.slope)


def test_growth_trial_scans_twice_only_after_a_removal(monkeypatch):
    # s = 4, m = 7: the n = 16 trials at the default seed remove 8, 10 and
    # no vertices; a trial that removes nothing takes f(m) from its prune's
    # own scan, and one that removes vertices scans the pruned sample again
    floors = []
    floor_span_rows = scan.floor_span_rows

    def counted(npos, faces, k, floor):
        floors.append(floor)
        return floor_span_rows(npos, faces, k, floor)

    monkeypatch.setattr(scan, "floor_span_rows", counted)
    _, jobs = randgen._plan(Fraction(4), 7, (14, 16), 3, DEFAULT_SEED, 10**7)
    removed = []
    for job in jobs:
        floors.clear()
        report = randgen._growth_trial(job)
        assert report.pruning == "scan" and isinstance(report.f_m_exact, int)
        assert len(floors) == (2 if report.vertices_removed else 1)
        removed.append(report.vertices_removed)
    assert removed == [0, 0, 0, 8, 10, 0]


def test_growth_rejects_bad_s():
    with pytest.raises(InvalidArgumentError):
        growth_experiment(Fraction(3, 2), 4, (64,), 1, 0)


def test_probe_small_scale(monkeypatch):
    monkeypatch.setattr(randgen, "PROBE_SUBSET_SAMPLES", 100)
    probe = bondy_hajnal_probe(2, 13, (256, 512), 2, 7)
    assert probe.g_k_m == 92
    assert probe.s == 6 and probe.target_exponent == Fraction(11, 5)
    assert probe.premise_all_ok
    for inst in probe.instances:
        assert inst.max_trace_seen <= 92
        assert inst.pruning in ("skipped", "shortcut", "scan")
    rows = probe.csv_lines()
    assert len(rows) == 5


def test_probe_scan_mode_samples_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_levels(*args, **kwargs)

    monkeypatch.setattr(randgen, "sample_levels", counted)
    monkeypatch.setattr(randgen, "PROBE_SUBSET_SAMPLES", 50)
    probe = bondy_hajnal_probe(2, 12, (16,), 3, 7, epsilon=Fraction(1, 100))
    assert len(calls) == len(probe.instances) == 3
    # max_trace counts the vertices pruning left: none, 5 and none
    assert probe.csv_lines() == [
        "seed,n,faces_total,max_trace,gk_m,premise_ok,pruning,subsets_checked",
        "10376855888541733689,16,0,1,79,1,scan,51",
        "15656339630444168560,16,5,6,79,1,scan,51",
        "12886109454472513690,16,0,1,79,1,scan,51",
    ]
    assert [i.spot_traces for i in probe.instances] == [
        {"top_degree": 1}, {"top_degree": 6}, {"top_degree": 1}
    ]
    # faces left after pruning agree with the reference sampler
    z = (probe.s - 1) * (probe.m + 1)
    for inst, (n, t, p, seed) in zip(probe.instances, calls):
        pruned = prune_bad_msets(sample_complex(n, t, p, seed), probe.m, z).complex
        assert inst.faces_by_dim == tuple(len(pruned.faces_of_dim(d)) for d in range(3))


def test_removals_compose():
    # removing R1 and then R2 leaves what removing R1 | R2 leaves: the same
    # counts, traces and complex, that of the full sample without the faces
    # touching R1 | R2; a second removal once forgot the first, so
    # R1 = {0}, R2 = {1} counted (29, 195, 235) and traced 3 on {0, 1, 2}
    n = 30
    sample = sample_levels(n, 2, Fraction(1, 2), 3, collect=True)
    full = materialize(sample)
    rng = random.Random(4)
    batches = [[[0, 1, 2]], [rng.sample(range(n), 6) for _ in range(100)]]
    for r1, r2 in [([0], [1]), (range(0, n, 4), [1, 4, 9, 29]), (range(12), range(8, n))]:
        chained = sample.remove_vertices(r1).remove_vertices(r2)
        once = sample.remove_vertices({*r1, *r2})
        gone = mask_of({*r1, *r2})
        cx = SimplicialComplex(n, [f for f in full.faces if not f & gone])
        assert materialize(chained) == materialize(once) == cx
        assert chained.counts_by_dim() == once.counts_by_dim()
        for rows in batches:
            traces = chained.trace_count(rows).tolist()
            assert traces == once.trace_count(rows).tolist()
            assert traces == [1 + span_count(cx, ys) for ys in rows]
    assert sample.remove_vertices([0]).remove_vertices([1]).counts_by_dim() == (28, 195, 235)
    assert cx == SimplicialComplex(n, [])  # the last pair removes every vertex


def test_pruned_sample_materializes_to_the_pruned_complex(monkeypatch):
    # every scan-mode trial of growth --s 5 --m 6 --n 20,24 and of the probe
    # at n = 16, with the CLI's defaults: growth's scans remove nothing, the
    # probe's remove every vertex, and an emptied instance reports the one
    # empty trace; the sample's own prune is the complex's
    sample_pruned = randgen._sample_pruned
    removed = []

    def checked(job, prune):
        sample, res = sample_pruned(job, prune)
        if res is not None:
            p = job.params
            full = sample_levels(p.n, p.t, Fraction(job.threshold, 1 << 53), job.seed, collect=True)
            want = prune_bad_msets(materialize(full), p.m, p.z)
            assert materialize(sample) == want.complex
            assert dataclasses.replace(res, complex=want.complex) == want
            removed.append(len(res.removed_vertices))
        return sample, res

    monkeypatch.setattr(randgen, "_sample_pruned", checked)
    growth_experiment(5, 6, (20, 24), 5, DEFAULT_SEED)
    probe = bondy_hajnal_probe(2, 13, (16,), 3, DEFAULT_SEED)
    assert removed == [0] * 10 + [16] * 3
    assert [(i.faces_by_dim, i.max_trace_seen) for i in probe.instances] == [((0, 0, 0), 1)] * 3


def exact_f(faces, vertices, m, span=None):
    """f(m) from the largest span, scanned when not given; None past the limit."""
    try:
        span = scan.span_max(faces, m, DEFAULT_SUBSET_LIMIT) if span is None else span
    except ResourceLimitError:
        return None
    return scan.shatter_from_span(vertices, m, span)


def assert_sample_prune(n, t, p, seed, m, z):
    """The sample's own prune against prune_bad_msets on its complex: the
    same removed vertices, bad sets, subsets scanned, shortcut, span_max,
    pruned complex and exact f(m), or the same error.  Returns the cases it
    covers."""
    sample = sample_levels(n, t, p, seed, collect=True)
    cx = materialize(sample)
    try:
        want = prune_bad_msets(cx, m, z)
    except (InvalidArgumentError, ResourceLimitError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            sample.prune(m, z, DEFAULT_SUBSET_LIMIT)
        return {type(exc).__name__}
    pruned, got = sample.prune(m, z, DEFAULT_SUBSET_LIMIT)
    assert got.complex is None and dataclasses.replace(got, complex=want.complex) == want
    assert materialize(pruned) == want.complex
    vertices = len(want.complex.faces_of_dim(0))
    assert exact_f(pruned.faces(), pruned.counts_by_dim()[0], m, got.span_max) == exact_f(
        scan.face_labels(want.complex), vertices, m
    )
    cases = {"shortcut" if got.shortcut else "removal" if got.removed_vertices else "kept"}
    if got.removed_vertices and pruned.tri_count:
        cases.add("triangles left after removal")
    if min(m, len(scan.active_vertices(cx))) < 2:
        cases.add("k < 2")
    return cases


def test_sample_prune_matches_the_complex_prune():
    # a sweep of t, n <= 32, p, m and z, with the cases named
    rng = random.Random(26)
    seen = set()
    cases = [(24, 2, Fraction(1, 3), 0, 6, 16), (24, 1, Fraction(1, 2), 0, 8, 24),
             (10, 2, Fraction(0), 1, 3, 1), (5, 1, Fraction(1, 2), 2, 1, 2)]
    for _ in range(60):
        t, n = rng.choice((1, 2)), rng.randint(1, 32)
        m = rng.randint(1, min(n + 1, 8))
        ceiling = max_possible_dim_ge1_span(m, t)
        z = Fraction(rng.randint(4, 4 * ceiling + 8), 4)
        cases.append((n, t, Fraction(rng.randint(0, 10), 10), rng.randrange(1 << 30), m, z))
    for case in cases:
        seen |= assert_sample_prune(*case)
    assert {"shortcut", "removal", "kept", "triangles left after removal", "k < 2"} <= seen


def test_scan_mode_never_materializes(monkeypatch):
    # growth at s = 5, m = 6 keeps every vertex, at s = 4, m = 7 removes
    # some and scans again, and the probe at n = 16 removes every vertex:
    # all from the sample's arrays, with no face set
    def refuse(*args, **kwargs):
        raise AssertionError("a scan-mode trial built a complex")

    monkeypatch.setattr(randgen, "materialize", refuse)
    monkeypatch.setattr(randgen, "SimplicialComplex", refuse)
    monkeypatch.setattr(randgen, "PROBE_SUBSET_SAMPLES", 50)
    reports = growth_experiment(5, 6, (20,), 2, DEFAULT_SEED).reports
    reports += growth_experiment(4, 7, (16,), 3, DEFAULT_SEED).reports
    assert [r.pruning for r in reports] == ["scan"] * 5
    assert [r.vertices_removed for r in reports] == [0, 0, 8, 10, 0]
    probe = bondy_hajnal_probe(2, 13, (16,), 2, DEFAULT_SEED)
    assert [(i.pruning, sum(i.faces_by_dim)) for i in probe.instances] == [("scan", 0)] * 2


def test_pruned_sample_answers_queries_like_the_pruned_complex():
    # the probe's scan mode: prune the materialized sample, then query the
    # sample without the removed vertices; here the prune removes 6 of 24
    # vertices and triangles survive, and the unpruned sample is unchanged
    n, m, z = 24, 6, 16
    sample = sample_levels(n, 2, Fraction(1, 3), 0, collect=True)
    res = prune_bad_msets(materialize(sample), m, z)
    assert 0 < len(res.removed_vertices) < n
    before = sample.counts_by_dim(), materialize(sample)
    sample, original = sample.remove_vertices(res.removed_vertices), sample
    assert (original.counts_by_dim(), materialize(original)) == before
    assert original.present.all()
    assert sample.tri_count > 0
    assert sample.counts_by_dim() == tuple(
        len(res.complex.faces_of_dim(d)) for d in range(3)
    )
    rng = random.Random(5)
    subsets = [rng.sample(range(n), m) for _ in range(300)]
    subsets += list(randgen._probe_spot_sets(sample, m).values())
    traces = sample.trace_count(subsets)
    for ys, trace in zip(subsets, traces.tolist()):
        assert trace == 1 + span_count(res.complex, ys), ys


@pytest.mark.parametrize(
    "t, z", [(1, None), (1, 24), (2, None), (2, 44)], ids=["t1", "t1-pruned", "t2", "t2-pruned"]
)
def test_trace_count_across_blocks_and_chunks(monkeypatch, t, z):
    # blocks of two 8-vertex rows, and chunks of 23 candidate edges; at
    # p = 1/2 a block holds about 28 edges, so blocks take several chunks.
    # Pruning at z = 24 (t = 1) and 44 (t = 2) removes 9 and 8 of 24 vertices.
    n, m = 24, 8
    monkeypatch.setattr(_bits, "BLOCK_CELLS", 3 * m * m - 1)
    hashed = []

    def counted(key, ranks, threshold):
        hashed.append(len(ranks))
        return rank_u53_np(key, ranks, threshold)

    monkeypatch.setattr(_keyed, "rank_u53_np", counted)
    sample = sample_levels(n, t, Fraction(1, 2), 0, collect=True)
    cx = materialize(sample)
    if z is not None:
        res = prune_bad_msets(cx, m, z)
        assert 0 < len(res.removed_vertices) < n - m
        sample = sample.remove_vertices(res.removed_vertices)
        cx = res.complex
    rng = random.Random(3)
    rows = [rng.sample(range(n), m) for _ in range(41)]
    traces = sample.trace_count(rows).tolist()
    assert traces == [1 + span_count(cx, ys) for ys in rows]
    # 41 rows make 21 blocks; t = 2 hashes once per chunk, t = 1 never
    assert len(hashed) > 21 if t == 2 else hashed == []


def test_trace_count_memory_is_bounded():
    # an unblocked batch of all C(120, 3) triples of 50 rows would take
    # hundreds of MB; tracemalloc sees numpy's buffers
    sample = sample_levels(256, 2, Fraction(1, 3), 0)
    rng = random.Random(1)
    rows = np.array([rng.sample(range(256), 120) for _ in range(50)])
    sample.upper
    tracemalloc.start()
    try:
        traces = sample.trace_count(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert traces.shape == (50,) and traces.min() > 1 + 120


def test_probe_exponent_is_nan_when_pruning_empties_every_instance(monkeypatch):
    # at n = 16 and 18 scan-mode pruning removes every face of all four
    # instances; the log-log fit is undefined and must not take log(0)
    monkeypatch.setattr(randgen, "PROBE_SUBSET_SAMPLES", 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probe = bondy_hajnal_probe(2, 13, (16, 18), 2, 7)
    assert [sum(i.faces_by_dim) for i in probe.instances] == [0, 0, 0, 0]
    assert math.isnan(probe.exponent)
    assert probe.exceeds_k is False


def test_probe_rejects_small_m():
    # m = 11: 6*11 + 5 = 71 > g_2(11) = 67, so the premise cannot be posed
    with pytest.raises(InvalidArgumentError):
        bondy_hajnal_probe(2, 11, (64,), 1, 0)
