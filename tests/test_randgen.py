import math
import random
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from shatterlab import randgen, scan
from shatterlab._bits import bits, mask_of
from shatterlab._keyed import (
    inverse_power_threshold,
    level_key,
    probability_threshold,
    rank_u53,
    rank_u53_np,
)
from shatterlab.complexes import SimplicialComplex
from shatterlab.errors import InvalidArgumentError, ResourceLimitError
from shatterlab.randgen import (
    _EDGE_CHUNK,
    REPORT_CSV_HEADER,
    bondy_hajnal_probe,
    default_skeleton_p,
    expected_top_faces,
    growth_experiment,
    materialize,
    max_possible_dim_ge1_span,
    prune_bad_msets,
    sample_complex,
    sample_levels,
    sample_skeleton_complex,
    _triangle_pass,
)


def test_keyed_hash_scalar_vector_agree():
    key = level_key(987654321, 2)
    ranks = np.arange(50_000, dtype=np.uint64)
    vec = rank_u53_np(key, ranks)
    for r in range(0, 50_000, 1237):
        assert int(vec[r]) == rank_u53(key, r)


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
        cx._validate()


def test_fast_sampler_matches_reference():
    for n, t, p, seed in [(40, 1, Fraction(1, 5), 7), (36, 2, Fraction(3, 10), 99),
                          (20, 2, Fraction(9, 10), 3), (15, 1, 1, 4), (15, 1, 0, 4)]:
        ref = sample_complex(n, t, p, seed)
        fast = materialize(sample_levels(n, t, p, seed, collect=True))
        assert ref == fast


def test_fast_sampler_matches_reference_across_edge_chunks():
    # two edge chunks, and n % 8 != 0 leaves a padding byte in each packed row
    sample = sample_levels(123, 2, Fraction(3, 5), 4, collect=True)
    assert sample.edge_count > _EDGE_CHUNK
    assert materialize(sample) == sample_complex(123, 2, Fraction(3, 5), 4)


def test_triangle_candidates_match_trace_of_cube():
    # threshold 2^53 accepts every candidate, so the pass counts the graph's
    # triangles: trace(A^3)/6, exact in float64 at this size
    sample = sample_levels(1001, 1, Fraction(1, 5), 6)
    count, tris = _triangle_pass(sample, 1 << 53, collect=False)
    adj = sample.adjacency().astype(np.float64)
    assert tris is None
    assert count == int(np.trace(adj @ adj @ adj)) // 6 > 0


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
    assert abs(mean - expected_top_faces(n, 1, p)) <= 5 * sigma_mean


def test_expected_top_faces_values():
    assert expected_top_faces(10, 1, 0.5) == math.comb(10, 2) * 0.5
    assert expected_top_faces(10, 2, 1) == math.comb(10, 3)
    assert expected_top_faces(100, 2, 0.1) == pytest.approx(math.comb(100, 3) * 1e-4)


def test_max_possible_span_ceiling():
    assert max_possible_dim_ge1_span(4, 1) == 6
    assert max_possible_dim_ge1_span(4, 2) == 10
    assert max_possible_dim_ge1_span(13, 2) == math.comb(13, 2) + math.comb(13, 3)
    assert max_possible_dim_ge1_span(3, 0) == 0


def test_prune_identity_on_flat_complex():
    cx = SimplicialComplex(6, [1 << v for v in range(6)], validate=False)
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
    cx = sample_complex(40, 1, Fraction(1, 2), 0)
    with pytest.raises(ResourceLimitError):
        prune_bad_msets(cx, 6, 2, limit=1000)


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


def test_skeleton_p0_is_complete_skeleton():
    cx = sample_skeleton_complex(15, 2, 5, 0, 1)
    assert len(cx.faces_of_dim(0)) == 15
    assert len(cx.faces_of_dim(1)) == math.comb(15, 2)
    assert not cx.faces_of_dim(2)
    assert scan.exact_shatter_value(cx, 5) == 1 + 5 + math.comb(5, 2)


def test_skeleton_deletion_guarantee():
    n, d, m = 26, 2, 6
    cx = sample_skeleton_complex(n, d, m, default_skeleton_p(n), 11)
    tris = cx.faces_of_dim(2)
    # exhaustive oracle over all m-sets: at most m - d survivors inside any
    for ys in combinations(range(n), m):
        ymask = mask_of(ys)
        inside = sum(1 for t in tris if t & ~ymask == 0)
        assert inside <= m - d
    f_m = scan.exact_shatter_value(cx, m)
    assert f_m <= sum(math.comb(m, i) for i in range(d + 1)) + m - d


def test_skeleton_determinism():
    p = default_skeleton_p(20)
    assert sample_skeleton_complex(20, 2, 5, p, 3) == sample_skeleton_complex(20, 2, 5, p, 3)


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


def test_growth_rejects_bad_s():
    with pytest.raises(InvalidArgumentError):
        growth_experiment(Fraction(3, 2), 4, (64,), 1, 0)


def test_probe_small_scale():
    probe = bondy_hajnal_probe(2, 13, (256, 512), 2, 7, subset_samples=100)
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
    probe = bondy_hajnal_probe(2, 12, (16,), 3, 7, subset_samples=50, epsilon=Fraction(1, 100))
    assert len(calls) == len(probe.instances) == 3
    assert probe.csv_lines() == [
        "seed,n,faces_total,max_trace,gk_m,premise_ok,pruning,subsets_checked",
        "10376855888541733689,16,0,13,79,1,scan,51",
        "15656339630444168560,16,5,13,79,1,scan,51",
        "12886109454472513690,16,0,13,79,1,scan,51",
    ]
    assert [i.spot_traces for i in probe.instances] == [
        {"top_degree": 1}, {"top_degree": 6}, {"top_degree": 1}
    ]
    # faces left after pruning agree with the reference sampler
    z = (probe.s - 1) * (probe.m + 1)
    for inst, (n, t, p, seed) in zip(probe.instances, calls):
        pruned = prune_bad_msets(sample_complex(n, t, p, seed), probe.m, z).complex
        assert inst.faces_by_dim == tuple(len(pruned.faces_of_dim(d)) for d in range(3))


def test_probe_exponent_is_nan_when_pruning_empties_every_instance():
    # at n = 16 and 18 scan-mode pruning removes every face of all four
    # instances; the log-log fit is undefined and must not take log(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probe = bondy_hajnal_probe(2, 13, (16, 18), 2, 7, subset_samples=50)
    assert [sum(i.faces_by_dim) for i in probe.instances] == [0, 0, 0, 0]
    assert math.isnan(probe.exponent)
    assert probe.exceeds_k is False


def test_probe_rejects_small_m():
    # m = 11: 6*11 + 5 = 71 > g_2(11) = 67, so the premise cannot be posed
    with pytest.raises(InvalidArgumentError):
        bondy_hajnal_probe(2, 11, (64,), 1, 0)
