from fractions import Fraction

import pytest

from shatterlab.bounds import (
    QUERY_PARAM_MAX,
    cheong_lower,
    eval_query,
    floor_log2,
    g_k,
    growth_exponent,
    irrational_bound,
    rational_bound,
    sd_td,
    tk_bounds,
)
from shatterlab.errors import InvalidArgumentError, ResourceLimitError


def test_g_k_values():
    assert g_k(4, 2) == 11
    assert g_k(13, 2) == 92
    assert all(g_k(n, 0) == 1 for n in range(10))
    assert g_k(6, 6) == 64 and g_k(6, 9) == 64  # 2^n once k >= n


def test_g_k_pascal():
    for n in range(1, 65):
        for k in range(1, 65):
            assert g_k(n, k) == g_k(n - 1, k) + g_k(n - 1, k - 1)


def test_tk_bounds_instances():
    assert tk_bounds(7, 1) == (2 * 7 - 16, 2 * 7 + 1)
    assert tk_bounds(100, 2) == (5 * 100 - 256, 5 * 100 + 4)


def test_tk_lower_always_below_upper():
    for k in range(1, 7):
        for m in range(1, 10_001):
            lo, hi = tk_bounds(m, k)
            assert lo < hi


def test_floor_log2_exact():
    assert floor_log2(Fraction(2)) == 1
    assert floor_log2(Fraction(3)) == 1
    assert floor_log2(Fraction(4)) == 2
    assert floor_log2(Fraction(7, 2)) == 1
    assert floor_log2(Fraction(8, 1)) == 3
    assert floor_log2(Fraction(2**40 - 1, 1)) == 39
    assert floor_log2(Fraction(1, 2)) == -1


def test_sd_td_values():
    t2, s2 = sd_td(Fraction(5), 2)
    assert t2 == Fraction(1, 4) and s2 == 2
    with pytest.raises(InvalidArgumentError):
        sd_td(Fraction(5), 3)  # d > floor(log2 5)
    with pytest.raises(InvalidArgumentError):
        sd_td(Fraction(3, 2), 0)


def test_sd_telescoping_identity():
    grid = sorted(
        {Fraction(a, b) for a in range(4, 40) for b in (1, 2, 3, 4) if Fraction(a, b) >= 2}
    )
    for s in grid:
        for d in range(0, floor_log2(s) + 1):
            _, s_d = sd_td(s, d)
            assert s_d == d + 1 - Fraction((1 << (d + 1)) - d - 2) / (s - 1)


def test_growth_exponent_instances():
    assert growth_exponent(Fraction(2)) == 1
    assert growth_exponent(Fraction(3)) == Fraction(3, 2)
    assert growth_exponent(Fraction(7, 2)) == Fraction(8, 5)
    assert growth_exponent(Fraction(6)) == Fraction(11, 5)


def test_growth_exponent_monotone_within_level():
    # strictly increasing in s while floor(log2 s) stays fixed
    for t in (1, 2):
        grid = [Fraction(2**t) + Fraction(k, 7) for k in range(0, 7 * (2**t))]
        grid = [s for s in grid if floor_log2(s) == t]
        vals = [growth_exponent(s) for s in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_exponent_exceeds_t_minus_1():
    for s in (Fraction(2), Fraction(5, 2), Fraction(4), Fraction(11), Fraction(64)):
        t = floor_log2(s)
        assert growth_exponent(s) > t - 1


def test_rational_bound_instances():
    res = rational_bound(Fraction(2), 10, 100)
    assert abs(res.threshold.value - (2 * 10 - 12)) < 1e-9
    assert res.exponent == 1
    res3 = rational_bound(Fraction(3), 10, 100)
    assert res3.exponent == Fraction(3, 2)
    res72 = rational_bound(Fraction(7, 2), 10, 100)
    assert res72.exponent == Fraction(8, 5)
    with pytest.raises(InvalidArgumentError):
        rational_bound(Fraction(3, 2), 5, 10)


def test_irrational_bound_vacuous_flag():
    res = irrational_bound(2.0, 16, 100)
    assert abs(res.threshold.value + 48.0) < 1e-9
    assert res.threshold.vacuous


def test_irrational_bound_precondition():
    with pytest.raises(InvalidArgumentError):
        irrational_bound(3.0, 26, 100)  # m < 27 = s^3


def test_cheong_instances():
    # 2^k m - (k-1) 2^k - 1: the k=2 instance is 4m - 5
    assert cheong_lower(5, 1) == 2 * 5 - 1
    assert cheong_lower(5, 2) == 4 * 5 - 5
    assert cheong_lower(5, 3) == 8 * 5 - 17


def test_crossover_versus_cheong():
    # the newer exclusive lower bound eventually beats the inductive one
    # (except k=1, where both coefficients are 2 and the offsets never cross)
    for m in (1, 10, 10**6):
        lo, _ = tk_bounds(m, 1)
        assert lo <= cheong_lower(m, 1)
    for k in range(2, 7):
        coeff_gap = (1 << (k + 1)) - k - 1 - (1 << k)
        offset = (1 << (4 * k)) - (k - 1) * (1 << k) - 1
        crossover = offset // coeff_gap + 1
        lo, _ = tk_bounds(crossover, k)
        assert lo > cheong_lower(crossover, k)
        lo_prev, _ = tk_bounds(crossover - 1, k)
        assert lo_prev <= cheong_lower(crossover - 1, k)


def test_epsilon_expression_dominates_upper_bound():
    # (2^(k+1)-k-1+eps) m + 2^(k+1)-k-2+eps strictly exceeds the upper bound
    for k in range(1, 6):
        for m in (1, 5, 40, 1000):
            _, hi = tk_bounds(m, k)
            for eps in (Fraction(1, 1000), Fraction(1, 7), Fraction(1)):
                coeff = (1 << (k + 1)) - k - 1
                assert (coeff + eps) * m + (1 << (k + 1)) - k - 2 + eps > hi


def test_eval_query_dispatch():
    assert eval_query("g_k", {"n": 13, "k": 2})["value"] == 92
    assert eval_query("tk_upper", {"m": 7, "k": 1})["value"] == 15
    assert eval_query("cheong_lower", {"m": 5, "k": 2})["value"] == 15
    out = eval_query("rational_threshold", {"s": Fraction(2), "m": 10, "n": 20})
    assert out["interval"][0] <= out["value"] <= out["interval"][1]
    out = eval_query("s_d", {"s": Fraction(5), "d": 2})
    assert out["value"] == "2"
    hint = eval_query("easy_upper_hint", {"n": 6, "k": 2})
    assert hint["value"] == 9
    with pytest.raises(InvalidArgumentError):
        eval_query("nope", {})
    with pytest.raises(InvalidArgumentError):
        eval_query("g_k", {"n": 3})


def test_eval_query_checks_types_and_caps_before_any_work():
    with pytest.raises(InvalidArgumentError):
        eval_query("tk_lower", {"m": 3, "k": Fraction(5, 2)})
    with pytest.raises(InvalidArgumentError):
        eval_query("g_k", {"n": Fraction(3, 2), "k": 2})
    for kind, params in [
        ("tk_lower", {"m": 3, "k": 10**12}),
        ("g_k", {"n": 10**9, "k": 10**9}),
        ("easy_upper_hint", {"n": 10**12, "k": 10**12}),
        ("s_d", {"s": Fraction(QUERY_PARAM_MAX + 1), "d": 1}),
        ("t_d", {"s": Fraction(2 * QUERY_PARAM_MAX + 1, QUERY_PARAM_MAX), "d": 1}),
    ]:
        with pytest.raises(ResourceLimitError):
            eval_query(kind, params)
    top = QUERY_PARAM_MAX
    assert eval_query("g_k", {"n": top, "k": top})["value"] == 1 << top
    assert eval_query("tk_lower", {"m": top, "k": top})["value"] == tk_bounds(top, top)[0]


def test_eval_query_float_overflow_is_a_resource_limit():
    with pytest.raises(ResourceLimitError):
        eval_query("rational_growth", {"s": Fraction(1000), "m": 10**100, "n": 10**100})
    with pytest.raises(ResourceLimitError):
        eval_query("irrational_threshold", {"s": Fraction(10**400), "m": 3, "n": 4})
