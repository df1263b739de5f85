"""Closed-form bounds: binomial sums, threshold/growth pairs, density exponents.

Everything expressible in integers or rationals is exact.  The only floating
point is in thresholds involving log2(s); those are reported as small outward
intervals so comparisons against them stay honest.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from shatterlab.errors import InvalidArgumentError, ResourceLimitError

# generous per-operation relative error for the float expressions below
_REL_ERR = 2.0**-45


def g_k(n: int, k: int) -> int:
    """1 + n + C(n,2) + ... + C(n,k); equals 2^n once k >= n."""
    if n < 0 or k < 0:
        raise InvalidArgumentError("n and k must be >= 0")
    return sum(math.comb(n, i) for i in range(min(n, k) + 1))


def tk_bounds(m: int, k: int) -> tuple[int, int]:
    """(exclusive lower, inclusive upper) bounds for the largest safe shatter value.

    coefficient 2^(k+1) - k - 1; lower offset -2^(4k); upper offset
    2^(k+1) - k - 2.
    """
    if m < 1 or k < 1:
        raise InvalidArgumentError("m and k must be >= 1")
    coeff = (1 << (k + 1)) - k - 1
    return coeff * m - (1 << (4 * k)), coeff * m + (1 << (k + 1)) - k - 2


def cheong_lower(m: int, k: int) -> int:
    """Earlier lower bound 2^k m - (k-1) 2^k - 1 from the inductive argument."""
    if m < 1 or k < 1:
        raise InvalidArgumentError("m and k must be >= 1")
    return (1 << k) * m - (k - 1) * (1 << k) - 1


def floor_log2(s: Fraction) -> int:
    """Exact floor(log2 s) for rational s > 0."""
    if s <= 0:
        raise InvalidArgumentError("s must be positive")
    t = 0
    while Fraction(2) ** (t + 1) <= s:
        t += 1
    while Fraction(2) ** t > s:
        t -= 1
    return t


def sd_td(s: Fraction, d: int) -> tuple[Fraction, Fraction]:
    """(t_d, s_d) with t_d = (s - 2^d)/(s - 1) and s_d = 1 + t_1 + ... + t_d."""
    s = Fraction(s)
    if s < 2:
        raise InvalidArgumentError("s must be >= 2")
    if d < 0 or d > floor_log2(s):
        raise InvalidArgumentError("d must satisfy 0 <= d <= floor(log2 s)")
    t_d = (s - (1 << d)) / (s - 1)
    s_d = 1 + sum((s - (1 << i)) / (s - 1) for i in range(1, d + 1))
    return t_d, s_d


def growth_exponent(s: Fraction) -> Fraction:
    """s_t = t + 1 - (2^(t+1) - t - 2)/(s - 1) at t = floor(log2 s)."""
    s = Fraction(s)
    if s < 2:
        raise InvalidArgumentError("s must be >= 2")
    t = floor_log2(s)
    return t + 1 - Fraction((1 << (t + 1)) - t - 2, 1) / (s - 1)


@dataclass(frozen=True)
class Interval:
    """An outward-rounded enclosure of a real value."""

    value: float
    lo: float
    hi: float

    @property
    def vacuous(self) -> bool:
        """Certainly negative: no set system can have so few traces."""
        return self.hi < 0


def _enclose(value: float, ops: int) -> Interval:
    rad = abs(value) * _REL_ERR * ops + 2.0**-100
    return Interval(value, value - rad, value + rad)


@dataclass(frozen=True)
class ThresholdGrowth:
    threshold: Interval
    growth_bound: float
    exponent: Fraction | float


def rational_bound(s: Fraction, m: int, n: int) -> ThresholdGrowth:
    """Threshold sm - 3qs^2 log2(s) and growth bound 2^(t+2) m^(2t+2) n^(s_t)."""
    s = Fraction(s)
    if s < 2:
        raise InvalidArgumentError("s must be >= 2")
    if m < 1 or n < m:
        raise InvalidArgumentError("need n >= m >= 1")
    q = s.denominator
    t = floor_log2(s)
    sf = float(s)
    threshold = _enclose(sf * m - 3 * q * sf * sf * math.log2(sf), 8)
    s_t = growth_exponent(s)
    growth = float(2 ** (t + 2)) * float(m) ** (2 * t + 2) * float(n) ** float(s_t)
    return ThresholdGrowth(threshold, growth, s_t)


def irrational_bound(s: float, m: int, n: int) -> ThresholdGrowth:
    """Threshold sm - 10 sqrt(m) s sqrt(log2 s) and growth 3 m^(2t) n^(s_t)."""
    if s < 2:
        raise InvalidArgumentError("s must be >= 2")
    if m < s**3:
        raise InvalidArgumentError(f"m must be at least s^3 = {s**3}")
    if n < m:
        raise InvalidArgumentError("need n >= m")
    t = math.floor(math.log2(s))
    threshold = _enclose(s * m - 10.0 * math.sqrt(m) * s * math.sqrt(math.log2(s)), 10)
    s_t = t + 1 - (2 ** (t + 1) - t - 2) / (s - 1)
    growth = 3.0 * float(m) ** (2 * t) * float(n) ** s_t
    return ThresholdGrowth(threshold, growth, s_t)


# ---------------------------------------------------------------------------
# query dispatch for the CLI
# ---------------------------------------------------------------------------

# Largest value of a query parameter that sets the work or the size of an
# exact answer: the terms of g_k, the 4k-bit shift of tk_lower, the k parts
# of easy_upper_hint, the digits of s_d.  It keeps every such answer under
# 1,300 digits, far below the 4,300 that int-to-str allows; a larger value
# exits 3 before any work.  Float answers are bounded by the float range.
QUERY_PARAM_MAX = 1000


@dataclass(frozen=True)
class QueryKind:
    params: tuple[tuple[str, type], ...]  # (name, int or Fraction), in call order
    capped: tuple[str, ...]  # held to QUERY_PARAM_MAX (a rational in both parts)
    evaluate: Callable[..., dict]


def _threshold(res: ThresholdGrowth) -> dict:
    t = res.threshold
    return {"value": t.value, "interval": [t.lo, t.hi], "vacuous": t.vacuous}


def _growth(res: ThresholdGrowth) -> dict:
    return {"value": res.growth_bound, "exponent": res.exponent}


def _easy_upper_hint(n: int, k: int) -> dict:
    # No explicit constant exists for the O(m^k / k^k) direction; point at
    # the k-partite witness family instead of inventing a number.
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    return {
        "value": math.prod(sizes),
        "note": "number of transversal k-sets of a balanced k-partition; build the "
        "witness family with `search kpartite`",
    }


_MK = (("m", int), ("k", int))
_NK = (("n", int), ("k", int))
_SMN = (("s", Fraction), ("m", int), ("n", int))
_SD = (("s", Fraction), ("d", int))

QUERIES = {
    "g_k": QueryKind(_NK, ("n", "k"), lambda n, k: {"value": g_k(n, k)}),
    "tk_lower": QueryKind(_MK, ("m", "k"), lambda m, k: {"value": tk_bounds(m, k)[0]}),
    "tk_upper": QueryKind(_MK, ("m", "k"), lambda m, k: {"value": tk_bounds(m, k)[1]}),
    "rational_threshold": QueryKind(
        _SMN, (), lambda s, m, n: _threshold(rational_bound(s, m, n))
    ),
    "rational_growth": QueryKind(_SMN, (), lambda s, m, n: _growth(rational_bound(s, m, n))),
    "irrational_threshold": QueryKind(
        _SMN, (), lambda s, m, n: _threshold(irrational_bound(float(s), m, n))
    ),
    "irrational_growth": QueryKind(
        _SMN, (), lambda s, m, n: _growth(irrational_bound(float(s), m, n))
    ),
    "cheong_lower": QueryKind(_MK, ("m", "k"), lambda m, k: {"value": cheong_lower(m, k)}),
    "easy_upper_hint": QueryKind(_NK, ("n", "k"), _easy_upper_hint),
    "s_d": QueryKind(_SD, ("s",), lambda s, d: {"value": str(sd_td(s, d)[1])}),
    "t_d": QueryKind(_SD, ("s",), lambda s, d: {"value": str(sd_td(s, d)[0])}),
}
QUERY_KINDS = tuple(QUERIES)


def eval_query(kind: str, params: dict) -> dict:
    """Evaluate one named bound; params map names to ints or Fractions.

    InvalidArgumentError for an unknown kind or a missing or non-integer
    parameter; ResourceLimitError for a capped parameter over
    QUERY_PARAM_MAX or an answer outside the float range.
    """
    if kind not in QUERIES:
        raise InvalidArgumentError(f"unknown bound kind {kind!r}; choose from {QUERY_KINDS}")
    query = QUERIES[kind]
    missing = [name for name, _ in query.params if name not in params]
    if missing:
        raise InvalidArgumentError(f"kind {kind} requires parameters {missing}")
    args = []
    for name, wanted in query.params:
        value = params[name]
        if wanted is int and not isinstance(value, int):
            raise InvalidArgumentError(f"parameter {name} must be an integer, got {value}")
        args.append(wanted(value))
    for (name, _), value in zip(query.params, args):
        # an int is its own numerator; a rational is held in both parts
        if name in query.capped and max(value.numerator, value.denominator) > QUERY_PARAM_MAX:
            raise ResourceLimitError(f"parameter {name} is over the query cap {QUERY_PARAM_MAX}")
    try:
        return {"kind": kind, **query.evaluate(*args)}
    except OverflowError as exc:
        raise ResourceLimitError(f"kind {kind} leaves the float range: {exc}") from exc
