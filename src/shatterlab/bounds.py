"""Closed-form bounds: binomial sums, threshold/growth pairs, density exponents.

Everything expressible in integers or rationals is exact.  The only floating
point is in thresholds involving log2(s); those are reported as small outward
intervals so comparisons against them stay honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from shatterlab.errors import InvalidArgumentError

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

QUERY_KINDS = (
    "g_k",
    "tk_lower",
    "tk_upper",
    "rational_threshold",
    "rational_growth",
    "irrational_threshold",
    "irrational_growth",
    "cheong_lower",
    "easy_upper_hint",
    "s_d",
    "t_d",
)


def eval_query(kind: str, params: dict) -> dict:
    """Evaluate one named bound; params hold ints under m/n/k/d and rational s."""
    if kind not in QUERY_KINDS:
        raise InvalidArgumentError(f"unknown bound kind {kind!r}; choose from {QUERY_KINDS}")
    out: dict = {"kind": kind}

    def need(*names):
        missing = [x for x in names if x not in params]
        if missing:
            raise InvalidArgumentError(f"kind {kind} requires parameters {missing}")
        return [params[x] for x in names]

    if kind == "g_k":
        n, k = need("n", "k")
        out["value"] = g_k(n, k)
    elif kind in ("tk_lower", "tk_upper"):
        m, k = need("m", "k")
        lo, hi = tk_bounds(m, k)
        out["value"] = lo if kind == "tk_lower" else hi
    elif kind == "cheong_lower":
        m, k = need("m", "k")
        out["value"] = cheong_lower(m, k)
    elif kind in ("rational_threshold", "rational_growth"):
        s, m, n = need("s", "m", "n")
        res = rational_bound(Fraction(s), m, n)
        if kind == "rational_threshold":
            out["value"] = res.threshold.value
            out["interval"] = [res.threshold.lo, res.threshold.hi]
            out["vacuous"] = res.threshold.vacuous
        else:
            out["value"] = res.growth_bound
            out["exponent"] = str(res.exponent)
    elif kind in ("irrational_threshold", "irrational_growth"):
        s, m, n = need("s", "m", "n")
        res = irrational_bound(float(s), m, n)
        if kind == "irrational_threshold":
            out["value"] = res.threshold.value
            out["interval"] = [res.threshold.lo, res.threshold.hi]
            out["vacuous"] = res.threshold.vacuous
        else:
            out["value"] = res.growth_bound
            out["exponent"] = res.exponent
    elif kind in ("s_d", "t_d"):
        s, d = need("s", "d")
        t_d, s_d = sd_td(Fraction(s), d)
        out["value"] = str(s_d if kind == "s_d" else t_d)
    elif kind == "easy_upper_hint":
        # No explicit constant exists for the O(m^k / k^k) direction; point at
        # the k-partite witness family instead of inventing a number.
        n, k = need("n", "k")
        sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
        count = math.prod(sizes)
        out["value"] = count
        out["note"] = (
            "number of transversal k-sets of a balanced k-partition; build the "
            "witness family with `search kpartite`"
        )
    return out
