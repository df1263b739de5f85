"""Counter-based pseudorandomness keyed by (seed, level, subset rank).

Face decisions depend only on the key, never on draw order, so sampling is
reproducible under any evaluation order or parallel schedule.  The scalar
and numpy paths implement the identical function (splitmix64 finalizer over
a mixed key) and acceptance of a face compares the 53-bit output against an
integer threshold floor(p * 2^53), so no floating point enters the decision.
rank_u53_np works in place on one copy of its ranks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from shatterlab.errors import InvalidArgumentError

GENERATOR_ID = "splitmix64-colex-v1"

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_RANK_SALT = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z


def level_key(seed: int, level: int) -> int:
    return mix64(mix64(seed & _M64) ^ ((_GOLDEN * level) & _M64))


def rank_u53(key: int, rank: int) -> int:
    """53-bit output for one subset rank under a level key."""
    return mix64(key ^ ((rank * _RANK_SALT) & _M64)) >> 11


def rank_u53_np(key: int, ranks: np.ndarray) -> np.ndarray:
    """Vectorized rank_u53; bit-identical to the scalar path.

    Steps run in place on one uint64 copy of ranks, with one scratch array
    for the shifts; the caller's array is never written.
    """
    z = ranks.astype(np.uint64)
    tmp = np.empty_like(z)
    z *= np.uint64(_RANK_SALT)
    z ^= np.uint64(key)
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    z >>= np.uint64(11)
    return z


def probability_threshold(p) -> int:
    """floor(p * 2^53) as an exact integer; p may be Fraction, float, or int."""
    frac = Fraction(p)
    if frac < 0 or frac > 1:
        raise InvalidArgumentError(f"probability {p!r} outside [0, 1]")
    return (frac.numerator << 53) // frac.denominator


def inverse_power_threshold(n: int, exponent: Fraction) -> int:
    """floor(2^53 * n^(-exponent)) computed exactly for rational exponent > 0.

    Used for p = n^(-1/(s-1)): the threshold is the largest T with
    T^a * n^b <= 2^(53 a) where exponent = b/a, found by integer search so
    the sampled complex is identical on every platform.
    """
    b, a = exponent.numerator, exponent.denominator
    if n < 1 or b <= 0 or a <= 0:
        raise InvalidArgumentError("need n >= 1 and a positive exponent")
    target = 1 << (53 * a)
    nb = n**b
    t = int(2.0**53 * float(n) ** (-float(exponent))) + 1
    while (t + 1) ** a * nb <= target:
        t += 1
    while t > 0 and t**a * nb > target:
        t -= 1
    return t


def derive_seed(master: int, *parts: int) -> int:
    """Deterministic per-task seed from a master seed and task indices."""
    out = mix64(master & _M64)
    for p in parts:
        out = mix64(out ^ ((p * _GOLDEN) & _M64))
    return out
