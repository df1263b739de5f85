"""Counter-based pseudorandomness keyed by (seed, level, subset rank).

Face decisions depend only on the key, never on draw order, so sampling is
reproducible under any evaluation order or parallel schedule.  A face is
accepted when rank_u53, the 53-bit output of the splitmix64 finalizer over a
mixed key, is below an integer threshold floor(p * 2^53), so no floating
point enters the decision.  rank_u53 is the oracle; rank_u53_np makes the
same decisions for an array or a range of ranks and returns the accepted
positions, hashing a long range on several threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from shatterlab import _bits, _pool
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


def rank_u53_np(key: int, ranks, threshold: int) -> np.ndarray:
    """Ascending positions i with rank_u53(key, ranks[i]) < threshold.

    ranks is an int64 array, which is never written (it is viewed as uint64:
    the hash reads ranks mod 2^64) and is hashed in one go, or a range of
    step 1 and any length, which is hashed in _bits.blocks of consecutive
    ranks on the threads of _pool.block_map.  A block's products
    rank * salt are one add, its first rank * salt plus a cached read-only
    table of i * salt one block long.  The hash runs in place on one uint64
    array with one scratch array, up to its last xor-shift, z ^ (z >> 31),
    which keeps z's bits 33..63: only the few z whose top bits can still
    fall under the threshold take that step and the exact compare.  A range
    that fits one block is hashed on the calling thread in one such pair.
    A longer range allocates one pair per thread, and each thread hashes
    all its blocks in its pair, keeps their positions as int32 where the
    range allows, and frees the pairs before it joins them at that dtype.
    Thresholds 0 and 2^53 need no hash.
    """
    if threshold <= 0:
        return np.zeros(0, dtype=np.intp)
    if threshold >= 1 << 53:
        return np.arange(len(ranks))
    if not isinstance(ranks, range):
        z = np.multiply(ranks.view(np.uint64), _RANK_SALT)
        return _accepted(z, np.empty_like(z), key, threshold)
    if ranks.step != 1:
        raise ValueError("rank_u53_np takes ranges of step 1")
    table = _salt_table(_bits.BLOCK_CELLS)
    if len(ranks) <= len(table):
        z = np.add(table[: len(ranks)], (ranks.start * _RANK_SALT) & _M64)
        return _accepted(z, np.empty_like(z), key, threshold)
    spans = list(_bits.blocks(len(ranks), 1))
    threads = _pool.block_threads(len(spans))
    buffers = np.empty((threads, 2, len(table)), dtype=np.uint64)
    narrow = np.int32 if len(ranks) <= 1 << 31 else np.intp

    def block(slot, lo, hi):
        z, tmp = buffers[slot, :, : hi - lo]
        np.add(table[: hi - lo], ((ranks.start + lo) * _RANK_SALT) & _M64, out=z)
        hit = _accepted(z, tmp, key, threshold).astype(narrow)
        hit += lo
        return hit

    hits = _pool.block_map(block, spans, threads)
    del buffers
    return np.concatenate(hits)


@lru_cache(maxsize=1)
def _salt_table(cells: int) -> np.ndarray:
    """i * _RANK_SALT mod 2^64 for i < cells, read-only."""
    table = np.arange(cells, dtype=np.uint64) * _RANK_SALT
    table.flags.writeable = False
    return table


def _accepted(z: np.ndarray, tmp: np.ndarray, key: int, threshold: int) -> np.ndarray:
    """Positions whose hash of z = rank * salt (overwritten) is under
    threshold, for 0 < threshold < 2^53; tmp is scratch of z's shape."""
    z ^= key
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= 0xBF58476D1CE4E5B9
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= 0x94D049BB133111EB
    # mix >> 11 < threshold means mix < limit, and mix's bits 33..63 are z's:
    # so z >> 33 <= (limit - 1) >> 33, i.e. z <= (limit - 1) | (2^33 - 1)
    limit = threshold << 11
    cand = (z <= (limit - 1) | ((1 << 33) - 1)).nonzero()[0]
    mix = z[cand]
    mix ^= mix >> 31
    return cand[mix < limit]


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
