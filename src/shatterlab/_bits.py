"""Bitmask helpers for sets of small non-negative integers.

A set of vertices is a Python int with bit v set for vertex v.  Ints are
arbitrary precision, so these work for any ground-set size; the 64-bit
limit of the exact set-system core is enforced by callers that need it.
"""

from __future__ import annotations

from collections.abc import Iterable


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> list[int]:
    """Vertices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int):
    """All non-empty submasks of mask, ascending numeric order."""
    sub = mask & -mask if mask else 0
    while sub:
        yield sub
        if sub == mask:
            return
        # standard trick enumerates submasks descending; we want ascending,
        # so step through ((sub - mask) & mask) which increments within mask
        sub = (sub - mask) & mask


def iter_size_subsets(n: int, m: int):
    """All m-subsets of {0..n-1} as masks, in colexicographic order."""
    if m == 0:
        yield 0
        return
    if m > n:
        return
    mask = (1 << m) - 1
    top = 1 << n
    while mask < top:
        yield mask
        # Gosper's hack: the next int with the same popcount
        c = mask & -mask
        r = mask + c
        mask = (((r ^ mask) >> 2) // c) | r
