"""Bitmask helpers for sets of small non-negative integers.

A set of vertices is a Python int with bit v set for vertex v.  Ints are
arbitrary precision, so these work for any ground-set size; the 64-bit
limit of the exact set-system core is enforced by callers that need it.

For small ground sets a whole family fits in a numpy array indexed by mask:
zeta_transform turns an indicator row into subset sums (entry Y counts the
members inside Y), and popcount_groups lists the masks of each size, so a
maximum over all m-subsets is one gather.  Both cover n <= ZETA_MAX_N, so a
row holds at most 2^20 entries.  blocks is the one block policy of every
chunked numpy layer.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

# largest ground set for the subset-sum transform: rows of 2^20 entries
ZETA_MAX_N = 20
# cells per block of a chunked layer (512 KB of uint64, 256 KB of int32)
BLOCK_CELLS = 1 << 16


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


def facets_present(family, mask: int) -> bool:
    """True if every one-smaller subset of mask is in family (a set of masks).

    A downward-closed family is one in which this holds for every member.
    """
    rest = mask
    while rest:
        low = rest & -rest
        if mask ^ low not in family:
            return False
        rest ^= low
    return True


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


def blocks(total: int, item_cells: int, budget: int | None = None, *, grow: bool = False):
    """(start, stop) of consecutive runs over range(total) of at most
    max(1, budget // item_cells) items each; budget defaults to BLOCK_CELLS,
    read at each call.

    With grow, the runs start at about budget >> 6 cells (at least one item)
    and grow 4x per run up to that cap, so a caller that may stop early
    draws few items before its first check.
    """
    budget = BLOCK_CELLS if budget is None else budget
    step = max(1, budget // item_cells)
    start = 0
    run = max(1, (budget >> 6) // item_cells) if grow else step
    while run < step and start < total:
        yield start, min(start + run, total)
        start += run
        run *= 4
    for start in range(start, total, step):
        yield start, min(start + step, total)


def zeta_transform(table: np.ndarray) -> np.ndarray:
    """Subset sums along the last axis, in place (Yates' transform).

    table is a C-contiguous integer array of shape (..., 2^n); afterwards
    entry [..., Y] is the sum of the old entries [..., T] over all T within Y.
    The caller picks a dtype wide enough for the sums.  Returns table.
    When rows outnumber columns, the butterflies run on a transposed copy,
    where each step adds runs of 2^v rows instead of 2^v entries per row.
    """
    size = table.shape[-1]
    n = size.bit_length() - 1
    if size != 1 << n or not table.flags.c_contiguous:
        raise ValueError("zeta_transform needs a C-contiguous array with 2^n columns")
    rows = table.reshape(-1, size)
    flip = len(rows) > size
    work = np.ascontiguousarray(rows.T) if flip else rows
    lead, tail = (1, len(rows)) if flip else (len(rows), 1)
    for v in range(n):
        pairs = work.reshape(lead, size >> (v + 1), 2, tail << v)
        pairs[:, :, 1, :] += pairs[:, :, 0, :]
    if flip:
        rows[...] = work.T
    return table


@lru_cache(maxsize=None)
def popcount_groups(n: int) -> tuple[np.ndarray, ...]:
    """Entry j: the masks in 0..2^n-1 with j bits set, ascending, as read-only
    int32 arrays (n <= ZETA_MAX_N)."""
    if not 0 <= n <= ZETA_MAX_N:
        raise ValueError(f"popcount groups need n in 0..{ZETA_MAX_N}")
    count = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    order = np.argsort(count, kind="stable").astype(np.int32)
    order.flags.writeable = False
    ends = np.cumsum(np.bincount(count, minlength=n + 1))
    return tuple(np.split(order, ends[:-1]))
