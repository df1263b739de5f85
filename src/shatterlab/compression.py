"""Compression of a set system into a simplicial complex by down-shifting.

For each element x in increasing label order, every member e containing x is
replaced by e \\ {x} whenever that smaller set is not already a member; full
passes repeat until nothing moves.  The fixed point is downward closed, has
the same cardinality as the input, and its shatter profile never exceeds the
input's (the last property is property-tested, not proved here).
"""

from __future__ import annotations

from shatterlab.setsystem import SetSystem, is_downward_closed  # noqa: F401


def shift_element(members: frozenset[int], x: int) -> frozenset[int]:
    """One down-shift pass for a single element x.

    Members are scanned in ascending bitmask order; the family is updated
    live, which keeps the result deterministic.
    """
    bit = 1 << x
    family = set(members)
    for e in sorted(members):
        if e & bit and e ^ bit not in family:
            family.discard(e)
            family.add(e ^ bit)
    return frozenset(family)


def compress(system: SetSystem) -> SetSystem:
    """Down-shift until fixed point; |result| = |input|, result downward closed."""
    family = frozenset(system.members)
    while True:
        changed = False
        for x in range(system.n):
            shifted = shift_element(family, x)
            if shifted != family:
                family = shifted
                changed = True
        if not changed:
            break
    return SetSystem.from_masks(system.n, family)
