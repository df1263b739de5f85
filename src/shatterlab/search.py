"""Finite extremal search: maximize |C| under a shatter-value cap.

The exact question behind the asymptotic thresholds, scaled down: over all
downward-closed families on n labelled vertices (empty set included), find
the largest one with f(m) <= b.  A branch-and-bound over facet additions
with canonical-form pruning answers it; an exhaustive enumeration of all
downward-closed families doubles as the oracle for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from shatterlab._bits import submasks
from shatterlab.errors import InvalidArgumentError, ResourceLimitError
from shatterlab.setsystem import SetSystem, shatter_value

ORACLE_MAX_N = 5
BRANCH_MAX_N = 16
CANONICAL_MAX_N = 8


@dataclass(frozen=True)
class ExtremalResult:
    max_size: int
    witness: SetSystem
    nodes_explored: int
    method: str


def _word_bits() -> np.ndarray:
    """Entry [w, i] is 1 << (i % 64) if bit i of a canonical code lies in its
    64-bit word w, else 0, so one gather gives word w of every image."""
    bit = np.arange(1 << CANONICAL_MAX_N)
    table = np.zeros((len(bit) // 64, len(bit)), dtype=np.uint64)
    table[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    return table


_WORD_BITS = _word_bits()


@lru_cache(maxsize=None)
def _perm_tables(n: int) -> np.ndarray:
    """Read-only uint8 array (n!, 2^n): row p maps each mask to its image under
    the p-th permutation of {0..n-1}, in itertools order (10 MB at n = 8)."""
    perms = np.array(list(permutations(range(n))), dtype=np.uint8).reshape(math.factorial(n), n)
    masks = np.arange(1 << n)
    table = np.zeros((len(perms), 1 << n), dtype=np.uint8)
    for v in range(n):
        table |= ((masks >> v) & 1).astype(np.uint8) << perms[:, v, None]
    table.flags.writeable = False
    return table


def canonical_form(n: int, family: frozenset[int]) -> int:
    """Largest bitset code of the family over all vertex permutations (n <= 8).

    The code of a relabelled family has bit `mask` set for each member, so two
    families on n vertices get the same form exactly when they are isomorphic.
    The code is compared 64-bit word by word from the top, keeping only the
    permutations tied so far.
    """
    if not 0 <= n <= CANONICAL_MAX_N:
        raise InvalidArgumentError(f"canonical form needs n in 0..{CANONICAL_MAX_N}")
    images = _perm_tables(n)[:, np.fromiter(family, dtype=np.intp, count=len(family))]
    form = 0
    for word in reversed(range(max(1, (1 << n) // 64))):
        codes = np.bitwise_or.reduce(_WORD_BITS[word][images], axis=1)
        best = codes.max()
        form = form << 64 | int(best)
        if word:
            images = images[codes == best]
    return form


def enumerate_downward_closed(n: int):
    """Every downward-closed family on {0..n-1} containing the empty set.

    Masks are considered in (popcount, value) order; a mask may join only
    when all its one-smaller subsets already did, which enumerates each
    family exactly once.
    """
    if n > ORACLE_MAX_N:
        raise ResourceLimitError(f"exhaustive family enumeration capped at n = {ORACLE_MAX_N}")
    order = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    family = {0}

    def rec(i: int):
        if i == len(order):
            yield frozenset(family)
            return
        mask = order[i]
        yield from rec(i + 1)
        rest = mask
        while rest:
            low = rest & -rest
            if mask ^ low not in family:
                return
            rest ^= low
        family.add(mask)
        yield from rec(i + 1)
        family.discard(mask)

    yield from rec(0)


@lru_cache(maxsize=None)
def _oracle_table(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(members, shatter profile) of every downward-closed family on n vertices."""
    rows = []
    for family in enumerate_downward_closed(n):
        system = SetSystem.from_masks(n, family)
        profile = tuple(shatter_value(system, m) for m in range(n + 1))
        rows.append((system.members, profile))
    return tuple(rows)


def extremal_oracle(n: int, m: int, b: int) -> ExtremalResult:
    best: tuple[int, ...] | None = None
    for members, profile in _oracle_table(n):
        if profile[m] > b:
            continue
        if best is None or len(members) > len(best) or (
            len(members) == len(best) and members < best
        ):
            best = members
    assert best is not None  # the family {empty set} always qualifies for b >= 1
    return ExtremalResult(len(best), SetSystem(n, best), len(_oracle_table(n)), "oracle")


def extremal_max_sets(
    n: int, m: int, b: int, *, oracle: bool = False, node_limit: int = 2_000_000
) -> ExtremalResult:
    """Largest downward-closed family (with empty set) whose f(m) is at most b."""
    if not 1 <= n <= BRANCH_MAX_N:
        raise InvalidArgumentError(f"n must be in 1..{BRANCH_MAX_N}")
    if not 0 <= m <= n:
        raise InvalidArgumentError("m must be in 0..n")
    if not 1 <= b <= 1 << m:
        raise InvalidArgumentError("b must be in 1..2^m")
    if oracle:
        return extremal_oracle(n, m, b)

    shatter_memo: dict[frozenset[int], int] = {}

    def f_of(family: frozenset[int]) -> int:
        try:
            return shatter_memo[family]
        except KeyError:
            val = shatter_value(SetSystem.from_masks(n, family), m)
            shatter_memo[family] = val
            return val

    use_canonical = n <= CANONICAL_MAX_N
    visited: set = set()
    all_masks = sorted(range(1, 1 << n), key=lambda x: (-x.bit_count(), x))
    best_family: frozenset[int] = frozenset({0})
    best_key = (1, tuple(sorted(best_family)))
    nodes = 0

    def rec(family: frozenset[int], candidates: list[int]):
        nonlocal best_key, best_family, nodes
        nodes += 1
        if nodes > node_limit:
            raise ResourceLimitError(f"branch-and-bound exceeded {node_limit} nodes")
        addable = []
        for cand in candidates:
            if cand in family:
                continue
            grown = family | set(submasks(cand))
            if f_of(frozenset(grown)) <= b:
                addable.append(cand)
        key = (len(family), tuple(sorted(family)))
        if key[0] > best_key[0] or (key[0] == best_key[0] and key[1] < best_key[1]):
            best_key, best_family = key, family
        if len(family) + len(addable) <= best_key[0]:
            return  # even absorbing every addable candidate cannot improve
        for cand in addable:
            grown = frozenset(family | set(submasks(cand)))
            sig = canonical_form(n, grown) if use_canonical else tuple(sorted(grown))
            if sig in visited:
                continue
            visited.add(sig)
            rec(grown, addable)

    rec(frozenset({0}), all_masks)
    return ExtremalResult(best_key[0], SetSystem.from_masks(n, best_family), nodes, "branch")


def kpartite_instance(n: int, k: int) -> SetSystem:
    """Downward closure of all transversal k-sets of a balanced k-partition."""
    if not 1 <= k <= n:
        raise InvalidArgumentError("need 1 <= k <= n")
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    parts = []
    at = 0
    for size in sizes:
        parts.append(list(range(at, at + size)))
        at += size
    total = math.prod(size + 1 for size in sizes)
    if total > 1 << 20:
        raise ResourceLimitError(f"k-partite closure has {total} members")
    masks = [0]
    for part in parts:
        masks = [m | choice for m in masks for choice in [0, *(1 << v for v in part)]]
    return SetSystem.from_masks(n, masks)
