"""Finite extremal search: maximize |C| under a shatter-value cap.

The exact question behind the asymptotic thresholds, scaled down: over all
downward-closed families on n labelled vertices (empty set included), find
the largest one with f(m) <= b.  A branch-and-bound over facet additions
with canonical-form pruning answers it: each search node computes the forms of
all its candidate families in one batch, through shared permutation gathers.
An exhaustive enumeration of all downward-closed families, built by doubling
the vertex count, is the oracle for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations

import numpy as np

from shatterlab._bits import submasks
from shatterlab.errors import InvalidArgumentError, ResourceLimitError

# shatter_value stays importable from here: profiling tools wrap it by this name
from shatterlab.setsystem import SetSystem, max_members_inside, shatter_value  # noqa: F401

ORACLE_MAX_N = 5
BRANCH_MAX_N = 16
CANONICAL_MAX_N = 8
# branch-and-bound nodes before extremal_max_sets raises ResourceLimitError
NODE_LIMIT = 2_000_000
# uint64 entries per canonical-form gather (8 MB): permutations x the members
# of every family in the batch
CANONICAL_GATHER_CELLS = 1 << 20


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
    """Read-only uint8 array (2^n, n!): column p maps each mask to its image
    under the p-th permutation of {0..n-1}, in itertools order (10 MB at
    n = 8), so the images of a member are one contiguous row."""
    perms = np.array(list(permutations(range(n))), dtype=np.uint8).reshape(math.factorial(n), n)
    masks = np.arange(1 << n)[:, None]
    table = np.zeros((1 << n, len(perms)), dtype=np.uint8)
    for v in range(n):
        table |= ((masks >> v) & 1).astype(np.uint8) << perms[:, v]
    table.flags.writeable = False
    return table


def canonical_form(n: int, families: list[frozenset[int]]) -> list[int]:
    """Largest bitset code of each family over all vertex permutations (n <= 8),
    in the order given.

    The code of a relabelled family has bit `mask` set for each member, so two
    families on n vertices get the same form exactly when they are isomorphic.
    The members of the whole batch go through each block of at most
    CANONICAL_GATHER_CELLS permutation-member images at once (one permutation,
    if the batch is larger), and a reduceat ORs them into each family's code
    words.  Codes are compared word by word from the top, per family, among
    the permutations still tied and the best code of the earlier blocks.
    """
    if not 0 <= n <= CANONICAL_MAX_N:
        raise InvalidArgumentError(f"canonical form needs n in 0..{CANONICAL_MAX_N}")
    sizes = np.fromiter(map(len, families), dtype=np.intp, count=len(families))
    members = np.fromiter(chain.from_iterable(families), dtype=np.intp, count=int(sizes.sum()))
    forms = [0] * len(families)  # an empty family's code is 0
    live = sizes.nonzero()[0]  # reduceat cannot give an empty segment
    if not len(live):
        return forms
    starts = (sizes.cumsum() - sizes)[live]
    table = _perm_tables(n)
    words = _WORD_BITS[: max(1, (1 << n) // 64)][::-1]
    best = np.zeros((len(words), len(live)), dtype=np.uint64)  # top word first
    block = max(1, CANONICAL_GATHER_CELLS // len(members))
    for start in range(0, table.shape[1], block):
        images = table[members, start : start + block]
        # column 0 carries the best code of the earlier blocks into the comparison
        codes = np.empty((len(live), images.shape[1] + 1), dtype=np.uint64)
        tied = None
        for word, word_bits in enumerate(words):
            codes[:, 0] = best[word]
            np.bitwise_or.reduceat(word_bits.take(images), starts, out=codes[:, 1:])
            if tied is not None:
                codes[~tied] = 0
            codes.max(axis=1, out=best[word])
            if word + 1 < len(words):
                same = codes == best[word][:, None]
                tied = same if tied is None else tied & same
    values = best[0].tolist()
    for row in best[1:]:
        values = [value << 64 | low for value, low in zip(values, row.tolist())]
    for i, value in zip(live.tolist(), values):
        forms[i] = value
    return forms


def _doubled(level: list[frozenset[int]], v: int):
    """Every downward-closed family on {0..v} from those on {0..v-1}: a family
    A with {S + v : S in B} added, for B = {} or a family of the level inside A."""
    bit = 1 << v
    lifted = [(family, frozenset(member | bit for member in family)) for family in level]
    for below in level:
        yield below
        for family, above in lifted:
            if family <= below:
                yield below | above


def enumerate_downward_closed(n: int):
    """Every downward-closed family on {0..n-1} containing the empty set.

    A family is its members without vertex n-1, itself closed, plus a closed
    family inside those lifted by n-1, so each family comes once.  Only the
    n-1 vertex level is held; the last level is yielded as it is built.
    """
    if n > ORACLE_MAX_N:
        raise ResourceLimitError(f"exhaustive family enumeration capped at n = {ORACLE_MAX_N}")
    families = iter([frozenset({0})])
    for v in range(n):
        families = _doubled(list(families), v)
    yield from families


@lru_cache(maxsize=None)
def _oracle_table(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Members of every downward-closed family on n vertices, largest first and
    then ascending, with the read-only (families, n + 1) array of their shatter
    profiles."""
    members = sorted(
        (tuple(sorted(family)) for family in enumerate_downward_closed(n)),
        key=lambda fam: (-len(fam), fam),
    )
    profiles = max_members_inside(n, members, range(n + 1))
    profiles.flags.writeable = False
    return tuple(members), profiles


def _check_query(n: int, m: int, b: int) -> None:
    if not 1 <= n <= BRANCH_MAX_N:
        raise InvalidArgumentError(f"n must be in 1..{BRANCH_MAX_N}")
    if not 0 <= m <= n:
        raise InvalidArgumentError("m must be in 0..n")
    if not 1 <= b <= 1 << m:
        raise InvalidArgumentError("b must be in 1..2^m")


def extremal_oracle(n: int, m: int, b: int) -> ExtremalResult:
    """The same query as extremal_max_sets, by exhaustive enumeration (n <= 5)."""
    _check_query(n, m, b)
    members, profiles = _oracle_table(n)
    # the table runs largest first, so the first family under the cap is the
    # answer; {empty set} always qualifies for b >= 1
    best = members[int(np.argmax(profiles[:, m] <= b))]
    return ExtremalResult(len(best), SetSystem(n, best), len(members), "oracle")


def extremal_max_sets(n: int, m: int, b: int) -> ExtremalResult:
    """Largest downward-closed family (with empty set) whose f(m) is at most b."""
    _check_query(n, m, b)

    shatter_memo: dict[frozenset[int], int] = {}

    def f_of_each(families: list[frozenset[int]]) -> list[int]:
        todo = [family for family in families if family not in shatter_memo]
        shatter_memo.update(zip(todo, max_members_inside(n, todo, (m,))[:, 0].tolist()))
        return [shatter_memo[family] for family in families]

    use_canonical = n <= CANONICAL_MAX_N
    visited: set = set()
    all_masks = sorted(range(1, 1 << n), key=lambda x: (-x.bit_count(), x))
    best_family: frozenset[int] = frozenset({0})
    best_key = (1, tuple(sorted(best_family)))
    nodes = 0

    def rec(family: frozenset[int], candidates: list[int]):
        nonlocal best_key, best_family, nodes
        nodes += 1
        if nodes > NODE_LIMIT:
            raise ResourceLimitError(f"branch-and-bound exceeded {NODE_LIMIT} nodes")
        key = (len(family), tuple(sorted(family)))
        if key[0] > best_key[0] or (key[0] == best_key[0] and key[1] < best_key[1]):
            best_key, best_family = key, family
        fresh = [cand for cand in candidates if cand not in family]
        if len(family) + len(fresh) <= best_key[0]:
            return  # even absorbing every candidate cannot improve
        grown = {cand: family.union(submasks(cand)) for cand in fresh}
        values = f_of_each(list(grown.values()))
        addable = [cand for cand, value in zip(grown, values) if value <= b]
        if len(family) + len(addable) <= best_key[0]:
            return  # even absorbing every addable candidate cannot improve
        children = [grown[cand] for cand in addable]
        if use_canonical:
            sigs = canonical_form(n, children)
        else:
            sigs = [tuple(sorted(child)) for child in children]
        for child, sig in zip(children, sigs):
            if sig in visited:
                continue
            visited.add(sig)
            rec(child, addable)

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
