"""Finite extremal search: maximize |C| under a shatter-value cap.

The exact question behind the asymptotic thresholds, scaled down: over all
downward-closed families on n labelled vertices (empty set included), find
the largest one with f(m) <= b.

A search node holds its family as one int32 row over the 2^n masks: entry X
counts the subsets of X that are not members.  A closed family's members are
the zeros of its row, and 2^|X| minus entry X is the number of members inside
X, the subset sum (zeta transform) of the member indicator.  Adding the
down-set of a candidate c fills exactly the missing subsets of X & c, so the
child's row is row[X] - row[X & c] for every X at once, and the child's f(m)
is 2^m minus the least entry of that row over the m-sets X.  So a node
scores all its candidates with one gather and builds its children with
another, both in blocks of at most _bits.BLOCK_CELLS entries.  Isomorphic
children are pruned by canonical form, one call for each block of a node's
children.  While a family's code fits one 64-bit word (n <= 6), a node also
carries its code under each of the n! vertex permutations; a child's codes are
its parent's OR-ed with the candidate's down-set codes, and its form is their
maximum.  For n = 7 and 8 the forms come from the children's member
indicators.  An exhaustive enumeration of all downward-closed families, built
by doubling the vertex count, is the oracle for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from shatterlab._bits import blocks, popcount_groups
from shatterlab.errors import DEFAULT_SUBSET_LIMIT, InvalidArgumentError, ResourceLimitError

# shatter_value stays importable from here: profiling tools wrap it by this name
from shatterlab.setsystem import SetSystem, max_members_inside, shatter_value  # noqa: F401

ORACLE_MAX_N = 5
BRANCH_MAX_N = 16
CANONICAL_MAX_N = 8
# branch-and-bound nodes before extremal_max_sets raises ResourceLimitError
NODE_LIMIT = 2_000_000


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
def _perm_tables(n: int, down_sets: bool = False) -> np.ndarray:
    """Read-only array (2^n, n!): column p maps each mask to its image under
    the p-th permutation of {0..n-1}, in itertools order, so the images of a
    member are one contiguous row.  For 2^n > 64 the images are uint8 (10 MB
    at n = 8); otherwise a code is one word, and the entry is the image's bit
    in it, 1 << image, as uint64.

    With down_sets (2^n <= 64 only), entry [c, p] is instead the code of c's
    down-set under the p-th permutation: the image bits OR-ed over the
    submasks of c, one vertex per step.  Both tables live in this cache, so
    cache_clear drops both.
    """
    perms = np.array(list(permutations(range(n))), dtype=np.uint8).reshape(math.factorial(n), n)
    masks = np.arange(1 << n)[:, None]
    table = np.zeros((1 << n, len(perms)), dtype=np.uint8)
    for v in range(n):
        table |= ((masks >> v) & 1).astype(np.uint8) << perms[:, v]
    if 1 << n <= 64:
        table = _WORD_BITS[0].take(table)
    if down_sets:
        for v in range(n):
            halves = table.reshape(-1, 2, 1 << v, table.shape[1])  # axis 1: bit v
            halves[:, 1] |= halves[:, 0]
    table.flags.writeable = False
    return table


def canonical_form(
    n: int, rows: np.ndarray | None = None, *, codes: np.ndarray | None = None
) -> list[int]:
    """Largest bitset code of each family over all vertex permutations (n <= 8),
    in the order given.

    rows is a non-empty (families, 2^n) bool array of member indicators, each
    family with a member (every search child holds the empty set).  The code
    of a relabelled family has bit `mask` set for each member, so two
    families on n vertices get the same form exactly when they are
    isomorphic.  The members of the whole batch go through each block of at
    most _bits.BLOCK_CELLS permutation-member images at once (one
    permutation, if the batch is larger), and a reduceat ORs them into each
    family's code words.  Past one word, codes are compared word by word from
    the top, per family, among the permutations still tied and the best code
    of the earlier blocks.

    Or codes, in place of rows, while a code is one word (n <= 6): a
    (families, n!) uint64 array whose entry [f, p] is family f's code under
    the p-th permutation, as the search carries them; each form is then its
    row's maximum.
    """
    if not 0 <= n <= CANONICAL_MAX_N:
        raise InvalidArgumentError(f"canonical form needs n in 0..{CANONICAL_MAX_N}")
    if codes is not None:
        return codes.max(axis=1).tolist()
    family, members = np.nonzero(rows)
    sizes = np.bincount(family, minlength=len(rows))
    if not len(members) or not sizes.all():  # reduceat cannot give an empty segment
        raise InvalidArgumentError("canonical form needs families that each hold a member")
    starts = sizes.cumsum() - sizes
    table = _perm_tables(n)
    spans = blocks(table.shape[1], len(members))
    if table.dtype != np.uint64:
        return _multiword_forms(table, members, starts, spans)
    # one word: the table holds each image's bit
    for start, stop in spans:
        codes = np.bitwise_or.reduceat(table[members, start:stop], starts).max(axis=1)
        best = codes if start == 0 else np.maximum(best, codes)
    return best.tolist()


def _multiword_forms(table: np.ndarray, members: np.ndarray, starts: np.ndarray, spans):
    """canonical_form for codes of several words, with the images in table,
    each family's members starting at starts and the permutations in
    (start, stop) spans: top word first, among the permutations still tied."""
    words = _WORD_BITS[: len(table) // 64][::-1]
    best = np.zeros((len(words), len(starts)), dtype=np.uint64)  # top word first
    for start, stop in spans:
        images = table[members, start:stop]
        # column 0 carries the best code of the earlier blocks into the comparison
        codes = np.empty((len(starts), images.shape[1] + 1), dtype=np.uint64)
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
    return values


def _doubled(level: list[int], v: int):
    """Every downward-closed family on {0..v} from those on {0..v-1}, as codes
    with bit `mask` set for each member: a family A with B << 2^v added (its
    members lifted by v), for B = 0 or a family of the level inside A."""
    lift = 1 << v
    for below in level:
        yield below
        for family in level:
            if family & ~below == 0:
                yield below | family << lift


def enumerate_downward_closed(n: int):
    """The code of every downward-closed family on {0..n-1} containing the
    empty set: bit `mask` is set for each member (n <= ORACLE_MAX_N).

    A family is its members without vertex n-1, itself closed, plus a closed
    family inside those lifted by n-1, so each family comes once.  Only the
    n-1 vertex level is held; the last level is yielded as it is built.
    """
    if n > ORACLE_MAX_N:
        raise ResourceLimitError(f"exhaustive family enumeration capped at n = {ORACLE_MAX_N}")
    codes = iter([1])  # {empty set}
    for v in range(n):
        codes = _doubled(list(codes), v)
    yield from codes


@lru_cache(maxsize=None)
def _oracle_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Member indicators (families, 2^n) of every downward-closed family on n
    vertices, largest first and then ascending by sorted members (the lowest
    differing mask held first), with the (families, n + 1) array of their
    shatter profiles; both read-only."""
    codes = np.fromiter(enumerate_downward_closed(n), dtype=np.uint64)
    rows = (codes[:, None] >> np.arange(1 << n, dtype=np.uint64) & np.uint64(1)).astype(bool)
    # lexsort's last key is the primary one
    rows = rows[np.lexsort([*~rows.T[::-1], -rows.sum(axis=1)])]
    profiles = max_members_inside(rows, range(n + 1))
    rows.flags.writeable = profiles.flags.writeable = False
    return rows, profiles


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
    rows, profiles = _oracle_table(n)
    # the table runs largest first, so the first family under the cap is the
    # answer; {empty set} always qualifies for b >= 1
    best = np.flatnonzero(rows[int(np.argmax(profiles[:, m] <= b))]).tolist()
    return ExtremalResult(len(best), SetSystem(n, tuple(best)), len(rows), "oracle")


def _child_rows(row: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Rows of the families row's family grows into by adding the down-set of
    each candidate: the missing subsets of X & c are filled, for every X."""
    return row - row[candidates[:, None] & np.arange(len(row))]


def _addable(row: np.ndarray, fresh: np.ndarray, msets, need: int) -> np.ndarray:
    """The candidates in fresh whose child row is at least need on every
    m-set, scored a block of candidates (2^n cells each) at a time."""
    inside = row[msets]
    return np.concatenate([
        fresh[lo:hi][(inside - row[fresh[lo:hi, None] & msets]).min(axis=1) >= need]
        for lo, hi in blocks(len(fresh), len(row))
    ])


def extremal_max_sets(
    n: int, m: int, b: int, *, limit: int = DEFAULT_SUBSET_LIMIT
) -> ExtremalResult:
    """Largest downward-closed family (with empty set) whose f(m) is at most b.

    A node whose fresh candidates times the C(n, m) m-sets they are scored on
    pass limit raises ResourceLimitError before it scores any of them.

    For n <= 6 every node carries its n! relabelled codes (uint64), and a
    block of children's codes is built with their rows, at most
    _bits.BLOCK_CELLS cells (or one child) each.  A node keeps the block its
    codes came from, so the carried codes are at most (2^n - 1) * n! words
    per depth, 363 KB at n = 6, and the depth is at most 2^n, as each child
    gains a member.
    """
    _check_query(n, m, b)
    groups = popcount_groups(n)
    msets = groups[m]
    # a node's candidates: every non-empty mask, largest first, then ascending
    order = np.concatenate(groups[:0:-1]).astype(np.intp)
    root = np.empty(1 << n, dtype=np.int32)  # {empty set} misses all subsets but one
    for size, group in enumerate(groups):
        root[group] = (1 << size) - 1
    # f(m) <= b: every m-set still misses at least 2^m - b of its subsets
    need = (1 << m) - b
    use_canonical = n <= CANONICAL_MAX_N
    # while a code is one word, entry [c, p]: c's down-set under permutation p
    down = _perm_tables(n, True) if 1 << n <= 64 else None
    cells = 1 << n if down is None else max(1 << n, down.shape[1])
    visited: set = set()
    best_size, best_members = 1, [0]
    nodes = 0

    def rec(row: np.ndarray, candidates: np.ndarray, codes: np.ndarray | None):
        nonlocal best_size, best_members, nodes
        nodes += 1
        if nodes > NODE_LIMIT:
            raise ResourceLimitError(f"branch-and-bound exceeded {NODE_LIMIT} nodes")
        size = (1 << n) - int(row[-1])
        if size >= best_size:  # ties go to the smaller sorted member list
            members = np.flatnonzero(row == 0).tolist()
            if size > best_size or members < best_members:
                best_size, best_members = size, members
        fresh = candidates[row[candidates] > 0]
        if size + len(fresh) <= best_size:
            return  # even absorbing every candidate cannot improve
        if len(fresh) * len(msets) > limit:
            raise ResourceLimitError(
                f"a search node scores {len(fresh)} candidates on {len(msets)} m-sets each, "
                f"over the limit {limit}; raise --limit-subsets to force it"
            )
        addable = _addable(row, fresh, msets, need)
        if size + len(addable) <= best_size:
            return  # even absorbing every addable candidate cannot improve
        for lo, hi in blocks(len(addable), cells):
            children = _child_rows(row, addable[lo:hi])
            if down is None:
                held = children == 0
                if use_canonical:
                    sigs = canonical_form(n, held)
                else:
                    sigs = map(bytes, np.packbits(held, axis=1))
                carried = [None] * len(children)
            else:
                # a relabelled union is the union of the relabellings
                carried = codes | down[addable[lo:hi]]
                sigs = canonical_form(n, codes=carried)
            for child, child_codes, sig in zip(children, carried, sigs):
                if sig in visited:
                    continue
                visited.add(sig)
                rec(child, addable, child_codes)

    # {empty set} has code 1 under every permutation
    rec(root, order, None if down is None else np.ones(down.shape[1], dtype=np.uint64))
    return ExtremalResult(best_size, SetSystem(n, tuple(best_members)), nodes, "branch")


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
