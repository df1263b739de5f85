"""Rooted d-trees: the canonical balanced family and its density computations.

The canonical tree on parameters (d, Q) has vertices 0..d(Q+1)-1 and faces
all sets of spread at most d (max - min <= d); blocks sigma_1..sigma_Q of d
consecutive vertices partition the unrooted vertices, sigma_0 is the simplex
root.  Root vertices are attached block-wise to reach any facet count dQ+r.
Min-density is computed three independent ways: closed form, contiguous
block scan, and subset brute force; all three must agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from shatterlab._bits import ZETA_MAX_N, bits, popcount_groups, zeta_transform
from shatterlab.complexes import MAX_FACET_LABELS, SimplicialComplex
from shatterlab.errors import DEFAULT_SUBSET_LIMIT, InvalidArgumentError, ResourceLimitError
from shatterlab.setsystem import _as_vertex_mask

# the brute force's subset sums and size groups cover at most ZETA_MAX_N vertices
BRUTE_FORCE_VERTEX_CAP = ZETA_MAX_N
# embeddings count_embeddings enumerates before it reports saturation
EMBEDDING_CAP = 10_000_000


@dataclass(frozen=True)
class TreeParams:
    d: int
    Q: int
    r: int
    attachments: tuple[int, ...]  # block index (1..Q) per root, in label order


@dataclass(frozen=True)
class RootedDTree:
    complex: SimplicialComplex
    rho: int  # mask of the simplex root, a (d-1)-simplex
    roots: int  # mask of the vertex roots
    params: TreeParams | None = None

    @property
    def d(self) -> int:
        return self.complex.dimension

    @property
    def unrooted_mask(self) -> int:
        return self.complex.vertex_mask & ~(self.rho | self.roots)


def sigma_mask(d: int, i: int) -> int:
    """Block sigma_i = {id, ..., (i+1)d - 1} (0-based relabelling)."""
    return ((1 << d) - 1) << (i * d)


def attachment_blocks(Q: int, r: int) -> tuple[int, ...]:
    """Block indices receiving a root, in attachment (= label) order.

    For 0 < r < Q the blocks are ceil(kQ/r) for k = 1..r; for r >= Q the
    recursion bottoms out first, then appends one full round 1..Q per level.
    """
    rounds, r0 = divmod(r, Q)
    seq: list[int] = []
    if r0:
        seq.extend(-(-k * Q // r0) for k in range(1, r0 + 1))
    for _ in range(rounds):
        seq.extend(range(1, Q + 1))
    return tuple(seq)


def check_tree_size(d: int, Q: int, r: int, *, limit: int = DEFAULT_SUBSET_LIMIT) -> None:
    """Raise unless (d, Q, r) names a canonical tree whose closure builds at
    most limit faces, counted once per facet."""
    if r < 0:
        raise InvalidArgumentError("r must be >= 0")
    if d < 1 or Q < 1:
        raise InvalidArgumentError("d and Q must be >= 1")
    if d + 1 > MAX_FACET_LABELS:
        raise InvalidArgumentError(f"d-simplices of {d + 1} labels are too large to close")
    faces = (d * Q + r) * ((2 << d) - 1)
    if faces > limit:
        raise ResourceLimitError(
            f"T_r with d={d}, Q={Q}, r={r} closes {faces} faces, over the limit {limit}"
        )


def build_Tr(d: int, Q: int, r: int, *, limit: int = DEFAULT_SUBSET_LIMIT) -> RootedDTree:
    """The canonical tree T_r: the closure of T0's dQ windows and r root facets.

    T0's facets are the windows {i, ..., i + d} for i < dQ, whose closure is
    every set of spread at most d.  Root k, labelled d(Q+1) + k, forms a
    facet with sigma_b for the k-th block b of attachment_blocks(Q, r).
    check_tree_size runs first, so a tree that closes more than limit faces
    raises before any face or attachment is built.
    """
    check_tree_size(d, Q, r, limit=limit)
    nv = d * (Q + 1)
    blocks = attachment_blocks(Q, r)
    simplex = (2 << d) - 1  # the labels 0..d
    facets = [simplex << i for i in range(d * Q)]
    facets += [sigma_mask(d, b) | 1 << (nv + k) for k, b in enumerate(blocks)]
    cx = SimplicialComplex.from_facets(nv + r, facets)
    roots = ((1 << r) - 1) << nv
    return RootedDTree(cx, sigma_mask(d, 0), roots, TreeParams(d, Q, r, blocks))


def attachment_order(cx: SimplicialComplex, d: int, root: int) -> list[tuple[int, int]] | None:
    """The order in which the facets of a d-tree are glued on, grown from root.

    The root is a facet of cx, or a tree's simplex root rho.  Each step takes
    the least pending facet with exactly one vertex not yet placed whose
    other d vertices, its glue, lie inside a face already placed (the root
    or an earlier facet).  Returns (new vertex, glue mask) per facet other
    than the root, or None when some facet does not have d + 1 vertices or
    never attaches.  A d-tree admits such an order from any of its facets.
    """
    facets = cx.facets()
    if any(f.bit_count() != d + 1 for f in facets):
        return None
    placed = [root]
    covered = root
    pending = [f for f in facets if f != root]
    order: list[tuple[int, int]] = []
    while pending:
        for i, f in enumerate(pending):
            new = f & ~covered
            glue = f ^ new
            if new.bit_count() == 1 and any(glue & p == glue for p in placed):
                break
        else:
            return None
        del pending[i]
        placed.append(f)
        covered |= f
        order.append((new.bit_length() - 1, glue))
    return order


def is_d_tree(cx: SimplicialComplex, d: int) -> bool:
    """Whether cx is a d-tree: non-empty and glued on from its first facet."""
    facets = cx.facets()
    return bool(facets) and attachment_order(cx, d, facets[0]) is not None


def min_density_formula(d: int, Q: int, r: int) -> Fraction:
    """Closed form 2^d + r(2^d - 1)/(dQ)."""
    return Fraction(1 << d) + Fraction(r * ((1 << d) - 1), d * Q)


def min_density_bruteforce(tree: RootedDTree) -> tuple[Fraction, int]:
    """Exact minimum of e(S)/|S| over non-empty sets of unrooted vertices.

    Returns (value, witness); the witness is the largest minimizing set,
    ties broken toward the lexicographically least vertex list.  A face
    misses S exactly when its unrooted part lies in the complement of S, so
    e(S) = |faces| - avoid[complement], where avoid holds the subset sums of
    the faces' unrooted parts: int32 arrays of 2^k entries for k unrooted
    vertices, k <= BRUTE_FORCE_VERTEX_CAP.
    """
    unrooted_mask = tree.unrooted_mask
    unrooted = bits(unrooted_mask)
    k = len(unrooted)
    if k == 0:
        raise InvalidArgumentError("tree has no unrooted vertices")
    if k > BRUTE_FORCE_VERTEX_CAP:
        raise ResourceLimitError(
            f"{k} unrooted vertices exceed the brute-force cap {BRUTE_FORCE_VERTEX_CAP}"
        )
    position = {v: 1 << i for i, v in enumerate(unrooted)}
    avoid = np.zeros(1 << k, dtype=np.int32)
    for f in tree.complex.faces:
        avoid[sum(position[v] for v in bits(f & unrooted_mask))] += 1
    zeta_transform(avoid)
    complement = avoid[::-1]  # entry S is avoid[full - S]
    faces = len(tree.complex.faces)
    best_e = best_size = 0  # sentinel: compare e * size' vs e' * size
    for size, group in enumerate(popcount_groups(k)[1:], start=1):
        e = faces - int(complement[group].max())
        if best_size == 0 or e * best_size <= best_e * size:  # ties go to the larger set
            best_e, best_size, best_group = e, size, group
    ties = best_group[complement[best_group] == faces - best_e].tolist()
    best_subset = min(ties, key=lambda s: _vertex_list(s, unrooted))
    witness = 0
    for i in bits(best_subset):
        witness |= 1 << unrooted[i]
    return Fraction(best_e, best_size), witness


def _vertex_list(subset: int, unrooted: list[int]) -> tuple[int, ...]:
    return tuple(unrooted[i] for i in bits(subset))


@dataclass(frozen=True)
class EmbeddingCount:
    count: int
    saturated: bool  # enumeration stopped at the cap


def count_embeddings(tree: RootedDTree, cx: SimplicialComplex, sigma) -> EmbeddingCount:
    """Injective maps V(T) -> V(C) sending rho to sigma and facets to d-simplices.

    The root is matched order-preservingly (sorted rho vertices onto sorted
    sigma vertices), so a single rooted d-simplex counts exactly the degree
    of sigma.  Vertex injectivity already forces distinct facet images.  The
    count stops, saturated, at EMBEDDING_CAP maps.
    """
    d = tree.d
    smask = _as_vertex_mask(cx.n, sigma)
    if smask.bit_count() != d or smask not in cx:
        raise InvalidArgumentError("sigma must be a (d-1)-simplex of the target complex")
    schedule = attachment_order(tree.complex, d, tree.rho)
    if schedule is None:
        raise InvalidArgumentError("the tree is not a d-tree grown from its root rho")
    mapping = dict(zip(bits(tree.rho), bits(smask)))
    used = smask
    cx_vertices = cx.vertices()
    extension_cache: dict[int, tuple[int, ...]] = {}

    def extensions(glue_img: int) -> tuple[int, ...]:
        try:
            return extension_cache[glue_img]
        except KeyError:
            ext = tuple(
                w for w in cx_vertices if not glue_img >> w & 1 and glue_img | (1 << w) in cx
            )
            extension_cache[glue_img] = ext
            return ext

    count = 0
    saturated = False

    def walk(idx: int, used: int) -> None:
        nonlocal count, saturated
        if saturated:
            return
        if idx == len(schedule):
            count += 1
            if count >= EMBEDDING_CAP:
                saturated = True
            return
        new_v, glue = schedule[idx]
        glue_img = 0
        for v in bits(glue):
            glue_img |= 1 << mapping[v]
        for w in extensions(glue_img):
            if used >> w & 1:
                continue
            mapping[new_v] = w
            walk(idx + 1, used | (1 << w))
            del mapping[new_v]

    walk(0, used)
    return EmbeddingCount(count, saturated)


def contiguous_min_density(tree: RootedDTree) -> tuple[Fraction, int, int]:
    """Minimum density over contiguous block unions sigma_i..sigma_j.

    Uses the closed forms: for j = Q every face meeting S has its maximum in
    S, giving 2^d faces per vertex plus 2^d - 1 per root attached inside the
    block range; for j < Q the dangling faces (maximum outside S) add a
    constant (d-1)2^d + 1.
    """
    if tree.params is None:
        raise InvalidArgumentError("contiguous block scan requires a canonical tree")
    d, Q = tree.params.d, tree.params.Q
    attachments = tree.params.attachments
    pd = 1 << d
    best: tuple[Fraction, int, int] | None = None
    for i in range(1, Q + 1):
        for j in range(i, Q + 1):
            size = d * (j - i + 1)
            l_count = sum(1 for a in attachments if i <= a <= j)
            e = pd * size + (pd - 1) * l_count
            if j < Q:
                e += (d - 1) * pd + 1
            dens = Fraction(e, size)
            if best is None or dens < best[0]:
                best = (dens, i, j)
    assert best is not None
    return best
