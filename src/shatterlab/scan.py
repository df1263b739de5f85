"""Exhaustive m-subset scans over complexes.

For a downward-closed family the trace on Y is the empty set plus the faces
inside Y, so exact shatter values of complexes reduce to maximizing spanned
face counts over m-subsets.  These scans are the independent oracles behind
the pruning guarantees; they enumerate every candidate subset and refuse to
run past a configured subset limit.

A scan runs in positions of a vertex list: each candidate subset is a row
of positions, and numpy counts, for all rows at once, the edges through a
position-indexed adjacency matrix and each higher face through a
position-major membership table (member[pos, row]).  Faces with a vertex
outside the list are never counted, and vertex labels may be any size.
"""

from __future__ import annotations

import math

import numpy as np

from shatterlab._bits import bits, mask_of
from shatterlab.complexes import SimplicialComplex
from shatterlab.errors import DEFAULT_SUBSET_LIMIT, ResourceLimitError


def combination_array(n: int, m: int) -> np.ndarray:
    """All m-subsets of {0..n-1} as an (C(n,m), m) int16 array, colex order.

    Built level by level: the colex list over a smaller universe is a prefix
    of the list over a larger one, so each level is assembled from prefixes
    of the previous level with the new top element appended.
    """
    if m == 0:
        return np.zeros((1, 0), dtype=np.int16)
    level = np.zeros((1, 0), dtype=np.int16)
    for j in range(1, m + 1):
        rows = math.comb(n, j)
        out = np.empty((rows, j), dtype=np.int16)
        at = 0
        for v in range(j - 1, n):
            block = math.comb(v, j - 1)
            out[at : at + block, : j - 1] = level[:block]
            out[at : at + block, j - 1] = v
            at += block
        level = out
    return level


def dim_ge1_counts(
    cx: SimplicialComplex, combos: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Faces of dimension >= 1 spanned by each row of vertices[combos].

    combos holds positions into vertices; a face counts for a row when every
    one of its vertices sits at a position of that row.
    """
    pos = {int(v): i for i, v in enumerate(vertices)}
    within = mask_of(pos)

    def faces_at(d: int) -> list[list[int]]:
        """Position lists of the d-faces whose vertices all lie in `vertices`."""
        return [[pos[v] for v in bits(f)] for f in cx.faces_of_dim(d) if f & within == f]

    rows, m = combos.shape
    counts = np.zeros(rows, dtype=np.int32)
    edges = faces_at(1)
    if edges:
        adj = np.zeros((len(pos), len(pos)), dtype=bool)
        for u, v in edges:
            adj[u, v] = adj[v, u] = True
        for i in range(m):
            for j in range(i + 1, m):
                counts += adj[combos[:, i], combos[:, j]]
    higher = [ps for d in range(2, cx.dimension + 1) for ps in faces_at(d)]
    if higher:
        member = np.zeros((len(pos), rows), dtype=bool)
        member[combos.T, np.arange(rows)] = True
        for ps in higher:
            inside = member[ps[0]] & member[ps[1]]
            for q in ps[2:]:
                inside &= member[q]
            counts += inside
    return counts


def _guard(total: int, limit: int) -> None:
    if total > limit:
        raise ResourceLimitError(
            f"scan of {total} subsets exceeds the limit {limit}; "
            "raise --limit-subsets to force it"
        )


def active_span_counts(
    cx: SimplicialComplex, m: int, limit: int = DEFAULT_SUBSET_LIMIT
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(vertices, combos, counts) over the k-subsets of the active vertices.

    k = min(m, number of active vertices); None when k < 2, where no subset
    spans a face of dimension >= 1.  An m-set spans exactly what its active
    part spans, so these rows decide every m-set of the complex.
    """
    active = active_vertices(cx)
    k = min(m, len(active))
    if k < 2:
        return None
    _guard(math.comb(len(active), k), limit)
    verts = np.asarray(active)
    combos = combination_array(len(active), k)
    return verts, combos, dim_ge1_counts(cx, combos, verts)


def max_dim_ge1_span(
    cx: SimplicialComplex, m: int, *, vertices=None, limit: int = DEFAULT_SUBSET_LIMIT
) -> int:
    """Exact max over all m-subsets of the given vertices of spanned dim>=1 faces."""
    verts = sorted(vertices) if vertices is not None else cx.vertices()
    if m > len(verts):
        raise ResourceLimitError(f"not enough vertices for {m}-subsets")
    _guard(math.comb(len(verts), m), limit)
    combos = combination_array(len(verts), m)
    return int(dim_ge1_counts(cx, combos, np.asarray(verts)).max())


def exact_shatter_value(
    cx: SimplicialComplex, m: int, *, limit: int = DEFAULT_SUBSET_LIMIT
) -> int:
    """f(m) of the complex viewed as a set system with the empty set included.

    Equals 1 + max span over m-subsets; the maximum always pads with plain
    vertices, so only subsets of edge-covered vertices need enumerating.
    """
    vcount = len(cx.faces_of_dim(0))
    if m == 0 or vcount == 0:
        return 1
    base = 1 + min(m, vcount)
    scanned = active_span_counts(cx, m, limit)
    if scanned is None:
        return base
    _, _, counts = scanned
    return base + int(counts.max())


def active_vertices(cx: SimplicialComplex) -> list[int]:
    """Vertices incident to at least one face of dimension >= 1."""
    m = 0
    for d in range(1, cx.dimension + 1):
        for f in cx.faces_of_dim(d):
            m |= f
    return bits(m)
