"""Exhaustive m-subset scans over complexes.

For a downward-closed family the trace on Y is the empty set plus the faces
inside Y, so exact shatter values of complexes reduce to maximizing spanned
face counts over m-subsets, and bad-m-set pruning to listing the m-subsets
that span at least z faces.  Neither needs every subset, only those whose
span reaches a floor, and `floor_span_rows` finds exactly those:

- Candidates are rows of positions into a vertex list, in colex order, built
  level by level from colex prefixes: the j-rows with top position v are the
  surviving (j-1)-rows below v with v appended.
- A row's span is its prefix's span plus the faces whose top vertex is the
  new one: the edges are the prefix's edge count at that position, and
  each higher face is tested only in the block of rows with its top,
  against the prefix's position bitset (uint64 words, built only when the
  complex has faces of dimension >= 2).
- A j-prefix is dropped once it stays under the floor even if each of the
  r = k - j positions still to add closed as many faces with it as the
  best one can, and every face of two or more added positions were there.
  A position with e edges into the prefix closes at most gain(e) faces
  with it, one per set of 1 to dim of its e neighbours, so the test is
  count + r * gain(most edges from a larger position) + ceiling(k) -
  ceiling(j) - r * gain(j) < floor, with ceiling from
  max_possible_dim_ge1_span.  Each prefix keeps its edge counts to every
  position (the adjacency itself at level 1), so a candidate's new edges
  are one gather, and its best extension one gather from the prefix's
  suffix maxima.  So no row at or above the floor is lost, and no level
  holds more rows than C(positions, j).

Faces with a vertex outside the list are never counted, and vertex labels
may be any size.  Scans over the active vertices refuse, before allocating,
to enumerate more subsets than the configured limit.  `combination_array`
and `dim_ge1_counts` count every row without a floor; they are the
independent oracle of the floor scan.
"""

from __future__ import annotations

import math

import numpy as np

from shatterlab._bits import bits, mask_of
from shatterlab.complexes import SimplicialComplex
from shatterlab.errors import DEFAULT_SUBSET_LIMIT, ResourceLimitError


def combination_array(n: int, m: int) -> np.ndarray:
    """All m-subsets of {0..n-1} as a (C(n,m), m) position array, colex order.

    Built level by level: the colex list over a smaller universe is a prefix
    of the list over a larger one, so each level is assembled from prefixes
    of the previous level with the new top element appended.
    """
    dtype = _position_dtype(n)
    level = np.zeros((1, 0), dtype=dtype)
    for j in range(1, m + 1):
        rows = math.comb(n, j)
        out = np.empty((rows, j), dtype=dtype)
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


def _position_dtype(count: int):
    """int16 for positions of up to 32767 vertices, int32 beyond."""
    return np.int16 if count <= np.iinfo(np.int16).max else np.int32


def max_possible_dim_ge1_span(m: int, dim: int) -> int:
    """Ceiling on faces of dimension >= 1 inside m vertices of a dim-bounded complex."""
    return sum(math.comb(m, i) for i in range(2, min(m, dim + 1) + 1))


def _span_levels(cx: SimplicialComplex, vertices, k: int, floor: int):
    """Yield (rows, counts) of levels j = 0..k of the floor scan.

    Level j holds the j-rows P + {v}, in colex order, whose prefix P is on
    level j-1, whose top v leaves room for r = k - j larger positions, and
    that pass the live test span + r * gain[1 + s] + ceiling(k) -
    ceiling(j) - r * gain[j] >= floor, where s is the most edges that a
    position above v has into P, so that 1 + s bounds its edges into the
    row.  Memory: the candidates of a level are distinct j-subsets, so at
    most C(npos, j) of them, each held as j positions, an int32 count, intp
    source and offset indexes and, with higher faces, one uint64 per 64
    positions; the adjacency takes npos^2 bytes.  Each kept row of a level
    below k also holds npos edge counts, one byte each when k <= 255 and
    more beyond, except on level 1, which reads the adjacency; and when two
    or more positions are still to add and the next level's test can drop
    a row, as many suffix maxima again.
    """
    npos = len(vertices)
    dtype = _position_dtype(npos)
    pos = {int(v): i for i, v in enumerate(vertices)}
    within = mask_of(pos)
    adj = None  # adj[v, u] for the edge {u, v}
    higher: dict[int, list] = {}  # top position -> per higher face, (word, bits) of the rest
    dim = cx.dimension
    for d in range(1, dim + 1):
        for f in cx.faces_of_dim(d):
            if f & within != f:
                continue
            ps = sorted(pos[v] for v in bits(f))
            if d == 1:
                if adj is None:
                    adj = np.zeros((npos, npos), dtype=np.uint8)
                adj[ps[0], ps[1]] = adj[ps[1], ps[0]] = 1
            else:
                by_word: dict[int, int] = {}
                for q in ps[:-1]:
                    by_word[q >> 6] = by_word.get(q >> 6, 0) | 1 << (q & 63)
                rest = [(w, np.uint64(b)) for w, b in by_word.items()]
                higher.setdefault(ps[-1], []).append(rest)
    words = (npos + 63) // 64 if higher else 0
    ceiling = [max_possible_dim_ge1_span(j, dim) for j in range(k + 1)]
    # gain[e]: most faces that one added position with e edges into a row closes
    gain = [sum(math.comb(e, s) for s in range(1, min(dim, e) + 1)) for e in range(k + 1)]
    # a j-row is live when its span + r * gain[its best extension's edges] >= need[j]
    need = [floor - ceiling[k] + ceiling[j] + (k - j) * gain[j] for j in range(k + 1)]
    wide = np.min_scalar_type(k)  # edge counts into a row stay below k
    live = 1 if ceiling[k] >= floor else 0  # the empty prefix, unless no row can reach the floor
    rows = np.zeros((live, 0), dtype=dtype)
    counts = np.zeros(live, dtype=np.int32)
    masks = np.zeros((words, live), dtype=np.uint64)  # word-major: masks[w, row]
    # position-major: edges[w, i] = edges from position w into row i of the
    # level, and reach[w, i] = max of edges[w:, i]
    edges = reach = None
    yield rows, counts
    for j in range(1, k + 1):
        r = k - j
        tops = np.arange(j - 1, npos - r, dtype=dtype)
        # the (j-1)-rows below each top v are a colex prefix of the level
        if j == 1:
            below = np.full(len(tops), len(rows), dtype=np.intp)
        else:
            below = np.searchsorted(rows[:, -1], tops)
        starts = np.cumsum(below) - below
        src = np.arange(int(below.sum())) - np.repeat(starts, below)
        top = np.repeat(tops, below)
        prefix = np.take(rows, src, axis=0)
        new = np.take(counts, src)
        if edges is not None:
            cell = top.astype(np.intp) * edges.shape[1] + src
            new += np.take(edges.ravel(), cell)
        if words:
            held = np.take(masks, src, axis=1)
            for v, at, size in zip(tops.tolist(), starts.tolist(), below.tolist()):
                if v in higher and size:
                    block = held[:, at : at + size]
                    for (w, b), *more in higher[v]:
                        inside = (block[w] & b) == b
                        for w, b in more:
                            inside &= (block[w] & b) == b
                        new[at : at + size] += inside
        if reach is not None:
            # a position above top has at most 1 + reach[top + 1] edges into the row
            bonus = np.array([r * g for g in gain[1 : j + 1]], dtype=np.int32)
            keep = new + np.take(bonus, np.take(reach.ravel(), cell + edges.shape[1])) >= need[j]
        else:
            # s = 0: on level 1, without edges, or where the least bonus meets the need
            keep = new >= need[j] - r * gain[1]
        if not keep.all():
            kept = np.flatnonzero(keep)
            prefix, top, new, src = np.take(prefix, kept, axis=0), top[kept], new[kept], src[kept]
            if words:
                held = np.take(held, kept, axis=1)
        rows = np.empty((len(new), j), dtype=dtype)
        rows[:, : j - 1] = prefix
        rows[:, j - 1] = top
        counts = new
        if words and j < k:
            masks = held
            masks[top >> 6, np.arange(len(top))] |= np.left_shift(
                np.uint64(1), (top & 63).astype(np.uint64)
            )
        reach = None
        if adj is not None and j < k:
            if j == 1:
                edges = adj  # level 1 keeps every position, so row i is position i
            else:
                # a row's counts are its prefix's column plus its top's
                # adjacency column, repeated over the run of rows with that top
                grown = np.take(edges, src, axis=1).astype(wide, copy=False)
                runs = np.diff(np.searchsorted(top, tops), append=len(top))
                grown += np.repeat(adj[:, j - 1 : npos - r], runs, axis=1)
                edges = grown
            # the maxima matter only where the least bonus leaves the next
            # level's need unmet, and that level reads them from position j + 1 up
            if r >= 2 and need[j + 1] > (r - 1) * gain[1]:
                reach = np.empty_like(edges)
                reach[-1] = edges[-1]
                for w in reversed(range(j + 1, npos - 1)):
                    np.maximum(edges[w], reach[w + 1], out=reach[w])
        yield rows, counts


def floor_span_rows(
    cx: SimplicialComplex, vertices, k: int, floor: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts) of the k-subsets of vertices spanning >= floor faces
    of dimension >= 1; rows are positions into vertices, in colex order.

    Exactly the rows of combination_array(len(vertices), k) whose
    dim_ge1_counts reach the floor, with those counts.
    """
    for rows, counts in _span_levels(cx, vertices, k, floor):
        pass  # each level replaces the last, so one level is held at a time
    return rows, counts


def _guard(total: int, limit: int) -> None:
    if total > limit:
        raise ResourceLimitError(
            f"scan of {total} subsets exceeds the limit {limit}; "
            "raise --limit-subsets to force it"
        )


def _greedy_span(cx: SimplicialComplex, active: list[int], k: int) -> int:
    """Span of a deterministic greedy k-set of active vertices.

    From each of the 3 vertices on the most faces, add the vertex that adds
    the most faces, the lowest on a tie, until the set has k.  Each such set
    is a row of the active scan, so its span is a floor that the maximum row
    reaches.  Gains are kept as the set grows: each face holds the count of
    its vertices not yet chosen, and a face left with one such vertex adds
    one to that vertex's gain.
    """
    faces = [f for d in range(1, cx.dimension + 1) for f in cx.faces_of_dim(d)]
    through = {v: [] for v in active}  # indexes of the faces through v
    for i, f in enumerate(faces):
        for v in bits(f):
            through[v].append(i)
    sizes = [f.bit_count() for f in faces]
    best = 0
    for start in sorted(active, key=lambda v: -len(through[v]))[:3]:
        outside = sizes.copy()
        gain = dict.fromkeys(active, 0)  # over the vertices not yet chosen
        chosen, span, v = 0, 0, start
        for _ in range(k - 1):
            chosen |= 1 << v
            del gain[v]
            for i in through[v]:
                outside[i] -= 1
                if outside[i] == 1:
                    gain[(faces[i] & ~chosen).bit_length() - 1] += 1
            g, u = max((g, -u) for u, g in gain.items())
            span, v = span + g, -u
        best = max(best, span)
    return best


def active_span_counts(
    cx: SimplicialComplex, m: int, floor: int | None, limit: int = DEFAULT_SUBSET_LIMIT
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(vertices, rows, counts) of the k-subsets of the active vertices
    that span >= min(floor, g) faces of dimension >= 1, where g is the span
    of a greedy k-set; a floor of None is g.

    k = min(m, number of active vertices); None when k < 2, where no subset
    spans a face of dimension >= 1.  An m-set spans exactly what its active
    part spans, so these rows decide every m-set of the complex.  The greedy
    set is a row, so the rows always hold the maximum span, and when no row
    reaches the floor, every row from g up is present.  The limit applies
    to all C(active, k) subsets, before any work.
    """
    active = active_vertices(cx)
    k = min(m, len(active))
    if k < 2:
        return None
    _guard(math.comb(len(active), k), limit)
    greedy = _greedy_span(cx, active, k)
    verts = np.asarray(active)
    return verts, *floor_span_rows(cx, verts, k, greedy if floor is None else min(floor, greedy))


def max_dim_ge1_span(cx: SimplicialComplex, m: int, *, vertices=None) -> int:
    """Exact max over all m-subsets of the given vertices of spanned dim>=1 faces.

    Counts every subset with no floor, so it stays an independent check of
    the floor scan; past DEFAULT_SUBSET_LIMIT subsets it raises instead.
    """
    verts = sorted(vertices) if vertices is not None else cx.vertices()
    if m > len(verts):
        raise ResourceLimitError(f"not enough vertices for {m}-subsets")
    _guard(math.comb(len(verts), m), DEFAULT_SUBSET_LIMIT)
    combos = combination_array(len(verts), m)
    return int(dim_ge1_counts(cx, combos, np.asarray(verts)).max())


def exact_shatter_value(
    cx: SimplicialComplex, m: int, *, limit: int = DEFAULT_SUBSET_LIMIT
) -> int:
    """f(m) of the complex viewed as a set system with the empty set included.

    Equals 1 + max span over m-subsets; the maximum always pads with plain
    vertices, so only subsets of edge-covered vertices need enumerating, and
    only those reaching a greedy set's span.
    """
    scanned = active_span_counts(cx, m, None, limit)
    return shatter_from_span(cx, m, 0 if scanned is None else int(scanned[2].max()))


def shatter_from_span(cx: SimplicialComplex, m: int, span: int) -> int:
    """f(m) of the complex when span is the most faces of dimension >= 1
    that an m-subset spans: the empty set, the min(m, vertices) vertices
    that the best m-set can hold, and those faces."""
    return 1 + min(m, len(cx.faces_of_dim(0))) + span


def active_vertices(cx: SimplicialComplex) -> list[int]:
    """Vertices incident to at least one face of dimension >= 1."""
    m = 0
    for d in range(1, cx.dimension + 1):
        for f in cx.faces_of_dim(d):
            m |= f
    return bits(m)
