"""Exhaustive m-subset scans over complexes.

For a downward-closed family the trace on Y is the empty set plus the faces
inside Y, so exact shatter values of complexes reduce to maximizing spanned
face counts over m-subsets, and bad-m-set pruning to listing the m-subsets
that span at least z faces.  Neither needs every subset, only those whose
span reaches a floor, and `floor_span_rows` finds exactly those.

The scans read arrays, not face sets: one (F, d + 1) array per dimension
d >= 1, each row a face in ascending order.  A LevelSample hands over its
edges and triangles as they are; a SimplicialComplex goes through
`face_labels`, the one loop over its faces.  `active_span_counts` maps the
labels to positions among the active vertices, the edge ends, and
`floor_span_rows` scans positions:

- Candidates are rows of positions, in colex order, built level by level
  from colex prefixes: the j-rows with top position v are the surviving
  (j-1)-rows below v with v appended.
- A row's span is its prefix's span plus the faces whose top is the new
  position: the edges are the prefix's edge count at that position, one
  gather, and each c-face, c = 3..k, is the top with a (c - 1)-subset of
  the prefix, one lookup of its colex code sum C(p_i, i + 1) in a bitmap
  of the c-faces' codes.  Only rows whose top has two or more edges into
  the prefix, and that would pass the live test below with every higher
  face those edges allow, look their codes up, a chunk of rows at a time.
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

Scans over the active vertices refuse, before allocating, to enumerate
more subsets than the configured limit.  `combination_array` and
`dim_ge1_counts` count every row without a floor; they are the independent
oracle of the floor scan.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from shatterlab._bits import bits, blocks, mask_of
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


def face_labels(cx: SimplicialComplex) -> list[np.ndarray]:
    """The faces of dimension 1..cx.dimension as one (F, d + 1) int64 array
    of labels each, rows ascending: the one loop over a complex's faces
    that the scans take."""
    out = []
    for d in range(1, cx.dimension + 1):
        flat = np.fromiter((v for f in cx.faces_of_dim(d) for v in bits(f)), dtype=np.int64)
        out.append(flat.reshape(-1, d + 1))
    return out


def _span_levels(npos: int, faces: list[np.ndarray], k: int, floor: int):
    """Yield (rows, counts) of levels j = 0..k of the floor scan over
    positions 0..npos-1, whose faces of dimension d = 1..len(faces) are the
    rows of faces[d - 1], a (F, d + 1) position array, each row ascending.

    Level j holds the j-rows P + {v}, in colex order, whose prefix P is on
    level j-1, whose top v leaves room for r = k - j larger positions, and
    that pass the live test span + r * gain[1 + s] + ceiling(k) -
    ceiling(j) - r * gain[j] >= floor, where s is the most edges that a
    position above v has into P, so that 1 + s bounds its edges into the
    row.  Memory: the candidates of a level are distinct j-subsets, so at
    most C(npos, j) of them, each held as j positions, an int32 count and
    bar, its top's edge count and intp source and offset indexes; the
    adjacency takes npos^2 bytes, and each face size c = 3..k that the
    complex has a bitmap of C(npos, c) / 8 bytes, at most C(npos, k) / 8
    when c <= k <= npos - c.  Each kept row of a level below k also holds
    npos edge counts, one byte each when k <= 255 and more beyond, except
    on level 1, which reads the adjacency; and when two or more positions
    are still to add and the next level's test can drop a row, as many
    suffix maxima again.  The higher-face test looks up a chunk of rows at
    a time, at most _bits.BLOCK_CELLS codes (one row's when it has more),
    each an int64 with its gathered byte.
    """
    dtype = _position_dtype(npos)
    adj = None  # adj[v, u] for the edge {u, v}
    if faces and len(faces[0]):
        adj = np.zeros((npos, npos), dtype=np.uint8)
        adj[faces[0], faces[0][:, ::-1]] = 1
    # the higher faces that a k-row can hold: sizes c = 3 to k, each a
    # bitmap with the bit of its colex code sum C(p_i, i + 1) set
    higher = {f.shape[1]: f for f in faces[1:] if len(f) and f.shape[1] <= k}
    # binom[i][x] = C(x, i) up to the largest of those sizes, by Pascal's rule
    binom = [np.ones(npos, dtype=np.int64)]
    for i in range(1, max(higher, default=0) + 1):
        binom.append(np.concatenate(([0], np.cumsum(binom[-1][:-1]))))
    bitmaps = {}
    for c, f in higher.items():
        code = binom[1][f[:, 0]]  # fancy indexing: no copy of a strided index
        for i in range(1, c):
            code += binom[i + 1][f[:, i]]
        bit = np.left_shift(np.uint8(1), code.astype(np.uint8) & 7)
        bitmaps[c] = np.zeros((math.comb(npos, c) + 7) // 8, dtype=np.uint8)
        np.bitwise_or.at(bitmaps[c], np.right_shift(code, 3, out=code), bit)
    dim = len(faces)
    ceiling = [max_possible_dim_ge1_span(j, dim) for j in range(k + 1)]
    # gain[e]: most faces that one added position with e edges into a row closes
    gain = [sum(math.comb(e, s) for s in range(1, min(dim, e) + 1)) for e in range(k + 1)]
    # room[e]: most higher faces that a top with e edges into the prefix closes
    room = np.array([g - e for e, g in enumerate(gain)], dtype=np.int32)
    # a j-row is live when its span + r * gain[its best extension's edges] >= need[j]
    need = [floor - ceiling[k] + ceiling[j] + (k - j) * gain[j] for j in range(k + 1)]
    wide = np.min_scalar_type(k)  # edge counts into a row stay below k
    live = 1 if ceiling[k] >= floor else 0  # the empty prefix, unless no row can reach the floor
    rows = np.zeros((live, 0), dtype=dtype)
    counts = np.zeros(live, dtype=np.int32)
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
            added = np.take(edges.ravel(), cell)  # the top's edges into the prefix
            new += added
        # a row is kept when its span reaches its bar
        if reach is not None:
            # a position above top has at most 1 + reach[top + 1] edges into the row
            bonus = np.array([r * g for g in gain[1 : j + 1]], dtype=np.int32)
            bar = need[j] - np.take(bonus, np.take(reach.ravel(), cell + edges.shape[1]))
        else:
            # s = 0: on level 1, without edges, or where the least bonus meets the need
            bar = need[j] - r * gain[1]
        # the c-faces a row may gain are its top with a (c - 1)-subset of its
        # prefix, the rows of picks[c] its columns; only rows whose top has two
        # or more edges into the prefix, and that might reach their bar with
        # room[those edges] higher faces, look them up
        picks = {c: np.array(list(combinations(range(j - 1), c - 1)), dtype=np.intp)
                 for c in bitmaps if c <= j}
        if picks:
            test = np.flatnonzero((added >= 2) & (new + np.take(room, added) >= bar))
            for a, b in blocks(len(test), sum(map(len, picks.values()))):
                sel = test[a:b]
                pre = prefix[sel]
                for c, pick in picks.items():
                    code = np.take(binom[c], top[sel])[:, None]
                    for i in range(c - 1):
                        code = code + np.take(binom[i + 1], pre[:, pick[:, i]])
                    bit = np.take(bitmaps[c], code >> 3) >> (code & 7).astype(np.uint8)
                    new[sel] += (bit & 1).sum(axis=1, dtype=np.int32)
        keep = new >= bar
        cell = added = bar = None  # not held into the next level's peak
        if not keep.all():
            kept = np.flatnonzero(keep)
            prefix, top, new, src = np.take(prefix, kept, axis=0), top[kept], new[kept], src[kept]
        rows = np.empty((len(new), j), dtype=dtype)
        rows[:, : j - 1] = prefix
        rows[:, j - 1] = top
        counts = new
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
    npos: int, faces: list[np.ndarray], k: int, floor: int
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts) of the k-rows of positions 0..npos-1 that span >= floor
    faces of dimension >= 1, in colex order; faces as _span_levels takes them.

    Exactly the rows of combination_array(npos, k) whose dim_ge1_counts
    reach the floor, with those counts.
    """
    for rows, counts in _span_levels(npos, faces, k, floor):
        pass  # each level replaces the last, so one level is held at a time
    return rows, counts


def _guard(total: int, limit: int) -> None:
    if total > limit:
        raise ResourceLimitError(
            f"scan of {total} subsets exceeds the limit {limit}; "
            "raise --limit-subsets to force it"
        )


def _greedy_span(npos: int, faces: list[np.ndarray], k: int) -> int:
    """Span of a deterministic greedy k-set of positions, faces as
    _span_levels takes them, with every position on a face.

    From each of the 3 positions on the most faces, add the position that
    adds the most faces, the lowest on a tie, until the set has k.  Each
    such set is a row of the active scan, so its span is a floor that the
    maximum row reaches.  Gains are kept as the set grows: each face holds
    the count and the sum of its positions not yet chosen, and a face left
    with one such position adds one to that position's gain.
    """
    size = np.concatenate([np.full(len(f), f.shape[1]) for f in faces])
    flat = np.concatenate([f.ravel() for f in faces])
    order = np.argsort(flat, kind="stable")
    # the faces through position v are through[bound[v] : bound[v + 1]]
    through = np.repeat(np.arange(len(size)), size)[order]
    bound = np.searchsorted(flat[order], np.arange(npos + 1))
    total = np.concatenate([f.sum(axis=1) for f in faces])
    best = 0
    for start in np.argsort(-np.diff(bound), kind="stable")[:3].tolist():
        outside, rest = size.copy(), total.copy()
        gain = np.zeros(npos, dtype=np.int64)  # -1 once chosen
        span, v = 0, start
        for _ in range(k - 1):
            gain[v] = -1
            fs = through[bound[v] : bound[v + 1]]
            outside[fs] -= 1
            rest[fs] -= v
            gain += np.bincount(rest[fs[outside[fs] == 1]], minlength=npos)
            v = int(np.argmax(gain))
            span += int(gain[v])
        best = max(best, span)
    return best


def active_span_counts(
    faces: list[np.ndarray], m: int, floor: int | None, limit: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(vertices, rows, counts) of the k-subsets of the active vertices
    that span >= min(floor, g) faces of dimension >= 1, where g is the span
    of a greedy k-set; a floor of None is g.  faces hold labels, one
    (F, d + 1) array per dimension 1..dim with rows ascending, as
    face_labels gives them.

    k = min(m, number of active vertices); None when k < 2, where no subset
    spans a face of dimension >= 1.  An m-set spans exactly what its active
    part spans, so these rows decide every m-set of the complex.  The greedy
    set is a row, so the rows always hold the maximum span, and when no row
    reaches the floor, every row from g up is present.  The limit applies
    to all C(active, k) subsets, before any work.
    """
    active = _edge_ends(faces)
    k = min(m, len(active))
    if k < 2:
        return None
    _guard(math.comb(len(active), k), limit)
    pos = [np.searchsorted(active, f) for f in faces]
    greedy = _greedy_span(len(active), pos, k)
    floor = greedy if floor is None else min(floor, greedy)
    return active, *floor_span_rows(len(active), pos, k, floor)


def span_max(faces: list[np.ndarray], m: int, limit: int) -> int:
    """The most faces of dimension >= 1 that an m-set spans, faces as
    active_span_counts takes them; 0 when fewer than two vertices are active."""
    scanned = active_span_counts(faces, m, None, limit)
    return 0 if scanned is None else int(scanned[2].max())


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


def exact_shatter_value(cx: SimplicialComplex, m: int) -> int:
    """f(m) of the complex viewed as a set system with the empty set included.

    Equals 1 + max span over m-subsets; the maximum always pads with plain
    vertices, so only subsets of edge-covered vertices need enumerating, and
    only those reaching a greedy set's span.  Past DEFAULT_SUBSET_LIMIT
    subsets it raises.
    """
    span = span_max(face_labels(cx), m, DEFAULT_SUBSET_LIMIT)
    return shatter_from_span(len(cx.faces_of_dim(0)), m, span)


def shatter_from_span(vertices: int, m: int, span: int) -> int:
    """f(m) of a complex with the given number of vertices when span is the
    most faces of dimension >= 1 that an m-subset spans: the empty set, the
    min(m, vertices) vertices that the best m-set can hold, and those faces."""
    return 1 + min(m, vertices) + span


def _edge_ends(faces: list[np.ndarray]) -> np.ndarray:
    """The labels on an edge, ascending, faces as active_span_counts takes
    them: in a downward-closed complex, the vertices on any face."""
    return np.flatnonzero(np.bincount(faces[0].ravel())) if faces else np.zeros(0, dtype=np.intp)


def active_vertices(cx: SimplicialComplex) -> list[int]:
    """Vertices incident to at least one face of dimension >= 1."""
    return _edge_ends(face_labels(cx)).tolist()
