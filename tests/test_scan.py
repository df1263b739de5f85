import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shatterlab import scan
from shatterlab._bits import bits, mask_of
from shatterlab.complexes import SimplicialComplex
from shatterlab.errors import DEFAULT_SUBSET_LIMIT, ResourceLimitError
from shatterlab.randgen import (
    PruneResult,
    materialize,
    prune_bad_msets,
    sample_complex,
    sample_levels,
)
from shatterlab.scan import max_possible_dim_ge1_span
from shatterlab.setsystem import shatter_value


def test_combination_array_matches_itertools():
    for n, m in [(1, 1), (5, 0), (6, 3), (8, 4), (9, 2), (7, 7)]:
        arr = scan.combination_array(n, m)
        expected = [tuple(c) for c in combinations(range(n), m)]
        # colex order sorts by reversed tuple
        expected.sort(key=lambda c: tuple(reversed(c)))
        assert arr.shape == (math.comb(n, m), m)
        assert [tuple(int(x) for x in row) for row in arr] == expected


def pure_dim_ge1_count(cx, ys):
    s = set(ys)
    return sum(
        1
        for f in cx.faces
        if f.bit_count() >= 2 and set(bits(f)) <= s
    )


def test_dim_ge1_counts_against_pure_python():
    rng = random.Random(1)
    for trial in range(8):
        n = rng.randint(5, 12)
        cx = sample_complex(n, 2, 0.45, trial)
        m = rng.randint(2, min(5, n))
        verts = np.arange(n, dtype=np.int16)
        combos = scan.combination_array(n, m)
        counts = scan.dim_ge1_counts(cx, combos, verts)
        for idx in rng.sample(range(len(combos)), min(40, len(combos))):
            ys = [int(x) for x in combos[idx]]
            assert counts[idx] == pure_dim_ge1_count(cx, ys)


def test_dim_ge1_counts_large_labels():
    # the scan is indexed by position in the vertex list: labels past int16,
    # triangles and tetrahedra at n > 63, and a vertex list that leaves out
    # vertex 3, 64 and 79, so the faces through them must not count
    big = 40_000
    cases = [
        (big + 10, [[big, big + 3, big + 7], [5, big], [big + 3, big + 9]], None),
        (80, [[0, 1, 2, 3], [1, 2, 70], [70, 71, 72, 79], [2, 70], [64, 65]], None),
        (80, [[0, 1, 2, 3], [1, 2, 70], [70, 71, 72, 79], [2, 70], [64, 65]],
         [0, 1, 2, 65, 70, 71, 72]),
    ]
    for n, facets, subset in cases:
        cx = SimplicialComplex.from_facets(n, facets)
        verts = subset or cx.vertices()
        for m in range(2, 6):
            combos = scan.combination_array(len(verts), m)
            counts = scan.dim_ge1_counts(cx, combos, np.asarray(verts))
            spans = [pure_dim_ge1_count(cx, [verts[i] for i in row]) for row in combos.tolist()]
            assert counts.tolist() == spans
            assert scan.max_dim_ge1_span(cx, m, vertices=subset) == max(spans)
            if subset is None:
                # m of the complex's vertices give the most traces: each is a face
                assert scan.exact_shatter_value(cx, m) == 1 + m + max(spans)


def test_max_dim_ge1_span():
    cx = SimplicialComplex.from_facets(7, [[0, 1, 2], [4, 5]])
    assert scan.max_dim_ge1_span(cx, 3) == 4  # the triangle and its edges
    assert scan.max_dim_ge1_span(cx, 2) == 1


def test_exact_shatter_matches_setsystem():
    rng = random.Random(4)
    for trial in range(10):
        n = rng.randint(4, 12)
        cx = sample_complex(n, 2, rng.random() * 0.7, trial)
        view = cx.as_setsystem()
        for m in range(0, min(n, 6) + 1):
            assert scan.exact_shatter_value(cx, m) == shatter_value(view, m)


def test_exact_shatter_after_vertex_removal():
    # pruned-style complex: missing singletons shrink the vertex contribution
    cx = SimplicialComplex.from_facets(6, [[0, 1], [2]])  # vertices 3,4,5 absent
    view = cx.as_setsystem()
    for m in range(0, 7):
        assert scan.exact_shatter_value(cx, m) == shatter_value(view, m)


def test_scan_limit_guard(monkeypatch):
    monkeypatch.setattr(scan, "DEFAULT_SUBSET_LIMIT", 10_000)
    cx = sample_complex(40, 1, 0.4, 1)
    with pytest.raises(ResourceLimitError):
        scan.max_dim_ge1_span(cx, 10)


def test_active_vertices():
    cx = SimplicialComplex.from_facets(6, [[0, 1], [3]])
    assert scan.active_vertices(cx) == [0, 1]


# -- the floor scan against the full scan ---------------------------------------


def reference_counts(cx, verts, k, chunk=1 << 16):
    """Every k-row of positions into verts with its span, by the full scan."""
    combos = scan.combination_array(len(verts), k)
    if k == 0:
        return combos, np.zeros(1, dtype=np.int32)
    parts = [
        scan.dim_ge1_counts(cx, combos[lo : lo + chunk], np.asarray(verts))
        for lo in range(0, len(combos), chunk)
    ]
    return combos, np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)


def positions(cx, verts):
    """The faces of cx inside verts, one (F, d + 1) array of positions into
    verts per dimension 1..cx.dimension, each row ascending."""
    at = {int(v): i for i, v in enumerate(verts)}
    return [
        np.array(
            [sorted(at[v] for v in bits(f)) for f in cx.faces_of_dim(d) if set(bits(f)) <= set(at)],
            dtype=np.intp,
        ).reshape(-1, d + 1)
        for d in range(1, cx.dimension + 1)
    ]


def floor_span_rows(cx, verts, k, floor):
    """The floor scan over a vertex list of cx."""
    return scan.floor_span_rows(len(verts), positions(cx, verts), k, floor)


def span_levels(cx, verts, k, floor):
    """The levels of the floor scan over a vertex list of cx."""
    return scan._span_levels(len(verts), positions(cx, verts), k, floor)


def assert_floor_scan(cx, verts, k, floors=None):
    """floor_span_rows equals the full scan filtered by >= floor, for every
    floor from -1 to one past the maximum span, or for the given floors.
    Returns the maximum span."""
    combos, counts = reference_counts(cx, verts, k)
    top = int(counts.max()) if len(counts) else 0
    for floor in floors if floors is not None else range(-1, top + 2):
        rows, got = floor_span_rows(cx, np.asarray(verts), k, floor)
        keep = counts >= floor
        assert rows.shape == (int(keep.sum()), k)
        assert np.array_equal(rows, combos[keep])
        assert np.array_equal(got, counts[keep])
    return top


def random_complexes(seed, count, max_n=20):
    rng = random.Random(seed)
    for trial in range(count):
        t = trial % 3 + 1
        n = rng.randint(t + 2, max_n)
        p = Fraction(rng.randint(3, 9), 10)
        yield sample_complex(n, t, p, rng.randrange(1 << 30))


def test_floor_scan_matches_full_scan_on_random_complexes():
    for cx in random_complexes(11, 9):
        active = scan.active_vertices(cx)
        for k in range(2, 7):
            if k <= len(active):
                assert_floor_scan(cx, active, k)
        # every vertex, isolated ones included, as positions
        assert_floor_scan(cx, list(range(cx.n)), 4)
    # t = 4, so a size-5 bitmap: 87 triangles, 41 tetrahedra and two
    # 4-simplices on 12 vertices; k = 11 > npos - 3 leaves each c-bitmap
    # larger than the C(12, 11) rows it counts for
    cx = sample_complex(12, 4, Fraction(4, 5), 4)
    assert len(cx.faces_of_dim(4)) == 2 and len(scan.active_vertices(cx)) == 12
    for k in (5, 6, 11):
        assert_floor_scan(cx, scan.active_vertices(cx), k)


def live_levels(cx, verts, k, floor):
    """The levels of the floor scan by its live rule, from the full scan.

    Level j holds the j-rows P + {v} whose prefix P is on level j-1, whose
    top v leaves room for r = k - j larger positions, and that satisfy
    span + r * gain(1 + s) + ceiling(k) - ceiling(j) - r * gain(j) >= floor,
    where s is the most edges that a position above v has into P, counted
    here from the adjacency, and gain(e) is the number of sets of 1..dim of
    e neighbours.
    """
    npos, dim = len(verts), cx.dimension
    ceiling = [max_possible_dim_ge1_span(j, dim) for j in range(k + 1)]

    def gain(e):
        return sum(math.comb(e, s) for s in range(1, min(dim, e) + 1))

    at = {int(v): i for i, v in enumerate(verts)}
    adj = np.zeros((npos, npos), dtype=np.int64)
    for f in cx.faces_of_dim(1):
        u, v = bits(f)
        if u in at and v in at:
            adj[at[u], at[v]] = adj[at[v], at[u]] = 1
    # colex rank of a row: sum of C(row[i], i + 1)
    binom = np.array([[math.comb(x, i + 1) for i in range(k)] for x in range(npos)])
    levels, live = [], np.array([ceiling[k] >= floor])
    for j in range(k + 1):
        combos, spans = reference_counts(cx, verts, j)
        if j:
            r, top, prefix = k - j, combos[:, -1], combos[:, :-1]
            parent = binom[prefix, np.arange(j - 1)].sum(axis=1)
            into = adj[:, prefix].sum(axis=2)  # into[w, row]: edges from w into the prefix
            s = np.where(np.arange(npos)[:, None] > top, into, 0).max(axis=0)
            bonus = np.array([r * gain(1 + x) for x in s], dtype=np.int64)
            live = (live[parent] & (top <= npos - 1 - r)
                    & (spans + bonus + ceiling[k] - ceiling[j] - r * gain(j) >= floor))
        levels.append((combos[live], spans[live]))
    return levels


def assert_levels(cx, verts, k, floor):
    """Each level of the floor scan is exactly the one its live rule gives."""
    levels = list(span_levels(cx, np.asarray(verts), k, floor))
    assert len(levels) == k + 1
    for j, ((rows, counts), (want, spans)) in enumerate(
        zip(levels, live_levels(cx, verts, k, floor))
    ):
        assert len(rows) <= math.comb(len(verts), j)
        assert np.array_equal(rows, want)
        assert np.array_equal(counts, spans)


def test_floor_scan_levels_hold_exactly_the_live_prefixes():
    # the bound may not be looser or tighter by one edge or one face
    for cx in random_complexes(12, 6, max_n=14):
        verts = scan.active_vertices(cx)
        for k in range(2, min(6, len(verts)) + 1):
            ceiling = max_possible_dim_ge1_span(k, cx.dimension)
            for floor in (-1, 1, ceiling // 2, ceiling - 1, ceiling + 1):
                assert_levels(cx, verts, k, floor)
    # the 1 + is tight: in a triangle of edges, vertex 2 has s = 1 edge into
    # the prefix {0} of {0, 1}, and 2 into {0, 1}; only with 1 + s does
    # {0, 1} (span 1) reach the floor 3 that the whole triangle meets
    triangle = SimplicialComplex.from_facets(3, [[0, 1], [1, 2], [0, 2]])
    assert len(list(span_levels(triangle, np.arange(3), 3, 3))[2][0]) == 1
    assert_levels(triangle, [0, 1, 2], 3, 3)
    # dimension 2, k = 4: {0, 1, 2} spans 4 faces and vertex 3 has s = 1
    # edge into {0, 1}, so at most 2 into {0, 1, 2}; it closes at most
    # gain(2) = 2 + C(2, 2) = 3 faces, the slack is 10 - 4 - gain(3) = 0,
    # and floor 8 drops the row at 7, which without the C(e, 2) terms
    # would read 4 + 2 + (10 - 4 - 3) = 9
    cx = SimplicialComplex.from_facets(5, [[0, 1, 2], [0, 3], [3, 4]])
    for floor in (6, 7, 8):
        assert_levels(cx, range(5), 4, floor)
    levels = list(span_levels(cx, np.arange(5), 4, 8))
    assert len(levels[3][0]) == 0
    # 4-simplices, at k = 6 and at k = npos - 1
    cx = sample_complex(12, 4, Fraction(4, 5), 4)
    for k, floor in ((6, 20), (6, 40), (11, 130), (11, 160)):
        assert_levels(cx, range(12), k, floor)
    # a list out of label order that leaves vertices out
    cx = sample_complex(11, 2, Fraction(1, 2), 4)
    for floor in range(-1, 12):
        assert_levels(cx, [9, 0, 10, 3, 5, 1, 7, 2], 5, floor)


def test_floor_scan_multiword_positions_and_large_labels():
    big = 40_000
    tets = [[0, 1, 2, 3], [1, 2, 70], [70, 71, 72, 79], [2, 70], [64, 65, 66, 67],
            [60, 64, 66], [5, 63, 64], [65, 66, 78, 79], [76, 77, 78, 79]]
    cases = [
        (SimplicialComplex.from_facets(80, tets), list(range(80)), (2, 3)),
        # a vertex list past 64 positions that leaves out vertices 3, 64 and 79
        (SimplicialComplex.from_facets(80, tets),
         [v for v in range(80) if v not in (3, 64, 79)], (3,)),
        (SimplicialComplex.from_facets(80, tets),
         [0, 1, 2, 3, 5, 60, 63, 64, 65, 66, 67, 70, 71, 72, 78, 79], (2, 3, 4, 5)),
        (SimplicialComplex.from_facets(
            big + 10,
            [[big, big + 3, big + 7], [5, big], [big + 3, big + 9],
             [big, big + 1, big + 2, big + 3]],
        ), None, (2, 3, 4, 5)),
    ]
    for cx, verts, ks in cases:
        verts = verts if verts is not None else cx.vertices()
        for k in ks:
            assert_floor_scan(cx, verts, k)
    # tetrahedra at k = 4 in a 68-position list: labels 76..79 sit at
    # positions 64..67, so {65, 66, 78, 79} tests two words and
    # {76, 77, 78, 79} only the second
    cx = SimplicialComplex.from_facets(80, tets)
    verts = [0, 1, 2, 5] + list(range(16, 80))
    assert assert_floor_scan(cx, verts, 4, floors=(-1, 1, 3, 7, 8, 10, 11, 12)) == 11


def test_floor_scan_floor_no_row_reaches():
    cx = SimplicialComplex.from_facets(9, [[0, 1, 2], [2, 3], [5, 6, 7, 8]])
    verts = np.asarray(cx.vertices())
    for k, floor in ((2, 2), (3, 5), (4, 12), (4, 100)):
        rows, counts = floor_span_rows(cx, verts, k, floor)
        assert rows.shape == (0, k) and len(counts) == 0
    # past the ceiling nothing is built at all
    assert all(len(rows) == 0 for rows, _ in span_levels(cx, verts, 4, 12))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_floor_scan_is_the_full_scan_filtered_at_every_floor(data):
    # dimension <= 3 on up to 12 vertices; the list may hold isolated
    # vertices and leave out others, in any order, and k runs to its length
    n = data.draw(st.integers(1, 12))
    dim = data.draw(st.integers(0, 3))
    facets = data.draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=dim + 1), max_size=10)
    )
    cx = SimplicialComplex.from_facets(n, facets)
    verts = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    k = data.draw(st.integers(0, len(verts)))
    assert_floor_scan(cx, np.asarray(verts, dtype=np.int64), k)


def test_floor_scan_past_255_positions():
    # a row's edge counts reach 256 and more, past 8 bits: K_258 less some
    # disjoint edges, so that degrees, and with them spans, differ
    n = 258
    gone = {(v, v + 1) for v in range(0, 200, 2)} | {(v, v + 2) for v in range(201, 240, 4)}
    cx = SimplicialComplex.from_facets(
        n, [[u, v] for v in range(n) for u in range(v) if (u, v) not in gone]
    )
    for verts, k in ((list(range(n)), 257), (list(range(1, n)), 256)):
        within = mask_of(verts)
        inside = [bits(f) for f in cx.faces_of_dim(1) if f & within == f]
        degree = dict.fromkeys(verts, 0)
        for u, v in inside:
            degree[u] += 1
            degree[v] += 1
        # the k-rows leave out one position x each, in colex order from the last x
        want = [(tuple(i for i in range(k + 1) if i != x), len(inside) - degree[verts[x]])
                for x in reversed(range(k + 1))]
        spans = sorted({span for _, span in want})
        for floor in (0, spans[1], spans[-1]):
            rows, counts = floor_span_rows(cx, np.asarray(verts), k, floor)
            kept = [(row, span) for row, span in want if span >= floor]
            assert 0 < len(kept) and (floor == 0) == (len(kept) == k + 1)
            assert [tuple(row) for row in rows.tolist()] == [row for row, _ in kept]
            assert counts.tolist() == [span for _, span in kept]


def test_position_dtype_fits_positions():
    assert scan._position_dtype(32767) == np.int16
    assert scan._position_dtype(32768) == np.int32
    arr = scan.combination_array(40_000, 1)
    assert arr.dtype == np.int32 and int(arr[-1, 0]) == 39_999
    # no faces of dimension >= 1: no adjacency and no bitset words are built
    cx = SimplicialComplex(40_000, [1 << v for v in range(0, 40_000, 7)])
    rows, counts = floor_span_rows(cx, np.arange(40_000), 1, 0)
    assert rows.dtype == np.int32
    assert np.array_equal(rows[:, 0], np.arange(40_000)) and not counts.any()
    rows, _ = floor_span_rows(cx, np.arange(100), 2, 0)
    assert rows.dtype == np.int16 and len(rows) == math.comb(100, 2)


def test_over_limit_scan_raises_before_allocating():
    # C(60, 12) subsets: past a limit of 10^6 from the sample's arrays, and
    # past DEFAULT_SUBSET_LIMIT from the complex
    sample = sample_levels(60, 1, Fraction(1, 2), 2, collect=True)
    cx = materialize(sample)
    faces = scan.face_labels(cx)
    calls = [
        (lambda: scan.active_span_counts(faces, 12, 1, 10**6), 10**6),
        (lambda: scan.span_max(sample.faces(), 12, 10**6), 10**6),
        (lambda: sample.prune(12, 2, 10**6), 10**6),
        (lambda: scan.exact_shatter_value(cx, 12), DEFAULT_SUBSET_LIMIT),
        (lambda: prune_bad_msets(cx, 12, 2), DEFAULT_SUBSET_LIMIT),
    ]
    for call, limit in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=rf"exceeds the limit {limit}; raise"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def test_pair_scan_reads_the_adjacency_as_its_level_1_edge_counts():
    # k = 2 over 1,500 positions: level 1 holds the npos^2-byte adjacency
    # and no second array of that size (no copy, and no suffix maxima with
    # a single position left to add)
    npos = 1500
    u, v = np.triu_indices(npos, 1)
    chosen = np.random.default_rng(3).random(len(u)) < 0.02
    cx = SimplicialComplex(npos, [1 << x for x in range(npos)] + [
        1 << a | 1 << b for a, b in zip(u[chosen].tolist(), v[chosen].tolist())
    ])
    levels = span_levels(cx, np.arange(npos), 2, 1)
    tracemalloc.start()
    try:
        next(levels)
        rows, _ = next(levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == npos - 1
    assert npos * npos <= peak < 1.5 * npos * npos


def test_higher_face_test_memory_is_bounded():
    # k = 3, floor 1 over the 200 active vertices of a t = 2 sample with
    # 15,218 triangles: level 3 has 1,313,400 candidates and looks up the
    # triangle codes of the rows that pass the room prefilter, a chunk at a
    # time.  Against the same level without the triangles, the level adds
    # the tested rows' indexes and one chunk's codes, about 3 bytes per
    # candidate; row bitsets and (row, face) pairs took about 37
    sample = sample_levels(200, 2, Fraction(1, 3), 5, collect=True)
    faces = sample.faces()
    active = np.unique(faces[0])
    positions = [np.searchsorted(active, f) for f in faces]
    assert len(active) == 200 and len(positions[1]) == 15_218

    def level_3(faces):
        levels = scan._span_levels(len(active), faces, 3, 1)
        for _ in range(3):
            below, _ = next(levels)
        tracemalloc.start()
        try:
            rows, _ = next(levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return below, rows, peak

    below, rows, peak = level_3(positions)
    _, edge_rows, edge_peak = level_3(positions[:1])
    candidates = int(np.searchsorted(below[:, -1], np.arange(2, len(active))).sum())
    assert candidates == 1_313_400 and len(rows) == len(edge_rows) == 913_449
    assert peak - edge_peak < candidates * 8
    # before level 1, at 392 positions, the most with C(npos, 3) <= 10^7:
    # the adjacency and the triangle bitmap, C(392, 3) / 8 bytes, and a few
    # bytes per face while the codes are set; a byte per code would add
    # C(392, 3), about 10^7.  Every vertex is active, so labels are positions
    sample = sample_levels(392, 2, Fraction(1, 3), 5, collect=True)
    faces = sample.faces()
    npos = len(np.unique(faces[0]))
    assert npos == 392 and math.comb(npos, 3) <= 10**7 < math.comb(npos + 1, 3)
    tracemalloc.start()
    try:
        next(scan._span_levels(npos, faces, 3, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < npos**2 + math.comb(npos, 3) / 8 + 12 * sum(map(len, faces))


# -- the pruning and f(m) callers against the full scan -------------------------


def reference_prune(cx, m, z, *, limit=DEFAULT_SUBSET_LIMIT):
    """prune_bad_msets as it was before the floor scan: every active k-row
    is counted, and the rows at or above z are the bad sets; when there are
    none, the largest count is the span maximum."""
    zc = math.ceil(Fraction(z))
    if max_possible_dim_ge1_span(m, cx.dimension) < zc:
        return PruneResult(cx, (), 0, 0, True)
    active = scan.active_vertices(cx)
    k = min(m, len(active))
    if k < 2:
        return PruneResult(cx, (), 0, 0, False, 0)
    if math.comb(len(active), k) > limit:
        raise ResourceLimitError("over the limit")
    verts = np.asarray(active)
    combos = scan.combination_array(len(active), k)
    counts = scan.dim_ge1_counts(cx, combos, verts)
    bad = np.nonzero(counts >= zc)[0]
    if not len(bad):
        return PruneResult(cx, (), 0, len(combos), False, int(counts.max()))
    removed = mask_of(int(v) for v in np.unique(verts[combos[bad]]))
    faces = {f for f in cx.faces if not f & removed}
    pruned = SimplicialComplex(cx.n, faces)
    return PruneResult(pruned, tuple(bits(removed)), int(len(bad)), len(combos), False)


def reference_exact_shatter_value(cx, m):
    """exact_shatter_value as it was before the floor scan: 1 + min(m, vertices)
    + the largest span over every active k-row."""
    vcount = len(cx.faces_of_dim(0))
    if m == 0 or vcount == 0:
        return 1
    base = 1 + min(m, vcount)
    active = scan.active_vertices(cx)
    k = min(m, len(active))
    if k < 2:
        return base
    combos = scan.combination_array(len(active), k)
    return base + int(scan.dim_ge1_counts(cx, combos, np.asarray(active)).max())


def test_prune_and_exact_match_full_scan_references():
    rng = random.Random(21)
    for cx in random_complexes(13, 24):
        for m in range(1, 7):
            assert scan.exact_shatter_value(cx, m) == reference_exact_shatter_value(cx, m)
        for _ in range(4):
            m = rng.randint(2, min(6, cx.n))
            z = Fraction(rng.randint(4, 4 * max_possible_dim_ge1_span(m, cx.dimension) + 4), 4)
            got = prune_bad_msets(cx, m, z)
            assert got == reference_prune(cx, m, z)
            pruned = got.complex
            for m2 in (m, m - 1):
                want = reference_exact_shatter_value(pruned, m2)
                assert scan.exact_shatter_value(pruned, m2) == want


def greedy_span(cx, active, k):
    """The greedy floor over the active vertices of cx."""
    return scan._greedy_span(len(active), positions(cx, active), k)


def test_greedy_floor_is_a_row_span():
    # the greedy floor never exceeds the maximum, and reaches it on a clique
    for cx in random_complexes(14, 12, max_n=16):
        active = scan.active_vertices(cx)
        for k in range(2, min(6, len(active)) + 1):
            _, counts = reference_counts(cx, active, k)
            assert 0 <= greedy_span(cx, active, k) <= int(counts.max())
    cx = SimplicialComplex.from_facets(12, [[3, 5, 7, 9, 11], [0, 1], [1, 2], [0, 2]])
    assert greedy_span(cx, scan.active_vertices(cx), 4) == 6 + 4 + 1


def test_prune_reports_the_largest_span_when_it_removes_nothing():
    # whenever span_max is set it is what a second scan of the unchanged
    # complex finds, for every (m, z) on complexes of dimension 1 to 3; a
    # complex with no edge, where k < 2, always takes the shortcut
    seen = set()
    cases = list(random_complexes(15, 12, max_n=11))
    cases += [SimplicialComplex(6, [1 << v for v in range(0, 6, 2)]), SimplicialComplex(3, [])]
    for i, cx in enumerate(cases):
        active = scan.active_vertices(cx)
        vertices = len(cx.faces_of_dim(0))
        for m in range(1, min(6, cx.n) + 1):
            k = min(m, len(active))
            greedy = greedy_span(cx, active, k) if k >= 2 else None
            largest = scan.exact_shatter_value(cx, m) - 1 - min(m, vertices)
            assert largest == reference_exact_shatter_value(cx, m) - 1 - min(m, vertices)
            for zc in range(1, max_possible_dim_ge1_span(m, cx.dimension) + 2):
                z = zc - Fraction(1, 3) if zc > 1 and (i + zc) % 2 else Fraction(zc)
                res = prune_bad_msets(cx, m, z)
                if res.shortcut or res.removed_vertices:
                    assert res.span_max is None
                else:
                    assert res.span_max == largest
                if k < 2:
                    assert res.shortcut
                    seen.add("k < 2")
                elif not res.shortcut:
                    seen.add(
                        ("greedy >= z" if greedy >= zc else "greedy < z")
                        + (", removal" if res.removed_vertices else "")
                    )
    assert seen == {"k < 2", "greedy < z", "greedy < z, removal", "greedy >= z, removal"}


def reference_greedy_span(cx, active, k):
    """_greedy_span as it was before it kept its gains: each step recounts,
    for every vertex not chosen, the faces through it whose other vertices
    are all chosen."""
    rests = {v: [] for v in active}  # faces through v, less v
    for d in range(1, cx.dimension + 1):
        for f in cx.faces_of_dim(d):
            for v in bits(f):
                rests[v].append(f ^ (1 << v))
    best = 0
    for start in sorted(active, key=lambda v: -len(rests[v]))[:3]:
        chosen, span = 1 << start, 0
        for _ in range(k - 1):
            gain, pick = max(
                (sum(1 for r in rests[v] if r & chosen == r), -v)
                for v in active
                if not chosen >> v & 1
            )
            chosen |= 1 << -pick
            span += gain
        best = max(best, span)
    return best


def test_greedy_span_matches_its_recounting_reference():
    cases = list(random_complexes(16, 200, max_n=16))
    # ties everywhere: a cycle, disjoint triangles, a clique, a star beside
    # a path, and paths beside a filled triangle
    cases += [
        SimplicialComplex.from_facets(9, [[i, (i + 1) % 9] for i in range(9)]),
        SimplicialComplex.from_facets(12, [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]),
        SimplicialComplex.from_facets(7, [list(range(7))]),
        SimplicialComplex.from_facets(10, [[0, 1], [0, 2], [0, 3], [5, 6], [6, 7], [7, 8]]),
        SimplicialComplex.from_facets(
            10, [[0, 1], [0, 2], [9, 8], [9, 7], [8, 7], [1, 3], [2, 4], [7, 6, 5]]
        ),
    ]
    for cx in cases:
        active = scan.active_vertices(cx)
        for k in range(2, min(6, len(active)) + 1):
            assert greedy_span(cx, active, k) == reference_greedy_span(cx, active, k)
