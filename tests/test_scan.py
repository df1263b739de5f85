import math
import random
from itertools import combinations

import numpy as np
import pytest

from shatterlab import scan
from shatterlab._bits import bits
from shatterlab.complexes import SimplicialComplex
from shatterlab.errors import ResourceLimitError
from shatterlab.randgen import sample_complex
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


def test_scan_limit_guard():
    cx = sample_complex(40, 1, 0.4, 1)
    with pytest.raises(ResourceLimitError):
        scan.max_dim_ge1_span(cx, 10, limit=10_000)


def test_active_vertices():
    cx = SimplicialComplex.from_facets(6, [[0, 1], [3]])
    assert scan.active_vertices(cx) == [0, 1]
