import functools
import operator
import random
from fractions import Fraction
from itertools import combinations

import pytest

from shatterlab._bits import bits, facets_present, mask_of
from shatterlab.complexes import (
    SimplicialComplex,
    delta_d,
    format_complex_json,
    overlap_witness,
    parse_complex_json,
    span_count,
)
from shatterlab.dtree import build_Tr, sigma_mask
from shatterlab.errors import EmptyDomainError, InvalidArgumentError, ResourceLimitError
from shatterlab.randgen import materialize, prune_bad_msets, sample_levels


def random_complex(rng, n_max=9, facet_tries=8):
    n = rng.randint(2, n_max)
    facets = []
    for _ in range(rng.randint(1, facet_tries)):
        size = rng.randint(1, min(4, n))
        facets.append(rng.sample(range(n), size))
    return SimplicialComplex.from_facets(n, facets)


def test_from_facets_closure():
    cx = SimplicialComplex.from_facets(4, [[0, 1, 2]])
    assert len(cx.faces) == 7
    assert cx.dimension == 2
    assert all(facets_present(cx.faces | {0}, f) for f in cx.faces)  # closure holds


def _facets_by_pairwise_scan(cx):
    """Facets found by comparing each face, from the top dimension down, with
    every facet found so far."""
    out = []
    for d in range(cx.dimension, -1, -1):
        for f in cx.faces_of_dim(d):
            if not any(f != g and f & g == f for g in out):
                out.append(f)
    return sorted(out)


def test_facets_match_the_pairwise_scan():
    rng = random.Random(11)
    complexes = [SimplicialComplex(3, []), SimplicialComplex.from_facets(1, [[0]])]
    complexes += [random_complex(rng, 12, 12) for _ in range(300)]
    for _ in range(20):
        n = rng.randint(8, 14)
        tops = [rng.sample(range(n), rng.randint(1, 8)) for _ in range(rng.randint(1, 5))]
        complexes.append(SimplicialComplex.from_facets(n, tops))
    for d, q, r in [(1, 3, 2), (2, 5, 3), (3, 4, 0), (2, 40, 7)]:
        complexes.append(build_Tr(d, q, r).complex)
    for cx in complexes:
        assert cx.facets() == _facets_by_pairwise_scan(cx)


def test_vertex_mask_is_the_union_of_the_vertices():
    # on random complexes, on sampled ones and on those pruning left, where
    # the ambient range keeps vertices that are no longer faces
    rng = random.Random(5)
    complexes = [SimplicialComplex(3, []), SimplicialComplex(6, [0b100, 0b10000, 0b10100])]
    complexes += [random_complex(rng, 12, 12) for _ in range(200)]
    for seed in range(6):
        cx = materialize(sample_levels(24, 2, Fraction(1, 3), seed, collect=True))
        complexes += [cx, prune_bad_msets(cx, 6, 16).complex]
    assert any(cx.vertex_mask != (1 << cx.n) - 1 for cx in complexes[-12:])
    for cx in complexes:
        assert cx.vertex_mask == functools.reduce(operator.or_, cx.faces_of_dim(0), 0)
        assert cx.vertices() == [bits(f)[0] for f in cx.faces_of_dim(0)]


def degree(cx, sigma, d):
    """Reference for delta_d: the d-simplices containing the (d-1)-face sigma
    (a mask or labels), found by adding each vertex outside sigma."""
    smask = sigma if isinstance(sigma, int) else mask_of(sigma)
    assert smask.bit_count() == d and smask in cx
    return sum(1 for v in bits(cx.vertex_mask & ~smask) if smask | (1 << v) in cx)


def test_degree_T0_example():
    t0 = build_Tr(2, 5, 0)
    # edge {0,1} lies in the single triangle {0,1,2}
    assert degree(t0.complex, [0, 1], 2) == 1
    assert delta_d(t0.complex, 2) == 1


def test_degree_full_simplex():
    d = 3
    cx = SimplicialComplex.from_facets(d + 2, [range(d + 2)])
    for face in cx.faces_of_dim(d - 1):
        assert degree(cx, face, d) == 2


def test_degree_against_superset_recount():
    rng = random.Random(31)
    for _ in range(40):
        cx = random_complex(rng)
        d = rng.randint(1, max(1, cx.dimension))
        lower = cx.faces_of_dim(d - 1)
        if not lower:
            continue
        sigma = rng.choice(lower)
        expected = sum(
            1 for f in cx.faces_of_dim(d) if f & sigma == sigma
        )
        assert degree(cx, sigma, d) == expected


def test_delta_d_edge_cases():
    cx = SimplicialComplex.from_facets(3, [[0, 1]])
    assert delta_d(cx, 2) == 0  # the edge extends to no triangle
    with pytest.raises(EmptyDomainError):
        delta_d(cx, 3)  # no 2-simplices to take degrees of


def test_delta_d_is_the_least_reference_degree():
    # random complexes, d-trees (each (d-1)-face in few d-faces) and complete
    # complexes (each in n - d of them)
    rng = random.Random(19)
    cases = [random_complex(rng) for _ in range(60)]
    cases += [build_Tr(d, q, r).complex for d, q, r in [(1, 3, 0), (2, 4, 3), (3, 2, 5)]]
    cases += [
        SimplicialComplex.from_facets(n, combinations(range(n), min(n, 4))) for n in range(1, 8)
    ]
    checked = 0
    for cx in cases:
        for d in range(1, cx.dimension + 2):
            lower = cx.faces_of_dim(d - 1)
            assert delta_d(cx, d) == min(degree(cx, s, d) for s in lower)
            checked += 1
    assert checked > 150
    assert delta_d(SimplicialComplex.from_facets(7, combinations(range(7), 4)), 2) == 5


def test_density_T0_full_unrooted_block():
    # the faces of T0 meeting the full unrooted set number 2^d per vertex
    for d, q in [(1, 4), (2, 5), (3, 3)]:
        t0 = build_Tr(d, q, 0)
        s = 0
        for i in range(1, q + 1):
            s |= sigma_mask(d, i)
        assert sum(1 for f in t0.complex.faces if f & s) == (1 << d) * s.bit_count()


def test_tr_roots_nonadjacent_to_rho_and_each_other():
    for d, q, r in [(1, 3, 2), (2, 5, 3), (2, 5, 7), (3, 2, 4)]:
        tree = build_Tr(d, q, r)
        # disjoint, and no edge meets both
        edges = tree.complex.faces_of_dim(1)
        roots = [1 << v for v in bits(tree.roots)]
        for root in roots:
            assert not root & tree.rho
            assert not any(e & root and e & tree.rho for e in edges)
        for a, b in combinations(roots, 2):
            assert not any(e & a and e & b for e in edges)


def test_span_count():
    d = 2
    cx = SimplicialComplex.from_facets(6, [[0, 1, 2], [3], [4], [5]])
    assert span_count(cx, [0, 1, 2]) == 7
    assert span_count(cx, [3, 4, 5]) == 3  # independent set: just the vertices
    rng = random.Random(13)
    for _ in range(30):
        c = random_complex(rng)
        verts = c.vertices()
        s = rng.sample(verts, rng.randint(0, len(verts)))
        smask = mask_of(s)
        expected = sum(1 for f in c.faces if f & ~smask == 0)
        assert span_count(c, s) == expected


def test_overlap_three_triangles_through_a_vertex():
    cx = SimplicialComplex.from_facets(7, [[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    w = overlap_witness(cx, [0], 2, 7)
    assert w.vertex_set == (1 << 7) - 1
    assert w.count == 19  # 7 vertices + 9 edges + 3 triangles
    assert w.count >= min(3, 3 * (7 - 2))


def test_overlap_all_fit_branch():
    # N(d+1-|rho|) + |rho| <= m: witness holds all N simplices, count >= N
    cx = SimplicialComplex.from_facets(9, [[0, 1, 2], [0, 3, 4], [0, 5, 6], [0, 7, 8]])
    w = overlap_witness(cx, [0], 2, 9)
    assert w.vertex_set.bit_count() == 9
    assert w.count >= 4


def test_overlap_errors():
    cx = SimplicialComplex.from_facets(4, [[0, 1], [2, 3]])
    with pytest.raises(EmptyDomainError):
        overlap_witness(cx, [0], 2, 4)  # no triangles at all
    with pytest.raises(InvalidArgumentError):
        overlap_witness(cx, [0, 1], 1, 3)  # rho not lower-dimensional
    with pytest.raises(InvalidArgumentError):
        overlap_witness(cx, [0], 1, 1)  # m <= d


def test_complex_json_round_trip():
    rng = random.Random(2)
    for _ in range(20):
        cx = random_complex(rng)
        assert parse_complex_json(format_complex_json(cx)) == cx


def test_closure_limit_counts_faces_built():
    # 7 faces under the triangle, 3 under the edge: 10 built, 9 distinct
    facets = [[0, 1, 2], [2, 3]]
    assert len(SimplicialComplex.from_facets(4, facets, limit=10)) == 9
    with pytest.raises(ResourceLimitError):
        SimplicialComplex.from_facets(4, facets, limit=9)
    text = '{"n": 4, "facets": [[0, 1, 2], [2, 3]]}'
    assert parse_complex_json(text, limit=10) == SimplicialComplex.from_facets(4, facets)
    with pytest.raises(ResourceLimitError):
        parse_complex_json(text, limit=9)
