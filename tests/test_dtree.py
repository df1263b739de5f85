import random
from fractions import Fraction
from itertools import combinations

import pytest

from shatterlab import dtree, verify
from shatterlab._bits import bits
from shatterlab.complexes import SimplicialComplex
from shatterlab.dtree import (
    BRUTE_FORCE_VERTEX_CAP,
    RootedDTree,
    attachment_blocks,
    attachment_order,
    build_Tr,
    contiguous_min_density,
    count_embeddings,
    is_d_tree,
    min_density_bruteforce,
    min_density_formula,
    sigma_mask,
)
from shatterlab.errors import InvalidArgumentError, ResourceLimitError
from shatterlab.search import enumerate_downward_closed


def density(cx, subset):
    """e(S)/|S|, with e(S) the faces meeting S."""
    mask = sum(1 << v for v in subset) if not isinstance(subset, int) else subset
    return Fraction(sum(1 for f in cx.faces if f & mask), mask.bit_count())


def grow(tree, site, rooted):
    """The tree with a new vertex glued to the (d-1)-simplex site."""
    v = tree.complex.n
    cx = SimplicialComplex.from_facets(v + 1, [*tree.complex.facets(), site | 1 << v])
    return RootedDTree(cx, tree.rho, tree.roots | (1 << v if rooted else 0))


def brute_min_density_oracle(tree):
    """Direct reimplementation: loop subsets as tuples, count faces via sets."""
    faces = [frozenset(bits(f)) for f in tree.complex.faces]
    unrooted = bits(tree.unrooted_mask)
    best = None
    for size in range(1, len(unrooted) + 1):
        for sub in combinations(unrooted, size):
            s = set(sub)
            e = sum(1 for f in faces if f & s)
            val = Fraction(e, size)
            if best is None or val < best:
                best = val
    return best


def test_T0_1_1():
    t = build_Tr(1, 1, 0)
    assert t.complex.n == 2
    assert sorted(t.complex.faces) == [1, 2, 3]
    assert len(t.complex.facets()) == 1
    assert t.rho == 1 and t.roots == 0


def test_T0_2_5_shape():
    t = build_Tr(2, 5, 0)
    assert t.complex.n == 12
    assert len(t.complex.faces) == 43
    assert len(t.complex.faces_of_dim(1)) == 21
    assert len(t.complex.facets()) == 10
    facets = {frozenset(bits(f)) for f in t.complex.facets()}
    assert facets == {frozenset({i, i + 1, i + 2}) for i in range(10)}


def test_T0_blocks_are_faces_and_partition():
    for d, q in [(1, 5), (2, 4), (3, 4)]:
        t = build_Tr(d, q, 0)
        union = 0
        for i in range(q + 1):
            sm = sigma_mask(d, i)
            assert sm in t.complex.faces
            assert sm.bit_count() == d
            union |= sm
        assert union == (1 << (d * (q + 1))) - 1
        assert t.unrooted_mask == union ^ sigma_mask(d, 0)


def test_T0_invalid_args():
    with pytest.raises(InvalidArgumentError):
        build_Tr(0, 3, 0)
    with pytest.raises(InvalidArgumentError):
        build_Tr(2, 0, 0)
    with pytest.raises(InvalidArgumentError):
        build_Tr(1, 1, -1)
    with pytest.raises(InvalidArgumentError):
        build_Tr(40, 40, 0)  # facets of 41 labels are never closed


def test_Tr_face_bound_is_checked_before_building():
    # 20 windows of 2^21 - 1 faces each, and 10^8 + 1 edges of 3 faces each
    for d, q, r in [(20, 1, 0), (1, 1, 10**8)]:
        with pytest.raises(ResourceLimitError):
            build_Tr(d, q, r)


def test_Tr_attachment_schedule():
    assert attachment_blocks(5, 3) == (2, 4, 5)
    assert attachment_blocks(5, 0) == ()
    assert attachment_blocks(5, 7) == (3, 5, 1, 2, 3, 4, 5)
    assert attachment_blocks(3, 9) == (1, 2, 3) * 3


def test_Tr_2_5_3():
    t = build_Tr(2, 5, 3)
    assert len(t.complex.facets()) == 13
    assert t.roots.bit_count() == 3
    assert t.complex.n == 2 * 6 + 3
    # roots are fresh labels 12, 13, 14 in attachment order
    assert bits(t.roots) == [12, 13, 14]


def test_Tr_r0_equals_T0():
    # T0 is every non-empty set of spread (max - min) at most d
    for d, q in [(1, 3), (2, 4), (3, 2)]:
        nv = d * (q + 1)
        spread = [m for m in range(1, 1 << nv) if m.bit_length() - (m & -m).bit_length() <= d]
        assert build_Tr(d, q, 0).complex == SimplicialComplex(nv, spread)


def test_Tr_2_5_7():
    t = build_Tr(2, 5, 7)
    assert len(t.complex.facets()) == 2 * 5 + 7
    assert t.roots.bit_count() == 7


def test_canonical_trees_are_d_trees():
    for d, q, r in [(1, 2, 0), (1, 4, 3), (2, 3, 2), (2, 5, 7), (3, 2, 5)]:
        t = build_Tr(d, q, r)
        assert is_d_tree(t.complex, d)


@pytest.mark.parametrize(
    "facets, n",
    [
        ([[0, 1, 2], [3, 4, 5]], 6),  # two disjoint triangles
        ([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], 4),  # tetrahedron boundary, a 2-cycle
        ([[0, 1, 2], [1, 2, 3], [3, 4]], 5),  # a lone edge facet
        ([], 0),  # the empty complex
    ],
    ids=["disjoint", "two-cycle", "lone-edge", "empty"],
)
def test_non_trees_are_not_d_trees(facets, n):
    assert not is_d_tree(SimplicialComplex.from_facets(n, facets), 2)


def reference_is_d_tree(cx, d):
    """The leaf-stripping check that attachment_order replaced: strip a
    vertex lying in exactly one facet until one d-simplex is left."""
    single = (1 << (d + 1)) - 1  # face count of one d-simplex
    faces = set(cx.faces)
    while True:
        if not faces:
            return False
        verts = 0
        for f in faces:
            verts |= f
        facets = [f for f in faces if not any(f != g and f & g == f for g in faces)]
        if any(f.bit_count() != d + 1 for f in facets):
            return False
        if len(facets) == 1:
            return len(faces) == single and verts.bit_count() == d + 1
        leaf = None
        for v in bits(verts):
            vbit = 1 << v
            if sum(1 for f in facets if f & vbit) == 1:
                leaf = vbit
                break
        if leaf is None:
            return False
        faces = {f for f in faces if not f & leaf}


def reference_schedule(tree):
    """The embedding schedule that attachment_order replaced: from rho, glue
    on the least pending facet with exactly one uncovered vertex."""
    facets = tree.complex.facets()
    covered = tree.rho
    schedule = []
    pending = set(facets)
    progress = True
    while pending and progress:
        progress = False
        for f in sorted(pending):
            new = f & ~covered
            if new.bit_count() != 1:
                continue
            schedule.append((new.bit_length() - 1, f ^ new))
            covered |= f
            pending.discard(f)
            progress = True
            break
    assert not pending and covered == tree.complex.vertex_mask
    return schedule


def assert_glued_in_order(cx, d, root, order):
    """Each step adds one new vertex glued to d vertices inside a placed face,
    and the placed facets are exactly the facets of cx."""
    placed, covered = [root], root
    for new, glue in order:
        assert glue.bit_count() == d and not covered >> new & 1
        assert any(glue & p == glue for p in placed)
        placed.append(glue | 1 << new)
        covered |= 1 << new
    assert sorted(p for p in placed if p.bit_count() == d + 1) == cx.facets()


def test_is_d_tree_matches_leaf_stripping_on_every_small_complex():
    pairs = 0
    for n in range(6):
        for code in enumerate_downward_closed(n):
            family = frozenset(bits(code))
            cx = SimplicialComplex(n, family - {0})
            for d in range(5):
                assert is_d_tree(cx, d) == reference_is_d_tree(cx, d), (n, sorted(family), d)
                pairs += 1
    assert pairs == 38_870  # 7,774 families on n = 0..5, five d each


def test_attachment_order_on_grid_trees():
    for d, q, r in verify.grid_cells("full"):
        tree = build_Tr(d, q, r)
        for root in tree.complex.facets():
            assert_glued_in_order(tree.complex, d, root, attachment_order(tree.complex, d, root))
        order = attachment_order(tree.complex, d, tree.rho)
        assert_glued_in_order(tree.complex, d, tree.rho, order)
        assert order == reference_schedule(tree), (d, q, r)


def test_formula_instances():
    assert min_density_formula(2, 5, 3) == Fraction(49, 10)
    assert min_density_formula(1, 4, 3) == 2 + Fraction(3, 4)
    for d in (1, 2, 3):
        assert min_density_formula(d, 3, 0) == 1 << d


def test_bruteforce_examples():
    t = build_Tr(2, 5, 3)
    value, witness = min_density_bruteforce(t)
    assert value == Fraction(49, 10)
    assert witness == t.unrooted_mask

    t0 = build_Tr(1, 2, 0)
    value, witness = min_density_bruteforce(t0)
    assert value == 2
    assert witness == t0.unrooted_mask  # both unrooted vertices

    t1 = build_Tr(2, 1, 0)
    value, _ = min_density_bruteforce(t1)
    assert value == min_density_formula(2, 1, 0)


def test_bruteforce_matches_independent_oracle():
    for d, q, r in [(1, 2, 1), (1, 3, 4), (2, 2, 3)]:
        t = build_Tr(d, q, r)
        value, _ = min_density_bruteforce(t)
        assert value == brute_min_density_oracle(t)


def reference_min_density(tree):
    """The subset loop the transform replaced: every non-empty set of unrooted
    vertices in turn, e(S) from face-incidence bitsets (k <= 12)."""
    unrooted = bits(tree.unrooted_mask)
    assert len(unrooted) <= 12
    faces = sorted(tree.complex.faces)
    inc = [sum(1 << i for i, f in enumerate(faces) if f >> v & 1) for v in unrooted]
    best_e = best_size = best = 0
    for s in range(1, 1 << len(unrooted)):
        acc = 0
        for i in bits(s):
            acc |= inc[i]
        e, size = acc.bit_count(), s.bit_count()
        lhs, rhs = e * best_size, best_e * size
        if best_size == 0 or lhs < rhs:
            better = True
        elif lhs > rhs:
            better = False
        elif size != best_size:
            better = size > best_size  # the largest set
        else:  # then the least vertex list
            better = [unrooted[i] for i in bits(s)] < [unrooted[i] for i in bits(best)]
        if better:
            best_e, best_size, best = e, size, s
    return Fraction(best_e, best_size), sum(1 << unrooted[i] for i in bits(best))


def test_bruteforce_matches_reference_loop_on_grid():
    for d in range(1, 4):
        for q in range(1, 6):
            if d * q > 12:
                continue
            for r in range(2 * q + 2):
                t = build_Tr(d, q, r)
                assert min_density_bruteforce(t) == reference_min_density(t), (d, q, r)


def test_bruteforce_ties_across_sizes():
    # on a rooted path every suffix {j..5} has density exactly 2
    t = build_Tr(1, 5, 0)
    minimizers = [
        size for size in range(1, 6)
        for sub in combinations(bits(t.unrooted_mask), size)
        if density(t.complex, sub) == 2
    ]
    assert sorted(set(minimizers)) == [1, 2, 3, 4, 5]
    assert min_density_bruteforce(t) == reference_min_density(t) == (2, t.unrooted_mask)


def test_bruteforce_matches_reference_loop_on_grown_trees():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(1, 3)
        tree = build_Tr(d, rng.randint(1, 8 // d), 0)
        for _ in range(rng.randint(1, 4)):
            sites = sorted(f for f in tree.complex.faces if f.bit_count() == d)
            tree = grow(tree, rng.choice(sites), rooted=rng.random() < 0.5)
        assert min_density_bruteforce(tree) == reference_min_density(tree)


def test_bruteforce_cap():
    t = build_Tr(3, 7, 0)
    assert t.unrooted_mask.bit_count() == BRUTE_FORCE_VERTEX_CAP + 1
    with pytest.raises(ResourceLimitError):
        min_density_bruteforce(t)


def test_contiguous_examples():
    t = build_Tr(2, 5, 3)
    value, i, j = contiguous_min_density(t)
    assert (value, i, j) == (Fraction(49, 10), 1, 5)

    t0 = build_Tr(2, 5, 0)
    value, i, j = contiguous_min_density(t0)
    assert value == 4 and (i, j) == (1, 5)
    # blocks with j < Q pay the dangling surcharge
    assert density(t0.complex, sigma_mask(2, 1) | sigma_mask(2, 2)) > 4


def test_dangling_count_formula():
    # (d-1)2^d + 1 evaluated directly, and observed on T0 block densities
    assert (2 - 1) * 4 + 1 == 5
    assert (3 - 1) * 8 + 1 == 17
    for d, q in [(2, 4), (3, 3)]:
        t0 = build_Tr(d, q, 0)
        for i in range(1, q):
            for j in range(i, q):
                s = 0
                for b in range(i, j + 1):
                    s |= sigma_mask(d, b)
                size = d * (j - i + 1)
                expected = Fraction((1 << d) * size + (d - 1) * (1 << d) + 1, size)
                assert density(t0.complex, s) == expected


def test_contiguous_requires_canonical():
    t = build_Tr(1, 2, 0)
    bare = RootedDTree(t.complex, t.rho, t.roots, None)
    with pytest.raises(InvalidArgumentError):
        contiguous_min_density(bare)


def test_block_closed_forms_match_actual_density():
    for d, q, r in [(1, 4, 2), (2, 3, 4), (2, 5, 3), (3, 2, 1)]:
        tree = build_Tr(d, q, r)
        attach = tree.params.attachments
        for i in range(1, q + 1):
            for j in range(i, q + 1):
                s = 0
                for b in range(i, j + 1):
                    s |= sigma_mask(d, b)
                actual = density(tree.complex, s)
                size = d * (j - i + 1)
                l_count = sum(1 for a in attach if i <= a <= j)
                e = (1 << d) * size + ((1 << d) - 1) * l_count
                if j < q:
                    e += (d - 1) * (1 << d) + 1
                assert actual == Fraction(e, size), (d, q, r, i, j)


def test_recursion_shift_identity():
    # adding one root per block raises the full-set density by (2^d - 1)/d
    for d, q, r in [(1, 3, 5), (2, 2, 3), (2, 5, 7), (3, 2, 4)]:
        if r < q:
            continue
        t_hi = build_Tr(d, q, r)
        t_lo = build_Tr(d, q, r - q)
        hi, _ = min_density_bruteforce(t_hi)
        lo, _ = min_density_bruteforce(t_lo)
        assert hi == lo + Fraction((1 << d) - 1, d)


def test_balanced_on_grid_samples():
    # balanced: the full unrooted set attains the minimum density
    for d, q, r in [(1, 1, 0), (1, 5, 11), (2, 4, 5), (3, 2, 2)]:
        tree = build_Tr(d, q, r)
        value, witness = min_density_bruteforce(tree)
        assert witness == tree.unrooted_mask
        assert density(tree.complex, witness) == value


def test_lopsided_attachment_checked_against_brute_force():
    # extra unrooted vertex on the last block: balance is whatever brute force
    # says, and the witness is the full set exactly when that is balanced
    lop = grow(build_Tr(2, 5, 0), sigma_mask(2, 5), rooted=False)
    value, witness = min_density_bruteforce(lop)
    full = density(lop.complex, lop.unrooted_mask)
    assert value <= full
    assert (witness == lop.unrooted_mask) == (full == value)


def test_single_vertex_tree_trivially_balanced():
    t = RootedDTree(SimplicialComplex.from_facets(3, [[0, 1, 2]]), 0b11, 0)
    # unrooted set is one vertex; the only candidate attains the minimum
    assert t.unrooted_mask.bit_count() == 1
    assert min_density_bruteforce(t) == (Fraction(4), t.unrooted_mask)


# -- embeddings --------------------------------------------------------------


def complete_graph(n):
    return SimplicialComplex.from_facets(n, [[i, j] for i in range(n) for j in range(i + 1, n)])


def test_embedding_single_simplex_equals_degree():
    from test_complexes import degree

    cx = SimplicialComplex.from_facets(6, [[0, 1, 2], [1, 2, 3], [1, 2, 4], [0, 4, 5]])
    t = RootedDTree(SimplicialComplex.from_facets(3, [[0, 1, 2]]), 0b11, 0)
    for sigma in cx.faces_of_dim(1):
        assert count_embeddings(t, cx, sigma).count == degree(cx, sigma, 2)


def test_embedding_path_into_k4():
    t = build_Tr(1, 2, 0)  # path on 3 vertices rooted at an endpoint
    assert count_embeddings(t, complete_graph(4), [0]).count == 6


def test_embedding_path_oracle_complete_graphs():
    # injective maps of a path into K_n: (n-1)(n-2)...(n-v+1)
    for q in (1, 2, 3):
        t = build_Tr(1, q, 0)
        v = t.complex.n
        for n in range(v, 8):
            expected = 1
            for i in range(1, v):
                expected *= n - i
            assert count_embeddings(t, complete_graph(n), [0]).count == expected


def test_embedding_facet_images_distinct():
    # explicit walk: images of distinct facets are distinct sets under injectivity
    t = build_Tr(1, 2, 0)
    cx = complete_graph(4)
    # count maps allowing equal facet images would be larger; with 3 distinct
    # vertices the two edge images always differ, so this is the same number
    assert count_embeddings(t, cx, [0]).count == 6


def test_embedding_cap_flags_saturation(monkeypatch):
    monkeypatch.setattr(dtree, "EMBEDDING_CAP", 3)
    t = build_Tr(1, 2, 0)
    res = count_embeddings(t, complete_graph(6), [0])
    assert res.saturated and res.count == 3


def test_embedding_lower_bound_small():
    from shatterlab.complexes import delta_d

    for tree, n in [(build_Tr(1, 2, 0), 7), (build_Tr(1, 3, 0), 9), (build_Tr(2, 1, 0), 8)]:
        d = tree.d
        faces = [
            list(c)
            for size in range(1, d + 2)
            for c in combinations(range(n), size)
        ]
        cx = SimplicialComplex.from_facets(n, faces)
        f = len(tree.complex.facets())
        delta = delta_d(cx, d)
        assert delta >= f + 1
        got = count_embeddings(tree, cx, list(range(d)))
        assert not got.saturated
        assert got.count >= (delta - f) ** f
