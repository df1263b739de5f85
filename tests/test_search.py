import hashlib
import json
import random
from functools import lru_cache, partial
from itertools import permutations
from math import comb

import numpy as np
import pytest

from shatterlab._bits import bits, facets_present, mask_of
from shatterlab.compression import is_downward_closed
from shatterlab.errors import InvalidArgumentError, ResourceLimitError
import shatterlab.search as search_module
from shatterlab.search import (
    _WORD_BITS,
    _perm_tables,
    canonical_form,
    enumerate_downward_closed,
    extremal_max_sets,
    extremal_oracle,
    kpartite_instance,
)
import shatterlab.setsystem as setsystem_module
from shatterlab.setsystem import SetSystem, max_members_inside, shatter_profile, shatter_value

RECORDED_SEARCH_DIGEST = "51dd43904e861b46d4360149c6c8a072c35c44784581257f14f06a50dff96c41"


def test_family_enumeration_counts():
    # number of downward-closed families containing {} = Dedekind(n) - 1
    # (all antichain-generated down-sets except the empty family)
    counts = {1: 2, 2: 5, 3: 19, 4: 167}
    for n, want in counts.items():
        got = sum(1 for _ in enumerate_downward_closed(n))
        assert got == want


def test_enumerated_families_are_closed_and_distinct():
    seen = set()
    for fam in enumerate_downward_closed(3):
        assert 0 in fam
        assert is_downward_closed(SetSystem.from_masks(3, fam))
        assert fam not in seen
        seen.add(fam)


def mask_order_closed_families(n: int):
    """The recursion the doubling enumeration replaced: masks in (popcount,
    value) order, each joining only when all its one-smaller subsets did."""
    order = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    family = {0}

    def rec(i: int):
        if i == len(order):
            yield frozenset(family)
            return
        mask = order[i]
        yield from rec(i + 1)
        if not facets_present(family, mask):
            return
        family.add(mask)
        yield from rec(i + 1)
        family.discard(mask)

    yield from rec(0)


@pytest.mark.parametrize("n", range(6))
def test_doubling_enumeration_matches_mask_order_recursion(n):
    got = list(enumerate_downward_closed(n))
    assert len(set(got)) == len(got)
    assert set(got) == set(mask_order_closed_families(n))


def test_enumeration_refuses_n6_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(search_module, "_doubled", no_work)
    with pytest.raises(ResourceLimitError, match="capped at n = 5"):
        next(enumerate_downward_closed(6))
    with pytest.raises(AssertionError, match="a level was built"):
        next(enumerate_downward_closed(1))  # n <= 5 does reach the patched function


def test_canonical_form_invariant_under_relabeling():
    fam = frozenset({0, 1, 2, 3})  # {}, {0}, {1}, {0,1}
    relabeled = frozenset({0, 2, 4, 6})  # {}, {1}, {2}, {1,2}
    assert canonical_form(3, [fam, relabeled]) == canonical_form(3, [relabeled]) * 2


# -- reference: the sorted-tuple canonical form, one Python loop per permutation


def relabel(perm, mask: int) -> int:
    return mask_of(perm[v] for v in bits(mask))


@lru_cache(maxsize=None)
def reference_tables(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(relabel(perm, mask) for mask in range(1 << n)) for perm in permutations(range(n))
    )


def reference_canonical_form(n: int, family) -> tuple[int, ...]:
    """Minimum sorted mask tuple over all vertex permutations."""
    return min(tuple(sorted(table[m] for m in family)) for table in reference_tables(n))


def test_canonical_form_classes_match_reference():
    # downward-closed families up to isomorphism, empty set included
    classes = {1: 2, 2: 4, 3: 9, 4: 29, 5: 209}
    for n, want in classes.items():
        families = list(enumerate_downward_closed(n))
        pairs = set(
            zip(canonical_form(n, families), map(partial(reference_canonical_form, n), families))
        )
        # a bijection between the two forms' classes: the same partition
        assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs) == want


def cycles_closure(n: int, lengths) -> frozenset[int]:
    """Downward closure of disjoint cycles of the given lengths on 0..n-1."""
    masks, at = {0}, 0
    for length in lengths:
        for i in range(length):
            u, v = at + i, at + (i + 1) % length
            masks.update({1 << u, 1 << v, 1 << u | 1 << v})
        at += length
    return frozenset(masks)


@pytest.mark.parametrize("n", [7, 8])
def test_canonical_form_across_words(n):
    # 2^n bits span two (n = 7) or four (n = 8) 64-bit words
    rng = random.Random(n)
    for _ in range(3):
        fam = frozenset(rng.sample(range(1 << n), rng.randrange(10, 60)))
        [form] = canonical_form(n, [fam])
        assert form >= sum(1 << m for m in fam)  # the largest code
        # the form is itself the code of a relabelling of the family
        best = frozenset(i for i in range(1 << n) if form >> i & 1)
        assert len(best) == len(fam) and canonical_form(n, [best]) == [form]
        for _ in range(2):
            perm = rng.sample(range(n), n)
            assert canonical_form(n, [frozenset(relabel(perm, m) for m in fam)]) == [form]
    # 2-regular graphs with the same face counts, not isomorphic
    one_cycle = cycles_closure(n, [n])
    two_cycles = cycles_closure(n, [3, n - 3])
    assert len(one_cycle) == len(two_cycles)
    one, two = canonical_form(n, [one_cycle, two_cycles])
    assert one != two


def unchunked_canonical_form(n: int, family) -> int:
    """The form with every permutation's images gathered at once."""
    images = _perm_tables(n)[sorted(family)].T
    form = 0
    for word in reversed(range(max(1, (1 << n) // 64))):
        codes = np.bitwise_or.reduce(_WORD_BITS[word][images], axis=1)
        best = codes.max()
        form = form << 64 | int(best)
        images = images[codes == best]
    return form


@pytest.mark.parametrize("cells", [None, 700])
def test_canonical_form_chunked_matches_unchunked(monkeypatch, cells):
    # at n = 8 the default bound already splits families of over 26 members;
    # 700 cells split every family into blocks of a few permutations
    if cells is not None:
        monkeypatch.setattr(search_module, "CANONICAL_GATHER_CELLS", cells)
    rng = random.Random(8)
    families = [frozenset(rng.sample(range(1 << 8), rng.randrange(1, 120))) for _ in range(8)]
    families += [cycles_closure(8, [8]), cycles_closure(8, [4, 4])]
    if cells is None:
        families.append(frozenset(range(1 << 8)))  # 10 blocks of 4,096 permutations
    families += [frozenset(rng.sample(range(1 << 7), 40)) for _ in range(2)]
    for family in families:
        n = 8 if max(family) >= 1 << 7 else 7
        assert canonical_form(n, [family]) == [unchunked_canonical_form(n, family)]


@pytest.mark.parametrize("cells", [None, 700])
def test_batched_canonical_forms_match_unchunked(monkeypatch, cells):
    # mixed-size batches; 700 cells make the permutation blocks split inside a
    # batch: a block at n >= 4 holds a few permutations of all its families
    if cells is not None:
        monkeypatch.setattr(search_module, "CANONICAL_GATHER_CELLS", cells)
    rng = random.Random(15)
    batches = []
    for n in range(1, 9):
        for _ in range(3 if n < 7 else 1):
            sizes = [rng.randrange(1, min(1 << n, 90) + 1) for _ in range(rng.randrange(1, 7))]
            batches.append((n, [frozenset(rng.sample(range(1 << n), size)) for size in sizes]))
    # over 700 members: one permutation per block
    batches.append((6, [frozenset(rng.sample(range(64), rng.randrange(45, 65))) for _ in range(16)]))
    for n, batch in batches:
        batch.append(batch[0])  # a repeat in the same batch
        assert canonical_form(n, batch) == [unchunked_canonical_form(n, f) for f in batch]
    # every closed family on 4 vertices in one batch, and an empty family
    closed = list(enumerate_downward_closed(4))
    assert canonical_form(4, closed) == [unchunked_canonical_form(4, f) for f in closed]
    assert canonical_form(3, [frozenset({0, 1}), frozenset()]) == [
        unchunked_canonical_form(3, {0, 1}),
        0,
    ]
    assert canonical_form(5, []) == []


def test_max_members_inside_over_many_chunks(monkeypatch):
    # closed families at n = 6..10, three rows per subset-sum chunk
    rng = random.Random(6)
    for n in range(6, 11):
        monkeypatch.setattr(setsystem_module, "ZETA_CHUNK_CELLS", 3 << n)
        families = []
        for _ in range(20):
            facets = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 10))]
            families.append(sorted({sub for f in facets for sub in range(1 << n) if sub & ~f == 0}))
        got = max_members_inside(n, families, range(n + 1))
        assert got.shape == (20, n + 1)
        for family, row in zip(families, got.tolist()):
            system = SetSystem.from_masks(n, family)
            assert row == [shatter_value(system, m) for m in range(n + 1)]


def test_extremal_nodes_and_witnesses_unchanged():
    # recorded before the subset-sum transform replaced the per-candidate scan:
    # every n <= 5 query by branch and by oracle, and the six Sauer-tight n = 6 ones
    def result(res):
        return [res.max_size, list(res.witness.members), res.nodes_explored]

    rows = [
        [n, m, b, *result(extremal_max_sets(n, m, b)), *result(extremal_oracle(n, m, b))]
        for n in range(1, 6)
        for m in range(n + 1)
        for b in range(1, (1 << m) + 1)
    ]
    rows += [[6, m, (1 << m) - 1, *result(extremal_max_sets(6, m, (1 << m) - 1))] for m in range(1, 7)]
    assert [row[5] for row in rows[-6:]] == [1, 7, 48, 116, 80, 21]
    assert sum(row[5] for row in rows) == 4584
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED_SEARCH_DIGEST


def test_size_bound_is_tested_before_candidates_are_scored(monkeypatch):
    # b = 2^9 admits every family on 9 vertices: the root scores its 511
    # candidates, its first child is the whole power set, and every other
    # node is cut by size alone (112,156 families were scored before the cut)
    scored = []

    def counted(n, families, ms):
        scored.append(len(families))
        return max_members_inside(n, families, ms)

    monkeypatch.setattr(search_module, "max_members_inside", counted)
    res = extremal_max_sets(9, 9, 512)
    assert res.max_size == 512
    assert sum(scored) == 511


def test_node_limit_is_a_module_constant(monkeypatch, capsys):
    from shatterlab.cli import main

    monkeypatch.setattr(search_module, "NODE_LIMIT", 10)
    with pytest.raises(ResourceLimitError, match="branch-and-bound exceeded 10 nodes"):
        extremal_max_sets(5, 3, 5)
    assert main(["search", "extremal", "--n", "5", "--m", "3", "--b", "5"]) == 3
    assert capsys.readouterr().err == "resource limit: branch-and-bound exceeded 10 nodes\n"


def test_extremal_trivial_cases():
    # n = m: f(m) = |C|, so the answer is exactly b
    for n in (2, 3, 4):
        for b in (1, 3, 1 << n):
            if b <= 1 << n:
                res = extremal_max_sets(n, n, b)
                assert res.max_size == b
    # no constraint: the whole power set
    assert extremal_max_sets(4, 2, 4).max_size == 16
    assert extremal_max_sets(3, 1, 2).max_size == 8


def test_extremal_known_instance():
    res = extremal_max_sets(4, 2, 3)
    assert res.max_size == 5  # empty set plus four singletons
    assert shatter_value(res.witness, 2) <= 3
    assert len(res.witness) == 5


def test_extremal_oracle_equivalence_spot():
    for n, m, b in [(3, 2, 3), (4, 2, 3), (4, 3, 7), (5, 3, 7), (5, 2, 3)]:
        got = extremal_max_sets(n, m, b)
        want = extremal_oracle(n, m, b)
        assert got.max_size == want.max_size, (n, m, b)
        assert is_downward_closed(got.witness)


def test_extremal_monotone_in_b_and_n():
    for n in (3, 4):
        prev = 0
        for b in range(1, 9):
            cur = extremal_max_sets(n, 3 if n >= 3 else n, min(b, 8)).max_size
            assert cur >= prev
            prev = cur
    for m, b in [(2, 3)]:
        sizes = [extremal_max_sets(n, m, b).max_size for n in (2, 3, 4, 5)]
        assert all(a <= c for a, c in zip(sizes, sizes[1:]))


def test_extremal_sauer_cap():
    from shatterlab.bounds import g_k

    for n in (3, 4, 5):
        for m in range(1, n + 1):
            res = extremal_max_sets(n, m, (1 << m) - 1)
            assert res.max_size <= g_k(n, m - 1)


def test_extremal_sauer_tight_at_n6():
    # Sauer-Shelah is tight on the (m-1)-skeleton, out of the oracle's reach
    for m in range(1, 7):
        res = extremal_max_sets(6, m, (1 << m) - 1)
        assert res.max_size == sum(comb(6, i) for i in range(m)), m


def test_extremal_validation():
    with pytest.raises(InvalidArgumentError):
        extremal_max_sets(20, 2, 2)
    with pytest.raises(InvalidArgumentError):
        extremal_max_sets(4, 5, 2)
    with pytest.raises(InvalidArgumentError):
        extremal_max_sets(4, 2, 5)
    with pytest.raises(InvalidArgumentError):
        extremal_oracle(3, 5, 1)
    with pytest.raises(InvalidArgumentError):
        extremal_oracle(3, 2, 9)
    with pytest.raises(ResourceLimitError):
        extremal_oracle(9, 2, 3)
    with pytest.raises(ResourceLimitError):
        extremal_oracle(6, 2, 3)  # Dedekind M(6): about 7.8M families


def test_kpartite_example():
    s = kpartite_instance(6, 2)
    assert len(s) == 16  # (1+3)(1+3): 9 pairs + 6 singletons + empty set
    assert is_downward_closed(s)
    pairs = [m for m in s.members if m.bit_count() == 2]
    assert len(pairs) == 9


def test_kpartite_k1():
    s = kpartite_instance(5, 1)
    assert sorted(m.bit_count() for m in s.members) == [0, 1, 1, 1, 1, 1]


def test_kpartite_matches_independent_closure():
    # independent: build parts, take transversal k-sets, close downward
    for n, k in [(6, 2), (7, 3), (5, 5)]:
        got = kpartite_instance(n, k)
        sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
        parts, at = [], 0
        for size in sizes:
            parts.append(list(range(at, at + size)))
            at += size
        import itertools

        transversals = {
            frozenset(choice) for choice in itertools.product(*parts)
        }
        closure = set()
        for t in transversals:
            for r in range(len(t) + 1):
                closure.update(map(frozenset, itertools.combinations(sorted(t), r)))
        expected = SetSystem.from_sets(n, closure)
        assert got == expected
        assert shatter_profile(got) == shatter_profile(expected)
