import random
from functools import lru_cache
from itertools import permutations
from math import comb

import pytest

from shatterlab._bits import bits, mask_of
from shatterlab.compression import is_downward_closed
from shatterlab.errors import InvalidArgumentError, ResourceLimitError
from shatterlab.search import (
    canonical_form,
    enumerate_downward_closed,
    extremal_max_sets,
    extremal_oracle,
    kpartite_instance,
)
from shatterlab.setsystem import SetSystem, shatter_profile, shatter_value


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


def test_canonical_form_invariant_under_relabeling():
    fam = frozenset({0, 1, 2, 3})  # {}, {0}, {1}, {0,1}
    relabeled = frozenset({0, 2, 4, 6})  # {}, {1}, {2}, {1,2}
    assert canonical_form(3, fam) == canonical_form(3, relabeled)


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
        pairs = {
            (canonical_form(n, fam), reference_canonical_form(n, fam))
            for fam in enumerate_downward_closed(n)
        }
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
        form = canonical_form(n, fam)
        assert form >= sum(1 << m for m in fam)  # the largest code
        # the form is itself the code of a relabelling of the family
        best = frozenset(i for i in range(1 << n) if form >> i & 1)
        assert len(best) == len(fam) and canonical_form(n, best) == form
        for _ in range(2):
            perm = rng.sample(range(n), n)
            assert canonical_form(n, frozenset(relabel(perm, m) for m in fam)) == form
    # 2-regular graphs with the same face counts, not isomorphic
    one_cycle = cycles_closure(n, [n])
    two_cycles = cycles_closure(n, [3, n - 3])
    assert len(one_cycle) == len(two_cycles)
    assert canonical_form(n, one_cycle) != canonical_form(n, two_cycles)


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
