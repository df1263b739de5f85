import random
from itertools import combinations, islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shatterlab.setsystem as setsystem_module
from shatterlab import _bits
from shatterlab._bits import bits, iter_size_subsets
from shatterlab.errors import (
    DEFAULT_SUBSET_LIMIT,
    EmptyDomainError,
    InvalidArgumentError,
    ResourceLimitError,
)
from shatterlab.setsystem import (
    SetSystem,
    format_json,
    format_text,
    parse_json,
    parse_text,
    shatter_profile,
    shatter_value,
    vc_dimension,
)


# -- independent oracle: frozensets and itertools, no bitmasks, no early exit


def oracle_trace(sets, y):
    return {frozenset(e & y) for e in sets}


def oracle_shatter(sets, n, m):
    if not sets:
        return 0
    best = 0
    for ys in combinations(range(n), m):
        best = max(best, len(oracle_trace(sets, frozenset(ys))))
    return best


def loop_shatter_value(system, m, limit=DEFAULT_SUBSET_LIMIT):
    """shatter_value as it was before the block scan: one Python set of traces
    per colex Y, an early exit at the first Y that reaches the ceiling."""
    members = system.members
    if not members:
        return 0
    ceiling = min(1 << m, len(members))
    total = comb(system.n, m)
    subsets = iter_size_subsets(system.n, m)
    if total > limit:
        subsets = islice(subsets, max(limit, 0))
    best = 0
    for ymask in subsets:
        count = len({e & ymask for e in members})
        if count > best:
            best = count
            if best >= ceiling:
                return best
    if total > limit:
        raise ResourceLimitError(
            f"shatter scan of {total} {m}-subsets exceeds the limit {limit}; "
            "raise --limit-subsets to force it"
        )
    return best


def to_frozensets(system):
    return [frozenset(e) for e in system.to_sets()]


def random_system(rng, n_max=8, count_max=24):
    n = rng.randint(1, n_max)
    masks = {rng.randrange(1 << n) for _ in range(rng.randint(1, count_max))}
    return SetSystem.from_masks(n, masks)


def test_shatter_star_system():
    s = SetSystem.from_sets(5, [[], [0], [1], [2], [3], [4]])
    assert shatter_value(s, 3) == 4


def test_shatter_full_power_set():
    assert shatter_value(SetSystem(3, tuple(range(1 << 3))), 2) == 4


def test_shatter_matches_oracle_random():
    rng = random.Random(20)
    s = SetSystem.from_masks(8, {rng.randrange(256) for _ in range(40)})
    while len(s) < 20:
        s = SetSystem.from_masks(8, set(s.members) | {rng.randrange(256)})
    assert shatter_value(s, 4) == oracle_shatter(to_frozensets(s), 8, 4)


def test_shatter_oracle_sweep():
    rng = random.Random(99)
    for _ in range(30):
        s = random_system(rng, n_max=7)
        m = rng.randint(0, s.n)
        assert shatter_value(s, m) == oracle_shatter(to_frozensets(s), s.n, m)


def test_shatter_rejects_m_out_of_range():
    s = SetSystem(2, tuple(range(1 << 2)))
    with pytest.raises(InvalidArgumentError):
        shatter_value(s, 3)


def test_shatter_subset_limit():
    # the ceiling min(2^3, 2) is first reached at colex rank C(59, 3)
    far = SetSystem.from_sets(60, [[], [59]])
    assert shatter_value(far, 3, limit=comb(59, 3) + 1) == 2
    with pytest.raises(ResourceLimitError):
        shatter_value(far, 3, limit=comb(59, 3))
    # a chain stays below its ceiling 4, so all C(3, 2) subsets are scanned
    chain = SetSystem.from_sets(3, [[], [0], [0, 1], [0, 1, 2]])
    assert shatter_value(chain, 2, limit=3) == 3
    with pytest.raises(ResourceLimitError):
        shatter_value(chain, 2, limit=2)
    with pytest.raises(ResourceLimitError):
        shatter_profile(far, limit=100)


def block_rows(monkeypatch, system, rows):
    """Patch the scan's blocks to `rows` Y masks for this system (None: default)."""
    if rows is not None:
        monkeypatch.setattr(_bits, "BLOCK_CELLS", rows * max(1, len(system)))


@pytest.mark.parametrize("rows", [1, 3, None])
def test_block_scan_matches_the_loop(monkeypatch, rows):
    rng = random.Random(12)
    systems = [SetSystem(5, ())]
    for n in range(1, 13):
        for count in (1, 2, 5, 3 * n, 1 << min(n - 1, 7)):
            systems.append(SetSystem.from_masks(n, {rng.randrange(1 << n) for _ in range(count)}))
    # members with bit 63 set, on the full 64-bit ground set
    top = 1 << 63
    wide = [
        SetSystem.from_masks(64, [0, top, top | 1, top | 6, (1 << 64) - 1, 1 << 62]),
        SetSystem.from_masks(64, [0, top, top | 1 << 62]),  # traces apart only above bit 61
    ]
    for system in systems + wide:
        block_rows(monkeypatch, system, rows)
        for m in range(3 if system.n == 64 else system.n + 1):
            assert shatter_value(system, m) == loop_shatter_value(system, m), (system, m)
    for system, want in zip(wide, ([1, 2, 4], [1, 2, 3])):
        assert [oracle_shatter(to_frozensets(system), 64, m) for m in range(3)] == want


@pytest.mark.parametrize("rows", [1, 3, None])
def test_block_scan_limit_matches_the_loop(monkeypatch, rows):
    # the ceiling min(2^3, 2) is first reached at colex rank C(59, 3)
    far = SetSystem.from_sets(60, [[], [59]])
    block_rows(monkeypatch, far, rows)
    assert shatter_value(far, 3, limit=comb(59, 3) + 1) == 2
    with pytest.raises(ResourceLimitError) as got:
        shatter_value(far, 3, limit=comb(59, 3))
    with pytest.raises(ResourceLimitError) as want:
        loop_shatter_value(far, 3, limit=comb(59, 3))
    assert str(got.value) == str(want.value)
    rng = random.Random(5)
    for _ in range(40):
        system = random_system(rng, n_max=9, count_max=30)
        block_rows(monkeypatch, system, rows)
        m = rng.randint(0, system.n)
        limit = rng.randint(-1, comb(system.n, m) + 1)
        try:
            want = loop_shatter_value(system, m, limit)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError):
                shatter_value(system, m, limit=limit)
        else:
            assert shatter_value(system, m, limit=limit) == want


def boundary_systems(n):
    """Systems on n points whose members use the top point: pairs of members
    apart only there, and random members that all hold it."""
    rng = random.Random(n)
    top = 1 << (n - 1)
    pairs = [0, top, 1, top | 1, 6, top | 6, top >> 1, (1 << n) - 1]
    return [
        SetSystem.from_masks(n, pairs),
        SetSystem.from_masks(n, {rng.getrandbits(n) | top for _ in range(12)}),
    ]


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33])
def test_block_scan_at_the_dtype_boundaries(monkeypatch, n, rows):
    # n = 8, 16 and 32 fill uint8, uint16 and uint32 lanes; one more point
    # takes the next dtype
    for system in boundary_systems(n):
        block_rows(monkeypatch, system, rows)
        for m in range(n + 1 if n <= 17 else 4):
            assert shatter_value(system, m) == loop_shatter_value(system, m), (system, m)
    # traces apart only in the top point: the ceiling 2 first at colex rank C(n-1, 3)
    far = SetSystem.from_masks(n, [1 << (n - 2), 3 << (n - 2)])
    block_rows(monkeypatch, far, rows)
    assert shatter_value(far, 3, limit=comb(n - 1, 3) + 1) == 2
    with pytest.raises(ResourceLimitError) as got:
        shatter_value(far, 3, limit=comb(n - 1, 3))
    with pytest.raises(ResourceLimitError) as want:
        loop_shatter_value(far, 3, limit=comb(n - 1, 3))
    assert str(got.value) == str(want.value)


def count_drawn(monkeypatch):
    """Count the Y masks that shatter_value draws from the colex iterator."""
    drawn = []

    def counted(n, m):
        drawn.append(0)
        for mask in iter_size_subsets(n, m):
            drawn[-1] += 1
            yield mask

    monkeypatch.setattr(setsystem_module, "iter_size_subsets", counted)
    return drawn


def test_scan_draws_only_what_its_answer_needs(monkeypatch):
    rng = random.Random(289)
    # every subset of {0..4} is a member, so the first colex m-set reaches the
    # ceiling 2^m for m <= 5
    members = set(range(32))
    while len(members) < 289:
        members.add(rng.getrandbits(12))
    system = SetSystem.from_masks(12, members)
    drawn = count_drawn(monkeypatch)
    assert [shatter_value(system, m) for m in range(6)] == [1, 2, 4, 8, 16, 32]
    # the first run: (BLOCK_CELLS >> 6) // 289 = 3 subsets, where a whole
    # block holds 226
    assert drawn == [1, 3, 3, 3, 3, 3]
    # a chain has m + 1 traces on any m-set, under its ceiling for 2 <= m <= 11,
    # so the scan draws every subset, or exactly `limit` and raises
    chain = SetSystem.from_masks(12, [(1 << k) - 1 for k in range(13)])
    for m in range(2, 12):
        drawn.clear()
        assert shatter_value(chain, m) == m + 1
        assert drawn == [comb(12, m)]
        if comb(12, m) > 50:
            drawn.clear()
            with pytest.raises(ResourceLimitError):
                shatter_value(chain, m, limit=50)
            assert drawn == [50]


def test_profile_examples():
    assert shatter_profile(SetSystem(3, tuple(range(1 << 3)))).values == (1, 2, 4, 8)
    star = SetSystem.from_sets(3, [[], [0], [1], [2]])
    assert shatter_profile(star).values == (1, 2, 3, 4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_profile_invariants(data):
    n = data.draw(st.integers(1, 6))
    masks = data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    s = SetSystem.from_masks(n, masks)
    v = shatter_profile(s).values
    assert v[0] == 1
    for m in range(n):
        assert v[m] <= v[m + 1] <= 2 * v[m]
    for m in range(n + 1):
        assert v[m] <= min(1 << m, len(s))


def test_vc_examples():
    assert vc_dimension(SetSystem(4, tuple(range(1 << 4)))) == 4
    star = SetSystem.from_sets(4, [[], [0], [1], [2], [3]])
    assert vc_dimension(star) == 1


def test_vc_empty_system_rejected():
    with pytest.raises(EmptyDomainError):
        vc_dimension(SetSystem(3, ()))


def test_vc_matches_witness_search():
    # independent: largest m with a fully shattered witness, by direct search
    rng = random.Random(7)
    for _ in range(25):
        s = random_system(rng, n_max=6)
        sets = to_frozensets(s)
        best = 0
        for m in range(s.n + 1):
            for ys in combinations(range(s.n), m):
                if len(oracle_trace(sets, frozenset(ys))) == 1 << m:
                    best = max(best, m)
        assert vc_dimension(s) == best


def test_sauer_consistency():
    from shatterlab.bounds import g_k

    rng = random.Random(17)
    for _ in range(40):
        s = random_system(rng, n_max=7)
        d = vc_dimension(s)
        for m in range(s.n + 1):
            assert shatter_value(s, m) <= g_k(m, d)


def test_member_validation():
    with pytest.raises(InvalidArgumentError):
        SetSystem(2, (4,))  # vertex 2 outside ground set
    with pytest.raises(InvalidArgumentError):
        SetSystem(70, ())  # exact core capped at 64


def test_text_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        s = random_system(rng)
        text = format_text(s)
        back, dups = parse_text(text)
        assert back == s and dups == 0
    # empty member serializes as a blank line and survives
    s = SetSystem.from_sets(3, [[], [0, 2]])
    assert parse_text(format_text(s))[0] == s


def test_text_duplicate_warning_counter():
    system, dups = parse_text("n=3\n0 1\n1 0\n\n")
    assert len(system) == 2 and dups == 1


def test_json_round_trip():
    rng = random.Random(4)
    for _ in range(20):
        s = random_system(rng)
        assert parse_json(format_json(s))[0] == s


def test_parse_errors():
    with pytest.raises(InvalidArgumentError):
        parse_text("m=3\n0 1\n")
    with pytest.raises(InvalidArgumentError):
        parse_json('{"sets": [[0]]}')


# -- the subset-sum path of shatter_profile against the scan


def closure(masks):
    family = {0}
    for mask in masks:
        sub = mask
        while True:
            family.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
    return family


def profile_by_scan(system):
    return tuple(shatter_value(system, m) for m in range(system.n + 1))


def count_scans(monkeypatch):
    """Count the shatter_value calls that shatter_profile makes."""
    calls = []

    def counted(system, m, **kwargs):
        calls.append(m)
        return shatter_value(system, m, **kwargs)

    monkeypatch.setattr(setsystem_module, "shatter_value", counted)
    return calls


def test_transform_profile_on_every_closed_family_up_to_n5(monkeypatch):
    from shatterlab.search import enumerate_downward_closed

    families = [
        SetSystem.from_masks(n, bits(code))
        for n in range(6)
        for code in enumerate_downward_closed(n)
    ]
    assert len(families) == 1 + 2 + 5 + 19 + 167 + 7580
    want = [profile_by_scan(s) for s in families]
    calls = count_scans(monkeypatch)
    assert [shatter_profile(s).values for s in families] == want
    assert shatter_profile(SetSystem(4, ())).values == (0,) * 5
    assert calls == []  # every one took the transform path


def test_transform_profile_on_random_closed_families(monkeypatch):
    rng = random.Random(11)
    families = []
    for n in range(6, 11):
        for _ in range(12):
            facets = [rng.randrange(1 << n) for _ in range(rng.randrange(1, 12))]
            families.append(SetSystem.from_masks(n, closure(facets)))
    families.append(SetSystem(10, tuple(range(1 << 10))))
    want = [profile_by_scan(s) for s in families]
    calls = count_scans(monkeypatch)
    assert [shatter_profile(s).values for s in families] == want
    assert calls == []


def test_other_families_take_the_scan(monkeypatch):
    calls = count_scans(monkeypatch)
    not_closed = SetSystem.from_sets(4, [[], [0, 1], [2]])
    assert shatter_profile(not_closed).values == (1, 2, 3, 3, 3)
    assert len(calls) == 5
    # closed, but 2^8 > limit: the scan runs, and C(8, m) <= 70 never passes it
    closed = SetSystem.from_masks(8, closure([0b111, 0b11000, 0b11100000]))
    assert shatter_profile(closed, limit=200) == shatter_profile(closed)
    assert len(calls) == 5 + 9
    # closed, beyond the transform's ground-set bound
    wide = SetSystem.from_sets(21, [[], [0]])
    assert shatter_profile(wide).values == (1,) + (2,) * 21
    assert len(calls) == 5 + 9 + 22
    # closed, n = 60: the scan still refuses to pass the limit
    with pytest.raises(ResourceLimitError):
        shatter_profile(SetSystem.from_sets(60, [[], [59]]), limit=100)
