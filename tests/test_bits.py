import random

import numpy as np
import pytest

from shatterlab import _bits
from shatterlab._bits import ZETA_MAX_N, blocks, facets_present, popcount_groups, zeta_transform


def test_blocks_cover_the_items_within_the_budget(monkeypatch):
    assert list(blocks(10, 4, 13)) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert list(blocks(3, 20, 13)) == [(0, 1), (1, 2), (2, 3)]  # at least one item
    assert list(blocks(0, 1)) == []
    assert list(blocks(5, 1 << 14)) == [(0, 4), (4, 5)]
    # the default budget is read at each call
    monkeypatch.setattr(_bits, "BLOCK_CELLS", 2)
    assert list(blocks(5, 1)) == [(0, 2), (2, 4), (4, 5)]


def test_growing_blocks_tile_the_items_up_to_the_budget(monkeypatch):
    for total in (0, 1, 2, 5, 17, 100, 1000, 5000):
        for item_cells in (1, 3, 40, 289, 1 << 10, 1 << 17):
            for budget in (None, 13, 1 << 10, 1 << 12):
                cap = max(1, (_bits.BLOCK_CELLS if budget is None else budget) // item_cells)
                step = [(s, min(s + cap, total)) for s in range(0, total, cap)]
                assert list(blocks(total, item_cells, budget)) == step
                assert list(blocks(total, item_cells, budget, grow=False)) == step
                runs = list(blocks(total, item_cells, budget, grow=True))
                assert [start for start, _ in runs] + [total] == [0] + [stop for _, stop in runs]
                sizes = [stop - start for start, stop in runs]
                assert all(0 < size <= cap for size in sizes)
                assert all(b <= 4 * a for a, b in zip(sizes, sizes[1:]))
    # the runs start at a 64th of the budget and reach it; the budget is read at each call
    assert [b - a for a, b in blocks(1000, 1, 1 << 10, grow=True)] == [16, 64, 256, 664]
    assert [b - a for a, b in blocks(6000, 1, grow=True)] == [1024, 4096, 880]
    monkeypatch.setattr(_bits, "BLOCK_CELLS", 1 << 8)
    assert [b - a for a, b in blocks(300, 1, grow=True)] == [4, 16, 64, 216]


def test_zeta_transform_matches_direct_subset_sums():
    rng = random.Random(3)
    for n in range(7):
        size = 1 << n
        rows = [[rng.randrange(-5, 6) for _ in range(size)] for _ in range(3)]
        table = np.array(rows, dtype=np.int32)
        assert zeta_transform(table) is table
        want = [[sum(row[t] for t in range(size) if t & ~y == 0) for y in range(size)] for row in rows]
        assert table.tolist() == want


def test_zeta_transform_of_one_row_and_of_many_axes():
    flat = np.ones(8, dtype=np.int64)
    zeta_transform(flat)
    assert flat.tolist() == [1, 2, 2, 4, 2, 4, 4, 8]
    cube = np.ones((2, 3, 8), dtype=np.int32)
    zeta_transform(cube)
    assert (cube == flat).all()


def test_zeta_transform_of_more_rows_than_columns_matches_each_row_alone():
    # more rows than columns run on a transposed copy; one row never does
    rng = np.random.default_rng(4)
    for shape in [(1, 1), (5, 1), (3, 2), (32, 32), (33, 32), (7580, 32), (4, 3, 8)]:
        table = rng.integers(-9, 10, shape)
        want = [zeta_transform(row.copy()).tolist() for row in table.reshape(-1, shape[-1])]
        assert zeta_transform(table) is table
        assert table.reshape(-1, shape[-1]).tolist() == want, shape


def test_zeta_transform_rejects_bad_tables():
    with pytest.raises(ValueError):
        zeta_transform(np.zeros((2, 6), dtype=np.int32))
    with pytest.raises(ValueError):
        zeta_transform(np.zeros((8, 4), dtype=np.int32).T)


def test_popcount_groups():
    for n in range(9):
        groups = popcount_groups(n)
        assert len(groups) == n + 1
        for j, group in enumerate(groups):
            assert group.dtype == np.int32 and not group.flags.writeable
            assert group.tolist() == [x for x in range(1 << n) if x.bit_count() == j]
    with pytest.raises(ValueError):
        popcount_groups(ZETA_MAX_N + 1)


def test_facets_present():
    family = {0, 0b1, 0b10, 0b11, 0b100}
    assert facets_present(family, 0b11)  # {0, 1}: both singletons are in
    assert facets_present(family, 0b1)  # a singleton needs the empty set
    assert not facets_present(family - {0}, 0b1)
    assert not facets_present(family, 0b111)  # {0, 2} and {1, 2} are missing
    assert facets_present(set(), 0)  # the empty set has no facets
