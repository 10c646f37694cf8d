from types import SimpleNamespace

import numpy as np
import pytest

from pintmg.mgrit import MgritSolver
from pintmg.spatial import SpatialHierarchy, assign_spatial_levels, coarse_size


def test_nesting_sizes():
    h = SpatialHierarchy(31, 3)
    assert h.sizes == (31, 15, 7)
    assert coarse_size(7) == 3
    with pytest.raises(ValueError):
        SpatialHierarchy(8, 2)  # even size cannot nest
    with pytest.raises(ValueError):
        SpatialHierarchy(3, 3)  # 3 -> 1 -> nothing


def test_coordinates_interleave():
    h = SpatialHierarchy(7, 2)
    xf = h.coordinates(0)
    xc = h.coordinates(1)
    assert np.allclose(xf[1::2], xc)
    assert h.spacing(1) == pytest.approx(2 * h.spacing(0))


def _transfer(fn, src, dst, rows):
    """The engine's transfer of (k, width) rows from grid src to grid
    dst: fn on the fields, the scalars carried along."""
    h = fn.__self__
    return MgritSolver._transfer(
        None, fn, SimpleNamespace(spatial_level=src, nf=h.size(src)),
        SimpleNamespace(spatial_level=dst), rows)


def test_restriction_injects_odd_indices():
    h = SpatialHierarchy(7, 2)
    row = np.append(np.arange(1.0, 8.0), 42.0)  # a field, then a scalar
    c = _transfer(h.restrict_fields, 0, 1, row[None])
    assert c.tolist() == [[2.0, 4.0, 6.0, 42.0]]


def test_prolongation_linear_interpolation():
    h = SpatialHierarchy(7, 2)
    f = h.prolong_fields(np.array([1.0, 2.0, 1.0]))
    assert f.tolist() == [0.5, 1.0, 1.5, 2.0, 1.5, 1.0, 0.5]


def test_restrict_after_prolong_is_identity():
    h = SpatialHierarchy(31, 3)
    rng = np.random.default_rng(5)
    e = rng.normal(size=(4, 7 + 2))
    back = _transfer(h.restrict_fields, 1, 2,
                     _transfer(h.prolong_fields, 2, 1, e))
    assert np.array_equal(back, e)


def test_scalars_pass_through_bitwise():
    h = SpatialHierarchy(15, 2)
    sc = np.array([1.2345678901234567, -9.87e-13])
    down = _transfer(h.restrict_fields, 0, 1, np.append(np.ones(15), sc)[None])
    assert np.array_equal(down[0, 7:], sc)
    up = _transfer(h.prolong_fields, 1, 0, np.append(np.ones(7), sc)[None])
    assert np.array_equal(up[0, 15:], sc)


def test_field_size_without_a_grid_rejected():
    # one field is one row: the same checks as on a block of rows
    h = SpatialHierarchy(15, 2)
    for transfer in (h.restrict_fields, h.prolong_fields):
        with pytest.raises(ValueError, match=r"no grid has 8 points; "
                           r"sizes are \(15, 7\)"):
            transfer(np.ones(8))
    with pytest.raises(ValueError, match="no grid below 1"):
        h.restrict_fields(np.ones(7))
    with pytest.raises(ValueError, match="already on the finest grid"):
        h.prolong_fields(np.ones(15))


def _old_restrict(field):
    """Injection as written per state before the row functions."""
    return field[1::2].copy()


def _old_prolong(field):
    """Interpolation as written per state before the row functions."""
    fine = np.empty(2 * field.size + 1)
    fine[1::2] = field
    padded = np.concatenate(([0.0], field, [0.0]))
    fine[0::2] = 0.5 * (padded[:-1] + padded[1:])
    return fine


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_scalars", [0, 2])
@pytest.mark.parametrize("k", [1, 2, 7, 64, 256])
def test_row_transfers_are_each_states_transfer_bitwise(k, n_scalars):
    """The engine's _transfer of a (k, width) block through the row
    functions, against each row's field through the same function alone
    and through the per-state arithmetic it replaced, for n = 7 to 127."""
    h = SpatialHierarchy(127, 6)  # 127, 63, 31, 15, 7, 3
    rng = np.random.default_rng(k + n_scalars)
    for g in range(1, h.n_grids):
        for src, dst, fn, old in ((g - 1, g, h.restrict_fields, _old_restrict),
                                  (g, g - 1, h.prolong_fields, _old_prolong)):
            n = h.sizes[src]
            rows = rng.normal(size=(k, n + n_scalars))
            rows[rng.random(rows.shape) < 0.1] = -0.0
            got = _transfer(fn, src, dst, rows)
            assert not np.shares_memory(got, rows)
            for row, out in zip(rows, got):
                assert _same_bits(out[:h.sizes[dst]], fn(row[:n]))
                assert _same_bits(out[:h.sizes[dst]], old(row[:n]))
                assert _same_bits(out[h.sizes[dst]:], row[n:])


def test_row_transfers_reject_a_field_size_without_a_grid():
    h = SpatialHierarchy(15, 2)
    for transfer in (h.restrict_fields, h.prolong_fields):
        with pytest.raises(ValueError, match=r"no grid has 8 points; "
                           r"sizes are \(15, 7\)"):
            transfer(np.ones((3, 8)))
    with pytest.raises(ValueError, match="no grid below 1"):
        h.restrict_fields(np.ones((3, 7)))
    with pytest.raises(ValueError, match="already on the finest grid"):
        h.prolong_fields(np.ones((3, 15)))


@pytest.mark.parametrize("strategy,expect", [
    ("none", [0, 0, 0, 0, 0]),
    ("direct", [0, 1, 2, 2, 2]),
    ("delayed", [0, 0, 0, 1, 2]),
])
def test_assignment_strategies_five_levels_three_grids(strategy, expect):
    assert assign_spatial_levels(strategy, 5, 3) == expect


def test_assignment_edge_shapes():
    # fewer time levels than grids: still start finest, step by one
    assert assign_spatial_levels("delayed", 2, 3) == [0, 1]
    assert assign_spatial_levels("direct", 2, 3) == [0, 1]
    assert assign_spatial_levels("direct", 4, 1) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        assign_spatial_levels("eager", 4, 2)
    steps = np.diff(assign_spatial_levels("delayed", 9, 4))
    assert set(steps.tolist()) <= {0, 1}
