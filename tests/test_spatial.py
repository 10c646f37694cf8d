import numpy as np
import pytest

from pintmg.spatial import SpatialHierarchy, assign_spatial_levels, coarse_size
from pintmg.state import BlockState


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


def test_restriction_injects_odd_indices():
    h = SpatialHierarchy(7, 2)
    s = BlockState(np.arange(1.0, 8.0), [42.0])
    c = h.restrict_state(s)
    assert c.field.tolist() == [2.0, 4.0, 6.0]
    assert c.scalars.tolist() == [42.0]


def test_prolongation_linear_interpolation():
    h = SpatialHierarchy(7, 2)
    e = BlockState([1.0, 2.0, 1.0])
    f = h.prolong_error(e)
    assert f.field.tolist() == [0.5, 1.0, 1.5, 2.0, 1.5, 1.0, 0.5]


def test_restrict_after_prolong_is_identity():
    h = SpatialHierarchy(31, 3)
    rng = np.random.default_rng(5)
    e = BlockState(rng.normal(size=7), rng.normal(size=2))
    back = h.restrict_state(h.prolong_error(e))
    assert np.array_equal(back.field, e.field)
    assert np.array_equal(back.scalars, e.scalars)


def test_scalars_pass_through_bitwise():
    h = SpatialHierarchy(15, 2)
    sc = np.array([1.2345678901234567, -9.87e-13])
    s = BlockState(np.ones(15), sc)
    down = h.restrict_state(s)
    assert np.array_equal(down.scalars, sc)
    up = h.prolong_error(BlockState(np.ones(7), sc))
    assert np.array_equal(up.scalars, sc)


def test_field_size_without_a_grid_rejected():
    h = SpatialHierarchy(15, 2)
    for transfer in (h.restrict_state, h.prolong_error):
        with pytest.raises(ValueError, match=r"no grid has 8 points; "
                           r"sizes are \(15, 7\)"):
            transfer(BlockState(np.ones(8)))
    with pytest.raises(ValueError, match="no grid below 1"):
        h.restrict_state(BlockState(np.ones(7)))
    with pytest.raises(ValueError, match="already on the finest grid"):
        h.prolong_error(BlockState(np.ones(15)))


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
