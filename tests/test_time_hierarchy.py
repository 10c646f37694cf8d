import numpy as np
import pytest

from pintmg.time_hierarchy import (
    TimeGrid, TimeHierarchy, build_uniform_grid, plan_coarsening,
)


def test_uniform_grid_endpoints_and_spacing():
    g = build_uniform_grid(0.0, 0.03125, 2 ** 15)
    assert g.n_points == 2 ** 15 + 1
    assert g.points[0] == 0.0
    assert g.points[-1] == 0.03125
    spacing = np.diff(g.points)
    assert np.allclose(spacing, 2.0 ** -20, rtol=1e-12)


def test_uniform_grid_rejects_bad_domain():
    with pytest.raises(ValueError):
        build_uniform_grid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        build_uniform_grid(0.0, -1.0, 4)
    with pytest.raises(ValueError):
        build_uniform_grid(0.0, 1.0, 0)


def test_plan_for_129_points():
    factors = plan_coarsening(128, 5, 2)
    assert factors == [2, 2, 2, 2]
    h = TimeHierarchy.build(build_uniform_grid(0.0, 1.0, 128), factors)
    assert [g.n_points for g in h.grids] == [129, 65, 33, 17, 9]


def test_plan_stops_above_two_coarse_steps():
    # 8 steps: 4 after one factor of 2, 2 after two; 1 would be too few
    assert plan_coarsening(8, 5, 2) == [2, 2]
    assert plan_coarsening(9, 5, 4) == [4]
    h = TimeHierarchy.build(build_uniform_grid(0.0, 1.0, 8), [2, 2])
    assert [g.n_points for g in h.grids] == [9, 5, 3]


def test_plan_degenerate_inputs_give_single_level():
    assert plan_coarsening(1, 3, 2) == []
    assert plan_coarsening(3, 3, 2) == []
    assert plan_coarsening(8, 1, 2) == []
    h = TimeHierarchy.build(build_uniform_grid(0.0, 1.0, 1), [])
    assert h.n_levels == 1


def test_coarse_grids_are_bitwise_slices():
    g = build_uniform_grid(0.0, 0.613, 96)
    h = TimeHierarchy.build(g, [4, 4, 2])
    for l, m in enumerate(h.factors):
        assert np.array_equal(h[l].points[::m], h[l + 1].points)
    assert h[-1].points[0] == g.points[0]


def test_hierarchy_levels_indexing_and_factors():
    h = TimeHierarchy.build(build_uniform_grid(0.0, 1.0, 64), [4, 4])
    assert len(h) == 3
    assert h.factors == (4, 4)
    # every level carries a factor, the coarsest reusing the last one
    assert h.level_factors == (4, 4, 4)


def test_trailing_partial_interval_stays_fine():
    # 11 points, factor 4: last C-point is 8, indices 9..10 are an F-tail
    h = TimeHierarchy.build(TimeGrid(np.linspace(0.0, 1.0, 11)), [4])
    assert np.array_equal(h[1].points, h[0].points[[0, 4, 8]])
    # the 3-point coarsest grid clamps its factor 4 to 2
    assert h.level_factors == (4, 2)


def test_build_rejects_overcoarsening():
    g = build_uniform_grid(0.0, 1.0, 4)
    for factors in ([8], [1]):
        with pytest.raises(ValueError):
            TimeHierarchy.build(g, factors)
