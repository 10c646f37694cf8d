import math

import numpy as np
import pytest

from pintmg.state import BlockState, SpaceTimeVector

from oracles import axpy, discrete_l2_norm, max_abs_diff, space_time_residual


def _vector(fields, scalars=None):
    fields = np.array(fields, dtype=float)
    return SpaceTimeVector(fields, np.zeros((len(fields), 0))
                           if scalars is None else np.array(scalars, float))


def test_points_are_block_state_views_of_the_rows():
    v = _vector([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [[7.0], [8.0], [9.0]])
    assert len(v) == 3
    point = v[1]
    assert isinstance(point, BlockState)
    assert point.field.tolist() == [3.0, 4.0]
    assert point.scalars.tolist() == [8.0]
    assert np.shares_memory(point.field, v.fields)
    assert np.shares_memory(point.scalars, v.scalars)
    assert [s.field[0] for s in v.states] == [1.0, 3.0, 5.0]
    assert repr(point) == "BlockState(n_field=2, n_scalars=1)"


def test_axpy_values_and_alpha_zero():
    x = _vector([[1.0, 0.0], [0.0, 2.0]])
    y = _vector([[1.0, 1.0], [1.0, 1.0]])
    z = axpy(2.0, x, y)
    assert z[0].field.tolist() == [3.0, 1.0]
    assert z[1].field.tolist() == [1.0, 5.0]
    same = axpy(0.0, x, y)
    assert max_abs_diff(same, y) == 0.0
    misaligned = _vector([[1.0, 1.0]])
    with pytest.raises(ValueError):
        axpy(1.0, x, misaligned)


def test_discrete_l2_norm_pythagorean():
    v = _vector([[3.0], [0.0]], [[0.0], [4.0]])
    assert discrete_l2_norm(v) == pytest.approx(5.0)


def test_norm_covers_fields_and_scalars():
    rng = np.random.default_rng(11)
    fields = rng.normal(size=(5, 7))
    scalars = rng.normal(size=(5, 2))
    v = SpaceTimeVector(fields, scalars)
    expect = math.sqrt(np.sum(fields ** 2) + np.sum(scalars ** 2))
    assert discrete_l2_norm(v) == pytest.approx(expect, rel=1e-14)


def _halving(u_prev, t_prev, t_next):
    # u' = lambda u with lambda dt = -1: backward Euler halves per step
    return 0.5 * u_prev


def test_residual_zero_for_exact_geometric_decay():
    times = np.array([0.0, 1.0, 2.0])
    u = _vector([[1.0], [0.5], [0.25]])
    g = _vector([[1.0], [0.0], [0.0]])
    r = space_time_residual(_halving, times, u, g)
    assert discrete_l2_norm(r) == 0.0


def test_residual_detects_perturbation_at_one_point():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    u = _vector([[1.0], [0.5], [0.25], [0.125]])
    u.fields[2] = 0.25 + 1e-3
    g = _vector([[1.0], [0.0], [0.0], [0.0]])
    r = space_time_residual(_halving, times, u, g)
    assert r[0].field[0] == 0.0
    assert r[1].field[0] == 0.0
    assert r[2].field[0] == pytest.approx(-1e-3)
    # the next block sees the perturbed propagation source
    assert r[3].field[0] == pytest.approx(0.5e-3)


def test_residual_requires_full_prefix_and_alignment():
    def step(u_prev, t_prev, t_next):
        return u_prev

    times = np.array([0.0, 1.0])
    one = _vector([[1.0]])
    two = _vector([[1.0], [1.0]])
    three = _vector([[1.0]] * 3)
    with pytest.raises(ValueError):
        space_time_residual(step, times, one, two)
    with pytest.raises(ValueError):
        space_time_residual(step, times, three, three)
