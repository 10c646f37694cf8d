import math

import numpy as np
import pytest

from pintmg.state import BlockState, SpaceTimeVector

from oracles import axpy, discrete_l2_norm, max_abs_diff, space_time_residual


def test_block_state_arithmetic():
    a = BlockState([1.0, 2.0], [10.0])
    b = BlockState([0.5, -1.0], [2.0])
    c = a + b
    assert c.field.tolist() == [1.5, 1.0]
    assert c.scalars.tolist() == [12.0]
    d = a - b
    assert d.field.tolist() == [0.5, 3.0]
    e = 2.0 * a
    assert e.field.tolist() == [2.0, 4.0]
    # the originals are untouched
    assert a.field.tolist() == [1.0, 2.0]


def test_block_state_shape_mismatch_rejected():
    a = BlockState([1.0, 2.0])
    with pytest.raises(ValueError):
        a + BlockState([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        a + BlockState([1.0, 2.0], [0.0])


def test_block_state_copy_from_is_in_place():
    a = BlockState.zeros(3, 1)
    b = BlockState([1.0, 2.0, 3.0], [4.0])
    buf = a.field
    a.copy_from(b)
    assert a.field is buf
    assert a.field.tolist() == [1.0, 2.0, 3.0]
    assert a.scalars.tolist() == [4.0]


def test_axpy_values_and_alpha_zero():
    x = SpaceTimeVector([BlockState([1.0, 0.0]), BlockState([0.0, 2.0])])
    y = SpaceTimeVector([BlockState([1.0, 1.0]), BlockState([1.0, 1.0])])
    z = axpy(2.0, x, y)
    assert z[0].field.tolist() == [3.0, 1.0]
    assert z[1].field.tolist() == [1.0, 5.0]
    same = axpy(0.0, x, y)
    assert max_abs_diff(same, y) == 0.0
    misaligned = SpaceTimeVector([BlockState([1.0, 1.0])])
    with pytest.raises(ValueError):
        axpy(1.0, x, misaligned)


def test_discrete_l2_norm_pythagorean():
    v = SpaceTimeVector([BlockState([3.0], [0.0]), BlockState([0.0], [4.0])])
    assert discrete_l2_norm(v) == pytest.approx(5.0)


def test_norm_covers_fields_and_scalars():
    rng = np.random.default_rng(11)
    fields = rng.normal(size=(5, 7))
    scalars = rng.normal(size=(5, 2))
    v = SpaceTimeVector([BlockState(f, s) for f, s in zip(fields, scalars)])
    expect = math.sqrt(np.sum(fields ** 2) + np.sum(scalars ** 2))
    assert discrete_l2_norm(v) == pytest.approx(expect, rel=1e-14)


def test_residual_zero_for_exact_geometric_decay():
    # u' = lambda u with lambda dt = -1: backward Euler halves per step
    def step(u_prev, t_prev, t_next):
        return 0.5 * u_prev

    times = np.array([0.0, 1.0, 2.0])
    u = SpaceTimeVector([BlockState([1.0]), BlockState([0.5]), BlockState([0.25])])
    g = SpaceTimeVector([BlockState([1.0]), BlockState([0.0]), BlockState([0.0])])
    r = space_time_residual(step, times, u, g)
    assert discrete_l2_norm(r) == 0.0


def test_residual_detects_perturbation_at_one_point():
    def step(u_prev, t_prev, t_next):
        return 0.5 * u_prev

    times = np.array([0.0, 1.0, 2.0, 3.0])
    vals = [1.0, 0.5, 0.25, 0.125]
    u = SpaceTimeVector([BlockState([v]) for v in vals])
    u[2] = BlockState([0.25 + 1e-3])
    g = SpaceTimeVector([BlockState([1.0])]
                        + [BlockState([0.0]) for _ in range(3)])
    r = space_time_residual(step, times, u, g)
    assert r[0].field[0] == 0.0
    assert r[1].field[0] == 0.0
    assert r[2].field[0] == pytest.approx(-1e-3)
    # the next block sees the perturbed propagation source
    assert r[3].field[0] == pytest.approx(0.5e-3)


def test_residual_requires_full_prefix_and_alignment():
    def step(u_prev, t_prev, t_next):
        return u_prev

    times = np.array([0.0, 1.0])
    one = SpaceTimeVector([BlockState([1.0])])
    two = SpaceTimeVector([BlockState([1.0]), BlockState([1.0])])
    three = SpaceTimeVector([BlockState([1.0])] * 3)
    with pytest.raises(ValueError):
        space_time_residual(step, times, one, two)
    with pytest.raises(ValueError):
        space_time_residual(step, times, three, three)
