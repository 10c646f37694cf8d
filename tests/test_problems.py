import copy
import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.linalg import (LinAlgError, cho_solve_banded, cholesky_banded,
                          solveh_banded)
from scipy.linalg.lapack import dpttrf

from pintmg.errors import NewtonConvergenceError
from pintmg.excitation import PwmSource
from pintmg.mgrit import CycleSpec, MgritSolver, StoppingCriterion
from pintmg.problems import (
    BrauerCurve, DahlquistProblem, LinearDiffusionProblem, NewtonOptions,
    NonlinearSaturationProblem, StepDiagnostics, SurrogateMachineProblem,
    _band_factor, _band_factor_solve, _band_solve, _norms, batched_step,
    joule_loss, sequential_solve,
)
from pintmg import problems
from pintmg.state import BlockState
from pintmg.time_hierarchy import TimeHierarchy, build_uniform_grid

from oracles import UnfusedNewton


# --- independent oracles ------------------------------------------------------

def dense_laplacian(n, diffusivity):
    dx = 1.0 / (n + 1)
    K = np.zeros((n, n))
    np.fill_diagonal(K, 2.0)
    np.fill_diagonal(K[1:], -1.0)
    np.fill_diagonal(K[:, 1:], -1.0)
    return diffusivity * K / dx ** 2


def dense_linear_step(n, diffusivity, sigma, dt, u_prev, f):
    A = dense_laplacian(n, diffusivity) + (sigma / dt) * np.eye(n)
    return np.linalg.solve(A, f + (sigma / dt) * u_prev)


def picard_step(n, sigma, k1, k2, k3, dt, u_prev, f, sweeps=5000):
    """Damped lagged-coefficient fixed point for the saturating step."""
    dx = 1.0 / (n + 1)
    rhs = f + (sigma / dt) * u_prev
    u = u_prev.copy()
    for _ in range(sweeps):
        g = np.diff(np.concatenate(([0.0], u, [0.0]))) / dx
        nu = k1 * np.exp(k2 * g * g) + k3
        A = (sigma / dt) * np.eye(n)
        for j in range(n):
            A[j, j] += (nu[j] + nu[j + 1]) / dx ** 2
            if j > 0:
                A[j, j - 1] -= nu[j] / dx ** 2
            if j < n - 1:
                A[j, j + 1] -= nu[j + 1] / dx ** 2
        u_new = u + 0.5 * (np.linalg.solve(A, rhs) - u)
        if np.linalg.norm(u_new - u) <= 1e-14 * max(1.0, np.linalg.norm(u_new)):
            return u_new
        u = u_new
    raise AssertionError("Picard oracle failed to converge")


# --- linear diffusion ---------------------------------------------------------

def test_linear_step_matches_dense_solve():
    n, nu, sigma, dt = 31, 0.7, 1.3, 1e-3
    prob = LinearDiffusionProblem(n, diffusivity=nu, mass_coeff=sigma,
                                  excitation=PwmSource())
    rng = np.random.default_rng(0)
    u_prev = BlockState(rng.normal(size=n))
    out, diag = prob.step(u_prev, 0.001, 0.001 + dt)
    f = prob.forcing(0.001 + dt)
    expect = dense_linear_step(n, nu, sigma, dt, u_prev.field, f)
    assert np.allclose(out.field, expect, rtol=1e-12, atol=1e-14)
    assert diag.iterations == 1


def test_linear_step_is_deterministic():
    prob = LinearDiffusionProblem(15, excitation=PwmSource())
    u_prev = BlockState(np.linspace(-1.0, 1.0, 15))
    a, _ = prob.step(u_prev, 0.0, 1e-4)
    b, _ = prob.step(u_prev, 0.0, 1e-4)
    assert np.array_equal(a.field, b.field)


def test_backward_euler_first_order_in_time():
    # sin(pi x) is an exact eigenvector of the discrete Laplacian, so the
    # only error left is the time discretization
    n, nu = 31, 1.0
    dx = 1.0 / (n + 1)
    lam = nu * 2.0 * (1.0 - math.cos(math.pi * dx)) / dx ** 2
    x = np.arange(1, n + 1) * dx
    u0 = np.sin(math.pi * x)
    T = 0.02

    def final_error(n_steps):
        prob = LinearDiffusionProblem(n, diffusivity=nu)
        u = BlockState(u0.copy())
        dt = T / n_steps
        for i in range(n_steps):
            u, _ = prob.step(u, i * dt, (i + 1) * dt)
        exact = math.exp(-lam * T) * u0
        return np.max(np.abs(u.field - exact))

    e1, e2 = final_error(64), final_error(128)
    assert 1.7 <= e1 / e2 <= 2.3


def test_smooth_forcing_mode_uses_reference_surrogate():
    src = PwmSource(period=0.02, pulses=400, modulation=0.8)
    prob = LinearDiffusionProblem(15, excitation=src)
    t = 0.0137
    assert np.allclose(prob.forcing(t, smooth=True),
                       src.smooth_value(t) * prob.forcing(t) /
                       src.value(t))


# --- nonlinear saturation -------------------------------------------------------

def test_nonlinear_step_matches_picard_oracle():
    n, sigma, dt = 15, 1.0, 2e-3
    curve = BrauerCurve(k1=0.05, k2=2.0, k3=1.0)
    prob = NonlinearSaturationProblem(n, curve=curve, mass_coeff=sigma)
    x = np.arange(1, n + 1) / (n + 1)
    u_prev = BlockState(0.4 * np.sin(math.pi * x))
    f = 2.0 * np.sin(2.0 * math.pi * x)
    prob_forced = NonlinearSaturationProblem(n, curve=curve, mass_coeff=sigma)
    prob_forced._forcings = lambda times, level, smooth: f
    out, diag = prob_forced.step(u_prev, 0.0, dt)
    expect = picard_step(n, sigma, curve.k1, curve.k2, curve.k3, dt,
                         u_prev.field, f)
    assert diag.iterations >= 1
    assert np.max(np.abs(out.field - expect)) < 1e-9


def test_constant_reluctivity_reduces_to_linear_problem():
    # k2 = 0 with k1 + k3 = nu makes the flux linear; the nonlinear and
    # linear steppers must then agree to solver precision
    n, sigma, dt = 15, 1.2, 5e-4
    src = PwmSource(pulses=40)
    lin = LinearDiffusionProblem(n, diffusivity=1.05, mass_coeff=sigma,
                                 excitation=src)
    non = NonlinearSaturationProblem(
        n, curve=BrauerCurve(k1=0.05, k2=0.0, k3=1.0), mass_coeff=sigma,
        excitation=src)
    rng = np.random.default_rng(1)
    u_prev = BlockState(rng.normal(size=n))
    a, _ = lin.step(u_prev, 0.0, dt)
    b, diag = non.step(u_prev, 0.0, dt)
    assert np.max(np.abs(a.field - b.field)) < 1e-11
    assert diag.iterations == 1  # affine residual: one Newton step lands


def test_newton_zero_data_converges_immediately():
    prob = NonlinearSaturationProblem(7)
    u = BlockState.zeros(7)
    for guess in (None, u):
        out, diag = prob.step(u, 0.0, 1e-3, guess=guess)
        assert np.all(out.field == 0.0)
        assert diag.iterations == 0
        # callers add into a step's result: it must not alias the input
        assert not np.shares_memory(out.field, u.field)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_failure_surfaces_as_error():
    prob = NonlinearSaturationProblem(
        9, curve=BrauerCurve(k1=1.0, k2=8.0, k3=1.0),
        newton=NewtonOptions(max_iters=1, tol=1e-14))
    x = np.arange(1, 10) / 10.0
    u_prev = BlockState(3.0 * np.sin(math.pi * x))
    prob._forcings = lambda times, level, smooth: 50.0 * np.sin(2 * math.pi * x)
    with pytest.raises(NewtonConvergenceError):
        prob.step(u_prev, 0.0, 0.05)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_newton_rejects_a_non_finite_residual():
    prob = NonlinearSaturationProblem(9, excitation=PwmSource())
    u_prev = BlockState(np.full(9, 0.1))
    u_prev.field[4] = np.nan
    with pytest.raises(NewtonConvergenceError,
                       match=r"not finite at t=0\.001 on grid 0") as err:
        prob.step(u_prev, 0.0, 1e-3)
    assert err.value.time == 1e-3 and err.value.iterations == 0


def test_a_cholesky_breakdown_is_a_newton_failure():
    # gradients this steep make the band dwarf sig_dt = 1e4, and rounding
    # leaves the Jacobian numerically indefinite on the first iterate
    prob = NonlinearSaturationProblem(31, excitation=PwmSource(),
                                      source="random", seed=7)
    u_prev = BlockState(0.1 * np.random.default_rng(0).normal(size=31))
    with pytest.raises(NewtonConvergenceError,
                       match=r"at t=0\.0001 on grid 0 is not positive "
                             r"definite after 0 iterations: 9-th leading "
                             r"minor") as err:
        prob.step(u_prev, 0.0, 1e-4)
    assert err.value.time == 1e-4 and err.value.iterations == 0
    assert isinstance(err.value.__cause__, LinAlgError)


def test_newton_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(max_iters=0)
    with pytest.raises(ValueError):
        NewtonOptions(tol=0.0)
    with pytest.raises(ValueError):
        BrauerCurve(k3=0.0)


# --- surrogate machine ----------------------------------------------------------

def test_machine_scalar_update_formulas():
    prob = SurrogateMachineProblem(7, inertia=2.0, friction=0.5)
    dt = 0.01
    u_prev = BlockState.zeros(7, 2)
    u_prev.scalars[:] = [0.3, 1.5]  # (theta, omega)
    out, _ = prob.step(u_prev, 0.0, dt)
    # zero field keeps zero torque, so the rotor sees pure friction decay
    omega_expect = 1.5 / (1.0 + dt * 0.5 / 2.0)
    assert out.scalars[1] == pytest.approx(omega_expect, rel=1e-14)
    assert out.scalars[0] == pytest.approx(0.3 + dt * omega_expect, rel=1e-14)


def test_machine_frictionless_constant_speed():
    prob = SurrogateMachineProblem(7, inertia=1.0, friction=0.0)
    u_prev = BlockState.zeros(7, 2)
    u_prev.scalars[:] = [0.0, 2.0]
    out, _ = prob.step(u_prev, 0.0, 0.25)
    assert out.scalars[1] == pytest.approx(2.0)
    assert out.scalars[0] == pytest.approx(0.5)


def test_machine_coupling_is_one_way():
    prob = SurrogateMachineProblem(15, excitation=PwmSource())
    x = np.arange(1, 16) / 16.0
    a_prev = BlockState(0.5 * np.sin(math.pi * x), [0.0, 0.0])
    b_prev = BlockState(0.5 * np.sin(math.pi * x), [9.9, -3.0])
    a, _ = prob.step(a_prev, 0.0, 1e-4)
    b, _ = prob.step(b_prev, 0.0, 1e-4)
    assert np.array_equal(a.field, b.field)


def test_machine_torque_is_fixed_weighted_sum():
    prob = SurrogateMachineProblem(15)
    rng = np.random.default_rng(2)
    u = rng.normal(size=15)
    x = np.arange(1, 16) / 16.0
    expect = float(np.sin(2 * math.pi * x) @ u) / 16.0
    assert prob.torque(u) == pytest.approx(expect, rel=1e-14)


# --- scalar test problem ----------------------------------------------------------

def test_dahlquist_backward_euler_halving():
    prob = DahlquistProblem(rate=-1.0, initial=1.0)
    u, _ = prob.step(prob.initial_state(), 0.0, 1.0)
    assert u.field[0] == pytest.approx(0.5)
    v = sequential_solve(prob, np.array([0.0, 1.0, 2.0]))
    assert v[2].field[0] == pytest.approx(0.25)


# --- sequential oracle and losses ---------------------------------------------

def test_sequential_solve_matches_dense_recursion():
    n, nu, sigma = 15, 1.0, 1.0
    src = PwmSource(pulses=40)
    prob = LinearDiffusionProblem(n, diffusivity=nu, mass_coeff=sigma,
                                  excitation=src)
    times = np.linspace(0.0, 0.005, 33)
    sol = sequential_solve(prob, times)
    u = np.zeros(n)
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        u = dense_linear_step(n, nu, sigma, dt, u, prob.forcing(times[i]))
        assert np.allclose(sol[i].field, u, rtol=1e-11, atol=1e-13)


def test_joule_loss_values():
    a = np.array([[1.0, 1.0]])
    b = np.array([[1.0, 1.0]])
    assert joule_loss(a, b, 0.1, np.array([2.0, 3.0])).tolist() == [0.0]
    c = np.array([[4.0, 1.0]])
    assert joule_loss(a, c, 1.0, np.array([2.0, 0.0])) == pytest.approx(
        [18.0])
    # one loss per row, each with its own step
    assert joule_loss(np.vstack((a, a)), np.vstack((b, c)), [0.1, 1.0],
                      np.array([2.0, 0.0])) == pytest.approx([0.0, 18.0])


def test_joule_loss_rows_are_each_rows_loss_bitwise():
    rng = np.random.default_rng(16)
    for n in (15, 31, 63, 127):
        w = rng.uniform(0.5, 2.0, size=n) / (n + 1)
        for k in (1, 2, 7, 64, 256):
            before, at = rng.normal(size=(2, k, n))
            for dt in (rng.uniform(1e-6, 1e-4, size=k).tolist(), 1e-5):
                steps = dt if isinstance(dt, list) else [dt] * k
                want = []
                for a, b, d in zip(before, at, steps):
                    du = (b - a) / d
                    want.append(float(w @ (du * du)))
                assert joule_loss(before, at, dt, w).tolist() == want


def test_loss_weights_scale_with_spacing():
    prob = LinearDiffusionProblem(15, mass_coeff=2.0, n_spatial_grids=2)
    w0 = prob.loss_weights(0)
    w1 = prob.loss_weights(1)
    assert w0.size == 15 and w1.size == 7
    assert w0[0] == pytest.approx(2.0 / 16.0)
    assert w1[0] == pytest.approx(2.0 / 8.0)


def test_linear_step_is_affine_in_previous_state():
    prob = LinearDiffusionProblem(15, diffusivity=0.3, mass_coeff=1.0,
                                  excitation=PwmSource(pulses=40))
    rng = np.random.default_rng(7)
    u1 = BlockState(rng.normal(size=15))
    u2 = BlockState(rng.normal(size=15))
    a, b = 0.7, -1.3

    def step(u):
        out, _ = prob.step(u, 0.001, 0.0015)
        return out.field

    base = step(BlockState(np.zeros(15)))
    combined = step(BlockState(a * u1.field + b * u2.field))
    superposed = base + a * (step(u1) - base) + b * (step(u2) - base)
    assert np.allclose(combined, superposed, rtol=1e-12, atol=1e-14)


def test_newton_jacobian_matches_finite_differences():
    prob = NonlinearSaturationProblem(9, mass_coeff=1.0)
    dt, dx = 0.01, prob.spatial.spacing(0)
    rng = np.random.default_rng(3)
    u = 0.3 * rng.normal(size=9)

    def residual(v):
        return prob.mass_coeff / dt * v + prob._divergence(v, dx)[0]

    banded = prob._jacobian_band(*prob._divergence(u, dx)[1:],
                                 prob.mass_coeff / dt, dx)
    dense = np.diag(banded[1]) + np.diag(banded[0, 1:], 1) + np.diag(
        banded[0, 1:], -1)
    eps = 1e-7
    fd = np.empty((9, 9))
    for j in range(9):
        e = np.zeros(9)
        e[j] = eps
        fd[:, j] = (residual(u + e) - residual(u - e)) / (2.0 * eps)
    assert np.max(np.abs(dense - fd)) / np.max(np.abs(fd)) < 1e-5


# --- the one-step kernels at their floor ------------------------------------------

PWM = dict(period=0.02, pulses=400, modulation=0.8, ramp_enabled=True)
KINDS = {"linear": LinearDiffusionProblem,
         "nonlinear": NonlinearSaturationProblem,
         "machine": SurrogateMachineProblem}


def _problem(kind, excitation=None):
    excitation = PwmSource(**PWM) if excitation is None else excitation
    if kind == "dahlquist":
        return DahlquistProblem(rate=-50.0, excitation=excitation)
    return KINDS[kind](15, n_spatial_grids=3, source="random", seed=5,
                       excitation=excitation)


def _uncached_forcing(problem):
    """The forcing formula evaluated afresh on every call."""
    def forcing(t, spatial_level=0, smooth=False):
        src = problem.excitation
        v = src.smooth_value(t) if smooth else src.value(t)
        return v * problem._shapes[spatial_level]
    return forcing


def _uncached_forcings(problem):
    """_forcings from the formula, afresh per call and per time: a single
    time's row, or the stack of the rows."""
    forcing = _uncached_forcing(problem)

    def forcings(times, spatial_level, smooth):
        rows = [forcing(t, spatial_level, smooth) for t in times]
        return rows[0] if len(rows) == 1 else np.array(rows)
    return forcings


def _three_level_solve(problem, transport=None):
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, 64), [4, 4])
    solver = MgritSolver(
        problem, hier,
        CycleSpec(kind="V", max_iters=20, spatial_strategy="direct",
                  nested_iterations=True),
        StoppingCriterion(tolerance=1e-6), transport)
    return solver.solve()


def _arrays(trajectory):
    return trajectory.fields, trajectory.scalars


def test_forcing_is_memoized_read_only():
    prob = _problem("linear")
    for level, smooth in ((0, False), (2, True)):
        f = prob.forcing(0.0137, level, smooth)
        assert not f.flags.writeable
        assert prob.forcing(0.0137, level, smooth) is f
        with pytest.raises(ValueError):
            f[0] = 1.0
    assert not LinearDiffusionProblem(7).forcing(0.5).flags.writeable


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_forcing_memo_changes_no_bit(kind):
    memo, fresh = _problem(kind), _problem(kind)
    fresh._forcings = _uncached_forcings(fresh)
    times = build_uniform_grid(0.0, 0.02, 64).points
    for smooth in (False, True):
        a = _arrays(sequential_solve(memo, times, 1, smooth))
        b = _arrays(sequential_solve(fresh, times, 1, smooth))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    run_a, sol_a = _three_level_solve(memo)
    run_b, sol_b = _three_level_solve(fresh)
    assert run_a.converged and run_a.iterations == run_b.iterations
    assert run_a.residual_norms == run_b.residual_norms
    assert run_a.qoi_changes == run_b.qoi_changes
    assert all(np.array_equal(x, y)
               for x, y in zip(_arrays(sol_a), _arrays(sol_b)))


@pytest.mark.parametrize("n", [31, 127])
def test_lapack_band_helpers_match_scipy_bitwise(n):
    rng = np.random.default_rng(n)
    ab = np.zeros((2, n))
    ab[0, 1:] = -rng.uniform(0.5, 2.0, n - 1) * n * n
    ab[1] = 4.0 * n * n + rng.uniform(10.0, 1e4, n)
    b = rng.normal(size=n)
    d, l, info = dpttrf(ab[1], ab[0, 1:])
    factor = _band_factor(ab.copy())
    assert info == 0
    assert np.array_equal(factor[0], d) and np.array_equal(factor[1], l)
    want = solveh_banded(ab, b)
    assert np.array_equal(_band_solve(factor, b.copy()), want)
    # Newton's one-call ptsv: bitwise pttrf then pttrs
    x, info = _band_factor_solve(ab.copy(), b.copy())
    assert info == 0 and np.array_equal(x, want)
    # one point: pttrs scales by 1 / d
    x, info = _band_factor_solve(ab[:, :1].copy(), b[:1].copy())
    assert info == 0 and x.tolist() == [b[0] * (1.0 / ab[1, 0])]
    ab[1, n // 2] = -1.0
    with pytest.raises(LinAlgError):
        _band_factor(ab.copy())
    with pytest.raises(LinAlgError):
        solveh_banded(ab, b)
    assert _band_factor_solve(ab, b)[1] == n // 2 + 1


def _assert_near_cholesky(ab, b, x):
    """x, an LDL^T solve of the band ab, is within rounding of banded
    Cholesky's solve y: |x - y| <= 2 n eps cond(A) |y| in 2-norms, the sum
    of the first-order forward error bounds n eps cond(A) |y| of the two
    backward-stable solves."""
    y = cho_solve_banded((cholesky_banded(ab), False), b)
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)
    n, eps = len(b), np.finfo(float).eps
    bound = 2.0 * n * eps * np.linalg.cond(dense) * np.linalg.norm(y)
    assert np.linalg.norm(x - y) <= bound


@pytest.mark.parametrize("n", [15, 31, 63, 127])
def test_ldlt_solves_agree_with_banded_cholesky(n):
    """Random diagonally dominant bands, from a margin of 1e-6 (cond up to
    about 1e7) to one of 10."""
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        ab = np.zeros((2, n))
        ab[0, 1:] = -rng.uniform(0.5, 2.0, n - 1)
        ab[1] = (-ab[0] - np.append(ab[0, 1:], 0.0)
                 + 10.0 ** rng.uniform(-6.0, 1.0, n))
        b = rng.normal(size=n)
        x, info = _band_factor_solve(ab.copy(), b.copy())
        assert info == 0
        _assert_near_cholesky(ab, b, x)


def test_ldlt_agrees_with_banded_cholesky_on_steep_jacobians():
    """The steep _nine_rows Jacobians: LDL^T agrees with banded Cholesky
    within rounding on the eight positive-definite rows, and both reject
    row 4's at the same leading minor."""
    prob = NonlinearSaturationProblem(15)
    _, _, (r, s2, e, nu, dx) = _nine_rows(prob, steep=True)
    for q in range(9):
        ab = prob._jacobian_band(s2[q], e[q], nu[q], 1000.0, dx)
        x, info = _band_factor_solve(ab.copy(), -r[q])
        if q != 4:
            assert info == 0
            _assert_near_cholesky(ab, -r[q], x)
            continue
        with pytest.raises(LinAlgError) as err:
            cholesky_banded(ab)
        assert str(err.value).startswith(f"{info}-th leading minor")


def test_newton_helpers_match_padded_differences_bitwise():
    prob = NonlinearSaturationProblem(9)
    dx = prob.spatial.spacing(0)
    rng = np.random.default_rng(4)
    for u in (0.3 * rng.normal(size=9), np.zeros(9), -np.zeros(9),
              np.array([0.0, 0.2, 0.2, -0.0, 0.1, 0.1, 0.3, 0.1, 0.0])):
        g = np.diff(np.concatenate(([0.0], u, [0.0]))) / dx
        c = prob.curve  # the Brauer flux, written out
        flux = (c.k1 * np.exp(c.k2 * (g * g)) + c.k3) * g
        for got, want in ((prob._gradients(u, dx), g),
                          (prob._divergence(u, dx)[0], -np.diff(flux) / dx)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _norms_and_bytes(problem):
    run, sol = _three_level_solve(problem)
    return run.residual_norms, [a.tobytes() for a in _arrays(sol)]


@pytest.mark.parametrize("n_threads", [2, 3])
def test_one_instance_shared_by_threads_changes_no_bit(n_threads):
    for kind in ("machine", "linear"):
        own = _norms_and_bytes(_problem(kind))
        shared, results = _problem(kind), [None] * n_threads

        def solve(i):
            results[i] = _norms_and_bytes(shared)

        threads = [threading.Thread(target=solve, args=(i,))
                   for i in range(n_threads)]
        # threads switch often, so the solves race on the shared memos
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [own] * n_threads


class _CountingSource:
    """A PWM source recording each call as (argument, smooth)."""

    def __init__(self):
        self.inner, self.args = PwmSource(**PWM), []

    def value(self, t):
        self.args.append((t, False))
        return self.inner.value(t)

    def smooth_value(self, t):
        self.args.append((t, True))
        return self.inner.smooth_value(t)


def test_source_is_evaluated_once_per_distinct_forcing_key():
    """Each forcing memo entry of a solve comes from one source call on
    exactly its own times: a single time's float, a stack's array."""
    source = _CountingSource()
    prob = _problem("machine", source)
    run, _ = _three_level_solve(prob)
    assert run.converged
    keys = prob._forcing.keys()
    assert {(l, s) for _, l, s in keys} >= {(0, False), (2, True)}
    assert {type(t) for t, _, _ in keys} == {float, tuple}
    assert {type(t) for t, _ in source.args} == {float, np.ndarray}
    evaluated = sorted((tuple(np.atleast_1d(t).tolist()), s)
                       for t, s in source.args)
    assert evaluated == sorted((t if type(t) is tuple else (t,), s)
                               for t, _, s in keys)


# --- Newton at its floor: one flux evaluation per iterate ----------------------------

NEWTON_KINDS = ("nonlinear", "machine")
# k2 = 2 makes 2 k1 k2 s2 exact in any grouping; 1.3 does not
CURVES = (BrauerCurve(), BrauerCurve(k1=0.07, k2=1.3, k3=0.9))


def _damped_case(kind, amplitude):
    """A step from a large field to a zero guess: the full Newton step
    overshoots, so the line search has to damp it."""
    prob = KINDS[kind](15, source="sine")
    scalars = [0.3, -0.2] if kind == "machine" else None
    u_prev = BlockState(amplitude * np.sin(np.linspace(0.1, 3.0, 15)),
                        scalars)
    return prob, u_prev, BlockState(np.zeros(15), scalars)


def _assert_same_step(a, b):
    (sa, da), (sb, db) = a, b
    assert np.array_equal(sa.field, sb.field)
    assert np.array_equal(np.signbit(sa.field), np.signbit(sb.field))
    assert np.array_equal(sa.scalars, sb.scalars)
    assert da.iterations == db.iterations


@pytest.mark.parametrize("curve", CURVES)
@pytest.mark.parametrize("kind", NEWTON_KINDS)
def test_fused_newton_steps_match_the_unfused_oracle_bitwise(kind, curve):
    prob = _problem(kind)
    oracle = UnfusedNewton(_problem(kind))
    prob.curve = oracle.problem.curve = curve
    times = build_uniform_grid(0.0, 0.02, 64).points
    for level, smooth in ((0, False), (2, True)):
        u = prob.initial_state(level)
        for i in range(1, len(times)):
            args = (u, float(times[i - 1]), float(times[i]), level, u, smooth)
            got = prob.step(*args)
            _assert_same_step(got, oracle.step(*args))
            u = got[0]
        a = _arrays(sequential_solve(prob, times, level, smooth))
        b = _arrays(sequential_solve(oracle, times, level, smooth))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("kind", NEWTON_KINDS)
def test_fused_newton_mgrit_solve_matches_the_unfused_oracle_bitwise(kind):
    run_a, sol_a = _three_level_solve(_problem(kind))
    run_b, sol_b = _three_level_solve(UnfusedNewton(_problem(kind)))
    assert run_a.converged and run_a.iterations == run_b.iterations
    assert run_a.initial_residual == run_b.initial_residual
    assert run_a.residual_norms == run_b.residual_norms
    assert run_a.qoi_changes == run_b.qoi_changes
    assert all(np.array_equal(x, y)
               for x, y in zip(_arrays(sol_a), _arrays(sol_b)))


@pytest.mark.parametrize("kind", NEWTON_KINDS)
def test_damped_newton_step_matches_the_unfused_oracle_bitwise(kind):
    prob, u_prev, guess = _damped_case(kind, 1.0)
    oracle = UnfusedNewton(prob)
    want = oracle.step(u_prev, 0.0, 1e-2, guess=guess)
    assert want[1].iterations == 7 and oracle.halvings >= 1
    _assert_same_step(prob.step(u_prev, 0.0, 1e-2, guess=guess), want)
    # gradients this steep make every term of the Jacobian count
    dx, sig_dt = prob.spatial.spacing(0), prob.mass_coeff / 1e-2
    for curve in CURVES:
        prob.curve = curve
        for u in (u_prev.field, want[0].field):
            got = prob._jacobian_band(*prob._divergence(u, dx)[1:], sig_dt, dx)
            assert np.array_equal(got, oracle._jacobian(u, sig_dt, dx))


@pytest.mark.parametrize("amplitude", [10.0, 100.0])
@pytest.mark.parametrize("kind", NEWTON_KINDS)
def test_a_non_finite_newton_trial_is_damped(kind, amplitude):
    # the full step overflows exp: its residual norm is NaN, which the
    # line search must reject like any norm that is not smaller
    prob, u_prev, guess = _damped_case(kind, amplitude)
    oracle = UnfusedNewton(prob)
    want = oracle.step(u_prev, 0.0, 1e-2, guess=guess)
    assert oracle.non_finite_trials >= 1
    got = prob.step(u_prev, 0.0, 1e-2, guess=guess)
    _assert_same_step(got, want)
    rhs = prob.forcing(1e-2) + (prob.mass_coeff / 1e-2) * u_prev.field
    res = (prob.mass_coeff / 1e-2) * got[0].field + prob._divergence(
        got[0].field, prob.spatial.spacing(0))[0] - rhs
    assert np.linalg.norm(res) <= prob.newton.tol * np.linalg.norm(rhs)
    if amplitude == 10.0:
        assert got[1].iterations == 10


@dataclass(frozen=True)
class _CountingCurve(BrauerCurve):
    calls: list = field(default_factory=list, compare=False)

    def exp_and_nu(self, s2):
        self.calls.append("exp_and_nu")
        return super().exp_and_nu(s2)


@pytest.mark.parametrize("kind", NEWTON_KINDS)
def test_a_newton_step_evaluates_exp_once_per_residual(kind):
    cases = [_damped_case(kind, a) for a in (1.0, 10.0)]
    pwm = _problem(kind)
    times = build_uniform_grid(0.0, 0.02, 16).points
    cases += [(pwm, pwm.initial_state(), None)]
    for prob, u_prev, guess in cases:
        oracle = UnfusedNewton(prob)
        prob.curve = _CountingCurve()
        t_prev = 0.0
        for t_next in (1e-2,) if guess is not None else times[1:]:
            before = oracle.halvings
            oracle.step(u_prev, t_prev, float(t_next), guess=guess)
            del prob.curve.calls[:]
            u_prev, diag = prob.step(u_prev, t_prev, float(t_next),
                                     guess=guess)
            halvings = oracle.halvings - before
            assert prob.curve.calls == (
                ["exp_and_nu"] * (1 + diag.iterations + halvings))
            t_prev = float(t_next)
    assert oracle.halvings == 0  # the PWM steps take full Newton steps


@pytest.mark.parametrize("amplitude", [1.0, 10.0])
@pytest.mark.parametrize("kind", NEWTON_KINDS)
def test_damped_rows_share_each_halvings_residual(kind, amplitude):
    # the line search damps every row that needs it with one residual per
    # halving: a damped row stacked 36 times evaluates exp as often as the
    # row alone, and each row is bitwise its own step
    prob, u_prev, guess = _damped_case(kind, amplitude)
    want = prob.step(u_prev, 0.0, 1e-2, guess=guess)
    prob.curve, calls = _CountingCurve(), []
    for k in (1, 36):
        del prob.curve.calls[:]
        got = prob.step_many(np.tile(u_prev.field, (k, 1)),
                             np.tile(u_prev.scalars, (k, 1)), [0.0] * k,
                             [1e-2] * k, guess=np.tile(guess.field, (k, 1)))
        calls.append(len(prob.curve.calls))
        for f, s, it in zip(*got):
            _assert_same_step((BlockState(f, s), StepDiagnostics(it)), want)
    assert calls[0] == calls[1] > 1 + want[1].iterations


@pytest.mark.parametrize("kind", NEWTON_KINDS)
def test_a_stack_of_rows_damped_differently_is_each_rows_step(kind):
    cases = [_damped_case(kind, a) for a in (1.0, 10.0, 0.01) * 12]
    prob = cases[0][0]
    got = prob.step_many(np.array([u.field for _, u, _ in cases]),
                         np.array([u.scalars for _, u, _ in cases]),
                         [0.0] * 36, [1e-2] * 36,
                         guess=np.array([g.field for *_, g in cases]))
    for f, s, it, (_, u_prev, guess) in zip(*got, cases):
        _assert_same_step((BlockState(f, s), StepDiagnostics(it)),
                          prob.step(u_prev, 0.0, 1e-2, guess=guess))


# --- step_many: many rows in one call, each bitwise its own step -----------------

# every bundled problem steps rows with its own step_many; the one-point
# Dahlquist problem has a single grid, so it is checked on level 0 only
STEP_MANY_KINDS = (*sorted(KINDS), "dahlquist")


def _rows_of_a_run(prob, level, smooth, n_rows, first=5):
    """States a sequential run passes through on a 64-step grid, as rows,
    with the consecutive step each row takes next: several distinct dt."""
    times = build_uniform_grid(0.0, 0.02, 64).points.tolist()
    run = sequential_solve(prob, times, level, smooth)
    stop = first + n_rows
    return (run.fields[first:stop], run.scalars[first:stop],
            times[first:stop], times[first + 1:stop + 1])


@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("n_rows", [1, 8, 33])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_step_many_is_each_rows_step_bitwise(kind, n_rows, level, smooth):
    prob = _problem(kind)
    fields, scalars, t_prev, t_next = _rows_of_a_run(prob, level, smooth,
                                                     n_rows)
    if n_rows > 8:
        assert len({b - a for a, b in zip(t_prev, t_next)}) > 1
    got = prob.step_many(fields, scalars, t_prev, t_next, level, smooth)
    want = [prob.step(BlockState(f, s), a, b, level, guess=BlockState(f, s),
                      smooth=smooth)
            for f, s, a, b in zip(fields, scalars, t_prev, t_next)]
    assert np.array_equal(got[0], np.array([u.field for u, _ in want]))
    assert np.array_equal(np.signbit(got[0]),
                          np.signbit([u.field for u, _ in want]))
    assert np.array_equal(got[1], np.array([u.scalars for u, _ in want])
                          .reshape(scalars.shape))
    assert list(got[2]) == [d.iterations for _, d in want]
    assert not np.shares_memory(got[0], fields)


@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("n_rows", [1, 8, 33])
def test_dahlquist_steps_rows_with_its_own_step_many(n_rows, smooth):
    prob = _problem("dahlquist")
    assert batched_step(prob) == prob.step_many
    fields, scalars, t_prev, t_next = _rows_of_a_run(prob, 0, smooth, n_rows)
    if n_rows > 8:
        assert len({b - a for a, b in zip(t_prev, t_next)}) > 1
    got = batched_step(prob)(fields, scalars, t_prev, t_next, 0, smooth)
    want = [prob.step(BlockState(f, s), a, b, 0, smooth=smooth)
            for f, s, a, b in zip(fields, scalars, t_prev, t_next)]
    assert np.array_equal(got[0], np.array([u.field for u, _ in want]))
    assert got[1].shape == (n_rows, 0) and list(got[2]) == [1] * n_rows
    # the one-point source shape is exactly 1.0: f is the source value
    src = prob.excitation
    value = src.smooth_value if smooth else src.value
    for (u, _), f, a, b in zip(want, fields[:, 0], t_prev, t_next):
        dt = b - a
        assert u.field[0] == (f + dt * value(b)) / (1.0 - dt * prob.rate)


def _guessed_rows(prob, n_rows):
    """_rows_of_a_run's rows and, as guesses, the states one step on, each
    moved off by a little noise so that Newton still has work to do."""
    fields, scalars, t_prev, t_next = _rows_of_a_run(prob, 0, False, n_rows)
    ahead = _rows_of_a_run(prob, 0, False, n_rows, first=6)[0]
    noise = np.random.default_rng(3).normal(size=ahead.shape)
    return fields, scalars, t_prev, t_next, ahead + 1e-7 * noise


@pytest.mark.parametrize("tol", [None, 1e-6])
@pytest.mark.parametrize("n_rows", [1, 8, 33])
@pytest.mark.parametrize("kind", STEP_MANY_KINDS)
def test_step_many_from_guess_rows_is_each_rows_step_bitwise(kind, n_rows,
                                                             tol):
    """Row r starts Newton from guess row r and stops at tol: bitwise
    step(..., guess=<guess row r>) of a problem whose newton.tol is tol."""
    prob = _problem(kind)
    fields, scalars, t_prev, t_next, guess = _guessed_rows(prob, n_rows)
    got = prob.step_many(fields, scalars, t_prev, t_next, 0, False, guess,
                         tol)
    stepper = prob
    if tol is not None and kind in NEWTON_KINDS:
        stepper = copy.copy(prob)
        stepper.newton = NewtonOptions(tol=tol)
    want = [stepper.step(BlockState(f, s), a, b, 0, guess=BlockState(g))
            for f, s, a, b, g in zip(fields, scalars, t_prev, t_next, guess)]
    assert np.array_equal(got[0], np.array([u.field for u, _ in want]))
    assert np.array_equal(np.signbit(got[0]),
                          np.signbit([u.field for u, _ in want]))
    assert np.array_equal(got[1], np.array([u.scalars for u, _ in want])
                          .reshape(scalars.shape))
    assert list(got[2]) == [d.iterations for _, d in want]
    assert not np.shares_memory(got[0], guess)
    if kind in NEWTON_KINDS:  # the guesses save Newton iterates
        cold = prob.step_many(fields, scalars, t_prev, t_next)[2]
        assert sum(got[2]) < sum(cold)


class _StepOnly:
    """A wrapper that forwards every attribute and defines only the
    six-argument step, as a tracing proxy might."""

    def __init__(self, problem):
        self.problem = problem

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def step(self, u_prev, t_prev, t_next, spatial_level=0, guess=None,
             smooth=False):
        return self.problem.step(u_prev, t_prev, t_next, spatial_level,
                                 guess=guess, smooth=smooth)


@pytest.mark.parametrize("kind", STEP_MANY_KINDS)
def test_the_per_row_loop_forwards_guesses_and_never_a_tolerance(kind):
    prob = _problem(kind)
    fields, scalars, t_prev, t_next, guess = _guessed_rows(prob, 8)
    kernel = batched_step(_StepOnly(prob))
    got = kernel(fields, scalars, t_prev, t_next, 0, False, guess, 1e-6)
    want = prob.step_many(fields, scalars, t_prev, t_next, 0, False, guess)
    assert all(np.array_equal(a, b) for a, b in zip(got[:2], want[:2]))
    assert list(got[2]) == list(want[2])


@pytest.mark.parametrize("level", [0, 1])
def test_linear_step_many_groups_interleaved_dts_bitwise(level):
    """A linspace grid's steps differ in their last bits, so a layer's rows
    take several dts; interleaved, each row is bitwise its own step, and
    so is each row of a layer with a single dt."""
    prob = _problem("linear")
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 0.02, 2049).tolist()
    n = prob.spatial.size(level)
    for q in (rng.permutation(48), [7] * 5):
        t_prev, t_next = [times[4 * i] for i in q], [times[4 * i + 1]
                                                    for i in q]
        dts = {b - a for a, b in zip(t_prev, t_next)}
        assert len(dts) >= 3 if len(q) == 48 else len(dts) == 1
        fields = rng.normal(size=(len(q), n))
        got, _, its = prob.step_many(fields, np.zeros((len(q), 0)), t_prev,
                                     t_next, level)
        want = np.array([prob.step(BlockState(f), a, b, level)[0].field
                         for f, a, b in zip(fields, t_prev, t_next)])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert its == [1] * len(q)


def test_step_many_raises_the_first_failing_rows_own_error():
    prob = NonlinearSaturationProblem(
        15, excitation=PwmSource(**PWM), newton=NewtonOptions(max_iters=2))
    x = np.linspace(0.1, 3.0, 15)
    fields = np.zeros((8, 15))
    fields[3], fields[5] = np.sin(x), 0.8 * np.sin(2.0 * x)
    t_prev = [0.001 * r for r in range(8)]
    t_next = [t + 0.001 for t in t_prev]
    single = {}
    for r in range(8):
        u = BlockState(fields[r])
        try:
            prob.step(u, t_prev[r], t_next[r], guess=u)
        except NewtonConvergenceError as e:
            single[r] = e
    assert sorted(single) == [3, 5]
    assert "stalled" in str(single[3]) and str(single[3]) != str(single[5])
    with pytest.raises(NewtonConvergenceError) as err:
        prob.step_many(fields, np.zeros((8, 0)), t_prev, t_next)
    assert str(err.value) == str(single[3])
    assert (err.value.time, err.value.iterations) == (single[3].time,
                                                      single[3].iterations)


# --- Newton at array speed: one stacked ddot and one ptsv per iterate -------------

def test_row_norms_are_each_rows_norm_bitwise():
    rng = np.random.default_rng(14)
    for n in (15, 31, 63, 127):
        for k in (1, 2, 7, 32, 40):
            for magnitude in (1e-12, 1e-6, 1.0, 1e4):
                v = magnitude * rng.normal(size=(k, n))
                want = [math.sqrt(row @ row) for row in v]
                got = _norms(v)
                assert got == want
                assert np.array_equal(np.signbit(got), np.signbit(want))
    assert _norms(v[0]) == [np.linalg.norm(v[0])]


def _newton_rows(prob, fields, sig_dt):
    """Residual rows of fields against zero data, and the arrays their
    Jacobian bands come from."""
    dx = prob.spatial.spacing(0)
    with np.errstate(over="ignore", invalid="ignore"):
        r, s2, e, nu = prob._divergence(fields, dx)
    r += sig_dt * fields
    return r, s2, e, nu, dx


def _each_rows_step(prob, rows, sig_dt):
    """Each row's Newton step solved on its own, as (step, info)."""
    r, s2, e, nu, dx = rows
    out = []
    for q in range(len(r)):
        with np.errstate(over="ignore", invalid="ignore"):
            ab = prob._jacobian_band(s2[q], e[q], nu[q], sig_dt[q, 0], dx)
        out.append(_band_factor_solve(ab, -r[q]))
    return out


def _assert_rows_equal(got, want, rows):
    for q in rows:
        assert np.array_equal(got[q], want[q], equal_nan=True)
        assert np.array_equal(np.signbit(got[q]), np.signbit(want[q]))


@pytest.mark.parametrize("n", [15, 31, 127])
def test_the_stacked_solve_is_each_rows_solve_bitwise(n):
    prob = NonlinearSaturationProblem(n)
    rng = np.random.default_rng(n)
    for k in (1, 2, 9, 32):
        fields = (0.5 / n) * rng.normal(size=(k, n)).cumsum(axis=1)
        sig_dt = rng.uniform(10.0, 1e4, (k, 1))
        rows = _newton_rows(prob, fields, sig_dt)
        step, singular = prob._newton_step(*rows[:4], sig_dt, rows[4])
        want = _each_rows_step(prob, rows, sig_dt)
        assert not singular and all(info == 0 for _, info in want)
        _assert_rows_equal(step, [x for x, _ in want], range(k))
    # row 4 is +-0 at its three first and last points, its residual at two;
    # from a tiny field at a huge sig_dt its step underflows to zeros
    # there, and from a zero field it is zero throughout (-0 from +0):
    # signs that must not come from rows 3 and 5, each of one sign
    for row4 in ("padded", "tiny", "zero"):
        for sign4 in (1.0, -1.0):
            for sign35 in (1.0, -1.0):
                fields = (0.5 / n) * rng.normal(size=(9, n)).cumsum(axis=1)
                sig_dt = rng.uniform(10.0, 1e4, (9, 1))
                fields[[3, 5]] = sign35 * np.abs(fields[[3, 5]])
                fields[4] = sign4 * np.pad(rng.uniform(0.5, 1.0, n - 6) / n, 3)
                if row4 == "tiny":
                    fields[4] *= 1e-300
                    sig_dt[4] = 1e150
                elif row4 == "zero":
                    fields[4] *= 0.0
                rows = _newton_rows(prob, fields, sig_dt)
                assert not rows[0][4, [0, 1, -2, -1]].any()
                step, singular = prob._newton_step(*rows[:4], sig_dt, rows[4])
                want = _each_rows_step(prob, rows, sig_dt)
                assert not singular and all(info == 0 for _, info in want)
                assert ((want[4][0][[0, -1]] == 0).all()
                        == (row4 != "padded"))
                _assert_rows_equal(step, [x for x, _ in want], range(9))


def _nine_rows(prob, steep):
    """Nine fields, sig_dt 1000 for all, and their _newton_rows.  With
    steep, row 4 jumps so steeply that its Jacobian band is finite but not
    positive definite in floating point, at a residual of finite norm."""
    x = np.linspace(0.1, 3.0, 15)
    fields = np.array([0.05 * (q + 1) * np.sin(x) for q in range(9)])
    sig_dt = np.full((9, 1), 1000.0)
    for jump in np.linspace(0.5, 1.0, 101) if steep else [0.0]:
        fields[4, 7:] = 0.1 * np.sin(x[7:]) + jump
        rows = _newton_rows(prob, fields, sig_dt)
        if not steep:
            return fields, sig_dt, rows
        r4 = rows[0][4]
        band = prob._jacobian_band(rows[1][4], rows[2][4], rows[3][4],
                                   1000.0, rows[4])
        with np.errstate(over="ignore"):
            norm, = _norms(r4)
        if (math.isfinite(norm) and np.isfinite(band).all()
                and _band_factor_solve(band, -r4)[1]):
            return fields, sig_dt, rows
    raise AssertionError("no jump makes row 4's Jacobian singular")


@pytest.mark.parametrize("finite_band", [True, False])
def test_a_failing_or_non_finite_row_leaves_the_others_bitwise(finite_band):
    prob = NonlinearSaturationProblem(15)
    _, sig_dt, rows = _nine_rows(prob, steep=finite_band)
    if not finite_band:
        rows[3][4, 7] = np.nan  # a NaN band, which ptsv solves to NaN
    want = _each_rows_step(prob, rows, sig_dt)
    with np.errstate(over="ignore", invalid="ignore"):
        step, singular = prob._newton_step(*rows[:4], sig_dt, rows[4])
    solved = [0, 1, 2, 3, 5, 6, 7, 8] if finite_band else range(9)
    _assert_rows_equal(step, [x for x, _ in want], solved)
    assert np.isfinite(step[5:]).all()
    if finite_band:
        assert list(singular) == [4]
        assert str(singular[4]) == (f"{want[4][1]}-th leading minor not "
                                    "positive definite")
    else:
        assert not singular and want[4][1] == 0
        assert np.isnan(step[4]).any()


def test_a_row_with_a_singular_jacobian_raises_its_own_error():
    prob = NonlinearSaturationProblem(15)
    fields, _, _ = _nine_rows(prob, steep=True)
    t_prev = [0.001 * q for q in range(9)]
    t_next = [t + 0.001 for t in t_prev]
    u = BlockState(fields[4])
    with pytest.raises(NewtonConvergenceError) as single:
        prob.step(u, t_prev[4], t_next[4], guess=u)
    assert "not positive definite after 0 iterations" in str(single.value)
    with pytest.raises(NewtonConvergenceError) as err:
        prob.step_many(fields, np.zeros((9, 0)), t_prev, t_next)
    assert str(err.value) == str(single.value)
    assert (err.value.time, err.value.iterations) == (
        single.value.time, single.value.iterations)
    assert isinstance(err.value.__cause__, LinAlgError)


def test_a_layer_makes_one_ptsv_call_per_newton_iterate(monkeypatch):
    prob = _problem("nonlinear")
    fields, scalars, t_prev, t_next = _rows_of_a_run(prob, 0, False, 32)
    fields[16:] *= 100.0  # steeper: some rows take another iterate
    calls = []
    ptsv = problems._ptsv

    def counting(d, e, b, *args):
        calls.append(b.size)
        return ptsv(d, e, b, *args)

    monkeypatch.setattr(problems, "_ptsv", counting)
    _, _, its = prob.step_many(fields, scalars, t_prev, t_next)
    assert min(its) >= 2 and min(its) < max(its)
    # one call per iterate, on every row still iterating
    assert calls == [15 * sum(i > it for i in its) for it in range(max(its))]


def test_a_layers_forcing_stack_is_memoized_read_only():
    prob = _problem("machine")
    times = [0.001 * q for q in range(1, 9)]
    for level, smooth in ((0, False), (2, True)):
        stack = prob._forcings(times, level, smooth)
        assert prob._forcings(list(times), level, smooth) is stack
        assert not stack.flags.writeable
        for t, row in zip(times, stack):
            assert np.array_equal(row, prob.forcing(t, level, smooth))
    assert prob._forcings(times[:1], 0, False) is prob.forcing(times[0])


# --- one banded solve per linear layer, one source call per forcing stack ----

def _counting(monkeypatch, routine="_pttrs"):
    """The band widths (points) of the calls of a LAPACK tridiagonal
    routine, as they are made: a _pttrs call's right-hand-side size."""
    calls, lapack = [], getattr(problems, routine)

    def counting(d, *args):
        calls.append(d.size)
        return lapack(d, *args)

    monkeypatch.setattr(problems, routine, counting)
    return calls


def _linspace_steps(n_rows, seed):
    """(t_prev, t_next) of n_rows steps drawn from a linspace grid: their
    dts differ in the last bits, at least three of them interleaved."""
    times = np.linspace(0.0, 0.02, 2049).tolist()
    first = np.random.default_rng(seed).choice(2048, n_rows, replace=False)
    t_prev, t_next = [times[i] for i in first], [times[i + 1] for i in first]
    assert len({b - a for a, b in zip(t_prev, t_next)}) >= 3
    return t_prev, t_next


def _assert_each_rows_step(prob, got, fields, t_prev, t_next, level):
    want = np.array([prob.step(BlockState(f), a, b, level)[0].field
                     for f, a, b in zip(fields, t_prev, t_next)])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    return want


@pytest.mark.parametrize("level", [0, 1, 2])
def test_a_linear_layer_makes_one_pttrs_call(monkeypatch, level):
    """One pttrs call per layer, on a band memoized per (dts, grid) from one
    pttrf call on the distinct dts' band, and none on a memo hit; each
    row's block is its dt's factor, as scipy's dpttrf computes it."""
    prob = _problem("linear")
    t_prev, t_next = _linspace_steps(48, level)
    dts = tuple(np.subtract(t_next, t_prev).tolist())
    n = prob.spatial.size(level)
    fields = np.random.default_rng(level).normal(size=(48, n))
    calls, factored = _counting(monkeypatch), _counting(monkeypatch, "_pttrf")
    for _ in range(2):
        got, scalars, its = prob.step_many(fields, np.zeros((48, 0)), t_prev,
                                           t_next, level)
    assert calls == [48 * n] * 2
    assert factored == [len(set(dts)) * n]
    d_all, l_all = band = prob._band(dts, level)
    assert list(prob._factor_cache) == [(dts, level)]
    assert prob._factor_cache[dts, level] is band
    assert scalars.shape == (48, 0) and its == [1] * 48
    for a in band:
        assert a.flags.c_contiguous and not a.flags.writeable
    # both views of one (2, 48 n) array
    assert d_all.base is l_all.base and d_all.base.nbytes == 2 * 48 * n * 8
    assert np.array_equal(l_all[n - 1::n], np.zeros(47))
    assert not np.signbit(l_all[n - 1::n]).any()
    dx2 = prob.spatial.spacing(level) ** 2
    for q, dt in enumerate(dts):
        ab = np.zeros((2, n))
        ab[0, 1:] = -prob.diffusivity / dx2
        ab[1] = 2.0 * prob.diffusivity / dx2 + prob.mass_coeff / dt
        d, l, _ = dpttrf(ab[1], ab[0, 1:])
        assert np.array_equal(d_all[q * n:(q + 1) * n], d)
        assert np.array_equal(l_all[q * n:(q + 1) * n - 1], l)
    _assert_each_rows_step(prob, got, fields, t_prev, t_next, level)
    # the rows' one-row steps: one band, from one pttrf call, per new dt
    assert len(prob._factor_cache) == len(factored) == 1 + len(set(dts))


class _NegativeZeroSource:
    """A source of -0.0 at every time: on the sine shape, a forcing of -0,
    so that a field of -0 steps to -0."""

    def value(self, t):
        return -0.0 * np.ones(np.shape(t))

    smooth_value = value


def test_linear_rows_ending_in_a_zero_are_solved_alone(monkeypatch):
    """Rows stepping to +-0 (zero fields, and 1e-300 fields over a dt of
    1e150, which underflow) sit next to rows of either sign, where the
    stack's zero coupling could flip the sign of a zero; so does a row
    whose right-hand side starts and ends in -0 but whose step does not.
    Each is solved alone, and every row is bitwise its own step, sign bits
    included."""
    prob = LinearDiffusionProblem(15, n_spatial_grids=3, source="sine",
                                  excitation=_NegativeZeroSource())
    rng = np.random.default_rng(17)
    t_prev, t_next = _linspace_steps(10, 17)
    fields = -np.abs(rng.normal(size=(10, 15)))
    fields[0] *= -1.0
    fields[1] = fields[8] = -0.0
    fields[3] = 0.0
    fields[5] = -0.0
    fields[5, 0] = -1e-300  # steps to a tail that underflows to -0
    fields[6] = np.pad(rng.uniform(0.5, 1.0, 9), 3) * -1.0
    for r, sign in ((4, -1.0), (7, 1.0)):
        fields[r] = sign * 1e-300 * rng.uniform(0.5, 1.0, 15)
        t_next[r] = t_prev[r] + 1e150
    calls = _counting(monkeypatch)
    got, _, _ = prob.step_many(fields, np.zeros((10, 0)), t_prev, t_next)
    made = calls.copy()
    want = _assert_each_rows_step(prob, got, fields, t_prev, t_next, 0)
    assert made == [150] + [15] * 7
    rhs = (prob.mass_coeff / np.subtract(t_next, t_prev)) * fields[:, 0]
    assert np.flatnonzero(rhs == 0).tolist() == [1, 3, 4, 6, 7, 8]
    assert np.flatnonzero(~want[:, ::14].all(1)).tolist() == [1, 3, 4, 5, 7,
                                                             8]
    assert np.signbit(want[[1, 4, 8]]).all() and np.signbit(want[5, -1])
    assert not np.signbit(want[[3, 7]]).any()


def test_one_point_rows_are_solved_alone():
    """pttrs scales a one-point system by 1 / d, where a stack of such rows
    divides by d; so such rows are solved alone."""
    prob = LinearDiffusionProblem(1, excitation=PwmSource(**PWM))
    rng = np.random.default_rng(3)
    t_prev, t_next = _linspace_steps(32, 3)
    fields = rng.normal(size=(32, 1))
    got, _, _ = prob.step_many(fields, np.zeros((32, 0)), t_prev, t_next)
    _assert_each_rows_step(prob, got, fields, t_prev, t_next, 0)
    prob = NonlinearSaturationProblem(1)
    sig_dt = rng.uniform(10.0, 1e4, (32, 1))
    rows = _newton_rows(prob, 0.1 * fields, sig_dt)
    step, singular = prob._newton_step(*rows[:4], sig_dt, rows[4])
    want = _each_rows_step(prob, rows, sig_dt)
    assert not singular and all(info == 0 for _, info in want)
    _assert_rows_equal(step, [x for x, _ in want], range(32))


@pytest.mark.parametrize("level", [0, 2])
def test_a_non_finite_linear_layer_solves_every_row_alone(monkeypatch,
                                                         level):
    """The zero coupling spreads a NaN to every row of the stack."""
    prob = _problem("linear")
    n = prob.spatial.size(level)
    t_prev, t_next = _linspace_steps(9, 5)
    fields = np.random.default_rng(5).normal(size=(9, n))
    fields[2, 0], fields[6, n // 2] = np.inf, np.nan
    calls = _counting(monkeypatch)
    with np.errstate(invalid="ignore"):
        got, _, _ = prob.step_many(fields, np.zeros((9, 0)), t_prev, t_next,
                                   level)
        made = calls.copy()
        want = _assert_each_rows_step(prob, got, fields, t_prev, t_next,
                                      level)
    assert made == [9 * n] + [n] * 9
    assert np.isfinite(want[[0, 1, 3, 4, 5, 7, 8]]).all()
    assert not np.isfinite(want[[2, 6]]).all(1).any()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_forcing_stack_is_bitwise_each_times_forcing(kind):
    """A new stack takes one source call on the array of exactly its times,
    a repeated one none, and a single time one call on its float; every
    row is read-only and bitwise the scalar formula."""
    source = _CountingSource()
    prob, scalar = _problem(kind, source), _uncached_forcing(_problem(kind))
    times = build_uniform_grid(0.0, 0.02, 512).points.tolist()
    for level in range(3):
        for smooth in (False, True):
            stacks = []
            for a, b in ((1, 34), (20, 53), (300, 302), (0, 513)):
                made = len(source.args)
                stacks.append(prob._forcings(times[a:b], level, smooth))
                (arg, s), = source.args[made:]
                assert type(arg) is np.ndarray and s == smooth
                assert arg.tolist() == times[a:b]
                want = np.array([scalar(t, level, smooth)
                                 for t in times[a:b]])
                assert np.array_equal(stacks[-1], want)
                assert np.array_equal(np.signbit(stacks[-1]),
                                      np.signbit(want))
                assert not stacks[-1].flags.writeable
            made = len(source.args)
            assert prob._forcings(tuple(times[1:34]), level, smooth) \
                is stacks[0]
            assert len(source.args) == made
            for t in times[20:23]:
                made = len(source.args)
                f = prob.forcing(t, level, smooth)
                assert source.args[made:] == [(t, smooth)]
                assert type(source.args[-1][0]) is float
                assert prob._forcings([t], level, smooth) is f
                want = scalar(t, level, smooth)
                assert np.array_equal(f, want) and not f.flags.writeable
                assert np.array_equal(np.signbit(f), np.signbit(want))
    assert len(source.args) == 3 * 2 * (4 + 3)


class _HashingSource(_CountingSource):
    """Hashes each argument, as a tracer keeping a set of the times it saw
    does: an array of times raises TypeError."""

    def value(self, t):
        hash(t)
        return super().value(t)

    def smooth_value(self, t):
        hash(t)
        return super().smooth_value(t)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_single_time_hands_the_source_a_float(kind):
    """A one-row step or step_many hands the source its time's float, which
    a hashing source takes; three rows hand it their times' array."""
    prob = _problem(kind, _HashingSource())
    fields = np.zeros((3, prob.spatial.size(1)))
    scalars = np.zeros((3, prob.n_scalars))
    t_prev = [0.001, 0.002, 0.003]
    t_next = [t + 0.001 for t in t_prev]
    for smooth in (False, True):
        prob.step(BlockState(fields[0], scalars[0]), t_prev[0], t_next[0], 1,
                  smooth=smooth)
        prob.step_many(fields[1:2], scalars[1:2], t_prev[1:2], t_next[1:2], 1,
                       smooth)
    assert [(type(t), s) for t, s in prob.excitation.args] == [
        (float, False), (float, False), (float, True), (float, True)]
    with pytest.raises(TypeError, match="unhashable"):
        prob.step_many(fields, scalars, t_prev, t_next, 1)
    prob = _problem(kind, _CountingSource())
    prob.step_many(fields, scalars, t_prev, t_next, 1)
    (t, smooth), = prob.excitation.args
    assert type(t) is np.ndarray and t.tolist() == t_next and not smooth


@pytest.mark.parametrize("ramp", [False, True])
@pytest.mark.parametrize("phase", [1, 2, 3])
def test_pwm_source_on_an_array_is_bitwise_its_value_per_time(phase, ramp):
    """A stack's forcings rest on this, for the numpy build at hand."""
    source = PwmSource(**{**PWM, "phase": phase, "ramp_enabled": ramp})
    for n_steps in (512, 2048):
        times = build_uniform_grid(0.0, 0.02, n_steps).points.tolist()
        for method in (source.value, source.smooth_value):
            each = np.array([method(t) for t in times])
            for length in (*range(1, 34), len(times)):
                for start in {0, (37 * length) % (len(times) - length + 1)}:
                    got = method(np.array(times[start:start + length]))
                    assert np.array_equal(got, each[start:start + length])
                    assert np.array_equal(np.signbit(got),
                                          np.signbit(each[start:start
                                                          + length]))
