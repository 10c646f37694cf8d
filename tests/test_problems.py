import math
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from pintmg.errors import NewtonConvergenceError
from pintmg.excitation import PwmSource
from pintmg.mgrit import CycleSpec, MgritSolver, StoppingCriterion
from pintmg.problems import (
    BrauerCurve, DahlquistProblem, LinearDiffusionProblem, NewtonOptions,
    NonlinearSaturationProblem, SurrogateMachineProblem, _band_factor,
    _band_factor_solve, _band_solve, joule_loss, sequential_solve,
)
from pintmg.runtime import run_spmd
from pintmg.state import BlockState, SpaceTimeVector
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
    assert diag.converged


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
    prob_forced.forcing = lambda t, s=0, smooth=False: f
    out, diag = prob_forced.step(u_prev, 0.0, dt)
    expect = picard_step(n, sigma, curve.k1, curve.k2, curve.k3, dt,
                         u_prev.field, f)
    assert diag.converged
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
    prob.forcing = lambda t, s=0, smooth=False: 50.0 * np.sin(2 * math.pi * x)
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


def test_newton_options_validation():
    with pytest.raises(ValueError):
        NewtonOptions(damping=0.0)
    with pytest.raises(ValueError):
        NewtonOptions(damping=1.5)
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


def test_sequential_solve_with_rhs_vector_adds_g():
    prob = DahlquistProblem(rate=-1.0, initial=1.0)
    times = np.array([0.0, 1.0, 2.0])
    g = SpaceTimeVector([BlockState([2.0]), BlockState([0.1]), BlockState([0.0])])
    sol = sequential_solve(prob, times, g=g)
    # u_0 = 2.0, u_1 = 1.0 + 0.1, u_2 = 0.55
    assert sol[0].field[0] == 2.0
    assert sol[1].field[0] == pytest.approx(1.1)
    assert sol[2].field[0] == pytest.approx(0.55)


def test_joule_loss_values():
    a = BlockState([1.0, 1.0])
    b = BlockState([1.0, 1.0])
    assert joule_loss(a, b, 0.1, np.array([2.0, 3.0])) == 0.0
    c = BlockState([4.0, 1.0])
    assert joule_loss(a, c, 1.0, np.array([2.0, 0.0])) == pytest.approx(18.0)


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
    dt = 0.01
    rng = np.random.default_rng(3)
    u = 0.3 * rng.normal(size=9)

    def residual(v):
        return prob.mass_coeff / dt * v + prob._operator(v, 0)

    banded = prob._jacobian_banded(u, dt, 0)
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
    return KINDS[kind](15, n_spatial_grids=3, source="random", seed=5,
                       excitation=(PwmSource(**PWM) if excitation is None
                                   else excitation))


def _uncached_forcing(problem):
    """The forcing formula evaluated afresh on every call."""
    def forcing(t, spatial_level=0, smooth=False):
        src = problem.excitation
        v = src.smooth_value(t) if smooth else src.value(t)
        return v * problem._shapes[spatial_level]
    return forcing


def _three_level_solve(problem, transport=None):
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, 64), [4, 4])
    solver = MgritSolver(
        problem, hier,
        CycleSpec(kind="V", max_iters=20, spatial_strategy="direct",
                  nested_iterations=True),
        StoppingCriterion(tolerance=1e-6), transport)
    return solver.solve()


def _arrays(trajectory):
    return (np.array([s.field for s in trajectory.states]),
            np.array([s.scalars for s in trajectory.states]))


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
    fresh.forcing = _uncached_forcing(fresh)
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
    ref = cholesky_banded(ab)
    factor = _band_factor(ab.copy())
    assert np.array_equal(factor, ref)
    assert np.array_equal(_band_solve(factor, b.copy()),
                          cho_solve_banded((ref, False), b))
    # Newton's one-call pbsv: bitwise pbtrf then pbtrs
    assert np.array_equal(_band_factor_solve(ab.copy(), b.copy()),
                          _band_solve(factor, b.copy()))
    ab[1, n // 2] = -1.0
    with pytest.raises(LinAlgError):
        _band_factor(ab.copy())
    with pytest.raises(LinAlgError):
        _band_factor_solve(ab, b)


def test_newton_helpers_match_padded_differences_bitwise():
    prob = NonlinearSaturationProblem(9)
    dx = prob.spatial.spacing(0)
    rng = np.random.default_rng(4)
    for u in (0.3 * rng.normal(size=9), np.zeros(9), -np.zeros(9),
              np.array([0.0, 0.2, 0.2, -0.0, 0.1, 0.1, 0.3, 0.1, 0.0])):
        g = np.diff(np.concatenate(([0.0], u, [0.0]))) / dx
        flux = prob.curve.nu(g * g) * g
        for got, want in ((prob._gradients(u, dx), g),
                          (prob._operator(u, 0), -np.diff(flux) / dx)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _shared_or_own_worker(transport, shared):
    problem = _problem("machine") if shared is None else shared
    run, sol = _three_level_solve(problem, transport)
    return run.residual_norms, None if sol is None else _arrays(sol)


@pytest.mark.parametrize("p", [2, 3])
def test_one_instance_shared_by_thread_ranks_changes_no_bit(p):
    # threads switch often, so ranks race on the shared memos
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        shared = run_spmd(p, _shared_or_own_worker, _problem("machine"),
                          timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    own = run_spmd(p, _shared_or_own_worker, None)
    for a, b in zip(shared, own):
        assert a[0] == b[0]
    assert all(np.array_equal(x, y) for x, y in zip(shared[0][1], own[0][1]))


class _CountingSource:
    def __init__(self):
        self.inner, self.calls = PwmSource(**PWM), 0

    def value(self, t):
        self.calls += 1
        return self.inner.value(t)

    def smooth_value(self, t):
        self.calls += 1
        return self.inner.smooth_value(t)


def test_source_is_evaluated_once_per_distinct_forcing_key():
    source = _CountingSource()
    prob = _problem("machine", source)
    keys, memoized = set(), prob.forcing

    def recording(t, spatial_level=0, smooth=False):
        keys.add((t, spatial_level, smooth))
        return memoized(t, spatial_level, smooth)

    prob.forcing = recording
    run, _ = _three_level_solve(prob)
    assert run.converged
    assert {(l, s) for _, l, s in keys} >= {(0, False), (2, True)}
    assert source.calls == len(keys)


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
    dx = prob.spatial.spacing(0)
    for curve in CURVES:
        prob.curve = curve
        for u in (u_prev.field, want[0].field):
            assert np.array_equal(prob._jacobian_banded(u, 1e-2, 0),
                                  oracle._jacobian(u, prob.mass_coeff / 1e-2,
                                                   dx))


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
    res = (prob.mass_coeff / 1e-2) * got[0].field + prob._operator(
        got[0].field, 0) - rhs
    assert np.linalg.norm(res) <= prob.newton.tol * np.linalg.norm(rhs)
    if amplitude == 10.0:
        assert got[1].iterations == 10


@dataclass(frozen=True)
class _CountingCurve(BrauerCurve):
    calls: list = field(default_factory=list, compare=False)

    def exp_and_nu(self, s2):
        self.calls.append("exp_and_nu")
        return super().exp_and_nu(s2)

    def nu(self, s2):
        self.calls.append("nu")
        return super().nu(s2)

    def flux_derivative(self, s2):
        self.calls.append("flux_derivative")
        return super().flux_derivative(s2)


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
