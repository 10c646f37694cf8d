"""Relaxation, cycle, and engine checks against independent references."""

import numpy as np
import pytest

from pintmg.excitation import PwmSource
from pintmg.mgrit import (CycleSpec, MgritSolver, StoppingCriterion,
                          mgrit_solve, qoi_change, storage_estimate)
from pintmg.problems import (DahlquistProblem, LinearDiffusionProblem,
                             NewtonOptions, NonlinearSaturationProblem,
                             sequential_solve)
from pintmg.runtime import run_spmd
from pintmg.state import BlockState, SpaceTimeVector
from pintmg.time_hierarchy import TimeHierarchy, build_uniform_grid, cf_split

from oracles import (c_relaxation, f_relaxation, level_context, max_abs_diff,
                     two_level_cycle)


def _flat_vector(problem, n_points, level=0):
    return SpaceTimeVector(
        [problem.initial_state(level) for _ in range(n_points)])


def _system_rhs(problem, n_points, level=0):
    """g for the initial-value system: the anchor at index 0, zeros after."""
    anchor = problem.initial_state(level)
    zeros = [anchor.clone() * 0.0 for _ in range(n_points - 1)]
    return SpaceTimeVector([anchor] + zeros)


def _linear_problem(nx=15, grids=1):
    return LinearDiffusionProblem(nx, diffusivity=0.2, n_spatial_grids=grids,
                                  excitation=PwmSource(), source="sine")


# --- relaxation operators on a hand-computable instance ---------------------------

def test_relaxations_touch_only_their_points():
    # u' = -u, dt = 1, so one step exactly halves the value
    problem = DahlquistProblem(rate=-1.0, initial=1.0)
    grid = build_uniform_grid(0.0, 6.0, 6)
    ctx = level_context(problem, grid, cf_split(7, 3))
    u = _flat_vector(problem, 7)
    g = _system_rhs(problem, 7)

    after_f = f_relaxation(ctx, u, g)
    assert [s.field[0] for s in after_f.states] == [
        1.0, 0.5, 0.25, 1.0, 0.5, 0.25, 1.0]

    after_c = c_relaxation(ctx, u, g)
    assert [s.field[0] for s in after_c.states] == [
        1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.5]


def test_two_level_reference_is_exact_after_enough_passes():
    # each pass makes one more C-point exact, so n_intervals passes suffice
    problem = DahlquistProblem(rate=-2.0, initial=1.0)
    grid = build_uniform_grid(0.0, 1.0, 16)
    hier = TimeHierarchy.build(grid, [4])
    fine = level_context(problem, hier[0], hier.splittings[0])
    coarse = level_context(problem, hier[1], hier.splittings[1])
    u = _flat_vector(problem, 17)
    g = _system_rhs(problem, 17)
    for _ in range(4):
        u = two_level_cycle(fine, coarse, u, g, gamma=0)
    seq = sequential_solve(problem, grid.points)
    assert max_abs_diff(u, seq) < 1e-14


# --- engine vs reference, the dual route ------------------------------------------

@pytest.mark.parametrize("gamma", [0, 1, 2])
def test_engine_matches_reference_two_level_linear(gamma):
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 32)
    hier = TimeHierarchy.build(grid, [4])

    fine = level_context(problem, hier[0], hier.splittings[0])
    coarse = level_context(problem, hier[1], hier.splittings[1])
    ref = two_level_cycle(fine, coarse, _flat_vector(problem, 33),
                          _system_rhs(problem, 33), gamma=gamma)

    run, sol = mgrit_solve(problem, hier,
                           CycleSpec(kind="two-level", gamma=gamma,
                                     max_iters=1),
                           StoppingCriterion(tolerance=1e-300))
    assert run.iterations == 1
    assert max_abs_diff(sol, ref) < 1e-13


def test_engine_matches_reference_with_spatial_coarsening():
    problem = NonlinearSaturationProblem(31, n_spatial_grids=2,
                                         excitation=PwmSource())
    grid = build_uniform_grid(0.0, 0.02, 16)
    hier = TimeHierarchy.build(grid, [4])

    fine = level_context(problem, hier[0], hier.splittings[0], 0)
    coarse = level_context(problem, hier[1], hier.splittings[1], 1)
    ref = two_level_cycle(fine, coarse, _flat_vector(problem, 17),
                          _system_rhs(problem, 17), gamma=1,
                          spatial=(problem.spatial, 0))

    run, sol = mgrit_solve(problem, hier,
                           CycleSpec(kind="two-level", gamma=1, max_iters=1,
                                     spatial_strategy="direct"),
                           StoppingCriterion(tolerance=1e-300))
    assert max_abs_diff(sol, ref) < 1e-12


# --- convergence to the sequential oracle ------------------------------------------

def test_two_level_engine_reaches_sequential_solution():
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 32)
    hier = TimeHierarchy.build(grid, [4])
    run, sol = mgrit_solve(problem, hier,
                           CycleSpec(kind="two-level", gamma=0, max_iters=12),
                           StoppingCriterion(tolerance=1e-12))
    seq = sequential_solve(problem, grid.points)
    assert run.converged and run.iterations <= 9
    assert max_abs_diff(sol, seq) < 1e-9


def test_multilevel_vcycle_converges():
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 128)
    hier = TimeHierarchy.build(grid, [4, 4, 2])
    run, sol = mgrit_solve(problem, hier,
                           CycleSpec(kind="V", gamma=1, max_iters=25),
                           StoppingCriterion(tolerance=1e-10))
    seq = sequential_solve(problem, grid.points)
    assert run.converged
    assert max_abs_diff(sol, seq) < 1e-8
    assert run.residual_norms[-1] < run.residual_norms[0]


def test_fcycle_and_nested_iterations_converge():
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 128)
    hier = TimeHierarchy.build(grid, [4, 4])
    seq = sequential_solve(problem, grid.points)
    for spec in (CycleSpec(kind="F", gamma=1, max_iters=25),
                 CycleSpec(kind="V", gamma=1, max_iters=25,
                           nested_iterations=True)):
        run, sol = mgrit_solve(problem, hier, spec,
                               StoppingCriterion(tolerance=1e-10))
        assert run.converged, spec
        assert max_abs_diff(sol, seq) < 1e-8


def test_parareal_equivalence_on_dahlquist():
    problem = DahlquistProblem(rate=-1.0, initial=1.0)
    grid = build_uniform_grid(0.0, 4.0, 64)
    m, k_iters = 8, 4
    hier = TimeHierarchy.build(grid, [m])

    # direct predictor-corrector iteration on the C-points
    tf_ = grid.points
    tc = tf_[::m]
    n_units = len(tc) - 1

    def fine_prop(u, j):
        v = u
        for i in range(j * m + 1, (j + 1) * m + 1):
            v, _ = problem.step(v, float(tf_[i - 1]), float(tf_[i]), guess=v)
        return v

    def coarse_prop(u, j):
        v, _ = problem.step(u, float(tc[j]), float(tc[j + 1]), guess=u)
        return v

    anchor = problem.initial_state()
    big_u = [anchor.clone() for _ in range(n_units + 1)]
    for _ in range(k_iters):
        fu = [fine_prop(big_u[j], j) for j in range(n_units)]
        gu = [coarse_prop(big_u[j], j) for j in range(n_units)]
        new_u = [anchor.clone()]
        for j in range(n_units):
            new_u.append(coarse_prop(new_u[j], j) + fu[j] - gu[j])
        big_u = new_u

    run, sol = mgrit_solve(problem, hier,
                           CycleSpec(kind="two-level", gamma=0,
                                     max_iters=k_iters),
                           StoppingCriterion(tolerance=1e-300))
    assert run.iterations == k_iters
    worst = max(abs(sol[j * m].field[0] - big_u[j].field[0])
                for j in range(n_units + 1))
    assert worst < 1e-12


def test_exact_solution_is_a_fixed_point():
    problem = _linear_problem(nx=15, grids=2)
    grid = build_uniform_grid(0.0, 0.02, 64)
    hier = TimeHierarchy.build(grid, [4, 4])
    seq = sequential_solve(problem, grid.points)
    run, sol = mgrit_solve(problem, hier,
                           CycleSpec(kind="V", gamma=1, max_iters=1,
                                     spatial_strategy="direct"),
                           StoppingCriterion(tolerance=1e-300),
                           initial_guess=seq)
    assert run.iterations == 1
    assert max_abs_diff(sol, seq) < 1e-9


def test_two_level_kind_ignores_deeper_levels():
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 32)
    deep = TimeHierarchy.build(grid, [4, 2])
    shallow = TimeHierarchy.build(grid, [4])
    spec = CycleSpec(kind="two-level", gamma=1, max_iters=10)
    stop = StoppingCriterion(tolerance=1e-11)
    run_a, sol_a = mgrit_solve(problem, deep, spec, stop)
    run_b, sol_b = mgrit_solve(problem, shallow, spec, stop)
    assert run_a.iterations == run_b.iterations
    assert max_abs_diff(sol_a, sol_b) < 1e-14


def test_single_level_solver_is_sequential():
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 16)
    hier = TimeHierarchy.build(grid, [])
    run, sol = mgrit_solve(problem, hier)
    seq = sequential_solve(problem, grid.points)
    assert run.converged and run.iterations == 1
    assert max_abs_diff(sol, seq) == 0.0


# --- measured storage vs the closed-form count -------------------------------------

def test_storage_estimate_closed_form_values():
    assert storage_estimate(2, 32, [4], 1) == 26
    assert storage_estimate(1, 32, [], 1, coarsest_factor=4) == 8
    assert storage_estimate(3, 128, [4, 4], 1) == 122
    # the coarsest grid has 3 points, so its factor 4 is clamped to 2
    assert storage_estimate(3, 66, [8, 4], 1) == 31
    with pytest.raises(ValueError):
        storage_estimate(3, 128, [4], 1)


def test_engine_storage_matches_estimate_serial():
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 128)
    hier = TimeHierarchy.build(grid, [4, 4])
    solver = MgritSolver(problem, hier, CycleSpec(kind="V", gamma=1))
    report = solver.storage_report()
    assert report.total == 122
    assert report.total == report.estimate
    assert report.per_level == [32, 8 + 64, 2 + 16]


def test_engine_storage_matches_estimate_two_workers():
    def worker(transport, _):
        problem = _linear_problem()
        grid = build_uniform_grid(0.0, 0.02, 128)
        hier = TimeHierarchy.build(grid, [4, 4])
        solver = MgritSolver(problem, hier, CycleSpec(kind="V", gamma=1),
                             transport=transport)
        return solver.storage_report()

    reports = run_spmd(2, worker, None, backend="thread")
    expected = storage_estimate(3, 128, [4, 4], 2)
    for report in reports:
        assert report.total == expected == report.estimate


def _peak_worker(transport, shape):
    n_steps, factors = shape
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps),
                               list(factors))
    return MgritSolver(_linear_problem(), hier, CycleSpec(kind="V"),
                       transport=transport).storage_report()


@pytest.mark.parametrize("shape,p,totals", [
    ((512, (8, 4, 4)), 2, [131, 122]),  # one coarsest C-interval
    ((66, (4, 4)), 3, [33, 14, 14]),    # F-tails on every level
    ((128, (4, 4, 2)), 3, [53, 48, 33]),
])
def test_storage_estimate_is_the_peak_over_uneven_ranks(shape, p, totals):
    reports = run_spmd(p, _peak_worker, shape, backend="thread")
    assert [r.total for r in reports] == totals
    assert max(totals) == reports[0].estimate
    assert all(r.total <= r.estimate for r in reports)


# --- worker-count invariance --------------------------------------------------------

def _invariance_worker(transport, _):
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 64)
    hier = TimeHierarchy.build(grid, [4, 4])
    return mgrit_solve(problem, hier, CycleSpec(kind="V", gamma=1,
                                                max_iters=30),
                       StoppingCriterion(tolerance=1e-10),
                       transport=transport)


def test_solution_independent_of_worker_count():
    run_1, sol_1 = _invariance_worker(
        __import__("pintmg.runtime", fromlist=["NullTransport"]).NullTransport(),
        None)
    for p in (2, 4):
        results = run_spmd(p, _invariance_worker, None, backend="thread")
        runs = [r for r, _ in results]
        sol_p = results[0][1]
        assert all(r.iterations == run_1.iterations for r in runs)
        assert max_abs_diff(sol_p, sol_1) < 1e-12
        for r in runs:
            np.testing.assert_allclose(r.residual_norms, run_1.residual_norms,
                                       rtol=1e-9)


BITWISE_CASES = [  # kind, gamma, nested, spatial strategy, steps, factors
    ("V", 0, False, "none", 64, (4, 4)),
    ("F", 1, False, "none", 64, (4, 4)),
    ("V", 1, True, "delayed", 64, (4, 4)),
    ("F", 0, True, "none", 66, (4, 4)),       # F-tails
    ("V", 1, False, "direct", 66, (8, 4)),    # idle ranks at p = 3
]


def _bitwise_worker(transport, case):
    kind, gamma, nested, strategy, n_steps, factors = case
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps),
                               list(factors))
    run, sol = mgrit_solve(_linear_problem(grids=2), hier,
                           CycleSpec(kind=kind, gamma=gamma, max_iters=30,
                                     spatial_strategy=strategy,
                                     nested_iterations=nested),
                           StoppingCriterion(tolerance=1e-10),
                           transport=transport)
    fields = None if sol is None else np.array([s.field for s in sol.states])
    return run.iterations, run.converged, fields


@pytest.mark.parametrize("case", BITWISE_CASES)
def test_trajectory_bitwise_independent_of_worker_count(case):
    # only the residual norms may differ, in their last bits, because
    # their partial sums are added in rank order
    [(iters_1, converged, fields_1)] = run_spmd(1, _bitwise_worker, case)
    assert converged
    for p in (2, 3):
        results = run_spmd(p, _bitwise_worker, case, backend="thread")
        assert all(it == iters_1 for it, _, _ in results)
        assert np.array_equal(results[0][2], fields_1)


# --- run bookkeeping ----------------------------------------------------------------

def test_qoi_change_examples():
    assert qoi_change([2.02], [2.0]) == pytest.approx(0.01)
    assert qoi_change([], []) == 0.0
    assert qoi_change([1e-30], [0.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        qoi_change([1.0, 2.0], [1.0])


def test_qoi_stopping_criterion_drives_convergence():
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 32)
    hier = TimeHierarchy.build(grid, [4])
    run, _ = mgrit_solve(problem, hier,
                         CycleSpec(kind="V", gamma=1, max_iters=30),
                         StoppingCriterion(kind="qoi-change", tolerance=1e-6))
    assert run.converged
    assert run.qoi_changes[-1] < 1e-6
    assert len(run.qoi_changes) == run.iterations


def test_newton_failure_is_recorded_not_raised():
    problem = NonlinearSaturationProblem(
        15, excitation=PwmSource(), mass_coeff=1.0,
        newton=NewtonOptions(max_iters=1, tol=1e-16))
    grid = build_uniform_grid(0.0, 2.0, 4)
    hier = TimeHierarchy.build(grid, [2])
    run, sol = mgrit_solve(problem, hier,
                           CycleSpec(kind="V", gamma=1, max_iters=3))
    assert not run.converged
    assert run.failure is not None and "Newton" in run.failure
    assert sol is None


_NAN_GRID = build_uniform_grid(0.0, 0.02, 64)


class _NanAtMidpoint:
    """A problem whose step writes NaN into the state it returns at
    t = 0.01: on every time level, or with ``call`` only on the
    call-th fine-level step into it (which one rank makes at any p)."""

    def __init__(self, inner, call=None):
        self.inner, self.call, self.calls = inner, call, 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def step(self, u_prev, t_prev, t_next, *args, **kwargs):
        out, diag = self.inner.step(u_prev, t_prev, t_next, *args, **kwargs)
        if abs(t_next - 0.01) < 1e-12:
            if self.call is None:
                out.field[0] = np.nan
            elif t_prev == _NAN_GRID.points[31]:
                self.calls += 1
                if self.calls == self.call:
                    out.field[0] = np.nan
        return out, diag


def _nan_worker(transport, job):
    kind, call = job
    inner = (_linear_problem() if kind == "linear"
             else DahlquistProblem(rate=-50.0, excitation=PwmSource()))
    hier = TimeHierarchy.build(_NAN_GRID, [4, 4])
    return mgrit_solve(_NanAtMidpoint(inner, call), hier,
                       CycleSpec(max_iters=8), transport=transport)[0]


def _history(run):
    return (run.converged, run.iterations, run.failure, run.initial_residual,
            run.residual_norms, run.qoi_changes)


NAN_TEXT = "fine residual norm is not finite: nan"


@pytest.mark.parametrize("kind", ["linear", "dahlquist"])
def test_nan_step_stops_a_single_worker_run(kind):
    run = _nan_worker(None, (kind, None))
    assert not run.converged and run.iterations < 8
    assert run.failure == NAN_TEXT


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("kind", ["linear", "dahlquist"])
def test_nan_step_stops_every_worker(kind, backend):
    # the norm is reduced over all ranks, so every rank stops on it and
    # returns the run one worker returns; the 4th fine step into t = 0.01
    # is the second cycle's restriction sweep, so one iteration completes
    for call, done in ((None, 0), (4, 1)):
        expect = _history(_nan_worker(None, (kind, call)))
        assert expect[:3] == (False, done, NAN_TEXT)
        assert len(expect[4]) == done
        for p in (2, 3):
            runs = run_spmd(p, _nan_worker, (kind, call), backend=backend,
                            timeout=30.0)
            assert [_history(run) for run in runs] == [expect] * p


def test_spec_validation():
    with pytest.raises(ValueError):
        CycleSpec(kind="W")
    with pytest.raises(ValueError):
        CycleSpec(gamma=-1)
    with pytest.raises(ValueError):
        CycleSpec(max_iters=0)
    with pytest.raises(ValueError):
        StoppingCriterion(kind="bogus")
    with pytest.raises(ValueError):
        StoppingCriterion(tolerance=0.0)


def test_run_records_timings_and_history():
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 32)
    hier = TimeHierarchy.build(grid, [4, 2])
    run, _ = mgrit_solve(problem, hier,
                         CycleSpec(kind="V", gamma=1, max_iters=20),
                         StoppingCriterion(tolerance=1e-9))
    assert run.converged
    assert len(run.residual_norms) == run.iterations
    assert len(run.iteration_seconds) == run.iterations
    assert run.iteration_seconds == sorted(run.iteration_seconds)
    assert len(run.level_seconds) == hier.n_levels
    assert run.total_seconds >= run.solve_seconds > 0.0
    assert run.initial_residual > run.residual_norms[-1]
