"""Relaxation, cycle, and engine checks against independent references."""

import weakref

import numpy as np
import pytest

from pintmg import mgrit
from pintmg.excitation import PwmSource
from pintmg.mgrit import (LOOSE_TOL, CycleSpec, MgritSolver,
                          StoppingCriterion, _squares, mgrit_solve,
                          qoi_change, storage_estimate)
from pintmg.problems import (DahlquistProblem, LinearDiffusionProblem,
                             NewtonOptions, NonlinearSaturationProblem,
                             SurrogateMachineProblem, sequential_solve)
from pintmg.runtime import run_spmd
from pintmg.state import SpaceTimeVector
from pintmg.time_hierarchy import TimeHierarchy, build_uniform_grid

from callers import CALLERS, from_caller
from oracles import (c_relaxation, f_relaxation, level_context, max_abs_diff,
                     parareal_iterates, two_level_cycle)
from test_pins import _solve_worker as _pinned_solve


def _flat_vector(problem, n_points, level=0):
    anchor = problem.initial_state(level)
    return SpaceTimeVector(np.tile(anchor.field, (n_points, 1)),
                           np.tile(anchor.scalars, (n_points, 1)))


def _system_rhs(problem, n_points, level=0):
    """g for the initial-value system: the anchor at index 0, zeros after."""
    g = _flat_vector(problem, n_points, level)
    g.fields[1:], g.scalars[1:] = 0.0, 0.0
    return g


def _linear_problem(nx=15, grids=1):
    return LinearDiffusionProblem(nx, diffusivity=0.2, n_spatial_grids=grids,
                                  excitation=PwmSource(), source="sine")


# --- relaxation operators on a hand-computable instance ---------------------------

def test_relaxations_touch_only_their_points():
    # u' = -u, dt = 1, so one step exactly halves the value
    problem = DahlquistProblem(rate=-1.0, initial=1.0)
    grid = build_uniform_grid(0.0, 6.0, 6)
    ctx = level_context(problem, grid, 3)
    u = _flat_vector(problem, 7)
    g = _system_rhs(problem, 7)

    after_f = f_relaxation(ctx, u, g)
    assert after_f.fields[:, 0].tolist() == [
        1.0, 0.5, 0.25, 1.0, 0.5, 0.25, 1.0]

    after_c = c_relaxation(ctx, u, g)
    assert after_c.fields[:, 0].tolist() == [
        1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 0.5]


def test_two_level_reference_is_exact_after_enough_passes():
    # each pass makes one more C-point exact, so n_intervals passes suffice
    problem = DahlquistProblem(rate=-2.0, initial=1.0)
    grid = build_uniform_grid(0.0, 1.0, 16)
    hier = TimeHierarchy.build(grid, [4])
    fine = level_context(problem, hier[0], hier.level_factors[0])
    coarse = level_context(problem, hier[1], hier.level_factors[1])
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

    fine = level_context(problem, hier[0], hier.level_factors[0])
    coarse = level_context(problem, hier[1], hier.level_factors[1])
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

    # the cycle runs loose (the initial norm is far above the loose bar);
    # the measuring sweep that ends the run at max_iters, whose walk is
    # the answer, runs at newton.tol
    fine, coarse = (level_context(problem, hier[l], hier.level_factors[l], l,
                                  tol=LOOSE_TOL) for l in (0, 1))
    closing = level_context(problem, hier[0], hier.level_factors[0], 0)
    ref = two_level_cycle(fine, coarse, _flat_vector(problem, 17),
                          _system_rhs(problem, 17), gamma=1,
                          spatial=problem.spatial, closing=closing)

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
    run, sol = mgrit_solve(problem, TimeHierarchy.build(grid, [m]),
                           CycleSpec(kind="two-level", gamma=0,
                                     max_iters=k_iters),
                           StoppingCriterion(tolerance=1e-300))
    assert run.iterations == k_iters
    big_u = parareal_iterates(problem, grid, m, k_iters)[-1]
    assert np.max(np.abs(sol.fields[::m, 0] - big_u)) < 1e-12


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
    # one worker holds every finer C-point, so it keeps no copy
    assert storage_estimate(2, 32, [4], 1, 4) == 18
    assert storage_estimate(1, 32, [], 1, 4) == 8
    assert storage_estimate(3, 128, [4, 4], 1, 4) == 82
    # the coarsest grid has 3 points, so its factor 4 is clamped to 2
    assert storage_estimate(3, 66, [8, 4], 1, 2) == 21
    with pytest.raises(ValueError):
        storage_estimate(3, 128, [4], 1, 4)


def test_engine_storage_matches_estimate_serial():
    problem = _linear_problem()
    grid = build_uniform_grid(0.0, 0.02, 128)
    hier = TimeHierarchy.build(grid, [4, 4])
    solver = MgritSolver(problem, hier, CycleSpec(kind="V", gamma=1))
    report = solver.storage_report()
    assert report.total == 82
    assert report.total == report.estimate
    assert report.per_level == [32, 8 + 32, 2 + 8]


def test_engine_storage_matches_estimate_two_workers():
    def worker(transport, _):
        problem = _linear_problem()
        grid = build_uniform_grid(0.0, 0.02, 128)
        hier = TimeHierarchy.build(grid, [4, 4])
        solver = MgritSolver(problem, hier, CycleSpec(kind="V", gamma=1),
                             transport=transport)
        return solver.storage_report()

    reports = run_spmd(2, worker, None)
    expected = storage_estimate(3, 128, [4, 4], 2, 4)
    for report in reports:
        assert report.total == expected == report.estimate


def _peak_worker(transport, shape):
    n_steps, factors = shape
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps),
                               list(factors))
    return MgritSolver(_linear_problem(), hier, CycleSpec(kind="V"),
                       transport=transport).storage_report()


@pytest.mark.parametrize("shape,p,totals", [
    ((512, (8, 4, 4)), 2, [87, 82]),    # one coarsest C-interval
    ((66, (4, 4)), 3, [29, 14, 10]),    # F-tails on every level
    ((128, (4, 4, 2)), 3, [51, 44, 23]),
])
def test_storage_estimate_is_the_peak_over_uneven_ranks(shape, p, totals):
    reports = run_spmd(p, _peak_worker, shape)
    assert [r.total for r in reports] == totals
    assert max(totals) == reports[0].estimate
    assert all(r.total <= r.estimate for r in reports)


class _RankStub:
    """A transport of one rank of ``size`` that sends nothing: enough to
    build that rank's solver without starting any other."""

    def __init__(self, rank, size):
        self.rank, self.size = rank, size

    def send(self, dst, payload):
        raise AssertionError("a rank stub sends nothing")

    def recv(self, src):
        raise AssertionError("a rank stub receives nothing")


def _rank_solvers(n_steps, factors, p, problem=None):
    """Each rank's solver of a p-rank V-cycle over the shape."""
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps),
                               list(factors))
    return [MgritSolver(problem or _linear_problem(), hier,
                        CycleSpec(kind="V"), transport=_RankStub(w, p))
            for w in range(p)]


def test_storage_estimate_agrees_with_the_dealt_intervals():
    # the estimate against what each rank's solver allocates, over
    # random shapes
    rng = np.random.default_rng(24)
    problem = _linear_problem()
    for _ in range(300):
        n_steps, factors = int(rng.integers(1, 400)), []
        steps, p = n_steps, int(rng.integers(1, 9))
        for _ in range(int(rng.integers(0, 4))):
            m = int(rng.integers(2, 9))
            if steps < m:  # the coarse grid would have fewer than 2 points
                break
            factors.append(m)
            steps //= m
        solvers = _rank_solvers(n_steps, factors, p, problem)
        hier = solvers[0].hierarchy
        assert storage_estimate(hier.n_levels, n_steps, factors, p,
                                hier.level_factors[-1]) == max(
            s.storage_report().total for s in solvers), (n_steps, factors, p)


@pytest.mark.parametrize("shape,p,per_level", [
    # nl-v-p1, lin-sc-p2 and mach-fsc-p2
    ((512, (16, 4, 4)), 1, [[32, 8 + 32, 2 + 8, 1 + 2]]),
    ((2048, (8, 4, 4)), 2, [[128, 32 + 128, 8 + 32, 2 + 8]] * 2),
    ((512, (8, 4, 4)), 2, [[32, 8 + 32, 2 + 8, 1 + 4],
                           [32, 8 + 32, 2 + 8, 0]]),
])
def test_the_benchmark_shapes_keep_no_copy(shape, p, per_level):
    # every rank owns the finer C-points of its coarse points, so it
    # stores C-points and right-hand sides only
    solvers = _rank_solvers(*shape, p)
    assert [s.storage_report().per_level for s in solvers] == per_level
    assert all(lvl.u_keep is None for s in solvers for lvl in s.levels)


def test_a_misaligned_rank_keeps_a_copy():
    # 300 steps, factors [4, 4, 3] at p = 3: level 1's points 25 .. 48 are
    # rank 1's, but level 0's C-point 100 (level 1's point 25) is rank 0's;
    # level 1's points 49 .. 75 are rank 2's, but level 0's C-points 196
    # and 200 are rank 1's
    solvers = _rank_solvers(300, (4, 4, 3), 3)
    assert [[lvl.u_keep is not None for lvl in s.levels]
            for s in solvers] == [[False] * 4, [False, True, False, False],
                                  [False, True, False, False]]
    assert [s.storage_report().per_level for s in solvers] == [
        [25, 6 + 24, 2 + 6, 1 + 3], [25, 6 + 2 * 24, 2 + 6, 1 + 3],
        [25, 6 + 2 * 27, 2 + 6, 0]]


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
        results = run_spmd(p, _invariance_worker, None)
        runs = [r for r, _ in results]
        sol_p = results[0][1]
        assert all(r.iterations == run_1.iterations for r in runs)
        assert max_abs_diff(sol_p, sol_1) < 1e-12
        for r in runs:
            np.testing.assert_allclose(r.residual_norms, run_1.residual_norms,
                                       rtol=1e-9)


BITWISE_CASES = [  # kind, gamma, nested, spatial strategy, steps, factors,
    # spatial grids
    ("V", 0, False, "none", 64, (4, 4), 2),
    ("F", 1, False, "none", 64, (4, 4), 2),
    ("V", 1, True, "delayed", 64, (4, 4), 2),
    ("F", 0, True, "none", 66, (4, 4), 2),       # F-tails
    ("V", 1, False, "direct", 66, (8, 4), 2),    # idle ranks at p = 3
    # ... which restrict to a coarser grid and prolong back
    ("F", 1, False, "direct", 66, (8, 4), 3),
]


def _bitwise_worker(transport, case):
    kind, gamma, nested, strategy, n_steps, factors, grids = case
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps),
                               list(factors))
    run, sol = mgrit_solve(_linear_problem(grids=grids), hier,
                           CycleSpec(kind=kind, gamma=gamma, max_iters=30,
                                     spatial_strategy=strategy,
                                     nested_iterations=nested),
                           StoppingCriterion(tolerance=1e-10),
                           transport=transport)
    return run.iterations, run.converged, None if sol is None else sol.fields


@pytest.mark.parametrize("case", BITWISE_CASES)
def test_trajectory_bitwise_independent_of_worker_count(case):
    # only the residual norms may differ, in their last bits, because
    # their partial sums are added in rank order
    [(iters_1, converged, fields_1)] = run_spmd(1, _bitwise_worker, case)
    assert converged
    for p in (2, 3):
        results = run_spmd(p, _bitwise_worker, case)
        assert all(it == iters_1 for it, _, _ in results)
        assert np.array_equal(results[0][2], fields_1)


# kind, cycle, spatial strategy; 120 steps with factors [4, 3, 2] on three
# grids.  At p = 3 and 4 some ranks hold the finer C-points of their coarse
# points on a level whose grid is coarser than the finer level's, and
# rebuild the restricted iterate for Newton's guesses, while others keep a
# routed copy
MIXED_CASES = [
    ("nonlinear", "V", "direct"),
    ("machine", "F", "delayed"),
]


def _mixed_worker(transport, case):
    kind, cycle, strategy = case
    problem = {"nonlinear": NonlinearSaturationProblem,
               "machine": SurrogateMachineProblem}[kind](
        15, n_spatial_grids=3, excitation=PwmSource(), source="random",
        seed=5)
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, 120), [4, 3, 2])
    solver = MgritSolver(problem, hier,
                         CycleSpec(kind=cycle, max_iters=30,
                                   spatial_strategy=strategy,
                                   nested_iterations=True),
                         StoppingCriterion(tolerance=1e-9), transport)
    run, sol = solver.solve()
    # per level whose grid is coarser than the finer one's: a copy kept?
    copies = [lvl.u_keep is not None for lvl in solver.levels[1:]
              if lvl.spatial_level > solver.assignment[lvl.index - 1]]
    return (run.iterations, run.converged, copies,
            None if sol is None else (sol.fields, sol.scalars))


@pytest.mark.parametrize("case", MIXED_CASES)
def test_ranks_that_rebuild_and_ranks_that_copy_agree_bitwise(case):
    [(iters_1, converged, _, (fields_1, scalars_1))] = run_spmd(
        1, _mixed_worker, case)
    assert converged
    for p in (3, 4):
        results = run_spmd(p, _mixed_worker, case)
        assert all(it == iters_1 for it, _, _, _ in results)
        assert any(set(level) == {False, True}
                   for level in zip(*(copies for _, _, copies, _ in results)))
        fields, scalars = results[0][3]
        assert np.array_equal(fields, fields_1)
        assert np.array_equal(scalars, scalars_1)


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


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("kind", ["linear", "dahlquist"])
def test_nan_step_stops_every_worker(kind, caller):
    # the norm is reduced over all ranks, so every rank stops on it and
    # returns the run one worker returns; the 4th fine step into t = 0.01
    # is the second cycle's restriction sweep, so one iteration completes
    for call, done in ((None, 0), (4, 1)):
        expect = _history(_nan_worker(None, (kind, call)))
        assert expect[:3] == (False, done, NAN_TEXT)
        assert len(expect[4]) == done
        for p in (2, 3):
            runs = from_caller(caller, lambda: run_spmd(
                p, _nan_worker, (kind, call), timeout=30.0))
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


def test_residual_squares_are_each_rows_squares_bitwise():
    rng = np.random.default_rng(15)
    for n in (15, 31, 63, 127):
        for n_scalars in (0, 2):
            for k in (1, 2, 7, 64, 256):
                for magnitude in (1e-12, 1.0, 1e4):
                    r = magnitude * rng.normal(size=(k, n + n_scalars))
                    want = [float(x[:n] @ x[:n]) + float(x[n:] @ x[n:])
                            for x in r]
                    assert _squares(r, n).tolist() == want


# --- Newton's tolerance by cycle ----------------------------------------------------

class _TolRecorder(NonlinearSaturationProblem):
    """The pins' nonlinear problem, recording each step_many call's
    tolerance; defines step next to step_many, so the solver batches."""

    def __init__(self):
        super().__init__(15, n_spatial_grids=2, excitation=PwmSource(),
                         source="random", seed=5)
        self.tols = []

    def step(self, *args, **kwargs):
        return super().step(*args, **kwargs)

    def step_many(self, fields, scalars, t_prev, t_next, spatial_level=0,
                  smooth=False, guess=None, tol=None):
        self.tols.append(tol)
        return super().step_many(fields, scalars, t_prev, t_next,
                                 spatial_level, smooth, guess, tol)


class _MeasureRecorder(MgritSolver):
    """Records each fine measuring sweep's Newton tolerance and result."""

    def _measure(self, lvl, *args):
        out = super()._measure(lvl, *args)
        self.measured.append((self._tol, *out[:2]))
        return out


def _recorded_solve(stopping, max_iters=20, n_steps=66, nested=True,
                    initial_guess=None, factors=(4, 4)):
    problem = _TolRecorder()
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps),
                               list(factors))
    solver = _MeasureRecorder(problem, hier,
                              CycleSpec(kind="V", max_iters=max_iters,
                                        nested_iterations=nested),
                              stopping)
    solver.measured = []
    run, sol = solver.solve(initial_guess=initial_guess)
    return solver, problem, run, sol


@pytest.mark.parametrize("stopping,max_iters", [
    (StoppingCriterion(tolerance=1e-7), 20),
    (StoppingCriterion(tolerance=1e-300), 2),
    (StoppingCriterion(kind="qoi-change", tolerance=1e-3), 20),
])
def test_a_run_stops_on_and_returns_only_a_tight_sweep(monkeypatch, stopping,
                                                       max_iters):
    # with no margin every cycle runs loose, so the loose measuring sweep
    # that passes the test (or ends the run at max_iters) must be re-run,
    # or run, at newton.tol
    monkeypatch.setattr(mgrit, "LOOSE_MARGIN", 0.0)
    solver, problem, run, sol = _recorded_solve(stopping, max_iters)
    tols = [tol for tol, *_ in solver.measured]
    assert tols[-1] is None and set(tols[:-1]) == {LOOSE_TOL}
    assert problem.tols[-2:] == [None, None]  # the fine F-tail
    last = solver.measured[-1]
    assert run.residual_norms[-1] == last[1] and run.qoi_changes[-1] == last[2]
    if max_iters == 2:
        assert not run.converged and run.iterations == 2
        assert len(tols) == 3  # the initial sweep and one per iteration
    else:
        assert run.converged and solver._stops(*solver.measured[-2][1:])
        assert len(tols) == run.iterations + 2  # the passing one re-run
    # the answer is the walk of the tight sweep, from the same C-values
    walked, _ = solver._walk(solver.levels[0], sweep=True)
    assert np.array_equal(sol.fields[:len(walked)], walked)


def test_a_passing_loose_sweep_lets_its_walk_go_before_the_tight_one(
        monkeypatch):
    # the tight re-run walks the fine level again; the loose walk it
    # replaces must be dead by then, or a worker holds two fine walks
    monkeypatch.setattr(mgrit, "LOOSE_MARGIN", 0.0)
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, 66), [4, 4])
    solver = MgritSolver(_TolRecorder(), hier, CycleSpec(kind="V"),
                         StoppingCriterion(tolerance=1e-7))
    walks, alive = [], []
    measure, walk = solver._measure, solver._walk

    def measuring(*args):
        out = measure(*args)
        walks.append((solver._tol, weakref.ref(out[-1][0])))
        return out

    def walking(lvl, sweep=False):
        if lvl.index == 0 and sweep and solver._tol is None and walks:
            tol, walked = walks[-1]
            alive.append((tol, walked() is not None))
        return walk(lvl, sweep)

    solver._measure, solver._walk = measuring, walking
    run, _ = solver.solve()
    assert run.converged
    assert alive == [(LOOSE_TOL, False)]


def test_loose_steps_stop_near_the_stopping_tolerance():
    solver, problem, run, sol = _recorded_solve(StoppingCriterion(
        tolerance=1e-9))
    assert run.converged and run.iterations == 5
    # loose from the start, tight from some cycle on, once the norm nears
    # the stopping tolerance or the error a loose step leaves
    tols = [tol for tol, *_ in solver.measured]
    loose = tols.count(LOOSE_TOL)
    assert loose >= 2 and tols == [LOOSE_TOL] * loose + [None] * (
        len(tols) - loose) and tols[-1] is None
    assert problem.tols[-1] is None
    seq = sequential_solve(problem, build_uniform_grid(0.0, 0.02, 66).points)
    assert max_abs_diff(sol, seq) < 1e-7


@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
def test_the_history_names_each_norms_newton_tolerance(kind):
    # the pins' solves: loose norms under-read, so the history says which
    # sweeps ran loose, all of them before the tight ones
    run, _ = run_spmd(1, _pinned_solve, kind)[0]
    tols = run.newton_tols
    assert len(tols) == len(run.residual_norms) == run.iterations
    loose = tols.count(LOOSE_TOL)
    assert tols == [LOOSE_TOL] * loose + [None] * (len(tols) - loose)
    assert tols[-1] is None or not run.converged
    assert bool(loose) == (kind == "nonlinear")

@pytest.mark.parametrize("case", ["seeded", "one level"])
def test_seeded_and_one_level_runs_stay_tight(case):
    problem = _TolRecorder()
    grid = build_uniform_grid(0.0, 0.02, 66)
    seq = sequential_solve(problem, grid.points)
    solver, problem, run, _ = _recorded_solve(
        StoppingCriterion(tolerance=1e-9), initial_guess=(
            seq if case == "seeded" else None),
        factors=(4, 4) if case == "seeded" else ())
    assert run.converged and problem.tols
    assert set(problem.tols) == {None}


class _ForwardingStep:
    """Forwards every attribute and defines only the six-argument step,
    as a tracing proxy does: the solver steps it row by row."""

    def __init__(self, problem):
        self.problem = problem
        self.guessed = 0

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def step(self, u_prev, t_prev, t_next, spatial_level=0, guess=None,
             smooth=False):
        self.guessed += guess is not None and guess.field is not u_prev.field
        return self.problem.step(u_prev, t_prev, t_next, spatial_level,
                                 guess=guess, smooth=smooth)


def test_a_forwarding_six_argument_step_still_converges():
    wrapper = _ForwardingStep(_TolRecorder())
    grid = build_uniform_grid(0.0, 0.02, 66)
    run, sol = mgrit_solve(wrapper, TimeHierarchy.build(grid, [4, 4]),
                           CycleSpec(kind="F", nested_iterations=True),
                           StoppingCriterion(tolerance=1e-9))
    assert run.converged and wrapper.guessed
    seq = sequential_solve(wrapper.problem, grid.points)
    assert max_abs_diff(sol, seq) < 1e-7
