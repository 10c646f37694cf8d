"""Exact work counts, stop-without-commit, and wait accounting of the engine.

The convergence test is taken inside the next cycle's first fine sweep,
so a solve walks the fine level (gamma + 1) times per iteration plus once
for the initial residual, and a run that stops must return exactly the
iterate whose residual it reported.  A sweep stops at its level's last
C-point; only the walks that ascend step the F-tail.  The answer is the
last measuring walk's states, copied, plus the fine F-tail stepped on
from them: no fine point before the tail is stepped again.  A 1-level
hierarchy is solved by the coarsest-level path: sequential stepping on
rank 0, whose trajectory is the answer.
"""

import numpy as np
import pytest

from pintmg.excitation import PwmSource
from pintmg.mgrit import CycleSpec, MgritSolver, StoppingCriterion
from pintmg.problems import (LinearDiffusionProblem, SurrogateMachineProblem,
                             sequential_solve)
from pintmg.runtime import run_spmd
from pintmg.time_hierarchy import TimeHierarchy, build_uniform_grid

N_STEPS, FACTORS = 64, [4, 4]
CASES = [(kind, gamma, p) for kind in ("V", "F") for gamma in (0, 1, 2)
         for p in (1, 2)]
# 66 steps leave level 0 a 2-point F-tail, and the coarsest level one
# C-interval, which rank 0 owns alone
TAIL_STEPS = 66
TAIL_CASES = [(kind, gamma, p) for kind in ("V", "F") for gamma in (0, 1)
              for p in (1, 2, 3)]
STOPPING = {"residual-norm": 1e-10, "qoi-change": 1e-6}


class CountingProblem:
    """A problem whose step calls are counted per time level, read from
    the step size."""

    def __init__(self, problem, level_dts):
        self._problem = problem
        self._dts = np.asarray(level_dts)
        self.calls = [0] * len(level_dts)

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def step(self, u_prev, t_prev, t_next, *args, **kwargs):
        level = int(np.argmin(np.abs(self._dts - (t_next - t_prev))))
        self.calls[level] += 1
        return self._problem.step(u_prev, t_prev, t_next, *args, **kwargs)


def _hierarchy(n_steps=N_STEPS):
    return TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps), FACTORS)


def _problem():
    return LinearDiffusionProblem(7, diffusivity=0.2, excitation=PwmSource(),
                                  source="sine")


def _solve_worker(transport, job):
    kind, gamma, stopping, max_iters, guess, n_steps = job
    hier = _hierarchy(n_steps)
    problem = CountingProblem(_problem(),
                              [hier[l].dt for l in range(hier.n_levels)])
    solver = MgritSolver(problem, hier,
                         CycleSpec(kind=kind, gamma=gamma, max_iters=max_iters),
                         StoppingCriterion(kind=stopping,
                                           tolerance=STOPPING[stopping]),
                         transport)
    run, solution = solver.solve(initial_guess=guess)
    return run, solution, problem.calls


def _solve(p, kind, gamma, stopping="residual-norm", max_iters=50,
           guess=None, n_steps=N_STEPS):
    """(rank 0's run, gathered trajectory, step calls summed over ranks)."""
    results = run_spmd(p, _solve_worker,
                       (kind, gamma, stopping, max_iters, guess, n_steps),
                       backend="thread")
    calls = np.sum([c for _, _, c in results], axis=0).tolist()
    return results[0][0], results[0][1], calls


def _expected_steps(hier, kind, gamma, iters):
    """Step calls per level, from the cycle's structure alone.  A sweep
    steps up to the level's last C-point, swept[l] points; the F-tail
    beyond it is stepped only by the walks that ascend and, on the fine
    level, once for the answer."""
    coarsest = hier.n_levels - 1
    n = [hier[l].n_steps for l in range(hier.n_levels)]
    swept = [s.n_intervals * s.factor for s in hier.splittings]
    calls = [0] * hier.n_levels

    def descend(l):
        # level 0's first sweep is the driver's measuring sweep
        calls[l] += (gamma if l == 0 else gamma + 1) * swept[l]
        calls[l + 1] += n[l + 1]  # one coarse step per coarse FAS rhs

    def ascend(l):  # from l + 1: the coarse walk steps at its F-points
        if l + 1 < coarsest:
            calls[l + 1] += n[l + 1] - n[l + 2]

    def cycle(l, f_cycle):
        if l == coarsest:
            calls[l] += n[l]  # sequential solve on rank 0
            return
        descend(l)
        cycle(l + 1, f_cycle)
        ascend(l)
        if f_cycle and l > 0:
            cycle(l, False)

    for _ in range(iters):
        cycle(0, kind == "F")
    calls[0] += swept[0] * (iters + 1)  # the measuring sweeps
    calls[0] += n[0] - swept[0]         # the answer's F-tail
    return calls


def _residual_norm(trajectory):
    """sqrt(sum_n |u_n - step(u_{n-1})|^2) of a fine trajectory."""
    problem = _problem()
    times = build_uniform_grid(0.0, 0.02, len(trajectory) - 1).points
    total = 0.0
    for i in range(1, len(trajectory)):
        prop, _ = problem.step(trajectory[i - 1], float(times[i - 1]),
                               float(times[i]), 0, guess=trajectory[i - 1])
        total += (prop - trajectory[i]).norm_sq()
    return total ** 0.5


def _fields(trajectory):
    return np.array([s.field for s in trajectory.states])


def _scalars(trajectory):
    return np.array([s.scalars for s in trajectory.states])


@pytest.mark.parametrize("kind,gamma,p", CASES)
def test_step_counts_per_level_are_exact(kind, gamma, p):
    run, _, calls = _solve(p, kind, gamma)
    assert run.converged and run.iterations >= 2
    n, m = N_STEPS, FACTORS[0]
    assert n % m == 0  # no F-tail: the answer costs no step
    assert calls[0] == n * ((gamma + 1) * run.iterations + 1)
    assert calls == _expected_steps(_hierarchy(), kind, gamma, run.iterations)


@pytest.mark.parametrize("kind,gamma,p", TAIL_CASES)
def test_step_counts_with_an_f_tail_and_idle_ranks(kind, gamma, p):
    hier = _hierarchy(TAIL_STEPS)
    assert TAIL_STEPS % FACTORS[0] == 2
    assert hier.splittings[-1].n_intervals == 1
    run, traj, calls = _solve(p, kind, gamma, n_steps=TAIL_STEPS)
    assert run.converged and run.iterations >= 2
    assert calls == _expected_steps(hier, kind, gamma, run.iterations)
    assert len(traj) == TAIL_STEPS + 1
    assert _residual_norm(traj) == pytest.approx(run.residual_norms[-1],
                                                 rel=1e-12, abs=0.0)


@pytest.mark.parametrize("stopping", sorted(STOPPING))
@pytest.mark.parametrize("kind,gamma,p", CASES)
def test_a_stopped_run_returns_the_iterate_it_measured(kind, gamma, p,
                                                       stopping):
    run, traj, _ = _solve(p, kind, gamma, stopping)
    assert run.converged and run.iterations >= 2
    assert _residual_norm(traj) == pytest.approx(run.residual_norms[-1],
                                                 rel=1e-12, abs=0.0)

    # a capped run is a prefix of the full one and returns its iterate k
    k = run.iterations - 1
    capped, traj_k, _ = _solve(p, kind, gamma, stopping, max_iters=k)
    assert not capped.converged and capped.iterations == k
    assert capped.initial_residual == run.initial_residual
    assert capped.residual_norms == run.residual_norms[:k]
    assert capped.qoi_changes == run.qoi_changes[:k]
    assert _residual_norm(traj_k) == pytest.approx(run.residual_norms[k - 1],
                                                   rel=1e-12, abs=0.0)

    # and cycling on from it retraces the full run bit for bit
    rest, traj_rest, _ = _solve(p, kind, gamma, stopping, guess=traj_k)
    assert rest.initial_residual == run.residual_norms[k - 1]
    assert rest.residual_norms == run.residual_norms[k:]
    assert rest.qoi_changes == run.qoi_changes[k:]
    assert np.array_equal(_fields(traj_rest), _fields(traj))


@pytest.mark.parametrize("p", [1, 2])
def test_recv_waits_are_charged_apart_from_level_work(p):
    results = run_spmd(p, _solve_worker,
                       ("V", 1, "residual-norm", 50, None, N_STEPS),
                       backend="thread")
    n_levels = _hierarchy().n_levels
    for run, _, _ in results:
        assert len(run.wait_seconds) == len(run.level_seconds) == n_levels
        assert all(s > 0.0 for s in run.level_seconds)
        if p == 1:
            assert run.wait_seconds == [0.0] * n_levels
        else:
            assert all(w >= 0.0 for w in run.wait_seconds)
            assert run.wait_seconds[0] > 0.0


def _machine_solver(transport):
    """A machine problem (two lumped scalars) on the F-tail hierarchy."""
    problem = SurrogateMachineProblem(7, excitation=PwmSource(),
                                      source="sine")
    return MgritSolver(problem, _hierarchy(TAIL_STEPS), CycleSpec(),
                       StoppingCriterion(tolerance=1e-9), transport)


def _machine_worker(transport, _):
    return _machine_solver(transport).solve()


def _overwriting_worker(transport, _):
    """Solve, copy the answer, then overwrite the fine C-store and every
    state the measuring walks kept with NaN."""
    solver = _machine_solver(transport)
    walks, measure = [], solver._measure

    def keeping(*args):
        out = measure(*args)
        walks.append(out[-1])
        return out

    solver._measure = keeping
    run, traj = solver.solve()
    copied = None if traj is None else (_fields(traj), _scalars(traj))
    for state in solver.levels[0].c_store + walks[-1]:
        if state is not None:  # an idle rank walks no boundary
            state.field[:], state.scalars[:] = np.nan, np.nan
    return run, traj, copied


@pytest.mark.parametrize("p", [1, 2, 3])
def test_the_answer_shares_no_memory_with_the_solver(p):
    results = run_spmd(p, _overwriting_worker, None, backend="thread")
    run, traj, (fields, scalars) = results[0]
    assert run.converged and len(traj) == TAIL_STEPS + 1
    assert np.isfinite(fields).all() and np.isfinite(scalars).all()
    assert np.array_equal(_fields(traj), fields)
    assert np.array_equal(_scalars(traj), scalars)


@pytest.mark.parametrize("p,backend", [(3, "thread"), (2, "process")])
def test_a_machine_answer_does_not_depend_on_the_workers(p, backend):
    hier = _hierarchy(TAIL_STEPS)
    assert TAIL_STEPS % FACTORS[0] and hier.splittings[-1].n_intervals < p
    [(run_1, traj_1)] = run_spmd(1, _machine_worker, None)
    run, traj = run_spmd(p, _machine_worker, None, backend=backend)[0]
    assert run.converged and run.iterations == run_1.iterations >= 2
    assert run.residual_norms == run_1.residual_norms
    assert _scalars(traj).shape == (TAIL_STEPS + 1, 2)
    assert np.array_equal(_fields(traj), _fields(traj_1))
    assert np.array_equal(_scalars(traj), _scalars(traj_1))


def _one_level_worker(transport, _):
    grid = build_uniform_grid(0.0, 0.02, N_STEPS)
    hier = TimeHierarchy.build(grid, [])
    problem = CountingProblem(_problem(), [hier[0].dt])
    run, solution = MgritSolver(problem, hier, transport=transport).solve()
    return run, solution, problem.calls


@pytest.mark.parametrize("p", [1, 2, 3])
def test_one_level_hierarchy_is_the_sequential_solve(p):
    results = run_spmd(p, _one_level_worker, None, backend="thread")
    run, traj, _ = results[0]
    seq = sequential_solve(_problem(), _hierarchy()[0].points)
    assert run.converged and run.iterations == 1
    assert run.residual_norms == [0.0]
    assert np.array_equal(_fields(traj), _fields(seq))
    # the initial measure and the solve on rank 0, whose trajectory is the
    # answer: no closing sweep and no materializing walk
    assert sum(c[0] for _, _, c in results) == 2 * N_STEPS
