"""Exact work counts, stop-without-commit, and wait accounting of the engine.

The convergence test is taken inside the next cycle's first fine sweep,
so a solve walks the fine level (gamma + 1) times per iteration plus once
for the initial residual, and a run that stops must return exactly the
iterate whose residual it reported.
"""

import numpy as np
import pytest

from pintmg.excitation import PwmSource
from pintmg.mgrit import CycleSpec, MgritSolver, StoppingCriterion
from pintmg.problems import LinearDiffusionProblem
from pintmg.runtime import run_spmd
from pintmg.time_hierarchy import TimeHierarchy, build_uniform_grid

N_STEPS, FACTORS = 64, [4, 4]
CASES = [(kind, gamma, p) for kind in ("V", "F") for gamma in (0, 1, 2)
         for p in (1, 2)]
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


def _hierarchy():
    return TimeHierarchy.build(build_uniform_grid(0.0, 0.02, N_STEPS), FACTORS)


def _problem():
    return LinearDiffusionProblem(7, diffusivity=0.2, excitation=PwmSource(),
                                  source="sine")


def _solve_worker(transport, job):
    kind, gamma, stopping, max_iters, guess = job
    hier = _hierarchy()
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
           guess=None):
    """(rank 0's run, gathered trajectory, step calls summed over ranks)."""
    results = run_spmd(p, _solve_worker,
                       (kind, gamma, stopping, max_iters, guess),
                       backend="thread")
    calls = np.sum([c for _, _, c in results], axis=0).tolist()
    return results[0][0], results[0][1], calls


def _expected_steps(hier, kind, gamma, iters):
    """Step calls per level, from the cycle's structure alone."""
    coarsest = hier.n_levels - 1
    n = [hier[l].n_steps for l in range(hier.n_levels)]
    calls = [0] * hier.n_levels

    def descend(l):
        # level 0's first sweep is the driver's measuring sweep
        calls[l] += (gamma if l == 0 else gamma + 1) * n[l]
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
    calls[0] += n[0] * (iters + 1)  # the measuring sweeps
    calls[0] += n[0] - n[1]         # materializing the F-points
    return calls


def _residual_norm(trajectory):
    """sqrt(sum_n |u_n - step(u_{n-1})|^2) of a fine trajectory."""
    problem, times = _problem(), _hierarchy()[0].points
    total = 0.0
    for i in range(1, len(trajectory)):
        prop, _ = problem.step(trajectory[i - 1], float(times[i - 1]),
                               float(times[i]), 0, guess=trajectory[i - 1])
        total += (prop - trajectory[i]).norm_sq()
    return total ** 0.5


def _fields(trajectory):
    return np.array([s.field for s in trajectory.states])


@pytest.mark.parametrize("kind,gamma,p", CASES)
def test_step_counts_per_level_are_exact(kind, gamma, p):
    run, _, calls = _solve(p, kind, gamma)
    assert run.converged and run.iterations >= 2
    n, m = N_STEPS, FACTORS[0]
    assert calls[0] == n * ((gamma + 1) * run.iterations + 1) + (n - n // m)
    assert calls == _expected_steps(_hierarchy(), kind, gamma, run.iterations)


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
                       ("V", 1, "residual-norm", 50, None), backend="thread")
    n_levels = _hierarchy().n_levels
    for run, _, _ in results:
        assert len(run.wait_seconds) == len(run.level_seconds) == n_levels
        assert all(s > 0.0 for s in run.level_seconds)
        if p == 1:
            assert run.wait_seconds == [0.0] * n_levels
        else:
            assert all(w >= 0.0 for w in run.wait_seconds)
            assert run.wait_seconds[0] > 0.0
