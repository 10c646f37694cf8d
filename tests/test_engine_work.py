"""Exact work counts, stop-without-commit, and wait accounting of the engine.

The convergence test is taken inside the next cycle's first fine sweep,
so a solve walks the fine level (gamma + 1) times per iteration plus once
for the initial residual, and a run that stops must return exactly the
iterate whose residual it reported.  A sweep stops at its level's last
C-point; only the walks that ascend step the F-tail.  The answer is the
last measuring walk's states, copied, plus the fine F-tail stepped on
from them: no fine point before the tail is stepped again.  A 1-level
hierarchy is solved by the coarsest-level path: sequential stepping on
rank 0, whose trajectory is the answer.  The engine reaches the problem
only through step_many, never through step.
"""

import functools
import operator
import time
import weakref

import numpy as np
import pytest

from pintmg.excitation import PwmSource
from pintmg.mgrit import CycleSpec, MgritSolver, StoppingCriterion
from pintmg.problems import (LinearDiffusionProblem, SurrogateMachineProblem,
                             sequential_solve)
from pintmg import mgrit
from pintmg.runtime import run_spmd
from pintmg.state import BlockState
from pintmg.time_hierarchy import TimeHierarchy, build_uniform_grid

from oracles import max_abs_diff

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


class _CountingLinear(LinearDiffusionProblem):
    """_problem()'s linear problem, its steps counted per time level."""

    def __init__(self, level_dts):
        super().__init__(7, diffusivity=0.2, excitation=PwmSource(),
                         source="sine")
        self._dts = np.asarray(level_dts)
        self.calls = [0] * len(level_dts)

    def _count(self, t_prev, t_next):
        self.calls[int(np.argmin(np.abs(self._dts - (t_next - t_prev))))] += 1

    def step(self, u_prev, t_prev, t_next, *args, **kwargs):
        self._count(t_prev, t_next)
        return super().step(u_prev, t_prev, t_next, *args, **kwargs)


class StepOnlyCountingProblem(_CountingLinear):
    """Overrides step alone, so the engine steps it row by row."""


class BatchCountingProblem(_CountingLinear):
    """Defines step_many next to step, so the engine steps its layers
    through step_many; counts each row and each call."""

    batches = 0

    def step(self, *args, **kwargs):
        return super().step(*args, **kwargs)

    def step_many(self, fields, scalars, t_prev, t_next, *args, **kwargs):
        self.batches += 1
        for a, b in zip(t_prev, t_next):
            self._count(a, b)
        return super().step_many(fields, scalars, t_prev, t_next, *args,
                                 **kwargs)


COUNTERS = {
    "wrapper": lambda dts: CountingProblem(_problem(), dts),
    "batched": BatchCountingProblem,
    "step-only": StepOnlyCountingProblem,
}


def _hierarchy(n_steps=N_STEPS):
    return TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps), FACTORS)


def _level_dts(hier):
    """Each level's nominal step, from its end points."""
    return [(g.points[-1] - g.points[0]) / g.n_steps for g in hier.grids]


def _problem():
    return LinearDiffusionProblem(7, diffusivity=0.2, excitation=PwmSource(),
                                  source="sine")


def _solve_worker(transport, job):
    kind, gamma, stopping, max_iters, guess, n_steps, counter = job
    hier = _hierarchy(n_steps)
    problem = COUNTERS[counter](_level_dts(hier))
    solver = MgritSolver(problem, hier,
                         CycleSpec(kind=kind, gamma=gamma, max_iters=max_iters),
                         StoppingCriterion(kind=stopping,
                                           tolerance=STOPPING[stopping]),
                         transport)
    run, solution = solver.solve(initial_guess=guess)
    return run, solution, problem.calls


def _solve(p, kind, gamma, stopping="residual-norm", max_iters=50,
           guess=None, n_steps=N_STEPS, counter="wrapper"):
    """(rank 0's run, gathered trajectory, step calls summed over ranks)."""
    results = run_spmd(p, _solve_worker,
                       (kind, gamma, stopping, max_iters, guess, n_steps,
                        counter))
    calls = np.sum([c for _, _, c in results], axis=0).tolist()
    return results[0][0], results[0][1], calls


def _expected_steps(hier, kind, gamma, iters):
    """Step calls per level, from the cycle's structure alone.  A sweep
    steps up to the level's last C-point, swept[l] points; the F-tail
    beyond it is stepped only by the walks that ascend and, on the fine
    level, once for the answer."""
    coarsest = hier.n_levels - 1
    n = [hier[l].n_steps for l in range(hier.n_levels)]
    swept = [(g.n_points - 1) // m * m
             for g, m in zip(hier.grids, hier.level_factors)]
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
        df = prop.field - trajectory.fields[i]
        ds = prop.scalars - trajectory.scalars[i]
        total += float(df @ df) + float(ds @ ds)
    return total ** 0.5


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
    assert hier[-1].n_steps // hier.level_factors[-1] == 1
    run, traj, calls = _solve(p, kind, gamma, n_steps=TAIL_STEPS)
    assert run.converged and run.iterations >= 2
    assert calls == _expected_steps(hier, kind, gamma, run.iterations)
    assert len(traj) == TAIL_STEPS + 1
    assert _residual_norm(traj) == pytest.approx(run.residual_norms[-1],
                                                 rel=1e-12, abs=0.0)


@pytest.mark.parametrize("counter", ["batched", "step-only"])
@pytest.mark.parametrize("kind,gamma,p", TAIL_CASES)
def test_batched_and_step_only_subclasses_step_what_the_wrapper_steps(
        kind, gamma, p, counter):
    # the wrapper forwards attributes, so the engine steps it row by row;
    # a subclass defining step_many next to step is stepped in layers, and
    # one overriding step alone row by row again
    hier = _hierarchy(TAIL_STEPS)
    run, traj, calls = _solve(p, kind, gamma, n_steps=TAIL_STEPS,
                              counter=counter)
    run_w, traj_w, calls_w = _solve(p, kind, gamma, n_steps=TAIL_STEPS)
    assert run.converged and run.iterations == run_w.iterations
    assert calls == calls_w == _expected_steps(hier, kind, gamma,
                                               run.iterations)
    assert run.residual_norms == run_w.residual_norms
    assert np.array_equal(traj.fields, traj_w.fields)


def test_the_engine_steps_a_layer_in_one_step_many_call():
    hier = _hierarchy()
    problem = BatchCountingProblem(_level_dts(hier))
    run, _ = MgritSolver(problem, hier, CycleSpec(kind="V", gamma=1)).solve()
    steps = _expected_steps(hier, "V", 1, run.iterations)
    assert problem.calls == steps
    # a fine layer steps all 16 intervals: far fewer calls than steps
    assert problem.batches < sum(steps) / 4


class _NewtonCounting(SurrogateMachineProblem):
    """A machine problem whose step_many calls, rows and layer iterates
    (each call's largest row count) are counted per time level."""

    def __init__(self, level_dts):
        super().__init__(7, excitation=PwmSource(), source="sine")
        self._dts = np.asarray(level_dts)
        self.calls, self.rows, self.layers = ([0] * len(level_dts)
                                              for _ in range(3))

    def step(self, *args, **kwargs):
        return super().step(*args, **kwargs)

    def step_many(self, fields, scalars, t_prev, t_next, *args):
        out = super().step_many(fields, scalars, t_prev, t_next, *args)
        level = int(np.argmin(np.abs(self._dts - (t_next[0] - t_prev[0]))))
        self.calls[level] += 1
        self.rows[level] += len(t_prev)
        self.layers[level] += max(out[2])
        return out


@pytest.mark.parametrize("counter", ["wrapper", "batched", "newton"])
@pytest.mark.parametrize("kind", ["V", "F"])
def test_kernel_counters_per_level_match_a_counting_problem(kind, counter):
    hier = _hierarchy(TAIL_STEPS)
    dts = _level_dts(hier)
    problem = (_NewtonCounting(dts) if counter == "newton"
               else COUNTERS[counter](dts))
    run, _ = MgritSolver(problem, hier,
                         CycleSpec(kind=kind, nested_iterations=True),
                         StoppingCriterion(tolerance=1e-10)).solve()
    assert run.converged
    if counter == "newton":
        assert run.kernel_calls == problem.calls
        assert run.kernel_rows == problem.rows
        assert run.layer_iterates == problem.layers
        return
    assert run.kernel_rows == problem.calls  # a linear call is one iterate
    assert run.layer_iterates == run.kernel_calls
    if counter == "batched":
        assert sum(run.kernel_calls) == problem.batches


# (cycle kind, nested iterations, fine steps, factors): the three cycles,
# nested iterations, an F-tail and a 1-level hierarchy
GUARD_CASES = [("V", False, N_STEPS, FACTORS), ("F", False, N_STEPS, FACTORS),
               ("two-level", False, N_STEPS, FACTORS),
               ("V", True, N_STEPS, FACTORS), ("F", True, TAIL_STEPS, FACTORS),
               ("V", False, N_STEPS, [])]


def _step_raises(*args, **kwargs):
    raise AssertionError("the engine called step")


def _guarded_worker(transport, job):
    """Solve with ``step`` raising on the instance: batched_step looks
    step_many up on the type, so only the engine's _step can get through."""
    kind, nested, n_steps, factors = job
    problem = _problem()
    problem.step = _step_raises
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps),
                               factors)
    return MgritSolver(problem, hier,
                       CycleSpec(kind=kind, nested_iterations=nested),
                       StoppingCriterion(tolerance=1e-10), transport).solve()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("kind,nested,n_steps,factors", GUARD_CASES)
def test_the_engine_steps_only_through_step_many(kind, nested, n_steps,
                                                  factors, p):
    run, traj = run_spmd(p, _guarded_worker,
                         (kind, nested, n_steps, factors))[0]
    seq = sequential_solve(_problem(),
                           build_uniform_grid(0.0, 0.02, n_steps).points)
    assert run.converged and run.failure is None
    # a 1-level hierarchy is sequential stepping itself
    assert max_abs_diff(traj, seq) <= (1e-8 if factors else 0.0)


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
    assert np.array_equal(traj_rest.fields, traj.fields)


@pytest.mark.parametrize("p", [1, 2])
def test_recv_waits_are_charged_apart_from_level_work(p):
    results = run_spmd(p, _solve_worker,
                       ("V", 1, "residual-norm", 50, None, N_STEPS,
                        "wrapper"))
    n_levels = _hierarchy().n_levels
    for run, _, _ in results:
        assert len(run.wait_seconds) == len(run.level_seconds) == n_levels
        assert all(s > 0.0 for s in run.level_seconds)
        if p == 1:
            assert run.wait_seconds == [0.0] * n_levels
        else:
            assert all(w >= 0.0 for w in run.wait_seconds)
            assert run.wait_seconds[0] > 0.0


SEND_DELAY = 0.01


def _slow_send_worker(transport, _):
    sends, send = [], transport.send

    def slow_send(*args):  # as a write blocked on the pipe would
        sends.append(time.sleep(SEND_DELAY))
        send(*args)

    transport.send = slow_send
    run, _ = MgritSolver(_problem(), _hierarchy(), CycleSpec(),
                         StoppingCriterion(tolerance=1e-10), transport).solve(
                             gather_solution=False)
    return run, len(sends)


def test_blocked_sends_are_charged_as_waits():
    # every send of a solve without a gather is made by a charged sweep
    for run, sends in run_spmd(2, _slow_send_worker, None):
        slept = sends * SEND_DELAY
        assert sends and sum(run.wait_seconds) >= slept
        assert sum(run.level_seconds) < 0.5 * slept


def _held_worker(transport, gamma):
    """Solve, recording whether the rows the last measuring sweep walked
    are still alive before each FC-sweep, at each ascent into the fine
    level and as the next measuring sweep starts its walk."""
    solver = MgritSolver(_problem(), _hierarchy(), CycleSpec(gamma=gamma),
                         StoppingCriterion(tolerance=1e-10), transport)
    walks, alive = [], []
    measure, fc_sweep, ascend = (solver._measure, solver._fc_sweep,
                                 solver._ascend)

    def measuring(*args):
        if walks:
            alive.append(("measure", walks[-1]() is not None))
        out = measure(*args)
        walks.append(weakref.ref(out[-1][0]))
        return out

    def sweeping(*args):
        alive.append(("sweep", walks[-1]() is not None))
        return fc_sweep(*args)

    def ascending(coarse, fine, *args, **kwargs):
        if fine.index == 0:
            alive.append(("ascend", walks[-1]() is not None))
        return ascend(coarse, fine, *args, **kwargs)

    solver._measure, solver._fc_sweep = measuring, sweeping
    solver._ascend = ascending
    run, _ = solver.solve()
    return run, alive


@pytest.mark.parametrize("gamma,p", [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2)])
def test_a_cycle_lets_the_measured_walk_go(gamma, p):
    # with gamma >= 1 the cycle reads only the held C-updates; with
    # gamma = 0 the fine restriction reads the walk, and no more after it
    for run, alive in run_spmd(p, _held_worker, gamma):
        assert run.converged and run.iterations >= 2
        where = {w for w, _ in alive}
        assert where == ({"measure", "ascend"} | ({"sweep"} if gamma else
                                                  set()))
        assert not any(a for _, a in alive)


def test_solve_builds_no_block_state(monkeypatch):
    solver = MgritSolver(_problem(), _hierarchy(), CycleSpec(),
                         StoppingCriterion(tolerance=1e-10))
    built, init = [], BlockState.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockState, "__init__", counting)
    run, solution = solver.solve(gather_solution=True)
    assert run.converged and len(solution) == N_STEPS + 1
    assert not built


def _machine_solver(transport):
    """A machine problem (two lumped scalars) on the F-tail hierarchy."""
    problem = SurrogateMachineProblem(7, excitation=PwmSource(),
                                      source="sine")
    return MgritSolver(problem, _hierarchy(TAIL_STEPS), CycleSpec(),
                       StoppingCriterion(tolerance=1e-9), transport)


def _machine_worker(transport, _):
    return _machine_solver(transport).solve()


class _CountingTransport:
    """A transport that counts the messages its rank sends and takes, and
    keeps what it sent."""

    def __init__(self, inner):
        self.rank, self.size, self._inner = inner.rank, inner.size, inner
        self.sent = self.got = 0
        self.payloads = []

    def send(self, dst, payload):
        self.sent += 1
        self.payloads.append(payload)
        self._inner.send(dst, payload)

    def recv(self, src):
        self.got += 1
        return self._inner.recv(src)


def _reduce_counting_worker(transport, reductions):
    """Solve, recording per fine residual reduction the reduce_norm calls
    this rank made and the messages it sent, then the whole solve's
    reduce_norm calls and, from the first reduction, this rank's squares
    of the C-updates and their reduced norm."""
    counting = _CountingTransport(transport)
    solver = _machine_solver(counting)
    reduced, sized, reduce = [], [], solver._reduce

    def reducing(squares, losses, prev_losses, *more):
        calls, sent = reductions[transport.rank], counting.sent
        out = reduce(squares, losses, prev_losses, *more)
        reduced.append((reductions[transport.rank] - calls,
                        counting.sent - sent))
        sized.extend((list(q), norm) for q, norm in zip(more, out[2:]))
        return out

    solver._reduce = reducing
    run, _ = solver.solve()
    return run, reduced, reductions[transport.rank], sized


# the machine solve's figures while the norm and the loss change took a
# reduction each, as float.hex: initial residual, norms, loss changes
TWO_REDUCTIONS = (
    "0x1.13dd31cb18c6fp-7",
    ["0x1.9a6ecbab94ef9p-17", "0x1.1673cfae77cd1p-29",
     "0x1.5af792e6837d7p-35"],
    ["0x1.cd5c805f49f1ep-1", "0x1.1db7dc23c628ep-5",
     "0x1.ba8523d4c6b41p-18"])


def test_a_measuring_sweep_makes_one_reduction(monkeypatch):
    reduce_norm, reductions = mgrit.reduce_norm, {0: 0, 1: 0}

    def counting(transport, *args):
        reductions[transport.rank] += 1
        return reduce_norm(transport, *args)

    monkeypatch.setattr(mgrit, "reduce_norm", counting)
    results = run_spmd(2, _reduce_counting_worker, reductions)
    for run, reduced, total, sized in results:
        # every measuring sweep reduces once; at p = 2 each rank sends
        # one message per reduction (rank 1 its part, rank 0 the result),
        # half of what a norm and a loss change reduced apart sent
        assert run.converged and len(reduced) == run.iterations + 1
        assert reduced == [(1, 1)] * len(reduced)
        # the loose bar's C-update norm rides on the first sweep's
        # reduction: the solve makes no other
        assert total == len(reduced) and len(sized) == 1
        assert (run.initial_residual.hex(),
                [x.hex() for x in run.residual_norms],
                [x.hex() for x in run.qoi_changes]) == TWO_REDUCTIONS
    # that norm is the rank-ordered sum from 0.0 a reduction of its own
    # gave
    [(first, norm)], [(second, norm_1)] = (r[3] for r in results)
    assert norm == norm_1 == functools.reduce(
        operator.add, first + second, 0.0) ** 0.5



def _coarsest_counting_worker(transport, job):
    """Solve, recording per coarsest solve whether it had a right-hand
    side and the messages this rank sent and took in it, per restriction
    into the coarsest level what this rank sent and the number of
    messages it took, and per ascent from the coarsest level the messages
    sent and taken."""
    n_steps, factors = job
    counting = _CountingTransport(transport)
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps),
                               factors)
    solver = MgritSolver(_problem(), hier, CycleSpec(nested_iterations=True),
                         StoppingCriterion(tolerance=1e-9), counting)
    calls, down, back = [], [], []
    coarsest, restrict, ascend = (solver._coarsest_solve,
                                  solver._restrict_sweep, solver._ascend)

    def counted(lvl, rhs=None, *args):
        sent, got = counting.sent, counting.got
        out = coarsest(lvl, rhs, *args)
        calls.append((rhs is not None, counting.sent - sent,
                      counting.got - got))
        return out

    def restricting(lvl, nxt, *args):
        sent, got = counting.sent, counting.got
        out = restrict(lvl, nxt, *args)
        if nxt is solver.levels[-1]:
            down.append((counting.payloads[sent:], counting.got - got))
        return out

    def ascending(coarse, fine, *args, **kwargs):
        sent, got = counting.sent, counting.got
        ascend(coarse, fine, *args, **kwargs)
        if coarse is solver.levels[-1]:
            back.append((counting.sent - sent, counting.got - got))

    solver._coarsest_solve, solver._restrict_sweep, solver._ascend = (
        counted, restricting, ascending)
    run, _ = solver.solve()
    return run, solver.levels[-1].owned, calls, down, back


def _the_rows_go_straight_to_rank_0(results, start, rows):
    """Each coarsest solve after the first (nested iterations, without a
    right-hand side) follows a restriction in which rank 1 sends rank 0
    its right-hand-side rows from coarsest point ``start`` on, ``rows`` of
    them, in one message and without R u beside them; rank 0 takes that
    one message; no coarsest solve sends or takes anything."""
    (run, _, calls, down, _), (_, _, calls_1, down_1, _) = results
    assert run.converged and len(calls) == len(calls_1) == len(down) + 1
    assert calls[0] == calls_1[0] == (False, 0, 0)
    assert set(calls[1:]) == set(calls_1[1:]) == {(True, 0, 0)}
    assert {got for _, got in down} == {1}
    for payloads, _ in down_1:
        [(first, block)] = payloads
        assert first == start and block.shape == (rows, 7)


def test_a_rank_without_coarsest_points_sits_out_the_coarsest_solve():
    # mach-fsc-p2's shape: the coarsest level has 5 points in one
    # C-interval, so rank 1 owns none of them, but it closes level 2's
    # intervals 3 and 4, whose right-hand-side rows it sends rank 0
    results = run_spmd(2, _coarsest_counting_worker, (512, [8, 4, 4]))
    for run, owned, *_ in results:
        assert run.converged and owned == [(1, 5), (0, 0)]
    _the_rows_go_straight_to_rank_0(results, 3, 2)


def test_a_nested_coarsest_solve_sends_nothing_to_rank_0():
    # 64 steps, factor 4: the coarsest level's 4 intervals split 2 and 2;
    # without a right-hand side the solve moves nothing, the restriction
    # sends rank 1's rows to rank 0, and only the rows go from rank 0 to
    # the fine owners in the ascent
    results = run_spmd(2, _coarsest_counting_worker, (64, [4]))
    (run, owned, calls, _, back), (_, _, _, _, back_1) = results
    assert run.converged and owned == [(1, 9), (9, 17)]
    _the_rows_go_straight_to_rank_0(results, 9, 8)
    assert len(back) == len(calls) and set(back) == {(1, 0)}
    assert len(back_1) == len(calls) and set(back_1) == {(0, 1)}

def _overwriting_worker(transport, _):
    """Solve, copy the answer, then overwrite the fine C-store and every
    state the measuring walks kept with NaN."""
    solver = _machine_solver(transport)
    walks, measure = [], solver._measure

    def keeping(*args):
        out = measure(*args)
        walks.append(out[-1][0])  # the rows the sweep walked
        return out

    solver._measure = keeping
    run, traj = solver.solve()
    copied = None if traj is None else (traj.fields.copy(),
                                        traj.scalars.copy())
    solver.levels[0].c_store[:] = np.nan
    walks[-1][:] = np.nan  # an idle rank walks no rows
    return run, traj, copied


@pytest.mark.parametrize("p", [1, 2, 3])
def test_the_answer_shares_no_memory_with_the_solver(p):
    results = run_spmd(p, _overwriting_worker, None)
    run, traj, (fields, scalars) = results[0]
    assert run.converged and len(traj) == TAIL_STEPS + 1
    assert np.isfinite(fields).all() and np.isfinite(scalars).all()
    assert np.array_equal(traj.fields, fields)
    assert np.array_equal(traj.scalars, scalars)


@pytest.mark.parametrize("p", [3, 2])
def test_a_machine_answer_does_not_depend_on_the_workers(p):
    hier = _hierarchy(TAIL_STEPS)
    assert (TAIL_STEPS % FACTORS[0]
            and hier[-1].n_steps // hier.level_factors[-1] < p)
    [(run_1, traj_1)] = run_spmd(1, _machine_worker, None)
    run, traj = run_spmd(p, _machine_worker, None)[0]
    assert run.converged and run.iterations == run_1.iterations >= 2
    assert run.residual_norms == run_1.residual_norms
    assert traj.scalars.shape == (TAIL_STEPS + 1, 2)
    assert np.array_equal(traj.fields, traj_1.fields)
    assert np.array_equal(traj.scalars, traj_1.scalars)


def _one_level_worker(transport, _):
    grid = build_uniform_grid(0.0, 0.02, N_STEPS)
    hier = TimeHierarchy.build(grid, [])
    problem = CountingProblem(_problem(), _level_dts(hier))
    run, solution = MgritSolver(problem, hier, transport=transport).solve()
    return run, solution, problem.calls


@pytest.mark.parametrize("p", [1, 2, 3])
def test_one_level_hierarchy_is_the_sequential_solve(p):
    results = run_spmd(p, _one_level_worker, None)
    run, traj, _ = results[0]
    seq = sequential_solve(_problem(), _hierarchy()[0].points)
    assert run.converged and run.iterations == 1
    assert run.residual_norms == [0.0]
    assert np.array_equal(traj.fields, seq.fields)
    # the initial measure and the solve on rank 0, whose trajectory is the
    # answer: no closing sweep and no materializing walk
    assert sum(c[0] for _, _, c in results) == 2 * N_STEPS
