"""The benchmark's workloads and the code that solves one of them.

A workload fixes everything but the seed; the seed draws the spatial
source profile (``source="random"``) that every problem instance of the
run is given.  A solve goes through the package's public entry points:
``run_spmd`` on the process transport starts the workers, each rank
builds its own PwmSource, problem and ``TimeHierarchy.build`` hierarchy,
and ``MgritSolver.solve`` gathers the fine trajectory on rank 0.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "pintmg" / "__init__.py").is_file():
    raise ImportError(f"no pintmg sources at {SRC}: run the benchmark from "
                      "a checkout of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import pintmg  # noqa: E402
from pintmg import (CycleSpec, LinearDiffusionProblem, MgritSolver,  # noqa: E402
                    NonlinearSaturationProblem, PwmSource, StoppingCriterion,
                    SurrogateMachineProblem, TimeHierarchy,
                    build_uniform_grid, run_spmd, sequential_solve)

if Path(pintmg.__file__).resolve().parent != SRC / "pintmg":
    raise ImportError(f"pintmg was imported from {pintmg.__file__}, "
                      f"not from {SRC}")

from tracing import (Counts, ExcitationProxy, ProblemProxy,  # noqa: E402
                     Tracer, TransportProxy)

PWM = dict(period=0.02, pulses=400, modulation=0.8, phase=1, ramp=True)
T_FINAL = 0.02
TOLERANCE = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # linear | nonlinear | machine
    nx: int
    spatial_grids: int
    n_steps: int
    factors: tuple
    cycle: str          # V | F
    strategy: str       # none | direct | delayed
    nested: bool
    workers: int

    @property
    def n_levels(self):
        return len(self.factors) + 1

    def times(self):
        return build_uniform_grid(0.0, T_FINAL, self.n_steps).points

    def excitation(self):
        return PwmSource(period=PWM["period"], pulses=PWM["pulses"],
                         modulation=PWM["modulation"], phase=PWM["phase"],
                         ramp_enabled=PWM["ramp"])

    def problem(self, seed, excitation=None):
        kw = dict(n_spatial_grids=self.spatial_grids,
                  excitation=(self.excitation() if excitation is None
                              else excitation),
                  source="random", seed=seed)
        cls = {"linear": LinearDiffusionProblem,
               "nonlinear": NonlinearSaturationProblem,
               "machine": SurrogateMachineProblem}[self.kind]
        return cls(self.nx, **kw)

    def hierarchy(self):
        return TimeHierarchy.build(
            build_uniform_grid(0.0, T_FINAL, self.n_steps), self.factors)

    def cycle_spec(self):
        return CycleSpec(kind=self.cycle, gamma=1, max_iters=50,
                         spatial_strategy=self.strategy,
                         nested_iterations=self.nested)

    def level_dts(self):
        dts, m = [], 1
        for f in (1,) + tuple(self.factors):
            m *= f
            dts.append(T_FINAL / self.n_steps * m)
        return dts


# Why each workload is here (BENCHMARK.json carries the same in one line):
# nl-v-p1 spends nearly all its time in Newton steps and bypasses the
# transport and the spatial transfers, so a change there should not move
# it; lin-sc-p2 has the cheapest step, so forcing, engine bookkeeping,
# spatial transfers and messages carry the largest share; mach-fsc-p2 is
# the paper's machine model, whose F-cycle shifts work to coarse levels
# and to the serial coarsest solve on rank 0.
WORKLOADS = {w.name: w for w in (
    Workload("nl-v-p1", "nonlinear", 31, 1, 512, (16, 4, 4), "V", "none",
             True, 1),
    Workload("lin-sc-p2", "linear", 127, 3, 2048, (8, 4, 4), "V", "direct",
             False, 2),
    Workload("mach-fsc-p2", "machine", 31, 3, 512, (8, 4, 4), "F",
             "delayed", True, 2),
)}


@dataclass(frozen=True)
class Job:
    workload: Workload
    seed: int
    mode: str           # bare | trace
    t_call: float


def solve_on_rank(transport, job):
    """Worker body for ``run_spmd``: build, solve, report.

    In ``trace`` mode the solver sees counting and tracing proxies of the
    transport, the PWM source and the problem; ``bare`` hands it the
    package objects themselves.
    """
    t_enter = time.perf_counter()
    w = job.workload
    counts = tracer = None
    excitation = w.excitation()
    if job.mode == "trace":
        counts = Counts(w.n_levels)
        tracer = Tracer()
        transport = TransportProxy(transport, counts, tracer)
        excitation = ExcitationProxy(excitation, counts, tracer)
        tracer.open("mgrit.build", start=t_enter)
    problem = w.problem(job.seed, excitation)
    if tracer is not None:
        problem = ProblemProxy(problem, counts, tracer, w.level_dts(),
                               newton=w.kind != "linear")
    hierarchy = w.hierarchy()
    t_ctor = time.perf_counter()
    solver = MgritSolver(problem, hierarchy, w.cycle_spec(),
                         StoppingCriterion(tolerance=TOLERANCE), transport)
    t_solve = time.perf_counter()
    if tracer is not None:
        tracer.close(t_solve)
        tracer.open("mgrit.solve", start=t_solve)
    run, solution = solver.solve()
    t_done = time.perf_counter()
    if tracer is not None:
        tracer.close(t_done)
    out = dict(rank=transport.rank, t_enter=t_enter, t_ctor=t_ctor,
               t_solve=t_solve, t_done=t_done, run=run,
               ctor_seconds=solver.setup_seconds,
               counts=counts.summary() if counts is not None else None,
               spans=tracer.spans if tracer is not None else None)
    if solution is not None:
        out["fields"] = np.array([s.field for s in solution.states])
        out["scalars"] = np.array([s.scalars for s in solution.states])
    return out


def solve(workload, seed, mode="bare"):
    """One timed MGRIT solve; returns the per-rank reports, rank 0 first.

    ``t_call`` is taken just before ``run_spmd`` so that worker start is
    part of the time to solution.
    """
    job = Job(workload, seed, mode, time.perf_counter())
    reports = run_spmd(workload.workers, solve_on_rank, job,
                       backend="process")
    for r in reports:
        r["t_call"] = job.t_call
    return reports


def solve_sequential(workload, seed):
    """Plain backward-Euler stepping of the same problem, as arrays."""
    problem = workload.problem(seed)
    times = workload.times()
    t0 = time.perf_counter()
    trajectory = sequential_solve(problem, times)
    seconds = time.perf_counter() - t0
    fields = np.array([s.field for s in trajectory.states])
    scalars = np.array([s.scalars for s in trajectory.states])
    return seconds, fields, scalars
