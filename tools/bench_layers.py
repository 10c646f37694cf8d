"""Time the solver's two lowest layers, and its workers' start, on
several source trees, in one process, alternating the trees round by
round.

    python tools/bench_layers.py new=src old=../parent/src [--rounds 61]

Run from the root of a checkout: the workloads are the benchmark's three
(perfbench/workloads.py), built from each tree's own package, which is
imported under its own module name.  For each workload and tree it
measures, as thread CPU time:

- L1: microseconds per point of one fine sweep, ``_walk`` of the fine
  level, of a p = 1 solver (no transport) after one solve has filled its
  stores and memos;
- L1 coarsest: microseconds per point of that solver's coarsest solve,
  ``_coarsest_solve(levels[-1], rhs)`` stepping through ``rhs``, the
  rows one untimed ``_restrict_sweep(levels[-2], levels[-1])`` after the
  solve sent to rank 0, as a cycle runs it.  On a tree whose restriction
  still filled a coarsest C-store and right-hand side, and whose coarsest
  solve took no rows (``rhs`` is None there), it steps through the level's
  own right-hand side instead; the row compares only trees on the same
  side of that change;
- L1 restrict and L1 ascend: microseconds per coarse point of one
  ``_restrict_sweep(levels[0], levels[1])`` and of one
  ``_ascend(levels[1], levels[0])`` of that solver, the fine C-store put
  back after each ascent so that corrections do not pile up;
- L1 cold: microseconds per point of that fine sweep with the problem's
  memos (forcings and factors) emptied first, as a fresh problem's are:
  the cost every solve pays on first reaching a time point or layer,
  which the warm rows above do not show;
- L0: microseconds per ``step`` call of ``sequential_solve`` over the
  first STEPS steps of the workload's time grid, on a problem whose
  forcing memo one untimed solve has filled;
- L0 damped: microseconds per row of one ``step_many`` call on a stack
  of damped rows, the profile of ``_damped_case`` in
  tests/test_problems.py: a step of 1e-2 from amplitude * sin on 15
  points to a zero guess, whose full Newton step overshoots, amplitudes
  DAMPED, on the workload's problem kind (the linear kind steps the same
  rows without Newton).  The benchmark's own steps take full Newton
  steps, so this row is where the line search's cost shows;
- layer it/call: per time level, the Newton iterates of a kernel call's
  slowest row (``SolverRun.layer_iterates``) over the kernel calls
  (``SolverRun.kernel_calls``) of that solver's first solve: a count,
  the same in every round, so printed once.

Before the workloads, one L3 row, ``run_spmd  L3 start ms r0/r1``,
gives the wall milliseconds from the call of ``run_spmd`` at p = 2,
which forks rank 1, to each rank's entry into its ``fn``, rank 0 then
rank 1: the median over rounds of each.  A second L3 row,
``run_spmd  L3 msg us row/MiB``, gives the round trip in microseconds,
between the two ranks of a p = 2 run, of a one-row message (ROW
doubles, a fine row of ``lin-sc-p2``) and of a 1 MiB one: per round,
rank 0's median of PINGS round trips after one untimed, and printed,
the median over rounds of each.  Both rows call ``run_spmd`` with its
default backend, which on a tree whose ``run_spmd`` can still start
threads runs rank 1 as a thread.

The problems take the random source profile drawn with SEED.  A row
that reads an attribute a tree lacks (``_Level.t`` before the levels kept
their times as a list, say) prints "n/a" for that tree.

Each round times every tree once, the first tree first in even rounds and
last in odd ones.  Printed per tree: the median over rounds and, for each
tree after the first, the median over rounds of its time over the first
tree's in the same round.
"""

from __future__ import annotations

import argparse
import collections.abc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import PWM, T_FINAL, TOLERANCE, WORKLOADS  # noqa: E402

STEPS = 512  # sequential steps timed per L0 measurement
SEED = 7  # of the random source profile
DAMPED = (1.0, 10.0) * 18  # amplitudes of the damped stack's rows
ROW, MIB = 127, 1 << 17  # doubles in a one-row and in a 1 MiB message
PINGS = 20  # timed round trips per message size and round


def load_tree(src, name):
    """The package under ``src``/pintmg, imported as module ``name``."""
    pkg = Path(src).resolve() / "pintmg"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def problem_class(pm, w):
    return {"linear": pm.LinearDiffusionProblem,
            "nonlinear": pm.NonlinearSaturationProblem,
            "machine": pm.SurrogateMachineProblem}[w.kind]


def problem(pm, w):
    source = pm.PwmSource(period=PWM["period"], pulses=PWM["pulses"],
                          modulation=PWM["modulation"], phase=PWM["phase"],
                          ramp_enabled=PWM["ramp"])
    return problem_class(pm, w)(w.nx, n_spatial_grids=w.spatial_grids,
                                excitation=source, source="random", seed=SEED)


class Layers:
    """One tree's solver after a solve, and a problem for sequential
    stepping, for one workload."""

    def __init__(self, pm, w):
        grid = pm.build_uniform_grid(0.0, T_FINAL, w.n_steps)
        self.solver = pm.MgritSolver(
            problem(pm, w), pm.TimeHierarchy.build(grid, w.factors),
            pm.CycleSpec(kind=w.cycle, gamma=1, max_iters=50,
                         spatial_strategy=w.strategy,
                         nested_iterations=w.nested),
            pm.StoppingCriterion(tolerance=TOLERANCE))
        run, _ = self.solver.solve()
        self.per_call = (
            [a / c for a, c in zip(run.layer_iterates, run.kernel_calls)]
            if getattr(run, "layer_iterates", None) else None)
        self.points = w.n_steps
        self.stepper = problem(pm, w)
        self.times = grid.points[:STEPS + 1]
        self.sequential = pm.sequential_solve
        self.sequential(self.stepper, self.times)
        self.damped = problem_class(pm, w)(15, source="sine")
        k = len(DAMPED)
        fields = np.outer(DAMPED, np.sin(np.linspace(0.1, 3.0, 15)))
        scalars = np.tile([0.3, -0.2][:self.damped.n_scalars], (k, 1))
        self.damped_rows = (fields, scalars, [0.0] * k, [1e-2] * k, 0, False,
                            np.zeros_like(fields))

    def sweep_us(self):
        t0 = time.thread_time()
        walk = self.solver._walk(self.solver.levels[0], sweep=True)
        if isinstance(walk, collections.abc.Generator):  # older trees
            collections.deque(walk, maxlen=0)
        return (time.thread_time() - t0) * 1e6 / self.points

    def coarsest_us(self):
        lvl = self.solver.levels[-1]
        points = len(lvl.t) - 1
        rhs = self.solver._restrict_sweep(self.solver.levels[-2], lvl)
        t0 = time.thread_time()
        self.solver._coarsest_solve(lvl, rhs)
        return (time.thread_time() - t0) * 1e6 / points

    def restrict_us(self):
        fine, coarse = self.solver.levels[:2]
        points = len(coarse.t) - 1
        t0 = time.thread_time()
        self.solver._restrict_sweep(fine, coarse)
        return (time.thread_time() - t0) * 1e6 / points

    def ascend_us(self):
        fine, coarse = self.solver.levels[:2]
        points, c_store = len(coarse.t) - 1, fine.c_store.copy()
        t0 = time.thread_time()
        self.solver._ascend(coarse, fine)
        elapsed = time.thread_time() - t0
        fine.c_store[...] = c_store
        return elapsed * 1e6 / points

    def cold_us(self):
        problem = self.solver.problem
        problem._forcing.clear()
        getattr(problem, "_factor_cache", {}).clear()
        return self.sweep_us()

    def step_us(self):
        t0 = time.thread_time()
        self.sequential(self.stepper, self.times)
        return (time.thread_time() - t0) * 1e6 / (len(self.times) - 1)

    def damped_us(self):
        t0 = time.thread_time()
        self.damped.step_many(*self.damped_rows)
        return (time.thread_time() - t0) * 1e6 / len(DAMPED)


def _order(r, n):
    """The trees in round r: the first tree first in even rounds."""
    return range(n) if r % 2 == 0 else range(n - 1, -1, -1)


def _entered(transport, t_call):
    """run_spmd's fn: milliseconds since t_call (a perf_counter, which
    is system-wide, so a forked rank reads it too)."""
    return (time.perf_counter() - t_call) * 1e3


def start_ms(pm):
    """Each rank's milliseconds from run_spmd's call to fn at p = 2."""
    return pm.run_spmd(2, _entered, time.perf_counter())


def _ping(transport, sizes):
    """run_spmd's fn: on rank 0, the median microseconds of a round trip
    of an array of each size, which rank 1 sends straight back."""
    medians = []
    for size in sizes:
        msg, times = np.zeros(size), []
        for _ in range(PINGS + 1):
            if transport.rank:
                transport.send(0, transport.recv(0))
                continue
            t0 = time.perf_counter()
            transport.send(1, msg)
            transport.recv(1)
            times.append((time.perf_counter() - t0) * 1e6)
        medians.append(statistics.median(times[1:]) if times else None)
    return medians


def message_us(pm):
    """Rank 0's round trip microseconds, one row and 1 MiB, at p = 2."""
    return pm.run_spmd(2, _ping, (ROW, MIB))[0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trees", nargs="+", metavar="[LABEL=]SRC",
                    help="src directories to compare, the first the base")
    ap.add_argument("--rounds", type=int, default=61)
    args = ap.parse_args(argv)
    labels, srcs = zip(*(t.split("=", 1) if "=" in t else (t, t)
                         for t in args.trees))
    packages = [load_tree(src, f"pintmg_tree{i}")
                for i, src in enumerate(srcs)]
    print(f"# {args.rounds} rounds, thread CPU time, seed {SEED}; "
          "ratios are per-round times over the first tree's")
    starts, messages = [[] for _ in packages], [[] for _ in packages]
    for r in range(args.rounds):
        for i in _order(r, len(packages)):
            starts[i].append(start_ms(packages[i]))
            messages[i].append(message_us(packages[i]))
    for row, per_tree, fmt in (("L3 start ms r0/r1", starts, "{:.2f}"),
                               ("L3 msg us row/MiB", messages, "{:.1f}")):
        cells = [f"{label} " + "/".join(fmt.format(statistics.median(v))
                                        for v in zip(*values))
                 for label, values in zip(labels, per_tree)]
        print(f"{'run_spmd':12s} {row:18s} " + "  ".join(cells))
    for name, w in WORKLOADS.items():
        layers = [Layers(pm, w) for pm in packages]
        for label, measure in (("L1 sweep us/point", Layers.sweep_us),
                               ("L1 coarsest us/pt", Layers.coarsest_us),
                               ("L1 restrict us/cpt", Layers.restrict_us),
                               ("L1 ascend us/cpt", Layers.ascend_us),
                               ("L1 cold us/point", Layers.cold_us),
                               ("L0 step us/call", Layers.step_us),
                               ("L0 damped us/row", Layers.damped_us)):
            times = [[] for _ in layers]  # None: the tree lacks the row
            for r in range(args.rounds):
                for i in _order(r, len(layers)):
                    if times[i] is not None:
                        try:
                            times[i].append(measure(layers[i]))
                        except AttributeError:
                            times[i] = None
            cells = []
            for i, ts in enumerate(times):
                if ts is None:
                    cells.append(f"{labels[i]} n/a")
                    continue
                cell = f"{labels[i]} {statistics.median(ts):.2f}"
                if i and times[0] is not None:
                    cell += " ({:.3f}x)".format(statistics.median(
                        a / b for a, b in zip(ts, times[0])))
                cells.append(cell)
            print(f"{name:12s} {label:18s} " + "  ".join(cells))
        cells = [f"{label} " + ("n/a" if l.per_call is None else
                                "/".join(f"{v:.2f}" for v in l.per_call))
                 for label, l in zip(labels, layers)]
        print(f"{name:12s} {'layer it/call':18s} " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
