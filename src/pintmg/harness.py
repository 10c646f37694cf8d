"""Experiment drivers: single runs, variant comparison, strong scaling.

Each driver builds the problem and hierarchy from an ExperimentConfig,
executes the solve (SPMD across the configured transport when more than
one worker is planned), and writes fixed-schema CSV files:

    iterations.csv   iteration,residual_norm,qoi_change,wall_time_s
    summary.csv      iterations,setup_s,solve_s,total_s,converged,storage_units
    compare.csv      variant,sc_strategy,iterations,total_s,speedup_vs_reference,converged
    scaling.csv      p,total_s,speedup,efficiency

Column order and headers never change; wall-clock fields carry three
decimals, everything else is written with full precision so a rerun with
the same config and seed reproduces the files byte for byte apart from
the timing columns.
"""

from __future__ import annotations

import csv
import time
from dataclasses import replace
from pathlib import Path

from .errors import NewtonConvergenceError, TransportError
from .excitation import PwmSource
from .mgrit import CycleSpec, MgritSolver, SolverRun, StoppingCriterion
from .problems import (BrauerCurve, DahlquistProblem, LinearDiffusionProblem,
                       NonlinearSaturationProblem, SurrogateMachineProblem,
                       sequential_solve)
from .runtime import run_spmd
from .spatial import STRATEGIES
from .time_hierarchy import TimeHierarchy, build_uniform_grid


def build_excitation(config):
    if not config.excitation_enabled:
        return None
    return PwmSource(period=config.excitation_period,
                     pulses=config.excitation_pulses,
                     modulation=config.excitation_modulation,
                     phase=config.excitation_phase,
                     ramp_enabled=config.excitation_ramp)


def build_problem(config):
    excitation = build_excitation(config)
    if config.problem_kind == "dahlquist":
        return DahlquistProblem(rate=config.problem_rate,
                                initial=config.problem_initial,
                                excitation=excitation)
    common = dict(n_spatial_grids=config.problem_spatial_grids,
                  mass_coeff=config.problem_conductivity,
                  excitation=excitation, source=config.problem_source,
                  seed=config.run_seed)
    if config.problem_kind == "linear":
        return LinearDiffusionProblem(config.problem_nx,
                                      diffusivity=config.problem_diffusivity,
                                      **common)
    curve = BrauerCurve(config.problem_brauer_k1, config.problem_brauer_k2,
                        config.problem_brauer_k3)
    if config.problem_kind == "nonlinear":
        return NonlinearSaturationProblem(config.problem_nx, curve=curve,
                                          **common)
    return SurrogateMachineProblem(config.problem_nx, curve=curve,
                                   inertia=config.problem_inertia,
                                   friction=config.problem_friction,
                                   **common)


def build_hierarchy(config):
    grid = build_uniform_grid(0.0, config.time_t_final, config.time_n_steps)
    return TimeHierarchy.plan(grid, config.hierarchy_workers,
                              config.hierarchy_max_levels,
                              config.hierarchy_coarse_factor)


def build_cycle(config):
    return CycleSpec(kind=config.cycle_kind, gamma=config.cycle_gamma,
                     max_iters=config.cycle_max_iters,
                     spatial_strategy=config.cycle_spatial_strategy,
                     nested_iterations=config.cycle_nested_iterations)


def build_stopping(config):
    return StoppingCriterion(kind=config.stopping_kind,
                             tolerance=config.stopping_tolerance)


def _solver_worker(transport, config):
    solver = MgritSolver(build_problem(config), build_hierarchy(config),
                         build_cycle(config), build_stopping(config),
                         transport)
    run, _ = solver.solve(gather_solution=False)
    return run


def execute(config):
    """Solve under the configured worker count; returns rank 0's run.

    A worker-side failure (Newton breakdown, lost peer) is reported as a
    non-converged run rather than an exception: the experiment record
    must exist either way.
    """
    p = config.hierarchy_workers
    try:
        return run_spmd(p, _solver_worker, config,
                        backend=config.run_transport)[0]
    except (NewtonConvergenceError, TransportError) as e:
        return SolverRun(converged=False, n_workers=p, failure=str(e))


def _fmt(value):
    return repr(float(value))


def _fmt_time(value):
    return f"{float(value):.3f}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_iterations_csv(path, run):
    rows = [(k + 1, _fmt(norm), _fmt(change), _fmt_time(wall))
            for k, (norm, change, wall)
            in enumerate(zip(run.residual_norms, run.qoi_changes,
                             run.iteration_seconds))]
    _write_csv(path, ("iteration", "residual_norm", "qoi_change",
                      "wall_time_s"), rows)


def write_summary_csv(path, run):
    storage = run.storage.total if run.storage is not None else 0
    row = (run.iterations, _fmt_time(run.setup_seconds),
           _fmt_time(run.solve_seconds), _fmt_time(run.total_seconds),
           "true" if run.converged else "false", storage)
    _write_csv(path, ("iterations", "setup_s", "solve_s", "total_s",
                      "converged", "storage_units"), [row])


def run_experiment(config, out_dir):
    """Single solve; writes iterations.csv and summary.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = execute(config)
    write_iterations_csv(out / "iterations.csv", run)
    write_summary_csv(out / "summary.csv", run)
    return run


def variant_label(config):
    return f"{config.cycle_kind}-gamma{config.cycle_gamma}"


def compare_variants(config, out_dir, strategies=None):
    """Rerun the config once per spatial strategy; writes compare.csv.

    The no-coarsening variant is the reference row: speedups are its
    total time over each variant's.  Failed variants keep their row with
    converged=false.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if strategies is None:
        strategies = [s for s in STRATEGIES
                      if s == "none" or config.problem_spatial_grids > 1]
    runs = []
    for strategy in strategies:
        variant = replace(config, cycle_spatial_strategy=strategy)
        runs.append((strategy, execute(variant)))
    reference_total = runs[0][1].total_seconds
    rows = []
    for strategy, run in runs:
        speedup = (reference_total / run.total_seconds
                   if run.total_seconds > 0.0 else 0.0)
        rows.append((variant_label(config), strategy, run.iterations,
                     _fmt_time(run.total_seconds), _fmt_time(speedup),
                     "true" if run.converged else "false"))
    _write_csv(out / "compare.csv",
               ("variant", "sc_strategy", "iterations", "total_s",
                "speedup_vs_reference", "converged"), rows)
    return runs


def worker_ladder(max_workers):
    """1, 2, 4, ... doubling up to and always including max_workers."""
    counts = []
    p = 1
    while p < max_workers:
        counts.append(p)
        p *= 2
    counts.append(max_workers)
    return counts


def scale_experiment(config, out_dir, worker_counts=None):
    """Strong scaling against the timed sequential forward solve.

    Each worker count gets its own coarsening plan (the planner takes the
    worker count as input), so this measures the end-to-end practice of
    re-tuning the hierarchy per machine size.  Writes scaling.csv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if worker_counts is None:
        worker_counts = worker_ladder(config.hierarchy_workers)

    problem = build_problem(config)
    grid = build_uniform_grid(0.0, config.time_t_final, config.time_n_steps)
    t0 = time.perf_counter()
    sequential_solve(problem, grid.points)
    t_sequential = time.perf_counter() - t0

    rows, runs = [], []
    for p in worker_counts:
        run = execute(replace(config, hierarchy_workers=p))
        speedup = (t_sequential / run.total_seconds
                   if run.total_seconds > 0.0 else 0.0)
        rows.append((p, _fmt_time(run.total_seconds), _fmt_time(speedup),
                     _fmt_time(speedup / p)))
        runs.append(run)
    _write_csv(out / "scaling.csv", ("p", "total_s", "speedup", "efficiency"),
               rows)
    return t_sequential, list(zip(worker_counts, runs))
