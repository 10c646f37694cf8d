"""End-to-end acceptance checks for the solver stack.

Each test covers one advertised guarantee: exactness against sequential
time stepping, Parareal equivalence, nonlinear oracle agreement, the
qualitative behavior of spatial coarsening, the fixed-point property of
every cycle variant, exact storage accounting, worker-count independence,
excitation correctness, and the scaling harness.  Every test prints one
numbered PASS line with its runtime; budget limits are asserted where a
guarantee includes one.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from pintmg import excitation as exc
from pintmg.cli import main as cli_main
from pintmg.config import ExperimentConfig, save_config
from pintmg.excitation import PwmSource
from pintmg.mgrit import (CycleSpec, MgritSolver, StoppingCriterion,
                          mgrit_solve)
from pintmg.problems import (DahlquistProblem, LinearDiffusionProblem,
                             NonlinearSaturationProblem, sequential_solve)
from pintmg.runtime import NullTransport, run_spmd
from pintmg.time_hierarchy import TimeHierarchy, build_uniform_grid

from oracles import parareal_iterates

T_PERIOD = 0.02


def _max_diff(a, b):
    return float(np.max(np.abs(a.fields - b.fields)))


def _report(number, label, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, (f"[{number}] {label}: took {elapsed:.2f}s, "
                                  f"budget {budget}s")
    print(f"[{number}] {label}: PASS ({elapsed:.2f}s)")


def test_1_two_level_exactness_vs_sequential_stepping():
    t0 = time.perf_counter()
    problem = LinearDiffusionProblem(31, diffusivity=1.0,
                                     excitation=PwmSource(), source="sine")
    grid = build_uniform_grid(0.0, T_PERIOD, 64)
    oracle = sequential_solve(problem, grid.points)
    hier = TimeHierarchy.build(grid, [4])
    for gamma, cap in ((0, 16), (1, 8)):
        run, sol = mgrit_solve(problem, hier,
                               CycleSpec(kind="two-level", gamma=gamma,
                                         max_iters=cap),
                               StoppingCriterion(tolerance=1e-12))
        err = _max_diff(sol, oracle)
        assert run.iterations <= cap
        assert err <= 1e-10, f"gamma={gamma}: max-norm error {err:.2e}"
    _report(1, "two-level exactness vs sequential stepping", t0, budget=10.0)


def test_2_f_relaxation_iterates_match_parareal():
    t0 = time.perf_counter()
    problem = DahlquistProblem(rate=-1.0, initial=1.0)
    grid = build_uniform_grid(0.0, 4.0, 64)
    m, n_sweeps = 8, 5
    hier = TimeHierarchy.build(grid, [m])

    # predictor-corrector sweeps over the C-points, anchor-seeded like
    # the solver's initial guess
    iterates = parareal_iterates(problem, grid, m, n_sweeps)

    for k in range(1, n_sweeps + 1):
        run, sol = mgrit_solve(problem, hier,
                               CycleSpec(kind="two-level", gamma=0,
                                         max_iters=k),
                               StoppingCriterion(tolerance=1e-300))
        assert run.iterations == k
        worst = np.max(np.abs(sol.fields[::m, 0] - iterates[k - 1]))
        assert worst <= 1e-12, f"sweep {k}: deviation {worst:.2e}"
    _report(2, "two-level F-relaxation matches Parareal per sweep", t0,
            budget=1.0)


def test_3_nonlinear_five_level_matches_damped_newton_stepping():
    t0 = time.perf_counter()
    problem = NonlinearSaturationProblem(15, excitation=PwmSource(),
                                         source="sine")
    grid = build_uniform_grid(0.0, T_PERIOD, 256)
    oracle = sequential_solve(problem, grid.points)
    run, sol = mgrit_solve(problem, TimeHierarchy.build(grid, [4, 4, 4, 2]),
                           CycleSpec(kind="V", gamma=1, max_iters=50),
                           StoppingCriterion(tolerance=1e-8))
    assert run.converged
    err = _max_diff(sol, oracle)
    assert err <= 1e-6, f"max-norm error vs sequential Newton {err:.2e}"
    _report(3, "nonlinear five-level matches damped-Newton stepping", t0,
            budget=60.0)


def _three_grid_linear_problem():
    # diffusive enough that modes invisible to the coarse spatial grids
    # decay within one coarse time interval; spatial coarsening then
    # costs no extra iterations (the effect under test in part one)
    return LinearDiffusionProblem(31, diffusivity=10.0, n_spatial_grids=3,
                                  excitation=PwmSource(), source="sine")


def test_4_spatial_coarsening_parity_and_f_relaxation_failure():
    t0 = time.perf_counter()
    problem = _three_grid_linear_problem()
    grid = build_uniform_grid(0.0, T_PERIOD, 256)
    five = TimeHierarchy.build(grid, [4, 4, 4, 2])
    counts = {}
    for strategy in ("none", "direct"):
        run, _ = mgrit_solve(problem, five,
                             CycleSpec(kind="V", gamma=1, max_iters=80,
                                       spatial_strategy=strategy),
                             StoppingCriterion(tolerance=1e-8))
        assert run.converged
        counts[strategy] = run.iterations
    assert abs(counts["direct"] - counts["none"]) <= 1, counts

    two = TimeHierarchy.build(grid, [4])
    cap = 256 // 4
    f_only, _ = mgrit_solve(problem, two,
                            CycleSpec(kind="two-level", gamma=0,
                                      max_iters=cap,
                                      spatial_strategy="direct"),
                            StoppingCriterion(tolerance=1e-8))
    fcf, _ = mgrit_solve(problem, two,
                         CycleSpec(kind="two-level", gamma=1, max_iters=cap,
                                   spatial_strategy="direct"),
                         StoppingCriterion(tolerance=1e-8))
    assert not f_only.converged, (
        f"F-relaxation with spatial coarsening reached tolerance in "
        f"{f_only.iterations} sweeps; expected a stall")
    assert fcf.converged
    _report(4, "spatial coarsening: FCF parity, F-only stall", t0,
            budget=120.0)


def test_5_one_cycle_fixes_the_exact_solution_all_variants():
    t0 = time.perf_counter()
    problem = _three_grid_linear_problem()
    grid = build_uniform_grid(0.0, T_PERIOD, 256)
    hier = TimeHierarchy.build(grid, [4, 4, 4, 2])
    oracle = sequential_solve(problem, grid.points)
    for kind in ("V", "F"):
        for strategy in ("none", "direct", "delayed"):
            for gamma in (0, 1):
                run, sol = mgrit_solve(
                    problem, hier,
                    CycleSpec(kind=kind, gamma=gamma, max_iters=1,
                              spatial_strategy=strategy),
                    StoppingCriterion(tolerance=1e-300),
                    initial_guess=oracle)
                assert run.iterations == 1
                change = _max_diff(sol, oracle)
                assert change < 1e-9, (f"{kind}/{strategy}/gamma={gamma} "
                                       f"moved the solution by {change:.2e}")
    _report(5, "one cycle fixes the exact solution (12 variants)", t0,
            budget=60.0)


STORAGE_CONFIGS = [(64, [4], 1), (64, [4], 2), (256, [4, 4], 1),
                   (256, [4, 4], 4), (256, [4, 2, 2, 2], 2),
                   (256, [4, 2, 2, 2], 4)]


def _storage_worker(transport, payload):
    n_steps, factors = payload
    problem = LinearDiffusionProblem(15, excitation=PwmSource(),
                                     source="sine")
    hier = TimeHierarchy.build(build_uniform_grid(0.0, T_PERIOD, n_steps),
                               factors)
    solver = MgritSolver(problem, hier, CycleSpec(kind="V", gamma=1),
                         StoppingCriterion(), transport)
    return solver.storage_report()


def test_6_stored_state_count_equals_closed_form():
    t0 = time.perf_counter()
    levels_seen, workers_seen = set(), set()
    for n_steps, factors, p in STORAGE_CONFIGS:
        levels_seen.add(len(factors) + 1)
        workers_seen.add(p)
        if p == 1:
            reports = [_storage_worker(NullTransport(), (n_steps, factors))]
        else:
            reports = run_spmd(p, _storage_worker, (n_steps, factors))
        for rank, report in enumerate(reports):
            assert report.total == report.estimate, (
                f"N={n_steps} factors={factors} p={p} rank={rank}: "
                f"allocated {report.total}, closed form {report.estimate}")
    assert levels_seen == {2, 3, 5} and workers_seen == {1, 2, 4}
    _report(6, "stored-state count equals closed form (6 configs)", t0)


def _independence_worker(transport, case):
    if case == "linear":
        problem = LinearDiffusionProblem(31, diffusivity=1.0,
                                         excitation=PwmSource(),
                                         source="sine")
        hier = TimeHierarchy.build(build_uniform_grid(0.0, T_PERIOD, 64), [4])
        cycle = CycleSpec(kind="two-level", gamma=1, max_iters=16)
        stop = StoppingCriterion(tolerance=1e-12)
    else:
        problem = NonlinearSaturationProblem(15, excitation=PwmSource(),
                                             source="sine")
        hier = TimeHierarchy.build(build_uniform_grid(0.0, T_PERIOD, 256),
                                   [4, 4, 4, 2])
        cycle = CycleSpec(kind="V", gamma=1, max_iters=50)
        stop = StoppingCriterion(tolerance=1e-8)
    solver = MgritSolver(problem, hier, cycle, stop, transport)
    return solver.solve()


def test_7_solution_independent_of_worker_count():
    t0 = time.perf_counter()
    for case in ("linear", "nonlinear"):
        outcomes = {}
        for p in (1, 2, 4):
            if p == 1:
                results = [_independence_worker(NullTransport(), case)]
            else:
                results = run_spmd(p, _independence_worker, case)
            run, sol = results[0]
            outcomes[p] = (run.iterations, sol)
        ref_iters, ref_sol = outcomes[1]
        scale = float(np.max(np.abs(ref_sol.fields)))
        for p in (2, 4):
            iters, sol = outcomes[p]
            assert iters == ref_iters, f"{case} p={p}: {iters} != {ref_iters}"
            rel = _max_diff(sol, ref_sol) / scale
            assert rel <= 1e-10, f"{case} p={p}: relative deviation {rel:.2e}"
    _report(7, "solutions independent of worker count", t0)


def test_8_pwm_unit_values_and_period_average_bound():
    t0 = time.perf_counter()
    T = T_PERIOD
    assert exc.reference(1, 0.0, T) == pytest.approx(0.0, abs=1e-15)
    assert exc.reference(1, T / 4.0, T) == pytest.approx(1.0, abs=1e-15)
    assert exc.reference(2, 0.0, T) == pytest.approx(-math.sqrt(3.0) / 2.0,
                                                     abs=1e-15)
    assert exc.carrier(40, 0.0, T) == -1.0
    assert exc.carrier(400, T / 800.0, T) == pytest.approx(0.0, abs=1e-13)
    ts = np.linspace(0.0, T, 500)
    assert np.allclose(exc.carrier(40, ts + T / 40.0, T),
                       exc.carrier(40, ts, T), atol=1e-9)
    for pulses in (1, 40, 400):
        assert exc.pwm(1, 0.0, T, pulses, 0.8) == 1.0
    assert set(np.unique(exc.pwm(1, ts, T, 400, 0.8))) <= {-1.0, 1.0}
    assert exc.ramp(0.0, T) == pytest.approx(0.0, abs=1e-15)
    assert exc.ramp(T, T) == pytest.approx(0.5, abs=1e-15)
    assert exc.ramp(2.0 * T, T) == pytest.approx(1.0, abs=1e-15)

    # the pulse train flips +1 -> -1 once per carrier period (a < 1), so
    # bisecting the flip gives the exact period average 2*duty - 1
    a = 0.8
    for pulses in (40, 400):
        k = np.arange(pulses)
        lo = np.full(pulses, 1e-12)
        hi = np.full(pulses, 1.0 - 1e-12)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            up = exc.pwm(1, (k + mid) * (T / pulses), T, pulses, a) > 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        averages = 2.0 * 0.5 * (lo + hi) - 1.0
        t_mid = (k + 0.5) * (T / pulses)
        target = a * np.sin(2.0 * math.pi * t_mid / T)
        worst = float(np.max(np.abs(averages - target)))
        bound = (2.0 * math.pi * a + 2.0) / pulses
        assert worst <= bound, f"pulses={pulses}: {worst:.3e} > {bound:.3e}"
    _report(8, "PWM unit values and period-average bound", t0, budget=1.0)


def _scaling_rows(tmp_path):
    config = ExperimentConfig(problem_kind="linear", problem_nx=31,
                              time_n_steps=4096, hierarchy_workers=4,
                              cycle_max_iters=30)
    cfg_path = tmp_path / "scaling.cfg"
    save_config(config, cfg_path)
    out = tmp_path / "out"
    rc = cli_main(["scale", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    with open(out / "scaling.csv", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_9_scale_subcommand_emits_well_formed_csv(tmp_path, capsys):
    t0 = time.perf_counter()
    rows = _scaling_rows(tmp_path)
    assert rows[0] == ["p", "total_s", "speedup", "efficiency"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "4"]
    for row in rows[1:]:
        p = int(row[0])
        total, speedup, eff = (float(v) for v in row[1:])
        assert total > 0.0 and speedup > 0.0
        assert eff == pytest.approx(speedup / p, abs=1.1e-3)
    capsys.readouterr()
    _report(9, "scale subcommand emits well-formed speedup CSV", t0)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 4,
                    reason="speedup ordering needs >= 4 CPU cores; this "
                           f"host exposes {len(os.sched_getaffinity(0))}")
def test_9b_four_worker_speedup_exceeds_single_worker(tmp_path, capsys):
    t0 = time.perf_counter()
    rows = _scaling_rows(tmp_path)
    speedups = {int(r[0]): float(r[2]) for r in rows[1:]}
    assert speedups[4] > speedups[1], speedups
    capsys.readouterr()
    _report(9, "four-worker speedup exceeds single-worker", t0)
