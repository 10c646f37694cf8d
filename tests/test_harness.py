import csv

import numpy as np
import pytest

from pintmg.cli import main
from pintmg.config import ExperimentConfig, save_config, with_overrides
from pintmg.errors import NewtonConvergenceError
from pintmg.excitation import PwmSource
from pintmg.harness import (build_hierarchy, build_problem, compare_variants,
                            execute, run_experiment, scale_experiment,
                            worker_ladder, write_iterations_csv,
                            write_summary_csv)
from pintmg.mgrit import SolverRun
from pintmg.problems import (DahlquistProblem, LinearDiffusionProblem,
                             NewtonOptions, NonlinearSaturationProblem,
                             SurrogateMachineProblem)
from pintmg.state import BlockState


def small_config(**overrides):
    base = dict(problem_kind="linear", problem_nx=15, time_n_steps=64,
                hierarchy_workers=1, hierarchy_max_levels=3,
                cycle_max_iters=20, run_transport="thread")
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_build_problem_dispatch():
    kinds = {"linear": LinearDiffusionProblem,
             "nonlinear": NonlinearSaturationProblem,
             "machine": SurrogateMachineProblem,
             "dahlquist": DahlquistProblem}
    for kind, cls in kinds.items():
        assert type(build_problem(small_config(problem_kind=kind))) is cls


def test_build_problem_excitation_toggle():
    assert build_problem(small_config()).excitation is not None
    off = small_config(excitation_enabled=False)
    assert build_problem(off).excitation is None


def test_build_hierarchy_respects_workers():
    h = build_hierarchy(small_config(hierarchy_workers=4, time_n_steps=256))
    assert h.grids[1].n_steps >= 4


def test_worker_ladder():
    assert worker_ladder(1) == [1]
    assert worker_ladder(4) == [1, 2, 4]
    assert worker_ladder(6) == [1, 2, 4, 6]
    assert worker_ladder(3) == [1, 2, 3]


def test_run_experiment_writes_contract_csvs(tmp_path):
    run = run_experiment(small_config(), tmp_path)
    assert run.converged
    iterations = read_rows(tmp_path / "iterations.csv")
    assert iterations[0] == ["iteration", "residual_norm", "qoi_change",
                             "wall_time_s"]
    assert len(iterations) == run.iterations + 1
    assert iterations[1][0] == "1"
    for row in iterations[1:]:
        float(row[1]), float(row[2])
        # wall clock carries exactly three decimals
        assert len(row[3].split(".")[1]) == 3
    summary = read_rows(tmp_path / "summary.csv")
    assert summary[0] == ["iterations", "setup_s", "solve_s", "total_s",
                          "converged", "storage_units"]
    assert summary[1][0] == str(run.iterations)
    assert summary[1][4] == "true"
    assert int(summary[1][5]) == run.storage.total


def test_rerun_is_deterministic_apart_from_wall_times(tmp_path):
    config = small_config(hierarchy_workers=2, problem_source="random",
                          run_seed=3)
    first = run_experiment(config, tmp_path / "a")
    second = run_experiment(config, tmp_path / "b")
    assert first.iterations == second.iterations
    rows_a = read_rows(tmp_path / "a" / "iterations.csv")
    rows_b = read_rows(tmp_path / "b" / "iterations.csv")
    assert [r[:3] for r in rows_a] == [r[:3] for r in rows_b]
    sa = read_rows(tmp_path / "a" / "summary.csv")[1]
    sb = read_rows(tmp_path / "b" / "summary.csv")[1]
    assert (sa[0], sa[4], sa[5]) == (sb[0], sb[4], sb[5])


def test_seed_changes_random_source_results(tmp_path):
    lo = run_experiment(small_config(problem_source="random", run_seed=1),
                        tmp_path / "s1")
    hi = run_experiment(small_config(problem_source="random", run_seed=2),
                        tmp_path / "s2")
    assert lo.residual_norms != hi.residual_norms


def test_compare_reference_row_and_failures(tmp_path):
    config = small_config(problem_spatial_grids=2, problem_nx=15)
    runs = compare_variants(config, tmp_path)
    rows = read_rows(tmp_path / "compare.csv")
    assert rows[0] == ["variant", "sc_strategy", "iterations", "total_s",
                       "speedup_vs_reference", "converged"]
    assert [r[1] for r in rows[1:]] == ["none", "direct", "delayed"]
    assert rows[1][4] == "1.000"
    assert all(r[0] == "V-gamma1" for r in rows[1:])
    assert len(runs) == 3


def test_compare_single_grid_only_runs_none(tmp_path):
    compare_variants(small_config(), tmp_path)
    rows = read_rows(tmp_path / "compare.csv")
    assert [r[1] for r in rows[1:]] == ["none"]


def test_compare_marks_stalled_variant_and_keeps_table(tmp_path):
    # two-level F-relaxation stalls under spatial coarsening while the
    # plain variant converges; the table must carry both outcomes
    config = small_config(problem_nx=31, problem_spatial_grids=2,
                          time_n_steps=256, hierarchy_max_levels=2,
                          cycle_kind="two-level", cycle_gamma=0,
                          cycle_max_iters=64)
    compare_variants(config, tmp_path, strategies=["none", "direct"])
    rows = read_rows(tmp_path / "compare.csv")
    by_strategy = {r[1]: r for r in rows[1:]}
    assert by_strategy["none"][5] == "true"
    assert by_strategy["direct"][5] == "false"
    assert int(by_strategy["direct"][2]) == 64


def test_scale_csv_shape(tmp_path):
    config = small_config(hierarchy_workers=2)
    t_seq, runs = scale_experiment(config, tmp_path, [1, 2])
    assert t_seq > 0.0
    rows = read_rows(tmp_path / "scaling.csv")
    assert rows[0] == ["p", "total_s", "speedup", "efficiency"]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    for row in rows[1:]:
        p, speedup, eff = int(row[0]), float(row[2]), float(row[3])
        # both columns round to three decimals independently
        assert eff == pytest.approx(speedup / p, abs=1.1e-3)


def test_execute_records_worker_failure(monkeypatch, tmp_path):
    def explode(transport, config):
        raise NewtonConvergenceError("stalled at step 3")

    monkeypatch.setattr("pintmg.harness._solver_worker", explode)
    run = execute(small_config())
    assert not run.converged
    assert "stalled" in run.failure
    write_iterations_csv(tmp_path / "iterations.csv", run)
    write_summary_csv(tmp_path / "summary.csv", run)
    assert read_rows(tmp_path / "summary.csv")[1][4] == "false"
    assert len(read_rows(tmp_path / "iterations.csv")) == 1


def test_newton_breakdown_reads_the_same_on_both_transports(monkeypatch):
    def stalling_problem(config):
        return NonlinearSaturationProblem(
            15, excitation=PwmSource(), mass_coeff=1.0,
            newton=NewtonOptions(max_iters=1, tol=1e-16))

    # nested iterations start with the coarsest solve, which only rank 0
    # steps, so rank 0 is the one that breaks down
    monkeypatch.setattr("pintmg.harness.build_problem", stalling_problem)
    failures = {transport: execute(small_config(
        problem_kind="nonlinear", hierarchy_workers=2,
        cycle_nested_iterations=True, run_transport=transport)).failure
        for transport in ("thread", "process")}
    assert failures["thread"] == failures["process"]
    assert failures["thread"].startswith(
        "worker 0 failed: NewtonConvergenceError: Newton stalled at t=")


class _KickedProblem(NonlinearSaturationProblem):
    """Starts from a rough random field, whose first Jacobian breaks
    the Cholesky factorization."""

    def initial_state(self, spatial_level=0):
        n = self.spatial.size(spatial_level)
        return BlockState(0.1 * np.random.default_rng(0).normal(size=n))


def test_execute_reports_a_cholesky_breakdown_as_a_failed_run(monkeypatch):
    monkeypatch.setattr(
        "pintmg.harness.build_problem",
        lambda config: _KickedProblem(31, excitation=PwmSource(),
                                      source="random", seed=7))
    run = execute(small_config(problem_kind="nonlinear", problem_nx=31))
    assert not run.converged and run.iterations == 0
    assert run.failure.startswith("Newton Jacobian at t=0.0003125 on grid 0 "
                                  "is not positive definite")


def test_failed_run_keeps_partial_history(tmp_path):
    run = SolverRun(converged=False, iterations=2,
                    residual_norms=[1.0, 0.5], qoi_changes=[1.0, 0.4],
                    iteration_seconds=[0.1, 0.2], failure="Newton stalled")
    write_iterations_csv(tmp_path / "iterations.csv", run)
    write_summary_csv(tmp_path / "summary.csv", run)
    assert len(read_rows(tmp_path / "iterations.csv")) == 3
    assert read_rows(tmp_path / "summary.csv")[1][4] == "false"


def cli_config(tmp_path, **overrides):
    path = tmp_path / "exp.cfg"
    save_config(small_config(**overrides), path)
    return str(path)


def test_cli_run(tmp_path, capsys):
    rc = main(["run", "--config", cli_config(tmp_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "iterations.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    assert "converged" in capsys.readouterr().out


def test_cli_run_worker_override(tmp_path):
    rc = main(["run", "--config", cli_config(tmp_path), "--workers", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 0


def test_cli_compare(tmp_path, capsys):
    rc = main(["compare", "--config",
               cli_config(tmp_path, problem_spatial_grids=2),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_rows(tmp_path / "out" / "compare.csv")
    assert len(rows) == 4
    assert "delayed" in capsys.readouterr().out


def test_cli_scale_ladder_from_workers_flag(tmp_path, capsys):
    rc = main(["scale", "--config", cli_config(tmp_path), "--workers", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = read_rows(tmp_path / "out" / "scaling.csv")
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert "sequential reference" in capsys.readouterr().out


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.kind = fluid\n")
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pintmg: {bad}: problem.kind must be one of ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text,message", [
    ("excitation.modulation = 1.5\n",
     "modulation must lie in [0, 1], got 1.5"),
    (None, "No such file or directory"),
])
def test_cli_reports_an_invalid_or_missing_config_in_one_line(
        tmp_path, capsys, text, message):
    path = tmp_path / "exp.cfg"
    if text is not None:
        path.write_text(text)
    assert main(["scale", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"pintmg: {path}: ")
    assert message in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
