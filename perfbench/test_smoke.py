"""Smoke test of the benchmark: every workload's shape at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs the same timed and traced code paths as ``run.py``, checks that the
independent correctness checks pass and that every metric named in
BENCHMARK.json is reported.  No timing and no work count is asserted.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import measure
import pintmg
import reference as ref
from workloads import PWM, WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny(workload):
    return dataclasses.replace(workload, nx=15, n_steps=64, factors=(4, 2, 2))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_timed_run_is_correct_and_complete(name):
    result, _ = measure.timed_run(tiny(WORKLOADS[name]), seed=5, seconds=0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_correct_and_complete(name, tmp_path):
    result, _ = measure.traced_run(tiny(WORKLOADS[name]), seed=5, seconds=0,
                                   out_dir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["per_layer"]}
    assert len(list(tmp_path.glob("spans-*.csv"))) == 1


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_dense_reference_matches_the_sine_mode_recurrence():
    # sin(pi x) is an eigenvector of the discrete Laplacian, so backward
    # Euler moves only its amplitude: a_n = (f_n + a_{n-1} / dt) / (1 / dt
    # + lam) with lam = 4 / dx^2 sin^2(pi dx / 2).
    nx, n_steps = 15, 40
    times = np.linspace(0.0, 0.02, n_steps + 1)
    dx = 1.0 / (nx + 1)
    x = np.arange(1, nx + 1) * dx
    forcing = ref.forcing_series(times, PWM)
    dense = ref.dense_linear_trajectory(times, np.sin(math.pi * x), forcing)
    lam = 4.0 / dx ** 2 * math.sin(math.pi * dx / 2.0) ** 2
    a = 0.0
    for n in range(1, n_steps + 1):
        dt = times[n] - times[n - 1]
        a = (forcing[n] + a / dt) / (1.0 / dt + lam)
        np.testing.assert_allclose(dense[n], a * np.sin(math.pi * x),
                                   rtol=1e-12, atol=1e-15)


def test_checks_reject_a_perturbed_answer():
    w = tiny(WORKLOADS["mach-fsc-p2"])
    inputs = measure.Inputs(w, 5)
    fields = inputs.fields.copy()
    fields[7, 3] *= 1.0 + 1e-6
    with pytest.raises(ref.CheckFailed):
        ref.check_brauer_steps(inputs.times, fields, inputs.profile,
                               inputs.forcing, (0.05, 2.0, 1.0), 1e-11)
    scalars = inputs.scalars.copy()
    scalars[9, 1] += 1e-9
    with pytest.raises(ref.CheckFailed):
        ref.check_rotor(inputs.times, inputs.fields, scalars, 1.0, 0.1)
    reports = measure.solve(w, 5, "bare")
    inputs.check_trajectory(reports)
    assert inputs.audit_storage(reports) == []
    # within the error bound, but its residual is above the tolerance
    reports[0]["fields"][10, 4] += 3.0 * measure.TOLERANCE
    with pytest.raises(ref.CheckFailed, match="residual"):
        inputs.check_trajectory(reports)
    reports[0]["fields"][10] += 2.0 * inputs.bound
    with pytest.raises(ref.CheckFailed):
        inputs.check_trajectory(reports)
    reports[1]["run"].storage.total += 1
    assert len(inputs.audit_storage(reports)) == 1


def test_checks_reject_changed_model_constants():
    inputs = measure.Inputs(tiny(WORKLOADS["mach-fsc-p2"]), 5)
    inputs.check_model()
    inputs.problem.newton = pintmg.NewtonOptions(tol=1e-8)
    with pytest.raises(ref.CheckFailed, match="Newton"):
        inputs.check_model()
    inputs.problem.newton = pintmg.NewtonOptions()
    inputs.problem.friction = 0.2
    with pytest.raises(ref.CheckFailed, match="friction"):
        inputs.check_model()
