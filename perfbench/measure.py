"""Timed and traced runs of one workload, with their checks and metrics."""

from __future__ import annotations

import csv
import gc
import math
import statistics
import time

import numpy as np

import reference as ref
from tracing import level_step_seconds, self_times
from workloads import PWM, TOLERANCE, pintmg, solve, solve_sequential

N_LAYER_LEVELS = 4
FAILURES = (pintmg.NewtonConvergenceError, pintmg.TransportError)


class Tally:
    """Solves attempted and failed, and the checks' verdict.

    The solves are those of the measured rounds: MGRIT solves and
    sequential solves.  The set-up before the rounds is not counted; a
    fault there makes the run incorrect.  The storage audit is not a
    solve: a rank whose stored-state count differs from
    ``storage_estimate`` is named in a note line.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = {}

    def _note(self, message):
        self.problems[message] = self.problems.get(message, 0) + 1

    def fail_op(self, message):
        self.failed += 1
        self._note(f"failed: {message}")

    def fail_check(self, message):
        self.correct = False
        self._note(f"WRONG: {message}")

    def miss_storage(self, mismatches):
        for m in mismatches:
            self._note(f"storage audit failed: {m}")

    def notes(self):
        return [f"# {m} (x{n})" for m, n in self.problems.items()]

    def result(self, metrics):
        return dict(correct=self.correct, attempted=self.attempted,
                    failed=self.failed, metrics=metrics)


class Inputs:
    """A workload's seeded inputs and its checked sequential trajectory."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.times = workload.times()
        self.profile = np.random.default_rng(seed).normal(size=workload.nx)
        self.forcing = ref.forcing_series(self.times, PWM)
        self.bound = ref.trajectory_bound(workload.n_steps, TOLERANCE)
        self.problem = workload.problem(seed)
        _, self.fields, self.scalars = solve_sequential(workload, seed)

    def check_model(self):
        """Raise CheckFailed unless the workload's problem carries the
        model constants that the reference computations assume."""
        p, kind = self.problem, self.workload.kind
        if kind == "linear":
            return
        got = (p.curve.k1, p.curve.k2, p.curve.k3)
        if got != ref.BRAUER or p.newton.tol != ref.NEWTON_TOL:
            raise ref.CheckFailed(f"problem has Brauer constants {got} and "
                                  f"Newton tolerance {p.newton.tol}, not "
                                  f"{ref.BRAUER} and {ref.NEWTON_TOL}")
        if kind == "machine" and (p.inertia, p.friction) != (ref.INERTIA,
                                                              ref.FRICTION):
            raise ref.CheckFailed(f"rotor inertia {p.inertia} and friction "
                                  f"{p.friction}, not {ref.INERTIA} and "
                                  f"{ref.FRICTION}")

    def check_sequential(self):
        """Raise CheckFailed unless sequential stepping agrees with the
        benchmark's own backward-Euler computation."""
        w = self.workload
        self.check_model()
        if w.kind == "linear":
            dense = ref.dense_linear_trajectory(self.times, self.profile,
                                                self.forcing)
            err = ref.max_point_error(self.fields, dense)
            scale = float(np.max(np.linalg.norm(dense, axis=1)))
            if not err <= 1e-10 * scale:
                raise ref.CheckFailed(f"sequential stepping off the dense "
                                      f"backward-Euler solve by {err:.3e} "
                                      f"(scale {scale:.3e})")
            return
        ref.check_brauer_steps(self.times, self.fields, self.profile,
                               self.forcing)
        if w.kind == "machine":
            ref.check_rotor(self.times, self.fields, self.scalars)

    def check_trajectory(self, reports):
        """Raise CheckFailed unless a converged MGRIT solve matches
        sequential stepping within the tolerance-derived bound."""
        run = reports[0]["run"]
        if not run.converged:
            raise ref.CheckFailed(f"no convergence in {run.iterations} "
                                  f"iterations: {run.failure}")
        err = max(ref.max_point_error(reports[0]["fields"], self.fields),
                  ref.max_point_error(reports[0]["scalars"], self.scalars))
        if not err <= self.bound:
            raise ref.CheckFailed(f"MGRIT trajectory off sequential stepping "
                                  f"by {err:.3e} > {self.bound:.3e}")
        norm = self.residual_norm(reports[0]["fields"],
                                  reports[0]["scalars"])
        if not norm <= TOLERANCE * (1.0 + 1e-6):
            raise ref.CheckFailed(f"space-time residual of the MGRIT "
                                  f"trajectory is {norm:.3e}, not below the "
                                  f"tolerance {TOLERANCE:.1e}")
        return err

    def residual_norm(self, fields, scalars):
        """sqrt(sum_n |u_n - Phi(u_{n-1})|^2) over the fine trajectory,
        with u_0 measured against the initial state and Phi the problem's
        own fine step, guessed from u_{n-1} as the solver guesses it."""
        states = [pintmg.BlockState(f, s) for f, s in zip(fields, scalars)]
        first = self.problem.initial_state(0)
        sum_sq = (float(np.sum((fields[0] - first.field) ** 2))
                  + float(np.sum((scalars[0] - first.scalars) ** 2)))
        t = self.times
        for n in range(1, len(states)):
            prop, _ = self.problem.step(states[n - 1], float(t[n - 1]),
                                        float(t[n]), 0, guess=states[n - 1])
            sum_sq += (float(np.sum((prop.field - fields[n]) ** 2))
                       + float(np.sum((prop.scalars - scalars[n]) ** 2)))
        return math.sqrt(sum_sq)

    def audit_storage(self, reports):
        """A message for every rank whose stored-state count differs from
        the closed form ``storage_estimate``; empty when all agree."""
        w = self.workload
        expect = pintmg.storage_estimate(
            w.n_levels, w.n_steps, w.factors, w.workers,
            coarsest_factor=coarsest_factor(w))
        return [f"rank {r['rank']} stores {r['run'].storage.total} states "
                f"({r['run'].storage.per_level} per level), storage_estimate "
                f"says {expect}"
                for r in reports if r["run"].storage.total != expect]


def coarsest_factor(w):
    """The coarsest level's own splitting factor, as TimeHierarchy.build
    chooses it."""
    n_points = w.n_steps // int(np.prod(w.factors)) + 1
    return w.factors[-1] if n_points > w.factors[-1] else max(2, n_points - 1)


def prepare(workload, seed, tally):
    """Seeded inputs with a checked sequential trajectory, or None."""
    try:
        inputs = Inputs(workload, seed)
        inputs.check_sequential()
    except FAILURES as e:
        tally.fail_check(f"set-up sequential solve failed: {e}")
        return None
    except ref.CheckFailed as e:
        tally.fail_check(str(e))
        return None
    return inputs


def counted_solve(inputs, tally):
    """One MGRIT solve through the tracing proxies, for its counts; its
    reports, or None."""
    try:
        reports = solve(inputs.workload, inputs.seed, "trace")
        inputs.check_trajectory(reports)
    except FAILURES as e:
        tally.fail_check(f"counted MGRIT solve failed: {e}")
        return None
    except ref.CheckFailed as e:
        tally.fail_check(str(e))
        return None
    return reports


def attempt_mgrit(inputs, mode, tally):
    """An MGRIT solve, then the checks of its trajectory and the audit of
    its storage.

    Returns the reports of a converged solve or None.  A solve that
    raises or does not converge is a failed solve.
    """
    tally.attempted += 1
    try:
        reports = solve(inputs.workload, inputs.seed, mode)
    except FAILURES as e:
        reports, why = None, f"MGRIT solve raised {e}"
    else:
        run = reports[0]["run"]
        why = (f"MGRIT solve stopped unconverged after {run.iterations} "
               f"iterations: {run.failure}")
    if reports is None or not reports[0]["run"].converged:
        tally.fail_op(why)
        return None
    try:
        inputs.check_trajectory(reports)
    except ref.CheckFailed as e:
        tally.fail_check(str(e))
    tally.miss_storage(inputs.audit_storage(reports))
    return reports


def attempt_sequential(inputs, tally):
    """One timed sequential solve, checked bit for bit against the
    trajectory checked at set-up; its seconds, or None if it failed."""
    tally.attempted += 1
    try:
        seconds, fields, scalars = solve_sequential(inputs.workload,
                                                    inputs.seed)
    except FAILURES as e:
        tally.fail_op(f"sequential solve raised {e}")
        return None
    if not (np.array_equal(fields, inputs.fields)
            and np.array_equal(scalars, inputs.scalars)):
        tally.fail_check("sequential stepping is not deterministic")
    return seconds


# --- end-to-end metrics --------------------------------------------------------

def time_to_solution(reports):
    """Call of run_spmd to the gathered trajectory on rank 0."""
    return reports[0]["t_done"] - reports[0]["t_call"]


def setup_seconds(reports):
    """Worker start and problem/hierarchy construction timed from outside,
    plus the solver's own set-up (constructor, initial guess or nested
    iterations); the latest rank counts."""
    return max(r["t_ctor"] - r["t_call"] + r["run"].setup_seconds
               for r in reports)


def state_kib(workload, reports):
    """Persistent solver state of the largest rank in KiB: stored states
    per level times the bytes of one state on that level's grid."""
    sizes = pintmg.SpatialHierarchy(workload.nx, workload.spatial_grids).sizes
    levels = pintmg.assign_spatial_levels(workload.strategy,
                                          workload.n_levels,
                                          workload.spatial_grids)
    n_scalars = 2 if workload.kind == "machine" else 0
    return max(
        sum(n * (sizes[g] + n_scalars) * 8
            for n, g in zip(r["run"].storage.per_level, levels))
        for r in reports) / 1024.0


def estimate(samples):
    """The run's figure for a time: the median of its samples."""
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _round_until(seconds, body):
    """Call body() at least once and until ``seconds`` have passed,
    settling the garbage collector before each call."""
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        body()
        if time.perf_counter() >= deadline:
            return


def timed_run(workload, seed, seconds):
    """End-to-end metrics with tracing off."""
    tally = Tally()
    inputs = prepare(workload, seed, tally)
    counted = counted_solve(inputs, tally) if inputs else None
    if counted is None:
        return tally.result({}), tally.notes()
    step_calls = sum(sum(r["counts"]["step_calls"]) for r in counted)
    tts, setup, seq, iterations, kib = [], [], [], [], []

    def one_round():
        reports = attempt_mgrit(inputs, "bare", tally)
        if reports is not None:
            tts.append(time_to_solution(reports))
            setup.append(setup_seconds(reports))
            iterations.append(reports[0]["run"].iterations)
            kib.append(state_kib(workload, reports))
        gc.collect()
        s = attempt_sequential(inputs, tally)
        if s is not None:
            seq.append(s)

    _round_until(seconds, one_round)
    if not tts or not seq:
        tally.fail_check("no solve completed")
        return tally.result({}), tally.notes()
    metrics = {
        "time_to_solution_s": _metric(estimate(tts), "s"),
        "setup_s": _metric(estimate(setup), "s"),
        "iterations": _metric(_figure(iterations), "count"),
        "step_calls": _metric(step_calls, "count"),
        "solver_state_kib": _metric(_figure(kib), "KiB"),
    }
    t_seq = estimate(seq)
    q1, _, q3 = (statistics.quantiles(tts, n=4) if len(tts) > 1
                 else [tts[0]] * 3)
    notes = tally.notes() + [
        f"# {workload.name} seed {seed}: {len(tts)} MGRIT samples, "
        f"time_to_solution_s min {min(tts):.4f} q1 {q1:.4f} median "
        f"{estimate(tts):.4f} q3 {q3:.4f} max {max(tts):.4f}",
        f"# reference: sequential_solve {t_seq:.4f} s "
        f"(median of {len(seq)}), MGRIT/sequential "
        f"{estimate(tts) / t_seq:.2f}x, step_calls/n_steps "
        f"{step_calls / workload.n_steps:.2f}",
    ]
    return tally.result(metrics), notes


# --- per-layer metrics ---------------------------------------------------------

def layer_metrics(workload, reports, storage_misses):
    """Per-layer counts and self times of one traced solve.

    Self times are summed over ranks (seconds of work in the layer);
    waiting, worker start and the solver's own level timers take the
    largest rank.  ``storage_misses`` is the number of ranks whose
    stored-state count differs from ``storage_estimate``.
    """
    own, total = [], []
    for r in reports:
        o, t = self_times(r["spans"])
        own.append(o)
        total.append(t)
    counts = [r["counts"] for r in reports]

    def csum(key):
        return sum(c[key] for c in counts)

    def osum(*names):
        return sum(o[n] for o in own for n in names)

    steps = [sum(c["step_calls"][l] for c in counts)
             for l in range(workload.n_levels)]
    steps += [0] * (N_LAYER_LEVELS - len(steps))
    l0_s, l0_n = 0.0, 0
    for r in reports:
        s, n = level_step_seconds(r["spans"], 0)
        l0_s += s
        l0_n += n
    newton = csum("newton_iters")
    run0 = reports[0]["run"]
    k = run0.iterations
    conv = ((run0.residual_norms[-1] / run0.initial_residual) ** (1.0 / k)
            if k and run0.initial_residual > 0.0 else 0.0)
    levels = [max(r["run"].level_seconds[l] for r in reports)
              for l in range(workload.n_levels)]
    levels += [0.0] * (N_LAYER_LEVELS - len(levels))
    r0 = reports[0]
    gather = (r0["t_done"] - r0["t_solve"]
              - (run0.setup_seconds - r0["ctor_seconds"]) - run0.solve_seconds)
    m = {
        "excitation.calls": (csum("excitation_calls"), "count"),
        "excitation.distinct_times": (csum("excitation_times"), "count"),
        "excitation.s": (osum("excitation.value", "excitation.smooth_value"),
                         "s"),
    }
    for l in range(N_LAYER_LEVELS):
        m[f"problems.step_calls.l{l}"] = (steps[l], "count")
    m.update({
        "problems.smooth_step_calls": (csum("smooth_step_calls"), "count"),
        "problems.step_s": (osum("problems.step"), "s"),
        "problems.step_us.l0": (1e6 * l0_s / l0_n if l0_n else 0.0, "us"),
        "problems.newton_iters": (newton, "count"),
        "problems.newton_per_step": (newton / sum(steps), "iter/step"),
        "spatial.restrict_calls": (csum("restrict_calls"), "count"),
        "spatial.prolong_calls": (csum("prolong_calls"), "count"),
        "spatial.transfer_s": (osum("spatial.restrict", "spatial.prolong"),
                               "s"),
        "runtime.messages": (csum("messages"), "count"),
        "runtime.bytes": (csum("bytes"), "B"),
        "runtime.recv_wait_s": (max(t["runtime.recv"] for t in total), "s"),
        "runtime.spawn_s": (max(r["t_enter"] - r["t_call"] for r in reports),
                            "s"),
    })
    for l in range(N_LAYER_LEVELS):
        m[f"mgrit.level_s.l{l}"] = (levels[l], "s")
    m.update({
        "mgrit.engine_s": (osum("mgrit.solve"), "s"),
        "mgrit.gather_s": (gather, "s"),
        "mgrit.conv_factor": (conv, "ratio"),
        "mgrit.storage_estimate_misses": (storage_misses, "count"),
    })
    return m


def _figure(values):
    """A figure that repeats exactly is reported as it is; one that varies
    (a time) takes the median over the run's samples."""
    if all(v == values[0] for v in values):
        return values[0]
    return statistics.median(values)


def write_spans(path, reports):
    """One CSV row per span, times in seconds from the run_spmd call."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("rank", "index", "name", "start_s", "end_s", "parent",
                      "level"))
        for r in reports:
            t0 = r["t_call"]
            for i, (name, start, end, parent, tag) in enumerate(r["spans"]):
                out.writerow((r["rank"], i, name, f"{start - t0:.9f}",
                              f"{end - t0:.9f}", parent, tag))


def traced_run(workload, seed, seconds, out_dir):
    """Per-layer metrics from traced solves, alternated with untraced
    ones so that the tracing overhead is measured in the same run."""
    tally = Tally()
    inputs = prepare(workload, seed, tally)
    if inputs is None:
        return tally.result({}), tally.notes()
    bare, traced, layers = [], [], []
    last = []

    def one_round():
        reports = attempt_mgrit(inputs, "bare", tally)
        if reports is not None:
            bare.append(time_to_solution(reports))
        gc.collect()
        reports = attempt_mgrit(inputs, "trace", tally)
        if reports is not None:
            traced.append(time_to_solution(reports))
            misses = len(inputs.audit_storage(reports))
            layers.append(layer_metrics(workload, reports, misses))
            last[:] = [reports]

    _round_until(seconds, one_round)
    if not traced or not bare:
        tally.fail_check("no solve completed")
        return tally.result({}), tally.notes()
    metrics = {name: _metric(_figure([s[name][0] for s in layers]),
                             unit)
               for name, (_, unit) in layers[0].items()}
    overhead = estimate(traced) - estimate(bare)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.overhead_pct"] = _metric(100.0 * overhead / estimate(bare),
                                            "%")
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.csv"
    write_spans(spans_path, last[0])
    notes = tally.notes() + [
        f"# {workload.name} seed {seed}: {len(traced)} traced and "
        f"{len(bare)} untraced samples; time_to_solution_s traced "
        f"{estimate(traced):.4f}, untraced {estimate(bare):.4f}",
        f"# spans of the last traced solve: {spans_path}",
    ] + [f"#   {name:28s} {v['value']:.6g} {v['unit']}"
         for name, v in metrics.items()]
    return tally.result(metrics), notes
