"""Bitwise pins of a few whole solves, to guard refactors meant to be bitwise.

Each case pins float.hex of the initial residual and of every residual
norm, the iteration count, and a sha256 over the gathered trajectory's
fields and scalars, at p = 1 and p = 2.  None of them may depend on p:
the norms add the same per-C-point terms in the same order at any worker
count.

The pins are valid only for the numpy/SciPy build (and, through their
BLAS/LAPACK, the CPU) they were recorded on: the dot products and the
tridiagonal LDL^T solves may take other kernels elsewhere, rounding the
last bits differently while every tolerance check still passes.  On a
new build, re-record them at an unchanged commit with
``python tests/test_pins.py``, which prints the current values.
"""

import hashlib

import pytest

from pintmg.excitation import PwmSource
from pintmg.mgrit import CycleSpec, MgritSolver, StoppingCriterion
from pintmg.problems import (LinearDiffusionProblem,
                             NonlinearSaturationProblem,
                             SurrogateMachineProblem)
from pintmg.runtime import run_spmd
from pintmg.time_hierarchy import TimeHierarchy, build_uniform_grid

# problem kind: (cycle kind, fine steps, factors, spatial strategy, nested)
CASES = {
    "linear": ("V", 64, [4, 4], "delayed", False),
    "nonlinear": ("F", 64, [4, 4], "none", True),
    "machine": ("two-level", 66, [4, 4], "none", True),  # a 2-step F-tail
}

# recorded with numpy 2.4.6, SciPy 1.17.1, Python 3.11.7 on x86-64, when
# the tridiagonal solves moved from banded Cholesky (pbtrf/pbtrs) to LDL^T
# (pttrf/pttrs/ptsv), which rounds differently; iteration counts held.  The
# nonlinear and machine cases were re-recorded when Newton began to start
# from warm guesses and to run loose early (mgrit.LOOSE_TOL); their
# iteration counts held too
PINS = {
    ("linear", 1): {
        "iterations": 5,
        "initial_residual": "0x1.7043243993518p-7",
        "residual_norms": [
            "0x1.105d31e40e889p-8", "0x1.6cab881340f5bp-11",
            "0x1.51a81a8c9e6cap-17", "0x1.d129715004c64p-27",
            "0x1.dce85d111cbf4p-34",
        ],
        "trajectory": ("2a81d6d4cebaf65749815f97e0cc207e"
                       "79b2cf3ecc81e542bae8f2f2f72f67f9"),
    },
    ("linear", 2): {
        "iterations": 5,
        "initial_residual": "0x1.7043243993518p-7",
        "residual_norms": [
            "0x1.105d31e40e889p-8", "0x1.6cab881340f5bp-11",
            "0x1.51a81a8c9e6cap-17", "0x1.d129715004c64p-27",
            "0x1.dce85d111cbf4p-34",
        ],
        "trajectory": ("2a81d6d4cebaf65749815f97e0cc207e"
                       "79b2cf3ecc81e542bae8f2f2f72f67f9"),
    },
    ("machine", 1): {
        "iterations": 5,
        "initial_residual": "0x1.18295ef7e8cd1p-7",
        "residual_norms": [
            "0x1.6f8f29e805a98p-13", "0x1.dfedde5e4c721p-18",
            "0x1.ad3fc86e97933p-22", "0x1.7b7ab6b74fe57p-26",
            "0x1.0e18fd7faf5bfp-30",
        ],
        "trajectory": ("91df327d141330b27067fb822e90f824"
                       "81aaa35aed8899efc80994d82d92e12a"),
    },
    ("machine", 2): {
        "iterations": 5,
        "initial_residual": "0x1.18295ef7e8cd1p-7",
        "residual_norms": [
            "0x1.6f8f29e805a98p-13", "0x1.dfedde5e4c721p-18",
            "0x1.ad3fc86e97933p-22", "0x1.7b7ab6b74fe57p-26",
            "0x1.0e18fd7faf5bfp-30",
        ],
        "trajectory": ("91df327d141330b27067fb822e90f824"
                       "81aaa35aed8899efc80994d82d92e12a"),
    },
    ("nonlinear", 1): {
        "iterations": 5,
        "initial_residual": "0x1.169d28c0732e1p-8",
        "residual_norms": [
            "0x1.0f0c6a03680e3p-12", "0x1.edc6322582359p-17",
            "0x1.80e81a5de582ap-21", "0x1.e661c2b0f9512p-26",
            "0x1.e19228090fe35p-31",
        ],
        "trajectory": ("816cb7d224be72deb4ddd1cad2cf441c"
                       "23d9de1bd9da98a938da8a17d4005f8d"),
    },
    ("nonlinear", 2): {
        "iterations": 5,
        "initial_residual": "0x1.169d28c0732e1p-8",
        "residual_norms": [
            "0x1.0f0c6a03680e3p-12", "0x1.edc6322582359p-17",
            "0x1.80e81a5de582ap-21", "0x1.e661c2b0f9512p-26",
            "0x1.e19228090fe35p-31",
        ],
        "trajectory": ("816cb7d224be72deb4ddd1cad2cf441c"
                       "23d9de1bd9da98a938da8a17d4005f8d"),
    },
}


def _problem(kind):
    common = dict(n_spatial_grids=2, excitation=PwmSource(),
                  source="random", seed=5)
    if kind == "linear":
        return LinearDiffusionProblem(15, diffusivity=0.2, **common)
    if kind == "nonlinear":
        return NonlinearSaturationProblem(15, **common)
    return SurrogateMachineProblem(15, **common)


def _solve_worker(transport, kind):
    cycle, n_steps, factors, spatial, nested = CASES[kind]
    hier = TimeHierarchy.build(build_uniform_grid(0.0, 0.02, n_steps), factors)
    solver = MgritSolver(_problem(kind), hier,
                         CycleSpec(kind=cycle, gamma=1, max_iters=20,
                                   spatial_strategy=spatial,
                                   nested_iterations=nested),
                         StoppingCriterion(tolerance=1e-9), transport)
    return solver.solve()


def _pin(kind, p, **spmd_options):
    run, solution = run_spmd(p, _solve_worker, kind, **spmd_options)[0]
    digest = hashlib.sha256()
    for field, scalars in zip(solution.fields, solution.scalars):
        digest.update(field.tobytes())
        digest.update(scalars.tobytes())
    return {"iterations": run.iterations,
            "initial_residual": run.initial_residual.hex(),
            "residual_norms": [v.hex() for v in run.residual_norms],
            "trajectory": digest.hexdigest()}


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", sorted(CASES))
def test_solve_is_bitwise_the_pinned_one(kind, p):
    assert _pin(kind, p) == PINS[kind, p]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_process_transport_solves_the_pinned_one(kind):
    # the backend keyword callers such as the benchmark still pass
    assert _pin(kind, 2, backend="process") == PINS[kind, 2]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_pins_do_not_depend_on_the_worker_count(kind):
    assert PINS[kind, 2] == PINS[kind, 1]


if __name__ == "__main__":
    for kind in sorted(CASES):
        for p in (1, 2):
            print(f"    ({kind!r}, {p}): {_pin(kind, p)!r},")
