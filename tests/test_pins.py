"""Bitwise pins of a few whole solves, to guard refactors meant to be bitwise.

Each case pins float.hex of the initial residual and of every residual
norm, the iteration count, and a sha256 over the gathered trajectory's
fields and scalars, at p = 1 and p = 2.  None of them may depend on p:
the norms add the same per-C-point terms in the same order at any worker
count.  The p = 2 solves run on the thread and on the process transport.

The pins are valid only for the numpy/SciPy build (and, through their
BLAS/LAPACK, the CPU) they were recorded on: the dot products and the
banded Cholesky solves may take other kernels elsewhere, rounding the
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

# recorded with numpy 2.4.6, SciPy 1.17.1, Python 3.11.7 on x86-64, at the
# engine before its passes shared one owned-range walk; the machine case's
# third p = 2 norm took p = 1's last bit when the norm stopped adding
# per-rank partial sums
PINS = {
    ("linear", 1): {
        "iterations": 5,
        "initial_residual": "0x1.7043243993518p-7",
        "residual_norms": [
            "0x1.105d31e40e887p-8", "0x1.6cab881340f41p-11",
            "0x1.51a81a8c9e5fcp-17", "0x1.d129715089a9fp-27",
            "0x1.dce85d6a9556bp-34",
        ],
        "trajectory": ("e378721e9b42782d5172678b6e8df388"
                       "3af5abef5692fa89095c6757f332ae7d"),
    },
    ("linear", 2): {
        "iterations": 5,
        "initial_residual": "0x1.7043243993518p-7",
        "residual_norms": [
            "0x1.105d31e40e887p-8", "0x1.6cab881340f41p-11",
            "0x1.51a81a8c9e5fcp-17", "0x1.d129715089a9fp-27",
            "0x1.dce85d6a9556bp-34",
        ],
        "trajectory": ("e378721e9b42782d5172678b6e8df388"
                       "3af5abef5692fa89095c6757f332ae7d"),
    },
    ("machine", 1): {
        "iterations": 5,
        "initial_residual": "0x1.182954091867fp-7",
        "residual_norms": [
            "0x1.6f8f78d82f8eap-13", "0x1.dfeacdcfa02b7p-18",
            "0x1.ad3d1a5c2ffe9p-22", "0x1.7b3dbd4d7a85fp-26",
            "0x1.08760c9bdf3efp-30",
        ],
        "trajectory": ("dd7a10f84ab086090b2e52cdaabb5f70"
                       "31b5df776f72145360078d0925f70c8c"),
    },
    ("machine", 2): {
        "iterations": 5,
        "initial_residual": "0x1.182954091867fp-7",
        "residual_norms": [
            "0x1.6f8f78d82f8eap-13", "0x1.dfeacdcfa02b7p-18",
            "0x1.ad3d1a5c2ffe9p-22", "0x1.7b3dbd4d7a85fp-26",
            "0x1.08760c9bdf3efp-30",
        ],
        "trajectory": ("dd7a10f84ab086090b2e52cdaabb5f70"
                       "31b5df776f72145360078d0925f70c8c"),
    },
    ("nonlinear", 1): {
        "iterations": 5,
        "initial_residual": "0x1.169d1a422192cp-8",
        "residual_norms": [
            "0x1.0f0b1b5387e30p-12", "0x1.edbdc8bf176ddp-17",
            "0x1.80eb95771e84fp-21", "0x1.f292cc3e5fb47p-26",
            "0x1.e68d2614b69edp-31",
        ],
        "trajectory": ("900e48b3c4767b762ed2cfb0688de97a"
                       "31394987eeff3fa33ceeb7d39eaaa741"),
    },
    ("nonlinear", 2): {
        "iterations": 5,
        "initial_residual": "0x1.169d1a422192cp-8",
        "residual_norms": [
            "0x1.0f0b1b5387e30p-12", "0x1.edbdc8bf176ddp-17",
            "0x1.80eb95771e84fp-21", "0x1.f292cc3e5fb47p-26",
            "0x1.e68d2614b69edp-31",
        ],
        "trajectory": ("900e48b3c4767b762ed2cfb0688de97a"
                       "31394987eeff3fa33ceeb7d39eaaa741"),
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


def _pin(kind, p, backend="thread"):
    run, solution = run_spmd(p, _solve_worker, kind, backend=backend)[0]
    digest = hashlib.sha256()
    for state in solution.states:
        digest.update(state.field.tobytes())
        digest.update(state.scalars.tobytes())
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
    assert _pin(kind, 2, backend="process") == PINS[kind, 2]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_pins_do_not_depend_on_the_worker_count(kind):
    assert PINS[kind, 2] == PINS[kind, 1]


if __name__ == "__main__":
    for kind in sorted(CASES):
        for p in (1, 2):
            print(f"    ({kind!r}, {p}): {_pin(kind, p)!r},")
