"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload lin-sc-p2 --seed 7 --seconds 30 --trace 0

Run from the root of a checkout.  The seed draws the spatial source
profile of the problem.  A run first checks sequential stepping against
the benchmark's own backward-Euler computation, then makes one traced
MGRIT solve for its work counts, then alternates timed MGRIT solves and
timed sequential solves until ``--seconds`` have passed, always
finishing a round.  Every MGRIT answer is checked against sequential
stepping and its space-time residual is recomputed, outside the timed
region.  With ``--trace 1`` the rounds alternate an untraced and a traced
MGRIT solve instead, and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # imported here so that a checkout without the package fails with a
    # message and no result line
    try:
        import measure
        from workloads import WORKLOADS
    except ImportError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        result, notes = measure.traced_run(workload, args.seed, args.seconds,
                                           OUT_DIR)
    else:
        result, notes = measure.timed_run(workload, args.seed, args.seconds)
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
