"""Command line entry point.

    pintmg run     --config exp.cfg [--workers N] [--out DIR] [--seed N]
    pintmg compare --config exp.cfg [--workers N] [--out DIR] [--seed N]
    pintmg scale   --config exp.cfg [--workers N] [--out DIR] [--seed N]

Flags override the corresponding config keys; everything else comes from
the file.  Results land in --out (default ./results) as CSV.  A config
that cannot be read or is invalid exits with status 2 and one line on
stderr, as a bad flag does.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config, with_overrides
from .harness import (compare_variants, run_experiment, scale_experiment,
                      worker_ladder)


def _add_common(sub):
    sub.add_argument("--config", required=True, metavar="PATH",
                     help="experiment config file")
    sub.add_argument("--workers", type=int, default=None, metavar="N",
                     help="override hierarchy.workers")
    sub.add_argument("--out", default="results", metavar="DIR",
                     help="output directory for CSV files")
    sub.add_argument("--seed", type=int, default=None, metavar="N",
                     help="override run.seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pintmg",
        description="Multigrid-in-time experiments on model field problems.")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser(
        "run", help="single solve; writes iterations.csv and summary.csv"))
    _add_common(subs.add_parser(
        "compare", help="spatial-coarsening variants; writes compare.csv"))
    _add_common(subs.add_parser(
        "scale", help="strong scaling over worker counts; writes scaling.csv"))
    return parser


def _load(args):
    config = load_config(args.config)
    overrides = {}
    if args.workers is not None:
        overrides["hierarchy_workers"] = args.workers
    if args.seed is not None:
        overrides["run_seed"] = args.seed
    return with_overrides(config, **overrides) if overrides else config


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load(args)
    except (ValueError, OSError) as e:
        print(f"pintmg: {args.config}: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)

    if args.command == "run":
        run = run_experiment(config, out)
        status = "converged" if run.converged else "did not converge"
        print(f"{status} in {run.iterations} iterations "
              f"({run.total_seconds:.3f}s)")
        if run.failure:
            print(f"failure: {run.failure}")
        print(f"wrote {out / 'iterations.csv'} and {out / 'summary.csv'}")
        return 0 if run.converged else 1

    if args.command == "compare":
        runs = compare_variants(config, out)
        for strategy, run in runs:
            status = "ok" if run.converged else "FAILED"
            print(f"{strategy:>8}: {run.iterations:3d} iterations "
                  f"{run.total_seconds:8.3f}s  {status}")
        print(f"wrote {out / 'compare.csv'}")
        return 0

    t_seq, runs = scale_experiment(config, out,
                                   worker_ladder(config.hierarchy_workers))
    print(f"sequential reference: {t_seq:.3f}s")
    for p, run in runs:
        speedup = t_seq / run.total_seconds if run.total_seconds > 0 else 0.0
        print(f"p={p:<3d} {run.total_seconds:8.3f}s  speedup {speedup:5.2f}")
    print(f"wrote {out / 'scaling.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
