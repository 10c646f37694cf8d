"""The layer bench in tools/ runs on this tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("nl-v-p1", "lin-sc-p2", "mach-fsc-p2")
ROWS = ("L1 sweep us/point", "L1 coarsest us/pt", "L1 restrict us/cpt",
        "L1 ascend us/cpt", "L1 cold us/point", "L0 step us/call",
        "L0 damped us/row", "layer it/call")


def test_bench_layers_prints_every_row_for_this_tree():
    done = subprocess.run(
        [sys.executable, "tools/bench_layers.py", "src", "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for name in WORKLOADS:
        for row in ROWS:
            found = [line for line in lines
                     if line.startswith(f"{name:12s} {row:18s} src ")]
            assert len(found) == 1, (name, row)
            assert "n/a" not in found[0]
    for row in ("L3 start ms r0/r1", "L3 msg us row/MiB"):
        found = [line for line in lines
                 if line.startswith(f"{'run_spmd':12s} {row:18s} src ")]
        assert len(found) == 1, row
        values = found[0].split()[-1].split("/")
        assert len(values) == 2 and all(float(v) > 0 for v in values), row
