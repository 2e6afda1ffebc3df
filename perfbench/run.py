"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program under test is
imported from its `src/` tree. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. Exits 2 without a result when the checkout holds no marc
sources.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOADS = ("train-stock", "train-labels", "recon-holdout", "cli-pipeline")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "marc" / "__init__.py").is_file():
        print(f"error: no marc sources under {root / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread and one CLI worker thread, on any machine: on the shared
    # 2-core machine the bounds were set on, two BLAS threads were no faster
    # than one and two CLI threads were slower than one. The CLI still
    # reconstructs through its thread pool. Set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MARC_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(root / "src"), str(root)]

    from perfbench import harness

    return harness.main(root, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
