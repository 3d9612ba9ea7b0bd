"""Run one workload of the permono benchmark and print its metrics.

    python3 benchmarks/run.py --workload green_far --seed 1 --seconds 10 --trace 0

Run from the root of a source tree; the program is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced pass with --trace 1. The line before
it records the environment and details of the run. Workloads and metrics are
described in README.md next to this file.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("green_far", "green_near", "monopole_fields", "model_oracles")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "permono" / "__init__.py").is_file():
        print(f"run.py: no permono sources under {src}", file=sys.stderr)
        return 2
    # one BLAS/OpenMP thread, set before numpy is first imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    harness.main(args, ROOT, THREAD_VARS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
