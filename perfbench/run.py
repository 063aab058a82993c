"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Generates the workload's inputs
from the seed in one child process, then times pipeline passes over them
in a second child process with BLAS pinned to one thread, and prints that
child's report. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. Inputs and outputs live under
.bench_work/ in the checkout and are removed afterwards.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("discover-shift", "discover-regional", "forecast-ablation")
DEADLINE_S = 175  # a run must end within 180 s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "nemonsoon", "__init__.py")):
        print("error: no package source at src/nemonsoon; run from a source checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    outputs = os.path.join(work, "outputs")
    os.makedirs(outputs, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", BENCH_COMMIT=_commit())
    child = os.path.join(HERE, "child.py")
    try:
        gen = _run([sys.executable, child, "gen", args.workload, str(args.seed), inputs],
                   env, start)
        if gen.returncode != 0:
            sys.stderr.write(gen.stderr)
            print(f"error: input generation failed ({gen.returncode})", file=sys.stderr)
            return 1
        res = _run([sys.executable, child, "measure", args.workload, str(args.seed),
                    str(args.seconds), str(args.trace), inputs, outputs], env, start)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"error: measured run failed ({res.returncode})", file=sys.stderr)
            return 1
        sys.stdout.write(res.stdout)
        return 0
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # other runs' work directories are still there


def _run(cmd, env, start):
    """Run a child to completion within what is left of the deadline;
    subprocess.run kills and reaps it on timeout."""
    left = DEADLINE_S - (time.monotonic() - start)
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(left, 1))


def _commit() -> str:
    """HEAD of the checkout, or 'unknown' when it is not a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
