"""Search quality of the DQN at two learner periods.

For each world and DQN seed, the DQN runs once with the learner on every
environment step (`dqn.TRAIN_EVERY = 1`) and once on every 4th
(`TRAIN_EVERY = 4`), with equal environment steps. Each run records its
best q ÷ the oracle's q (`dqn.exhaustive_search` on the same world) and
its wall time. Two set-ups:

- criterion-03: acceptance criterion 03's set-up. The default 20-year
  synth world at seeds 0-2, DQN seeds 0-4, 20,000 steps, shift-only,
  jitter 2, initial areas 2 degrees off the planted ones.
- discover-shift: the benchmark workload's set-up. Its worlds at seeds
  1-10, built by `perfbench/workloads.py`, DQN seed 0, 5,000 steps.

Run it from the root of a source checkout, with BLAS on one thread as the
benchmark pins it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/search_quality.py --out FILE.json

The JSON holds one row per run, and per set-up and period the median
ratio and the median seconds. The full run takes about 3 minutes on a
2-core Xeon VM. `tests/test_search_quality.py` runs `write_report` on one
small world.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass
from unittest import mock

import numpy as np

from nemonsoon import dqn, rl_env
from nemonsoon.synthdata import SynthSpec, gen_sst, gen_stations, regime_targets

PERIODS = (1, 4)
INIT_OFFSET = 2.0  # degrees between the planted and the initial areas
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@dataclass(frozen=True)
class Setup:
    """Worlds as (name, loader) pairs, where loader() gives (field,
    y_onset, y_retreat, init_a, init_b); the DQN seeds run on each; and
    the environment steps of every run."""
    name: str
    worlds: tuple
    dqn_seeds: tuple[int, ...]
    steps: int


def synth_world(seed: int, spec: SynthSpec = SynthSpec()):
    """Criterion 03's world: the synth field and regime targets of `seed`,
    initial areas INIT_OFFSET off the planted ones, A to the north-west."""
    def load():
        field = gen_sst(spec, seed)
        y_onset, y_retreat = regime_targets(*gen_stations(spec, seed))
        a, b = spec.planted_areas()
        return (field, y_onset, y_retreat, a.shifted(INIT_OFFSET, -INIT_OFFSET),
                b.shifted(-INIT_OFFSET, INIT_OFFSET))
    return f"synth-{seed}", load


def benchmark_world(seed: int):
    """discover-shift's world of `seed`: its inputs written and set up by
    the benchmark's own code."""
    def load():
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        with tempfile.TemporaryDirectory() as work:
            inputs = os.path.join(work, "inputs")
            workloads.generate("discover-shift", seed, inputs)
            with open(os.path.join(inputs, "regimes.json")) as fh:
                regimes = json.load(fh)
            return workloads.SETUPS["discover-shift"](inputs, work, regimes)
    return f"discover-shift-{seed}", load


SETUPS = (
    Setup("criterion-03", tuple(synth_world(s) for s in range(3)), tuple(range(5)), 20_000),
    Setup("discover-shift", tuple(benchmark_world(s) for s in range(1, 11)), (0,), 5_000),
)


def run_setup(setup: Setup) -> dict:
    """Every world × DQN seed × period of one set-up. The two periods of
    a (world, seed) run back to back, in alternating order."""
    rows = []
    k = 0
    for world, load in setup.worlds:
        field, y_onset, y_retreat, init_a, init_b = load()
        domain = field.spec.domain()
        _, oracle_q = dqn.exhaustive_search(field, y_onset, y_retreat, init_a, init_b, domain)
        env_config = rl_env.EnvConfig(rl_env.SHIFT_ONLY, domain, init_a, init_b, jitter=2)
        for seed in setup.dqn_seeds:
            for period in PERIODS if k % 2 == 0 else PERIODS[::-1]:
                config = dqn.DQNConfig(total_timesteps=setup.steps, seed=seed)
                with mock.patch.object(dqn, "TRAIN_EVERY", period):
                    start = time.perf_counter()
                    _, best_q, _ = dqn.train(
                        lambda: rl_env.AreaEnv(field, y_onset, y_retreat, env_config), config)
                    seconds = time.perf_counter() - start
                rows.append({"world": world, "dqn_seed": seed, "train_every": period,
                             "best_q": best_q, "oracle_q": oracle_q,
                             "ratio": best_q / oracle_q, "seconds": seconds})
            k += 1
    summary = {}
    for period in PERIODS:
        mine = [r for r in rows if r["train_every"] == period]
        ratios = [r["ratio"] for r in mine]
        summary[str(period)] = {
            "runs": len(mine),
            "median_ratio": float(np.median(ratios)),
            "min_ratio": min(ratios),
            "median_seconds": float(np.median([r["seconds"] for r in mine])),
        }
    return {"name": setup.name, "steps": setup.steps, "dqn_seeds": list(setup.dqn_seeds),
            "worlds": [name for name, _ in setup.worlds], "rows": rows, "summary": summary}


def write_report(path, setups) -> dict:
    """Run every set-up and write the report as JSON to `path`."""
    report = {
        "command": " ".join([os.path.basename(sys.executable), *sys.argv]),
        "periods": list(PERIODS),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "setups": [run_setup(setup) for setup in setups],
    }
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON report to write")
    args = parser.parse_args()
    for setup in write_report(args.out, SETUPS)["setups"]:
        for period, s in setup["summary"].items():
            print(f"{setup['name']} train_every={period}: median ratio "
                  f"{s['median_ratio']:.4f} (min {s['min_ratio']:.4f}), "
                  f"median {s['median_seconds']:.2f} s over {s['runs']} runs")


if __name__ == "__main__":
    main()
