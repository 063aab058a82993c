"""Child processes of the benchmark: `gen` writes a workload's inputs,
`measure` times pipeline passes over them. run.py starts each in its own
process, so the generator's memory never shows in the measured peak RSS.

    python3 perfbench/child.py gen WORKLOAD SEED INPUTS
    python3 perfbench/child.py measure WORKLOAD SEED SECONDS TRACE INPUTS WORK

`measure` prints its result as one JSON object on its last stdout line.
"""

import os
import sys

# Pin BLAS to one thread before numpy is imported: OpenBLAS threading
# swings small-matmul timings several-fold on a 2-core host.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, config_label, gathered_bytes  # noqa: E402

# spans whose self time and call count are per-layer metrics
SELF_S = [
    "geogrid.load_sst", "stations.read_stations_csv", "stations.qc_filter",
    "stations.impute_monthly_median", "stations.run_clustering",
    "geogrid.area_mean_series", "geogrid.ocean_fraction", "index.evaluate_pair",
    "rl_env.AreaEnv.step", "rl_env.AreaEnv.reset", "rl_env.apply_action",
    "dqn.act", "dqn.train_step", "dqn.td_targets", "dqn.QNetwork.loss_and_grads",
    "dqn.Adam.step", "dqn.exhaustive_search", "forecast.train_forecaster",
]
CALLS = [
    "geogrid.area_mean_series", "geogrid.ocean_fraction", "index.evaluate_pair",
    "rl_env.AreaEnv.step", "rl_env.AreaEnv.reset", "dqn.act", "dqn.train_step",
    "forecast.grid_search", "forecast.train_forecaster",
]
for _cfg in map(config_label, workloads.FORECAST_GRID):
    for _method in ("forward", "loss_and_grads"):
        SELF_S.append(f"forecast.LSTMForecaster.{_method}.{_cfg}")
        CALLS.append(f"forecast.LSTMForecaster.{_method}.{_cfg}")


def main(argv: list[str]) -> int:
    if argv[0] == "gen":
        _, workload, seed, inputs = argv
        workloads.generate(workload, int(seed), inputs)
        return 0
    _, workload, seed, seconds, trace, inputs, work = argv
    result = measure(workload, int(seed), float(seconds), trace == "1", inputs, work)
    print(json.dumps(result))
    return 0


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": os.environ.get("BENCH_COMMIT", "unknown"),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            inputs: str, work: str) -> dict:
    regimes_path = os.path.join(inputs, "regimes.json")
    regimes = {}
    if os.path.exists(regimes_path):
        with open(regimes_path) as fh:
            regimes = json.load(fh)
    runner = workloads.RUNNERS[workload]

    def one_pass(tracer=None):
        if tracer is None:
            p = runner(workload, inputs, work, regimes)
        else:
            with tracer:
                p = runner(workload, inputs, work, regimes)
        # check at once and drop the outputs, so memory held for the checks
        # does not grow with the number of passes
        p.checks, p.record = workloads.check(workload, p, inputs, work)
        p.outputs = None
        return p

    plain, traced, tracers, setups = [], [], [], []
    start = perf_counter()
    # Passes until the next round would overrun. Before each pass the set-up
    # runs alone for a tenth of the last pass's time: it is short, so a few
    # samples would catch one moment of the host's drifting speed. A traced
    # run alternates untraced and traced passes so both see the same host.
    while True:
        t_end = perf_counter() + (0.1 * plain[-1].wall_s if plain else 0.0)
        while not trace:
            t = perf_counter()
            workloads.SETUPS[workload](inputs, work, regimes)
            setups.append(perf_counter() - t)
            if perf_counter() >= t_end:
                break
        plain.append(one_pass())
        if trace:
            tracers.append(Tracer())
            traced.append(one_pass(tracers[-1]))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            break

    attempted = failed = 0
    for p in plain + traced:
        for name, ok in p.checks:
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {name}", file=sys.stderr)

    env = environment(workload, seed)
    print("# env " + json.dumps(env))
    for key, value in plain[0].record.items():
        print(f"# record {key} = {value}")
    print("# pass wall_s " + " ".join(f"{p.wall_s:.4f}" for p in plain))
    stage_names = sorted({s for p in plain for s in p.stages})
    for s in stage_names:
        print(f"# stage {s}_s = {_median([p.stages[s] for p in plain]):.6f} s")

    if trace:
        metrics = layer_metrics(workload, plain, traced, tracers)
        os.makedirs(os.path.join(ROOT, ".bench_traces"), exist_ok=True)
        tracers[-1].dump(os.path.join(ROOT, ".bench_traces", f"{workload}-{seed}.jsonl"))
    else:
        metrics = e2e_metrics(plain, setups)
    for name, m in metrics.items():
        print(f"# metric {name} = {m['value']} {m['unit']}")
    print(f"# passes {len(plain)} untraced, {len(traced)} traced; "
          f"checks {attempted - failed}/{attempted} passed")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _median(values) -> float:
    return float(statistics.median(values))


def e2e_metrics(plain: list, setups: list) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": _median([p.wall_s for p in plain]), "unit": "s"},
        "setup_s": {"value": _median(setups + [p.stages["setup"] for p in plain]),
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def layer_metrics(workload: str, plain: list, traced: list, tracers: list) -> dict:
    def med(fn):
        return _median([fn(t) for t in tracers])

    def ratio(num, den):
        return lambda t: t.counts[num] / t.calls[den] if t.calls[den] else 0.0

    out = {}
    for name in SELF_S:
        out[f"{name}.self_s"] = (med(lambda t: t.self_s.get(name, 0.0)), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (med(lambda t: t.calls[name]), "count")
    out["geogrid.load_sst.bytes"] = (med(lambda t: t.counts["geogrid.load_sst.bytes"]), "B")
    out["geogrid.area_mean_series.bytes"] = (med(lambda t: gathered_bytes(t.areas)), "B")
    out["index.evaluate_pair.valid_ratio"] = (
        med(ratio("index.evaluate_pair.valid", "index.evaluate_pair")), "ratio")
    out["rl_env.apply_action.accept_ratio"] = (
        med(ratio("rl_env.apply_action.accepted", "rl_env.apply_action")), "ratio")
    out["rl_env.evals_per_step"] = (
        med(ratio("rl_env.evals_in_step", "rl_env.AreaEnv.step")), "ratio")
    out["dqn.exhaustive_search.placements"] = (plain[0].record.get("oracle_pairs", 0), "count")
    out["forecast.train_forecaster.epochs"] = (
        med(lambda t: t.counts["forecast.train_forecaster.epochs"]), "count")
    for stage in ("oracle", "optimize", "forecast"):
        out[f"{stage}_s"] = (_median([p.stages.get(stage, 0.0) for p in plain]), "s")
    plain_wall = _median([p.wall_s for p in plain])
    traced_wall = _median([p.wall_s for p in traced])
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out["trace.coverage"] = (_median([t.top_level_s() / p.wall_s
                                      for t, p in zip(tracers, traced)]), "ratio")
    return {name: {"value": float(v), "unit": u} for name, (v, u) in out.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
