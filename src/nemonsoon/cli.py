"""Command-line entry points wiring the pipeline end to end.

Subcommands: synth, cluster, optimize, evaluate, forecast, oracle.
Exit codes: 0 success, 2 configuration error, 1 runtime error.
A JSON config file (--config) supplies defaults, checked as flags are; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import dqn, forecast, geogrid, index, rl_env, stations, synthdata
from .errors import ConfigError, NemonsoonError, SkippedCluster


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


def dispatch(argv: list[str]) -> int:
    try:
        parser = _build_parser(_load_config(argv))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        args.handler(args)
    except (ConfigError, OSError) as exc:  # OSError: a path the user named
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NemonsoonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_config(argv: list[str]) -> dict:
    """The JSON object named by `--config FILE` or `--config=FILE`, else {}."""
    paths = [argv[i + 1] for i, tok in enumerate(argv[:-1]) if tok == "--config"]
    paths += [tok.split("=", 1)[1] for tok in argv if tok.startswith("--config=")]
    if len(paths) > 1:
        raise ConfigError(f"more than one --config: {', '.join(paths)}")
    if not paths:
        return {}
    try:
        with open(paths[0]) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load config {paths[0]}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {paths[0]} must hold a JSON object")
    return doc


def _build_parser(config: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nemonsoon",
        description="Discover and evaluate a two-area SST monsoon index.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    known: set[str] = set()

    def flag(p, name, default=None, required=False, key=None, **kwargs):
        """Add `--name`, whose default is the config's value under `key` (the name with
        '_' for '-'); a typed flag gets it as text, as argparse types string defaults only.
        Any other config value must have the flag's JSON type: a boolean for a switch,
        a list of strings for a repeatable flag, else a string."""
        key = key or name.replace("-", "_")
        known.add(key)
        if key in config:
            default, required = config[key], False
            want = {"store_true": bool, _AppendOverDefault: list}.get(kwargs.get("action"), str)
            if "type" in kwargs:
                default = str(default)
            elif not isinstance(default, want) or \
                    want is list and not all(isinstance(v, str) for v in default):
                kind = {bool: "a boolean", list: "a list of strings", str: "a string"}[want]
                raise ConfigError(f"config value {key!r} must be {kind}, got {default!r}")
        p.add_argument(f"--{name}", default=default, required=required, **kwargs)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config supplying flag defaults")
        flag(p, "seed", 0, type=_seed)
        return p

    def add_world(name, help_text):
        p = add(name, help_text)
        flag(p, "sst", required=True)
        flag(p, "stations", required=True)
        flag(p, "clusters", required=True)
        flag(p, "onset-clusters", "1,2,3,4", type=_cluster_ids,
             help="comma-separated cluster ids feeding the onset target")
        flag(p, "min-ocean", index.MIN_OCEAN, type=float)
        flag(p, "areas", required=True, help="areas JSON (the initial areas for optimize)")
        flag(p, "out", ".")
        return p

    p = add("synth", "generate a synthetic world (SST grid, stations, indices)")
    flag(p, "out", required=True)
    flag(p, "years", 20, type=int)
    p.set_defaults(handler=_cmd_synth)

    p = add("cluster", "hierarchically cluster rainfall stations")
    flag(p, "stations", required=True)
    flag(p, "d", 2.0, type=float)
    flag(p, "n", 2, type=int)
    flag(p, "out", "clusters.csv")
    p.set_defaults(handler=_cmd_cluster)

    p = add_world("optimize", "train the DQN to place the index areas")
    flag(p, "mode", rl_env.SHIFT_ONLY, choices=[rl_env.SHIFT_ONLY, rl_env.SHIFT_AND_RESIZE])
    flag(p, "timesteps", 20000, type=int)
    flag(p, "episode-len", 64, type=int)
    flag(p, "jitter", 2, type=int)
    p.set_defaults(handler=_cmd_optimize)

    p = add_world("evaluate", "score an areas JSON and export its index series")
    p.set_defaults(handler=_cmd_evaluate)

    p = add("forecast", "LSTM ablation for one cluster")
    flag(p, "stations", required=True)
    flag(p, "clusters", required=True)
    flag(p, "indices", required=True)
    flag(p, "ne-index", required=True,
         help="index CSV (year,month,z) with the candidate NE index")
    flag(p, "cluster", required=True, type=int)
    flag(p, "with-ne", False, action="store_true")
    flag(p, "fold", key="folds", action=_AppendOverDefault,
         help="fold as TRAINLO-TRAINHI:VALYEAR:TESTYEAR (repeatable)")
    flag(p, "small-grid", False, action="store_true",
         help="single small hyperparameter config instead of the full grid")
    flag(p, "out", "report.csv")
    p.set_defaults(handler=_cmd_forecast)

    p = add_world("oracle", "exhaustive search of whole-cell shifts (brute-force optimum)")
    p.set_defaults(handler=_cmd_oracle)

    # one config may serve several subcommands, but a key no flag reads is a typo
    unknown = sorted(set(config) - known)
    if unknown:
        raise ConfigError(f"config keys {unknown} match no flag of any subcommand")
    return parser


class _AppendOverDefault(argparse.Action):
    """argparse's `append`, except that the first use drops the default (a
    config file's list) instead of extending it, so explicit flags win."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if items is self.default else items) + [values])


def _cluster_ids(text: str) -> frozenset[int]:
    """The --onset-clusters value: comma-separated cluster ids."""
    try:
        return frozenset(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated cluster ids, got {text!r}") from None


def _seed(text: str) -> int:
    """The --seed value: a non-negative integer, as numpy's generators need."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _checked(make, *args, **kwargs):
    """`make(*args, **kwargs)`, for an object that checks the flag values
    it is built from: its ValueError for a bad value is a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> None:
    spec = synthdata.SynthSpec(years=args.years)
    _checked(spec.grid)
    os.makedirs(args.out, exist_ok=True)
    field = synthdata.gen_sst(spec, args.seed)
    geogrid.save_sst(field, os.path.join(args.out, "sst"))
    sts, labels = synthdata.gen_stations(spec, args.seed)
    stations.write_stations_csv(sts, os.path.join(args.out, "stations.csv"))
    y_onset, _ = synthdata.regime_targets(sts, labels)
    indices = synthdata.gen_global_indices(args.seed, y_onset)
    forecast.write_indices_csv(indices, field.spec.t0, os.path.join(args.out, "indices.csv"))
    area_a, area_b = spec.planted_areas()
    rl_env.save_areas(area_a, area_b, os.path.join(args.out, "planted_areas.json"))
    # the initial areas sit 2 degrees off the planted ones, A to the north-west
    rl_env.save_areas(area_a.shifted(2.0, -2.0), area_b.shifted(-2.0, 2.0),
                      os.path.join(args.out, "initial_areas.json"))
    print(f"world written to {args.out}")


def _cmd_cluster(args) -> None:
    params = _checked(stations.ClusterParams, d=args.d, n=args.n)
    sts = stations.read_stations_csv(args.stations)
    usable = len(stations.qc_filter(sts))
    if usable < 2:
        raise ConfigError(f"{args.stations} has {usable} usable station(s) after QC; "
                          f"clustering needs at least 2")
    clusters = stations.run_clustering(sts, params)
    stations.write_clusters_csv(clusters, args.out)
    print(f"{len(clusters)} clusters written to {args.out}")


def _cluster_targets(args, t0: str, nt: int, ids, rest: bool = False) -> list[np.ndarray]:
    """Mean rain over the usable stations (kept by QC, then imputed) of
    the clusters `ids` and, with `rest`, of every other cluster in the
    clusters CSV. The stations' axis must be (t0, nt), the other inputs'."""
    sts = stations.read_stations_csv(args.stations)
    if (sts[0].t0, len(sts[0].rain)) != (t0, nt):
        raise ConfigError(
            f"station axis ({sts[0].t0}, {len(sts[0].rain)} months) in {args.stations} "
            f"!= the other inputs' axis ({t0}, {nt} months)")
    usable = [stations.impute_monthly_median(st) for st in stations.qc_filter(sts)]
    membership = stations.read_clusters_csv(args.clusters)
    unknown = sorted(set(ids) - set(membership))
    if unknown:
        raise ConfigError(f"clusters {unknown} are not in {args.clusters}")
    targets = []
    groups = [set(ids)] + ([set(membership) - set(ids)] if rest else [])
    for side, group in zip(("onset", "retreat"), groups):
        if not group:  # only --onset-clusters can leave a side empty
            raise ConfigError(f"--onset-clusters leaves the {side} target with no cluster "
                              f"in {args.clusters}")
        members = set().union(*(membership[c] for c in group))
        try:
            targets.append(stations.cluster_mean_series(members, usable))
        except ValueError as exc:
            raise ConfigError(f"clusters {sorted(group)} have no usable stations "
                              f"in {args.stations}") from exc
    return targets


def _load_world(args, mode: str = rl_env.SHIFT_ONLY, **env_flags):
    """The SST field, the onset and retreat targets on its axis, and the
    environment config of the areas file, --min-ocean and `env_flags`."""
    field = geogrid.load_sst(args.sst)
    y_onset, y_retreat = _cluster_targets(args, field.spec.t0, field.spec.nt,
                                          args.onset_clusters, rest=True)
    init_a, init_b = rl_env.load_areas(args.areas)
    env_config = _checked(rl_env.EnvConfig, mode, field.spec.domain(), init_a, init_b,
                          min_ocean=args.min_ocean, **env_flags)
    return field, y_onset, y_retreat, env_config


def _cmd_optimize(args) -> None:
    field, y_onset, y_retreat, env_config = _load_world(
        args, args.mode, episode_len=args.episode_len, jitter=args.jitter)
    dqn_config = _checked(dqn.DQNConfig, total_timesteps=args.timesteps, seed=args.seed)
    factory = lambda: rl_env.AreaEnv(field, y_onset, y_retreat, env_config)
    best_areas, best_q, history = dqn.train(factory, dqn_config)
    os.makedirs(args.out, exist_ok=True)
    rl_env.save_areas(*best_areas, os.path.join(args.out, "best_areas.json"))
    dqn.write_history_csv(history, os.path.join(args.out, "history.csv"))
    print(f"best q = {best_q:.4f}; outputs in {args.out}")


def _cmd_evaluate(args) -> None:
    field, y_onset, y_retreat, env = _load_world(args)
    report = index.evaluate_pair(field, env.init_a, env.init_b, y_onset, y_retreat,
                                 min_ocean=env.min_ocean)
    os.makedirs(args.out, exist_ok=True)
    index.write_objective_csv(report, os.path.join(args.out, "objective.csv"))
    if report.valid:
        z = index.normalise_series(index.raw_index(field, env.init_a, env.init_b))
        index.write_index_csv(z, field.spec.t0, os.path.join(args.out, "index.csv"))
        print(f"q = {report.q:.4f} (r_onset={report.r_onset:.3f}, "
              f"r_retreat={report.r_retreat:.3f})")
    else:
        print(f"invalid pair: {report.violation}")


def _cmd_oracle(args) -> None:
    field, y_onset, y_retreat, env = _load_world(args)
    (best_a, best_b), best_q = dqn.exhaustive_search(
        field, y_onset, y_retreat, env.init_a, env.init_b,
        domain=env.domain, min_ocean=env.min_ocean,
    )
    os.makedirs(args.out, exist_ok=True)
    rl_env.save_areas(best_a, best_b, os.path.join(args.out, "best_areas.json"))
    print(f"oracle q = {best_q:.4f}; areas in {args.out}/best_areas.json")


def _parse_fold(text: str) -> forecast.FoldSpec:
    try:
        train, val, test = text.split(":")
        lo, hi = train.split("-")
        return forecast.FoldSpec(train=(int(lo), int(hi)),
                                 val=(int(val), int(val)),
                                 test=(int(test), int(test)))
    except ValueError as exc:
        raise ConfigError(f"bad fold spec {text!r}: {exc}") from exc


def _cmd_forecast(args) -> None:
    indices, t0 = forecast.read_indices_csv(args.indices)
    nt = len(next(iter(indices.values())))
    (target,) = _cluster_targets(args, t0, nt, {args.cluster})
    ne = index.read_index_csv(args.ne_index, t0, nt)
    folds = [_parse_fold(f) for f in args.fold or []] or [forecast.FOLD1, forecast.FOLD2]
    grid = ([forecast.ForecasterConfig(hidden=16, layers=1, dropout=0.0)]
            if args.small_grid else forecast.default_grid())
    try:
        rows = forecast.ablation_experiment(args.cluster, target, geogrid.year_axis(t0, nt),
                                            indices, ne, folds, grid, seed=args.seed)
    except SkippedCluster as exc:
        print(f"skipped: {exc}")
        forecast.write_report_csv([], args.out)
        return
    if not args.with_ne:
        rows = [r for r in rows if r["arm"] == "base"]
    forecast.write_report_csv(rows, args.out)
    for r in rows:
        print(f"cluster {r['cluster_id']} fold {r['fold']} {r['arm']}: "
              f"RMSE {r['rmse_mm_month']:.2f} mm/month")

