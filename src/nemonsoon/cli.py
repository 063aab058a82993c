"""Command-line entry points wiring the pipeline end to end.

Subcommands: synth, cluster, optimize, evaluate, forecast, oracle.
Exit codes: 0 success, 2 configuration error, 1 runtime error.
A JSON config file (--config) supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import dqn, forecast, geogrid, index, rl_env, stations, synthdata
from .errors import ConfigError, NemonsoonError, SkippedCluster
from .geogrid import Rect


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


def dispatch(argv: list[str]) -> int:
    try:
        parser = _build_parser(_load_config(argv))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        if not hasattr(args, "handler"):
            parser.print_help()
            return 2
        args.handler(args)
    except (ConfigError, FileNotFoundError) as exc:
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
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config supplying flag defaults")
        p.add_argument("--seed", type=int, default=config.get("seed", 0))
        return p

    p = add("synth", "generate a synthetic world (SST grid, stations, indices)")
    p.add_argument("--out", required="out" not in config, default=config.get("out"))
    p.add_argument("--years", type=int, default=config.get("years", 20))
    p.set_defaults(handler=_cmd_synth)

    p = add("cluster", "hierarchically cluster rainfall stations")
    p.add_argument("--stations", required="stations" not in config,
                   default=config.get("stations"))
    p.add_argument("--d", type=float, default=config.get("d", 2.0))
    p.add_argument("--n", type=int, default=config.get("n", 2))
    p.add_argument("--out", default=config.get("out", "clusters.csv"))
    p.set_defaults(handler=_cmd_cluster)

    p = add("optimize", "train the DQN to place the index areas")
    _add_world_args(p, config)
    p.add_argument("--areas", required="areas" not in config, default=config.get("areas"),
                   help="initial areas JSON")
    p.add_argument("--mode", choices=[rl_env.SHIFT_ONLY, rl_env.SHIFT_AND_RESIZE],
                   default=config.get("mode", rl_env.SHIFT_ONLY))
    p.add_argument("--timesteps", type=int, default=config.get("timesteps", 20000))
    p.add_argument("--episode-len", type=int, default=config.get("episode_len", 64))
    p.add_argument("--jitter", type=int, default=config.get("jitter", 2))
    p.add_argument("--out", default=config.get("out", "."))
    p.set_defaults(handler=_cmd_optimize)

    p = add("evaluate", "score an areas JSON and export its index series")
    _add_world_args(p, config)
    p.add_argument("--areas", required="areas" not in config, default=config.get("areas"))
    p.add_argument("--out", default=config.get("out", "."))
    p.set_defaults(handler=_cmd_evaluate)

    p = add("forecast", "LSTM ablation for one cluster")
    p.add_argument("--stations", required="stations" not in config,
                   default=config.get("stations"))
    p.add_argument("--clusters", required="clusters" not in config,
                   default=config.get("clusters"))
    p.add_argument("--indices", required="indices" not in config,
                   default=config.get("indices"))
    p.add_argument("--ne-index", required="ne_index" not in config,
                   default=config.get("ne_index"),
                   help="index CSV (year,month,z) with the candidate NE index")
    p.add_argument("--cluster", type=int, required="cluster" not in config,
                   default=config.get("cluster"))
    p.add_argument("--with-ne", action="store_true",
                   default=config.get("with_ne", False))
    p.add_argument("--fold", action="append", default=config.get("folds"),
                   help="fold as TRAINLO-TRAINHI:VALYEAR:TESTYEAR (repeatable)")
    p.add_argument("--small-grid", action="store_true",
                   default=config.get("small_grid", False),
                   help="single small hyperparameter config instead of the full grid")
    p.add_argument("--out", default=config.get("out", "report.csv"))
    p.set_defaults(handler=_cmd_forecast)

    p = add("oracle", "exhaustive shift-lattice search (brute-force optimum)")
    _add_world_args(p, config)
    p.add_argument("--areas", required="areas" not in config, default=config.get("areas"))
    p.add_argument("--step", type=float, default=config.get("step", 0.5))
    p.add_argument("--out", default=config.get("out", "."))
    p.set_defaults(handler=_cmd_oracle)

    return parser


def _add_world_args(p, config):
    p.add_argument("--sst", required="sst" not in config, default=config.get("sst"))
    p.add_argument("--stations", required="stations" not in config,
                   default=config.get("stations"))
    p.add_argument("--clusters", required="clusters" not in config,
                   default=config.get("clusters"))
    p.add_argument("--onset-clusters", default=config.get("onset_clusters", "1,2,3,4"),
                   help="comma-separated cluster ids feeding the onset target")
    p.add_argument("--min-ocean", type=float, default=config.get("min_ocean", 0.8))


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> None:
    spec = synthdata.SynthSpec(years=args.years)
    os.makedirs(args.out, exist_ok=True)
    field = synthdata.gen_sst(spec, args.seed)
    geogrid.save_sst(field, os.path.join(args.out, "sst"))
    sts, labels = synthdata.gen_stations(spec, args.seed)
    stations.write_stations_csv(sts, os.path.join(args.out, "stations.csv"))
    y_onset, _ = synthdata.regime_targets(sts, labels)
    indices = synthdata.gen_global_indices(spec, args.seed, y_onset)
    forecast.write_indices_csv(indices, spec.t0, os.path.join(args.out, "indices.csv"))
    area_a, area_b = spec.planted_areas()
    rl_env.save_areas(area_a, area_b, os.path.join(args.out, "planted_areas.json"))
    shift = 2.0
    init_a = geogrid.AreaSet.of(Rect(spec.rect_a.lat_min + shift, spec.rect_a.lat_max + shift,
                                     spec.rect_a.lon_min - shift, spec.rect_a.lon_max - shift))
    init_b = geogrid.AreaSet.of(Rect(spec.rect_b.lat_min - shift, spec.rect_b.lat_max - shift,
                                     spec.rect_b.lon_min + shift, spec.rect_b.lon_max + shift))
    rl_env.save_areas(init_a, init_b, os.path.join(args.out, "initial_areas.json"))
    print(f"world written to {args.out}")


def _cmd_cluster(args) -> None:
    sts = stations.read_stations_csv(args.stations)
    params = stations.ClusterParams(d=args.d, n=args.n)
    clusters = stations.run_clustering(sts, params)
    stations.write_clusters_csv(clusters, args.out)
    print(f"{len(clusters)} clusters written to {args.out}")


def _load_world(args):
    field = geogrid.load_sst(args.sst)
    sts = [stations.impute_monthly_median(st)
           for st in stations.qc_filter(stations.read_stations_csv(args.stations))]
    membership = stations.read_clusters_csv(args.clusters)
    onset_ids = {int(tok) for tok in str(args.onset_clusters).split(",") if tok.strip()}
    onset_members = set().union(*(membership[c] for c in membership if c in onset_ids))
    retreat_members = set().union(*(membership[c] for c in membership if c not in onset_ids))
    if not onset_members or not retreat_members:
        raise ConfigError("onset/retreat cluster split leaves one side empty")
    y_onset = np.mean([st.rain for st in sts if st.id in onset_members], axis=0)
    y_retreat = np.mean([st.rain for st in sts if st.id in retreat_members], axis=0)
    if len(y_onset) != field.spec.nt:
        raise ConfigError(
            f"station axis ({len(y_onset)} months) != SST axis ({field.spec.nt})")
    return field, y_onset, y_retreat


def _cmd_optimize(args) -> None:
    field, y_onset, y_retreat = _load_world(args)
    init_a, init_b = rl_env.load_areas(args.areas)
    env_config = rl_env.EnvConfig(
        mode=args.mode, domain=field.spec.domain(), init_a=init_a, init_b=init_b,
        episode_len=args.episode_len, min_ocean=args.min_ocean, jitter=args.jitter,
    )
    dqn_config = dqn.DQNConfig(total_timesteps=args.timesteps, seed=args.seed)
    factory = lambda: rl_env.AreaEnv(field, y_onset, y_retreat, env_config)
    best_areas, best_q, history = dqn.train(factory, dqn_config)
    os.makedirs(args.out, exist_ok=True)
    rl_env.save_areas(*best_areas, os.path.join(args.out, "best_areas.json"))
    dqn.write_history_csv(history, os.path.join(args.out, "history.csv"))
    print(f"best q = {best_q:.4f}; outputs in {args.out}")


def _cmd_evaluate(args) -> None:
    field, y_onset, y_retreat = _load_world(args)
    area_a, area_b = rl_env.load_areas(args.areas)
    report = index.evaluate_pair(field, area_a, area_b, y_onset, y_retreat,
                                 min_ocean=args.min_ocean)
    os.makedirs(args.out, exist_ok=True)
    index.write_objective_csv(report, os.path.join(args.out, "objective.csv"))
    if report.valid:
        z = index.normalise_series(index.raw_index(field, area_a, area_b))
        index.write_index_csv(z, field.spec.t0, os.path.join(args.out, "index.csv"))
        print(f"q = {report.q:.4f} (r_onset={report.r_onset:.3f}, "
              f"r_retreat={report.r_retreat:.3f})")
    else:
        print(f"invalid pair: {report.violation}")


def _cmd_oracle(args) -> None:
    field, y_onset, y_retreat = _load_world(args)
    template_a, template_b = rl_env.load_areas(args.areas)
    (best_a, best_b), best_q = dqn.exhaustive_search(
        field, y_onset, y_retreat, template_a, template_b,
        domain=field.spec.domain(), step=args.step, min_ocean=args.min_ocean,
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
    sts = [stations.impute_monthly_median(st)
           for st in stations.qc_filter(stations.read_stations_csv(args.stations))]
    membership = stations.read_clusters_csv(args.clusters)
    if args.cluster not in membership:
        raise ConfigError(f"cluster {args.cluster} not in {args.clusters}")
    members = [st for st in sts if st.id in membership[args.cluster]]
    if not members:
        raise ConfigError(f"cluster {args.cluster} has no usable stations in {args.stations}")
    target = np.mean([st.rain for st in members], axis=0)
    t0 = members[0].t0
    years = geogrid.year_axis(t0, len(target))

    indices, idx_t0 = forecast.read_indices_csv(args.indices)
    if idx_t0 != t0 or any(len(v) != len(target) for v in indices.values()):
        raise ConfigError("indices CSV is not aligned with the station axis")
    ne = _read_index_series(args.ne_index, t0, len(target))

    folds = [_parse_fold(f) if isinstance(f, str) else f
             for f in (args.fold or [])] or [forecast.FOLD1, forecast.FOLD2]
    grid = ([forecast.ForecasterConfig(hidden=16, layers=1, dropout=0.0)]
            if args.small_grid else forecast.default_grid())
    try:
        rows = forecast.ablation_experiment(
            args.cluster, target, years, indices, ne, folds, grid, seed=args.seed)
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


def _read_index_series(path: str, t0: str, nt: int) -> np.ndarray:
    """An index CSV's z on the axis (t0, nt); every month needs a finite z."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["year", "month", "z"]:
            raise ConfigError(f"index CSV header must be year,month,z: {path}")
        rows = []
        for lineno, r in enumerate(reader, start=2):
            try:
                rows.append((int(r["year"]), int(r["month"]), float(r["z"])))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad index CSV row at line {lineno} of {path}: {exc}") from exc
    out = np.full(nt, np.nan)
    _, _, slots = geogrid.month_slots([r[0] for r in rows], [r[1] for r in rows], t0)
    for (_, _, z), k in zip(rows, slots.tolist()):
        if 0 <= k < nt:
            out[k] = z
    gaps = np.flatnonzero(~np.isfinite(out))
    if gaps.size:
        y, m = geogrid.year_axis(t0, nt)[gaps[0]], geogrid.month_axis(t0, nt)[gaps[0]]
        raise ConfigError(f"index CSV has no finite z for {y}-{m:02d}")
    return out
