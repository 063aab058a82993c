"""Outside-in span tracer: wraps the package's public functions and methods
from the benchmark side, records one span per call (name, start, end,
parent) in memory, and derives per-layer self time, call counts and the
counters the per-layer metrics need.

Nothing under src/ is edited: `install` swaps module and class attributes
for timing wrappers and `uninstall` puts the originals back. Calls that go
through a module attribute (`geogrid.area_mean_series(...)`) or a method
(`env.step(...)`) pick the wrappers up; that is how every layer of the
package calls the next one.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from nemonsoon import dqn, forecast, geogrid, index, rl_env, stations

# (owner, attribute, span name). Module functions and class methods alike;
# the LSTM methods get a per-config suffix at call time.
TRACED = [
    (geogrid, "load_sst", "geogrid.load_sst"),
    (geogrid, "area_mean_series", "geogrid.area_mean_series"),
    (geogrid, "ocean_fraction", "geogrid.ocean_fraction"),
    (stations, "read_stations_csv", "stations.read_stations_csv"),
    (stations, "qc_filter", "stations.qc_filter"),
    (stations, "impute_monthly_median", "stations.impute_monthly_median"),
    (stations, "run_clustering", "stations.run_clustering"),
    (stations, "write_clusters_csv", "stations.write_clusters_csv"),
    (stations, "read_clusters_csv", "stations.read_clusters_csv"),
    (index, "evaluate_pair", "index.evaluate_pair"),
    (index, "raw_index", "index.raw_index"),
    (index, "normalise_series", "index.normalise_series"),
    (index, "write_objective_csv", "index.write_objective_csv"),
    (index, "write_index_csv", "index.write_index_csv"),
    (rl_env, "apply_action", "rl_env.apply_action"),
    (rl_env.AreaEnv, "step", "rl_env.AreaEnv.step"),
    (rl_env.AreaEnv, "reset", "rl_env.AreaEnv.reset"),
    (rl_env, "load_areas", "rl_env.load_areas"),
    (rl_env, "save_areas", "rl_env.save_areas"),
    (dqn, "train", "dqn.train"),
    (dqn, "act", "dqn.act"),
    (dqn, "train_step", "dqn.train_step"),
    (dqn, "td_targets", "dqn.td_targets"),
    (dqn.QNetwork, "loss_and_grads", "dqn.QNetwork.loss_and_grads"),
    (dqn.Adam, "step", "dqn.Adam.step"),
    (dqn, "exhaustive_search", "dqn.exhaustive_search"),
    (dqn, "write_history_csv", "dqn.write_history_csv"),
    (forecast, "read_indices_csv", "forecast.read_indices_csv"),
    (forecast, "ablation_experiment", "forecast.ablation_experiment"),
    (forecast, "grid_search", "forecast.grid_search"),
    (forecast, "train_forecaster", "forecast.train_forecaster"),
    (forecast.LSTMForecaster, "forward", "forecast.LSTMForecaster.forward"),
    (forecast.LSTMForecaster, "loss_and_grads", "forecast.LSTMForecaster.loss_and_grads"),
    (forecast, "write_report_csv", "forecast.write_report_csv"),
]

_PER_CONFIG = {"forecast.LSTMForecaster.forward", "forecast.LSTMForecaster.loss_and_grads"}


def config_label(cfg) -> str:
    """Short name of a forecaster config, e.g. h32l2."""
    return f"h{cfg.hidden}l{cfg.layers}"


class Tracer:
    """In-memory span recorder. One instance per traced pass."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index or None]
        self._stack: list = []       # [span index, time covered by children]
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.areas: list = []        # (field spec, area) per area_mean_series call
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append([idx, 0.0])
        return idx

    def _exit(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        _, children = self._stack.pop()
        self.self_s[span[0]] += end - span[1] - children
        self.calls[span[0]] += 1

    def _charge_parent(self, idx: int) -> None:
        """Count the span and its counter bookkeeping as child time of the
        enclosing span, so neither lands in the parent's self time."""
        if self._stack:
            self._stack[-1][1] += perf_counter() - self.spans[idx][1]

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return None if parent is None else self.spans[parent][0]

    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        per_config = name in _PER_CONFIG

        def wrapper(*args, **kwargs):
            span_name = f"{name}.{config_label(args[0].config)}" if per_config else name
            idx = tracer._enter(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(idx)
                if observe is not None and result is not None:
                    observe(tracer, idx, args, result)
                tracer._charge_parent(idx)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in TRACED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# Counters taken where the work happens. Each runs after its span has
# closed and before the parent is charged, so its cost lands in no layer's
# self time.

def _observe_area_mean(tracer, idx, args, result):
    tracer.areas.append((args[0].spec, args[1]))


def _observe_load_sst(tracer, idx, args, result):
    tracer.counts["geogrid.load_sst.bytes"] += result.values.nbytes


def _observe_evaluate(tracer, idx, args, result):
    tracer.counts["index.evaluate_pair.valid"] += bool(result.valid)
    if tracer.parent_name(idx) == "rl_env.AreaEnv.step":
        tracer.counts["rl_env.evals_in_step"] += 1


def _observe_apply(tracer, idx, args, result):
    tracer.counts["rl_env.apply_action.accepted"] += result is not None


def _observe_train_forecaster(tracer, idx, args, result):
    _, curve = result
    tracer.counts["forecast.train_forecaster.epochs"] += len(curve) - 1


_OBSERVERS = {
    "geogrid.area_mean_series": _observe_area_mean,
    "geogrid.load_sst": _observe_load_sst,
    "index.evaluate_pair": _observe_evaluate,
    "rl_env.apply_action": _observe_apply,
    "forecast.train_forecaster": _observe_train_forecaster,
}


def gathered_bytes(areas: list) -> int:
    """Bytes area_mean_series gathers: nt x cells x 4 (float32), computed
    from each call's area with the package's own rect-to-cell rule. Unique
    areas are counted once and multiplied, because the rule is slow."""
    total = 0
    for (spec, area), n in Counter(areas).items():
        total += n * spec.nt * len(geogrid.area_cells(area, spec)) * 4
    return total
