"""LSTM forecasting harness: feature selection, sliding windows, a numpy
LSTM with hand-rolled backpropagation through time, grid search with early
stopping, and the with/without-index ablation."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dqn import flat_buffer
from .errors import (
    FormatError,
    NonFiniteLossError,
    ShapeMismatchError,
    SkippedCluster,
    ZeroVarianceError,
)
from .geogrid import atomic_write, month_axis, month_slots, year_axis
from .index import pearson

WINDOW = 24
HORIZON = 12

HIDDEN_GRID = (16, 32, 64)
LAYER_GRID = (1, 2, 3)
DROPOUT_GRID = (0.0, 0.2, 0.5)


@dataclass(frozen=True)
class ForecasterConfig:
    hidden: int = 16
    layers: int = 1
    dropout: float = 0.0
    lr: float = 0.01
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0


@dataclass(frozen=True)
class FoldSpec:
    """Inclusive year ranges for train / validation / test."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]

    def __post_init__(self):
        spans = [self.train, self.val, self.test]
        for lo, hi in spans:
            if lo > hi:
                raise ValueError(f"bad year range {lo}-{hi}")
        if not (self.train[1] < self.val[0] <= self.val[1] < self.test[0]):
            raise ValueError("train, val, test ranges must be disjoint and ordered")


FOLD1 = FoldSpec(train=(1982, 2019), val=(2020, 2020), test=(2021, 2021))
FOLD2 = FoldSpec(train=(1982, 2022), val=(2023, 2023), test=(2024, 2024))


def default_grid() -> list[ForecasterConfig]:
    """The full 27-combination hyperparameter grid, smallest models first."""
    grid = [
        ForecasterConfig(hidden=h, layers=l, dropout=d)
        for h in HIDDEN_GRID for l in LAYER_GRID for d in DROPOUT_GRID
    ]
    grid.sort(key=lambda c: (c.hidden * c.layers, c.layers, c.dropout))
    return grid


# ---------------------------------------------------------------------------
# Features and windows
# ---------------------------------------------------------------------------

def select_features(features: dict[str, np.ndarray], target: np.ndarray,
                    threshold: float = 0.6) -> list[str]:
    """Names of columns whose absolute Pearson correlation with the target
    strictly exceeds the threshold. Call with training-fold rows only."""
    kept = []
    for name, col in features.items():
        try:
            r = pearson(col, target)
        except ZeroVarianceError:
            continue
        if abs(r) > threshold:
            kept.append(name)
    return kept


def make_windows(features: np.ndarray, target: np.ndarray,
                 window: int = WINDOW, horizon: int = HORIZON):
    """Stride-1 sliding windows: inputs (N, window, F), targets (N, horizon).

    Sample k covers input months [k, k+window) and target months
    [k+window, k+window+horizon), chronologically ordered.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] == len(target):
        pass
    elif features.shape[1] == len(target):
        features = features.T
    else:
        raise ShapeMismatchError("features and target lengths differ")
    t_len = len(target)
    n = max(0, t_len - window - horizon + 1)
    inputs = np.stack([features[k:k + window] for k in range(n)]) if n else \
        np.zeros((0, window, features.shape[1]))
    targets = np.stack([np.asarray(target, dtype=float)[k + window:k + window + horizon]
                        for k in range(n)]) if n else np.zeros((0, horizon))
    return inputs, targets


def rmse(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Root mean squared error pooled over every element."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if observed.shape != predicted.shape:
        raise ShapeMismatchError(f"{observed.shape} vs {predicted.shape}")
    return float(np.sqrt(np.mean((observed - predicted) ** 2)))


# ---------------------------------------------------------------------------
# LSTM (numpy, BPTT)
# ---------------------------------------------------------------------------

class LSTMForecaster:
    """Stacked LSTM with a linear head mapping the final hidden state to a
    12-month forecast. Gates ordered (input, forget, candidate, output).

    Parameters per layer: Wx (in, 4H), Wh (H, 4H), b (4H,); head Wy, by.
    `params` lists them in that order as views into one `flat` buffer.
    Forget-gate bias initialized to +1. All math in float64.
    """

    def __init__(self, in_dim: int, config: ForecasterConfig,
                 rng: np.random.Generator, out_dim: int = HORIZON):
        self.config = config
        self.in_dim = in_dim
        self.out_dim = out_dim
        h = config.hidden
        arrays = []
        d_in = in_dim
        for _ in range(config.layers):
            k = 1.0 / np.sqrt(h)
            wx = rng.uniform(-k, k, size=(d_in, 4 * h))
            wh = rng.uniform(-k, k, size=(h, 4 * h))
            b = np.zeros(4 * h)
            b[h:2 * h] = 1.0
            arrays.extend([wx, wh, b])
            d_in = h
        k = 1.0 / np.sqrt(h)
        arrays.append(rng.uniform(-k, k, size=(h, out_dim)))
        arrays.append(np.zeros(out_dim))
        self.flat, self.params = flat_buffer(arrays)

    # -- forward -------------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None):
        """Predictions (N, out_dim); keeps caches for backward."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeMismatchError(
                f"expected input (N, T, {self.in_dim}), got {x.shape}")
        n, t_len, _ = x.shape
        h_dim = self.config.hidden
        self._cache = {"x": x, "layers": [], "outputs": [], "masks": []}
        seq = x
        for layer in range(self.config.layers):
            wx, wh, b = self.params[3 * layer:3 * layer + 3]
            h = np.zeros((n, h_dim))
            c = np.zeros((n, h_dim))
            steps = []
            outputs = np.zeros((n, t_len, h_dim))
            for t in range(t_len):
                a = seq[:, t] @ wx + h @ wh + b
                i = _sigmoid(a[:, :h_dim])
                f = _sigmoid(a[:, h_dim:2 * h_dim])
                g = np.tanh(a[:, 2 * h_dim:3 * h_dim])
                o = _sigmoid(a[:, 3 * h_dim:])
                c_prev = c
                c = f * c_prev + i * g
                h = o * np.tanh(c)
                steps.append((seq[:, t], i, f, g, o, c_prev, c))
                outputs[:, t] = h
            self._cache["layers"].append(steps)
            self._cache["outputs"].append(outputs)
            if layer < self.config.layers - 1:
                keep = 1.0 - self.config.dropout
                if training and self.config.dropout > 0:
                    if rng is None:
                        raise ValueError("training dropout needs an rng")
                    mask = (rng.random(outputs.shape) < keep) / keep
                else:
                    mask = np.ones_like(outputs)
                self._cache["masks"].append(mask)
                seq = outputs * mask
            else:
                seq = outputs
        final_h = seq[:, -1]
        self._cache["final_h"] = final_h
        wy, by = self.params[-2], self.params[-1]
        return final_h @ wy + by

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray,
                       training: bool = False,
                       rng: np.random.Generator | None = None):
        """MSE loss over all outputs plus gradients in parameter order."""
        pred = self.forward(x, training=training, rng=rng)
        y = np.asarray(y, dtype=float)
        if pred.shape != y.shape:
            raise ShapeMismatchError(f"targets {y.shape} vs predictions {pred.shape}")
        n = y.shape[0]
        err = pred - y
        loss = float(np.mean(err * err))
        if not np.isfinite(loss):
            raise NonFiniteLossError(f"forecast loss became {loss}")

        h_dim = self.config.hidden
        wy = self.params[-2]
        dout = 2.0 * err / err.size
        grads = [np.zeros_like(p) for p in self.params]
        grads[-2] = self._cache["final_h"].T @ dout
        grads[-1] = dout.sum(axis=0)

        t_len = x.shape[1]
        # dh arriving at each layer's output sequence from above
        dseq_above = np.zeros((n, t_len, h_dim))
        dseq_above[:, -1] = dout @ wy.T
        for layer in range(self.config.layers - 1, -1, -1):
            wx, wh, _ = self.params[3 * layer:3 * layer + 3]
            dwx, dwh, db = grads[3 * layer:3 * layer + 3]
            steps = self._cache["layers"][layer]
            outputs = self._cache["outputs"][layer]
            if layer < self.config.layers - 1:
                dseq_above = dseq_above * self._cache["masks"][layer]
            dseq_below = np.zeros((n, t_len, wx.shape[0]))
            dh_next = np.zeros((n, h_dim))
            dc_next = np.zeros((n, h_dim))
            for t in range(t_len - 1, -1, -1):
                x_t, i, f, g, o, c_prev, c = steps[t]
                dh = dseq_above[:, t] + dh_next
                tc = np.tanh(c)
                dc = dc_next + dh * o * (1.0 - tc * tc)
                da = np.concatenate([
                    dc * g * i * (1.0 - i),
                    dc * c_prev * f * (1.0 - f),
                    dc * i * (1.0 - g * g),
                    dh * tc * o * (1.0 - o),
                ], axis=1)
                dwx += x_t.T @ da
                if t > 0:  # h_{-1} is zero
                    dwh += outputs[:, t - 1].T @ da
                db += da.sum(axis=0)
                dseq_below[:, t] = da @ wx.T
                dh_next = da @ wh.T
                dc_next = dc * f
            dseq_above = dseq_below
        return loss, grads

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x, training=False)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


GRAD_CLIP = 5.0  # global-norm clip keeps plain GD at lr 0.01 stable


BATCH_SIZE = 32


def train_forecaster(train_x, train_y, val_x, val_y, config: ForecasterConfig,
                     rng: np.random.Generator | None = None):
    """Minibatch gradient descent (BPTT) with early stopping on validation
    loss. Returns (model-with-best-val-params, validation loss curve).
    """
    rng = rng or np.random.default_rng(config.seed)
    model = LSTMForecaster(train_x.shape[2], config, rng)
    best_params = model.flat.copy()
    best_val = _val_loss(model, val_x, val_y)
    curve = [best_val]
    stale = 0
    n = train_x.shape[0]
    for _ in range(config.max_epochs):
        order = rng.permutation(n)
        for lo in range(0, n, BATCH_SIZE):
            sel = order[lo:lo + BATCH_SIZE]
            _, grads = model.loss_and_grads(train_x[sel], train_y[sel],
                                            training=True, rng=rng)
            norm = np.sqrt(sum(float((g * g).sum()) for g in grads))
            scale = config.lr * (GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0)
            model.flat -= scale * np.concatenate([g.ravel() for g in grads])
        val = _val_loss(model, val_x, val_y)
        curve.append(val)
        if val < best_val - 1e-12:
            best_val = val
            best_params = model.flat.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.flat[:] = best_params
    return model, curve


def _val_loss(model: LSTMForecaster, val_x, val_y) -> float:
    pred = model.predict(val_x)
    return float(np.mean((pred - np.asarray(val_y, dtype=float)) ** 2))


def grid_search(train_x, train_y, val_x, val_y,
                grid: list[ForecasterConfig], seed: int):
    """Train every configuration; return (best model, best config) by
    validation loss, ties going to the earlier (smaller) entry."""
    best = None
    for cfg in grid:
        model, curve = train_forecaster(
            train_x, train_y, val_x, val_y, cfg,
            rng=np.random.default_rng(seed),
        )
        val = min(curve)
        if best is None or val < best[0] - 1e-12:
            best = (val, model, cfg)
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Ablation protocol
# ---------------------------------------------------------------------------

def ablation_experiment(
    cluster_id,
    target: np.ndarray,
    years: np.ndarray,
    candidate_indices: dict[str, np.ndarray],
    ne_index: np.ndarray,
    foldspecs: list[FoldSpec],
    grid: list[ForecasterConfig] | None = None,
    seed: int = 0,
    threshold: float = 0.6,
    include_target_history: bool = True,
) -> list[dict]:
    """Per-fold test RMSE for the base arm (selected features) and the
    base+ne arm (same features plus the candidate index), same seed both
    arms. Raises SkippedCluster if the candidate index misses the
    correlation bar on every fold's training rows."""
    grid = grid or default_grid()
    target = np.asarray(target, dtype=float)
    years = np.asarray(years)
    rows = []
    for fold_no, fold in enumerate(foldspecs, start=1):
        train_rows = (years >= fold.train[0]) & (years <= fold.train[1])
        ne_r = _safe_abs_corr(ne_index[train_rows], target[train_rows])
        if ne_r <= threshold:
            raise SkippedCluster(
                cluster_id,
                f"|corr(NE, target)| = {ne_r:.3f} <= {threshold} on fold {fold_no}",
            )
        selected = select_features(
            {k: v[train_rows] for k, v in candidate_indices.items()},
            target[train_rows], threshold,
        )
        base_cols = {k: candidate_indices[k] for k in selected}
        if include_target_history:
            base_cols["__target_history__"] = target
        ne_cols = dict(base_cols)
        ne_cols["__ne_index__"] = np.asarray(ne_index, dtype=float)
        for arm, cols in (("base", base_cols), ("base+ne", ne_cols)):
            result = _run_fold(cols, target, years, fold, grid, seed)
            rows.append({
                "cluster_id": cluster_id, "fold": fold_no,
                "arm": arm, "rmse_mm_month": result,
            })
    return rows


def _safe_abs_corr(x, y) -> float:
    try:
        return abs(pearson(x, y))
    except ZeroVarianceError:
        return 0.0


def _run_fold(cols: dict[str, np.ndarray], target, years, fold: FoldSpec,
              grid, seed: int) -> float:
    if not cols:
        raise ValueError("no features selected; cannot train")
    train_rows = (years >= fold.train[0]) & (years <= fold.train[1])
    # standardize features and target against training-fold statistics
    matrix = np.column_stack(list(cols.values()))
    mu = matrix[train_rows].mean(axis=0)
    sd = matrix[train_rows].std(axis=0)
    sd[sd == 0] = 1.0
    matrix = (matrix - mu) / sd
    t_mu = target[train_rows].mean()
    t_sd = target[train_rows].std()
    if t_sd == 0:
        raise ZeroVarianceError("target is constant on the training fold")
    target_z = (target - t_mu) / t_sd

    inputs, targets_z = make_windows(matrix, target_z)
    _, targets_raw = make_windows(matrix, target)
    split = _assign_windows(years, fold, n_samples=inputs.shape[0])
    tr, va, te = split
    if not (tr.any() and va.any() and te.any()):
        raise ValueError("a fold split has no samples; check year ranges")
    model, _ = grid_search(inputs[tr], targets_z[tr], inputs[va], targets_z[va],
                           grid, seed)
    pred = model.predict(inputs[te]) * t_sd + t_mu
    return rmse(targets_raw[te], pred)


def _assign_windows(years, fold: FoldSpec, n_samples: int):
    """A sample belongs to a split iff all its target months fall inside
    that split's year range (so no training target month can follow a
    validation or test target month)."""
    def contains(lo, hi, k):
        ys = years[k + WINDOW:k + WINDOW + HORIZON]
        return bool((ys >= lo).all() and (ys <= hi).all())

    tr = np.array([contains(*fold.train, k) for k in range(n_samples)])
    va = np.array([contains(*fold.val, k) for k in range(n_samples)])
    te = np.array([contains(*fold.test, k) for k in range(n_samples)])
    return tr, va, te


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

def write_report_csv(rows: list[dict], path) -> None:
    """Emit `cluster_id,fold,arm,rmse_mm_month`."""
    with atomic_write(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster_id", "fold", "arm", "rmse_mm_month"])
        for row in rows:
            w.writerow([row["cluster_id"], row["fold"], row["arm"],
                        repr(float(row["rmse_mm_month"]))])


def write_indices_csv(indices: dict[str, np.ndarray], t0: str, path) -> None:
    """Emit `index_name,year,month,value` for aligned monthly indices."""
    with atomic_write(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index_name", "year", "month", "value"])
        for name, series in indices.items():
            years = year_axis(t0, len(series))
            months = month_axis(t0, len(series))
            for y, m, v in zip(years, months, series):
                w.writerow([name, int(y), int(m), repr(float(v))])


def read_indices_csv(path) -> tuple[dict[str, np.ndarray], str]:
    """Read aligned monthly indices; returns ({name: series}, t0)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["index_name", "year", "month", "value"]:
            raise FormatError(f"indices CSV header wrong: {reader.fieldnames}")
        rows = []
        for lineno, r in enumerate(reader, start=2):
            try:
                rows.append((r["index_name"], int(r["year"]), int(r["month"]), float(r["value"])))
            except (TypeError, ValueError) as exc:
                raise FormatError(f"bad indices CSV row at line {lineno}: {exc}") from exc
    if not rows:
        raise FormatError("indices CSV has no data rows")
    t0, nt, slots = month_slots([r[1] for r in rows], [r[2] for r in rows])
    out: dict[str, np.ndarray] = {}
    for (name, _, _, v), k in zip(rows, slots.tolist()):
        out.setdefault(name, np.full(nt, np.nan))[k] = v
    for name, series in out.items():
        if np.isnan(series).any():
            raise FormatError(f"index {name!r} has gaps on the common axis")
    return out, t0
