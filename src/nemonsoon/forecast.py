"""LSTM forecasting harness: feature selection, sliding windows, a numpy
LSTM with hand-rolled backpropagation through time, grid search with early
stopping, and the with/without-index ablation."""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .dqn import lane_buffer
from .errors import (
    ConfigError,
    FormatError,
    NonFiniteLossError,
    ShapeMismatchError,
    SkippedCluster,
    ZeroVarianceError,
)
from .geogrid import MonthColumns, monthly_rows, read_csv_rows, write_csv_rows
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
    """Stride-1 sliding windows over (T, F) features and a length-T target:
    inputs (N, window, F), targets (N, horizon).

    Sample k covers input months [k, k+window) and target months
    [k+window, k+window+horizon), chronologically ordered.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[0] != len(target):
        raise ShapeMismatchError(f"features {features.shape} are not (T, F) "
                                 f"for a target of {len(target)} months")
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

    Lanes: given a sequence of K input widths and one rng per lane, the
    model is K independent models on a leading lane axis, run by the same
    numpy calls: `flat` is (K, P), each parameter (K, ...), inputs one
    (N, T, F_k) array per lane and predictions (K, N, out). One model is
    K = 1. Each lane draws its weights from its own rng at its own width.
    np.matmul runs the same GEMM on each slice, so every lane is bit-equal
    to a model of its own, except where the widths differ: layer 0's input
    products run per lane on the unpadded inputs, because a zero-padded
    input changes OpenBLAS's kernel choice (gemv against gemm at width 1)
    and its gemv summation order (at one window, widths 3 and 7). A
    narrower lane's Wx is padded with zero rows in `flat` that are never
    read and never updated.
    """

    def __init__(self, in_dims, config: ForecasterConfig, rngs, out_dim: int = HORIZON):
        self._allocate(in_dims, config, out_dim)
        h = config.hidden
        k = 1.0 / np.sqrt(h)
        for lane, rng in enumerate(rngs):
            arrays = []
            d_in = self.in_dims[lane]
            for _ in range(config.layers):
                wx = rng.uniform(-k, k, size=(d_in, 4 * h))
                wh = rng.uniform(-k, k, size=(h, 4 * h))
                b = np.zeros(4 * h)
                b[h:2 * h] = 1.0
                arrays.extend([wx, wh, b])
                d_in = h
            arrays.extend([rng.uniform(-k, k, size=(h, out_dim)), np.zeros(out_dim)])
            for view, a in zip(self.params, arrays):
                view[lane, :len(a)] = a

    def _allocate(self, in_dims, config: ForecasterConfig, out_dim: int) -> None:
        """Zeroed parameters, one lane per input width."""
        self.in_dims = tuple(int(d) for d in in_dims)
        self.in_dim = max(self.in_dims)
        self.config = config
        self.out_dim = out_dim
        h = config.hidden
        shapes = []
        d_in = self.in_dim
        for _ in range(config.layers):
            shapes += [(d_in, 4 * h), (h, 4 * h), (4 * h,)]
            d_in = h
        shapes += [(h, out_dim), (out_dim,)]
        self.flat, self.params = lane_buffer(len(self.in_dims), shapes)

    def select(self, lanes: list[int]) -> "LSTMForecaster":
        """A copy of the listed lanes as a model of their own, padded only
        up to its own widest lane."""
        model = object.__new__(LSTMForecaster)
        model._allocate([self.in_dims[k] for k in lanes], self.config, self.out_dim)
        for dst, src in zip(model.params, self.params):
            dst[:] = src[lanes, :dst.shape[1]]
        return model

    def __getstate__(self):
        """Pickle the parameters only: pickle would copy each view in
        `params` apart from `flat`, so unpickling rebuilds the views."""
        return self.in_dims, self.config, self.out_dim, self.flat

    def __setstate__(self, state):
        in_dims, config, out_dim, flat = state
        self._allocate(in_dims, config, out_dim)
        self.flat[:] = flat

    # -- forward -------------------------------------------------------------

    def forward(self, xs, training: bool = False, rngs=None):
        """Predictions (K, N, out_dim) given one (N, T, F_k) input per lane;
        keeps caches for backward. Training dropout draws from `rngs`, one
        generator per lane."""
        xs = [np.asarray(a, dtype=float) for a in xs]
        lanes = len(self.in_dims)
        if len(xs) != lanes or any(a.ndim != 3 or a.shape[2] != w or a.shape[:2] != xs[0].shape[:2]
                                   for a, w in zip(xs, self.in_dims)):
            expected = ", ".join(f"(N, T, {w})" for w in self.in_dims)
            got = ", ".join(str(a.shape) for a in xs)
            raise ShapeMismatchError(f"expected input {expected}, got {got}")
        n, t_len = xs[0].shape[:2]
        h_dim = self.config.hidden
        self._cache = {"xs": xs, "layers": [], "masks": []}
        seq = None
        proj = np.empty((lanes, n, 4 * h_dim))
        for layer in range(self.config.layers):
            wx, wh, b = self.params[3 * layer:3 * layer + 3]
            b = b[:, None]
            h = np.zeros((lanes, n, h_dim))
            c = np.zeros((lanes, n, h_dim))
            steps = []
            top = layer == self.config.layers - 1
            # below the top, the h sequence feeds the next layer; backward
            # recomputes each h_{t-1} = o * tanh(c) from the step cache
            outputs = None if top else np.zeros((lanes, n, t_len, h_dim))
            for t in range(t_len):
                if layer:
                    x_t = seq[:, :, t]
                    np.matmul(x_t, wx, out=proj)
                else:
                    x_t = None  # backward reads each lane's input from the cache
                    for k, lane_x in enumerate(xs):
                        np.matmul(lane_x[:, t], wx[k, :lane_x.shape[2]], out=proj[k])
                a = proj + h @ wh + b
                i_f = _sigmoid(a[..., :2 * h_dim])  # elementwise: one call for both gates
                i, f = i_f[..., :h_dim], i_f[..., h_dim:]
                g = np.tanh(a[..., 2 * h_dim:3 * h_dim])
                o = _sigmoid(a[..., 3 * h_dim:])
                c_prev = c
                c = f * c_prev + i * g
                h = o * np.tanh(c)
                steps.append((x_t, i, f, g, o, c_prev, c))
                if not top:
                    outputs[:, :, t] = h
            self._cache["layers"].append(steps)
            if not top:
                keep = 1.0 - self.config.dropout
                if training and self.config.dropout > 0:
                    if rngs is None or any(r is None for r in rngs):
                        raise ValueError("training dropout needs an rng")
                    draws = np.stack([r.random(outputs.shape[1:]) for r in rngs])
                    mask = (draws < keep) / keep
                else:
                    mask = np.ones_like(outputs)
                self._cache["masks"].append(mask)
                seq = outputs * mask
        self._cache["final_h"] = h
        return h @ self.params[-2] + self.params[-1][:, None]

    def loss_and_grads(self, xs, ys, training: bool = False, rngs=None):
        """MSE loss of each lane over its outputs, plus gradients with the
        lane axis in parameter order, each lane's from its own slice only."""
        pred = self.forward(xs, training=training, rngs=rngs)
        y = np.asarray(ys, dtype=float)
        if pred.shape != y.shape:
            raise ShapeMismatchError(f"targets {y.shape} vs predictions {pred.shape}")
        err = pred - y
        losses = np.array([np.mean(e * e) for e in err])
        if not np.isfinite(losses).all():
            raise NonFiniteLossError(f"forecast loss became {losses}")

        lanes, n = err.shape[:2]
        h_dim = self.config.hidden
        dout = 2.0 * err / err[0].size
        grads = [np.zeros_like(p) for p in self.params]
        grads[-2] = self._cache["final_h"].swapaxes(1, 2) @ dout
        grads[-1] = dout.sum(axis=1)

        xs = self._cache["xs"]
        t_len = xs[0].shape[1]
        # dh arriving at each layer's output sequence from above; the top
        # layer gets the head's gradient at its last step only
        dseq_above = None
        dh_top = dout @ self.params[-2].swapaxes(1, 2)
        da = np.empty((lanes, n, 4 * h_dim))
        for layer in range(self.config.layers - 1, -1, -1):
            wx, wh, _ = self.params[3 * layer:3 * layer + 3]
            dwx, dwh, db = grads[3 * layer:3 * layer + 3]
            steps = self._cache["layers"][layer]
            if dseq_above is not None:
                dseq_above *= self._cache["masks"][layer]
            # layer 0's input gradient would be thrown away
            dseq_below = np.zeros((lanes, n, t_len, wx.shape[1])) if layer else None
            wx_t, wh_t = wx.swapaxes(1, 2), wh.swapaxes(1, 2)
            dh_next = dh_top if dseq_above is None else np.zeros((lanes, n, h_dim))
            dc_next = np.zeros((lanes, n, h_dim))
            tc = np.tanh(steps[-1][-1])
            for t in range(t_len - 1, -1, -1):
                x_t, i, f, g, o, c_prev, _ = steps[t]
                dh = dh_next if dseq_above is None else dseq_above[:, :, t] + dh_next
                dc = dc_next + dh * o * (1.0 - tc * tc)
                da[..., :h_dim] = dc * g * i * (1.0 - i)
                da[..., h_dim:2 * h_dim] = dc * c_prev * f * (1.0 - f)
                da[..., 2 * h_dim:3 * h_dim] = dc * i * (1.0 - g * g)
                da[..., 3 * h_dim:] = dh * tc * o * (1.0 - o)
                if layer:
                    dwx += x_t.swapaxes(1, 2) @ da
                else:
                    for k, lane_x in enumerate(xs):
                        dwx[k, :lane_x.shape[2]] += lane_x[:, t].T @ da[k]
                if t > 0:  # h_{-1} is zero
                    tc = np.tanh(c_prev)  # tanh(c_{t-1}), also used at step t - 1
                    dwh += (steps[t - 1][4] * tc).swapaxes(1, 2) @ da
                db += da.sum(axis=1)
                if layer:
                    dseq_below[:, :, t] = da @ wx_t
                dh_next = da @ wh_t
                dc_next = dc * f
            dseq_above = dseq_below
        return losses, grads


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


GRAD_CLIP = 5.0  # global-norm clip keeps plain GD at lr 0.01 stable


BATCH_SIZE = 32


def train_forecaster(train_x, train_y, val_x, val_y, config: ForecasterConfig, rngs):
    """Minibatch gradient descent (BPTT) with early stopping on validation
    loss, the lanes trained together as one stacked model. Each data
    argument is a list with one array per lane (the same windows per lane;
    input widths may differ), and `rngs` holds one rng per lane, which
    draws that lane's initial weights, minibatch orders and dropout masks.
    Returns (models, curves), one per lane: a one-lane model with the
    lane's best validation parameters, and its validation loss curve. Each
    lane keeps its own gradient clip and early stopping, so each entry is
    bit-equal to a run on that lane's data alone. A lane that stops leaves
    the stack.
    """
    tx = [np.asarray(x, dtype=float) for x in train_x]
    vx = [np.asarray(x, dtype=float) for x in val_x]
    ty = np.stack([np.asarray(y, dtype=float) for y in train_y])
    vy = np.stack([np.asarray(y, dtype=float) for y in val_y])
    n = ty.shape[1]
    if any(x.ndim != 3 or x.shape[0] != n for x in tx):
        raise ShapeMismatchError("every lane needs inputs (N, T, F) for the targets' N")
    model = LSTMForecaster([x.shape[2] for x in tx], config, rngs)
    best = model.select(list(range(len(rngs))))  # each active lane's best parameters
    active = list(range(len(rngs)))              # the lane held in each row of `model`
    curves = [[val] for val in _val_losses(model, vx, vy)]
    best_val = [curve[0] for curve in curves]
    stale = [0] * len(rngs)
    done: list = [None] * len(rngs)
    for _ in range(config.max_epochs):
        rows = np.array(active)[:, None]
        lane_rngs = [rngs[k] for k in active]
        orders = np.stack([r.permutation(n) for r in lane_rngs])
        for lo in range(0, n, BATCH_SIZE):
            sel = orders[:, lo:lo + BATCH_SIZE]
            _, grads = model.loss_and_grads([tx[k][s] for k, s in zip(active, sel)],
                                            ty[rows, sel], training=True, rngs=lane_rngs)
            scale = [config.lr * (GRAD_CLIP / norm if norm > GRAD_CLIP else 1.0)
                     for norm in _grad_norms(grads, model.in_dims)]
            model.flat -= np.array(scale)[:, None] * np.concatenate(
                [g.reshape(len(active), -1) for g in grads], axis=1)
        vals = _val_losses(model, [vx[k] for k in active], vy[active])
        stopped = []
        for row, (k, val) in enumerate(zip(active, vals)):
            curves[k].append(val)
            if val < best_val[k] - 1e-12:
                best_val[k] = val
                best.flat[row] = model.flat[row]
                stale[k] = 0
            else:
                stale[k] += 1
                if stale[k] >= config.patience:
                    stopped.append(row)
        if stopped:
            for row in stopped:
                done[active[row]] = best.select([row])
            keep = [row for row in range(len(active)) if row not in stopped]
            active = [active[row] for row in keep]
            if not active:
                break
            model, best = model.select(keep), best.select(keep)
    for row, k in enumerate(active):
        done[k] = best.select([row])
    return done, curves


def _grad_norms(grads, in_dims) -> list[float]:
    """Global gradient norm of each lane over its own parameters only: the
    zero rows padding a narrower lane's Wx would change numpy's pairwise
    sum."""
    norms = []
    for row, width in enumerate(in_dims):
        lane = [grads[0][row, :width], *(g[row] for g in grads[1:])]
        norms.append(np.sqrt(sum(float((g * g).sum()) for g in lane)))
    return norms


def _val_losses(model: LSTMForecaster, val_x, val_y) -> list[float]:
    """Validation MSE of each lane, over that lane only."""
    sq = (model.forward(val_x) - val_y) ** 2
    return [float(np.mean(lane)) for lane in sq]


def grid_search(train_x, train_y, val_x, val_y,
                grid: list[ForecasterConfig], seed: int):
    """Train every configuration on the lanes (lists, as for
    `train_forecaster`) together; return (models, configs), each lane's
    best by validation loss, ties going to the earlier (smaller) entry.

    A one-layer config with dropout > 0 is skipped when its dropout-0 twin
    came earlier: dropout acts only between layers, so it would train
    bit-identically and lose the tie.

    The configs train in parallel, one job per config in a pool of
    min(usable CPUs // BLAS threads, jobs) worker processes; with one
    worker they train in-process and no process starts. Each job draws
    from its own `default_rng(seed)` per lane and the results are walked
    in grid order, so the outcome is bit-identical to training one config
    after another. Workers are forked, so they start without re-importing
    and see the parent's module state; the package starts no Python
    threads, which would make forking unsafe.
    """
    jobs = [cfg for k, cfg in enumerate(grid)
            if not (cfg.layers == 1 and cfg.dropout > 0
                    and replace(cfg, dropout=0.0) in grid[:k])]
    train = partial(_train_config, train_x, train_y, val_x, val_y, seed=seed)
    cpus = len(os.sched_getaffinity(0))
    workers = min(cpus // _blas_threads(cpus), len(jobs))
    if workers <= 1:
        best = _best_per_lane(jobs, map(train, jobs), len(train_x))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_die_with_parent,
                                 initargs=(os.getpid(),)) as pool:
            best = _best_per_lane(jobs, pool.map(train, jobs), len(train_x))
    return [b[1] for b in best], [b[2] for b in best]


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _die_with_parent(parent: int) -> None:
    """Pool initializer: end this worker when the process that forked it
    ends. A forked worker holds the pool's pipe ends too, so it never sees
    them close and would otherwise wait forever once the parent is killed.
    On Linux the kernel sends the worker SIGTERM when its parent dies
    (prctl PR_SET_PDEATHSIG); a parent that died before that was set is
    caught by the check after it."""
    if sys.platform.startswith("linux"):
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:
        os._exit(1)


def _blas_threads(cpus: int) -> int:
    """The threads numpy's OpenBLAS runs on, read as OpenBLAS reads them
    when it loads: the first positive OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS or OMP_NUM_THREADS, else one per usable CPU. Forked
    workers keep that count, and more BLAS threads than cores spin against
    each other (twice the serial time on the full grid at 2 cores)."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


def _train_config(train_x, train_y, val_x, val_y, config: ForecasterConfig, seed: int):
    """One grid job: (models, curves), one entry per lane, trained with a
    fresh `default_rng(seed)` per lane."""
    rngs = [np.random.default_rng(seed) for _ in train_x]
    return train_forecaster(train_x, train_y, val_x, val_y, config, rngs)


def _best_per_lane(jobs, results, lanes: int) -> list[tuple]:
    """(lowest validation loss, model, config) of each lane over `results`
    in grid order; a later config must beat the best by more than 1e-12."""
    best: list = [None] * lanes
    for cfg, (models, curves) in zip(jobs, results):
        for k, (model, curve) in enumerate(zip(models, curves)):
            val = min(curve)
            if best[k] is None or val < best[k][0] - 1e-12:
                best[k] = (val, model, cfg)
    return best


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
        arms = {"base": base_cols, "base+ne": ne_cols}
        results = _run_fold(list(arms.values()), target, years, fold, grid, seed)
        for arm, result in zip(arms, results):
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


def _run_fold(arms: list[dict[str, np.ndarray]], target, years, fold: FoldSpec,
              grid, seed: int) -> list[float]:
    """Test RMSE of each arm (a set of feature columns), the arms trained
    together as lanes of one grid search."""
    if not all(arms):
        raise ValueError("no features selected; cannot train")
    train_rows = (years >= fold.train[0]) & (years <= fold.train[1])
    t_mu = target[train_rows].mean()
    t_sd = target[train_rows].std()
    if t_sd == 0:
        raise ZeroVarianceError("target is constant on the training fold")
    target_z = (target - t_mu) / t_sd
    splits = []  # each arm's (train, validation, test) windows
    for cols in arms:
        # standardize features against training-fold statistics
        matrix = np.column_stack(list(cols.values()))
        mu = matrix[train_rows].mean(axis=0)
        sd = matrix[train_rows].std(axis=0)
        sd[sd == 0] = 1.0
        inputs, targets_z = make_windows((matrix - mu) / sd, target_z)
        if not splits:
            tr, va, te = _assign_windows(years, fold, n_samples=inputs.shape[0])
            if not (tr.any() and va.any() and te.any()):
                raise ConfigError(f"{fold} leaves a split without windows on the "
                                  f"data's years {years[0]}-{years[-1]}")
        splits.append((inputs[tr], inputs[va], inputs[te]))
    _, targets_raw = make_windows(matrix, target)
    models, _ = grid_search([s[0] for s in splits], [targets_z[tr]] * len(arms),
                            [s[1] for s in splits], [targets_z[va]] * len(arms),
                            grid, seed)
    return [rmse(targets_raw[te], model.forward([s[2]])[0] * t_sd + t_mu)
            for model, s in zip(models, splits)]


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
    write_csv_rows(path, ["cluster_id", "fold", "arm", "rmse_mm_month"], (
        (row["cluster_id"], row["fold"], row["arm"], repr(float(row["rmse_mm_month"])))
        for row in rows))


def write_indices_csv(indices: dict[str, np.ndarray], t0: str, path) -> None:
    """Emit `index_name,year,month,value` for aligned monthly indices."""
    write_csv_rows(path, ["index_name", "year", "month", "value"], (
        (name, *ymv) for name, series in indices.items() for ymv in monthly_rows(t0, series)))


def read_indices_csv(path) -> tuple[dict[str, np.ndarray], str]:
    """Read aligned monthly indices; returns ({name: series}, t0). A second
    row for an index and month is a FormatError naming its line."""
    code_of: dict[str, int] = {}
    cols = MonthColumns("index {}: ")

    def row(name, y, m, v):
        cols.claim(code_of.setdefault(name, len(code_of)), cols.month(y, m), name)
        cols.values.append(float(v))

    read_csv_rows(path, ["index_name", "year", "month", "value"], row)
    t0, grid = cols.grid(len(code_of))
    out = {name: grid[code] for name, code in code_of.items()}
    for name, series in out.items():
        if not np.isfinite(series).all():
            raise FormatError(f"index {name!r} has gaps or non-finite values on the common axis")
    return out, t0
