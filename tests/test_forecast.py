import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nemonsoon import forecast
from nemonsoon.errors import (
    ConfigError,
    FormatError,
    NonFiniteLossError,
    ShapeMismatchError,
    SkippedCluster,
    ZeroVarianceError,
)
from nemonsoon.geogrid import month_slots, read_csv_rows, year_axis
from nemonsoon.forecast import (
    FOLD1,
    FOLD2,
    HORIZON,
    WINDOW,
    FoldSpec,
    ForecasterConfig,
    LSTMForecaster,
    _fold_windows,
    _safe_abs_corr,
    ablation_experiment,
    default_grid,
    grid_search,
    read_indices_csv,
    rmse,
    select_features,
    train_forecaster,
    write_indices_csv,
    write_report_csv,
)

from conftest import bits, monthly_values


# ---------------------------------------------------------------------------
# Slow references: one model at a time, as before the lane axis
# ---------------------------------------------------------------------------

def _ref_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))


def reference_loss_and_grads(params, config, x, y, training=False, rng=None):
    """LSTM forward and BPTT for one unpadded model: fresh gradient arrays,
    one np.concatenate of the gate gradients per step, and layer 0's input
    gradient computed too."""
    x = np.asarray(x, dtype=float)
    n, t_len, _ = x.shape
    h_dim = config.hidden
    layers, outputs_all, masks = [], [], []
    seq = x
    for layer in range(config.layers):
        wx, wh, b = params[3 * layer:3 * layer + 3]
        h = np.zeros((n, h_dim))
        c = np.zeros((n, h_dim))
        steps = []
        outputs = np.zeros((n, t_len, h_dim))
        for t in range(t_len):
            a = seq[:, t] @ wx + h @ wh + b
            i = _ref_sigmoid(a[:, :h_dim])
            f = _ref_sigmoid(a[:, h_dim:2 * h_dim])
            g = np.tanh(a[:, 2 * h_dim:3 * h_dim])
            o = _ref_sigmoid(a[:, 3 * h_dim:])
            c_prev = c
            c = f * c_prev + i * g
            h = o * np.tanh(c)
            steps.append((seq[:, t], i, f, g, o, c_prev, c))
            outputs[:, t] = h
        layers.append(steps)
        outputs_all.append(outputs)
        if layer < config.layers - 1:
            keep = 1.0 - config.dropout
            if training and config.dropout > 0:
                mask = (rng.random(outputs.shape) < keep) / keep
            else:
                mask = np.ones_like(outputs)
            masks.append(mask)
            seq = outputs * mask
        else:
            seq = outputs
    final_h = seq[:, -1]
    wy, by = params[-2], params[-1]
    err = final_h @ wy + by - y
    loss = float(np.mean(err * err))
    dout = 2.0 * err / err.size
    grads = [np.zeros_like(p) for p in params]
    grads[-2] = final_h.T @ dout
    grads[-1] = dout.sum(axis=0)
    dseq_above = np.zeros((n, t_len, h_dim))
    dseq_above[:, -1] = dout @ wy.T
    for layer in range(config.layers - 1, -1, -1):
        wx, wh, _ = params[3 * layer:3 * layer + 3]
        dwx, dwh, db = grads[3 * layer:3 * layer + 3]
        if layer < config.layers - 1:
            dseq_above = dseq_above * masks[layer]
        dseq_below = np.zeros((n, t_len, wx.shape[0]))
        dh_next = np.zeros((n, h_dim))
        dc_next = np.zeros((n, h_dim))
        for t in range(t_len - 1, -1, -1):
            x_t, i, f, g, o, c_prev, c = layers[layer][t]
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
            if t > 0:
                dwh += outputs_all[layer][:, t - 1].T @ da
            db += da.sum(axis=0)
            dseq_below[:, t] = da @ wx.T
            dh_next = da @ wh.T
            dc_next = dc * f
        dseq_above = dseq_below
    return loss, grads


def reference_make_windows(features, target, window=WINDOW, horizon=HORIZON):
    """Stride-1 sliding windows over (T, F) features and a length-T target:
    inputs (N, window, F), targets (N, horizon), as the ablation built them
    before it gathered each split's windows by index.

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


def reference_assign_windows(years, fold, n_samples):
    """The split masks of the `n_samples` windows, as the ablation built
    them before `_fold_windows`: a sample belongs to a split iff all its
    target months fall inside that split's year range (so no training
    target month can follow a validation or test target month)."""
    def contains(lo, hi, k):
        ys = years[k + WINDOW:k + WINDOW + HORIZON]
        return bool((ys >= lo).all() and (ys <= hi).all())

    tr = np.array([contains(*fold.train, k) for k in range(n_samples)])
    va = np.array([contains(*fold.val, k) for k in range(n_samples)])
    te = np.array([contains(*fold.test, k) for k in range(n_samples)])
    return tr, va, te


def reference_ablation_rows(cluster_id, target, years, candidate_indices, ne_index,
                            foldspecs, grid, seed=0, include_target_history=True):
    """The ablation with one grid search per arm, base arm first."""
    target = np.asarray(target, dtype=float)
    rows = []
    for fold_no, fold in enumerate(foldspecs, start=1):
        train_rows = (years >= fold.train[0]) & (years <= fold.train[1])
        if _safe_abs_corr(ne_index[train_rows], target[train_rows]) <= forecast.CORR_BAR:
            raise SkippedCluster(cluster_id, "uncorrelated")
        selected = select_features({k: v[train_rows] for k, v in candidate_indices.items()},
                                   target[train_rows])
        base_cols = {k: candidate_indices[k] for k in selected}
        if include_target_history:
            base_cols["__target_history__"] = target
        ne_cols = dict(base_cols)
        ne_cols["__ne_index__"] = np.asarray(ne_index, dtype=float)
        for arm, cols in (("base", base_cols), ("base+ne", ne_cols)):
            matrix = np.column_stack(list(cols.values()))
            mu = matrix[train_rows].mean(axis=0)
            sd = matrix[train_rows].std(axis=0)
            sd[sd == 0] = 1.0
            matrix = (matrix - mu) / sd
            t_mu, t_sd = target[train_rows].mean(), target[train_rows].std()
            if t_sd == 0:
                raise ZeroVarianceError("constant target")
            inputs, targets_z = reference_make_windows(matrix, (target - t_mu) / t_sd)
            _, targets_raw = reference_make_windows(matrix, target)
            tr, va, te = reference_assign_windows(years, fold, n_samples=inputs.shape[0])
            models, _ = grid_search([inputs[tr]], [targets_z[tr]], [inputs[va]],
                                    [targets_z[va]], grid, seed)
            pred = models[0].forward([inputs[te]])[0] * t_sd + t_mu
            rows.append({"cluster_id": cluster_id, "fold": fold_no, "arm": arm,
                         "rmse_mm_month": rmse(targets_raw[te], pred)})
    return rows


def reference_grid_search(train_x, train_y, val_x, val_y, grid, seed):
    """The grid search as one config after another in this process, as
    before the pool. Returns (models, configs) per lane, as grid_search
    does, and (config, models, curves) of each config trained."""
    lanes = len(train_x)
    best, trained = [None] * lanes, []
    for cfg in grid:
        if cfg.layers == 1 and cfg.dropout > 0 and \
                replace(cfg, dropout=0.0) in [t[0] for t in trained]:
            continue
        rngs = [np.random.default_rng(seed) for _ in range(lanes)]
        models, curves = train_forecaster(train_x, train_y, val_x, val_y, cfg, rngs)
        trained.append((cfg, models, curves))
        for k, (model, curve) in enumerate(zip(models, curves)):
            if best[k] is None or min(curve) < best[k][0] - 1e-12:
                best[k] = (min(curve), model, cfg)
    return [b[1] for b in best], [b[2] for b in best], trained


def train_one(train_x, train_y, val_x, val_y, config, seed):
    """train_forecaster on one lane: (model, validation curve)."""
    models, curves = train_forecaster([train_x], [train_y], [val_x], [val_y], config,
                                      [np.random.default_rng(seed)])
    return models[0], curves[0]


def predict_one(model, x):
    """A one-lane model's predictions (N, out) for inputs (N, T, F)."""
    return model.forward([x])[0]


class TestConstants:
    def test_window_and_horizon(self):
        assert WINDOW == 24
        assert HORIZON == 12

    def test_grid_covers_all_combinations(self):
        grid = default_grid()
        assert len(grid) == 27
        combos = {(c.hidden, c.layers, c.dropout) for c in grid}
        assert combos == {(h, l, d) for h in (16, 32, 64)
                          for l in (1, 2, 3) for d in (0.0, 0.2, 0.5)}
        assert forecast.LR == 0.01
        assert forecast.CORR_BAR == 0.6
        assert all(c.max_epochs == 200 for c in grid)

    def test_fold_year_ranges(self):
        assert FOLD1 == FoldSpec((1982, 2019), (2020, 2020), (2021, 2021))
        assert FOLD2 == FoldSpec((1982, 2022), (2023, 2023), (2024, 2024))

    def test_fold_ordering_enforced(self):
        with pytest.raises(ValueError):
            FoldSpec((2000, 2010), (2005, 2011), (2012, 2013))

    @pytest.mark.parametrize("field, value", [
        ("layers", 0), ("hidden", 0), ("dropout", 1.0), ("dropout", -0.1),
        ("max_epochs", 0), ("patience", 0),
    ])
    def test_config_out_of_range_is_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            ForecasterConfig(**{field: value})


class TestFeatureSelection:
    def test_strict_threshold(self, rng):
        t = rng.normal(size=200)
        feats = {
            "strong": t + 0.1 * rng.normal(size=200),
            "negative": -t + 0.1 * rng.normal(size=200),
            "weak": rng.normal(size=200),
            "constant": np.ones(200),
        }
        kept = select_features(feats, t)
        assert set(kept) == {"strong", "negative"}

    def test_nan_column_rejected(self):
        t = np.arange(10.0)
        col = t.copy()
        col[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            select_features({"gappy": col}, t)

    def test_exactly_at_threshold_excluded(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        with mock.patch.object(forecast, "CORR_BAR", 1.0):
            kept = select_features({"self": t}, t)
        assert kept == []


class TestWindows:
    """Window k reads months [k, k+WINDOW) and predicts the HORIZON after
    them; `_fold_windows` gives the starts k of each split's windows."""

    def test_count_and_alignment(self):
        years = np.repeat(np.arange(2000, 2006), 12)  # 72 months, 37 windows
        tr, va, te = _fold_windows(years, FoldSpec((2000, 2003), (2004, 2004), (2005, 2005)))
        # window 0 predicts 2002, window 12 is the last to predict 2003 alone
        np.testing.assert_array_equal(tr, np.arange(13))
        np.testing.assert_array_equal(va, [24])
        np.testing.assert_array_equal(te, [36])

    def test_axis_starting_mid_year(self):
        years = year_axis("2000-07", 66)  # 2000-07 .. 2005-12, 31 windows
        tr, va, te = _fold_windows(years, FoldSpec((2000, 2003), (2004, 2004), (2005, 2005)))
        # window k's targets start at axis month k + 24: 2002-07 for k = 0,
        # 2004-01 (month 42) for k = 18 and 2005-01 (month 54) for k = 30
        np.testing.assert_array_equal(tr, np.arange(7))
        np.testing.assert_array_equal(va, [18])
        np.testing.assert_array_equal(te, [30])

    def test_too_short_series_is_config_error(self):
        years = np.repeat(np.arange(2000, 2003), 12)[:WINDOW + HORIZON - 1]  # no window
        with pytest.raises(ConfigError, match="without windows"):
            _fold_windows(years, FoldSpec((2000, 2000), (2001, 2001), (2002, 2002)))

    def test_fold_before_the_data_is_config_error(self):
        years = np.repeat(np.arange(1982, 2002), 12)
        with pytest.raises(ConfigError, match="data's years 1982-2001"):
            _fold_windows(years, FoldSpec((1950, 1960), (1961, 1961), (1962, 1962)))

    def test_rmse_hand_case(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == pytest.approx(np.sqrt(2.0))
        with pytest.raises(ShapeMismatchError):
            rmse(np.zeros(3), np.zeros(4))


class TestLSTM:
    def test_forward_shape(self, rng):
        model = LSTMForecaster([3], ForecasterConfig(hidden=8, layers=2), [rng])
        pred = model.forward([rng.normal(size=(5, 10, 3))])
        assert pred.shape == (1, 5, 12)

    def test_deterministic_inference(self, rng):
        model = LSTMForecaster([2], ForecasterConfig(hidden=8), [rng])
        x = rng.normal(size=(4, 6, 2))
        np.testing.assert_array_equal(predict_one(model, x), predict_one(model, x))

    def test_dropout_only_during_training(self, rng):
        cfg = ForecasterConfig(hidden=8, layers=2, dropout=0.5)
        model = LSTMForecaster([2], cfg, [rng])
        x = rng.normal(size=(4, 6, 2))
        inference = predict_one(model, x)
        np.testing.assert_array_equal(model.forward([x], training=False)[0], inference)
        t1 = model.forward([x], training=True, rngs=[np.random.default_rng(1)])
        t2 = model.forward([x], training=True, rngs=[np.random.default_rng(2)])
        assert not np.array_equal(t1, t2)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradient_check(self, layers, rng):
        cfg = ForecasterConfig(hidden=5, layers=layers)
        model = LSTMForecaster([3], cfg, [rng])
        x = [rng.normal(size=(3, 7, 3))]
        y = [rng.normal(size=(3, HORIZON))]
        _, grads = model.loss_and_grads(x, y)
        eps = 1e-6
        gmax = max(np.abs(g).max() for g in grads)
        for p, g in zip(model.params, grads):
            fp, fg = p.reshape(-1), g.reshape(-1)
            for k in rng.choice(fp.size, size=min(4, fp.size), replace=False):
                orig = fp[k]
                fp[k] = orig + eps
                lp = model.loss_and_grads(x, y)[0][0]
                fp[k] = orig - eps
                lm = model.loss_and_grads(x, y)[0][0]
                fp[k] = orig
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(fg[k]), 1e-4 * gmax)
                assert abs(fd - fg[k]) / denom < 1e-4

    def test_sigmoid_saturates_in_float32(self):
        """The +-60 clip keeps exp below the float32 maximum."""
        x = np.array([-1e4, -60.5, 0.0, 60.5, 1e4], dtype=np.float32)
        with np.errstate(over="raise"):
            s = forecast._sigmoid(x)
        assert s.dtype == np.float32
        assert np.isfinite(s).all() and ((s >= 0) & (s <= 1)).all()

    def test_shape_mismatch_raises(self, rng):
        model = LSTMForecaster([3], ForecasterConfig(hidden=4), [rng])
        with pytest.raises(ShapeMismatchError):
            model.forward([rng.normal(size=(2, 5, 4))])

    def test_lanes_are_views_of_flat_and_select_copies(self):
        cfg = ForecasterConfig(hidden=3, layers=2)
        model = LSTMForecaster([2, 4], cfg, [np.random.default_rng(s) for s in (5, 6)])
        assert model.flat.shape == (2, sum(p[0].size for p in model.params))
        assert model.params[0].shape == (2, 4, 12)
        np.testing.assert_array_equal(model.params[0][0, 2:], 0.0)  # lane 0's padding
        solo = model.select([0])
        assert solo.in_dim == 2 and solo.params[0].shape == (1, 2, 12)
        np.testing.assert_array_equal(
            solo.flat, LSTMForecaster([2], cfg, [np.random.default_rng(5)]).flat)
        model.flat[:] = np.arange(model.flat.size).reshape(model.flat.shape)
        np.testing.assert_array_equal(
            np.concatenate([p.reshape(2, -1) for p in model.params], axis=1), model.flat)
        assert not np.shares_memory(solo.flat, model.flat)

    def test_laned_input_shape_checked(self, rng):
        model = LSTMForecaster([2, 3], ForecasterConfig(hidden=4), [rng, rng])
        with pytest.raises(ShapeMismatchError):
            model.forward(rng.normal(size=(5, 6, 3)))
        with pytest.raises(ShapeMismatchError):
            model.forward([rng.normal(size=(5, 6, 3)), rng.normal(size=(5, 6, 3))])
        with pytest.raises(ShapeMismatchError):
            model.forward([rng.normal(size=(5, 6, 2)), rng.normal(size=(4, 6, 3))])
        assert model.forward([rng.normal(size=(5, 6, 2)),
                              rng.normal(size=(5, 6, 3))]).shape == (2, 5, 12)

    @settings(max_examples=200, deadline=None)
    @given(widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           hidden=st.integers(1, 16), layers=st.integers(1, 3),
           dropout=st.sampled_from([0.0, 0.4]), training=st.booleans(),
           n=st.integers(1, 5), t_len=st.integers(1, 5), seed=st.integers(0, 2**16))
    @example(widths=[3, 4], hidden=16, layers=1, dropout=0.0, training=False,
             n=3, t_len=3, seed=0)  # the ablation's widths
    def test_loss_and_grads_per_lane_match_reference(self, widths, hidden, layers, dropout,
                                                     training, n, t_len, seed):
        """Each lane's loss and gradients, narrower lanes included, are
        bit-equal to a one-lane model and, from two hidden units up, to the
        one-model reference; the rows padding a narrower
        lane's Wx get exact-zero gradients, and each lane's clip norm equals
        the one-lane model's (widths and hidden sizes reach past numpy's
        128-element pairwise-sum block, where zero padding would change the
        sum)."""
        cfg = ForecasterConfig(hidden=hidden, layers=layers, dropout=dropout)
        data = np.random.default_rng(seed)
        xs = [data.normal(size=(n, t_len, w)) for w in widths]
        ys = [data.normal(size=(n, HORIZON)) for _ in widths]
        stacked = LSTMForecaster(widths, cfg, [np.random.default_rng(seed + k)
                                               for k in range(len(widths))])
        losses, grads = stacked.loss_and_grads(
            xs, np.stack(ys), training=training,
            rngs=[np.random.default_rng(99 + k) for k in range(len(widths))])
        assert losses.shape == (len(widths),)
        for k, w in enumerate(widths):
            solo = LSTMForecaster([w], cfg, [np.random.default_rng(seed + k)])
            ref_loss, ref_grads = reference_loss_and_grads(
                [p[0] for p in solo.params], cfg, xs[k], ys[k], training,
                np.random.default_rng(99 + k))
            loss, solo_grads = solo.loss_and_grads([xs[k]], [ys[k]], training=training,
                                                   rngs=[np.random.default_rng(99 + k)])
            assert loss[0] == ref_loss == losses[k]
            assert forecast._grad_norms(grads, widths)[k] == \
                forecast._grad_norms(solo_grads, [w])[0]
            np.testing.assert_array_equal(grads[0][k, w:], 0.0)
            lane_grads = [grads[0][k, :w], *(g[k] for g in grads[1:])]
            for mine, (theirs,), ref in zip(lane_grads, solo_grads, ref_grads):
                np.testing.assert_array_equal(mine, theirs)
                if hidden > 1:
                    np.testing.assert_array_equal(theirs, ref)
                else:
                    # With one hidden unit, h^T @ da or h^T @ dout is
                    # numpy's gemv case, and OpenBLAS's gemv
                    # rounds by the operand's strides: the reference reads h
                    # from its (N, T, H) output buffer, the model recomputes
                    # it into a contiguous array.
                    np.testing.assert_allclose(theirs, ref, rtol=1e-12, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           hidden=st.integers(1, 16), layers=st.integers(1, 3),
           dropout=st.sampled_from([0.0, 0.4]), training=st.booleans(),
           n=st.integers(1, 5), t_len=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_train_dtype_matches_float64(self, widths, hidden, layers, dropout, training,
                                         n, t_len, seed):
        """The training dtype's losses and gradients match a float64 model's
        on the same parameters, inputs and dropout draws, each gradient
        within 1e-4 of its largest value."""
        cfg = ForecasterConfig(hidden=hidden, layers=layers, dropout=dropout)
        data = np.random.default_rng(seed)
        xs = [data.normal(size=(n, t_len, w)) for w in widths]
        ys = np.stack([data.normal(size=(n, HORIZON)) for _ in widths])
        rngs = [np.random.default_rng(seed + k) for k in range(len(widths))]
        low = LSTMForecaster(widths, cfg, rngs, forecast.TRAIN_DTYPE)
        assert low.flat.dtype == forecast.TRAIN_DTYPE
        ref = LSTMForecaster(widths, cfg, rngs)
        ref.flat[:] = low.flat  # the same parameters, exactly
        results = [model.loss_and_grads(xs, ys, training=training,
                                        rngs=[np.random.default_rng(99 + k)
                                              for k in range(len(widths))])
                   for model in (low, ref)]
        (losses, grads), (ref_losses, ref_grads) = results
        assert losses.dtype == forecast.TRAIN_DTYPE
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-4)
        for g, ref_g in zip(grads, ref_grads):
            assert g.dtype == forecast.TRAIN_DTYPE
            for lane, ref_lane in zip(g, ref_g):
                np.testing.assert_allclose(lane, ref_lane, rtol=0,
                                           atol=1e-4 * np.abs(ref_lane).max())


class TestTraining:
    def _toy_problem(self, seed=0):
        rng = np.random.default_rng(seed)
        t_len = 200
        s = np.sin(np.arange(t_len) * 2 * np.pi / 24)
        target = s + 0.05 * rng.normal(size=t_len)
        x, y = reference_make_windows(s[:, None], target)
        n = x.shape[0]
        return x[: n - 40], y[: n - 40], x[n - 40: n - 20], y[n - 40: n - 20], \
            x[n - 20:], y[n - 20:]

    def test_learns_sinusoid(self):
        tx, ty, vx, vy, ex, ey = self._toy_problem()
        cfg = ForecasterConfig(hidden=16, layers=1, max_epochs=200, patience=30)
        model, curve = train_one(tx, ty, vx, vy, cfg, seed=0)
        assert min(curve) < curve[0] * 0.7
        # clearly better than always predicting the series mean (0 here)
        assert rmse(ey, predict_one(model, ex)) < 0.8 * rmse(ey, np.zeros_like(ey))

    def test_early_stopping_keeps_best(self):
        tx, ty, vx, vy, *_ = self._toy_problem()
        cfg = ForecasterConfig(hidden=8, layers=1, max_epochs=30, patience=3)
        model, curve = train_one(tx, ty, vx, vy, cfg, seed=1)
        vy_train = vy.astype(forecast.TRAIN_DTYPE)  # the curve's dtype
        final_val = float(np.mean((predict_one(model, vx) - vy_train) ** 2))
        assert final_val == min(curve)

    def test_deterministic_given_seed(self):
        tx, ty, vx, vy, *_ = self._toy_problem()
        cfg = ForecasterConfig(hidden=8, max_epochs=5)
        m1, c1 = train_one(tx, ty, vx, vy, cfg, seed=7)
        m2, c2 = train_one(tx, ty, vx, vy, cfg, seed=7)
        assert m1.flat.dtype == forecast.TRAIN_DTYPE
        assert c1 == c2
        for p1, p2 in zip(m1.params, m2.params):
            np.testing.assert_array_equal(p1, p2)

    def test_grid_search_picks_lowest_val(self):
        tx, ty, vx, vy, *_ = self._toy_problem()
        grid = [
            ForecasterConfig(hidden=8, layers=1, max_epochs=20, patience=5),
            ForecasterConfig(hidden=16, layers=1, max_epochs=20, patience=5),
        ]
        (model,), (chosen,) = grid_search([tx], [ty], [vx], [vy], grid, seed=0)
        assert chosen in grid
        vy_train = vy.astype(forecast.TRAIN_DTYPE)  # the curves' dtype
        picked_val = float(np.mean((predict_one(model, vx) - vy_train) ** 2))
        for cfg in grid:
            _, curve = train_one(tx, ty, vx, vy, cfg, seed=0)
            assert picked_val <= min(curve) + 1e-9

    def test_grid_search_skips_one_layer_dropout_twin(self, monkeypatch):
        tx, ty, vx, vy, *_ = self._toy_problem()
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[4])
            return train_forecaster(*args, **kwargs)

        monkeypatch.setattr(forecast, "train_forecaster", counting)
        twin = ForecasterConfig(hidden=8, layers=1, dropout=0.0, max_epochs=3)
        grid = [twin, ForecasterConfig(hidden=8, layers=1, dropout=0.5, max_epochs=3)]
        _, chosen = grid_search([tx], [ty], [vx], [vy], grid, seed=0)
        assert chosen == [twin] and calls == [twin]
        # alone, a one-layer dropout config still trains
        _, chosen = grid_search([tx], [ty], [vx], [vy], grid[1:], seed=0)
        assert chosen == [grid[1]] and calls == [twin, grid[1]]

    @settings(max_examples=150, deadline=None)
    @given(widths=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           hidden=st.integers(1, 16), layers=st.integers(1, 2),
           dropout=st.sampled_from([0.0, 0.3]), patience=st.integers(1, 3),
           max_epochs=st.integers(1, 6), n=st.integers(2, 40), n_val=st.integers(1, 3),
           t_len=st.integers(2, 4), y_scale=st.sampled_from([1.0, 30.0]),
           seed=st.integers(0, 2**16))
    def test_lanes_match_solo_runs(self, widths, hidden, layers, dropout, patience,
                                   max_epochs, n, n_val, t_len, y_scale, seed):
        """Each lane of a K-lane training is bit-equal to a solo run on its
        own data and rng: final parameters, validation curve, predictions.
        Lanes stop at different epochs; large targets make the gradient
        clip act, and widths up to 6 with up to 16 hidden units put layer 0's
        Wx on both sides of numpy's 128-element pairwise-sum block."""
        cfg = ForecasterConfig(hidden=hidden, layers=layers, dropout=dropout,
                               max_epochs=max_epochs, patience=patience)
        data = np.random.default_rng(seed)
        xs = [data.normal(size=(n + n_val, t_len, w)) for w in widths]
        ys = [y_scale * data.normal(size=(n + n_val, HORIZON)) for _ in widths]
        models, curves = train_forecaster(
            [x[:n] for x in xs], [y[:n] for y in ys], [x[n:] for x in xs],
            [y[n:] for y in ys], cfg,
            [np.random.default_rng(seed + k) for k in range(len(widths))])
        assert len(models) == len(curves) == len(widths)
        for k, (x, y) in enumerate(zip(xs, ys)):
            solo, curve = train_one(x[:n], y[:n], x[n:], y[n:], cfg, seed=seed + k)
            assert curves[k] == curve
            np.testing.assert_array_equal(models[k].flat, solo.flat)
            np.testing.assert_array_equal(predict_one(models[k], x), predict_one(solo, x))


def _alive(pid: int) -> bool:
    """Whether process `pid` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestGridPool:
    """grid_search trains its configs in forked worker processes."""

    @staticmethod
    def _problem(widths, n, seed):
        data = np.random.default_rng(seed)
        xs = [data.normal(size=(n + 2, 3, w)) for w in widths]
        ys = [data.normal(size=(n + 2, HORIZON)) for _ in widths]
        return ([x[:n] for x in xs], [y[:n] for y in ys], [x[n:] for x in xs],
                [y[n:] for y in ys])

    @staticmethod
    def _forks(mp):
        """Pretend two CPUs are usable and BLAS runs on one thread, and
        count the processes forked."""
        forks = []
        real_fork = os.fork
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        return forks

    @settings(max_examples=20, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=2),
           solo=st.booleans(),
           configs=st.lists(st.tuples(st.sampled_from([2, 5]), st.integers(1, 2),
                                      st.sampled_from([0.0, 0.3])), min_size=1, max_size=3),
           twin=st.booleans(), tie=st.booleans(), max_epochs=st.integers(1, 3),
           n=st.integers(2, 12), seed=st.integers(0, 2**16))
    def test_pool_matches_serial_loop(self, widths, solo, configs, twin, tie, max_epochs,
                                      n, seed):
        """Every job's models and curves, each lane's chosen model and config:
        bit-identical to the serial loop, for one lane (`solo`) or more. A grid may hold a dropout twin,
        which is skipped, and a copy of its first config whose larger
        patience cannot act, which trains identically and ties."""
        grid = [ForecasterConfig(hidden=h, layers=l, dropout=d, max_epochs=max_epochs,
                                 patience=max_epochs) for h, l, d in configs]
        if twin:
            grid.append(ForecasterConfig(hidden=3, max_epochs=max_epochs))
            grid.append(replace(grid[-1], dropout=0.5))
        if tie:
            grid.append(replace(grid[0], patience=max_epochs + 1))
        args = self._problem(widths[:1] if solo else widths, n, seed)
        recorded = []
        best_per_lane = forecast._best_per_lane

        def recording(jobs, results, lanes):
            recorded.extend(results)
            return best_per_lane(jobs, recorded, lanes)

        with pytest.MonkeyPatch.context() as mp:
            forks = self._forks(mp)
            mp.setattr(forecast, "_best_per_lane", recording)
            models, chosen = grid_search(*args, grid, seed=seed)
        ref_models, ref_chosen, trained = reference_grid_search(*args, grid, seed=seed)
        assert len(forks) == (2 if len(trained) > 1 else 0)
        assert chosen == ref_chosen
        for model, ref in zip(models, ref_models):
            np.testing.assert_array_equal(model.flat, ref.flat)
        assert len(recorded) == len(trained)
        for (job_models, job_curves), (_, ref_job_models, ref_curves) in zip(recorded, trained):
            assert job_curves == ref_curves
            for model, ref in zip(job_models, ref_job_models):
                np.testing.assert_array_equal(model.flat, ref.flat)

    @pytest.mark.parametrize("jobs, blas_threads", [(1, "1"), (2, None)],
                             ids=["one-job", "blas-thread-per-cpu"])
    def test_no_process_without_a_core_to_spare(self, monkeypatch, jobs, blas_threads):
        """One job (a grid whose dropout twin is skipped) trains in-process,
        and so does any grid when BLAS already runs a thread on every CPU."""
        def no_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if blas_threads:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        monkeypatch.setattr(os, "fork", no_fork)
        base = ForecasterConfig(hidden=3, max_epochs=2)
        grid = [base, replace(base, dropout=0.5) if jobs == 1 else replace(base, hidden=4)]
        args = self._problem([2, 3], 6, 0)
        _, chosen = grid_search(*args, grid, seed=0)
        assert chosen == reference_grid_search(*args, grid, seed=0)[1]

    def test_worker_error_keeps_its_type(self, monkeypatch):
        forks = self._forks(monkeypatch)
        train_x, train_y, val_x, val_y = self._problem([2], 6, 0)
        train_y[0][0, 0] = np.inf
        grid = [ForecasterConfig(hidden=3, max_epochs=2), ForecasterConfig(hidden=4, max_epochs=2)]
        with pytest.raises(NonFiniteLossError, match="forecast loss became"):
            grid_search(train_x, train_y, val_x, val_y, grid, seed=0)
        assert len(forks) == 2

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the parent-death signal is Linux's")
    def test_workers_die_with_their_parent(self, tmp_path):
        """SIGTERM to a process inside a slow grid search leaves none of its
        workers running: forked, they hold the pool's pipes themselves."""
        script = tmp_path / "slow_grid.py"
        script.write_text(textwrap.dedent(f"""
            import os
            import numpy as np
            from nemonsoon import forecast

            os.sched_getaffinity = lambda pid: {{0, 1}}
            train = forecast._train_config

            def announce(*args, **kwargs):
                open(os.path.join({str(tmp_path)!r}, f"worker-{{os.getpid()}}"), "w").close()
                return train(*args, **kwargs)

            forecast._train_config = announce
            data = np.random.default_rng(0)
            x, y = data.normal(size=(8, 3, 2)), data.normal(size=(8, {HORIZON}))
            grid = [forecast.ForecasterConfig(hidden=h, max_epochs=10**6, patience=10**6)
                    for h in (3, 4)]
            forecast.grid_search([x[:6]], [y[:6]], [x[6:]], [y[6:]], grid, seed=0)
        """))
        src = os.path.dirname(os.path.dirname(forecast.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, str(script)], env=env)
        pids: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while len(pids) < 2 and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                pids = [int(f.name.split("-")[1]) for f in tmp_path.glob("worker-*")]
            assert len(pids) == 2, "the workers did not start"
            proc.terminate()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if _alive(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in filter(_alive, pids):
                os.kill(pid, signal.SIGKILL)

    def test_model_pickles_with_params_as_views_of_flat(self):
        """Pool results come back in the dtype they trained in."""
        for dtype in (np.float64, np.float32):
            model = LSTMForecaster([2, 3], ForecasterConfig(hidden=3, layers=2),
                                   [np.random.default_rng(k) for k in range(2)], dtype)
            for original in (model, model.select([1])):
                back = pickle.loads(pickle.dumps(original))
                assert back.in_dims == original.in_dims
                assert back.flat.dtype == dtype
                np.testing.assert_array_equal(back.flat, original.flat)
                assert all(np.shares_memory(p, back.flat) for p in back.params)


class TestFoldAssignment:
    def test_no_target_leakage(self):
        years = np.repeat(np.arange(2000, 2010), 12)
        fold = FoldSpec((2000, 2007), (2008, 2008), (2009, 2009))
        tr, va, te = map(set, _fold_windows(years, fold))
        assert not (tr & va) and not (tr & te) and not (va & te)
        for k in tr:
            assert years[k + WINDOW:k + WINDOW + HORIZON].max() <= 2007
        for k in te:
            target_years = years[k + WINDOW:k + WINDOW + HORIZON]
            assert (target_years == 2009).all()

    def test_straddling_windows_unassigned(self):
        years = np.repeat(np.arange(2000, 2010), 12)
        fold = FoldSpec((2000, 2007), (2008, 2008), (2009, 2009))
        assigned = set(np.concatenate(_fold_windows(years, fold)))
        straddlers = set(range(len(years) - WINDOW - HORIZON + 1)) - assigned
        assert straddlers
        for k in straddlers:
            ys = years[k + WINDOW:k + WINDOW + HORIZON]
            assert len(np.unique(ys)) == 2

    @settings(max_examples=500, deadline=None)
    @given(t0_year=st.integers(1985, 2000), t0_month=st.integers(1, 12),
           nt=st.integers(1, 300), train_from=st.integers(-6, 14),
           gaps=st.tuples(st.integers(0, 12), st.integers(1, 3), st.integers(0, 2),
                          st.integers(1, 3), st.integers(0, 2)))
    @example(t0_year=1990, t0_month=5, nt=35, train_from=0, gaps=(0, 1, 0, 1, 0))
    @example(t0_year=1990, t0_month=5, nt=60, train_from=0, gaps=(1, 1, 0, 1, 0))
    def test_starts_match_the_per_window_masks(self, t0_year, t0_month, nt, train_from, gaps):
        """The first and last target month's years place a window as all
        its target months' years did, on axes shorter than one window,
        starting in any month, and for folds partly or wholly off the axis
        (the training years start `train_from` years after the axis does)."""
        train_len, to_val, val_len, to_test, test_len = gaps
        train_lo = t0_year + train_from
        val_lo = train_lo + train_len + to_val
        test_lo = val_lo + val_len + to_test
        fold = FoldSpec((train_lo, train_lo + train_len), (val_lo, val_lo + val_len),
                        (test_lo, test_lo + test_len))
        years = year_axis(f"{t0_year}-{t0_month:02d}", nt)
        masks = reference_assign_windows(years, fold, max(0, nt - WINDOW - HORIZON + 1))
        expected = [np.flatnonzero(m) for m in masks]
        if all(e.size for e in expected):
            got = _fold_windows(years, fold)
            assert [g.tolist() for g in got] == [e.tolist() for e in expected]
        else:
            with pytest.raises(ConfigError, match="without windows"):
                _fold_windows(years, fold)


class TestAblation:
    def _world(self, couple=True, seed=0):
        rng = np.random.default_rng(seed)
        years = np.repeat(np.arange(2000, 2012), 12)
        t_len = len(years)
        ne = np.sin(np.arange(t_len) * 2 * np.pi / 36)
        ne = (ne - ne.mean()) / ne.std()
        beta = 40.0 if couple else 0.0
        target = 100.0 + beta * ne + 5.0 * rng.normal(size=t_len)
        noise_feat = rng.normal(size=t_len)
        return years, target, ne, {"NOISE": noise_feat, "SURR": 0.9 * ne + 0.4 * rng.normal(size=t_len)}

    def test_skipped_cluster_when_uncorrelated(self):
        years, target, ne, cands = self._world(couple=False)
        fold = FoldSpec((2000, 2009), (2010, 2010), (2011, 2011))
        with pytest.raises(SkippedCluster) as exc:
            ablation_experiment(1, target, years, cands, ne, [fold],
                                grid=[ForecasterConfig(hidden=8, max_epochs=2)])
        assert exc.value.cluster_id == 1

    def test_every_fold_checked_before_any_training(self, monkeypatch):
        """Fold 1 passes the bar and fold 2 misses it: the cluster is
        skipped with fold 2's message and no grid search runs."""
        years, target, ne, cands = self._world(couple=True)
        later = years >= 2005
        target[later] = 100.0 + 40.0 * np.random.default_rng(1).normal(size=later.sum())
        folds = [FoldSpec((2000, 2002), (2003, 2003), (2004, 2004)),
                 FoldSpec((2005, 2009), (2010, 2010), (2011, 2011))]
        fold2 = (years >= 2005) & (years <= 2009)
        r = abs(forecast.pearson(ne[fold2], target[fold2]))
        calls = []
        monkeypatch.setattr(forecast, "grid_search", lambda *a, **k: calls.append(a))
        with pytest.raises(SkippedCluster) as exc:
            ablation_experiment(1, target, years, cands, ne, folds,
                                grid=[ForecasterConfig(hidden=8, max_epochs=2)])
        assert str(exc.value) == f"cluster 1 skipped: |corr(NE, target)| = {r:.3f} <= 0.6 on fold 2"
        assert _safe_abs_corr(ne[years <= 2002], target[years <= 2002]) > 0.6
        assert calls == []

    def test_split_without_windows_found_before_the_bar(self, monkeypatch):
        """Every fold misses the bar and fold 2's test year is off the
        axis: the fold's ConfigError comes first, and no grid search runs."""
        years, target, ne, cands = self._world(couple=False)
        folds = [FoldSpec((2000, 2009), (2010, 2010), (2011, 2011)),
                 FoldSpec((2000, 2009), (2010, 2010), (2030, 2030))]
        calls = []
        monkeypatch.setattr(forecast, "grid_search", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match="without windows on the data's years 2000-2011"):
            ablation_experiment(1, target, years, cands, ne, folds,
                                grid=[ForecasterConfig(hidden=8, max_epochs=2)])
        with pytest.raises(SkippedCluster):
            ablation_experiment(1, target, years, cands, ne, folds[:1],
                                grid=[ForecasterConfig(hidden=8, max_epochs=2)])
        assert calls == []

    def test_rows_schema(self):
        years, target, ne, cands = self._world(couple=True)
        fold = FoldSpec((2000, 2009), (2010, 2010), (2011, 2011))
        rows = ablation_experiment(
            2, target, years, cands, ne, [fold],
            grid=[ForecasterConfig(hidden=8, max_epochs=3, patience=2)],
            include_target_history=False,
        )
        assert len(rows) == 2
        assert [r["arm"] for r in rows] == ["base", "base+ne"]
        assert all(r["cluster_id"] == 2 and r["fold"] == 1 for r in rows)
        assert all(np.isfinite(r["rmse_mm_month"]) and r["rmse_mm_month"] > 0 for r in rows)

    @pytest.mark.parametrize("history", [True, False])
    def test_lanes_equal_per_arm_reference(self, history):
        years, target, ne, cands = self._world(couple=True, seed=3)
        folds = [FoldSpec((2000, 2008), (2009, 2009), (2010, 2010)),
                 FoldSpec((2000, 2009), (2010, 2010), (2011, 2011))]
        grid = [ForecasterConfig(hidden=6, layers=1, max_epochs=8, patience=2),
                ForecasterConfig(hidden=6, layers=1, dropout=0.5, max_epochs=8, patience=2),
                ForecasterConfig(hidden=4, layers=2, dropout=0.2, max_epochs=8, patience=2)]
        args = (5, target, years, cands, ne, folds, grid)
        rows = ablation_experiment(*args, seed=1, include_target_history=history)
        assert rows == reference_ablation_rows(*args, seed=1, include_target_history=history)

    def test_no_base_features_is_value_error(self):
        years, target, ne, cands = self._world(couple=True)
        fold = FoldSpec((2000, 2009), (2010, 2010), (2011, 2011))
        with pytest.raises(ValueError, match="no features"):
            ablation_experiment(1, target, years, {"NOISE": cands["NOISE"]}, ne, [fold],
                                grid=[ForecasterConfig(hidden=4, max_epochs=1)],
                                include_target_history=False)



# one fault written into one row's fields (a list of four strings)
INDEX_FAULTS = {
    "bad year": lambda f: f[:1] + ["19x0"] + f[2:],
    "bad month": lambda f: f[:2] + ["0"] + f[3:],
    "year out of range": lambda f: f[:1] + ["10000"] + f[2:],
    "bad value": lambda f: f[:3] + ["1e"],
    "nan value": lambda f: f[:3] + ["nan"],
    "duplicate month": None,  # the row is written twice
    "too few fields": lambda f: f[:3],
}


def reference_read_indices_csv(path):
    """The reader `read_indices_csv` replaced: one tuple per row; a month
    or year out of range is a bad row, as in `read_indices_csv`."""
    seen = set()

    def row(name, y, m, v):
        key = (name, int(y), int(m))
        if not 1 <= key[2] <= 12:
            raise ValueError("month out of range 1..12")
        if not 0 <= key[1] <= 9999:
            raise ValueError("year out of range 0..9999")
        if key in seen:
            raise ValueError(f"index {name}: second row for {key[1]}-{key[2]:02d}")
        seen.add(key)
        return (*key, float(v))

    rows = read_csv_rows(path, ["index_name", "year", "month", "value"], row)
    t0, nt, slots = month_slots([r[1] for r in rows], [r[2] for r in rows])
    out = {}
    for (name, _, _, v), k in zip(rows, slots.tolist()):
        out.setdefault(name, np.full(nt, np.nan))[k] = v
    for name, series in out.items():
        if not np.isfinite(series).all():
            raise FormatError(f"index {name!r} has gaps or non-finite values on the common axis")
    return out, t0


class TestReportCSV:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), year=st.integers(0, 9969), month=st.integers(1, 12),
           years=st.integers(1, 30), count=st.integers(1, 3))
    def test_indices_round_trip_is_exact(self, tmp_path_factory, seed, year, month, years, count):
        """Write then read gives the same indices and start bit for bit;
        read then write gives the same bytes."""
        rng = np.random.default_rng(seed)
        t0 = f"{year:04d}-{month:02d}"
        indices = {name: monthly_values(rng, 12 * years) for name in ["ONI", "DMI", "MEI"][:count]}
        path = tmp_path_factory.mktemp("indices") / "indices.csv"
        write_indices_csv(indices, t0, path)
        back, t0_back = read_indices_csv(path)
        assert t0_back == t0
        assert [(k, bits(v)) for k, v in back.items()] == [(k, bits(v)) for k, v in indices.items()]
        again = path.with_name("again.csv")
        write_indices_csv(back, t0_back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_report_round_trip_text(self, tmp_path):
        rows = [
            {"cluster_id": 1, "fold": 1, "arm": "base", "rmse_mm_month": 25.5},
            {"cluster_id": 1, "fold": 1, "arm": "base+ne", "rmse_mm_month": 18.25},
        ]
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "cluster_id,fold,arm,rmse_mm_month"
        assert lines[1] == "1,1,base,25.5"
        assert lines[2] == "1,1,base+ne,18.25"

    def test_indices_round_trip(self, tmp_path, rng):
        indices = {"ONI": rng.normal(size=24), "DMI": rng.normal(size=24)}
        path = tmp_path / "indices.csv"
        write_indices_csv(indices, "1990-01", path)
        back, t0 = read_indices_csv(path)
        assert t0 == "1990-01"
        for name in indices:
            np.testing.assert_array_equal(back[name], indices[name])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3), nt=st.integers(1, 30),
           faults=st.lists(st.sampled_from(sorted(INDEX_FAULTS)), max_size=2))
    # a second row for a month whose value is also bad: the duplicate comes first
    @example(seed=0, count=2, nt=6, faults=["duplicate month", "bad value"])
    def test_indices_match_row_tuple_reader(self, tmp_path_factory, seed, count, nt, faults):
        rng = np.random.default_rng(seed)
        lines = [f"I{k},{0 if rng.random() < 0.3 else ''}{1990 + t // 12},{t % 12 + 1},"
                 f"{rng.normal()!r}" for k in range(count) for t in range(nt)]
        lines = [lines[i] for i in rng.permutation(len(lines))]
        hit = []
        for fault in faults:  # the second fault hits the first one's row half the time
            k = hit[0] if hit and rng.random() < 0.5 else int(rng.integers(len(lines)))
            if fault == "duplicate month":  # a later fault may hit the copy
                copy = int(rng.integers(len(lines) + 1))
                lines.insert(copy, lines[k])
                k = copy
            else:
                lines[k] = ",".join(INDEX_FAULTS[fault](lines[k].split(",")))
            hit.append(k)
        path = tmp_path_factory.mktemp("indices") / "indices.csv"
        path.write_text("\n".join(["index_name,year,month,value"] + lines) + "\n")

        def outcome(read):
            try:
                out, t0 = read(path)
                return t0, [(name, series.tobytes()) for name, series in out.items()]
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(read_indices_csv) == outcome(reference_read_indices_csv)

    def test_indices_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "index_name,year,month,value\nONI,1990,1,0.5\nONI,1990,3,0.7\n"
        )
        with pytest.raises(FormatError):
            read_indices_csv(path)
