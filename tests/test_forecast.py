import numpy as np
import pytest

from nemonsoon.errors import FormatError, ShapeMismatchError, SkippedCluster
from nemonsoon.forecast import (
    FOLD1,
    FOLD2,
    HORIZON,
    WINDOW,
    FoldSpec,
    ForecasterConfig,
    LSTMForecaster,
    _assign_windows,
    ablation_experiment,
    default_grid,
    grid_search,
    make_windows,
    read_indices_csv,
    rmse,
    select_features,
    train_forecaster,
    write_indices_csv,
    write_report_csv,
)


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
        assert all(c.lr == 0.01 and c.max_epochs == 200 for c in grid)

    def test_fold_year_ranges(self):
        assert FOLD1 == FoldSpec((1982, 2019), (2020, 2020), (2021, 2021))
        assert FOLD2 == FoldSpec((1982, 2022), (2023, 2023), (2024, 2024))

    def test_fold_ordering_enforced(self):
        with pytest.raises(ValueError):
            FoldSpec((2000, 2010), (2005, 2011), (2012, 2013))


class TestFeatureSelection:
    def test_strict_threshold(self, rng):
        t = rng.normal(size=200)
        feats = {
            "strong": t + 0.1 * rng.normal(size=200),
            "negative": -t + 0.1 * rng.normal(size=200),
            "weak": rng.normal(size=200),
            "constant": np.ones(200),
        }
        kept = select_features(feats, t, threshold=0.6)
        assert set(kept) == {"strong", "negative"}

    def test_nan_column_rejected(self):
        t = np.arange(10.0)
        col = t.copy()
        col[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            select_features({"gappy": col}, t)

    def test_exactly_at_threshold_excluded(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        kept = select_features({"self": t}, t, threshold=1.0)
        assert kept == []


class TestWindows:
    def test_count_and_alignment(self):
        t_len = 48
        target = np.arange(float(t_len))
        feats = np.arange(float(t_len))[:, None] * 10
        x, y = make_windows(feats, target)
        assert x.shape == (t_len - WINDOW - HORIZON + 1, WINDOW, 1)
        assert y.shape == (x.shape[0], HORIZON)
        # sample 0: inputs cover months [0, 24), targets [24, 36)
        np.testing.assert_array_equal(x[0, :, 0], np.arange(24.0) * 10)
        np.testing.assert_array_equal(y[0], np.arange(24.0, 36.0))

    def test_too_short_series(self):
        x, y = make_windows(np.zeros((10, 2)), np.zeros(10))
        assert x.shape[0] == 0 and y.shape[0] == 0

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            make_windows(np.zeros((10, 2)), np.zeros(11))

    def test_rmse_hand_case(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 4.0])) == pytest.approx(np.sqrt(2.0))
        with pytest.raises(ShapeMismatchError):
            rmse(np.zeros(3), np.zeros(4))


class TestLSTM:
    def test_forward_shape(self, rng):
        model = LSTMForecaster(3, ForecasterConfig(hidden=8, layers=2), rng)
        pred = model.predict(rng.normal(size=(5, 10, 3)))
        assert pred.shape == (5, 12)

    def test_deterministic_inference(self, rng):
        model = LSTMForecaster(2, ForecasterConfig(hidden=8), rng)
        x = rng.normal(size=(4, 6, 2))
        np.testing.assert_array_equal(model.predict(x), model.predict(x))

    def test_dropout_only_during_training(self, rng):
        cfg = ForecasterConfig(hidden=8, layers=2, dropout=0.5)
        model = LSTMForecaster(2, cfg, rng)
        x = rng.normal(size=(4, 6, 2))
        inference = model.predict(x)
        np.testing.assert_array_equal(model.forward(x, training=False), inference)
        t1 = model.forward(x, training=True, rng=np.random.default_rng(1))
        t2 = model.forward(x, training=True, rng=np.random.default_rng(2))
        assert not np.array_equal(t1, t2)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_gradient_check(self, layers, rng):
        cfg = ForecasterConfig(hidden=5, layers=layers)
        model = LSTMForecaster(3, cfg, rng, out_dim=4)
        x = rng.normal(size=(3, 7, 3))
        y = rng.normal(size=(3, 4))
        _, grads = model.loss_and_grads(x, y)
        eps = 1e-6
        gmax = max(np.abs(g).max() for g in grads)
        for p, g in zip(model.params, grads):
            fp, fg = p.reshape(-1), g.reshape(-1)
            for k in rng.choice(fp.size, size=min(4, fp.size), replace=False):
                orig = fp[k]
                fp[k] = orig + eps
                lp, _ = model.loss_and_grads(x, y)
                fp[k] = orig - eps
                lm, _ = model.loss_and_grads(x, y)
                fp[k] = orig
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd), abs(fg[k]), 1e-4 * gmax)
                assert abs(fd - fg[k]) / denom < 1e-4

    def test_shape_mismatch_raises(self, rng):
        model = LSTMForecaster(3, ForecasterConfig(hidden=4), rng)
        with pytest.raises(ShapeMismatchError):
            model.predict(rng.normal(size=(2, 5, 4)))


class TestTraining:
    def _toy_problem(self, seed=0):
        rng = np.random.default_rng(seed)
        t_len = 200
        s = np.sin(np.arange(t_len) * 2 * np.pi / 24)
        target = s + 0.05 * rng.normal(size=t_len)
        x, y = make_windows(s[:, None], target)
        n = x.shape[0]
        return x[: n - 40], y[: n - 40], x[n - 40: n - 20], y[n - 40: n - 20], \
            x[n - 20:], y[n - 20:]

    def test_learns_sinusoid(self):
        tx, ty, vx, vy, ex, ey = self._toy_problem()
        cfg = ForecasterConfig(hidden=16, layers=1, max_epochs=200, patience=30, seed=0)
        model, curve = train_forecaster(tx, ty, vx, vy, cfg)
        assert min(curve) < curve[0] * 0.7
        # clearly better than always predicting the series mean (0 here)
        assert rmse(ey, model.predict(ex)) < 0.8 * rmse(ey, np.zeros_like(ey))

    def test_early_stopping_keeps_best(self):
        tx, ty, vx, vy, *_ = self._toy_problem()
        cfg = ForecasterConfig(hidden=8, layers=1, max_epochs=30, patience=3, seed=1)
        model, curve = train_forecaster(tx, ty, vx, vy, cfg)
        final_val = float(np.mean((model.predict(vx) - vy) ** 2))
        assert final_val == pytest.approx(min(curve), rel=1e-9)

    def test_deterministic_given_seed(self):
        tx, ty, vx, vy, *_ = self._toy_problem()
        cfg = ForecasterConfig(hidden=8, max_epochs=5, seed=7)
        m1, c1 = train_forecaster(tx, ty, vx, vy, cfg)
        m2, c2 = train_forecaster(tx, ty, vx, vy, cfg)
        assert c1 == c2
        for p1, p2 in zip(m1.params, m2.params):
            np.testing.assert_array_equal(p1, p2)

    def test_grid_search_picks_lowest_val(self):
        tx, ty, vx, vy, *_ = self._toy_problem()
        grid = [
            ForecasterConfig(hidden=8, layers=1, max_epochs=20, patience=5),
            ForecasterConfig(hidden=16, layers=1, max_epochs=20, patience=5),
        ]
        model, chosen = grid_search(tx, ty, vx, vy, grid, seed=0)
        assert chosen in grid
        picked_val = float(np.mean((model.predict(vx) - vy) ** 2))
        for cfg in grid:
            m, curve = train_forecaster(tx, ty, vx, vy, cfg,
                                        rng=np.random.default_rng(0))
            assert picked_val <= min(curve) + 1e-9


class TestFoldAssignment:
    def test_no_target_leakage(self):
        years = np.repeat(np.arange(2000, 2010), 12)
        fold = FoldSpec((2000, 2007), (2008, 2008), (2009, 2009))
        n = len(years) - WINDOW - HORIZON + 1
        tr, va, te = _assign_windows(years, fold, n)
        assert not (tr & va).any() and not (tr & te).any() and not (va & te).any()
        for k in np.flatnonzero(tr):
            assert years[k + WINDOW:k + WINDOW + HORIZON].max() <= 2007
        for k in np.flatnonzero(te):
            target_years = years[k + WINDOW:k + WINDOW + HORIZON]
            assert (target_years == 2009).all()

    def test_straddling_windows_unassigned(self):
        years = np.repeat(np.arange(2000, 2010), 12)
        fold = FoldSpec((2000, 2007), (2008, 2008), (2009, 2009))
        n = len(years) - WINDOW - HORIZON + 1
        tr, va, te = _assign_windows(years, fold, n)
        assigned = tr | va | te
        straddlers = ~assigned
        assert straddlers.any()
        for k in np.flatnonzero(straddlers):
            ys = years[k + WINDOW:k + WINDOW + HORIZON]
            assert len(np.unique(ys)) == 2


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


class TestReportCSV:
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

    def test_indices_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "index_name,year,month,value\nONI,1990,1,0.5\nONI,1990,3,0.7\n"
        )
        with pytest.raises(FormatError):
            read_indices_csv(path)
