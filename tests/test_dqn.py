import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nemonsoon import index
from nemonsoon.dqn import (
    Adam,
    DQNConfig,
    HistoryRow,
    QNetwork,
    ReplayBuffer,
    act,
    epsilon_at,
    exhaustive_search,
    _Lattice,
    _fill_series,
    _placements,
    _table,
    lane_buffer,
    td_targets,
    train,
    train_step,
    write_history_csv,
)
from nemonsoon.errors import InvalidInitialAreasError, NemonsoonError, NonFiniteLossError
from nemonsoon.forecast import ForecasterConfig, LSTMForecaster
from nemonsoon.geogrid import AreaSet, Rect, area_cells, area_mean_series
from nemonsoon.index import evaluate_pair
from nemonsoon.rl_env import SHIFT_ONLY, AreaEnv, EnvConfig
from nemonsoon.synthdata import SynthSpec, gen_sst, gen_stations, regime_targets

from conftest import ChainEnv, make_field, seasonal_scores


class TestQNetwork:
    def test_forward_shapes(self, rng):
        net = QNetwork(6, 8, rng)
        single = net.forward(rng.normal(size=6))
        batch = net.forward(rng.normal(size=(5, 6)))
        assert single.shape == (8,)
        assert batch.shape == (5, 8)

    def test_batch_matches_single(self, rng):
        net = QNetwork(4, 3, rng)
        x = rng.normal(size=(7, 4)).astype(np.float32)
        batch = net.forward(x)
        for i in range(7):
            np.testing.assert_allclose(net.forward(x[i]), batch[i], rtol=1e-5, atol=1e-6)

    def test_target_lane_is_independent(self, rng):
        net = QNetwork(4, 3, rng)
        target = net.target
        np.testing.assert_array_equal(target.flat, net.flat)
        target.weights[0][:] = 0.0
        assert net.weights[0].any()
        mine = [net.flat, *net.params, *net.weights, *net.biases]
        theirs = [target.flat, *target.params, *target.weights, *target.biases]
        assert not any(np.shares_memory(a, b) for a in mine for b in theirs)
        assert all(np.shares_memory(p, target.flat) for p in theirs)
        assert all(np.shares_memory(p, net.lanes) for p in mine + theirs)
        net.lanes[1] = net.lanes[0]  # a target sync
        np.testing.assert_array_equal(target.weights[0], net.weights[0])

    def test_gradient_check_float64(self, rng):
        net = QNetwork(5, 4, rng, hidden=(8, 8), dtype=np.float64)
        states = rng.normal(size=(6, 5))
        actions = rng.integers(0, 4, size=6)
        targets = rng.normal(size=6)
        loss, grads = net.loss_and_grads(states, actions, targets)
        eps = 1e-6
        for p, g in zip(net.params, grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for k in rng.choice(flat_p.size, size=min(5, flat_p.size), replace=False):
                orig = flat_p[k]
                flat_p[k] = orig + eps
                lp, _ = net.loss_and_grads(states, actions, targets)
                flat_p[k] = orig - eps
                lm, _ = net.loss_and_grads(states, actions, targets)
                flat_p[k] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - flat_g[k]) <= 1e-6 * max(1.0, abs(fd))


class TestFlatBuffer:
    def test_params_are_views_of_flat(self, rng):
        net = QNetwork(4, 3, rng)
        lstm = LSTMForecaster([2], ForecasterConfig(hidden=3, layers=2), [rng])
        for model in (net, lstm):
            assert model.flat.size == sum(p.size for p in model.params)
            model.flat[:] = np.arange(model.flat.size)
            np.testing.assert_array_equal(
                np.concatenate([p.ravel() for p in model.params]), model.flat.ravel())
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            assert w is net.params[2 * k] and b is net.params[2 * k + 1]

    def test_keeps_order_shapes_and_dtype(self):
        flat, views = lane_buffer(2, [(2, 3), (4,)], np.float32)
        assert flat.shape == (2, 10) and flat.dtype == np.float32 and flat.flags.c_contiguous
        assert [v.shape for v in views] == [(2, 2, 3), (2, 4)]
        flat[:] = np.arange(20).reshape(2, 10)
        for lane in range(2):  # each lane's parameters are one row, in order
            np.testing.assert_array_equal(
                np.concatenate([v[lane].ravel() for v in views]), flat[lane])


def per_array_adam(params, grad_steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as a loop over parameter arrays, each with its own moments: the
    reference for the optimizer over one flat buffer."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        b1t = 1.0 - beta1 ** t
        b2t = 1.0 - beta2 ** t
        for p, g, mp, vp in zip(params, grads, m, v):
            mp *= beta1
            mp += (1.0 - beta1) * g
            vp *= beta2
            vp += (1.0 - beta2) * g * g
            p -= lr * (mp / b1t) / (np.sqrt(vp / b2t) + eps)


class TestAdam:
    def test_minimizes_quadratic(self):
        p = np.array([10.0, -7.0])
        opt = Adam(p, lr=0.1)
        for _ in range(500):
            opt.step(p, 2 * p)
        np.testing.assert_allclose(p, 0.0, atol=1e-3)

    @given(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3), min_size=1, max_size=5),
           st.integers(1, 30), st.sampled_from([np.float32, np.float64]),
           st.sampled_from([1e-3, 1e-2, 0.5]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_flat_step_bit_equals_per_array_loop(self, shapes, steps, dtype, lr, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
        grad_steps = [[rng.normal(size=s).astype(dtype) for s in shapes] for _ in range(steps)]
        reference = [a.copy() for a in arrays]
        per_array_adam(reference, grad_steps, lr)
        flat, params = lane_buffer(1, shapes, dtype)
        flat, params = flat[0], [p[0] for p in params]
        for p, a in zip(params, arrays):
            p[:] = a
        opt = Adam(flat, lr=lr)
        for grads in grad_steps:
            opt.step(flat, np.concatenate([g.ravel() for g in grads]))
        for p, r in zip(params, reference):
            assert p.dtype == dtype and p.tobytes() == r.tobytes()


class TestReplayBuffer:
    def test_fifo_overwrite(self):
        buf = ReplayBuffer(3, 2)
        for k in range(5):
            buf.push(np.full(2, k), k, float(k), np.full(2, k + 1), False)
        assert buf.size == 3
        assert set(buf.actions.tolist()) == {2, 3, 4}

    def test_sample_without_replacement(self, rng):
        buf = ReplayBuffer(10, 2)
        for k in range(10):
            buf.push(np.zeros(2), k, 0.0, np.zeros(2), False)
        _, actions, *_ = buf.sample(10, rng)
        assert sorted(actions.tolist()) == list(range(10))

    def test_sample_stacks_states_and_next_states(self):
        buf = ReplayBuffer(8, 3)
        for k in range(6):
            buf.push(np.full(3, k), k, 0.5 * k, np.full(3, 10 + k), k % 2 == 0)
        obs, actions, rewards, dones = buf.sample(4, np.random.default_rng(5))
        idx = np.random.default_rng(5).choice(6, size=4, replace=False)
        assert obs.shape == (2, 4, 3) and obs.dtype == np.float32 and obs.flags.c_contiguous
        np.testing.assert_array_equal(actions, idx)
        np.testing.assert_array_equal(obs[0], np.repeat(idx[:, None], 3, axis=1))
        np.testing.assert_array_equal(obs[1], obs[0] + 10)
        np.testing.assert_array_equal(rewards, 0.5 * idx)
        np.testing.assert_array_equal(dones, idx % 2 == 0)


class TestDQNConfig:
    @pytest.mark.parametrize("bad", [
        {"gamma": 0.0},
        {"epsilon_initial": 0.05},
        {"decay_fraction": -0.1},
        {"decay_fraction": 1.5},
        {"total_timesteps": 0},
        {"batch": 0},
        {"buffer_capacity": 63},
        {"target_sync_every": 0},
        {"learn_start": -1},
        {"lr": 0.0},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"seed": -1},
    ], ids=lambda bad: "{}={}".format(*next(iter(bad.items()))))
    def test_out_of_range_field_is_value_error(self, bad):
        with pytest.raises(ValueError):
            DQNConfig(**bad)

    def test_edges_are_accepted(self):
        DQNConfig(decay_fraction=0.0, batch=1, buffer_capacity=1, target_sync_every=1,
                  learn_start=0, seed=0)
        DQNConfig(decay_fraction=1.0)


class TestPolicy:
    def test_epsilon_schedule(self):
        cfg = DQNConfig(total_timesteps=1000, decay_fraction=0.1)
        assert epsilon_at(0, cfg) == pytest.approx(1.0)
        assert epsilon_at(50, cfg) == pytest.approx(0.55)
        assert epsilon_at(100, cfg) == pytest.approx(0.1)
        assert epsilon_at(999, cfg) == pytest.approx(0.1)

    def test_greedy_when_epsilon_zero(self, rng):
        net = QNetwork(3, 4, rng)
        s = rng.normal(size=3)
        expected = int(np.argmax(net.forward(s)))
        for _ in range(10):
            assert act(s, net, 0.0, rng) == expected

    def test_uniform_when_epsilon_one(self, rng):
        net = QNetwork(3, 4, rng)
        s = rng.normal(size=3)
        picks = {act(s, net, 1.0, rng) for _ in range(200)}
        assert picks == {0, 1, 2, 3}

    def test_td_targets_terminal_cutoff(self, rng):
        net = QNetwork(2, 3, rng)
        s2 = rng.normal(size=(2, 2)).astype(np.float32)
        r = np.array([1.0, 1.0])
        y = td_targets(r, s2, np.array([False, True]), net, 0.99)
        assert y[1] == pytest.approx(1.0)
        assert y[0] == pytest.approx(1.0 + 0.99 * net.forward(s2[0]).max(), rel=1e-6)


class TestTraining:
    def test_train_step_reduces_loss_on_fixed_batch(self, rng):
        net = QNetwork(4, 2, rng)
        opt = Adam(net.flat, lr=1e-2)
        batch = (
            rng.normal(size=(2, 32, 4)).astype(np.float32),
            rng.integers(0, 2, size=32),
            rng.normal(size=32).astype(np.float32),
            np.ones(32, dtype=bool),  # done: targets are just rewards, fixed
        )
        first = train_step(net, batch, opt, 0.99)
        for _ in range(200):
            last = train_step(net, batch, opt, 0.99)
        assert last < first * 0.1

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_loss_raises(self, rng):
        net = QNetwork(2, 2, rng)
        net.weights[0][:] = np.inf
        opt = Adam(net.flat)
        batch = (np.ones((2, 4, 2), dtype=np.float32), np.zeros(4, dtype=np.int64),
                 np.zeros(4, dtype=np.float32), np.ones(4, dtype=bool))
        with pytest.raises(NonFiniteLossError):
            train_step(net, batch, opt, 0.99)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([np.float32, np.float64]),
           st.sampled_from([(64, 64), (5, 3)]), st.integers(1, 9), st.integers(2, 9),
           st.integers(1, 64), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_fused_step_bit_equals_reference(self, seed, dtype, hidden, obs_dim, n_actions,
                                             n, steps, sync_every):
        """Consecutive fused steps, with target syncs between them, leave
        the same bytes in both lanes and in Adam's moments, and return the
        same losses, as td_targets -> loss_and_grads -> Adam.step."""
        nets = [QNetwork(obs_dim, n_actions, np.random.default_rng(seed), hidden, dtype)
                for _ in range(2)]
        fused, ref = nets
        opts = [Adam(net.flat, lr=1e-2) for net in nets]
        rng = np.random.default_rng(seed + 1)
        for t in range(steps):
            obs = rng.normal(size=(2, n, obs_dim)).astype(np.float32)
            actions = rng.integers(0, n_actions, size=n)
            rewards = rng.normal(size=n).astype(np.float32)
            dones = rng.random(n) < 0.3
            loss = train_step(fused, (obs, actions, rewards, dones), opts[0], 0.9)
            targets = td_targets(rewards, obs[1], dones, ref.target, 0.9)
            want, grads = ref.loss_and_grads(obs[0], actions, targets)
            opts[1].step(ref.flat, np.concatenate([g.ravel() for g in grads]))
            assert repr(loss) == repr(want)
            if (t + 1) % sync_every == 0:
                for net in nets:
                    net.lanes[1] = net.lanes[0]
            for a, b in ((fused.lanes, ref.lanes), (opts[0].m, opts[1].m),
                         (opts[0].v, opts[1].v)):
                assert a.dtype == dtype and a.tobytes() == b.tobytes()

    def test_history_shape_and_determinism(self):
        cfg = DQNConfig(total_timesteps=300, learn_start=50, batch=16,
                        buffer_capacity=200, target_sync_every=50, seed=3)
        _, _, h1 = train(ChainEnv, cfg)
        _, _, h2 = train(ChainEnv, cfg)
        assert len(h1) == 300
        assert [r.step for r in h1] == list(range(300))
        assert all(a == b for a, b in zip(h1, h2))
        eps = [r.epsilon for r in h1]
        assert eps == sorted(eps, reverse=True)

    def test_history_csv(self, tmp_path):
        rows = [HistoryRow(0, 0, 0.5, 0.1, 1.0), HistoryRow(1, 0, -0.05, 0.1, 0.9)]
        path = tmp_path / "history.csv"
        write_history_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,episode,reward,best_q,epsilon"
        assert lines[1].startswith("0,0,0.5,0.1,1.0")

    def test_history_csv_writes_numpy_scalars_as_floats(self, tmp_path):
        rows = [HistoryRow(0, 0, np.float64(-0.05), np.float32(0.5), np.float64(1.0))]
        path = tmp_path / "history.csv"
        write_history_csv(rows, path)
        assert path.read_text().splitlines()[1] == "0,0,-0.05,0.5,1.0"


class TestOracle:
    def _world(self):
        nt = 48
        rng = np.random.default_rng(0)
        # planted signal strongest between two specific 2x2-cell blocks
        s = rng.normal(size=nt)
        vals = 20.0 + rng.normal(0, 0.5, size=(nt, 9, 9)).astype(np.float32)
        vals[:, 1:3, 1:3] -= (2.0 * s)[:, None, None].astype(np.float32)
        vals[:, 6:8, 6:8] += (2.0 * s)[:, None, None].astype(np.float32)
        field = make_field(vals)
        a = AreaSet.of(Rect(0.5, 1.0, 100.5, 101.0))
        b = AreaSet.of(Rect(3.0, 3.5, 103.0, 103.5))
        domain = Rect(0.0, 4.0, 100.0, 104.0)
        return field, s, a, b, domain

    def test_finds_planted_blocks(self):
        field, s, a, b, domain = self._world()
        rng = np.random.default_rng(1)
        y = 4.0 * s + 0.1 * rng.normal(size=len(s))
        (best_a, best_b), q = exhaustive_search(field, y, y, a, b, domain)
        assert q > 0.9
        assert best_a.rects[0] == Rect(0.5, 1.0, 100.5, 101.0)
        assert best_b.rects[0] == Rect(3.0, 3.5, 103.0, 103.5)

    def test_oracle_at_least_any_manual_placement(self):
        field, s, a, b, domain = self._world()
        rng = np.random.default_rng(2)
        y = s + rng.normal(size=len(s))

        (best_a, best_b), q = exhaustive_search(field, y, y, a, b, domain)
        report = evaluate_pair(field, best_a, best_b, y, y)
        assert report.valid
        assert report.q == pytest.approx(q, abs=1e-6)
        # spot-check a few random placements never beat the oracle
        offs_a = _placements(a, domain, 0.5)
        offs_b = _placements(b, domain, 0.5)
        for _ in range(20):
            pa = a.shifted(*offs_a[rng.integers(len(offs_a))])
            pb = b.shifted(*offs_b[rng.integers(len(offs_b))])
            rep = evaluate_pair(field, pa, pb, y, y)
            if rep.valid:
                assert rep.q <= q + 1e-6

    @given(st.integers(0, 1000), st.floats(0.0, 3.0))
    @settings(max_examples=15, deadline=None)
    def test_q_equals_evaluate_pair_on_argmax(self, seed, coupling):
        field, s, a, b, domain = self._world()
        rng = np.random.default_rng(seed)
        y_on = coupling * s + rng.normal(size=len(s))
        y_re = coupling * s + rng.normal(size=len(s))
        (best_a, best_b), q = exhaustive_search(field, y_on, y_re, a, b, domain)
        report = evaluate_pair(field, best_a, best_b, y_on, y_re)
        assert report.valid
        assert abs(report.q - q) <= 1e-12

    def test_all_pairs_degenerate_is_typed_error(self):
        _, s, a, b, domain = self._world()
        field = make_field(np.full((len(s), 9, 9), 20.0, dtype=np.float32))
        with pytest.raises(NemonsoonError, match="degenerate"):
            exhaustive_search(field, s, s, a, b, domain)

    def test_no_valid_placement_is_typed_error(self):
        field, s, a, b, domain = self._world()
        with pytest.raises(NemonsoonError, match="no placement of B"):
            exhaustive_search(field, s, s, a, b, Rect(0.0, 4.0, 100.0, 100.4))
        between_centres = AreaSet.of(Rect(0.1, 0.4, 100.05, 100.15))  # no cells
        with pytest.raises(NemonsoonError, match="no placement of A"):
            exhaustive_search(field, s, s, between_centres, a, domain)


def reference_exhaustive_search(field, y_onset, y_retreat, template_a, template_b,
                                domain, step=0.5, min_ocean=0.8):
    """The per-placement loop the Gram-matrix oracle replaces: every A
    placement against the stack of B's centred series, one difference per
    pair, scored by `seasonal_scores`."""
    months = field.spec.months()
    target = index.season_target(y_onset, y_retreat, months)

    def valid_placements(template):
        for offset in _placements(template, domain, step):
            s, _ = index.ocean_series(field, template.shifted(*offset), min_ocean)
            if s is not None:
                yield offset, index.season_centre(s, months)

    placed_b = list(valid_placements(template_b))
    if not placed_b:
        raise NemonsoonError(f"no placement of B in {domain} meets the area constraint")
    centred_b = np.array([c for _, c in placed_b])
    best_q, best = -np.inf, None
    for offset_a, c_a in valid_placements(template_a):
        q = np.nan_to_num(seasonal_scores(centred_b - c_a, target, months)[2],
                          nan=-np.inf)
        ib = int(np.argmax(q))
        if q[ib] > best_q + 1e-15:
            best_q, best = float(q[ib]), (offset_a, placed_b[ib][0])
    if best is None:
        raise NemonsoonError(
            f"no valid (A, B) pair in {domain}: no placement of A meets the area "
            "constraint, or every pair is degenerate (constant or non-finite)")
    return (template_a.shifted(*best[0]), template_b.shifted(*best[1])), best_q


# templates on a 0.5 degree grid: one cell, a 2x2 block, a 3x2 block and a
# two-rect union (the cell path of the area reductions)
_TEMPLATES = [
    AreaSet.of(Rect(0.0, 0.25, 100.0, 100.25)),
    AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5)),
    AreaSet.of(Rect(0.0, 1.0, 100.0, 100.5)),
    AreaSet.of(Rect(0.0, 0.5, 100.0, 100.25), Rect(0.5, 1.0, 100.0, 100.5)),
]


class TestGramOracle:
    @given(st.integers(0, 10_000), st.floats(0.0, 0.5), st.booleans(),
           st.sampled_from(range(len(_TEMPLATES))), st.sampled_from(["identical", "other"]),
           st.sampled_from(range(len(_TEMPLATES))), st.sampled_from([0.5, 0.8]))
    @settings(max_examples=60, deadline=None)
    # every B placement that meets the area constraint has a NaN month: both
    # must raise the "no valid (A, B) pair" error, not "no placement of B"
    @example(seed=1164, land=0.5, nan_month=True, ta=0, relation="other", tb=1,
             min_ocean=0.8)
    def test_matches_per_placement_loop(self, seed, land, nan_month, ta, relation, tb,
                                        min_ocean):
        rng = np.random.default_rng(seed)
        nt, nlat, nlon = 36, 6, 7
        signal = rng.normal(size=nt)
        vals = (20.0 + rng.normal(0, 0.5, size=(nt, nlat, nlon))
                + signal[:, None, None] * rng.normal(size=(nlat, nlon)))
        vals[:, rng.random((nlat, nlon)) < land] = np.nan
        if nan_month:
            vals[5, rng.integers(nlat), rng.integers(nlon)] = np.nan
        field = make_field(vals.astype(np.float32))
        y_on = rng.uniform(0, 2) * signal + rng.normal(size=nt)
        y_re = rng.uniform(0, 2) * signal + rng.normal(size=nt)
        # identical templates give identical series at every shared offset;
        # others overlap at some offsets
        a = _TEMPLATES[ta]
        b = a if relation == "identical" else _TEMPLATES[tb]
        domain = field.spec.domain()
        args = (field, y_on, y_re, a, b, domain, 0.5, min_ocean)
        try:
            _, want_q = reference_exhaustive_search(*args)
        except NemonsoonError as exc:
            with pytest.raises(NemonsoonError) as got:
                exhaustive_search(*args)
            assert str(got.value) == str(exc)
            return
        (best_a, best_b), q = exhaustive_search(*args)
        assert abs(q - want_q) <= 1e-9
        report = evaluate_pair(field, best_a, best_b, y_on, y_re, min_ocean)
        assert report.valid
        assert abs(report.q - q) <= 1e-12
        assert not np.array_equal(area_mean_series(field, best_a),
                                  area_mean_series(field, best_b))


# templates for the summed-area path on a 0.5 degree grid: single rects of
# one cell to 3x2 cells, two overlapping rects, two disjoint rects and three
# rects that overlap pairwise
_TABLE_TEMPLATES = [
    AreaSet.of(Rect(0.0, 0.25, 100.0, 100.25)),
    AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5)),
    AreaSet.of(Rect(0.0, 1.0, 100.0, 100.5)),
    AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5), Rect(0.25, 1.0, 100.25, 100.75)),
    AreaSet.of(Rect(0.0, 0.5, 100.0, 100.25), Rect(0.5, 1.0, 100.0, 100.5)),
    AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5), Rect(0.5, 1.0, 100.0, 100.25),
               Rect(0.0, 1.0, 100.25, 100.5)),
]


def _table_world(seed, land, nan_cells, inf_cell, nt=36, nlat=6, nlon=7):
    """A field with land, cells that are NaN in some months only, and
    optionally a cell that is infinite in one month."""
    rng = np.random.default_rng(seed)
    signal = rng.normal(size=nt)
    vals = (20.0 + rng.normal(0, 0.5, size=(nt, nlat, nlon))
            + signal[:, None, None] * rng.normal(size=(nlat, nlon)))
    vals[:, rng.random((nlat, nlon)) < land] = np.nan
    for _ in range(nan_cells):
        months = rng.random(nt) < 0.2
        vals[months, rng.integers(nlat), rng.integers(nlon)] = np.nan
    if inf_cell:
        vals[rng.integers(nt), rng.integers(nlat), rng.integers(nlon)] = np.inf
    field = make_field(vals.astype(np.float32))
    y_on = rng.uniform(0, 2) * signal + rng.normal(size=nt)
    y_re = rng.uniform(0, 2) * signal + rng.normal(size=nt)
    return field, y_on, y_re


def _lattices(field, templates, domain, step, min_ocean):
    ocean = _table(field.ocean_mask()[None].astype(np.int64))
    lattices = [_Lattice(t, domain, step, field.spec, ocean, min_ocean) for t in templates]
    return lattices, _fill_series(field, lattices)


def _padded(domain, pad):
    return Rect(domain.lat_min - pad, domain.lat_max + pad,
                domain.lon_min - pad, domain.lon_max + pad)


_STEPS = [0.25, 0.5, 0.75, 1.0]


class TestTablePath:
    @given(st.integers(0, 10_000), st.floats(0.0, 0.5), st.integers(0, 2), st.booleans(),
           st.sampled_from(range(len(_TABLE_TEMPLATES))), st.sampled_from(_STEPS),
           st.sampled_from([0.0, 0.5]), st.sampled_from([0.5, 0.8]))
    @settings(max_examples=80, deadline=None)
    def test_series_match_ocean_series(self, seed, land, nan_cells, inf_cell, template,
                                       step, pad, min_ocean):
        """The tables decide the area constraint as `ocean_series` does, put
        the non-finite months in the same places, and keep every finite
        month within the stated bound. A padded domain puts placements
        across the grid's edge."""
        field, _, _ = _table_world(seed, land, nan_cells, inf_cell)
        (lattice,), peak = _lattices(field, [_TABLE_TEMPLATES[template]],
                                     _padded(field.spec.domain(), pad), step, min_ocean)
        err = lattice.error(peak)
        fits = list(lattice.fits)
        for k, offset in enumerate(lattice.offsets):
            want, _ = index.ocean_series(field, lattice.template.shifted(*offset),
                                         min_ocean)
            assert (k in fits) == (want is not None)
            if want is None:
                continue
            row = fits.index(k)
            got = lattice.series[row].astype(float)
            finite = np.isfinite(want)
            np.testing.assert_array_equal(np.isfinite(got), finite)
            assert (np.abs(got - want)[finite] <= err[row]).all()

    @given(st.integers(0, 10_000), st.floats(0.0, 0.4), st.integers(0, 1), st.booleans(),
           st.sampled_from(range(len(_TABLE_TEMPLATES))),
           st.sampled_from(range(len(_TABLE_TEMPLATES))), st.sampled_from(_STEPS))
    @settings(max_examples=40, deadline=None)
    def test_bound_covers_exact_q(self, seed, land, nan_cells, inf_cell, ta, tb, step):
        """Every pair's table q lies within its bound of `PairObjective`'s q
        on the `area_mean_series` series; a pair that only the exact path
        finds invalid has a bound of at least 1, so it is always scored
        again when near the best."""
        field, y_on, y_re = _table_world(seed, land, nan_cells, inf_cell)
        months = field.spec.months()
        (lat_a, lat_b), peak = _lattices(field, [_TABLE_TEMPLATES[ta], _TABLE_TEMPLATES[tb]],
                                         field.spec.domain(), step, 0.5)
        rows_a, rows_b = (np.flatnonzero(np.isfinite(lat.series).all(axis=1))
                          for lat in (lat_a, lat_b))
        if not len(rows_a) or not len(rows_b):
            return
        scorer = index.PairScorer(months, index.season_target(y_on, y_re, months),
                                  lat_b.series[rows_b].astype(float), lat_b.error(peak)[rows_b])
        objective = index.PairObjective(field, y_on, y_re, 0.5)
        # every B placement against a sample of A placements
        rows_a = np.random.default_rng(seed).permutation(rows_a)[:8]
        q, bound = scorer.scores(lat_a.series[rows_a], lat_a.error(peak)[rows_a])
        for i, ra in enumerate(rows_a):
            for j, rb in enumerate(rows_b):
                exact = objective(lat_a.area(ra), lat_b.area(rb)).q
                if np.isnan(exact):
                    assert np.isnan(q[i, j]) or bound[i, j] >= 1.0
                elif not np.isnan(q[i, j]):
                    assert abs(q[i, j] - exact) <= bound[i, j]

    @given(st.integers(0, 10_000), st.integers(12, 120), st.integers(1, 12),
           st.integers(1, index.PairScorer.BLOCK_ROWS), st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_block_centring_is_byte_equal_to_rows(self, seed, nt, m0, rows, scale):
        rng = np.random.default_rng(seed)
        months = (m0 - 1 + np.arange(nt)) % 12 + 1
        block = 20.0 + scale * rng.normal(size=(rows, nt))
        scorer = index.PairScorer(months, rng.normal(size=nt), block.copy())
        order = np.concatenate([np.flatnonzero(sel) for sel in index.season_masks(months)])
        want = np.array([np.take(index.season_centre(row, months), order) for row in block])
        assert scorer._centred(block).tobytes() == want.tobytes()

    def test_near_tie_goes_to_the_exact_best(self):
        """B's 2x2 blocks in rows 0-1 and rows 2-3 hold the same four cell
        series in reverse order, but for one value one float32 step lower:
        their float64 table means differ by that step, while
        `area_mean_series` also adds the float32 values in another order.
        The table q prefers rows 0-1 by 2.3e-8 and the exact q rows 2-3 by
        2.4e-8; the oracle returns the exact best. Column 2 holds A's best
        cell and noise."""
        nt = 48
        rng = np.random.default_rng(0)
        signal = rng.normal(size=nt)
        vals = 20.0 + rng.normal(0, 0.5, size=(nt, 4, 3))
        vals[:, 0, :2] += 1.5 * signal[:, None]
        vals[:, 1, :2] += 0.5 * signal[:, None]
        vals[:, 2:, :2] = vals[:, 1::-1, 1::-1]
        vals[:, :, 2] = 20.0 + rng.normal(0, 3.0, size=(nt, 4))
        vals[:, 0, 2] = 20.0 - signal + rng.normal(0, 0.3, size=nt)
        vals = vals.astype(np.float32)
        vals[4, 3, 1] = np.nextafter(vals[4, 3, 1], np.float32(-np.inf))
        field = make_field(vals)
        y_on = signal + rng.normal(size=nt)
        y_re = signal + rng.normal(size=nt)
        a = AreaSet.of(Rect(0.0, 0.25, 101.0, 101.25))
        b = AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5))
        domain = field.spec.domain()
        args = (field, y_on, y_re, a, b, domain)
        (want_a, want_b), want_q = reference_exhaustive_search(*args)
        (got_a, got_b), got_q = exhaustive_search(*args)
        assert (got_a, got_b) == (want_a, want_b)
        assert abs(got_q - want_q) <= 1e-12
        # the table alone would pick the other block
        months = field.spec.months()
        (lat_a, lat_b), _ = _lattices(field, [a, b], domain, 0.5, 0.8)
        scorer = index.PairScorer(months, index.season_target(y_on, y_re, months),
                                  lat_b.series.astype(float))
        q, _ = scorer.scores(lat_a.series)
        ia, ib = np.unravel_index(np.nanargmax(q), q.shape)
        assert want_b == AreaSet.of(Rect(1.0, 1.5, 100.0, 100.5))
        assert (lat_a.area(ia), lat_b.area(ib)) == (want_a, b)
        assert index.PairObjective(field, y_on, y_re)(want_a, b).q < want_q - 1e-8


@pytest.mark.parametrize("value", [7.1, 0.3])
def test_constant_target_never_scores_in_the_oracle(value):
    # a retreat target exactly constant at 7.1 or 0.3: centring once left a
    # residue of about 1e-16 and the oracle returned a q; now every pair is
    # invalid, as in evaluate_pair and the environment
    rng = np.random.default_rng(0)
    field = make_field((20.0 + rng.normal(0, 0.5, size=(60, 6, 6))).astype(np.float32))
    a = AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5))
    with pytest.raises(NemonsoonError, match="degenerate"):
        exhaustive_search(field, rng.normal(size=60), np.full(60, value), a, a,
                          field.spec.domain())


def test_nan_month_in_planted_a_is_invalid_everywhere():
    # one missing month in one ocean cell inside planted A; the scalar
    # scorer once turned it into q = 1.0 while the oracle skipped the pair
    spec = SynthSpec()
    field = gen_sst(spec, seed=1)
    sts, labels = gen_stations(spec, seed=1)
    y_on, y_re = regime_targets(sts, labels)
    field.values[5, 10, 10] = np.nan
    planted_a, planted_b = spec.planted_areas()
    assert (10, 10) in area_cells(planted_a, field.spec)

    report = evaluate_pair(field, planted_a, planted_b, y_on, y_re)
    assert not report.valid
    assert np.isnan(report.q)
    assert "non-finite" in report.violation

    env = AreaEnv(field, y_on, y_re,
                  EnvConfig(SHIFT_ONLY, spec.domain(), planted_a, planted_b))
    assert env._q_of(planted_a, planted_b) is None
    with pytest.raises(InvalidInitialAreasError):
        env.reset(np.random.default_rng(0))

    (best_a, best_b), q = exhaustive_search(field, y_on, y_re, planted_a, planted_b,
                                            spec.domain())
    assert (10, 10) not in area_cells(best_a, field.spec) | area_cells(best_b, field.spec)
    assert abs(env._q_of(best_a, best_b) - q) <= 1e-12
