"""End-to-end acceptance checks for the whole pipeline.

Each test prints a single pass/fail line so the suite output doubles as an
acceptance report. The heavyweight checks (optimizer parity, forecast lift)
run on the deterministic synthetic world with its planted ground truth.
"""

import csv
import sys
import time

import numpy as np
import pytest

from nemonsoon import dqn, forecast, index, rl_env, stations, synthdata
from nemonsoon.cli import dispatch
from nemonsoon.dqn import DQNConfig, QNetwork, exhaustive_search, train_with_net
from nemonsoon.errors import SkippedCluster
from nemonsoon.forecast import FOLD1, FOLD2, HORIZON, ForecasterConfig, LSTMForecaster
from nemonsoon.geogrid import ocean_fraction
from nemonsoon.index import normalise_series, objective_q, pearson
from nemonsoon.rl_env import AreaEnv, EnvConfig, SHIFT_AND_RESIZE, SHIFT_ONLY
from nemonsoon.stations import ClusterParams, run_clustering
from nemonsoon.synthdata import (
    SynthSpec,
    gen_forecast_cluster,
    gen_sst,
    gen_stations,
    regime_targets,
)

from conftest import ChainEnv


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {label}{tail}",
          file=sys.stderr)
    assert ok, f"criterion {num:02d} failed: {label}{tail}"


@pytest.fixture(scope="module")
def accept_world():
    """The default synthetic world: 40x40 cells at 0.5 deg, 240 months."""
    spec = SynthSpec()
    field = gen_sst(spec, seed=0)
    sts, labels = gen_stations(spec, seed=0)
    y_onset, y_retreat = regime_targets(sts, labels)
    return spec, field, y_onset, y_retreat


def _shifted_inits(spec: SynthSpec, shift: float = 2.0):
    from nemonsoon.geogrid import AreaSet, Rect

    a, b = spec.rect_a, spec.rect_b
    init_a = AreaSet.of(Rect(a.lat_min + shift, a.lat_max + shift,
                             a.lon_min - shift, a.lon_max - shift))
    init_b = AreaSet.of(Rect(b.lat_min - shift, b.lat_max - shift,
                             b.lon_min + shift, b.lon_max + shift))
    return init_a, init_b


def test_criterion_01_objective_arithmetic():
    cases = [
        ((0.270, -0.177), 0.052),
        ((-0.653, -0.754), 0.497),
        ((-0.560, -0.714), 0.412),
    ]
    errs = [abs(objective_q(*rs) - expected) for rs, expected in cases]
    _verdict(1, "objective arithmetic matches published triples +/-0.001",
             all(e <= 0.001 for e in errs), f"max err {max(errs):.2e}")


def test_criterion_02_action_cardinalities():
    n_shift = len(rl_env.enumerate_actions(SHIFT_ONLY))
    n_resize = len(rl_env.enumerate_actions(SHIFT_AND_RESIZE))
    _verdict(2, "action spaces have 8 (shift-only) and 16 (shift-resize) actions",
             (n_shift, n_resize) == (8, 16), f"got {n_shift}/{n_resize}")


@pytest.mark.slow
def test_criterion_03_oracle_parity(accept_world):
    spec, field, y_onset, y_retreat = accept_world
    t_start = time.monotonic()
    planted_a, planted_b = spec.planted_areas()
    (best_a, best_b), oracle_q = exhaustive_search(
        field, y_onset, y_retreat, planted_a, planted_b, spec.grid().domain())
    offsets = [
        abs(got.rects[0].lat_min - want.rects[0].lat_min)
        for got, want in ((best_a, planted_a), (best_b, planted_b))
    ] + [
        abs(got.rects[0].lon_min - want.rects[0].lon_min)
        for got, want in ((best_a, planted_a), (best_b, planted_b))
    ]
    within_step = max(offsets) <= 0.5 + 1e-9

    init_a, init_b = _shifted_inits(spec)
    env_config = EnvConfig(mode=SHIFT_ONLY, domain=spec.grid().domain(),
                           init_a=init_a, init_b=init_b, jitter=2)
    ratios = []
    for seed in range(5):
        cfg = DQNConfig(total_timesteps=20_000, seed=seed)
        factory = lambda: AreaEnv(field, y_onset, y_retreat, env_config)
        _, best_q, _, _ = train_with_net(factory, cfg)
        ratios.append(best_q / oracle_q)
    hits = sum(r >= 0.9 for r in ratios)
    elapsed = time.monotonic() - t_start
    _verdict(3, "oracle recovers planted areas and DQN reaches >=0.9x oracle "
                "in >=4/5 seeds under 10 min",
             within_step and hits >= 4 and elapsed < 600,
             f"offset<=0.5: {within_step}, hits {hits}/5, "
             f"ratios {[round(r, 3) for r in ratios]}, {elapsed:.0f}s")


def test_criterion_04_chain_mdp_values():
    gamma = 0.99
    # value iteration on the 5-state chain: V*(s) = gamma^(3-s) for s<4
    v_star = np.array([gamma ** (3 - s) for s in range(4)])
    cfg = DQNConfig(total_timesteps=8_000, gamma=gamma, buffer_capacity=5_000,
                    target_sync_every=250, learn_start=500, seed=0)
    _, _, _, qnet = train_with_net(ChainEnv, cfg)
    greedy = np.array([
        qnet.forward(np.eye(ChainEnv.N)[s]).max() for s in range(4)
    ])
    err = float(np.abs(greedy - v_star).max())
    _verdict(4, "greedy chain-MDP values match value iteration within 1e-2",
             err < 1e-2, f"max err {err:.2e}")


class _AuditEnv(AreaEnv):
    """Records every accepted geometry for a post-hoc constraint audit."""

    def __init__(self, *args, log=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._log = log if log is not None else []

    def reset(self, rng):
        obs = super().reset(rng)
        self._log.append((self.state.area_a, self.state.area_b))
        return obs

    def step(self, action_idx):
        out = super().step(action_idx)
        self._log.append((self.state.area_a, self.state.area_b))
        return out


def test_criterion_05_constraint_safety(accept_world):
    spec, field, y_onset, y_retreat = accept_world
    init_a, init_b = _shifted_inits(spec)
    env_config = EnvConfig(mode=SHIFT_AND_RESIZE, domain=spec.grid().domain(),
                           init_a=init_a, init_b=init_b, jitter=2,
                           episode_len=32)
    log = []
    factory = lambda: _AuditEnv(field, y_onset, y_retreat, env_config, log=log)
    cfg = DQNConfig(total_timesteps=2_000, learn_start=200,
                    buffer_capacity=2_000, seed=0)
    train_with_net(factory, cfg)
    ocean = field.ocean_mask()
    violations = 0
    for area_a, area_b in log:
        for area in (area_a, area_b):
            for r in area.rects:
                if r.lat_max <= r.lat_min or r.lon_max <= r.lon_min:
                    violations += 1
            if ocean_fraction(area, ocean, field.spec) < 0.8:
                violations += 1
    _verdict(5, "no accepted state violates ocean fraction or positive extent",
             violations == 0, f"{len(log)} states audited, {violations} violations")


def _max_rel_grad_err(loss_and_grads, params, grads, rng, points=10, eps=1e-5):
    """Central finite differences vs analytic gradients at random points.

    The denominator is floored at 1e-4 of the largest gradient magnitude so
    FD roundoff on near-zero entries cannot dominate the relative error.
    """
    gmax = max(np.abs(g).max() for g in grads)
    worst = 0.0
    for _ in range(points):
        pi = int(rng.integers(len(params)))
        flat_p = params[pi].reshape(-1)
        flat_g = grads[pi].reshape(-1)
        k = int(rng.integers(flat_p.size))
        orig = flat_p[k]
        flat_p[k] = orig + eps
        lp, _ = loss_and_grads()
        flat_p[k] = orig - eps
        lm, _ = loss_and_grads()
        flat_p[k] = orig
        fd = (lp - lm) / (2 * eps)
        denom = max(abs(fd), abs(flat_g[k]), 1e-4 * gmax)
        worst = max(worst, abs(fd - flat_g[k]) / denom)
    return worst


def test_criterion_06_gradient_checks():
    rng = np.random.default_rng(0)
    qnet = QNetwork(8, 8, rng, dtype=np.float64)
    q_states = rng.normal(size=(16, 8))
    q_actions = rng.integers(0, 8, size=16)
    q_targets = rng.normal(size=16)

    def q_loss():
        return qnet.loss_and_grads(q_states, q_actions, q_targets)

    _, q_grads = q_loss()
    q_err = _max_rel_grad_err(q_loss, qnet.params, q_grads, rng)

    lstm = LSTMForecaster([3], ForecasterConfig(hidden=6, layers=2), [rng])
    lx = rng.normal(size=(4, 9, 3))
    ly = rng.normal(size=(4, HORIZON))

    def l_loss():
        loss, grads = lstm.loss_and_grads([lx], [ly])
        return loss[0], grads

    _, l_grads = l_loss()
    l_err = _max_rel_grad_err(l_loss, lstm.params, l_grads, rng)
    _verdict(6, "analytic gradients match finite differences (rel err < 1e-4)",
             q_err < 1e-4 and l_err < 1e-4,
             f"qnet {q_err:.2e}, lstm {l_err:.2e}")


def test_criterion_07_normalisation_contract(accept_world):
    spec, field, *_ = accept_world
    area_a, area_b = spec.planted_areas()
    series_pool = [index.raw_index(field, area_a, area_b)]
    rng = np.random.default_rng(1)
    for _ in range(20):
        series_pool.append(rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 9),
                                      size=int(rng.integers(24, 480))))
    worst_mean = worst_std = 0.0
    for s in series_pool:
        ref = slice(0, int(len(s) * 0.7))
        for reference in (None, ref):
            z = normalise_series(s, reference)
            window = z if reference is None else z[reference]
            worst_mean = max(worst_mean, abs(window.mean()))
            worst_std = max(worst_std, abs(window.std() - 1.0))
    _verdict(7, "normalised index has |mean|<1e-9 and |std-1|<1e-9 on its "
                "reference window",
             worst_mean < 1e-9 and worst_std < 1e-9,
             f"|mean| {worst_mean:.1e}, |std-1| {worst_std:.1e}")


def _adjusted_rand(labels_a, labels_b) -> float:
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    n = len(a)
    cats_a, cats_b = np.unique(a), np.unique(b)
    table = np.array([[((a == ca) & (b == cb)).sum() for cb in cats_b]
                      for ca in cats_a])
    comb = lambda x: x * (x - 1) / 2.0
    sum_ij = comb(table).sum()
    sum_a = comb(table.sum(axis=1)).sum()
    sum_b = comb(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def test_criterion_08_clustering_recovery():
    spec = SynthSpec()
    sts, labels = gen_stations(spec, seed=0)
    truth = [labels[st.id] for st in sts]

    clusters = run_clustering(sts, ClusterParams(d=2.0, n=2))
    assignment = {sid: cl.id for cl in clusters for sid in cl.member_ids}
    found = [assignment[st.id] for st in sts]
    ari = _adjusted_rand(truth, found)

    merged = run_clustering(sts, ClusterParams(d=1e9, n=2))
    shattered = run_clustering(sts, ClusterParams(d=1e-12, n=2))
    limits_ok = len(merged) == 1 and len(shattered) == len(sts)
    _verdict(8, "planted regimes recovered (ARI >= 0.9) with correct d limits",
             ari >= 0.9 and limits_ok,
             f"ARI {ari:.3f}, d->inf {len(merged)} cluster(s), "
             f"d->0 {len(shattered)} cluster(s)")


@pytest.mark.slow
def test_criterion_09_forecast_lift():
    nt = (2024 - 1982 + 1) * 12
    years = np.repeat(np.arange(1982, 2025), 12)
    grid = [ForecasterConfig(hidden=16, layers=1, dropout=0.0)]
    ratios = []
    for seed in range(3):
        target, ne, cands = gen_forecast_cluster(nt, seed=seed)
        rows = forecast.ablation_experiment(
            cluster_id=seed + 1, target=target, years=years,
            candidate_indices=cands, ne_index=ne,
            foldspecs=[FOLD1, FOLD2], grid=grid, seed=seed,
            include_target_history=False,
        )
        base = np.mean([r["rmse_mm_month"] for r in rows if r["arm"] == "base"])
        with_ne = np.mean([r["rmse_mm_month"] for r in rows if r["arm"] == "base+ne"])
        ratios.append(with_ne / base)
    mean_ratio = float(np.mean(ratios))

    # an uncoupled cluster must be skipped, mirroring the exclusion rule
    flat_target, ne, cands = gen_forecast_cluster(nt, seed=0, beta=0.0)
    skipped = False
    try:
        forecast.ablation_experiment(99, flat_target, years, cands, ne,
                                     [FOLD1], grid=grid, seed=0,
                                     include_target_history=False)
    except SkippedCluster:
        skipped = True
    _verdict(9, "candidate index cuts mean test RMSE by >= 10% over 3 seeds; "
                "uncorrelated clusters are skipped",
             mean_ratio <= 0.9 and skipped,
             f"mean RMSE ratio {mean_ratio:.3f}, "
             f"per-seed {[round(float(r), 3) for r in ratios]}, skipped={skipped}")


def test_criterion_10_cli_determinism(tmp_path):
    world = tmp_path / "world"
    assert dispatch(["synth", "--out", str(world), "--seed", "0"]) == 0

    def run_twice(args, outputs):
        pairs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            out.mkdir(exist_ok=True)
            rendered = [a.replace("{OUT}", str(out)) for a in args]
            assert dispatch(rendered) == 0
            pairs.append([(out / name).read_bytes() for name in outputs])
        return all(x == y for x, y in zip(*pairs))

    cluster_ok = run_twice(
        ["cluster", "--stations", str(world / "stations.csv"),
         "--out", "{OUT}/clusters.csv"], ["clusters.csv"])

    clusters = tmp_path / "r1" / "clusters.csv"
    optimize_ok = run_twice(
        ["optimize", "--sst", str(world / "sst"),
         "--stations", str(world / "stations.csv"),
         "--clusters", str(clusters), "--onset-clusters", "1",
         "--areas", str(world / "initial_areas.json"),
         "--timesteps", "200", "--episode-len", "16", "--seed", "3",
         "--out", "{OUT}"], ["best_areas.json", "history.csv"])

    fw = tmp_path / "fw"
    fw.mkdir()
    nt = 144
    target, ne, cands = gen_forecast_cluster(nt, seed=0)
    sts = [stations.Station(f"C{k}", 5.0, 100.0, "1982-01",
                            np.maximum(target, 0.0)) for k in range(2)]
    stations.write_stations_csv(sts, fw / "stations.csv")
    (fw / "clusters.csv").write_text("cluster_id,station_id\n1,C0\n1,C1\n")
    forecast.write_indices_csv(cands, "1982-01", fw / "indices.csv")
    index.write_index_csv(ne, "1982-01", fw / "ne.csv")
    forecast_ok = run_twice(
        ["forecast", "--stations", str(fw / "stations.csv"),
         "--clusters", str(fw / "clusters.csv"),
         "--indices", str(fw / "indices.csv"),
         "--ne-index", str(fw / "ne.csv"),
         "--cluster", "1", "--with-ne", "--small-grid",
         "--fold", "1982-1991:1992:1993", "--seed", "2",
         "--out", "{OUT}/report.csv"], ["report.csv"])

    _verdict(10, "optimize, cluster, and forecast are byte-identical on rerun",
             cluster_ok and optimize_ok and forecast_ok,
             f"cluster={cluster_ok}, optimize={optimize_ok}, "
             f"forecast={forecast_ok}")


def test_criterion_11_pearson_reference():
    def reference(x, y):
        n = len(x)
        mx, my = sum(x) / n, sum(y) / n
        num = sum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
        den = (sum((xi - mx) ** 2 for xi in x) ** 0.5
               * sum((yi - my) ** 2 for yi in y) ** 0.5)
        return num / den

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 200))
        x = rng.normal(rng.uniform(-10, 10), rng.uniform(0.1, 5), size=n)
        y = rng.normal(rng.uniform(-10, 10), rng.uniform(0.1, 5), size=n)
        worst = max(worst, abs(pearson(x, y) - reference(list(x), list(y))))
    hand = abs(pearson(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 7.0])) - 0.9934)
    _verdict(11, "correlation matches a naive two-pass reference and the hand case",
             worst < 1e-12 and hand <= 1e-4,
             f"max ref diff {worst:.1e}, hand err {hand:.1e}")
