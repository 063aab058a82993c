import numpy as np
import pytest

from nemonsoon.errors import EpisodeOverError, InvalidInitialAreasError
from nemonsoon.geogrid import AreaSet, Rect
from nemonsoon.rl_env import (
    Action,
    AreaEnv,
    EnvConfig,
    SHIFT_AND_RESIZE,
    SHIFT_ONLY,
    _move_rect,
    apply_action,
    areas_from_json,
    areas_to_json,
    encode_state,
    enumerate_actions,
    load_areas,
    save_areas,
)

from conftest import make_field


DOMAIN = Rect(0.0, 10.0, 100.0, 110.0)


def make_env(nt=36, jitter=0, mode=SHIFT_ONLY, episode_len=8):
    rng = np.random.default_rng(42)
    vals = rng.uniform(15, 25, size=(nt, 21, 21)).astype(np.float32)
    field = make_field(vals)  # 0.5 deg grid covering lat 0..10, lon 100..110
    cfg = EnvConfig(
        mode=mode,
        domain=DOMAIN,
        init_a=AreaSet.of(Rect(2.0, 4.0, 102.0, 104.0)),
        init_b=AreaSet.of(Rect(6.0, 8.0, 106.0, 108.0)),
        episode_len=episode_len,
        jitter=jitter,
    )
    y_on = rng.normal(size=nt)
    y_re = rng.normal(size=nt)
    return AreaEnv(field, y_on, y_re, cfg)


class TestActions:
    def test_counts(self):
        assert len(enumerate_actions(SHIFT_ONLY)) == 8
        assert len(enumerate_actions(SHIFT_AND_RESIZE)) == 16

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            enumerate_actions("wiggle")

    def test_shift_is_rigid(self):
        r = Rect(2.0, 4.0, 102.0, 104.0)
        moved = _move_rect(r, Action("A", "lat", "shift+"), 0.5)
        assert moved == Rect(2.5, 4.5, 102.0, 104.0)
        back = _move_rect(moved, Action("A", "lat", "shift-"), 0.5)
        assert back == r

    def test_resize_symmetric_about_center(self):
        r = Rect(2.0, 4.0, 102.0, 104.0)
        grown = _move_rect(r, Action("A", "lon", "expand"), 0.5)
        assert grown == Rect(2.0, 4.0, 101.75, 104.25)
        shrunk = _move_rect(grown, Action("A", "lon", "shrink"), 0.5)
        assert shrunk == r

    def test_shrink_to_nothing_invalid(self):
        r = Rect(2.0, 2.4, 102.0, 104.0)
        assert _move_rect(r, Action("A", "lat", "shrink"), 0.5) is None

    def test_domain_exit_invalid(self):
        cfg = EnvConfig(SHIFT_ONLY, DOMAIN,
                        AreaSet.of(Rect(0.0, 2.0, 102.0, 104.0)),
                        AreaSet.of(Rect(6.0, 8.0, 106.0, 108.0)))
        out = apply_action(cfg.init_a, cfg.init_b, Action("A", "lat", "shift-"), cfg)
        assert out is None

    def test_only_target_moves(self):
        cfg = EnvConfig(SHIFT_ONLY, DOMAIN,
                        AreaSet.of(Rect(2.0, 4.0, 102.0, 104.0)),
                        AreaSet.of(Rect(6.0, 8.0, 106.0, 108.0)))
        new_a, new_b = apply_action(cfg.init_a, cfg.init_b, Action("B", "lon", "shift+"), cfg)
        assert new_a == cfg.init_a
        assert new_b.rects[0] == Rect(6.0, 8.0, 106.5, 108.5)


class TestEncoding:
    def test_scaled_to_unit_box(self):
        a = AreaSet.of(Rect(0.0, 10.0, 100.0, 110.0))
        b = AreaSet.of(Rect(5.0, 7.5, 102.5, 105.0))
        obs = encode_state(a, b, DOMAIN)
        np.testing.assert_allclose(obs, [0, 1, 0, 1, 0.5, 0.75, 0.25, 0.5])

    def test_dim_matches_rect_count(self):
        a = AreaSet.of(Rect(1, 2, 101, 102), Rect(3, 4, 103, 104))
        b = AreaSet.of(Rect(5, 6, 105, 106))
        assert encode_state(a, b, DOMAIN).shape == (12,)


class TestEpisode:
    def test_reset_then_step(self):
        env = make_env()
        rng = np.random.default_rng(0)
        obs = env.reset(rng)
        assert obs.shape == (env.obs_dim,)
        obs2, reward, done = env.step(0)
        assert obs2.shape == obs.shape
        assert np.isfinite(reward)
        assert not done

    def test_step_before_reset_raises(self):
        env = make_env()
        with pytest.raises(EpisodeOverError):
            env.step(0)

    def test_episode_terminates_and_locks(self):
        env = make_env(episode_len=3)
        env.reset(np.random.default_rng(0))
        done = False
        for _ in range(3):
            _, _, done = env.step(0)
        assert done
        with pytest.raises(EpisodeOverError):
            env.step(0)

    def test_rewards_telescope_to_q_gain(self):
        env = make_env(episode_len=10)
        rng = np.random.default_rng(1)
        env.reset(rng)
        q0 = env.state.last_q
        total = 0.0
        penalties = 0.0
        for _ in range(10):
            before = (env.state.area_a, env.state.area_b)
            _, r, _ = env.step(int(rng.integers(env.n_actions)))
            total += r
            if (env.state.area_a, env.state.area_b) == before:
                penalties += r
        assert total - penalties == pytest.approx(env.state.last_q - q0, abs=1e-12)

    def test_invalid_action_is_penalized_noop(self):
        env = make_env()
        env.reset(np.random.default_rng(0))
        # drive A to the lat_min wall, then push further
        idx = env.actions.index(Action("A", "lat", "shift-"))
        for _ in range(4):
            env.step(idx)
        geom_before = (env.state.area_a, env.state.area_b)
        _, reward, _ = env.step(idx)
        assert reward == -env.config.invalid_penalty
        assert (env.state.area_a, env.state.area_b) == geom_before

    def test_ocean_violation_is_penalized_noop(self):
        env = make_env()
        env.field.values[:, :, 17:] = np.nan  # land east of lon 108.25
        env.reset(np.random.default_rng(0))
        idx = env.actions.index(Action("B", "lon", "shift+"))
        env.step(idx)  # B spans lon 106.5..108.5: 4 of 5 columns ocean, 0.8
        assert env.state.area_b.rects[0].lon_max == 108.5
        geom_before = (env.state.area_a, env.state.area_b)
        _, reward, _ = env.step(idx)  # 3 of 5 columns ocean
        assert reward == -env.config.invalid_penalty
        assert (env.state.area_a, env.state.area_b) == geom_before

    def test_jitter_respects_lattice_and_validity(self):
        env = make_env(jitter=2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            env.reset(rng)
            for area, init in ((env.state.area_a, env.config.init_a),
                               (env.state.area_b, env.config.init_b)):
                r, r0 = area.rects[0], init.rects[0]
                dlat = (r.lat_min - r0.lat_min) / env.config.step
                dlon = (r.lon_min - r0.lon_min) / env.config.step
                assert dlat == pytest.approx(round(dlat))
                assert abs(dlat) <= 2 and abs(dlon) <= 2
                assert r.lat_max - r.lat_min == pytest.approx(r0.lat_max - r0.lat_min)
            assert all(env.config.domain.contains(r)
                       for area in (env.state.area_a, env.state.area_b) for r in area.rects)
            assert env._q_of(env.state.area_a, env.state.area_b) is not None

    def test_invalid_initial_areas_raise(self):
        env = make_env()
        bad = EnvConfig(SHIFT_ONLY, DOMAIN,
                        AreaSet.of(Rect(-5.0, -3.0, 102.0, 104.0)),
                        env.config.init_b)
        env.config = bad
        with pytest.raises(InvalidInitialAreasError):
            env.reset(np.random.default_rng(0))

    def test_q_cache_consistent(self):
        env = make_env()
        a, b = env.config.init_a, env.config.init_b
        q1 = env._q_of(a, b)
        q2 = env._q_of(a, b)
        assert q1 == q2
        assert len(env._q_cache) == 1


class TestAreaIO:
    def test_json_round_trip(self):
        a = AreaSet.of(Rect(1.0, 2.5, 101.0, 103.0))
        b = AreaSet.of(Rect(5.0, 6.0, 105.0, 107.5), Rect(7.0, 8.0, 101.0, 102.0))
        doc = areas_to_json(a, b)
        assert set(doc) == {"A", "B"}
        back_a, back_b = areas_from_json(doc)
        assert back_a == a and back_b == b

    def test_file_round_trip(self, tmp_path):
        a = AreaSet.of(Rect(1.0, 2.5, 101.0, 103.0))
        b = AreaSet.of(Rect(5.0, 6.0, 105.0, 107.5))
        path = tmp_path / "areas.json"
        save_areas(a, b, path)
        assert load_areas(path) == (a, b)
