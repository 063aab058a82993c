import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemonsoon import dqn, geogrid, index
from nemonsoon.errors import EpisodeOverError, InvalidInitialAreasError
from nemonsoon.geogrid import AreaSet, GridSpec, Rect, area_boxes, inside
from nemonsoon.rl_env import (
    Action,
    AreaEnv,
    EnvConfig,
    INVALID_PENALTY,
    SHIFT_AND_RESIZE,
    SHIFT_ONLY,
    apply_action,
    areas_from_json,
    areas_to_json,
    encode_state,
    enumerate_actions,
    load_areas,
    save_areas,
)
from nemonsoon.synthdata import SynthSpec, gen_sst, gen_stations, regime_targets

from conftest import make_field, reference_pair_report


DOMAIN = Rect(0.0, 10.0, 100.0, 110.0)
HALF_DEGREE = GridSpec(0.0, 100.0, 0.5, 0.5, 21, 21, "2000-01", 36)  # make_env's grid
STILL = (0, 0, 0, 0)  # the counts of a template in place


def make_env(nt=36, jitter=0, mode=SHIFT_ONLY, episode_len=8, cell=0.5):
    rng = np.random.default_rng(42)
    vals = rng.uniform(15, 25, size=(nt, 21, 21)).astype(np.float32)
    # with 0.5 degree cells, the grid covers lat 0..10, lon 100..110
    field = make_field(vals, dlat=cell, dlon=cell)
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


def reference_move_rect(rect, action, step):
    """The rule `apply_action` replaced: one branch per kind and axis."""
    lat_min, lat_max = rect.lat_min, rect.lat_max
    lon_min, lon_max = rect.lon_min, rect.lon_max
    sign = 1.0 if action.kind in ("shift+", "expand") else -1.0
    if action.kind in ("shift+", "shift-"):
        if action.axis == "lat":
            lat_min += sign * step
            lat_max += sign * step
        else:
            lon_min += sign * step
            lon_max += sign * step
    else:
        half = sign * step / 2.0
        if action.axis == "lat":
            lat_min -= half
            lat_max += half
        else:
            lon_min -= half
            lon_max += half
    if lat_min >= lat_max - 1e-9 or lon_min >= lon_max - 1e-9:
        return None
    return Rect(lat_min, lat_max, lon_min, lon_max)


def reference_jitter_area(area, rng, jitter, step):
    """A jitter in degrees: one whole-cell dlat then dlon per area, added to
    every rect's bounds."""
    dlat = int(rng.integers(-jitter, jitter + 1)) * step
    dlon = int(rng.integers(-jitter, jitter + 1)) * step
    return AreaSet(tuple(Rect(r.lat_min + dlat, r.lat_max + dlat, r.lon_min + dlon,
                              r.lon_max + dlon) for r in area.rects))


class TestActions:
    def test_counts(self):
        assert len(enumerate_actions(SHIFT_ONLY)) == 8
        assert len(enumerate_actions(SHIFT_AND_RESIZE)) == 16

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            enumerate_actions("wiggle")

    def test_shift_is_rigid(self):
        r = Rect(2.0, 4.0, 102.0, 104.0)
        counts, moved = move(STILL, Action("A", "lat", "shift+"), r, 0.5)
        assert (counts, moved) == ((2, 2, 0, 0), AreaSet.of(Rect(2.5, 4.5, 102.0, 104.0)))
        assert move(counts, Action("A", "lat", "shift-"), r, 0.5) == (STILL, AreaSet.of(r))

    def test_resize_symmetric_about_center(self):
        r = Rect(2.0, 4.0, 102.0, 104.0)
        counts, grown = move(STILL, Action("A", "lon", "expand"), r, 0.5)
        assert (counts, grown) == ((0, 0, -1, 1), AreaSet.of(Rect(2.0, 4.0, 101.75, 104.25)))
        assert move(counts, Action("A", "lon", "shrink"), r, 0.5) == (STILL, AreaSet.of(r))

    @settings(max_examples=200, deadline=None)
    @given(bounds=st.lists(st.sampled_from([-0.0, 0.0, -0.5, 0.1, 0.25, 1.0 / 3.0, 2.0, 7.3]),
                           min_size=4, max_size=4),
           extent=st.sampled_from([0.3, 0.5, 1.0, 2.0 / 3.0, 5.0]),
           step=st.sampled_from([0.25, 0.5, 0.1, 1.0 / 3.0]),
           action=st.sampled_from(enumerate_actions(SHIFT_AND_RESIZE)))
    def test_matches_four_branch_rule(self, bounds, extent, step, action):
        """Bit for bit, but for one signed zero: every bound is rebuilt from
        the template, so an untouched -0.0 edge becomes 0.0."""
        lat_min, lat_max, lon_min, lon_max = bounds
        r = Rect(lat_min, max(lat_max, lat_min + extent), lon_min, max(lon_max, lon_min + extent))
        got, want = move(STILL, action, r, step), reference_move_rect(r, action, step)
        assert (got is None) == (want is None)
        if got is not None:
            (got,) = got[1].rects
            assert np.array(got.as_list()).tobytes() == (np.array(want.as_list()) + 0.0).tobytes()

    def test_shrink_to_nothing_invalid(self):
        r = Rect(2.0, 2.4, 102.0, 104.0)
        assert move(STILL, Action("A", "lat", "shrink"), r, 0.5) is None

    def test_domain_exit_invalid(self):
        cfg = EnvConfig(SHIFT_ONLY, DOMAIN,
                        AreaSet.of(Rect(0.0, 2.0, 102.0, 104.0)),
                        AreaSet.of(Rect(6.0, 8.0, 106.0, 108.0)))
        assert apply_action(STILL, Action("A", "lat", "shift-"), cfg, HALF_DEGREE) is None

    def test_only_target_moves(self):
        env = make_env()
        env.reset(np.random.default_rng(0))
        env.step(env.actions.index(Action("B", "lon", "shift+")))
        assert env.state.area_a is env.config.init_a
        assert env.state.area_b == AreaSet.of(Rect(6.0, 8.0, 106.5, 108.5))


def move(counts, action, rect, step):
    """`apply_action` on a one-rect template `rect` (both targets'), from
    `counts`, on a grid of `step` degree cells, in a domain that holds any
    move."""
    spec = GridSpec(0.0, 0.0, step, step, 1, 1, "2000-01", 1)
    cfg = EnvConfig(SHIFT_AND_RESIZE, Rect(-90.0, 90.0, -360.0, 360.0),
                    AreaSet.of(rect), AreaSet.of(rect))
    return apply_action(counts, action, cfg, spec)


class TestEncoding:
    def test_scaled_to_unit_box(self):
        a = AreaSet.of(Rect(0.0, 10.0, 100.0, 110.0))
        b = AreaSet.of(Rect(5.0, 7.5, 102.5, 105.0))
        obs = encode_state(a, b, DOMAIN)
        np.testing.assert_allclose(obs, [0, 1, 0, 1, 0.5, 0.75, 0.25, 0.5])

    def test_an_area_is_its_extent(self):
        """A two-rect A gives the 4 numbers of its bounding box, so the
        state is 8 numbers, bit for bit those of the one-rect extent."""
        a = AreaSet.of(Rect(1, 2, 101, 102), Rect(3, 4, 103, 104))
        b = AreaSet.of(Rect(5, 6, 105, 106))
        obs = encode_state(a, b, DOMAIN)
        assert obs.shape == (8,)
        np.testing.assert_allclose(obs, [0.1, 0.4, 0.1, 0.4, 0.5, 0.6, 0.5, 0.6])
        assert obs.tobytes() == encode_state(AreaSet.of(Rect(1, 4, 101, 104)), b, DOMAIN).tobytes()


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
        assert reward == -INVALID_PENALTY
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
        assert reward == -INVALID_PENALTY
        assert (env.state.area_a, env.state.area_b) == geom_before

    def test_jitter_respects_lattice_and_validity(self):
        env = make_env(jitter=2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            env.reset(rng)
            for area, init in ((env.state.area_a, env.config.init_a),
                               (env.state.area_b, env.config.init_b)):
                r, r0 = area.rects[0], init.rects[0]
                dlat = (r.lat_min - r0.lat_min) / env.field.spec.dlat
                dlon = (r.lon_min - r0.lon_min) / env.field.spec.dlon
                assert dlat == pytest.approx(round(dlat))
                assert abs(dlat) <= 2 and abs(dlon) <= 2
                assert r.lat_max - r.lat_min == pytest.approx(r0.lat_max - r0.lat_min)
            assert inside(env.config.domain, env.state.area_a, env.state.area_b)
            assert env._q_of(env.state.area_a, env.state.area_b) is not None

    @pytest.mark.parametrize("jitter, step", [(1, 0.5), (2, 0.5), (3, 1.0 / 3.0)])
    def test_jitter_matches_reference_draws(self, jitter, step):
        """Same areas and the same rng stream after, on a two-rect area, on
        a grid whose cells are `step` degrees."""
        env = make_env(jitter=jitter, cell=step)
        area = AreaSet.of(Rect(-0.0, 2.0, 102.0, 104.0), Rect(3.0, 4.5, 101.0, 103.0))
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(20):
            got = env._jitter(area, got_rng, jitter)[1]
            want = reference_jitter_area(area, want_rng, jitter, step)
            assert np.array(got.as_lists()).tobytes() == np.array(want.as_lists()).tobytes()
        assert got_rng.random() == want_rng.random()

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
        assert len(env.objective._reports) == 1


def cell_grid_env(jitter=0):
    """An environment on a 30 x 40 grid of 1/3 x 0.25 degree cells, whose
    first centre (0.1, 100.05) is off the 0.5 degree lattice."""
    rng = np.random.default_rng(5)
    field = make_field(rng.uniform(15, 25, size=(36, 30, 40)), lat0=0.1, lon0=100.05,
                       dlat=1.0 / 3.0, dlon=0.25)
    cfg = EnvConfig(SHIFT_ONLY, field.spec.domain(), AreaSet.of(Rect(2.0, 4.0, 102.0, 104.0)),
                    AreaSet.of(Rect(6.0, 8.0, 106.0, 108.0)), jitter=jitter)
    return AreaEnv(field, rng.normal(size=36), rng.normal(size=36), cfg)


def cell_shift(area, moved, spec):
    """How many cells (lat, lon) the cell box of each rect of `area` moved
    to become `moved`'s, one pair per rect."""
    return [(k0 - i0, l0 - j0) for (i0, _, j0, _), (k0, _, l0, _)
            in zip(area_boxes(area, spec), area_boxes(moved, spec))]


class TestCellGrid:
    def test_shift_moves_the_box_one_cell_on_its_axis(self):
        """Each shift action moves the target's cell box by one cell on its
        axis and by none on the other, and keeps the box's size."""
        env = cell_grid_env()
        env.reset(np.random.default_rng(0))
        for k, action in enumerate(env.actions):
            area_a, area_b = env.state.area_a, env.state.area_b
            _, after = apply_action(env._counts[action.target], action, env.config, env.field.spec)
            before = area_a if action.target == "A" else area_b
            new_a, new_b = (after, area_b) if action.target == "A" else (area_a, after)
            sign = 1 if action.kind == "shift+" else -1
            want = (sign, 0) if action.axis == "lat" else (0, sign)
            assert cell_shift(before, after, env.field.spec) == [want]
            (i0, i1, j0, j1), = area_boxes(before, env.field.spec)
            (k0, k1, l0, l1), = area_boxes(after, env.field.spec)
            assert (i1 - i0, j1 - j0) == (k1 - k0, l1 - l0)
            # the environment takes the same move
            env.step(k)
            assert (env.state.area_a, env.state.area_b) == (new_a, new_b)

    def test_jitter_lands_on_whole_cells(self):
        env = cell_grid_env(jitter=2)
        rng = np.random.default_rng(7)
        moves = set()
        for _ in range(20):
            env.reset(rng)
            for area, init in ((env.state.area_a, env.config.init_a),
                               (env.state.area_b, env.config.init_b)):
                r, r0 = area.rects[0], init.rects[0]
                i, j = cell_shift(init, area, env.field.spec)[0]
                assert r.lat_min - r0.lat_min == pytest.approx(i / 3.0, abs=1e-12)
                assert r.lon_min - r0.lon_min == pytest.approx(j * 0.25, abs=1e-12)
                assert abs(i) <= 2 and abs(j) <= 2
                moves.add((i, j))
        assert len(moves) > 5


class TestCellKeys:
    """The caches know an area by its cells, whatever the cell size."""

    def test_every_action_scores_the_new_cells_on_a_fine_grid(self):
        """On a 20 x 20 grid of 1e-7 degree cells, where a move changes each
        bound by less than 1e-6 degrees, each action's q is `evaluate_pair`'s
        of the new areas."""
        d, nt = 1e-7, 48
        rng = np.random.default_rng(0)
        field = make_field(rng.normal(20.0, 1.0, size=(nt, 20, 20)), dlat=d, dlon=d)
        y_on, y_re = rng.normal(size=nt), rng.normal(size=nt)

        def block(i, j):  # 4 x 4 cells from cell (i, j), bounds on cell edges
            return AreaSet.of(Rect((i - 0.5) * d, (i + 3.5) * d,
                                   100.0 + (j - 0.5) * d, 100.0 + (j + 3.5) * d))

        cfg = EnvConfig(SHIFT_AND_RESIZE, field.spec.domain(), block(4, 4), block(12, 12))
        env = AreaEnv(field, y_on, y_re, cfg)
        for k in range(env.n_actions):
            env.reset(rng)
            _, reward, _ = env.step(k)
            state = env.state
            assert reward != -INVALID_PENALTY
            assert (state.area_a, state.area_b) != (cfg.init_a, cfg.init_b)
            assert state.last_q == index.evaluate_pair(field, state.area_a, state.area_b,
                                                       y_on, y_re).q

    def test_expand_that_keeps_the_cells_is_scored_from_the_cache(self, monkeypatch):
        """An expand moves each edge of its axis half a cell, so from bounds
        on cell centres it keeps the area's cells: it adds no area to the
        objective, reduces none, and its reward is exactly 0."""
        spec = SynthSpec()
        field = gen_sst(spec, 0)
        env = AreaEnv(field, *regime_targets(*gen_stations(spec, 0)),
                      EnvConfig(SHIFT_AND_RESIZE, field.spec.domain(), *spec.planted_areas()))
        env.reset(np.random.default_rng(0))
        assert env.state.area_a == AreaSet.of(Rect(3.0, 8.0, 103.0, 108.0))
        keys = list(env.objective.series)
        calls = []
        ocean_series = index.ocean_series
        monkeypatch.setattr(index, "ocean_series",
                            lambda *args: calls.append(args) or ocean_series(*args))
        _, reward, _ = env.step(env.actions.index(Action("A", "lat", "expand")))
        assert env.state.area_a == AreaSet.of(Rect(2.75, 8.25, 103.0, 108.0))
        assert reward == 0.0
        assert calls == [] and list(env.objective.series) == keys


class TestHalfCellCounts:
    """Areas are their templates moved by integer counts of half cells, so
    no sequence of moves adds up roundings."""

    @pytest.mark.parametrize("col", [0, 1, 2, 3])
    @pytest.mark.parametrize("cell, n", [(1e-5, 40), (1e-3, 300), (1e-2, 2100)])
    def test_shifts_keep_the_columns_on_fine_grids(self, cell, n, col):
        """On a 6 x (n + 20) grid of `cell` degree cells at lon0 = 100, a
        3 x 5 cell A with its bounds on cell centres, from column `col`,
        moved east one cell n times, keeps its 5 columns at every move and
        ends exactly n cells east. From column 0, adding the cell size to
        the bounds at each move changed the column count at move 4, 210 and
        1,955. On 1e-5 degree cells a tolerance of 1e-9 cell, below one ulp
        of 100, changed it from columns 1, 2 and 3 at moves 38, 2 and 3."""
        rng = np.random.default_rng(0)
        field = make_field(rng.uniform(15, 25, size=(24, 6, n + 20)), dlat=cell, dlon=cell)

        def block(i, j):  # 3 x 5 cells from cell (i, j), bounds on cell centres
            return AreaSet.of(Rect(i * cell, (i + 2) * cell,
                                   100.0 + j * cell, 100.0 + (j + 4) * cell))

        cfg = EnvConfig(SHIFT_ONLY, field.spec.domain(), block(0, col), block(3, 0),
                        episode_len=n)
        env = AreaEnv(field, rng.normal(size=24), rng.normal(size=24), cfg)
        env.reset(rng)
        assert area_boxes(env.state.area_a, field.spec) == ((0, 2, col, col + 4),)
        east = env.actions.index(Action("A", "lon", "shift+"))
        for k in range(1, n + 1):
            _, reward, _ = env.step(east)
            assert reward != -INVALID_PENALTY
            assert area_boxes(env.state.area_a, field.spec) == ((0, 2, col + k, col + 4 + k),), k
        assert env.state.area_a == cfg.init_a.shifted(0.0, n * cell)

    def test_a_new_pair_computes_each_areas_boxes_once(self, monkeypatch):
        """A step onto a pair not scored before, of areas whose series are
        held, computes each area's cell boxes once and reduces nothing; a
        pair scored before does the same."""
        env = make_env()
        env.reset(np.random.default_rng(0))
        a_east, a_west, b_east = (env.actions.index(Action(t, "lon", kind))
                                  for t, kind in (("A", "shift+"), ("A", "shift-"), ("B", "shift+")))
        env.step(a_east)
        env.step(b_east)  # A and B one cell east; both start cells are held
        keys = list(env.objective.series)
        calls = []
        boxes = geogrid.area_boxes
        monkeypatch.setattr(geogrid, "area_boxes", lambda *args: calls.append(args) or boxes(*args))
        for k in (a_west, a_east):  # A back to its start cells, then a repeated pair
            calls.clear()
            _, reward, _ = env.step(k)
            assert reward != -INVALID_PENALTY
            assert [area for area, _ in calls] == [env.state.area_a, env.state.area_b]
            assert list(env.objective.series) == keys

    def test_jitter_moves_a_two_rect_area_as_one(self):
        """On the seed-0 synth world, with A two rects (2, 0) degrees apart,
        every jittered start keeps them (2, 0) degrees apart and is the
        oracle's placement of A at its drawn shift (`dqn._Lattice`). A shift
        drawn per rect started them (1, -1), (2, 2), (3, 0), (1.5, 0) and
        (2.5, -2) degrees apart."""
        spec = SynthSpec()
        field = gen_sst(spec, 0)
        template = AreaSet.of(Rect(3.0, 5.0, 103.0, 105.0), Rect(5.0, 8.0, 103.0, 108.0))
        env = AreaEnv(field, *regime_targets(*gen_stations(spec, 0)),
                      EnvConfig(SHIFT_ONLY, field.spec.domain(), template,
                                spec.planted_areas()[1], jitter=2))
        ocean = dqn._table(field.ocean_mask()[None].astype(np.int64))
        rng = np.random.default_rng(0)
        shifts = set()
        for _ in range(5):
            env.reset(rng)
            first, second = env.state.area_a.rects
            assert (second.lat_min - first.lat_min, second.lon_min - first.lon_min) == (2.0, 0.0)
            (i, j), _ = cell_shift(template, env.state.area_a, field.spec)
            assert env._counts["A"] == (2 * i, 2 * i, 2 * j, 2 * j)
            lattice = dqn._Lattice(template, ([i], [j]), field.spec, ocean,
                                   env.config.min_ocean, np.float32)
            assert np.array(env.state.area_a.as_lists()).tobytes() == \
                np.array(lattice.area(0).as_lists()).tobytes()
            shifts.add((i, j))
        assert len(shifts) > 1

    @settings(max_examples=40, deadline=None)
    @given(dlat=st.sampled_from([0.5, 1.0 / 3.0, 0.25, 0.1]),
           dlon=st.sampled_from([0.5, 1.0 / 3.0, 0.25, 0.1]),
           lat0=st.sampled_from([0.1, -0.07, 10.3]),
           lon0=st.sampled_from([100.05, 99.9, -40.2]),
           jitter=st.sampled_from([0, 1, 2]),
           actions=st.lists(st.integers(0, 7), max_size=40))
    def test_shifts_walk_the_oracle_lattice(self, dlat, dlon, lat0, lon0, jitter, actions):
        """Every area a jittered start and a random run of shifts reach is,
        bit for bit, the oracle's placement of its template at the same net
        shift (`dqn._Lattice`), and its cell boxes are the template's moved
        by that shift. The net shift starts at the jittered start's. A's
        bounds lie on cell centres, B's two rects' off them."""
        rng = np.random.default_rng(len(actions))
        field = make_field(rng.uniform(15, 25, size=(24, 12, 12)), lat0=lat0, lon0=lon0,
                           dlat=dlat, dlon=dlon)
        spec = field.spec

        def rect(i0, i1, j0, j1):  # bounds i0..i1 rows and j0..j1 columns from cell (0, 0)
            return Rect(lat0 + i0 * dlat, lat0 + i1 * dlat, lon0 + j0 * dlon, lon0 + j1 * dlon)

        templates = {"A": AreaSet.of(rect(2, 4, 3, 6)),
                     "B": AreaSet.of(rect(6.2, 8.7, 5.6, 7.1), rect(7.3, 9.1, 6.4, 9.2))}
        env = AreaEnv(field, rng.normal(size=24), rng.normal(size=24),
                      EnvConfig(SHIFT_ONLY, spec.domain(), templates["A"], templates["B"],
                                episode_len=len(actions) + 1, jitter=jitter))
        env.reset(rng)
        ocean = dqn._table(field.ocean_mask()[None].astype(np.int64))

        def area_of(target):
            return env.state.area_a if target == "A" else env.state.area_b

        def check(target, i, j):
            area, template = area_of(target), templates[target]
            lattice = dqn._Lattice(template, ([i], [j]), spec, ocean, index.MIN_OCEAN,
                                   np.float32)
            assert np.array(area.as_lists()).tobytes() == \
                np.array(lattice.area(0).as_lists()).tobytes()
            assert area_boxes(area, spec) == tuple((i0 + i, i1 + i, j0 + j, j1 + j) for
                                                   i0, i1, j0, j1 in area_boxes(template, spec))

        # each start's shift: how far its first rect's cells moved
        net = {t: list(cell_shift(templates[t], area_of(t), spec)[0]) for t in templates}
        for target, (i, j) in net.items():
            check(target, i, j)
        for k in actions:
            action = env.actions[k]
            before = env.state.area_a, env.state.area_b
            env.step(k)
            if (env.state.area_a, env.state.area_b) == before:
                continue  # refused
            net[action.target][action.axis == "lon"] += 1 if action.kind == "shift+" else -1
            check(action.target, *net[action.target])


class TestCutInvariance:
    """An area is one thing to the search, however its template is cut."""

    @settings(max_examples=40, deadline=None)
    @given(dlat=st.sampled_from([0.5, 1.0 / 3.0, 0.25, 0.1]),
           dlon=st.sampled_from([0.5, 1.0 / 3.0, 0.25, 0.1]),
           lat0=st.sampled_from([0.1, -0.07, 10.3]),
           lon0=st.sampled_from([100.05, 99.9, -40.2]),
           corner=st.tuples(st.integers(0, 6), st.integers(0, 6)),
           size=st.tuples(st.integers(4, 7), st.integers(4, 7)),
           cut=st.tuples(st.sampled_from(["rows", "columns"]), st.integers(1, 4),
                         st.sampled_from("AB")),
           jitter=st.sampled_from([0, 1, 2]),
           episode_len=st.sampled_from([3, 10, 60]),
           actions=st.lists(st.integers(0, 7), min_size=10, max_size=60))
    def test_a_cut_template_searches_as_the_uncut_one(self, dlat, dlon, lat0, lon0, corner,
                                                      size, cut, jitter, episode_len, actions):
        """Shift-only, on the same rng and actions, a template and the same
        template cut by rows or by columns into two rects over the same cells
        give bit-equal observations, rewards and done flags, and their areas
        cover the same cells at every step. Cells of 0.5, 1/3, 0.25 and 0.1
        degrees, origins off the 0.5 degree lattice, some land."""
        rng = np.random.default_rng(len(actions))
        values = rng.uniform(15, 25, size=(24, 14, 14))
        values[:, rng.random((14, 14)) < 0.1] = np.nan
        field = make_field(values, lat0=lat0, lon0=lon0, dlat=dlat, dlon=dlon)
        spec = field.spec

        def rect(i0, i1, j0, j1):  # bounds on the centres of rows i0..i1, columns j0..j1
            return Rect(lat0 + i0 * dlat, lat0 + i1 * dlat, lon0 + j0 * dlon, lon0 + j1 * dlon)

        (i0, j0), (rows, cols), (axis, k, target) = corner, size, cut
        i1, j1 = i0 + rows - 1, j0 + cols - 1
        whole = AreaSet.of(rect(i0, i1, j0, j1))
        if axis == "rows":  # each part at least two rows (columns) of centres
            k = min(k, rows - 3)
            cut_up = AreaSet.of(rect(i0, i0 + k, j0, j1), rect(i0 + k + 1, i1, j0, j1))
        else:
            k = min(k, cols - 3)
            cut_up = AreaSet.of(rect(i0, i1, j0, j0 + k), rect(i0, i1, j0 + k + 1, j1))
        assert geogrid.area_cells(cut_up, spec) == geogrid.area_cells(whole, spec)
        other = AreaSet.of(rect(7, 10, 7, 11))
        y_on, y_re = rng.normal(size=24), rng.normal(size=24)

        def run(template):
            """What the search sees and where its areas lie, step by step."""
            pair = (template, other) if target == "A" else (other, template)
            env = AreaEnv(field, y_on, y_re, EnvConfig(SHIFT_ONLY, spec.domain(), *pair,
                                                       episode_len=episode_len, jitter=jitter))
            assert env.obs_dim == 8
            draws = np.random.default_rng(1)

            def cells():
                return [geogrid.area_cells(area, spec)
                        for area in (env.state.area_a, env.state.area_b)]

            try:
                log = [(env.reset(draws).tobytes(), cells())]
            except InvalidInitialAreasError:
                return "invalid initial areas"
            for action in actions:
                obs, reward, done = env.step(action)
                log.append((obs.tobytes(), repr(reward), done, cells()))
                if done:
                    log.append((env.reset(draws).tobytes(), cells()))
            return log

        assert run(whole) == run(cut_up)


class ReferenceEnv(AreaEnv):
    """The environment as it scored before `index.PairObjective`: a fresh
    reference report for every geometry, with no cache at all."""

    def __init__(self, field, y_onset, y_retreat, config):
        super().__init__(field, y_onset, y_retreat, config)
        self.targets = y_onset, y_retreat

    def _q_of(self, area_a, area_b):
        report = reference_pair_report(self.field, area_a, area_b, *self.targets,
                                       min_ocean=self.config.min_ocean)
        return report.q if report.valid else None


class VisitLog(AreaEnv):
    """Records every geometry the environment asks the objective for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.visited = []

    def _q_of(self, area_a, area_b):
        self.visited.append((area_a, area_b))
        return super()._q_of(area_a, area_b)


def coastal_world(mode, nt=48):
    """make_env's grid with land east of lon 108.25, so B breaks the ocean
    constraint two steps east, and one cell (lat 4.5, lon 103) that is NaN
    at month 5 only, one step north of A."""
    rng = np.random.default_rng(3)
    vals = rng.uniform(15, 25, size=(nt, 21, 21)).astype(np.float32)
    vals[:, :, 17:] = np.nan
    vals[5, 9, 6] = np.nan
    cfg = EnvConfig(mode, DOMAIN, AreaSet.of(Rect(2.0, 4.0, 102.0, 104.0)),
                    AreaSet.of(Rect(6.0, 8.0, 106.0, 108.0)), episode_len=16, jitter=2)
    return make_field(vals), rng.normal(size=nt), rng.normal(size=nt), cfg


def run_random(env, steps, seed):
    """Rewards and last_q over `steps` seeded random actions, resetting at
    the end of each episode."""
    rng = np.random.default_rng(seed)
    rewards, qs = [], []
    env.reset(rng)
    for _ in range(steps):
        _, reward, done = env.step(int(rng.integers(env.n_actions)))
        rewards.append(reward)
        qs.append(env.state.last_q)
        if done:
            env.reset(rng)
            qs.append(env.state.last_q)
    return rewards, qs


class TestPairObjectiveEnv:
    @pytest.mark.parametrize("mode", [SHIFT_ONLY, SHIFT_AND_RESIZE])
    def test_bit_equals_fresh_evaluate_pair(self, mode):
        world = coastal_world(mode)
        env = AreaEnv(*world)
        got = run_random(env, 400, seed=11)
        want = run_random(ReferenceEnv(*world), 400, seed=11)
        assert -INVALID_PENALTY in got[0]  # some moves were refused
        violations = [v for _, v in env.objective.series.values() if v]
        assert any("ocean_fraction" in v for v in violations)
        assert any(not np.isfinite(s).all() for s, _ in env.objective.series.values()
                   if s is not None)
        assert got == want  # float ==: bit-equal (no NaN reaches a reward)

    def test_area_dict_holds_only_visited_areas(self):
        env = VisitLog(*coastal_world(SHIFT_ONLY))
        rng = np.random.default_rng(4)
        env.reset(rng)
        for _ in range(env.config.episode_len):
            env.step(int(rng.integers(env.n_actions)))
        distinct_a = {area_boxes(a, env.field.spec) for a, _ in env.visited}
        distinct_b = {area_boxes(b, env.field.spec) for _, b in env.visited}
        assert 0 < len(env.objective.series) <= len(distinct_a) + len(distinct_b)

    @pytest.mark.parametrize("value", [7.1, 0.3])
    def test_constant_target_is_invalid(self, value):
        # exactly constant in the onset season; centring once left a
        # residue of about 1e-16 there, and the pair scored valid
        field, _, y_re, cfg = coastal_world(SHIFT_ONLY, nt=60)
        env = AreaEnv(field, np.full(60, value), y_re, cfg)
        assert env._q_of(cfg.init_a, cfg.init_b) is None
        with pytest.raises(InvalidInitialAreasError):
            env.reset(np.random.default_rng(0))


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
