import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nemonsoon.errors import (
    ConfigError,
    InsufficientSeasonSamplesError,
    ZeroVarianceError,
)
from nemonsoon.geogrid import (
    AreaSet,
    Rect,
    area_boxes,
    month_axis,
    month_slots,
    read_csv_rows,
    year_axis,
)
from nemonsoon.index import (
    ONSET_MONTHS,
    RETREAT_MONTHS,
    PairObjective,
    evaluate_pair,
    normalise_series,
    objective_q,
    pearson,
    raw_index,
    season_masks,
    PairScorer,
    read_index_csv,
    write_index_csv,
)

from conftest import (
    bits,
    make_field,
    monthly_values,
    objective_on,
    reference_pair_report,
    season_centre,
    season_target,
    seasonal_scores,
)


def reference_scores(raw, y_onset, y_retreat, months):
    """The scalar path the batched scorer replaces: normalise the index,
    then one Pearson r per season, then q."""
    z = normalise_series(raw)
    on = np.isin(months, list(ONSET_MONTHS))
    re = np.isin(months, list(RETREAT_MONTHS))
    r_on = pearson(z[on], y_onset[on])
    r_re = pearson(z[re], y_retreat[re])
    return r_on, r_re, objective_q(r_on, r_re)


def batched_scores(raw, y_onset, y_retreat, months):
    return seasonal_scores(season_centre(raw, months),
                           season_target(y_onset, y_retreat, months), months)


class TestSeasons:
    def test_partition(self):
        assert ONSET_MONTHS | RETREAT_MONTHS == frozenset(range(1, 13))
        assert not ONSET_MONTHS & RETREAT_MONTHS
        assert ONSET_MONTHS == frozenset({10, 11, 12, 1, 2, 3})

    def test_bad_mask_rejected(self):
        on, re = season_masks(month_axis("2000-07", 30))
        assert not (on & re).any() and (on | re).all()
        with pytest.raises(InsufficientSeasonSamplesError):
            season_masks(np.array([1, 2, 3, 4, 5]))  # two retreat months


class TestPearson:
    def test_hand_case(self):
        r = pearson(np.array([1.0, 2.0, 3.0]), np.array([2.0, 4.0, 7.0]))
        assert r == pytest.approx(0.9934, abs=1e-4)

    def test_perfect_and_anti(self):
        x = np.arange(10.0)
        assert pearson(x, 3 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -2 * x + 5) == pytest.approx(-1.0)

    def test_constant_raises(self):
        with pytest.raises(ZeroVarianceError):
            pearson(np.ones(5), np.arange(5.0))
        with pytest.raises(ZeroVarianceError):
            pearson(np.arange(5.0), np.ones(5))

    def test_non_finite_raises(self):
        # the clamp once turned this NaN into r = -1.0
        x = np.arange(10.0)
        y = x.copy()
        y[4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            pearson(x, y)
        with pytest.raises(ValueError, match="finite"):
            pearson(y, x)
        y[4] = np.inf
        with pytest.raises(ValueError, match="finite"):
            pearson(x, y)

    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_bounded_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        r = pearson(x, y)
        assert -1.0 <= r <= 1.0
        assert pearson(y, x) == pytest.approx(r)

    @given(st.integers(0, 100), st.floats(0.1, 10), st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-12)


class TestNormalise:
    def test_full_series_contract(self, rng):
        z = normalise_series(rng.normal(3.0, 2.0, size=240))
        assert abs(z.mean()) < 1e-9
        assert abs(z.std() - 1.0) < 1e-9

    def test_reference_window(self, rng):
        s = rng.normal(size=100)
        ref = slice(0, 50)
        z = normalise_series(s, ref)
        assert abs(z[ref].mean()) < 1e-9
        assert abs(z[ref].std() - 1.0) < 1e-9

    def test_constant_raises(self):
        with pytest.raises(ZeroVarianceError):
            normalise_series(np.full(12, 7.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, bad):
        # once returned an all-NaN series
        with pytest.raises(ValueError, match="finite"):
            normalise_series(np.array([1.0, bad, 3.0]))
        with pytest.raises(ValueError, match="finite"):
            normalise_series(np.array([1.0, 2.0, 3.0, bad]), slice(0, 3))

    def test_preserves_pearson(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        assert pearson(normalise_series(x), y) == pytest.approx(pearson(x, y), abs=1e-12)


class TestObjective:
    @pytest.mark.parametrize(
        "r_on,r_re,q",
        [(0.2, 0.3, 0.065), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (-0.5, 0.5, 0.25)],
    )
    def test_hand_values(self, r_on, r_re, q):
        assert objective_q(r_on, r_re) == pytest.approx(q)

    def test_sign_blind(self):
        assert objective_q(-0.7, 0.4) == objective_q(0.7, -0.4)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            objective_q(1.2, 0.0)

    @given(st.floats(-1, 1), st.floats(-1, 1))
    def test_bounds(self, a, b):
        assert 0.0 <= objective_q(a, b) <= 1.0

    def test_array_safe(self):
        q = objective_q(np.array([0.2, np.nan]), np.array([0.3, 0.5]))
        assert q[0] == pytest.approx(0.065) and np.isnan(q[1])


class TestSeasonalCorrelations:
    def test_season_restriction(self):
        nt = 24
        months = np.asarray(month_axis("2000-01", nt))
        rng = np.random.default_rng(7)
        z = rng.normal(size=nt)
        y_on = rng.normal(size=nt)
        y_re = rng.normal(size=nt)
        r_on, r_re, _ = batched_scores(z, y_on, y_re, months)
        sel_on = np.isin(months, list(ONSET_MONTHS))
        sel_re = ~sel_on
        assert r_on[0] == pytest.approx(pearson(z[sel_on], y_on[sel_on]))
        assert r_re[0] == pytest.approx(pearson(z[sel_re], y_re[sel_re]))

    def test_too_few_samples(self):
        months = np.array([10, 11, 12, 1])  # onset only
        z = np.arange(4.0)
        with pytest.raises(InsufficientSeasonSamplesError):
            season_masks(months)
        with pytest.raises(InsufficientSeasonSamplesError):
            PairScorer(objective_on("2000-10", z, z), np.ones((1, 4)), 0.0)


def _series(seed, nt):
    rng = np.random.default_rng(seed)
    raw = rng.normal(rng.uniform(-5, 5), rng.uniform(0.01, 9), size=nt)
    y_on = rng.normal(100, 30, size=nt)
    y_re = rng.normal(60, 20, size=nt)
    return rng, raw, y_on, y_re


class TestPairScorer:
    @given(st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 9),
           st.integers(1, PairScorer.BLOCK_ROWS))
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_differences(self, seed, n_a, n_b, block_rows):
        rng, _, y_on, y_re = _series(seed, 48)
        months = month_axis("1982-07", 48)
        series = (20.0 + rng.normal(size=(n_a + n_b, 48))
                  * rng.uniform(0.1, 5, size=(n_a + n_b, 1))).astype(np.float32)
        sa, sb = series[:n_a], series[n_a:]
        sa[0] = sb[-1]  # an identical pair: degenerate, never a q
        target = season_target(y_on, y_re, months)
        objective = objective_on("1982-07", y_on, y_re)
        assert objective._target.tobytes() == target.tobytes()
        scorer = PairScorer(objective, sb.astype(float), 0.0)
        for lo in range(0, n_a, block_rows):
            got, _ = scorer.scores(sa[lo:lo + block_rows], 0.0)
            for k, s in enumerate(sa[lo:lo + block_rows]):
                want = seasonal_scores(season_centre(sb, months) - season_centre(s, months),
                                       target, months)[2]
                np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-12)  # NaN == NaN
        assert np.isnan(scorer.scores(sa[:1], 0.0)[0][0, -1])

    def test_target_constant_in_a_season_scores_nan(self):
        _, raw, y_on, _ = _series(5, 36)
        scorer = PairScorer(objective_on("1982-01", y_on, np.full(36, 7.0)),
                            np.array([raw, raw * 2.0 + 1.0]), 0.0)
        assert np.isnan(scorer.scores(raw[None, ::-1], 0.0)[0]).all()


class TestBatchedScorer:
    @given(st.integers(0, 10_000), st.integers(12, 120), st.sampled_from(["1982-01", "1990-07"]))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_path(self, seed, nt, t0):
        _, raw, y_on, y_re = _series(seed, nt)
        months = month_axis(t0, nt)
        got = [float(v[0]) for v in batched_scores(raw, y_on, y_re, months)]
        want = reference_scores(raw, y_on, y_re, months)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @given(st.integers(0, 10_000), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_rows(self, seed, rows):
        rng, _, y_on, y_re = _series(seed, 48)
        months = month_axis("1982-01", 48)
        diffs = season_centre(rng.normal(size=(rows, 48)) * rng.uniform(0.1, 5, size=(rows, 1)),
                              months)
        diffs[rng.random(rows) < 0.2] = 0.0  # some degenerate rows
        target = season_target(y_on, y_re, months)
        batch = seasonal_scores(diffs, target, months)
        for k in range(rows):
            one = seasonal_scores(diffs[k], target, months)
            for b, o in zip(batch, one):
                np.testing.assert_allclose(b[k], o[0], rtol=0, atol=1e-12)

    def test_degenerate_and_non_finite_rows_invalid(self):
        _, raw, y_on, y_re = _series(3, 36)
        months = month_axis("1982-01", 36)
        on = np.isin(months, list(ONSET_MONTHS))
        rows = np.stack([raw, raw, raw, np.ones(36)])
        rows[1, 5] = np.nan
        rows[2, on] = 4.0  # constant within the onset season only
        r_on, r_re, q = batched_scores(rows, y_on, y_re, months)
        assert np.isfinite(q[0])
        assert np.isnan(q[1:]).all()
        assert np.isnan(r_on[1:]).all()
        flat_target = np.where(on, 7.0, y_re)
        assert np.isnan(batched_scores(raw, flat_target, y_re, months)[2]).all()


class TestEvaluatePair:
    def _world(self, nt=36):
        rng = np.random.default_rng(5)
        vals = rng.uniform(15, 25, size=(nt, 4, 4)).astype(np.float32)
        field = make_field(vals)
        a = AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5))
        b = AreaSet.of(Rect(1.0, 1.5, 101.0, 101.5))
        z = raw_index(field, a, b)
        return field, a, b, z

    def test_valid_pair_matches_components(self):
        field, a, b, raw = self._world()
        rng = np.random.default_rng(9)
        y_on = rng.normal(size=len(raw))
        y_re = rng.normal(size=len(raw))
        rep = evaluate_pair(field, a, b, y_on, y_re)
        assert rep.valid
        want = reference_scores(raw, y_on, y_re, field.spec.months())
        np.testing.assert_allclose([rep.r_onset, rep.r_retreat, rep.q], want,
                                   rtol=0, atol=1e-12)

    def test_ocean_constraint_invalid_not_raised(self):
        nt = 36
        vals = np.full((nt, 4, 4), 20.0, dtype=np.float32)
        vals += np.random.default_rng(1).normal(0, 1, size=vals.shape).astype(np.float32)
        vals[:, :2, :2] = np.nan  # land under rect A
        field = make_field(vals)
        a = AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5))
        b = AreaSet.of(Rect(1.0, 1.5, 101.0, 101.5))
        y = np.random.default_rng(2).normal(size=nt)
        rep = evaluate_pair(field, a, b, y, y)
        assert not rep.valid
        assert "ocean_fraction" in rep.violation
        assert np.isnan(rep.q)

    def test_zero_variance_invalid(self):
        nt = 36
        field = make_field(np.full((nt, 4, 4), 20.0, dtype=np.float32))
        rect = field.spec.domain()
        y = np.random.default_rng(3).normal(size=nt)
        rep = evaluate_pair(field, AreaSet.of(rect), AreaSet.of(rect), y, y)
        assert not rep.valid
        assert "constant" in rep.violation

    def test_swap_symmetry(self):
        field, a, b, _ = self._world()
        rng = np.random.default_rng(11)
        y_on = rng.normal(size=field.spec.nt)
        y_re = rng.normal(size=field.spec.nt)
        r_ab = evaluate_pair(field, a, b, y_on, y_re)
        r_ba = evaluate_pair(field, b, a, y_on, y_re)
        assert r_ab.q == pytest.approx(r_ba.q, abs=1e-12)
        assert r_ab.r_onset == pytest.approx(-r_ba.r_onset, abs=1e-12)


class TestExactlyConstant:
    """A target or index that is exactly constant within a season is
    invalid whatever its value. Centring once left a residue of about 1e-16
    for 7.1 and 0.3 (not for 7.0), and such a target scored valid."""

    NT = 60

    def _world(self):
        rng = np.random.default_rng(5)
        field = make_field(rng.uniform(15, 25, size=(self.NT, 4, 4)).astype(np.float32))
        a = AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5))
        b = AreaSet.of(Rect(1.0, 1.5, 101.0, 101.5))
        return field, a, b, rng.normal(size=self.NT)

    @pytest.mark.parametrize("value", [7.1, 0.3])
    @pytest.mark.parametrize("season", ["onset", "retreat"])
    def test_target_invalid_in_evaluate_pair_and_pair_objective(self, value, season):
        field, a, b, y = self._world()
        flat = np.full(self.NT, value)
        y_on, y_re = (flat, y) if season == "onset" else (y, flat)
        objective = PairObjective(field, y_on, y_re)
        for report in (evaluate_pair(field, a, b, y_on, y_re), objective(a, b), objective(b, a)):
            assert not report.valid and np.isnan(report.q)
            assert report.violation == "index or target constant within a season"

    @pytest.mark.parametrize("value", [7.1, 0.3])
    def test_target_invalid_in_pair_scorer(self, value):
        rng, raw, y_on, _ = _series(5, self.NT)
        months = month_axis("2000-01", self.NT)
        objective = objective_on("2000-01", y_on, np.full(self.NT, value))
        assert not objective._target[~np.isin(months, list(ONSET_MONTHS))].any()
        scorer = PairScorer(objective, np.array([raw, raw * 2.0 + 1.0]), 0.0)
        q, _ = scorer.scores(np.array([raw[::-1], rng.normal(size=self.NT)]), 0.0)
        assert np.isnan(q).all()

    def test_index_row_invalid(self):
        field, _, _, y = self._world()
        assert not season_centre(np.full(self.NT, 7.1), field.spec.months()).any()
        # A's cell is 1.2e-7 and B's 20.3 in every month: B - A is exactly
        # constant and needs 52 bits, so centring once left a residue of
        # about 1e-15 and the pair scored q = 1.6e-33
        field.values[:, 0, 0] = 1.2e-7
        field.values[:, 2, 2] = 20.3
        a, b = AreaSet.of(Rect(0.0, 0.25, 100.0, 100.25)), AreaSet.of(Rect(1.0, 1.25, 101.0, 101.25))
        report = evaluate_pair(field, a, b, y, y)
        assert not report.valid
        assert report.violation == "index or target constant within a season"

    @given(st.integers(0, 10_000), st.integers(1, 4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_other_values_bit_unchanged(self, seed, rows, one_flat_season):
        # the centring before the constant rule, kept as the reference
        rng = np.random.default_rng(seed)
        months = month_axis("1982-07", 48)
        masks = season_masks(months)
        x = rng.normal(rng.uniform(-50, 50), rng.uniform(1e-6, 9), size=(rows, 48))
        if one_flat_season:
            x[0, masks[0]] = rng.uniform(-50, 50)
        want = x.copy()
        for sel in masks:
            want[:, sel] -= want[:, sel].mean(axis=-1, keepdims=True)
        got = season_centre(x, months)
        if one_flat_season:
            assert not got[0, masks[0]].any()
            got[0, masks[0]], want[0, masks[0]] = 0.0, 0.0
        assert (got.view(np.int64) == want.view(np.int64)).all()  # bit for bit


# a 6 x 8 grid of 0.5 degree cells (centres lat 0..2.5, lon 100..103.5) with
# land and a cell that is NaN only at month 5; rect corners on a quarter
# degree lattice reach past every edge, so areas can be empty or off the grid
_NLAT, _NLON, _NT = 6, 8, 36
_corner = st.tuples(st.integers(-3, 12), st.integers(-3, 16))
_rect = st.builds(lambda c, h, w: Rect(c[0] / 4 - 0.5, (c[0] + h) / 4 - 0.5,
                                       100 + c[1] / 4 - 0.5, 100 + (c[1] + w) / 4 - 0.5),
                  _corner, st.integers(1, 10), st.integers(1, 10))
_area = st.lists(_rect, min_size=1, max_size=2).map(lambda rs: AreaSet(tuple(rs)))


def by_cells(report, pool, spec) -> str:
    """repr of the report with each pool area it names written as its cell
    boxes: areas with the same cells share one cached violation, which names
    the first of them scored."""
    text = repr(report)
    for area in pool:
        text = text.replace(str(area), str(area_boxes(area, spec)))
    return text


class TestPairObjective:
    @given(st.integers(0, 10_000), st.floats(0.0, 0.4), st.sampled_from([0.5, 0.8]),
           st.lists(_area, min_size=2, max_size=8, unique=True),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=25),
           st.sampled_from(["random", "random", "flat onset", "short"]))
    @settings(max_examples=120, deadline=None)
    # two areas south of the grid with the same (empty) cell boxes: the
    # second's violation is the first's, which names the first area
    @example(seed=0, land=0.0, min_ocean=0.8, targets="random", picks=[(0, 2), (1, 2)],
             pool=[AreaSet.of(Rect(-1.25, -1.0, 99.5, 100.0)),
                   AreaSet.of(Rect(-1.25, -0.75, 99.5, 100.0)),
                   AreaSet.of(Rect(0.0, 1.0, 101.0, 102.0))])
    def test_matches_fresh_evaluate_pair(self, seed, land, min_ocean, pool, picks, targets):
        rng = np.random.default_rng(seed)
        signal = rng.normal(size=_NT)
        vals = (20.0 + rng.normal(0, 0.5, size=(_NT, _NLAT, _NLON))
                + signal[:, None, None] * rng.normal(size=(_NLAT, _NLON)))
        vals[:, rng.random((_NLAT, _NLON)) < land] = np.nan
        vals[5, rng.integers(_NLAT), rng.integers(_NLON)] = np.nan
        field = make_field(vals.astype(np.float32))
        y_on, y_re = signal + rng.normal(size=_NT), signal + rng.normal(size=_NT)
        if targets == "flat onset":
            y_on = np.full(_NT, 7.1)
        elif targets == "short":  # off the time axis: raised once both areas pass
            y_re = y_re[:-1]
        objective = PairObjective(field, y_on, y_re, min_ocean)
        for i, j in picks:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            try:
                want = reference_pair_report(field, a, b, y_on, y_re, min_ocean)
            except ValueError as exc:
                for call in (objective, lambda a, b: evaluate_pair(field, a, b, y_on, y_re,
                                                                   min_ocean)):
                    with pytest.raises(ValueError, match=str(exc)):
                        call(a, b)
                continue
            # repr tells every float apart bit for bit, NaN included
            assert by_cells(objective(a, b), pool, field.spec) == by_cells(want, pool, field.spec)
            assert repr(evaluate_pair(field, a, b, y_on, y_re, min_ocean)) == repr(want)
        assert len(objective.series) <= len({area_boxes(area, field.spec) for area in pool})


class TestPairObjectiveEdges:
    """Two one-cell areas whose series are set month by month: the season-
    ordered path against `reference_pair_report` where the centring rule
    and the non-finite checks decide the report."""

    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(6, 80),
           st.sampled_from(["none", "flat difference", "almost flat", "nan month",
                            "inf month", "flat target"]),
           st.sampled_from([ONSET_MONTHS, RETREAT_MONTHS]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, seed, m0, nt, case, season):
        rng = np.random.default_rng(seed)
        months = month_axis(f"2000-{m0:02d}", nt)
        sel = np.isin(months, list(season))
        # multiples of 1/64 near 20: A + c is exact in float32
        a_vals = (20.0 + rng.integers(-256, 256, nt) / 64).astype(np.float32)
        b_vals = (20.0 + rng.normal(size=nt)).astype(np.float32)
        y_on, y_re = 100.0 + 50.0 * rng.normal(size=(2, nt))
        if case in ("flat difference", "almost flat"):  # B = A + c on that season's months
            if rng.random() < 0.5:
                b_vals[sel] = a_vals[sel] + np.float32(rng.integers(-64, 65) / 16)
            else:  # a tiny A: B - A needs about 50 bits, and its mean leaves a residue
                a_vals[sel] = np.float32(rng.uniform(1e-7, 2e-7))
                b_vals[sel] = np.float32(rng.uniform(15, 25))
            if case == "almost flat" and sel.any():  # one month a float32 step off
                k = rng.choice(np.flatnonzero(sel))
                b_vals[k] = np.nextafter(b_vals[k], np.float32(np.inf))
        elif case == "nan month":
            b_vals[rng.integers(1, nt)] = np.nan
        elif case == "inf month":  # or a whole season of one infinity
            months_hit = sel if rng.random() < 0.3 else rng.integers(1, nt)
            (a_vals, b_vals)[int(rng.integers(2))][months_hit] = rng.choice([-np.inf, np.inf])
        elif case == "flat target":
            (y_on if season is ONSET_MONTHS else y_re)[sel] = 7.1
        field = make_field(np.stack([a_vals, b_vals], axis=1)[:, None, :], t0=f"2000-{m0:02d}")
        a = AreaSet.of(Rect(-0.25, 0.25, 99.75, 100.25))
        b = AreaSet.of(Rect(-0.25, 0.25, 100.25, 100.75))
        objective = PairObjective(field, y_on, y_re)
        with np.errstate(invalid="ignore"):  # inf - inf in a season's mean
            for pair in ((a, b), (b, a), (a, b)):
                want = reference_pair_report(field, *pair, y_on, y_re)
                assert repr(objective(*pair)) == repr(want)


def reference_read_index_series(path, t0, nt):
    """The `--ne-index` reader that `read_index_csv` replaced, which lived in
    the CLI: one tuple per row and its own set of months seen. A month or
    year out of range is a bad row, as in `read_index_csv` (this reader
    used to find it only after the last row, in `month_slots`)."""
    seen = set()

    def row(y, m, z):
        key = (int(y), int(m))
        if not 1 <= key[1] <= 12:
            raise ValueError("month out of range 1..12")
        if not 0 <= key[0] <= 9999:
            raise ValueError("year out of range 0..9999")
        if key in seen:
            raise ValueError(f"second row for {key[0]}-{key[1]:02d}")
        seen.add(key)
        return (*key, float(z))

    rows = read_csv_rows(path, ["year", "month", "z"], row, error=ConfigError)
    out = np.full(nt, np.nan)
    _, _, slots = month_slots([r[0] for r in rows], [r[1] for r in rows], t0)
    for (_, _, z), k in zip(rows, slots.tolist()):
        if 0 <= k < nt:
            out[k] = z
    gaps = np.flatnonzero(~np.isfinite(out))
    if gaps.size:
        y, m = year_axis(t0, nt)[gaps[0]], month_axis(t0, nt)[gaps[0]]
        raise ConfigError(f"index CSV has no finite z for {y}-{m:02d}")
    return out


# one fault written into one row's fields (a list of three strings)
NE_FAULTS = {
    "bad year": lambda f: ["19x0"] + f[1:],
    "month 13": lambda f: f[:1] + ["13"] + f[2:],
    "month 0": lambda f: f[:1] + ["0"] + f[2:],
    "year 10000": lambda f: ["10000"] + f[1:],
    "bad z": lambda f: f[:2] + ["1e"],
    "nan z": lambda f: f[:2] + ["nan"],
    "infinite z": lambda f: f[:2] + ["-inf"],
    "duplicate month": None,  # the row is written twice
    "gap": None,  # the row is dropped
    "too many fields": lambda f: f + ["1"],
}


class TestIndexCSV:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), year=st.integers(0, 9969), month=st.integers(1, 12),
           years=st.integers(1, 30))
    def test_round_trip_is_exact(self, tmp_path_factory, seed, year, month, years):
        """Write then read gives z bit for bit; read then write gives the
        same bytes."""
        rng = np.random.default_rng(seed)
        t0, nt = f"{year:04d}-{month:02d}", 12 * years
        z = monthly_values(rng, nt)
        path = tmp_path_factory.mktemp("index") / "index.csv"
        write_index_csv(z, t0, path)
        back = read_index_csv(path, t0, nt)
        assert bits(back) == bits(z)
        again = path.with_name("again.csv")
        write_index_csv(back, t0, again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nt=st.integers(1, 40), start=st.integers(-15, 15),
           length=st.integers(1, 60), faults=st.lists(st.sampled_from(sorted(NE_FAULTS)),
                                                      max_size=2))
    def test_matches_reference_reader(self, tmp_path_factory, seed, nt, start, length, faults):
        """On files that start before or after the axis, end short of it or
        past it, with faults in one or two rows: the same array, or the same
        exception class and text."""
        rng = np.random.default_rng(seed)
        y0, m0 = 1990 + int(rng.integers(3)), 1 + int(rng.integers(12))
        t0 = f"{y0}-{m0:02d}"
        first = y0 * 12 + m0 - 1 + start
        lines = [f"{(first + k) // 12},{(first + k) % 12 + 1},{rng.normal()!r}"
                 for k in range(length)]
        lines = [lines[i] for i in rng.permutation(len(lines))]
        for fault in faults:
            k = int(rng.integers(len(lines)))
            if fault == "duplicate month":
                lines.insert(int(rng.integers(len(lines) + 1)), lines[k])
            elif fault == "gap":
                if len(lines) > 1:
                    del lines[k]
            else:
                lines[k] = ",".join(NE_FAULTS[fault](lines[k].split(",")))
        path = tmp_path_factory.mktemp("ne") / "ne.csv"
        path.write_text("\n".join(["year,month,z"] + lines) + "\n")

        def outcome(read):
            try:
                return bits(read(path, t0, nt))
            except Exception as exc:
                return type(exc), str(exc)

        assert outcome(read_index_csv) == outcome(reference_read_index_series)

    @pytest.mark.parametrize("rows, message", [
        ("1999,12,0.5\n2000,1,0.25\n2000,2,1.0\n2000,3,2.0\n", None),
        ("2000,1,0.25\n2000,2,1.0\n", "no finite z for 2000-03"),
        ("2000,1,0.25\n2000,02,1.0\n2000,2,1.0\n", "line 4 .*: second row for 2000-02$"),
        ("2000,1,0.25\n2000,13,1.0\n", "line 3 .*: month out of range 1..12$"),
    ], ids=["ignores-outside", "gap", "duplicate", "month-13"])
    def test_contract(self, tmp_path, rows, message):
        path = tmp_path / "ne.csv"
        path.write_text("year,month,z\n" + rows)
        if message is None:
            np.testing.assert_array_equal(read_index_csv(path, "2000-01", 3), [0.25, 1.0, 2.0])
        else:
            with pytest.raises(ConfigError, match=message):
                read_index_csv(path, "2000-01", 3)
