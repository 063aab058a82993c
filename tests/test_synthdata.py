import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemonsoon import synthdata
from nemonsoon.geogrid import AreaSet, area_cells, area_indices, inside, month_axis, ocean_fraction
from nemonsoon.index import (
    ONSET_MONTHS,
    RETREAT_MONTHS,
    evaluate_pair,
    normalise_series,
    pearson,
    raw_index,
    season_masks,
)
from nemonsoon.stations import ClusterParams, run_clustering
from nemonsoon.synthdata import (
    INDEX_CORR,
    SynthSpec,
    gen_forecast_cluster,
    gen_global_indices,
    gen_sst,
    gen_stations,
    latent_signal,
    regime_targets,
)

SPEC = SynthSpec()
SEED = 0


def expected_corr(spec, seed, season) -> float:
    """Closed-form correlation of z = c*s + eta with y = beta*s + eps over
    one season (0 onset with the south regime, 1 retreat with the upper
    one, as `season_masks` orders them), treating Z as the latent signal
    itself: c = 2*ALPHA, eta is the area-averaged cell noise and eps the
    station-averaged rainfall noise."""
    beta, n_stations = ((spec.beta_onset, synthdata.N_SOUTH),
                        (spec.beta_retreat, synthdata.N_UPPER))[season]
    s = latent_signal(spec, seed)
    var_s = s[season_masks(month_axis(synthdata.T0, spec.nt))[season]].var()
    c = 2.0 * synthdata.ALPHA
    grid = spec.grid()

    def ncells(rect):
        return area_indices(AreaSet.of(rect), grid)[0].size

    var_eta = synthdata.SST_NOISE ** 2 * (1.0 / ncells(synthdata.RECT_A)
                                          + 1.0 / ncells(synthdata.RECT_B))
    var_eps = synthdata.RAIN_NOISE ** 2 / n_stations
    num = c * beta * var_s
    den = np.sqrt((c * c * var_s + var_eta) * (beta * beta * var_s + var_eps))
    return float(num / den)


def reference_standardize(x):
    """The z-score the generators used before `index.normalise_series`."""
    x = np.asarray(x, dtype=float)
    return (x - x.mean()) / x.std()


class TestSharedRules:
    """The generators take their season rule and z-score from `index`; both
    are bit-equal to the copies they replaced."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 1000),
           scale=st.sampled_from([1e-3, 1.0, 45.0]))
    def test_normalise_series_is_the_old_standardize(self, seed, n, scale):
        x = np.random.default_rng(seed).normal(3.0, scale, n)
        assert normalise_series(x).tobytes() == reference_standardize(x).tobytes()

    @pytest.mark.parametrize("t0", ["1982-01", "1982-07", "1983-11"])
    def test_season_masks_are_the_old_month_sets(self, t0):
        months = month_axis(t0, 36)
        onset, retreat = season_masks(months)
        np.testing.assert_array_equal(onset, np.isin(months, list(ONSET_MONTHS)))
        np.testing.assert_array_equal(retreat, np.isin(months, list(RETREAT_MONTHS)))


class TestLatentSignal:
    def test_deterministic(self):
        np.testing.assert_array_equal(latent_signal(SPEC, SEED), latent_signal(SPEC, SEED))

    def test_seed_changes_signal(self):
        assert not np.array_equal(latent_signal(SPEC, 0), latent_signal(SPEC, 1))

    def test_roughly_unit_stochastic_variance(self):
        s = latent_signal(SPEC, SEED)
        months = np.tile(np.arange(1, 13), SPEC.years)
        seasonal = synthdata.SEASONAL_AMP * np.cos(2 * np.pi * (months - 1) / 12.0)
        resid = s - seasonal
        assert 0.5 < resid.var() < 2.0


class TestSST:
    def test_field_shape_and_range(self):
        field = gen_sst(SPEC, SEED)
        assert field.values.shape == (SPEC.nt, SPEC.nlat, SPEC.nlon)
        ocean = field.values[:, field.ocean_mask()]
        assert np.nanmin(ocean) >= -5.0
        assert np.nanmax(ocean) <= 45.0

    def test_deterministic(self):
        f1 = gen_sst(SPEC, SEED)
        f2 = gen_sst(SPEC, SEED)
        np.testing.assert_array_equal(f1.values, f2.values)

    def test_land_layout_constant_over_time(self):
        field = gen_sst(SPEC, SEED)
        land = np.isnan(field.values)
        np.testing.assert_array_equal(land, np.broadcast_to(land[0], land.shape))

    def test_planted_rects_all_ocean(self):
        field = gen_sst(SPEC, SEED)
        area_a, area_b = SPEC.planted_areas()
        mask = field.ocean_mask()
        assert ocean_fraction(area_a, mask, field.spec) == 1.0
        assert ocean_fraction(area_b, mask, field.spec) == 1.0

    def test_dipole_carries_signal(self):
        field = gen_sst(SPEC, SEED)
        area_a, area_b = SPEC.planted_areas()
        z = normalise_series(raw_index(field, area_a, area_b))
        s = latent_signal(SPEC, SEED)
        assert pearson(z, s) > 0.9

    def test_planted_objective_is_strong(self):
        field = gen_sst(SPEC, SEED)
        stations, labels = gen_stations(SPEC, SEED)
        y_on, y_re = regime_targets(stations, labels)
        area_a, area_b = SPEC.planted_areas()
        rep = evaluate_pair(field, area_a, area_b, y_on, y_re)
        assert rep.valid
        assert rep.q > 0.7
        assert rep.r_onset == pytest.approx(expected_corr(SPEC, SEED, 0), abs=0.1)
        assert rep.r_retreat == pytest.approx(expected_corr(SPEC, SEED, 1), abs=0.1)


class TestStations:
    def test_counts_and_labels(self):
        stations, labels = gen_stations(SPEC, SEED)
        assert len(stations) == synthdata.N_SOUTH + synthdata.N_UPPER
        assert sum(v == "south" for v in labels.values()) == synthdata.N_SOUTH
        assert all(st.rain.min() >= 0 for st in stations)

    def test_regimes_recovered_by_clustering(self):
        stations, labels = gen_stations(SPEC, SEED)
        clusters = run_clustering(stations, ClusterParams(d=2.0, n=2))
        # every cluster should be regime-pure and the two regimes separated
        assert len(clusters) >= 2
        for cl in clusters:
            regimes = {labels[sid] for sid in cl.member_ids}
            assert len(regimes) == 1


class TestGlobalIndices:
    def test_exact_in_sample_correlation(self, rng):
        target = rng.normal(size=240)
        out = gen_global_indices(SEED, target)
        assert set(out) == set(INDEX_CORR)
        for name, series in out.items():
            assert pearson(series, target) == pytest.approx(
                INDEX_CORR[name], abs=1e-9)
            assert abs(series.mean()) < 1e-9


class TestForecastCluster:
    def test_shapes_and_selection_bar(self):
        target, ne, cands = gen_forecast_cluster(240, seed=0)
        assert len(target) == len(ne) == 240
        assert set(cands) == {"SURR", "NOISE1", "NOISE2"}
        assert abs(pearson(ne, target)) > 0.6
        assert abs(pearson(cands["SURR"], target)) > 0.6
        assert abs(pearson(cands["NOISE1"], target)) < 0.6
        assert abs(pearson(cands["NOISE2"], target)) < 0.6

    def test_deterministic(self):
        t1, n1, c1 = gen_forecast_cluster(120, seed=3)
        t2, n2, c2 = gen_forecast_cluster(120, seed=3)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(n1, n2)
        for k in c1:
            np.testing.assert_array_equal(c1[k], c2[k])


class TestSpec:
    def test_fields_are_the_size_and_the_couplings(self):
        assert [f.name for f in dataclasses.fields(SynthSpec)] == \
            ["nlat", "nlon", "years", "beta_onset", "beta_retreat"]
        with pytest.raises(TypeError):
            SynthSpec(alpha=0.5)
        assert (SPEC.rect_a, SPEC.rect_b) == (synthdata.RECT_A, synthdata.RECT_B)

    def test_grid_takes_the_constants(self):
        grid = SynthSpec(nlat=30, nlon=50, years=3).grid()
        assert (grid.lat0, grid.lon0, grid.dlat, grid.dlon, grid.t0) == \
            (synthdata.LAT0, synthdata.LON0, synthdata.DLAT, synthdata.DLON, synthdata.T0)
        assert (grid.nlat, grid.nlon, grid.nt) == (30, 50, 36)

    def test_domain_covers_grid(self):
        grid = SPEC.grid()
        domain = grid.domain()
        lons = grid.lon0 + grid.dlon * np.arange(grid.nlon)
        assert domain.lat_min <= grid.lats.min() <= grid.lats.max() <= domain.lat_max
        assert domain.lon_min <= lons.min() <= lons.max() <= domain.lon_max

    def test_planted_areas_inside_domain(self):
        assert inside(SPEC.grid().domain(), *SPEC.planted_areas())
        grid = SPEC.grid()
        a, b = SPEC.planted_areas()
        assert area_cells(a, grid) and area_cells(b, grid)
        assert not (area_cells(a, grid) & area_cells(b, grid))
