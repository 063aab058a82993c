import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from nemonsoon import stations as stations_module
from nemonsoon.errors import DegenerateColumnError, FormatError, NoObservationsError
from nemonsoon.stations import (
    STATIONS_HEADER,
    Cluster,
    ClusterParams,
    Station,
    build_features,
    cluster_mean_series,
    cluster_stations,
    impute_monthly_median,
    monthly_climatologies,
    pca_reduce,
    qc_filter,
    read_clusters_csv,
    read_stations_csv,
    run_clustering,
    write_clusters_csv,
    write_stations_csv,
    _check_site,
)
from nemonsoon.geogrid import month_axis, month_slots, read_csv_rows

from conftest import bits, monthly_values


def make_station(sid="S0", lat=10.0, lon=100.0, years=5, base=100.0, seed=0):
    rng = np.random.default_rng(seed)
    rain = base + rng.uniform(0, 50, size=years * 12)
    return Station(id=sid, lat=lat, lon=lon, t0="2000-01", rain=rain)


class TestStation:
    def test_negative_rain_rejected(self):
        with pytest.raises(ValueError):
            Station("X", 0.0, 0.0, "2000-01", np.array([1.0, -2.0]))

    def test_infinite_rain_rejected_and_nan_still_missing(self):
        """Clustering a station with rain[3] = inf once died in numpy's
        eigensolver (LinAlgError) instead of a typed error."""
        rain = np.array([1.0, np.nan, 3.0, np.inf])
        with pytest.raises(ValueError, match="station X: infinite rainfall"):
            Station("X", 0.0, 0.0, "2000-01", rain)
        rain[3] = np.nan
        assert np.isnan(Station("X", 0.0, 0.0, "2000-01", rain).rain[[1, 3]]).all()

    def test_coords_checked(self):
        with pytest.raises(ValueError):
            Station("X", 95.0, 0.0, "2000-01", np.array([1.0]))


class TestQC:
    def test_complete_station_kept(self):
        st = make_station()
        assert qc_filter([st]) == [st]

    def test_one_bad_month_drops_station(self):
        st = make_station(years=5)
        rain = st.rain.copy()
        # januaries: indices 0, 12, ... -> knock out 2 of 5 (60% < 80%)
        rain[0] = np.nan
        rain[12] = np.nan
        bad = Station(st.id, st.lat, st.lon, st.t0, rain)
        assert qc_filter([bad]) == []

    def test_threshold_boundary(self):
        st = make_station(years=5)
        rain = st.rain.copy()
        rain[0] = np.nan  # 4/5 = 0.8 observed, exactly at threshold
        ok = Station(st.id, st.lat, st.lon, st.t0, rain)
        assert stations_module.COMPLETENESS == 0.8
        assert qc_filter([ok]) == [ok]

    @settings(max_examples=80, deadline=None)
    @given(nt=hst.integers(1, 40), start=hst.integers(1, 12), seed=hst.integers(0, 2**16),
           missing=hst.floats(0, 1),
           completeness=hst.sampled_from([0.2, 0.5, 0.75, 0.8, 1.0]))
    def test_matches_per_month_loop(self, nt, start, seed, missing, completeness):
        rng = np.random.default_rng(seed)
        rain = np.where(rng.random(nt) < missing, np.nan, 10.0)
        station = Station("S", 0.0, 0.0, f"2000-{start:02d}", rain)
        with mock.patch.object(stations_module, "COMPLETENESS", completeness):
            assert qc_filter([station]) == reference_qc_filter([station], completeness)


def reference_qc_filter(stations, completeness):
    """The per-calendar-month loop `qc_filter` replaced."""
    kept = []
    for st in stations:
        months = month_axis(st.t0, len(st.rain))
        ok = True
        for m in range(1, 13):
            slots = months == m
            total = int(slots.sum())
            if total and int((~np.isnan(st.rain[slots])).sum()) / total < completeness:
                ok = False
        if ok:
            kept.append(st)
    return kept


class TestImpute:
    def test_median_of_same_calendar_month(self):
        rain = np.full(36, 5.0)
        rain[2] = 10.0
        rain[14] = 30.0
        rain[26] = np.nan  # third March missing
        st = Station("S0", 0.0, 0.0, "2000-01", rain)
        imputed = impute_monthly_median(st)
        assert imputed.rain[26] == pytest.approx(20.0)
        assert not np.isnan(imputed.rain).any()

    def test_no_observations_raises(self):
        rain = np.full(24, 5.0)
        rain[4] = np.nan
        rain[16] = np.nan  # every May missing
        st = Station("S0", 0.0, 0.0, "2000-01", rain)
        with pytest.raises(NoObservationsError):
            impute_monthly_median(st)

    def test_noop_when_complete(self):
        st = make_station()
        assert impute_monthly_median(st) is st


def monthly_climatology(station):
    """One station's 12 monthly means from a boolean mask per month: the
    loop `monthly_climatologies` replaced, kept as its reference."""
    months = month_axis(station.t0, len(station.rain))
    out = np.empty(12)
    for m in range(1, 13):
        vals = station.rain[months == m]
        if vals.size == 0 or np.isnan(vals).any():
            raise NoObservationsError(m)
        out[m - 1] = vals.mean()
    return out


def reference_build_features(stations):
    raw = np.array([[st.lat, st.lon, *monthly_climatology(st)] for st in stations])
    return (raw - raw.mean(axis=0)) / raw.std(axis=0)


class TestFeatures:
    def test_climatology_hand_case(self):
        rain = np.concatenate([np.arange(1.0, 13.0), np.arange(13.0, 25.0)])
        st = Station("S0", 0.0, 0.0, "2000-01", rain)
        clim = monthly_climatologies([st])
        np.testing.assert_allclose(clim, [np.arange(7.0, 19.0)])

    @given(seed=hst.integers(0, 2**32 - 1), axes=hst.lists(
               hst.tuples(hst.integers(1, 12), hst.integers(1, 300), hst.integers(1, 4)),
               min_size=1, max_size=3),
           gaps=hst.sampled_from([0.0, 0.0, 0.01, 0.05]))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_station_loop(self, seed, axes, gaps):
        """Stations on up to three axes (t0 in any month, nt not a multiple
        of 12, so some months may be missing), values of mixed scale, NaN
        gaps: the same bits, or the same error and month, as the loop."""
        rng = np.random.default_rng(seed)
        sts = []
        for m0, nt, count in axes:
            for _ in range(count):
                rain = monthly_values(rng, nt, low=0.0, high=500.0, gaps=gaps)
                sts.append(Station(f"S{len(sts)}", float(rng.uniform(-90, 90)),
                                   float(rng.uniform(-180, 180)), f"2000-{m0:02d}", rain))
        with np.errstate(over="ignore", invalid="ignore"):  # sums of values near 1e308
            try:
                want = np.array([monthly_climatology(st) for st in sts])
            except NoObservationsError as exc:
                with pytest.raises(NoObservationsError) as got:
                    monthly_climatologies(sts)
                assert got.value.month == exc.month
                return
            assert bits(monthly_climatologies(sts)) == bits(want)
            if len(sts) >= 2:
                with np.errstate(divide="ignore"):
                    ref = reference_build_features(sts)
                if np.isfinite(ref).all():
                    assert bits(build_features(sts)) == bits(ref)

    def test_standardized_columns(self):
        stations = [make_station(f"S{i}", lat=float(i), lon=100.0 + i, seed=i) for i in range(6)]
        feats = build_features(stations)
        assert feats.shape == (6, 14)
        np.testing.assert_allclose(feats.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(feats.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_raises(self):
        stations = [make_station(f"S{i}", lat=5.0, lon=100.0 + i, seed=i) for i in range(4)]
        with pytest.raises(DegenerateColumnError) as exc:
            build_features(stations)
        assert "lat" in str(exc.value)


class TestPCA:
    def test_projection_shape_and_variance_order(self, rng):
        x = rng.normal(size=(50, 6)) * np.array([5.0, 3.0, 1.0, 0.5, 0.2, 0.1])
        proj = pca_reduce(x, 3)
        assert proj.shape == (50, 3)
        var = proj.var(axis=0)
        assert var[0] >= var[1] >= var[2]

    def test_captures_dominant_direction(self, rng):
        t = rng.normal(size=(100, 1))
        x = t @ np.array([[1.0, 2.0, -1.0]]) + 0.01 * rng.normal(size=(100, 3))
        proj = pca_reduce(x, 1)
        r = np.corrcoef(proj[:, 0], t[:, 0])[0, 1]
        assert abs(r) > 0.999

    def test_deterministic_sign(self, rng):
        x = rng.normal(size=(30, 4))
        p1 = pca_reduce(x, 2)
        p2 = pca_reduce(x.copy(), 2)
        np.testing.assert_array_equal(p1, p2)


class TestClustering:
    def _two_blobs(self):
        rng = np.random.default_rng(0)
        feats = np.vstack([
            rng.normal(0.0, 0.1, size=(5, 2)),
            rng.normal(10.0, 0.1, size=(5, 2)),
        ])
        stations = [make_station(f"S{i:02d}", seed=i) for i in range(10)]
        return stations, feats

    def test_two_blobs_found(self):
        stations, feats = self._two_blobs()
        clusters = cluster_stations(stations, feats, ClusterParams(d=2.0, n=2))
        assert len(clusters) == 2
        ids = [sorted(c.member_ids) for c in clusters]
        assert ids[0] == [f"S{i:02d}" for i in range(5)]
        assert ids[1] == [f"S{i:02d}" for i in range(5, 10)]

    def test_huge_d_single_cluster(self):
        stations, feats = self._two_blobs()
        clusters = cluster_stations(stations, feats, ClusterParams(d=1e9, n=2))
        assert len(clusters) == 1
        assert clusters[0].member_ids == frozenset(st.id for st in stations)

    def test_tiny_d_all_singletons(self):
        stations, feats = self._two_blobs()
        clusters = cluster_stations(stations, feats, ClusterParams(d=1e-12, n=2))
        assert len(clusters) == 10

    def test_ids_ordered_by_size(self):
        rng = np.random.default_rng(1)
        feats = np.vstack([
            rng.normal(0.0, 0.05, size=(3, 2)),
            rng.normal(20.0, 0.05, size=(7, 2)),
        ])
        stations = [make_station(f"S{i:02d}", seed=i) for i in range(10)]
        clusters = cluster_stations(stations, feats, ClusterParams(d=1.0, n=2))
        sizes = [len(c.member_ids) for c in clusters]
        assert sizes == sorted(sizes, reverse=True)
        assert [c.id for c in clusters] == list(range(1, len(clusters) + 1))

    @settings(max_examples=200, deadline=None)
    @given(n=hst.integers(2, 30), dim=hst.integers(1, 4),
           kind=hst.sampled_from(["lattice", "near-tie", "gaussian"]),
           d=hst.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 1e9]), seed=hst.integers(0, 2**16))
    def test_matches_rescanning_loop(self, n, dim, kind, d, seed):
        rng = np.random.default_rng(seed)
        if kind == "gaussian":
            feats = rng.normal(size=(n, dim))
        else:  # small integer lattices hold many exact distance ties
            feats = rng.integers(-2, 3, size=(n, dim)).astype(float)
            if kind == "near-tie":
                feats += rng.choice([-1e-13, 0.0, 1e-13], size=(n, dim))
        stations = [make_station(f"S{i:02d}", years=1) for i in range(n)]
        params = ClusterParams(d=d, n=2)
        got = cluster_stations(stations, feats, params)
        want = reference_cluster_stations(stations, feats, params)
        assert got == want

    def test_distance_count_grows_with_merges_not_rescans(self, monkeypatch):
        n = 60
        feats = np.random.default_rng(7).normal(size=(n, 2))
        stations = [make_station(f"S{i:02d}", years=1) for i in range(n)]
        calls = []
        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", lambda x: calls.append(1) or norm(x))
        clusters = cluster_stations(stations, feats, ClusterParams(d=1.0, n=2))
        merges = n - len(clusters)
        assert merges > n // 2
        assert len(calls) <= n * (n - 1) // 2 + merges * (n - 1)

    def test_mean_series(self):
        s1 = Station("A", 0, 0, "2000-01", np.full(12, 10.0))
        s2 = Station("B", 0, 0, "2000-01", np.full(12, 30.0))
        s3 = Station("C", 0, 0, "2000-01", np.full(12, 90.0))
        np.testing.assert_allclose(cluster_mean_series({"A", "B", "X"}, [s1, s2, s3]), 20.0)
        with pytest.raises(ValueError):
            cluster_mean_series({"X"}, [s1, s2, s3])

    def test_run_clustering_pipeline(self):
        rng = np.random.default_rng(3)
        stations = []
        for i in range(8):
            south = i < 4
            base = 200.0 if south else 50.0
            rain = base + rng.uniform(0, 10, size=60)
            stations.append(Station(f"S{i}", -5.0 if south else 15.0,
                                    100.0 + i * 0.1, "2000-01", rain))
        clusters = run_clustering(stations, ClusterParams(d=2.0, n=2))
        assert len(clusters) == 2
        groups = sorted(sorted(c.member_ids) for c in clusters)
        assert groups == [["S0", "S1", "S2", "S3"], ["S4", "S5", "S6", "S7"]]


def reference_cluster_stations(stations, features, params):
    """The loop `cluster_stations` replaced: after each merge it measures
    every pair of clusters again."""
    groups = {i: [i] for i in range(len(stations))}
    centroids = {i: features[i].copy() for i in range(len(stations))}
    while len(groups) > 1:
        best = None
        ids = sorted(groups)
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1:]:
                dist = float(np.linalg.norm(centroids[a] - centroids[b]))
                if best is None or dist < best[0] - 1e-12:
                    best = (dist, a, b)
        if best is None or best[0] >= params.d:
            break
        _, a, b = best
        groups[a].extend(groups[b])
        del groups[b], centroids[b]
        centroids[a] = features[groups[a]].mean(axis=0)
    ordered = sorted(groups.values(), key=lambda members: (-len(members), min(members)))
    return [Cluster(id=k + 1, member_ids=frozenset(stations[i].id for i in members))
            for k, members in enumerate(ordered)]


# one fault written into one row's fields (a list of six strings)
FAULTS = {
    "bad float": lambda f: f[:1] + ["1.2.3"] + f[2:],
    "bad rain": lambda f: f[:5] + ["oops"],
    "lat out of range": lambda f: f[:1] + ["95.0"] + f[2:],
    "lon out of range": lambda f: f[:2] + ["-181"] + f[3:],
    "negative rain": lambda f: f[:5] + ["-0.5"],
    "infinite rain": lambda f: f[:5] + ["inf"],
    "bad year": lambda f: f[:3] + ["20x1"] + f[4:],
    "bad month": lambda f: f[:4] + ["13"] + f[5:],
    "year out of range": lambda f: f[:3] + ["10000"] + f[4:],
    "site conflict": lambda f: f[:1] + [f[1] + "1"] + f[2:],  # 4.0 -> 4.01
    "duplicate month": None,  # the row is written twice
    "too few fields": lambda f: f[:5],
    "too many fields": lambda f: f + ["1"],
}


def _valid_station_lines(rng, nst, nt):
    """Shuffled rows of `nst` stations over `nt` months from a random start,
    with absent months, empty rain fields, and a site or year written in
    two ways that parse the same ('4.0' and '4.00', '2000' and '02000')."""
    lines = []
    y0, m0 = 1999 + int(rng.integers(3)), 1 + int(rng.integers(12))
    for k in range(nst):
        lat, lon = float(rng.integers(-80, 80)), float(rng.integers(-170, 170))
        for t in range(nt):
            if rng.random() < 0.2:
                continue
            year, month = y0 + (m0 - 1 + t) // 12, (m0 - 1 + t) % 12 + 1
            alt = rng.random() < 0.3
            rain = "" if rng.random() < 0.2 else repr(round(float(rng.uniform(0, 300)), 2))
            lines.append(",".join([
                f"S{k}", f"{lat:.2f}" if alt else repr(lat), repr(lon),
                f"0{year}" if alt else str(year), str(month), rain]))
    if not lines:
        lines.append(f"S0,1.0,2.0,{y0},{m0},5.0")
    return [lines[i] for i in rng.permutation(len(lines))]


def _outcome(read, path):
    """The stations `read` returns, or the class and text of what it raises."""
    try:
        return [(s.id, s.lat, s.lon, s.t0, s.rain.tobytes()) for s in read(path)]
    except Exception as exc:
        return type(exc), str(exc)


def reference_read_stations_csv(path):
    """The reader `read_stations_csv` replaced: one tuple per row, each
    field parsed on every row. A month or year out of range is a bad row,
    as in `read_stations_csv` (this reader used to find it only after the
    last row, in `month_slots`)."""
    sites, seen = {}, set()

    def row(sid, lat, lon, year, month, rain):
        lat, lon = float(lat), float(lon)
        _check_site(sid, lat, lon)
        rain = float(rain) if rain else math.nan
        if rain < 0 or rain == math.inf:
            raise ValueError(f"station {sid}: rain_mm {rain} is negative or infinite")
        year, month = int(year), int(month)
        if not 1 <= month <= 12:
            raise ValueError("month out of range 1..12")
        if not 0 <= year <= 9999:
            raise ValueError("year out of range 0..9999")
        if sites.setdefault(sid, (lat, lon)) != (lat, lon):
            raise ValueError(f"station {sid}: site ({lat}, {lon}) differs from "
                             f"its first row's {sites[sid]}")
        if (sid, year, month) in seen:
            raise ValueError(f"station {sid}: second row for {year}-{month:02d}")
        seen.add((sid, year, month))
        return sid, year, month, rain

    rows = read_csv_rows(path, STATIONS_HEADER, row)
    t0, nt, slots = month_slots([r[1] for r in rows], [r[2] for r in rows])
    rain = {sid: np.full(nt, np.nan) for sid in sites}
    for (sid, _, _, value), k in zip(rows, slots.tolist()):
        rain[sid][k] = value
    return [Station(id=sid, lat=lat, lon=lon, t0=t0, rain=rain[sid])
            for sid, (lat, lon) in sorted(sites.items())]


class TestCSV:
    @settings(max_examples=40, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), year=hst.integers(0, 9969), month=hst.integers(1, 12),
           years=hst.integers(1, 30), nst=hst.integers(1, 3))
    def test_round_trip_is_exact(self, tmp_path_factory, seed, year, month, years, nst):
        """Write then read gives the same stations bit for bit, NaN gaps
        included; read then write gives the same bytes."""
        rng = np.random.default_rng(seed)
        t0 = f"{year:04d}-{month:02d}"
        sts = [Station(f"S{k}", float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)), t0,
                       monthly_values(rng, 12 * years, low=0.0, high=500.0, gaps=0.2))
               for k in range(nst)]
        path = tmp_path_factory.mktemp("stations") / "stations.csv"
        write_stations_csv(sts, path)
        back = read_stations_csv(path)
        assert [(s.id, s.lat, s.lon, s.t0, bits(s.rain)) for s in back] == \
            [(s.id, s.lat, s.lon, s.t0, bits(s.rain)) for s in sts]
        again = path.with_name("again.csv")
        write_stations_csv(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_numpy_scalar_site_round_trip(self, tmp_path):
        sites = np.array([[5.0, 100.25], [-12.125, 179.5]])
        sts = [Station(f"S{k}", lat, lon, "2000-01", np.full(12, 3.5))
               for k, (lat, lon) in enumerate(sites)]  # numpy float64 scalars
        path = tmp_path / "stations.csv"
        write_stations_csv(sts, path)
        assert "np." not in path.read_text()
        back = read_stations_csv(path)
        assert [[s.lat, s.lon] for s in back] == sites.tolist()
        assert all(type(v) is float for s in back for v in (s.lat, s.lon))

    def test_station_round_trip(self, tmp_path):
        st1 = make_station("S0", seed=1)
        rain2 = make_station("S1", seed=2).rain.copy()
        rain2[5] = np.nan
        st2 = Station("S1", 12.0, 101.5, "2000-01", rain2)
        path = tmp_path / "stations.csv"
        write_stations_csv([st1, st2], path)
        back = read_stations_csv(path)
        assert [s.id for s in back] == ["S0", "S1"]
        for orig, got in zip([st1, st2], back):
            assert got.lat == orig.lat and got.lon == orig.lon
            np.testing.assert_array_equal(got.rain, orig.rain)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,lat,lon\nS0,1,2\n")
        with pytest.raises(FormatError):
            read_stations_csv(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("station_id,lat,lon,year,month,rain_mm\nS0,1,2,2000,1,oops\n")
        with pytest.raises(FormatError):
            read_stations_csv(path)

    def test_month_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("station_id,lat,lon,year,month,rain_mm\nS0,1,2,2000,13,5.0\n")
        with pytest.raises(FormatError):
            read_stations_csv(path)

    @pytest.mark.parametrize("second, message", [
        ("A,1,2,2000,1,7", "second row for 2000-01"),
        ("A,9,2,2000,2,7", "differs from its first row's"),
    ], ids=["same-month", "moved-site"])
    def test_conflicting_rows_rejected(self, tmp_path, second, message):
        path = tmp_path / "bad.csv"
        path.write_text("station_id,lat,lon,year,month,rain_mm\n"
                        f"A,1,2,2000,1,5\nB,1,2,2000,1,5\n{second}\n")
        with pytest.raises(FormatError, match=f"line 4 .*{message}"):
            read_stations_csv(path)

    def test_clusters_round_trip(self, tmp_path):
        clusters = [
            Cluster(1, frozenset({"B", "A"})),
            Cluster(2, frozenset({"C"})),
        ]
        path = tmp_path / "clusters.csv"
        write_clusters_csv(clusters, path)
        back = read_clusters_csv(path)
        assert back == {1: {"A", "B"}, 2: {"C"}}

    def test_station_in_two_clusters_rejected(self, tmp_path):
        # a mis-merged file would put S001's rain into both targets
        path = tmp_path / "clusters.csv"
        path.write_text("cluster_id,station_id\n1,S001\n2,S001\n2,S002\n")
        with pytest.raises(FormatError, match="line 3 .*station S001 is listed under clusters 1 and 2"):
            read_clusters_csv(path)

    @settings(max_examples=200, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), nst=hst.integers(1, 4), nt=hst.integers(1, 30),
           faults=hst.lists(hst.sampled_from(sorted(FAULTS)), max_size=2))
    # a second row for a month whose rain is also bad: the rain check comes first
    @example(seed=2, nst=2, nt=6, faults=["duplicate month", "bad rain"])
    def test_matches_row_tuple_reader(self, tmp_path_factory, seed, nst, nt, faults):
        rng = np.random.default_rng(seed)
        lines = _valid_station_lines(rng, nst, nt)
        hit = []
        for fault in faults:  # the second fault hits the first one's row half the time
            k = hit[0] if hit and rng.random() < 0.5 else int(rng.integers(len(lines)))
            fields = lines[k].split(",")
            if fault == "duplicate month":  # a later fault may hit the copy
                copy = int(rng.integers(len(lines) + 1))
                lines.insert(copy, lines[k])
                k = copy
            else:
                lines[k] = ",".join(FAULTS[fault](fields))
            hit.append(k)
        for _ in range(int(rng.integers(3))):
            lines.insert(int(rng.integers(len(lines) + 1)), "")
        path = tmp_path_factory.mktemp("stations") / "stations.csv"
        path.write_text("\n".join([",".join(STATIONS_HEADER)] + lines) + "\n")
        assert _outcome(read_stations_csv, path) == _outcome(reference_read_stations_csv, path)
