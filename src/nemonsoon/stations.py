"""Rain-gauge handling: QC by per-month completeness, monthly-median
imputation, feature building, PCA, and greedy centroid-linkage clustering."""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateColumnError, NoObservationsError
from .geogrid import MonthColumns, month_axis, monthly_rows, read_csv_rows, write_csv_rows

STATIONS_HEADER = ["station_id", "lat", "lon", "year", "month", "rain_mm"]
FEATURE_NAMES = ["lat", "lon"] + [f"clim_{m:02d}" for m in range(1, 13)]


@dataclass(frozen=True)
class Station:
    """One gauge station with a monthly rainfall series (NaN = missing),
    aligned to a common axis starting at t0."""

    id: str
    lat: float
    lon: float
    t0: str
    rain: np.ndarray

    def __post_init__(self):
        _check_site(self.id, self.lat, self.lon)
        present = self.rain[~np.isnan(self.rain)]
        if present.size and present.min() < 0:
            raise ValueError(f"station {self.id}: negative rainfall")


def _check_site(sid: str, lat: float, lon: float) -> None:
    if not -90 <= lat <= 90:
        raise ValueError(f"station {sid}: lat {lat} out of range")
    if not -180 <= lon <= 180:
        raise ValueError(f"station {sid}: lon {lon} out of range")


@dataclass(frozen=True)
class Cluster:
    id: int
    member_ids: frozenset
    centroid: np.ndarray


@dataclass(frozen=True)
class ClusterParams:
    """Merging threshold d (in post-PCA feature space) and PCA dimension n."""

    d: float = 2.0
    n: int = 2

    def __post_init__(self):
        if not self.d > 0:
            raise ValueError("threshold d must be positive")
        if not 1 <= self.n <= len(FEATURE_NAMES):
            raise ValueError(f"n must be in [1, {len(FEATURE_NAMES)}]")


def qc_filter(stations: list[Station], completeness: float = 0.8) -> list[Station]:
    """Keep a station only if every calendar month has at least the given
    fraction of its slots observed."""
    if not 0 < completeness <= 1:
        raise ValueError("completeness must be in (0, 1]")
    kept = []
    for st in stations:
        months = month_axis(st.t0, len(st.rain))
        total = np.bincount(months, minlength=13)
        present = np.bincount(months, weights=~np.isnan(st.rain), minlength=13)
        seen = total > 0
        if (present[seen] / total[seen] >= completeness).all():
            kept.append(st)
    return kept


def impute_monthly_median(station: Station) -> Station:
    """Fill each missing value with the median of that calendar month's
    observed values at the same station."""
    rain = station.rain.copy()
    months = month_axis(station.t0, len(rain))
    missing = np.isnan(rain)
    if not missing.any():
        return station
    for m in range(1, 13):
        slots = months == m
        gaps = slots & missing
        if not gaps.any():
            continue
        observed = rain[slots & ~missing]
        if observed.size == 0:
            raise NoObservationsError(m)
        rain[gaps] = np.median(observed)
    return replace(station, rain=rain)


def monthly_climatologies(stations: list[Station]) -> np.ndarray:
    """(n, 12) mean rainfall per imputed station and calendar month, with
    `ndarray.mean`'s bits: one stable sort per time axis puts each month's
    values in one run, in time order. The first station with a month that
    has no value, or a NaN, raises NoObservationsError for that month."""
    out = np.empty((len(stations), 12))
    axes: dict[tuple, list[int]] = {}
    for k, st in enumerate(stations):
        axes.setdefault((st.t0, len(st.rain), st.rain.dtype), []).append(k)
    for (t0, nt, _), rows in axes.items():
        months = month_axis(t0, nt)
        order = np.argsort(months, kind="stable")
        runs = list(itertools.pairwise(np.searchsorted(months[order], np.arange(1, 14)).tolist()))
        for k in rows:
            # 1-D sums (2-D ones add in another order); rain is never below 0,
            # so a sum is NaN only where a value is
            rain = stations[k].rain[order]
            out[k] = [np.add.reduce(rain[lo:hi]) / (hi - lo) if hi > lo else np.nan
                      for lo, hi in runs]
    bad = np.isnan(out)
    if bad.any():
        raise NoObservationsError(int(np.argmax(bad[np.argmax(bad.any(axis=1))])) + 1)
    return out


def build_features(stations: list[Station]) -> np.ndarray:
    """Per-station rows [lat, lon, 12-month climatology], each column
    standardized to zero mean and unit population variance."""
    if len(stations) < 2:
        raise ValueError("need at least 2 stations to standardize features")
    raw = np.column_stack([[st.lat for st in stations], [st.lon for st in stations],
                           monthly_climatologies(stations)])
    mean = raw.mean(axis=0)
    std = raw.std(axis=0)  # population
    for k, s in enumerate(std):
        if s == 0.0:
            raise DegenerateColumnError(FEATURE_NAMES[k])
    return (raw - mean) / std


def pca_reduce(matrix: np.ndarray, n: int) -> np.ndarray:
    """Project onto the top-n eigenvectors of the column covariance matrix.

    Components are ordered by descending eigenvalue; each eigenvector's
    sign is fixed so its largest-magnitude loading is positive.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not 1 <= n <= matrix.shape[1]:
        raise ValueError(f"n must be in [1, {matrix.shape[1]}]")
    centered = matrix - matrix.mean(axis=0)
    cov = centered.T @ centered / matrix.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n]
    basis = eigvecs[:, order]
    for k in range(basis.shape[1]):
        col = basis[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            basis[:, k] = -col
    return centered @ basis


def cluster_stations(
    stations: list[Station], features: np.ndarray, params: ClusterParams
) -> list[Cluster]:
    """Greedy centroid-linkage agglomeration: repeatedly merge the closest
    pair of clusters while their centroid distance is below d.

    Pairs of working ids (a working id is the smallest member row index)
    are taken in lexicographic order, and a later pair is closer only when
    its distance is more than 1e-12 below the closest so far, so near-ties
    pick the earlier pair. Final ids run 1..K by descending size, then by
    smallest member id.

    The centroid distances are kept in an upper-triangle matrix (+inf
    below the diagonal and for merged-away ids), whose row-major order is
    the pairs' lexicographic order; a merge recomputes one row and column.
    """
    if features.shape[0] != len(stations):
        raise ValueError("features rows must match stations")
    n = len(stations)
    groups: dict[int, list[int]] = {i: [i] for i in range(n)}
    centroids = [features[i].copy() for i in range(n)]
    dist = np.full((n, n), np.inf)
    for a in range(n):
        for b in range(a + 1, n):
            dist[a, b] = float(np.linalg.norm(centroids[a] - centroids[b]))
    while len(groups) > 1:
        # groups keeps its keys ascending (they are only ever removed)
        first, second = itertools.islice(groups, 2)
        a, b = divmod(_scan_closest(dist.ravel(), first * n + second), n)
        if dist[a, b] >= params.d:
            break
        groups[a].extend(groups.pop(b))
        dist[b, :] = dist[:, b] = np.inf
        centroids[a] = features[groups[a]].mean(axis=0)
        for c in groups:
            if c != a:
                lo, hi = min(a, c), max(a, c)
                dist[lo, hi] = float(np.linalg.norm(centroids[lo] - centroids[hi]))
    ordered = sorted(
        groups.values(), key=lambda members: (-len(members), min(members))
    )
    return [
        Cluster(
            id=k + 1,
            member_ids=frozenset(stations[i].id for i in members),
            centroid=features[members].mean(axis=0),
        )
        for k, members in enumerate(ordered)
    ]


def _scan_closest(flat: np.ndarray, pos: int) -> int:
    """The flat index at which a scan of `flat` from `pos` onward ends
    when a later entry replaces the closest so far only if it is more than
    1e-12 below it: hop to the first such entry until there is none."""
    while True:
        later = flat[pos + 1:] < flat[pos] - 1e-12
        k = int(later.argmax())
        if not later[k]:
            return pos
        pos += 1 + k


def cluster_mean_series(member_ids, stations: list[Station]) -> np.ndarray:
    """Pointwise unweighted mean rainfall across the stations whose id is
    in `member_ids`, in the order of `stations`."""
    members = [st for st in stations if st.id in member_ids]
    if not members:
        raise ValueError("none of the member ids is among the given stations")
    t0 = members[0].t0
    if any(st.t0 != t0 or len(st.rain) != len(members[0].rain) for st in members):
        raise ValueError("cluster members must share one time axis")
    return np.mean([st.rain for st in members], axis=0)


def run_clustering(stations: list[Station], params: ClusterParams) -> list[Cluster]:
    """QC -> impute -> features -> PCA -> agglomerate, in one call."""
    kept = [impute_monthly_median(st) for st in qc_filter(stations)]
    features = pca_reduce(build_features(kept), params.n)
    return cluster_stations(kept, features, params)


def read_stations_csv(path: str | os.PathLike) -> list[Station]:
    """Read `station_id,lat,lon,year,month,rain_mm` rows onto a common
    monthly axis (missing rain = empty field or absent row). A second row
    for a station and month, or a row whose lat/lon differ from the
    station's first row, is a FormatError naming its line. A row's lat/lon
    are parsed only when their text differs from its station's first row."""
    raw_sites: dict[str, tuple[str, str]] = {}
    sites: dict[str, tuple[float, float]] = {}
    code_of: dict[str, int] = {}
    cols = MonthColumns("station {}: ")
    month_code, claim, add_value = cols.month, cols.claim, cols.values.append

    def row(sid, lat, lon, year, month, rain):
        first = raw_sites.get(sid)
        moved = first != (lat, lon)
        if moved:
            site = float(lat), float(lon)
            _check_site(sid, *site)
        value = float(rain) if rain else math.nan
        if value < 0 or value == math.inf:
            raise ValueError(f"station {sid}: rain_mm {value} is negative or infinite")
        ym = month_code(year, month)
        if first is None:
            raw_sites[sid], sites[sid], code_of[sid] = (lat, lon), site, len(code_of)
        elif moved and sites[sid] != site:
            raise ValueError(f"station {sid}: site ({site[0]}, {site[1]}) differs from "
                             f"its first row's {sites[sid]}")
        claim(code_of[sid], ym, sid)
        add_value(value)

    read_csv_rows(path, STATIONS_HEADER, row)
    t0, rain = cols.grid(len(code_of))
    return [Station(id=sid, lat=lat, lon=lon, t0=t0, rain=rain[code_of[sid]])
            for sid, (lat, lon) in sorted(sites.items())]


def write_stations_csv(stations: list[Station], path: str | os.PathLike) -> None:
    """Emit `station_id,lat,lon,year,month,rain_mm`, missing rain empty."""
    write_csv_rows(path, STATIONS_HEADER, (
        (st.id, repr(float(st.lat)), repr(float(st.lon)), year, month, "" if math.isnan(v) else v)
        for st in stations for year, month, v in monthly_rows(st.t0, st.rain)))


def write_clusters_csv(clusters: list[Cluster], path: str | os.PathLike) -> None:
    """Emit `cluster_id,station_id`, members sorted within each cluster."""
    write_csv_rows(path, ["cluster_id", "station_id"],
                   ((cl.id, sid) for cl in clusters for sid in sorted(cl.member_ids)))


def read_clusters_csv(path: str | os.PathLike) -> dict[int, set[str]]:
    """Read `cluster_id,station_id` rows into each cluster's member ids. A
    station listed under a second cluster is a FormatError naming its line
    and both clusters."""
    cluster_of: dict[str, int] = {}

    def row(cid, sid):
        cid = int(cid)
        if cluster_of.setdefault(sid, cid) != cid:
            raise ValueError(f"station {sid} is listed under clusters "
                             f"{cluster_of[sid]} and {cid}")
        return cid, sid

    out: dict[int, set[str]] = {}
    for cid, sid in read_csv_rows(path, ["cluster_id", "station_id"], row):
        out.setdefault(cid, set()).add(sid)
    return out
