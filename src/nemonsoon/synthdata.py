"""Deterministic synthetic world: an SST field with a planted two-area
dipole driven by a latent signal, gauge stations whose rainfall couples to
that signal by season, and surrogate climate-index features. Gives every
optimizer and test a known ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geogrid import AreaSet, GridSpec, Rect, SSTField, area_indices, month_axis
from .index import normalise_series, season_masks
from .stations import Station, cluster_mean_series

INDEX_CORR = {
    "ONI": 0.80, "DMI": 0.70, "MEI": 0.65, "SWMI": 0.55,
    "PDO": 0.45, "MJO": 0.30, "BSISO": 0.15,
}
# gen_forecast_cluster's world: the driver's period (months) and white-noise
# sd, the target's noise sd (mm/month), and the surrogate's weight on the driver
PERIOD, SIGNAL_NOISE, NOISE, SURROGATE_MIX = 36, 0.05, 20.0, 0.8

# the grid: the first cell centre and the cell size (degrees), and the first month
LAT0, LON0, DLAT, DLON, T0 = 0.0, 100.0, 0.5, 0.5, "1982-01"
# the planted dipole: the latent signal, times ALPHA, is subtracted over
# RECT_A and added over RECT_B. The per-cell noise sd SST_NOISE is
# deliberately large relative to ALPHA: after area averaging the index SNR
# then falls off smoothly with overlap fraction, which makes the planted
# placement the actual argmax
RECT_A, RECT_B = Rect(3.0, 8.0, 103.0, 108.0), Rect(12.0, 17.0, 112.0, 117.0)
ALPHA, SST_NOISE = 0.5, 3.0
# the share of cells that are land, kept off the planted rectangles
LAND_FRACTION = 0.05
# latent signal: a seasonal sinusoid of this amplitude + AR(1) with unit marginal variance
SEASONAL_AMP, AR_PHI = 0.8, 0.6
# gauge stations per regime, and the sd of their rainfall noise (mm/month);
# the series have no gaps
N_SOUTH, N_UPPER, RAIN_NOISE = 20, 20, 15.0


@dataclass(frozen=True)
class SynthSpec:
    """A world's size and its rainfall couplings (mm/month per unit of the
    latent signal); the module's constants fix the rest."""

    nlat: int = 40
    nlon: int = 40
    years: int = 20
    beta_onset: float = 30.0
    beta_retreat: float = 30.0
    # class attributes, not fields: every world plants the same dipole
    rect_a = RECT_A
    rect_b = RECT_B

    @property
    def nt(self) -> int:
        return self.years * 12

    def grid(self) -> GridSpec:
        return GridSpec(LAT0, LON0, DLAT, DLON, self.nlat, self.nlon, T0, self.nt)

    def planted_areas(self) -> tuple[AreaSet, AreaSet]:
        return AreaSet.of(RECT_A), AreaSet.of(RECT_B)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def latent_signal(spec: SynthSpec, seed: int) -> np.ndarray:
    """The shared driver s(t): seasonal sinusoid plus unit-variance AR(1)."""
    months = month_axis(T0, spec.nt)
    seasonal = SEASONAL_AMP * np.cos(2 * np.pi * (months - 1) / 12.0)
    rng = _rng(seed, 1)
    ar = np.empty(spec.nt)
    ar[0] = rng.standard_normal()
    innov_sd = np.sqrt(1.0 - AR_PHI ** 2)
    shocks = rng.standard_normal(spec.nt - 1)
    for t in range(1, spec.nt):
        ar[t] = AR_PHI * ar[t - 1] + innov_sd * shocks[t - 1]
    return seasonal + ar


def gen_sst(spec: SynthSpec, seed: int) -> SSTField:
    """SST field: smooth climatology + noise, with the latent signal added
    over the planted B rectangle and subtracted over A; land speckle is
    kept off the planted rectangles."""
    grid = spec.grid()
    months = grid.months()
    lat = grid.lats[:, None]
    clim = (
        26.0
        + 1.5 * np.sin(2 * np.pi * (months[:, None, None] - 1) / 12.0)
        - 0.05 * (lat - lat.mean())[None, :, :]
    )
    clim = np.broadcast_to(clim, (spec.nt, spec.nlat, spec.nlon)).copy()
    noise = _rng(seed, 2).standard_normal(clim.shape) * SST_NOISE
    values = clim + noise
    s = latent_signal(spec, seed)
    for rect, sign in ((RECT_A, -1.0), (RECT_B, +1.0)):
        ii, jj = area_indices(AreaSet.of(rect), grid)
        values[:, ii, jj] += sign * ALPHA * s[:, None]
    values = np.clip(values, -4.5, 44.5)  # keep the field invariant airtight
    land = _land_mask(spec, seed)
    values[:, land] = np.nan
    return SSTField(spec=grid, values=values.astype(np.float32))


def _land_mask(spec: SynthSpec, seed: int) -> np.ndarray:
    grid = spec.grid()
    land = _rng(seed, 4).random((spec.nlat, spec.nlon)) < LAND_FRACTION
    land[area_indices(AreaSet.of(RECT_A, RECT_B), grid)] = False
    return land


def gen_stations(spec: SynthSpec, seed: int) -> tuple[list[Station], dict[str, str]]:
    """Two planted station regimes: 'south' stations couple to the latent
    signal during onset months, 'upper' stations during retreat months.
    Returns (stations, regime-by-station-id)."""
    rng = _rng(seed, 3)
    s = latent_signal(spec, seed)
    onset, retreat = season_masks(month_axis(T0, spec.nt))
    stations: list[Station] = []
    labels: dict[str, str] = {}
    plans = [
        ("south", N_SOUTH, (4.0, 9.0), 180.0, 80.0, spec.beta_onset, onset),
        ("upper", N_UPPER, (14.0, 19.0), 60.0, 160.0, spec.beta_retreat, retreat),
    ]
    for regime, count, lat_range, base_on, base_re, beta, active in plans:
        for k in range(count):
            lat = float(rng.uniform(*lat_range))
            lon = float(rng.uniform(99.0, 102.0))
            offset = rng.normal(0.0, 10.0)
            rain = np.where(onset, base_on, base_re) + offset
            rain = rain + beta * s * active
            rain = rain + rng.normal(0.0, RAIN_NOISE, size=spec.nt)
            rain = np.maximum(rain, 0.0)
            sid = f"{regime[0].upper()}{k:03d}"
            stations.append(Station(id=sid, lat=lat, lon=lon, t0=T0, rain=rain))
            labels[sid] = regime
    return stations, labels


def regime_targets(stations: list[Station], labels: dict[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """(y_onset, y_retreat): mean rainfall of the south and upper regimes'
    stations (`cluster_mean_series`, the CLI's rule for a cluster target)."""
    return tuple(cluster_mean_series({sid for sid, regime in labels.items() if regime == side},
                                     stations) for side in ("south", "upper"))


def gen_global_indices(seed: int, target: np.ndarray) -> dict[str, np.ndarray]:
    """Surrogate climate-index columns with exact in-sample correlation
    INDEX_CORR to the given target (noise orthogonalized against it), standardized."""
    rng = _rng(seed, 5)
    target = np.asarray(target, dtype=float)
    z = normalise_series(target)
    out: dict[str, np.ndarray] = {}
    for name, rho in INDEX_CORR.items():
        noise = rng.standard_normal(len(target))
        resid = noise - (noise @ z) / (z @ z) * z
        e = normalise_series(resid)
        out[name] = rho * z + np.sqrt(1.0 - rho * rho) * e
    return out


def gen_forecast_cluster(nt: int, seed: int, beta: float = 45.0):
    """A rainfall target with a planted, window-predictable dependence on a
    candidate index: the index is a low-frequency sinusoid (forecastable
    from its own 24-month history), the target adds seasonality and noise.

    The candidate pool holds a degraded surrogate of the driver (passes the
    selection bar, so the base arm has a real feature) plus pure noise
    columns (fail the bar). Returns (target, ne_index, candidate_indices).
    """
    rng = np.random.default_rng([seed, 6])
    t = np.arange(nt)
    phase = rng.uniform(0, 2 * np.pi)
    ne = np.cos(2 * np.pi * t / PERIOD + phase) + SIGNAL_NOISE * rng.standard_normal(nt)
    ne = normalise_series(ne)
    seasonal = 20.0 * np.cos(2 * np.pi * (t % 12) / 12.0)
    target = 100.0 + seasonal + beta * ne + NOISE * rng.standard_normal(nt)
    # the surrogate's corruption is itself low-frequency, so a window model
    # cannot smooth it away; its correlation with the driver stays capped
    lf_noise = normalise_series(
        np.cos(2 * np.pi * t / 28.0 + rng.uniform(0, 2 * np.pi))
        + SIGNAL_NOISE * rng.standard_normal(nt))
    surrogate = SURROGATE_MIX * ne + np.sqrt(1 - SURROGATE_MIX ** 2) * lf_noise
    candidates = {
        "SURR": normalise_series(surrogate),
        "NOISE1": normalise_series(rng.standard_normal(nt)),
        "NOISE2": normalise_series(rng.standard_normal(nt)),
    }
    return target, ne, candidates
