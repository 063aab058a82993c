"""Deterministic synthetic world: an SST field with a planted two-area
dipole driven by a latent signal, gauge stations whose rainfall couples to
that signal by season, and surrogate climate-index features. Gives every
optimizer and test a known ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geogrid import AreaSet, GridSpec, Rect, SSTField, area_indices, month_axis
from .index import normalise_series, season_masks
from .stations import Station

DEFAULT_INDEX_CORR = {
    "ONI": 0.80, "DMI": 0.70, "MEI": 0.65, "SWMI": 0.55,
    "PDO": 0.45, "MJO": 0.30, "BSISO": 0.15,
}


@dataclass(frozen=True)
class SynthSpec:
    # grid
    lat0: float = 0.0
    lon0: float = 100.0
    dlat: float = 0.5
    dlon: float = 0.5
    nlat: int = 40
    nlon: int = 40
    t0: str = "1982-01"
    years: int = 20
    # planted dipole
    rect_a: Rect = Rect(3.0, 8.0, 103.0, 108.0)
    rect_b: Rect = Rect(12.0, 17.0, 112.0, 117.0)
    # the per-cell noise sd is deliberately large relative to alpha: after
    # area averaging the index SNR then falls off smoothly with overlap
    # fraction, which makes the planted placement the actual argmax
    alpha: float = 0.5
    sst_noise: float = 3.0
    # latent signal: seasonal sinusoid + AR(1) with unit marginal variance
    seasonal_amp: float = 0.8
    ar_phi: float = 0.6
    # rainfall couplings (mm/month per unit of latent signal)
    beta_onset: float = 30.0
    beta_retreat: float = 30.0
    rain_noise: float = 15.0
    n_south: int = 20
    n_upper: int = 20
    missing_rate: float = 0.0
    land_fraction: float = 0.05

    @property
    def nt(self) -> int:
        return self.years * 12

    def grid(self) -> GridSpec:
        return GridSpec(self.lat0, self.lon0, self.dlat, self.dlon,
                        self.nlat, self.nlon, self.t0, self.nt)

    def planted_areas(self) -> tuple[AreaSet, AreaSet]:
        return AreaSet.of(self.rect_a), AreaSet.of(self.rect_b)

    def domain(self) -> Rect:
        return self.grid().domain()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def latent_signal(spec: SynthSpec, seed: int) -> np.ndarray:
    """The shared driver s(t): seasonal sinusoid plus unit-variance AR(1)."""
    months = month_axis(spec.t0, spec.nt)
    seasonal = spec.seasonal_amp * np.cos(2 * np.pi * (months - 1) / 12.0)
    rng = _rng(seed, 1)
    ar = np.empty(spec.nt)
    ar[0] = rng.standard_normal()
    innov_sd = np.sqrt(1.0 - spec.ar_phi ** 2)
    shocks = rng.standard_normal(spec.nt - 1)
    for t in range(1, spec.nt):
        ar[t] = spec.ar_phi * ar[t - 1] + innov_sd * shocks[t - 1]
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
    noise = _rng(seed, 2).standard_normal(clim.shape) * spec.sst_noise
    values = clim + noise
    s = latent_signal(spec, seed)
    for rect, sign in ((spec.rect_a, -1.0), (spec.rect_b, +1.0)):
        ii, jj = area_indices(AreaSet.of(rect), grid)
        values[:, ii, jj] += sign * spec.alpha * s[:, None]
    values = np.clip(values, -4.5, 44.5)  # keep the field invariant airtight
    land = _land_mask(spec, seed)
    values[:, land] = np.nan
    return SSTField(spec=grid, values=values.astype(np.float32))


def _land_mask(spec: SynthSpec, seed: int) -> np.ndarray:
    grid = spec.grid()
    land = _rng(seed, 4).random((spec.nlat, spec.nlon)) < spec.land_fraction
    land[area_indices(AreaSet.of(spec.rect_a, spec.rect_b), grid)] = False
    return land


def gen_stations(spec: SynthSpec, seed: int) -> tuple[list[Station], dict[str, str]]:
    """Two planted station regimes: 'south' stations couple to the latent
    signal during onset months, 'upper' stations during retreat months.
    Returns (stations, regime-by-station-id)."""
    rng = _rng(seed, 3)
    s = latent_signal(spec, seed)
    onset, retreat = season_masks(month_axis(spec.t0, spec.nt))
    stations: list[Station] = []
    labels: dict[str, str] = {}
    plans = [
        ("south", spec.n_south, (4.0, 9.0), 180.0, 80.0, spec.beta_onset, onset),
        ("upper", spec.n_upper, (14.0, 19.0), 60.0, 160.0, spec.beta_retreat, retreat),
    ]
    for regime, count, lat_range, base_on, base_re, beta, active in plans:
        for k in range(count):
            lat = float(rng.uniform(*lat_range))
            lon = float(rng.uniform(99.0, 102.0))
            offset = rng.normal(0.0, 10.0)
            rain = np.where(onset, base_on, base_re) + offset
            rain = rain + beta * s * active
            rain = rain + rng.normal(0.0, spec.rain_noise, size=spec.nt)
            rain = np.maximum(rain, 0.0)
            if spec.missing_rate > 0:
                gaps = rng.random(spec.nt) < spec.missing_rate
                rain = np.where(gaps, np.nan, rain)
            sid = f"{regime[0].upper()}{k:03d}"
            stations.append(Station(id=sid, lat=lat, lon=lon, t0=spec.t0, rain=rain))
            labels[sid] = regime
    return stations, labels


def regime_targets(stations: list[Station], labels: dict[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """(y_onset, y_retreat): mean rainfall of the south and upper regimes."""
    south = [st.rain for st in stations if labels[st.id] == "south"]
    upper = [st.rain for st in stations if labels[st.id] == "upper"]
    return np.mean(south, axis=0), np.mean(upper, axis=0)


def expected_onset_correlation(spec: SynthSpec, seed: int) -> float:
    """Approximate analytic correlation of Z with the south-regime mean over
    onset months, treating Z as the latent signal itself."""
    return _expected_corr(spec, seed, 0, spec.beta_onset, spec.n_south)


def expected_retreat_correlation(spec: SynthSpec, seed: int) -> float:
    return _expected_corr(spec, seed, 1, spec.beta_retreat, spec.n_upper)


def _expected_corr(spec, seed, season, beta, n_stations) -> float:
    """Closed-form correlation of z = c*s + eta with y = beta*s + eps over
    one season (0 onset, 1 retreat, as `season_masks` orders them), where
    c = 2*alpha, eta is the area-averaged cell noise and eps the
    station-averaged rainfall noise."""
    s = latent_signal(spec, seed)
    var_s = s[season_masks(month_axis(spec.t0, spec.nt))[season]].var()
    c = 2.0 * spec.alpha
    grid = spec.grid()

    def ncells(rect):
        return area_indices(AreaSet.of(rect), grid)[0].size

    var_eta = spec.sst_noise ** 2 * (1.0 / ncells(spec.rect_a) + 1.0 / ncells(spec.rect_b))
    var_eps = spec.rain_noise ** 2 / n_stations
    num = c * beta * var_s
    den = np.sqrt((c * c * var_s + var_eta) * (beta * beta * var_s + var_eps))
    return float(num / den)


def gen_global_indices(spec: SynthSpec, seed: int, target: np.ndarray,
                       correlations: dict[str, float] | None = None) -> dict[str, np.ndarray]:
    """Surrogate climate-index columns with exact in-sample correlation to
    the given target (noise orthogonalized against it), standardized."""
    correlations = correlations or DEFAULT_INDEX_CORR
    rng = _rng(seed, 5)
    target = np.asarray(target, dtype=float)
    z = normalise_series(target)
    out: dict[str, np.ndarray] = {}
    for name, rho in correlations.items():
        noise = rng.standard_normal(len(target))
        resid = noise - (noise @ z) / (z @ z) * z
        e = normalise_series(resid)
        out[name] = rho * z + np.sqrt(1.0 - rho * rho) * e
    return out


def gen_forecast_cluster(nt: int, seed: int, period: int = 36,
                         beta: float = 45.0, noise: float = 20.0,
                         signal_noise: float = 0.05, surrogate_mix: float = 0.8):
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
    ne = np.cos(2 * np.pi * t / period + phase) + signal_noise * rng.standard_normal(nt)
    ne = normalise_series(ne)
    seasonal = 20.0 * np.cos(2 * np.pi * (t % 12) / 12.0)
    target = 100.0 + seasonal + beta * ne + noise * rng.standard_normal(nt)
    # the surrogate's corruption is itself low-frequency, so a window model
    # cannot smooth it away; its correlation with the driver stays capped
    lf_noise = normalise_series(
        np.cos(2 * np.pi * t / 28.0 + rng.uniform(0, 2 * np.pi))
        + signal_noise * rng.standard_normal(nt))
    surrogate = surrogate_mix * ne + np.sqrt(1 - surrogate_mix ** 2) * lf_noise
    candidates = {
        "SURR": normalise_series(surrogate),
        "NOISE1": normalise_series(rng.standard_normal(nt)),
        "NOISE2": normalise_series(rng.standard_normal(nt)),
    }
    return target, ne, candidates
