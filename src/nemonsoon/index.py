"""Candidate index Z(t), seasonal correlations, and the squared-correlation
objective used to score an (A, B) area pair."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import geogrid
from .errors import EmptyAreaError, InsufficientSeasonSamplesError, ZeroVarianceError
from .geogrid import AreaSet, SSTField

ONSET_MONTHS = frozenset({10, 11, 12, 1, 2, 3})
RETREAT_MONTHS = frozenset({4, 5, 6, 7, 8, 9})


@dataclass
class ObjectiveReport:
    """Outcome of scoring one (A, B) pair."""

    r_onset: float
    r_retreat: float
    q: float
    valid: bool
    violation: str | None = None


def raw_index(field: SSTField, area_a: AreaSet, area_b: AreaSet) -> np.ndarray:
    """Monthly mean-SST difference, B minus A, in degC."""
    return geogrid.area_mean_series(field, area_b) - geogrid.area_mean_series(field, area_a)


def normalise_series(series: np.ndarray, reference: slice | np.ndarray | None = None) -> np.ndarray:
    """Z-score the whole series against mean/std (population) of the
    reference window; reference defaults to the full series."""
    series = np.asarray(series, dtype=float)
    if not np.isfinite(series).all():
        raise ValueError("normalise_series needs a finite series")
    ref = series if reference is None else series[reference]
    if ref.size < 2:
        raise ZeroVarianceError("reference window needs at least 2 points")
    mean = ref.mean()
    std = ref.std()  # population
    if std == 0.0:
        raise ZeroVarianceError("reference window has zero variance")
    return (series - mean) / std


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-D series")
    if x.size < 2:
        raise ValueError("pearson needs at least 2 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("pearson needs finite series")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc * xc).sum())
    sy = np.sqrt((yc * yc).sum())
    if sx == 0.0:
        raise ZeroVarianceError("first series is constant")
    if sy == 0.0:
        raise ZeroVarianceError("second series is constant")
    r = float((xc * yc).sum() / (sx * sy))
    return min(1.0, max(-1.0, r))


_ONSET_BY_MONTH = np.isin(np.arange(13), list(ONSET_MONTHS))
_RETREAT_BY_MONTH = np.isin(np.arange(13), list(RETREAT_MONTHS))


def season_masks(months: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Onset and retreat selectors over a calendar-month axis (1..12); each
    season needs at least 3 samples for a correlation."""
    months = np.asarray(months)
    sel_on, sel_re = _ONSET_BY_MONTH[months], _RETREAT_BY_MONTH[months]
    if sel_on.sum() < 3 or sel_re.sum() < 3:
        raise InsufficientSeasonSamplesError(
            f"need >= 3 samples per season, got onset={int(sel_on.sum())}, "
            f"retreat={int(sel_re.sum())}"
        )
    return sel_on, sel_re


def season_centre(series: np.ndarray, months: np.ndarray) -> np.ndarray:
    """float64 copy of `series` (time on the last axis) with each season's
    mean removed. Differences of centred series are centred differences."""
    return _centre(series, season_masks(months))


def _centre(series, masks) -> np.ndarray:
    out = np.array(series, dtype=float)
    for sel in masks:
        out[..., sel] -= out[..., sel].mean(axis=-1, keepdims=True)
    return out


def season_target(y_onset: np.ndarray, y_retreat: np.ndarray, months: np.ndarray) -> np.ndarray:
    """One season-centred target: y_onset in onset months, y_retreat in
    retreat months."""
    return _target(y_onset, y_retreat, season_masks(months))


def _target(y_onset, y_retreat, masks) -> np.ndarray:
    if not (len(y_onset) == len(y_retreat) == len(masks[0])):
        raise ValueError("series must share one time axis")
    return _centre(np.where(masks[0], y_onset, y_retreat), masks)


def seasonal_scores(diffs: np.ndarray, target: np.ndarray, months: np.ndarray):
    """(r_onset, r_retreat, q) for each row of season-centred index
    differences against the season-centred target, one Pearson r per season.

    Pearson r is affine-invariant, so raw differences score the same as the
    normalised index. A row, or a target, that is constant within a season
    or not finite scores NaN: an invalid pair, never a fabricated q.
    """
    return _scores(diffs, target, season_masks(months))


def _scores(diffs, target, masks):
    diffs = np.atleast_2d(diffs)
    seasons = np.stack(masks, axis=1).astype(float)  # (nt, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (diffs @ (target[:, None] * seasons)) / np.sqrt(
            ((diffs * diffs) @ seasons) * ((target * target) @ seasons))
    r = np.where(np.isfinite(r), np.clip(r, -1.0, 1.0), np.nan)
    return r[:, 0], r[:, 1], objective_q(r[:, 0], r[:, 1])


# A pair whose Gram-form |B - A|^2 is below this share of |A|^2 + |B|^2 is
# within rounding of identical series: the direct difference would be 0.
_GRAM_DEGENERATE = 1e-10


class PairScorer:
    """Objective q of every (A, B) pair of area series, from one Gram
    matmul per season instead of one difference per pair.

    On season-centred series a, b and target y, the pair's index b - a has,
    per season s, (b - a).y = b.y - a.y and |b - a|^2 = |a|^2 + |b|^2 -
    2 a.b, so r_s = (b.y - a.y) / sqrt(|b - a|^2 |y|^2) needs only each
    series' dot with y, its squared norm and the A x B Gram matrix. Rows
    are stored with each season's months in one run of columns, so a season
    is a column slice. The B series are stacked once; A series come in
    blocks of at most `BLOCK_ROWS` through reused buffers, which keeps the
    float64 temporaries small.

    Series must be finite. A pair that is degenerate (identical series up to
    rounding) or a target that is constant within a season scores NaN, as
    in `seasonal_scores`.
    """

    BLOCK_ROWS = 32

    def __init__(self, months: np.ndarray, target: np.ndarray, series_b):
        self._masks = sel_on, sel_re = season_masks(months)
        self._order = np.concatenate([np.flatnonzero(sel_on), np.flatnonzero(sel_re)])
        cut = int(sel_on.sum())
        self._seasons = (slice(0, cut), slice(cut, len(self._order)))
        y = np.asarray(target, dtype=float)[self._order]
        self._y = [y[s] for s in self._seasons]
        self._yy = [float(ys @ ys) for ys in self._y]
        stack_b = np.empty((len(series_b), len(self._order)))
        for row, s in zip(stack_b, series_b):
            self._fill(s, row)
        self._b = [stack_b[:, s] for s in self._seasons]
        self._b_y = [b @ ys for b, ys in zip(self._b, self._y)]
        self._b_sq = [np.einsum("ij,ij->i", b, b) for b in self._b]
        self._a = np.empty((self.BLOCK_ROWS, len(self._order)))
        shape = (self.BLOCK_ROWS, len(stack_b))
        self._q, self._den, self._r = np.empty(shape), np.empty(shape), np.empty(shape)
        self._bad = np.empty(shape, dtype=bool)

    def _fill(self, series, row) -> None:
        np.take(_centre(series, self._masks), self._order, out=row)

    def scores(self, series_a) -> np.ndarray:
        """(len(series_a), n_b) q of each A series against every B series;
        NaN marks an invalid pair. The result is a view of a buffer that
        the next call overwrites."""
        k = len(series_a)
        a = self._a[:k]
        for row, s in zip(a, series_a):
            self._fill(s, row)
        q, den, r, bad = self._q[:k], self._den[:k], self._r[:k], self._bad[:k]
        q.fill(0.0)
        for s, b, ys, yy, b_y, b_sq in zip(self._seasons, self._b, self._y, self._yy,
                                           self._b_y, self._b_sq):
            a_s = a[:, s]
            a_sq = np.einsum("ij,ij->i", a_s, a_s)[:, None]
            np.matmul(a_s, b.T, out=den)
            den *= -2.0
            den += a_sq
            den += b_sq
            np.add(a_sq, b_sq, out=r)
            r *= _GRAM_DEGENERATE
            np.less_equal(den, r, out=bad)
            # a kept pair has den > 0, so r is finite unless y is 0 in
            # this season, and then it is 0 / 0
            with np.errstate(divide="ignore", invalid="ignore"):
                den *= yy
                np.sqrt(den, out=den)
                np.subtract(b_y, (a_s @ ys)[:, None], out=r)
                r /= den
            np.copyto(r, np.nan, where=bad)
            np.clip(r, -1.0, 1.0, out=r)
            r *= r
            q += r
        q *= 0.5
        return q


def objective_q(r_onset, r_retreat):
    """Season-aware objective: mean of the two squared correlations. Takes
    scalars or arrays; NaN correlations give NaN."""
    r_onset = np.asarray(r_onset, dtype=float)
    r_retreat = np.asarray(r_retreat, dtype=float)
    if (np.abs(r_onset) > 1.0).any() or (np.abs(r_retreat) > 1.0).any():
        raise ValueError("correlations must lie in [-1, 1]")
    q = 0.5 * (r_onset * r_onset + r_retreat * r_retreat)
    return float(q) if q.ndim == 0 else q


def ocean_series(field: SSTField, area: AreaSet, min_ocean: float) -> tuple[np.ndarray | None, str | None]:
    """The area constraint: the area covers grid cells, has ocean, and at
    least `min_ocean` of its cells are ocean. Returns (ocean-mean series,
    None) when it holds, else (None, the violation)."""
    try:
        frac = geogrid.ocean_fraction(area, field.ocean_mask(), field.spec)
    except EmptyAreaError as exc:
        return None, f"empty area: {exc}"
    if frac < min_ocean:
        return None, f"ocean_fraction={frac:.3f} < {min_ocean}"
    if frac == 0.0:
        return None, f"area has no ocean cells: {area}"
    return geogrid.area_mean_series(field, area), None


def evaluate_pair(
    field: SSTField,
    area_a: AreaSet,
    area_b: AreaSet,
    y_onset: np.ndarray,
    y_retreat: np.ndarray,
    min_ocean: float = 0.8,
) -> ObjectiveReport:
    """Score an (A, B) pair; constraint violations and degenerate series are
    reported as invalid, never raised, so an optimizer can penalize them."""
    series = []
    for label, area in (("A", area_a), ("B", area_b)):
        s, violation = ocean_series(field, area, min_ocean)
        if s is None:
            return ObjectiveReport(np.nan, np.nan, np.nan, False, f"{label}: {violation}")
        series.append(s)
    try:
        masks = season_masks(field.spec.months())
    except InsufficientSeasonSamplesError as exc:
        return ObjectiveReport(np.nan, np.nan, np.nan, False, str(exc))
    diff = _centre(np.subtract(series[1], series[0], dtype=float), masks)
    target = _target(y_onset, y_retreat, masks)
    r_onset, r_retreat, q = (float(v[0]) for v in _scores(diff, target, masks))
    if np.isnan(q):
        finite = np.isfinite(diff).all() and np.isfinite(target).all()
        violation = ("index or target constant within a season" if finite
                     else "index or target has non-finite values")
        return ObjectiveReport(np.nan, np.nan, np.nan, False, violation)
    return ObjectiveReport(r_onset, r_retreat, q, True)


def write_objective_csv(report: ObjectiveReport, path: str | os.PathLike) -> None:
    """Emit `r_onset,r_retreat,q,valid,violation`."""
    with geogrid.atomic_write(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r_onset", "r_retreat", "q", "valid", "violation"])
        w.writerow([
            _fmt(report.r_onset), _fmt(report.r_retreat), _fmt(report.q),
            str(report.valid).lower(), report.violation or "",
        ])


def write_index_csv(z: np.ndarray, t0: str, path: str | os.PathLike) -> None:
    """Emit `year,month,z` for a monthly index series starting at t0."""
    nt = len(z)
    years = geogrid.year_axis(t0, nt)
    months = geogrid.month_axis(t0, nt)
    with geogrid.atomic_write(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["year", "month", "z"])
        for y, m, v in zip(years, months, z):
            w.writerow([int(y), int(m), repr(float(v))])


def _fmt(v: float) -> str:
    return "" if np.isnan(v) else repr(float(v))
