"""Candidate index Z(t), seasonal correlations, and the squared-correlation
objective used to score an (A, B) area pair."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import geogrid
from .errors import ConfigError, EmptyAreaError, InsufficientSeasonSamplesError, ZeroVarianceError
from .geogrid import AreaSet, SSTField

ONSET_MONTHS = frozenset({10, 11, 12, 1, 2, 3})
RETREAT_MONTHS = frozenset({4, 5, 6, 7, 8, 9})
INDEX_HEADER = ["year", "month", "z"]
MIN_OCEAN = 0.8  # the least share of an area's cells that must be ocean, by default


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


def _centre(series, seasons) -> np.ndarray:
    """float64 copy of `series` (time on the last axis) with each season's
    mean removed, each season given as a mask or as its month indices; the
    mean is `ndarray.mean`'s sum / count. Differences of centred series are
    centred differences."""
    out = np.array(series, dtype=float)
    for sel in seasons:
        part = out[..., sel]
        first = part[..., :1]
        # a finite run with all values equal centres to exact zeros, not to
        # the rounding residue of its mean (7.1 mm leaves about 1e-16)
        flat = np.logical_and.reduce(part == first, axis=-1, keepdims=True) & np.isfinite(first)
        mean = np.add.reduce(part, axis=-1, keepdims=True) / part.shape[-1]
        out[..., sel] = np.where(flat, 0.0, part - mean)
    return out


def _season_order(masks) -> tuple[np.ndarray, tuple[slice, slice]]:
    """The onset months, then the retreat months, each in time order, as
    indices into the time axis, and each season's slice of that order."""
    order = np.concatenate([np.flatnonzero(sel) for sel in masks])
    cut = int(masks[0].sum())
    return order, (slice(0, cut), slice(cut, len(order)))


# A pair whose Gram-form |B - A|^2 is below this share of |A|^2 + |B|^2 is
# within rounding of identical series: the direct difference would be 0.
_GRAM_DEGENERATE = 1e-10
_U64 = 2.0 ** -53  # unit roundoff of float64


class PairScorer:
    """Objective q of every (A, B) pair of area series, from one Gram
    matmul per season instead of one difference per pair, with a bound on
    how far each q may be from the q of the series the given ones
    approximate.

    On season-centred series a, b and target y, the pair's index b - a has,
    per season s, (b - a).y = b.y - a.y and |b - a|^2 = |a|^2 + |b|^2 -
    2 a.b, so r_s = (b.y - a.y) / sqrt(|b - a|^2 |y|^2) needs only each
    series' dot with y, its squared norm and the A x B Gram matrix. Rows
    are stored with each season's months in one run of columns, so a season
    is a column slice. The B series are stacked once, centred a block at a
    time; A series come in blocks of at most `BLOCK_ROWS` through reused buffers,
    which keeps the float64 temporaries small. Each block is centred by one
    `_centre` call, byte-equal to centring its rows one by one.

    Each series comes with `err`, a bound on the absolute error of each of
    its months against the series it stands for. The bound returned with q
    then covers |q - q'|, q' being `PairObjective`'s q of the pair of
    series stood for, whenever both are finite:
    - per season, |r - r'| is at most twice the angle between the two
      differences, so at most 2.5 sqrt(months) (err_a + err_b) / |b - a|
      (2.5, not 2, absorbs the rounding of |b - a|);
    - rounding in the Gram form and in `PairObjective` adds at most
      8 (nt + 2) u (|a|^2 + |b|^2) / |b - a|^2 per season, u being the
      float64 unit roundoff;
    - |q - q'| is at most the sum of the two seasons' |r - r'|.
    A pair that `PairObjective` finds constant within a season has
    |b - a| <= sqrt(months) (err_a + err_b), so its bound is at least 2.5,
    more than any two q differ by.

    Series must be finite. A pair that is degenerate (identical series up to
    rounding) or a target that is constant within a season scores NaN, as
    in `PairObjective`.
    """

    # four (BLOCK_ROWS, n_b) float64 buffers, q, its bound and two work
    # arrays, take what three took at 32 rows
    BLOCK_ROWS = 24

    def __init__(self, objective: "PairObjective", series_b: np.ndarray, err_b):
        """The season order and centred target are `objective`'s, and its
        error (too few months in a season, targets off the time axis) is
        raised here. `series_b` is the (n_b, nt) float64 array of B series,
        which becomes the stack: it is centred in place, a block at a time,
        so the caller's copy is overwritten. `err_b` bounds each row's error
        (a scalar or one per row)."""
        if objective._error is not None:
            raise objective._error
        self._order, self._seasons = objective._order, objective._seasons
        y = objective._target[self._order]
        self._y = [y[s] for s in self._seasons]
        self._yy = [float(ys @ ys) for ys in self._y]
        # series error to r error, per unit of err_a + err_b, and rounding
        self._err_scale = [2.5 * math.sqrt(s.stop - s.start) for s in self._seasons]
        self._rounding = 8.0 * (len(self._order) + 2) * _U64
        stack_b = series_b
        if stack_b.dtype != np.float64 or stack_b.ndim != 2:
            raise ValueError("series_b must be a 2-D float64 array")
        n_b = len(stack_b)
        for lo in range(0, n_b, self.BLOCK_ROWS):
            block = stack_b[lo:lo + self.BLOCK_ROWS]
            block[...] = self._centred(block)
        err_b = np.broadcast_to(np.asarray(err_b, dtype=float), (n_b,))
        b = [stack_b[:, s] for s in self._seasons]
        with np.errstate(divide="ignore", invalid="ignore"):  # y is 0 in a season
            self._b_y = [b_s @ ys / math.sqrt(yy) for b_s, ys, yy in zip(b, self._y, self._yy)]
        self._b_sq = [np.einsum("ij,ij->i", b_s, b_s) for b_s in b]
        self._err_b = [scale * err_b for scale in self._err_scale]
        stack_b *= -2.0  # exact: the matmul then gives -2 a.b
        self._b_m2 = b
        shape = (self.BLOCK_ROWS, n_b)
        self._q, self._bound = np.empty(shape), np.empty(shape)
        self._den, self._r = np.empty(shape), np.empty(shape)
        self._bad = np.empty(shape, dtype=bool)

    def _centred(self, series) -> np.ndarray:
        """The rows of a 2-D block, season-centred, in season order."""
        return _centre(np.take(series, self._order, axis=1), self._seasons)

    def scores(self, series_a, err_a) -> tuple[np.ndarray, np.ndarray]:
        """(q, bound), each (len(series_a), n_b): q of each row of the 2-D
        block `series_a` against every B series, NaN marking an invalid
        pair, and the bound on its error. Both are views of buffers that
        the next call overwrites."""
        a = self._centred(series_a)
        k = len(a)
        err_a = np.broadcast_to(np.asarray(err_a, dtype=float), (k,))[:, None]
        q, bound, den, r, bad = (buf[:k] for buf in (
            self._q, self._bound, self._den, self._r, self._bad))
        q.fill(0.0)
        bound.fill(0.0)
        bad.fill(False)
        # a kept pair has |b - a|^2 > 0, so every ratio below is finite; a
        # dropped one may divide by 0 or take the root of a negative. r is
        # finite unless y is 0 in the season, and then it is 0 / 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            for s, ys, yy, b_m2, b_y, b_sq, err_b, scale in zip(
                    self._seasons, self._y, self._yy, self._b_m2, self._b_y, self._b_sq,
                    self._err_b, self._err_scale):
                a_s = a[:, s]
                a_sq = np.einsum("ij,ij->i", a_s, a_s)[:, None]
                np.matmul(a_s, b_m2.T, out=den)
                np.add(a_sq, b_sq, out=r)
                den += r  # |b - a|^2
                r /= den
                bad |= r >= 1.0 / _GRAM_DEGENERATE
                r *= self._rounding
                bound += r
                np.sqrt(den, out=den)
                np.add(scale * err_a, err_b, out=r)
                r /= den
                bound += r
                np.subtract(b_y, (a_s @ ys)[:, None] / math.sqrt(yy), out=r)
                r /= den
                r *= r
                q += r
        q *= 0.5
        np.copyto(q, np.nan, where=bad)
        np.minimum(q, 1.0, out=q)
        return q, bound


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


def _invalid(violation: str) -> ObjectiveReport:
    return ObjectiveReport(np.nan, np.nan, np.nan, False, violation)


class PairObjective:
    """`evaluate_pair` for one field, one pair of targets and one
    `min_ocean`, prepared once. The season masks, the centred target and its
    season products are built here, and each distinct area's `ocean_series`
    outcome (its float32 series in season order, or its violation) is kept
    in `series`, keyed by `geogrid.area_boxes`, so areas with the same cells
    share one entry (whose violation names the first of them), and each
    pair's report under the pair of keys, so a pair of cells scored before
    costs a lookup. A new pair of areas seen before costs one subtraction,
    `_centre`'s rule on each season's run of months (the same sums as on
    its gathered copy), one scatter back to time order and two small
    matmuls, whose BLAS sums then run in time order: the bits of centring
    and scoring in time order.

    Calls make `evaluate_pair`'s checks in its order: A, then B, then the
    seasons, then the targets' length. The field must not change while the
    object is in use.
    """

    def __init__(self, field: SSTField, y_onset: np.ndarray, y_retreat: np.ndarray,
                 min_ocean: float = MIN_OCEAN):
        self.field = field
        self.min_ocean = min_ocean
        self.series: dict[tuple, tuple[np.ndarray | None, str | None]] = {}
        self._reports: dict[tuple, ObjectiveReport] = {}  # by the pair's `series` keys
        self._order = slice(None)
        # too few months in a season is reported, targets off the time axis
        # raised, but only once both areas have passed
        self._error: Exception | None = None
        try:
            masks = season_masks(field.spec.months())
            if not (len(y_onset) == len(y_retreat) == len(masks[0])):
                raise ValueError("series must share one time axis")
        except (InsufficientSeasonSamplesError, ValueError) as exc:
            self._error = exc
            return
        # y_onset in onset months and y_retreat in retreat months, centred
        self._target = target = _centre(np.where(masks[0], y_onset, y_retreat), masks)
        self._order, self._seasons = _season_order(masks)
        self._target_finite = bool(np.isfinite(target).all())
        # the (nt, 2) season matrix, the target times it, its norm per season
        self._season_matrix = np.stack(masks, axis=1).astype(float)
        self._target_seasons = target[:, None] * self._season_matrix
        self._target_sq = ((target * target) @ self._season_matrix).tolist()
        self._diff, (self._row, self._sq) = np.empty(len(target)), np.empty((2, 1, len(target)))
        self._step = np.empty(len(target) - 1, dtype=bool)

    def __call__(self, area_a: AreaSet, area_b: AreaSet) -> ObjectiveReport:
        spec = self.field.spec
        keys = geogrid.area_boxes(area_a, spec), geogrid.area_boxes(area_b, spec)
        report = self._reports.get(keys)
        if report is None:
            report = self._reports[keys] = self._score(area_a, area_b, keys)
        return report

    def _score(self, area_a: AreaSet, area_b: AreaSet, keys: tuple) -> ObjectiveReport:
        series = []
        for label, area, key in zip("AB", (area_a, area_b), keys):
            found = self.series.get(key)
            if found is None:  # the area's first call: reduce it
                s, violation = ocean_series(self.field, area, self.min_ocean)
                found = self.series[key] = (None if s is None else s[self._order], violation)
            if found[0] is None:
                return _invalid(f"{label}: {found[1]}")
            series.append(found[0])
        if isinstance(self._error, InsufficientSeasonSamplesError):
            return _invalid(str(self._error))
        if self._error is not None:
            raise self._error
        diff = np.subtract(series[1], series[0], out=self._diff, dtype=float)
        step = np.not_equal(diff[1:], diff[:-1], out=self._step)  # in season order
        for season in self._seasons:
            part = diff[season]
            # `_centre`'s rule: a finite run of equal values centres to exact zeros
            if math.isfinite(part[0]) and not np.count_nonzero(step[season.start:season.stop - 1]):
                part.fill(0.0)
            elif math.isfinite(mean := np.add.reduce(part) / len(part)):
                part -= mean
            else:  # a NaN or infinite month, which makes r NaN
                return _invalid("index or target has non-finite values")
        row = self._row
        row[0, self._order] = diff
        np.multiply(row, row, out=self._sq)
        r = []
        for nu, de, tsq in zip((row @ self._target_seasons)[0].tolist(),
                               (self._sq @ self._season_matrix)[0].tolist(), self._target_sq):
            root = math.sqrt(de * tsq)
            r_s = nu / root if root else math.nan
            r.append(min(max(r_s, -1.0), 1.0) if math.isfinite(r_s) else math.nan)
        q = 0.5 * (r[0] * r[0] + r[1] * r[1])
        if math.isnan(q):
            return _invalid("index or target constant within a season" if self._target_finite
                            else "index or target has non-finite values")
        return ObjectiveReport(*r, q, True)


def evaluate_pair(
    field: SSTField,
    area_a: AreaSet,
    area_b: AreaSet,
    y_onset: np.ndarray,
    y_retreat: np.ndarray,
    min_ocean: float = MIN_OCEAN,
) -> ObjectiveReport:
    """Score an (A, B) pair; constraint violations and degenerate series are
    reported as invalid, never raised, so an optimizer can penalize them.
    A caller that scores many pairs on one field keeps one `PairObjective`."""
    return PairObjective(field, y_onset, y_retreat, min_ocean)(area_a, area_b)


def write_objective_csv(report: ObjectiveReport, path: str | os.PathLike) -> None:
    """Emit `r_onset,r_retreat,q,valid,violation`."""
    geogrid.write_csv_rows(path, ["r_onset", "r_retreat", "q", "valid", "violation"], [(
        _fmt(report.r_onset), _fmt(report.r_retreat), _fmt(report.q),
        str(report.valid).lower(), report.violation or "",
    )])


def write_index_csv(z: np.ndarray, t0: str, path: str | os.PathLike) -> None:
    """Emit `year,month,z` for a monthly index series starting at t0."""
    geogrid.write_csv_rows(path, INDEX_HEADER, geogrid.monthly_rows(t0, z))


def read_index_csv(path: str | os.PathLike, t0: str, nt: int) -> np.ndarray:
    """A `year,month,z` CSV's z on the axis (t0, nt); rows off the axis are
    ignored, and every month of the axis needs a finite z. A bad row, or a
    second row for a month, is a ConfigError naming its line."""
    cols = geogrid.MonthColumns("")

    def row(year, month, z):
        cols.claim(0, cols.month(year, month), "")
        cols.values.append(float(z))

    geogrid.read_csv_rows(path, INDEX_HEADER, row, error=ConfigError)
    first, (series,) = cols.grid(1)
    # the slot of the file's first month on the axis, and the file's part on it
    _, _, (lo,) = geogrid.month_slots(*zip(geogrid.parse_ym(first)), t0)
    part = series[max(0, -lo):max(0, nt - lo)]
    out = np.full(nt, np.nan)
    out[max(0, lo):max(0, lo) + len(part)] = part
    gaps = np.flatnonzero(~np.isfinite(out))
    if gaps.size:
        y, m = geogrid.year_axis(t0, nt)[gaps[0]], geogrid.month_axis(t0, nt)[gaps[0]]
        raise ConfigError(f"index CSV has no finite z for {y}-{m:02d}")
    return out


def _fmt(v: float) -> str:
    return "" if np.isnan(v) else repr(float(v))
