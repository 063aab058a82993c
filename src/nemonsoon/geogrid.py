"""Gridded SST data model (grid geometry, rectangles, area reductions, the grid.json + sst.f32
format) and the helpers every file format shares: monthly axis, CSV row reader and writer,
monthly CSV columns and rows, atomic write."""

from __future__ import annotations

import csv
import json
import math
import os
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import EmptyAreaError, FormatError, NoOceanCellsError

_EPS = 1e-9
_YM_RE = re.compile(r"^(\d{4})-(\d{2})$")

GRID_JSON_KEYS = {"lat0", "lon0", "dlat", "dlon", "nlat", "nlon", "t0", "nt"}


def parse_ym(t0: str) -> tuple[int, int]:
    """Parse 'YYYY-MM' into (year, month). Raises FormatError on bad input."""
    m = _YM_RE.match(t0)
    if m is None:
        raise FormatError(f"bad month stamp {t0!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise FormatError(f"bad month stamp {t0!r}: month out of range")
    return year, month


def month_axis(t0: str, nt: int) -> np.ndarray:
    """Calendar month (1..12) for each time index."""
    _, m0 = parse_ym(t0)
    return (m0 - 1 + np.arange(nt)) % 12 + 1


def year_axis(t0: str, nt: int) -> np.ndarray:
    """Calendar year for each time index."""
    y0, m0 = parse_ym(t0)
    return y0 + (m0 - 1 + np.arange(nt)) // 12


def month_slots(years, months, t0: str | None = None) -> tuple[str, int, np.ndarray]:
    """Place (year, month) rows, each in range (see `MonthColumns.month`),
    on one monthly axis. Returns the axis start 'YYYY-MM' (t0 when given,
    else the earliest row), the axis length that reaches the latest row,
    and each row's slot (negative before t0)."""
    months = np.asarray(months, dtype=np.int64)
    years = np.asarray(years, dtype=np.int64)
    count = years * 12 + (months - 1)
    if t0 is None:
        first = int(count.min())
        t0 = f"{first // 12:04d}-{first % 12 + 1:02d}"
    y0, m0 = parse_ym(t0)
    slots = count - (y0 * 12 + (m0 - 1))
    return t0, int(slots.max(initial=-1)) + 1, slots


class MonthColumns:
    """Monthly CSV rows of numbered series, kept as compact typed columns
    while a file is read row by row. Each distinct (year, month) text is
    parsed and range-checked once; `grid` places the rows on one monthly
    axis."""

    def __init__(self, label: str):
        self._label = label  # names a series in messages: "station {}: ", or ""
        self._text: dict[tuple[str, str], int] = {}
        self._months: dict[tuple[int, int], int] = {}  # parsed -> code
        self._seen: set[tuple[int, int]] = set()
        self._codes, self._yms, self.values = array("q"), array("q"), array("d")

    def month(self, year: str, month: str) -> int:
        """The code of the parsed (year, month) this text stands for."""
        ym = self._text.get((year, month))
        if ym is None:
            parsed = int(year), int(month)
            if not 1 <= parsed[1] <= 12:
                raise ValueError("month out of range 1..12")
            if not 0 <= parsed[0] <= 9999:  # a YYYY-MM stamp's range
                raise ValueError("year out of range 0..9999")
            ym = self._text[year, month] = self._months.setdefault(parsed, len(self._months))
        return ym

    def claim(self, code: int, ym: int, name: str) -> None:
        """Append a row of series `code` (called `name`) for month code
        `ym`; the caller appends its value. A second row for that series
        and month is a ValueError."""
        if (code, ym) in self._seen:
            year, month = list(self._months)[ym]
            raise ValueError(f"{self._label.format(name)}second row for {year}-{month:02d}")
        self._seen.add((code, ym))
        self._codes.append(code)
        self._yms.append(ym)

    def grid(self, count: int) -> tuple[str, np.ndarray]:
        """The axis start and a (count, nt) grid of the values, NaN where a
        series has no row, on the axis `month_slots` spans."""
        t0, nt, slots = month_slots(*zip(*self._months))
        out = np.full((count, nt), np.nan)
        out[np.asarray(self._codes), slots[np.asarray(self._yms)]] = np.asarray(self.values)
        return t0, out


@dataclass(frozen=True)
class GridSpec:
    """Regular lat/lon grid with a monthly time axis.

    (lat0, lon0) is the center of the first cell; cell (i, j) has center
    (lat0 + i*dlat, lon0 + j*dlon).
    """

    lat0: float
    lon0: float
    dlat: float
    dlon: float
    nlat: int
    nlon: int
    t0: str
    nt: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lat0, self.lon0, self.dlat, self.dlon))):
            raise ValueError("lat0, lon0, dlat and dlon must be finite")
        if self.dlat <= 0 or self.dlon <= 0:
            raise ValueError("dlat and dlon must be positive")
        if self.nlat < 1 or self.nlon < 1 or self.nt < 1:
            raise ValueError("nlat, nlon, nt must be >= 1")
        year, month = parse_ym(self.t0)
        if year * 12 + month + self.nt - 2 > 9999 * 12 + 11:  # no later YYYY-MM stamp
            raise ValueError(f"a {self.nt}-month axis from {self.t0} ends after 9999-12")

    @property
    def lats(self) -> np.ndarray:
        return self.lat0 + self.dlat * np.arange(self.nlat)

    def months(self) -> np.ndarray:
        return month_axis(self.t0, self.nt)

    def domain(self) -> "Rect":
        """The whole grid as a rect: cell centres +/- half a cell."""
        return Rect(
            self.lat0 - self.dlat / 2, self.lat0 + (self.nlat - 0.5) * self.dlat,
            self.lon0 - self.dlon / 2, self.lon0 + (self.nlon - 0.5) * self.dlon,
        )


@dataclass(frozen=True)
class Rect:
    """Closed lat/lon rectangle with finite bounds and strictly positive extent."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_list())):
            raise ValueError(f"rect bounds must be finite: {self}")
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError(f"rect must have positive extent: {self}")

    def as_list(self) -> list[float]:
        return [self.lat_min, self.lat_max, self.lon_min, self.lon_max]


@dataclass(frozen=True)
class AreaSet:
    """Ordered, nonempty collection of rectangles treated as one area."""

    rects: tuple[Rect, ...]

    def __post_init__(self):
        if len(self.rects) == 0:
            raise ValueError("AreaSet needs at least one rect")

    @classmethod
    def of(cls, *rects: Rect) -> "AreaSet":
        return cls(tuple(rects))

    def as_lists(self) -> list[list[float]]:
        return [r.as_list() for r in self.rects]

    def shifted(self, dlat: float, dlon: float) -> "AreaSet":
        """Every rect moved dlat degrees north and dlon east; the search uses `placed`."""
        return AreaSet(tuple(Rect(r.lat_min + dlat, r.lat_max + dlat, r.lon_min + dlon,
                                  r.lon_max + dlon) for r in self.rects))


def placed(template: AreaSet, counts: tuple, spec: GridSpec) -> AreaSet | None:
    """The template with each rect's (lat_min, lat_max, lon_min, lon_max) moved by its
    counts of half cells, each bound rounded once from template bound + count * cell / 2:
    the one placement rule. Whole-cell shift (i, j) is counts (2i, 2i, 2j, 2j), bit for bit
    `AreaSet.shifted` by (i dlat, j dlon). None if a resize (unequal counts on an axis)
    leaves a rect no more than 1e-9 degrees across."""
    half_lat, half_lon = spec.dlat / 2, spec.dlon / 2
    rects = []  # a loop: this runs on every environment step
    for r, (a, b, c, d) in zip(template.rects, counts):
        lat_min, lat_max = r.lat_min + a * half_lat, r.lat_max + b * half_lat
        lon_min, lon_max = r.lon_min + c * half_lon, r.lon_max + d * half_lon
        if a != b and lat_min >= lat_max - _EPS or c != d and lon_min >= lon_max - _EPS:
            return None
        rects.append(Rect(lat_min, lat_max, lon_min, lon_max))
    return AreaSet(tuple(rects))


def inside(domain: Rect, *areas: AreaSet) -> bool:
    """Whether every rect of the areas lies in the closed domain, each bound to within
    1e-9 degrees: the rule for where the search may place an area. A bound that `placed`
    rounds past an edge (0.05 + 0.1 * k on 0.1 degree cells) still lies on it."""
    return all(domain.lat_min - _EPS <= r.lat_min and r.lat_max <= domain.lat_max + _EPS
               and domain.lon_min - _EPS <= r.lon_min and r.lon_max <= domain.lon_max + _EPS
               for area in areas for r in area.rects)


@dataclass
class SSTField:
    """Monthly SST values on a GridSpec; land cells are NaN at every t."""

    spec: GridSpec
    values: np.ndarray  # (nt, nlat, nlon), float32

    def __post_init__(self):
        expected = (self.spec.nt, self.spec.nlat, self.spec.nlon)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    def ocean_mask(self) -> np.ndarray:
        """Boolean (nlat, nlon) ocean mask derived from the NaN sentinels."""
        return ~np.isnan(self.values[0])

    def validate(self) -> None:
        """Check the field invariants: constant land layout, sane values
        (an infinite value is out of range)."""
        nan = np.isnan(self.values)
        if not (nan == nan[0]).all():
            raise ValueError("land/ocean layout varies across time")
        if not nan.all() and (np.nanmin(self.values) < -5.0 or np.nanmax(self.values) > 45.0):
            raise ValueError("non-land SST outside [-5, 45] degC")


def area_boxes(area: AreaSet, spec: GridSpec) -> tuple[tuple[int, int, int, int], ...]:
    """Per rect, in rect order, the box of grid cells whose centres it holds, as
    inclusive bounds (i0, i1, j0, j1) cut to the grid (empty if i1 < i0 or j1 < j0):
    the one rect-to-cell rule, and so the key of every per-area cache."""
    boxes = []  # a loop: this runs on every environment step, and beats a generator
    for rect in area.rects:
        i0, i1, j0, j1 = _rect_cell_span(rect, spec)
        boxes.append((max(0, i0), min(spec.nlat - 1, i1), max(0, j0), min(spec.nlon - 1, j1)))
    return tuple(boxes)


def area_indices(area: AreaSet, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the cells whose centres fall inside any of
    the area's closed rects; overlaps counted once, row-major order."""
    flat = [(np.arange(i0, i1 + 1)[:, None] * spec.nlon + np.arange(j0, j1 + 1)).ravel()
            for i0, i1, j0, j1 in area_boxes(area, spec)]
    # one rect's indices are already sorted and distinct
    return np.divmod(flat[0] if len(flat) == 1 else np.unique(np.concatenate(flat)), spec.nlon)


def _rect_cell_span(rect: Rect, spec: GridSpec) -> tuple[int, int, int, int]:
    """A rect's `area_boxes` box on the grid's lattice extended without end."""
    return (math.ceil((rect.lat_min - spec.lat0) / spec.dlat - _EPS),
            math.floor((rect.lat_max - spec.lat0) / spec.dlat + _EPS),
            math.ceil((rect.lon_min - spec.lon0) / spec.dlon - _EPS),
            math.floor((rect.lon_max - spec.lon0) / spec.dlon + _EPS))


def area_cells(area: AreaSet, spec: GridSpec) -> set[tuple[int, int]]:
    """Union of the cells of every rect (overlaps counted once)."""
    ii, jj = area_indices(area, spec)
    return set(zip(ii.tolist(), jj.tolist()))


def _area_selector(area: AreaSet, spec: GridSpec):
    """Index over the (lat, lon) axes that picks the area's cells in
    row-major order: two slices for one rect, so no index arrays are built,
    else `area_indices`."""
    if len(area.rects) > 1:
        return area_indices(area, spec)
    (i0, i1, j0, j1), = area_boxes(area, spec)
    # an upper bound below zero would wrap round; clamp it to an empty slice
    return slice(i0, max(i0, i1 + 1)), slice(j0, max(j0, j1 + 1))


def ocean_fraction(area: AreaSet, mask: np.ndarray, spec: GridSpec) -> float:
    """Share of the area's (deduplicated) cells that are ocean."""
    cells = mask[_area_selector(area, spec)]
    if cells.size == 0:
        raise EmptyAreaError(f"area covers no grid cells: {area}")
    return float(cells.sum()) / cells.size


def area_mean_series(field: SSTField, area: AreaSet) -> np.ndarray:
    """Mean SST over the area's ocean cells, for every month (length nt)."""
    # (nt, cells); the ocean gather below leaves the cells on the outer axis
    # of memory, so the mean adds them in order whichever path made `sub`
    sub = field.values[(slice(None), *_area_selector(area, field.spec))].reshape(field.spec.nt, -1)
    if sub.shape[1] == 0:
        raise EmptyAreaError(f"area covers no grid cells: {area}")
    ocean = ~np.isnan(sub[0])
    if not ocean.any():
        raise NoOceanCellsError(f"area has no ocean cells: {area}")
    return sub[:, ocean].mean(axis=1)


def save_sst(field: SSTField, path: str | os.PathLike) -> None:
    """Write the grid directory format: grid.json + sst.f32 (LE float32,
    time-major). Files are written atomically."""
    os.makedirs(path, exist_ok=True)
    spec = field.spec
    header = {
        "lat0": spec.lat0, "lon0": spec.lon0,
        "dlat": spec.dlat, "dlon": spec.dlon,
        "nlat": spec.nlat, "nlon": spec.nlon,
        "t0": spec.t0, "nt": spec.nt,
    }
    with atomic_write(os.path.join(path, "grid.json"), "wb") as fh:
        fh.write((json.dumps(header, indent=2) + "\n").encode())
    with atomic_write(os.path.join(path, "sst.f32"), "wb") as fh:
        fh.write(np.ascontiguousarray(field.values, dtype="<f4").tobytes())


def load_sst(path: str | os.PathLike) -> SSTField:
    """Read the grid directory format back into an SSTField."""
    header_path = os.path.join(path, "grid.json")
    data_path = os.path.join(path, "sst.f32")
    try:
        with open(header_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {header_path}: {exc}") from exc
    try:
        header = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FormatError(f"grid.json is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or set(header) != GRID_JSON_KEYS:
        raise FormatError(
            f"grid.json keys must be exactly {sorted(GRID_JSON_KEYS)}, "
            f"got {sorted(header) if isinstance(header, dict) else type(header)}"
        )
    try:
        spec = GridSpec(
            lat0=float(header["lat0"]), lon0=float(header["lon0"]),
            dlat=float(header["dlat"]), dlon=float(header["dlon"]),
            nlat=int(header["nlat"]), nlon=int(header["nlon"]),
            t0=str(header["t0"]), nt=int(header["nt"]),
        )
    except (TypeError, ValueError, FormatError) as exc:
        raise FormatError(f"bad grid.json field: {exc}") from exc
    expected_bytes = 4 * spec.nt * spec.nlat * spec.nlon
    try:
        with open(data_path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {data_path}: {exc}") from exc
    if len(payload) != expected_bytes:
        raise FormatError(
            f"sst.f32 has {len(payload)} bytes, header implies {expected_bytes}"
            f" (mismatch at byte {min(len(payload), expected_bytes)})"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(spec.nt, spec.nlat, spec.nlon)
    field = SSTField(spec=spec, values=values.copy())
    try:
        field.validate()
    except ValueError as exc:
        raise FormatError(f"{data_path}: {exc}") from exc
    return field


def read_csv_rows(path: str | os.PathLike, header: list[str], convert,
                  error: type[Exception] = FormatError) -> list:
    """Each data row of the CSV at `path` as `convert(*fields)`, blank lines
    skipped. A wrong header, a row with the wrong number of fields or that
    `convert` rejects with ValueError, and a file without rows raise `error`."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                raise error(f"{path}: header must be {','.join(header)}, got {got}")
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise ValueError(f"{len(fields)} fields, expected {len(header)}")
                rows.append(convert(*fields))
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            raise error(f"bad row at line {reader.line_num} of {path}: {exc}") from exc
    if not rows:
        raise error(f"{path} has no data rows")
    return rows


def write_csv_rows(path: str | os.PathLike, header: list[str], rows) -> None:
    """Write `header`, then each of `rows` (an iterable of field sequences, taken one
    at a time), as the CSV at `path`, atomically: the twin of `read_csv_rows`."""
    with atomic_write(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def monthly_rows(t0: str, series):
    """(year, month, value) for each month of `series`, which starts at
    t0, as Python ints and floats: the monthly part of a CSV row."""
    nt = len(series)
    return zip(year_axis(t0, nt).tolist(), month_axis(t0, nt).tolist(),
               np.asarray(series, dtype=float).tolist())


@contextmanager
def atomic_write(path: str | os.PathLike, mode: str = "w", **open_kwargs):
    """Open `path + '.tmp'` for writing and rename it over `path` once the block
    completes, so readers never see a partial file; if the block or the rename
    raises, the temporary goes."""
    tmp = str(path) + ".tmp"
    fh = open(tmp, mode, **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
