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
from functools import cached_property

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
        if self.dlat <= 0 or self.dlon <= 0:
            raise ValueError("dlat and dlon must be positive")
        if self.nlat < 1 or self.nlon < 1 or self.nt < 1:
            raise ValueError("nlat, nlon, nt must be >= 1")
        parse_ym(self.t0)

    @property
    def lats(self) -> np.ndarray:
        return self.lat0 + self.dlat * np.arange(self.nlat)

    @property
    def lons(self) -> np.ndarray:
        return self.lon0 + self.dlon * np.arange(self.nlon)

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
    """Closed lat/lon rectangle with strictly positive extent."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError(f"rect must have positive extent: {self}")

    def as_list(self) -> list[float]:
        return [self.lat_min, self.lat_max, self.lon_min, self.lon_max]

    def shifted(self, dlat: float, dlon: float) -> "Rect":
        """This rect moved by dlat degrees north and dlon degrees east."""
        return Rect(self.lat_min + dlat, self.lat_max + dlat,
                    self.lon_min + dlon, self.lon_max + dlon)

    def contains(self, other: "Rect") -> bool:
        return (
            self.lat_min <= other.lat_min
            and other.lat_max <= self.lat_max
            and self.lon_min <= other.lon_min
            and other.lon_max <= self.lon_max
        )


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
        """Every rect moved by the same (dlat, dlon)."""
        return AreaSet(tuple(r.shifted(dlat, dlon) for r in self.rects))

    @cached_property
    def key(self) -> tuple[int, ...]:
        """Hashable key of the geometry, built once per object: every rect bound
        rounded to 1e-6 degrees, so bounds that drift by float steps share one key."""
        return tuple(round(v * 1e6) for r in self.rects for v in r.as_list())


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


def area_indices(area: AreaSet, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the cells whose centres fall inside any of
    the area's closed rects; overlaps counted once, row-major order."""
    flat = []
    for rect in area.rects:
        i0, i1, j0, j1 = _rect_index_bounds(rect, spec)
        flat.append((np.arange(i0, i1 + 1)[:, None] * spec.nlon + np.arange(j0, j1 + 1)).ravel())
    # one rect's indices are already sorted and distinct
    return np.divmod(flat[0] if len(flat) == 1 else np.unique(np.concatenate(flat)), spec.nlon)


def _rect_index_bounds(rect: Rect, spec: GridSpec) -> tuple[int, int, int, int]:
    i0 = max(0, math.ceil((rect.lat_min - spec.lat0) / spec.dlat - _EPS))
    i1 = min(spec.nlat - 1, math.floor((rect.lat_max - spec.lat0) / spec.dlat + _EPS))
    j0 = max(0, math.ceil((rect.lon_min - spec.lon0) / spec.dlon - _EPS))
    j1 = min(spec.nlon - 1, math.floor((rect.lon_max - spec.lon0) / spec.dlon + _EPS))
    return i0, i1, j0, j1


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
    i0, i1, j0, j1 = _rect_index_bounds(area.rects[0], spec)
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
    completes, so readers never see a partial file; if it raises, the temporary goes."""
    tmp = str(path) + ".tmp"
    with open(tmp, mode, **open_kwargs) as fh:
        try:
            yield fh
        except BaseException:
            os.remove(tmp)
            raise
    os.replace(tmp, path)
