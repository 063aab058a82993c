import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemonsoon.errors import EmptyAreaError, FormatError, NoOceanCellsError
from nemonsoon.geogrid import (
    AreaSet,
    GridSpec,
    MonthColumns,
    Rect,
    area_cells,
    area_indices,
    area_mean_series,
    load_sst,
    month_axis,
    month_slots,
    monthly_rows,
    ocean_fraction,
    save_sst,
    write_csv_rows,
)

from conftest import make_field


SPEC = GridSpec(0.0, 100.0, 0.5, 0.5, 4, 4, "2000-01", 3)


class TestRectCells:
    def test_whole_grid(self):
        rect = SPEC.domain()
        assert len(area_cells(AreaSet.of(rect), SPEC)) == 16

    def test_between_centers_is_empty(self):
        # centers at lat 0 and 0.5; rect strictly between them
        rect = Rect(0.1, 0.4, 100.1, 100.4)
        assert area_cells(AreaSet.of(rect), SPEC) == set()

    def test_2x3_block(self):
        # centers: lat 0.5, 1.0; lon 100.0, 100.5, 101.0
        rect = Rect(0.5, 1.0, 100.0, 101.0)
        cells = area_cells(AreaSet.of(rect), SPEC)
        assert cells == {(i, j) for i in (1, 2) for j in (0, 1, 2)}

    def test_closed_bounds_include_edge_centers(self):
        rect = Rect(0.0, 0.5, 100.0, 100.5)
        assert (0, 0) in area_cells(AreaSet.of(rect), SPEC)
        assert (1, 1) in area_cells(AreaSet.of(rect), SPEC)

    def test_union_semantics(self):
        r1 = Rect(0.0, 0.5, 100.0, 100.5)
        r2 = Rect(1.0, 1.5, 101.0, 101.5)
        union = area_cells(AreaSet.of(r1, r2), SPEC)
        assert union == area_cells(AreaSet.of(r1), SPEC) | area_cells(AreaSet.of(r2), SPEC)

    @given(st.lists(st.tuples(*[st.integers(-3, 10)] * 4), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_cell_centre_scan(self, corners):
        # reference: test every cell centre against every closed rect
        spec = GridSpec(0.0, 100.0, 0.5, 0.5, 6, 5, "2000-01", 1)
        rects = [Rect(min(a, b) / 4, max(a, b) / 4 + 0.3, 100 + min(c, d) / 4,
                      100 + max(c, d) / 4 + 0.3) for a, b, c, d in corners]
        want = {
            (i, j) for i in range(spec.nlat) for j in range(spec.nlon)
            for r in rects
            if r.lat_min <= spec.lats[i] <= r.lat_max and r.lon_min <= spec.lons[j] <= r.lon_max
        }
        ii, jj = area_indices(AreaSet(tuple(rects)), spec)
        assert list(zip(ii.tolist(), jj.tolist())) == sorted(want)


class TestOceanFraction:
    def test_all_ocean(self):
        mask = np.ones((4, 4), dtype=bool)
        assert ocean_fraction(AreaSet.of(SPEC.domain()), mask, SPEC) == 1.0

    def test_three_of_four(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        rect = Rect(0.0, 0.5, 100.0, 100.5)  # cells (0,0),(0,1),(1,0),(1,1)
        assert ocean_fraction(AreaSet.of(rect), mask, SPEC) == 0.75

    def test_duplicate_rects_not_double_counted(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True  # half of the 2-cell strip is ocean
        strip = Rect(0.0, 0.25, 100.0, 100.5)  # cells (0,0),(0,1)
        area = AreaSet.of(strip, strip)
        assert ocean_fraction(area, mask, SPEC) == 0.5

    def test_empty_area_raises(self):
        mask = np.ones((4, 4), dtype=bool)
        rect = Rect(0.1, 0.4, 100.1, 100.4)
        with pytest.raises(EmptyAreaError):
            ocean_fraction(AreaSet.of(rect), mask, SPEC)

    def test_monotone_under_ocean_rect(self):
        mask = np.ones((4, 4), dtype=bool)
        mask[2:, :] = False
        base = AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5))
        more_ocean = AreaSet.of(base.rects[0], Rect(0.0, 0.25, 101.0, 101.5))
        more_land = AreaSet.of(base.rects[0], Rect(1.0, 1.5, 100.0, 101.5))
        f0 = ocean_fraction(base, mask, SPEC)
        assert ocean_fraction(more_ocean, mask, SPEC) >= f0
        assert ocean_fraction(more_land, mask, SPEC) <= f0


class TestAreaMean:
    def test_uniform_field(self, small_field):
        area = AreaSet.of(small_field.spec.domain())
        assert area_mean_series(small_field, area)[1] == pytest.approx(21.0)

    def test_two_cells_hand_mean(self):
        vals = np.full((1, 4, 4), np.nan, dtype=np.float32)
        vals[0, 0, 0] = 20.0
        vals[0, 0, 1] = 22.0
        field = make_field(vals)
        area = AreaSet.of(Rect(0.0, 0.25, 100.0, 100.5))
        assert area_mean_series(field, area)[0] == pytest.approx(21.0)

    def test_land_excluded_from_mean(self):
        vals = np.full((1, 4, 4), 10.0, dtype=np.float32)
        vals[0, 0, 0] = np.nan
        vals[0, 0, 1] = 30.0
        field = make_field(vals)
        area = AreaSet.of(Rect(0.0, 0.25, 100.0, 100.5))
        assert area_mean_series(field, area)[0] == pytest.approx(30.0)

    def test_all_land_raises(self):
        vals = np.full((1, 4, 4), 10.0, dtype=np.float32)
        vals[0, :2, :2] = np.nan
        field = make_field(vals)
        area = AreaSet.of(Rect(0.0, 0.5, 100.0, 100.5))
        with pytest.raises(NoOceanCellsError):
            area_mean_series(field, area)[0]

    def test_rect_order_invariant(self, small_field):
        r1 = Rect(0.0, 0.5, 100.0, 100.5)
        r2 = Rect(1.0, 1.5, 101.0, 101.5)
        m12 = area_mean_series(small_field, AreaSet.of(r1, r2))[0]
        m21 = area_mean_series(small_field, AreaSet.of(r2, r1))[0]
        assert m12 == m21

    @given(st.integers(0, 2))
    @settings(max_examples=10, deadline=None)
    def test_mean_within_field_range(self, t):
        rng = np.random.default_rng(t)
        vals = rng.uniform(0, 30, size=(3, 4, 4)).astype(np.float32)
        field = make_field(vals)
        area = AreaSet.of(Rect(0.0, 1.0, 100.0, 101.0))
        m = area_mean_series(field, area)[t]
        assert vals[t].min() <= m <= vals[t].max()


def cell_path_mean(field, area):
    """The index-array reduction the one-rect slice path replaces."""
    ii, jj = area_indices(area, field.spec)
    if ii.size == 0:
        raise EmptyAreaError(f"area covers no grid cells: {area}")
    sub = field.values[:, ii, jj]
    ocean = ~np.isnan(sub[0])
    if not ocean.any():
        raise NoOceanCellsError(f"area has no ocean cells: {area}")
    return sub[:, ocean].mean(axis=1)


def cell_path_fraction(area, mask, spec):
    ii, jj = area_indices(area, spec)
    if ii.size == 0:
        raise EmptyAreaError(f"area covers no grid cells: {area}")
    return float(mask[ii, jj].sum()) / ii.size


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error type is part of the outcome
        return type(exc)


class TestSlicePath:
    # 7 x 9 cells, centres at lat 0..3, lon 100..104; quarter-degree corners
    # land on centres, between centres and beyond every edge
    @given(st.integers(0, 10_000), st.floats(0.0, 0.9),
           st.tuples(*[st.integers(-4, 16)] * 4), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_bit_equals_cell_path(self, seed, land, corner, height, width):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-2, 32, size=(12, 7, 9)).astype(np.float32)
        vals[:, rng.random((7, 9)) < land] = np.nan
        vals[5, rng.integers(7), rng.integers(9)] = np.nan  # NaN at month 5 only
        field = make_field(vals)
        i, j = corner[0] / 4 - 0.5, 100 + corner[2] / 4 - 0.5
        area = AreaSet.of(Rect(i, i + height / 4, j, j + width / 4))
        want, got = _outcome(cell_path_mean, field, area), _outcome(area_mean_series, field, area)
        if isinstance(want, type):
            assert got is want
        else:
            assert got.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(got, want)  # NaN equals NaN
        mask = field.ocean_mask()
        want = _outcome(cell_path_fraction, area, mask, field.spec)
        got = _outcome(ocean_fraction, area, mask, field.spec)
        assert got == want and type(got) is type(want)

    def test_rect_below_grid_is_empty(self):
        # its upper row bound is negative; a slice must not wrap round
        field = make_field(np.ones((3, 4, 4)))
        area = AreaSet.of(Rect(-3.0, -1.0, 100.0, 101.0))
        with pytest.raises(EmptyAreaError):
            area_mean_series(field, area)
        with pytest.raises(EmptyAreaError):
            ocean_fraction(area, field.ocean_mask(), field.spec)


class TestGridIO:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        vals = rng.uniform(-4, 40, size=(3, 4, 4)).astype(np.float32)
        vals[:, 1, 2] = np.nan
        field = make_field(vals)
        save_sst(field, tmp_path / "sst")
        loaded = load_sst(tmp_path / "sst")
        assert loaded.spec == field.spec
        np.testing.assert_array_equal(loaded.values, field.values)

    def test_truncated_payload(self, tmp_path, rng):
        vals = rng.uniform(0, 30, size=(3, 4, 4)).astype(np.float32)
        save_sst(make_field(vals), tmp_path / "sst")
        data = (tmp_path / "sst" / "sst.f32").read_bytes()
        (tmp_path / "sst" / "sst.f32").write_bytes(data[:-8])
        with pytest.raises(FormatError):
            load_sst(tmp_path / "sst")

    def test_header_payload_mismatch(self, tmp_path, rng):
        vals = rng.uniform(0, 30, size=(3, 4, 4)).astype(np.float32)
        save_sst(make_field(vals), tmp_path / "sst")
        header = (tmp_path / "sst" / "grid.json").read_text().replace('"nt": 3', '"nt": 5')
        (tmp_path / "sst" / "grid.json").write_text(header)
        with pytest.raises(FormatError):
            load_sst(tmp_path / "sst")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 60.0], ids=["nan", "inf", "hot"])
    def test_invalid_field_rejected_on_load(self, tmp_path, rng, bad):
        # one bad value at month 5 in an ocean cell: NaN there would make the
        # cell land for one month only, which ocean_mask (month 0) misses
        vals = rng.uniform(0, 30, size=(8, 4, 4)).astype(np.float32)
        vals[5, 2, 1] = bad
        save_sst(make_field(vals), tmp_path / "sst")
        with pytest.raises(FormatError, match="sst.f32"):
            load_sst(tmp_path / "sst")

    def test_wrong_keys(self, tmp_path, rng):
        vals = rng.uniform(0, 30, size=(1, 4, 4)).astype(np.float32)
        save_sst(make_field(vals), tmp_path / "sst")
        (tmp_path / "sst" / "grid.json").write_text('{"bogus": 1}')
        with pytest.raises(FormatError):
            load_sst(tmp_path / "sst")


class TestInvariants:
    def test_rect_needs_positive_extent(self):
        with pytest.raises(ValueError):
            Rect(1.0, 1.0, 100.0, 101.0)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, -0.5, 0.5, 4, 4, "2000-01", 3)
        with pytest.raises(FormatError):
            GridSpec(0, 0, 0.5, 0.5, 4, 4, "2000-13", 3)

    def test_land_layout_constant_check(self):
        vals = np.full((2, 2, 2), 10.0, dtype=np.float32)
        vals[0, 0, 0] = np.nan
        field = make_field(vals)
        with pytest.raises(ValueError):
            field.validate()


def hand_rolled_axis(years, months):
    """The per-reader axis code that month_slots replaced: earliest and
    latest (year, month), the span between them, each row's offset."""
    first = min(zip(years, months))
    last = max(zip(years, months))
    nt = (last[0] - first[0]) * 12 + (last[1] - first[1]) + 1
    slots = [(y - first[0]) * 12 + (m - first[1]) for y, m in zip(years, months)]
    return f"{first[0]:04d}-{first[1]:02d}", nt, slots


class TestMonthSlots:
    @given(st.lists(st.tuples(st.integers(1900, 2100), st.integers(1, 12)), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_hand_rolled_axis(self, rows):
        years, months = [y for y, _ in rows], [m for _, m in rows]
        t0, nt, slots = month_slots(years, months)
        want_t0, want_nt, want_slots = hand_rolled_axis(years, months)
        assert (t0, nt, slots.tolist()) == (want_t0, want_nt, want_slots)
        np.testing.assert_array_equal(month_axis(t0, nt)[slots], months)

    def test_given_start(self):
        t0, nt, slots = month_slots([1999, 2000, 2000], [12, 1, 3], t0="2000-01")
        assert (t0, nt, slots.tolist()) == ("2000-01", 3, [-1, 0, 2])



class TestMonthColumns:
    @pytest.mark.parametrize("year, month, message", [
        ("2000", "0", "month out of range 1..12"),
        ("2000", "13", "month out of range 1..12"),
        ("10000", "1", "year out of range 0..9999"),
        ("-1", "1", "year out of range 0..9999"),
        ("10000", "13", "month out of range 1..12"),
    ])
    def test_out_of_range(self, year, month, message):
        cols = MonthColumns("index {}: ")
        assert cols.month("2000", "01") == 0
        with pytest.raises(ValueError, match=f"^{message}$"):
            cols.month(year, month)
        assert cols.month("9999", "12") == 1  # the last month a YYYY-MM stamp holds

    def test_second_row_names_the_series(self):
        for label, want in (("station {}: ", "station S1: "), ("", "")):
            cols = MonthColumns(label)
            cols.claim(0, cols.month("2000", "1"), "S1")
            with pytest.raises(ValueError, match=f"^{want}second row for 2000-01$"):
                cols.claim(0, cols.month("2000", "01"), "S1")


class TestWriteCSVRows:
    def test_header_rows_and_no_temporary(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv_rows(path, ["a", "b"], ((k, repr(k / 3)) for k in range(3)))
        assert path.read_bytes() == (b"a,b\r\n0,0.0\r\n1,0.3333333333333333\r\n"
                                     b"2,0.6666666666666666\r\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def rows():
            yield (1, 2)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_csv_rows(path, ["a", "b"], rows())
        assert path.read_text() == "old\n"

    @pytest.mark.parametrize("old", [None, "old\n"])
    def test_failed_write_removes_its_temporary(self, tmp_path, old):
        path = tmp_path / "out.csv"
        if old is not None:
            path.write_text(old)

        def rows():
            yield (1, 2)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            write_csv_rows(path, ["a", "b"], rows())
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out.csv"])
        assert old is None or path.read_text() == old

    def test_monthly_rows(self):
        rows = list(monthly_rows("1999-11", np.array([0.5, np.nan, 2.0], dtype=np.float32)))
        assert rows == [(1999, 11, 0.5), (1999, 12, pytest.approx(np.nan, nan_ok=True)),
                        (2000, 1, 2.0)]
        assert all(type(v) is t for row in rows for v, t in zip(row, (int, int, float)))
