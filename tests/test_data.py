"""CSV ingestion, splits, standardization, windows, and calendar features."""

import csv
from datetime import datetime, timedelta

import numpy as np
import pytest

from conftest import hourly, write_csv
from rtnet.data import (SplitSpec, TimeSeriesDataset, gather_batch, load_csv,
                        make_windows, split, standardize, time_features)
from rtnet.data import write_csv as write_output_csv
from rtnet.errors import DataError, DimensionError


def per_row_reference(path):
    """Timestamps and values of a CSV parsed one row at a time with the stdlib."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [cells for cells in list(csv.reader(fh))[1:] if cells]
    stamps = [datetime.strptime(cells[0].strip(), "%Y-%m-%d %H:%M:%S") for cells in rows]
    values = [[float(c) for c in cells[1:]] for cells in rows]
    return np.array(stamps, dtype="datetime64[s]"), np.array(values, dtype=np.float64)


def stdlib_time_features(stamps):
    """The calendar features from ``datetime``'s own accessors, one row at a time."""
    return np.array([[ts.hour / 23.0 - 0.5,
                      ts.weekday() / 6.0 - 0.5,
                      (ts.day - 1) / 30.0 - 0.5,
                      (ts.timetuple().tm_yday - 1) / 365.0 - 0.5,
                      (ts.isocalendar()[1] - 1) / 52.0 - 0.5,
                      (ts.month - 1) / 11.0 - 0.5] for ts in stamps])


class TestLoadCsv:
    def test_ett_shaped_file(self, ett_like_csv):
        ds = load_csv(ett_like_csv)
        assert ds.n_variates == 7
        assert ds.variate_names[-1] == "OT"
        assert ds.target_index == 6
        assert len(ds) == 900

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,a\n2016-07-01 00:00:00,1.0\n2016-07-01 01:00:00,oops\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("date,a\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("date,a,b\n2016-07-01 00:00:00,1.0\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(str(path))

    def test_non_monotonic_timestamps(self, tmp_path):
        path = tmp_path / "order.csv"
        path.write_text("date,a\n2016-07-01 01:00:00,1.0\n2016-07-01 00:00:00,2.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(str(path))

    def test_irregular_interval(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("date,a\n2016-07-01 00:00:00,1\n2016-07-01 01:00:00,2\n"
                        "2016-07-01 03:00:00,3\n")
        with pytest.raises(DataError, match="row 4"):
            load_csv(str(path))

    @pytest.mark.parametrize("blank_line", [False, True])
    @pytest.mark.parametrize("row,problem", [
        ("2016-02-30 00:00:00,1,2", "unparseable date"),
        ("2016-7-1 0:00:00,1,2", "unparseable date"),        # not zero-padded
        ("2016-07-01T02:00:00,1,2", "unparseable date"),
        ("2016-07-01 02:00:00,nan,2", "non-finite"),
        ("2016-07-01 02:00:00,1,inf", "non-finite"),
        ("2016-07-01 02:00:00,1", "2 cells"),
        ("2016-07-01 01:00:00,1,2", "not increasing"),
        ("2016-07-01 03:00:00,1,2", "sampling interval"),
    ])
    def test_bad_row_names_its_file_line(self, tmp_path, row, problem, blank_line):
        """The third data row is bad; it sits on line 4, or 5 after a blank line."""
        lines = ["date,a,b", "2016-07-01 00:00:00,1,2", "2016-07-01 01:00:00,1,2",
                 *([""] if blank_line else []), row, "2016-07-01 04:00:00,1,2"]
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"row {5 if blank_line else 4} .*{problem}"):
            load_csv(str(path))

    def test_matches_per_row_parse(self, ett_like_csv):
        ds = load_csv(ett_like_csv)
        stamps, values = per_row_reference(ett_like_csv)
        assert ds.timestamps.dtype == np.dtype("datetime64[s]")
        assert ds.timestamps.tobytes() == stamps.tobytes()
        assert ds.values.tobytes() == values.tobytes()

    def test_cells_with_surrounding_whitespace(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("date, a ,b\n"
                        " 2016-07-01 00:00:00 ,  1.5, -2e-3 \n"
                        "2016-07-01 01:00:00\t,\t7 ,0.1\n"
                        "\n"
                        "  2016-07-01 02:00:00,-0.0 ,  1e300\n")
        ds = load_csv(str(path))
        stamps, values = per_row_reference(str(path))
        assert ds.variate_names == ["a", "b"]
        assert ds.timestamps.tobytes() == stamps.tobytes()
        assert ds.values.tobytes() == values.tobytes()

    def test_first_column_must_be_date(self, tmp_path):
        path = tmp_path / "nodate.csv"
        path.write_text("time,a\n2016-07-01 00:00:00,1\n")
        with pytest.raises(DataError, match="date"):
            load_csv(str(path))

    @pytest.mark.parametrize("header,problem", [("date", "no variate columns"),
                                                ("date,a, a", "duplicate variate names")])
    def test_header_without_distinct_variates(self, tmp_path, header, problem):
        path = tmp_path / "header.csv"
        path.write_text(f"{header}\n2016-07-01 00:00:00,1,2\n")
        with pytest.raises(DataError, match=f"^{path}: {problem}"):
            load_csv(str(path))


class TestWriteCsv:
    """The one encoder of output CSVs: minimal quoting and LF line ends."""

    def test_names_are_quoted_only_when_needed_and_lines_end_in_lf(self, tmp_path):
        path = tmp_path / "out.csv"
        names = ["load, kW", 'say "hi"', "OT"]
        write_output_csv(str(path), [["", *names], ["OT", "1.000000", "nan", 3]])
        assert path.read_bytes() == b',"load, kW","say ""hi""",OT\nOT,1.000000,nan,3\n'
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["", *names], ["OT", "1.000000", "nan", "3"]]

    def test_a_written_dataset_loads_back_under_the_same_names(self, tmp_path):
        path = tmp_path / "in.csv"
        names = ["load, kW", 'say "hi"']
        write_output_csv(str(path), [["date", *names],
                                     *([f"2016-07-01 0{h}:00:00", h, -h] for h in range(3))])
        ds = load_csv(str(path))
        assert ds.variate_names == names
        assert ds.values.tolist() == [[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]]


class TestSplit:
    def test_ratio_row_counts(self, tmp_path):
        values = np.arange(1000, dtype=np.float64)[:, None]
        path = tmp_path / "r.csv"
        write_csv(path, hourly(1000), values, ["a"])
        ds = load_csv(str(path))
        train, val, test = split(ds, SplitSpec(mode="ratio"))
        assert (len(train), len(val), len(test)) == (600, 200, 200)

    def test_ratio_floor_remainder_to_test(self, tmp_path):
        values = np.arange(1003, dtype=np.float64)[:, None]
        path = tmp_path / "r2.csv"
        write_csv(path, hourly(1003), values, ["a"])
        train, val, test = split(load_csv(str(path)), SplitSpec(mode="ratio"))
        assert (len(train), len(val), len(test)) == (601, 200, 202)

    def test_months_mode_contiguous_blocks(self, tmp_path):
        n = 24 * 640  # ~21 months of hourly rows
        values = np.zeros((n, 1))
        path = tmp_path / "m.csv"
        write_csv(path, hourly(n), values, ["a"])
        ds = load_csv(str(path))
        train, val, test = split(ds, SplitSpec(mode="months"))
        assert train.timestamps[0] == ds.timestamps[0]
        assert train.timestamps[-1] < val.timestamps[0] < test.timestamps[0]
        # 12 months from 2016-07-01 -> boundary at 2017-07-01
        assert train.timestamps[-1] == datetime(2017, 6, 30, 23)
        assert val.timestamps[-1] == datetime(2017, 10, 31, 23)
        assert len(train) + len(val) + len(test) <= n
        assert test.timestamps[-1] == datetime(2018, 2, 28, 23)

    def test_months_too_short(self, tmp_path):
        path = tmp_path / "short.csv"
        write_csv(path, hourly(100), np.zeros((100, 1)), ["a"])
        with pytest.raises(DataError, match="month"):
            split(load_csv(str(path)), SplitSpec(mode="months"))


class TestStandardize:
    def test_train_stats_applied_everywhere(self, ett_like_csv):
        ds = load_csv(ett_like_csv)
        train, val, test = split(ds, SplitSpec(mode="ratio"))
        (tr, va, te), scaler = standardize(train, val, test)
        assert np.allclose(tr.values.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(tr.values.std(axis=0), 1.0, atol=1e-9)
        assert np.allclose(va.values, (val.values - scaler.mean) / scaler.std)
        assert np.allclose(te.values, (test.values - scaler.mean) / scaler.std)

    def test_round_trip(self, ett_like_csv):
        ds = load_csv(ett_like_csv)
        train, val, _ = split(ds, SplitSpec(mode="ratio"))
        (tr, _), scaler = standardize(train, val)
        assert np.allclose(scaler.inverse(tr.values), train.values, atol=1e-12)

    def test_constant_variate_needs_guard(self):
        ts = hourly(50)
        ds = TimeSeriesDataset(ts, np.hstack([np.ones((50, 1)),
                                              np.random.default_rng(0).normal(size=(50, 1))]),
                               ["flat", "t"], 1)
        with pytest.raises(DataError, match="flat"):
            standardize(ds)
        (out,), _ = standardize(ds, guard_eps=1e-8)
        assert np.array_equal(out.values[:, 0], np.zeros(50))


class TestWindows:
    def test_count_formula(self):
        assert make_windows(1000, 168, 24).size == 809

    def test_single_window(self):
        assert make_windows(192, 168, 24).size == 1

    def test_too_short(self):
        with pytest.raises(DataError, match="191"):
            make_windows(191, 168, 24)

    @pytest.mark.parametrize("offsets", [[-1], [0, 4], [5]])
    def test_offsets_outside_the_split(self, offsets):
        """A window must lie wholly inside the split: 10 rows hold offsets 0-3
        of a 4 + 3 row window."""
        ds = TimeSeriesDataset(hourly(10), np.zeros((10, 1)), ["OT"], 0)
        gather_batch(ds, np.arange(4), 4, 3)
        with pytest.raises(DimensionError, match="window offsets fall outside the split"):
            gather_batch(ds, np.array(offsets), 4, 3)

    def test_batch_slices_are_adjacent(self, ett_like_csv):
        ds = load_csv(ett_like_csv)
        wb = gather_batch(ds, np.array([5, 17]), l_in=32, l_out=8)
        assert np.array_equal(wb.inputs[0], ds.values[5:37])
        assert np.array_equal(wb.targets[0], ds.values[37:45])
        assert wb.inputs.shape == (2, 32, 7)
        assert wb.targets.shape == (2, 8, 7)

    def test_no_leakage_across_split(self, ett_like_csv):
        ds = load_csv(ett_like_csv)
        train, _, _ = split(ds, SplitSpec(mode="ratio"))
        offsets = make_windows(len(train), 48, 24)
        assert offsets.max() + 48 + 24 <= len(train)

    @pytest.mark.parametrize("with_marks", [False, True])
    @pytest.mark.parametrize("with_input_marks", [False, True])
    def test_matches_per_window_loop(self, with_marks, with_input_marks):
        """One row index gathers what slicing each window on its own gathers."""
        rng = np.random.default_rng(5)
        stamps = hourly(400, start="2016-12-30 20:00:00")  # crosses a year boundary
        ds = TimeSeriesDataset(stamps, rng.normal(size=(400, 3)), ["a", "b", "c"], 2)
        l_in, l_out = 24, 6
        offsets = rng.integers(0, 400 - l_in - l_out + 1, size=13)  # unsorted, may repeat
        wb = gather_batch(ds, offsets, l_in, l_out, with_marks=with_marks,
                          with_input_marks=with_input_marks)
        assert np.array_equal(wb.inputs, np.stack([ds.values[o:o + l_in] for o in offsets]))
        assert np.array_equal(wb.targets, np.stack([ds.values[o + l_in:o + l_in + l_out]
                                                    for o in offsets]))
        marks = np.stack([time_features(stamps[o + l_in:o + l_in + l_out]) for o in offsets])
        in_marks = np.stack([time_features(stamps[o:o + l_in]) for o in offsets])
        assert (wb.time_marks is None) != with_marks
        assert (wb.input_marks is None) != with_input_marks
        if with_marks:
            assert np.array_equal(wb.time_marks, marks)
        if with_input_marks:
            assert np.array_equal(wb.input_marks, in_marks)

    def test_marks_are_computed_once_per_split(self):
        ds = TimeSeriesDataset(hourly(50), np.zeros((50, 1)), ["a"], 0)
        assert ds.marks is ds.marks
        assert np.array_equal(ds.marks, time_features(ds.timestamps))

    def test_targets_reproduce_raw_after_inverse(self, ett_like_csv):
        ds = load_csv(ett_like_csv)
        train, val, _ = split(ds, SplitSpec(mode="ratio"))
        (tr, _), scaler = standardize(train, val)
        wb = gather_batch(tr, np.array([3]), l_in=24, l_out=6)
        raw = scaler.inverse(wb.targets[0])
        assert np.allclose(raw, train.values[27:33], atol=1e-12)


class TestTimeFeatures:
    def test_range_endpoints(self):
        jan1 = datetime(2018, 1, 1, 0)
        dec31 = datetime(2018, 12, 31, 23)
        f0 = time_features([jan1])[0]
        f1 = time_features([dec31])[0]
        assert f0[0] == pytest.approx(-0.5)        # hour 0
        assert f1[0] == pytest.approx(0.5)         # hour 23
        assert f0[5] == pytest.approx(-0.5)        # January
        assert f1[5] == pytest.approx(0.5)         # December
        assert f0[2] == pytest.approx(-0.5)        # day 1

    def test_all_features_bounded(self):
        stamps = hourly(5000, start="2015-01-01 00:00:00")
        feats = time_features(stamps)
        assert feats.shape == (5000, 6)
        assert np.all(feats >= -0.5) and np.all(feats <= 0.5)

    def test_against_calendar_library(self):
        """Independent oracle: pandas datetime accessors at 100 random instants."""
        pd = pytest.importorskip("pandas")
        rng = np.random.default_rng(0)
        base = datetime(2012, 1, 1)
        stamps = [base + timedelta(hours=int(h))
                  for h in rng.integers(0, 24 * 365 * 6, size=100)]
        ours = time_features(stamps)
        idx = pd.DatetimeIndex(stamps)
        expected = np.column_stack([
            idx.hour / 23.0 - 0.5,
            idx.dayofweek / 6.0 - 0.5,
            (idx.day - 1) / 30.0 - 0.5,
            (idx.dayofyear - 1) / 365.0 - 0.5,
            (idx.isocalendar().week.to_numpy() - 1) / 52.0 - 0.5,
            (idx.month - 1) / 11.0 - 0.5,
        ])
        assert np.allclose(ours, expected, atol=1e-12)

    def test_matches_stdlib_calendar(self):
        """Every 7th hour from 1990 through 2040 visits every hour of every
        day; the features match datetime's accessors bit for bit, whether
        the instants come as datetimes or as a datetime64 array."""
        start = datetime(1990, 1, 1)
        n = (datetime(2041, 1, 1) - start) // timedelta(hours=7)
        stamps = [start + timedelta(hours=7 * i) for i in range(n)]
        iso = [ts.isocalendar() for ts in stamps]
        assert {y for y, w, _ in iso if w == 53} == {1992, 1998, 2004, 2009, 2015,
                                                     2020, 2026, 2032, 2037}
        # the first days of January that belong to the previous ISO year
        assert {w for ts, (_, w, _) in zip(stamps, iso) if ts.month == 1 and ts.day <= 3
                and w > 1} == {52, 53}
        expected = stdlib_time_features(stamps).tobytes()
        assert time_features(stamps).tobytes() == expected
        assert time_features(np.array(stamps, dtype="datetime64[s]")).tobytes() == expected

    def test_marks_cover_prediction_window_only(self, ett_like_csv):
        ds = load_csv(ett_like_csv)
        wb = gather_batch(ds, np.array([0]), l_in=24, l_out=4, with_marks=True)
        expected = time_features(ds.timestamps[24:28])
        assert np.array_equal(wb.time_marks[0], expected)
        assert wb.input_marks is None
