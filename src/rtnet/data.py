"""Dataset loading, chronological splitting, standardization, and windowing,
and the writers of every output file (`atomic_open`), CSV (`write_csv`) and JSON (`write_json`).

CSV files carry a leading "date" column (zero-padded YYYY-MM-DD HH:MM:SS, one
sampling interval) followed by numeric variate columns; the last column is the
default forecasting target.  Timestamps stay one datetime64[s] array from the
CSV through to the calendar features.
Splits are strictly chronological and windows never straddle a split
boundary, so no test information can leak into training statistics.
"""

from __future__ import annotations

import csv
import json
import os
from calendar import monthrange
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, DimensionError

# every character of a date cell: "0" stands for any digit, the rest is literal
_DATE_FORM = np.array([ord(c) for c in "0000-00-00 00:00:00"], dtype=np.uint32)
# the columns of time_features, which ModelConfig.n_time must equal
N_TIME_FEATURES = 6
# train/val/test spans of a "months" split, and fractions of a "ratio" split
SPLIT_MONTHS = (12, 4, 4)
SPLIT_RATIOS = (0.6, 0.2, 0.2)


@dataclass
class TimeSeriesDataset:
    timestamps: np.ndarray  # (length,) datetime64[s]; a list of datetime is converted
    values: np.ndarray  # (length, N)
    variate_names: list[str]
    target_index: int

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]

    @cached_property
    def marks(self) -> np.ndarray:
        """(length, N_TIME_FEATURES) calendar features of every row, computed once."""
        return time_features(self.timestamps)

    def slice(self, start: int, stop: int) -> "TimeSeriesDataset":
        return TimeSeriesDataset(self.timestamps[start:stop],
                                 self.values[start:stop].copy(),
                                 self.variate_names, self.target_index)

    def select_variates(self, indices: list[int]) -> "TimeSeriesDataset":
        return TimeSeriesDataset(self.timestamps,
                                 np.ascontiguousarray(self.values[:, indices]),
                                 [self.variate_names[i] for i in indices],
                                 len(indices) - 1)


@dataclass
class SplitSpec:
    mode: str  # "months" or "ratio"

    def __post_init__(self):
        if self.mode not in ("months", "ratio"):
            raise ConfigError(f"split mode must be 'months' or 'ratio', got {self.mode!r}")


def _parse_dates(cells: list[str]) -> np.ndarray:
    """datetime64[s] of date cells; ValueError unless every cell, stripped, is a
    zero-padded YYYY-MM-DD HH:MM:SS naming a real calendar instant."""
    text = list(map(str.strip, cells))
    if set(map(len, text)) != {_DATE_FORM.size}:  # before any array is sized by them
        raise ValueError("date cell of the wrong length")
    dates = np.array(text, dtype=f"U{_DATE_FORM.size}")
    codes = dates.view(np.uint32).reshape(-1, _DATE_FORM.size)
    digit = (codes >= ord("0")) & (codes <= ord("9"))
    if not np.all(np.where(_DATE_FORM == ord("0"), digit, codes == _DATE_FORM)):
        raise ValueError("date cell is not YYYY-MM-DD HH:MM:SS")
    return dates.astype("datetime64[s]")


def _row_problem(cells: list[str], width: int) -> str | None:
    """What is wrong with one CSV record, checked the way the bulk parse checks it."""
    if len(cells) != width:
        return f"has {len(cells)} cells, expected {width}"
    try:
        _parse_dates(cells[:1])
    except ValueError:
        return f"has unparseable date {cells[0]!r}"
    try:
        vals = np.array(cells[1:], dtype=np.float64)
    except ValueError:
        return "has a non-numeric cell"
    if not np.isfinite(vals).all():
        return "has a non-finite value"
    return None


def _first_bad_row(path: str, records: list[list[str]], width: int) -> DataError:
    for line_no, cells in enumerate(records, start=2):
        if cells and (problem := _row_problem(cells, width)):
            return DataError(f"{path}: row {line_no} {problem}")
    raise AssertionError("the bulk parse failed on rows that each parse")


def load_csv(path: str) -> TimeSeriesDataset:
    """Parse a dataset CSV in bulk; a malformed row is reported by file line number."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            records = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:  # bytes not UTF-8, a field over csv's limit
        raise DataError(f"{path}: unreadable CSV ({exc})") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    if not header or header[0].strip() != "date":
        raise DataError(f"{path}: first column must be named 'date', got {header[:1]}")
    names = [h.strip() for h in header[1:]]
    if len(names) < 1:
        raise DataError(f"{path}: no variate columns")
    if len(set(names)) != len(names):
        raise DataError(f"{path}: duplicate variate names in header")

    rows = list(filter(None, records))  # a blank line holds no row
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        timestamps = _parse_dates([cells[0] for cells in rows])
        values = np.array([cells[1:] for cells in rows], dtype=np.float64)
    except ValueError:
        raise _first_bad_row(path, records, len(header)) from None
    if values.shape != (len(rows), len(names)) or not np.isfinite(values).all():
        raise _first_bad_row(path, records, len(header))

    delta = np.diff(timestamps)
    bad = np.flatnonzero((delta <= np.timedelta64(0, "s")) | (delta != delta[:1]))
    if bad.size:
        i = int(bad[0])
        # the file line of row i + 1: the header is line 1 and blank lines count
        line = [no for no, cells in enumerate(records, start=2) if cells][i + 1]
        if delta[i] <= np.timedelta64(0, "s"):
            raise DataError(f"{path}: row {line} timestamp is not increasing")
        raise DataError(f"{path}: row {line} breaks the sampling interval "
                        f"({delta[i].item()} != {delta[0].item()})")
    return TimeSeriesDataset(timestamps, values, names, target_index=len(names) - 1)


@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """``path`` opened for writing in ``mode`` ("w": UTF-8 text, line ends kept as
    written; "wb": binary), through ``<path>.tmp`` in the same directory.  The
    temporary file replaces ``path`` when the block ends; if the block raises,
    it is deleted and ``path`` keeps its old bytes.  Two writers of one path at
    once would share the temporary file: the CLI's output-directory lock keeps
    them apart."""
    tmp = path + ".tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    fh = open(tmp, mode, **text)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str, rows) -> None:
    """``rows``, the header row first, to ``path`` through `atomic_open`, with minimal
    quoting and LF line ends; each caller formats its own numbers."""
    with atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_json(path: str, obj) -> None:
    """``obj`` to ``path`` through `atomic_open` as strict JSON, indented by 2; a
    missing value is None (``null``), and a NaN or infinity raises ValueError."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)


def _add_months(ts: datetime, months: int) -> datetime:
    month_index = ts.month - 1 + months
    year = ts.year + month_index // 12
    month = month_index % 12 + 1
    # clamp the day so e.g. Jan 31 + 1 month lands on the last day of Feb
    return ts.replace(year=year, month=month, day=min(ts.day, monthrange(year, month)[1]))


def split(ds: TimeSeriesDataset, spec: SplitSpec
          ) -> tuple[TimeSeriesDataset, TimeSeriesDataset, TimeSeriesDataset]:
    """Chronological train/val/test partition."""
    n = len(ds)
    if spec.mode == "ratio":
        r_train, r_val, _ = SPLIT_RATIOS
        n_train = int(n * r_train)
        n_val = int(n * r_val)
        if n_train == 0 or n_val == 0 or n_train + n_val >= n:
            raise DataError(f"dataset of {n} rows is too short for ratio split {SPLIT_RATIOS}")
        b1, b2 = n_train, n_train + n_val
    else:
        m_train, m_val, m_test = SPLIT_MONTHS
        ts = ds.timestamps
        t0 = ts[0].item()
        edges = [_add_months(t0, m) for m in (m_train, m_train + m_val,
                                              m_train + m_val + m_test)]
        b1, b2, b3 = np.searchsorted(ts, np.array(edges, dtype="datetime64[s]")).tolist()
        if b1 == 0 or b2 <= b1 or b3 <= b2:
            raise DataError(f"dataset spanning {t0}..{ts[-1].item()} is shorter than "
                            f"{m_train}/{m_val}/{m_test} months")
        n = b3
    return ds.slice(0, b1), ds.slice(b1, b2), ds.slice(b2, n)


class Standardizer:
    """Per-variate z-scoring with statistics taken from the training split only."""

    def __init__(self, mean: np.ndarray, std: np.ndarray, guard_eps: float | None):
        self.mean = mean
        self.std = std
        denom = std.copy()
        if guard_eps is not None:
            denom[denom == 0.0] = guard_eps
        self.denom = denom

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.denom

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.denom + self.mean


def standardize(train: TimeSeriesDataset, *others: TimeSeriesDataset,
                guard_eps: float | None = None
                ) -> tuple[list[TimeSeriesDataset], Standardizer]:
    """Z-score every split with the train split's per-variate mean and std."""
    mean = train.values.mean(axis=0)
    std = train.values.std(axis=0)
    zero = np.flatnonzero(std == 0.0)
    if zero.size and guard_eps is None:
        names = [train.variate_names[i] for i in zero.tolist()]
        raise DataError(f"zero-variance variates {names}; pass guard_eps to standardize anyway")
    scaler = Standardizer(mean, std, guard_eps)
    out = []
    for ds in (train, *others):
        out.append(TimeSeriesDataset(ds.timestamps, scaler.transform(ds.values),
                                     ds.variate_names, ds.target_index))
    return out, scaler


def make_windows(ds_length: int, l_in: int, l_out: int) -> np.ndarray:
    """Offsets o such that rows [o, o+l_in) are input and [o+l_in, o+l_in+l_out) target."""
    count = ds_length - l_in - l_out + 1
    if count < 1:
        raise DataError(f"split of {ds_length} rows cannot host a window; "
                        f"needs at least {l_in + l_out} rows")
    return np.arange(count)


def time_features(timestamps: np.ndarray | list[datetime]) -> np.ndarray:
    """Hour of day, day of week, day of month, day of year, ISO week of year and
    month of year, each mapped linearly onto [-0.5, 0.5].

    ``timestamps`` is a datetime64 array or a sequence of ``datetime``.
    """
    ts = np.asarray(timestamps, dtype="datetime64[s]")
    days = ts.astype("datetime64[D]")
    months = ts.astype("datetime64[M]")
    weekday = (days.astype(np.int64) + 3) % 7  # 1970-01-01 was a Thursday; Monday is 0
    # ISO weeks belong to the year of their Thursday and count from its first one
    thursday = days + (3 - weekday)
    week = (thursday - thursday.astype("datetime64[Y]")).astype(np.int64) // 7 + 1
    out = np.empty((ts.size, N_TIME_FEATURES))
    out[:, 0] = (ts - days).astype(np.int64) // 3600 / 23.0 - 0.5
    out[:, 1] = weekday / 6.0 - 0.5
    out[:, 2] = (days - months).astype(np.int64) / 30.0 - 0.5
    out[:, 3] = (days - ts.astype("datetime64[Y]")).astype(np.int64) / 365.0 - 0.5
    out[:, 4] = (week - 1) / 52.0 - 0.5
    out[:, 5] = months.astype(np.int64) % 12 / 11.0 - 0.5
    return out


@dataclass
class WindowBatch:
    inputs: np.ndarray        # (B, L_in, N)
    targets: np.ndarray       # (B, L_out, N)
    time_marks: np.ndarray | None = None    # (B, L_out, 6), prediction-window calendar
    input_marks: np.ndarray | None = None   # (B, L_in, 6), only for input-embedding mode


def gather_batch(ds: TimeSeriesDataset, offsets: np.ndarray, l_in: int, l_out: int,
                 with_marks: bool = False, with_input_marks: bool = False) -> WindowBatch:
    """Materialize input/target windows (and calendar marks) at the given offsets."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.size and (offsets.min() < 0 or offsets.max() + l_in + l_out > len(ds)):
        raise DimensionError("window offsets fall outside the split")
    rows = offsets[:, None] + np.arange(l_in + l_out)
    inputs, targets = ds.values[rows[:, :l_in]], ds.values[rows[:, l_in:]]
    marks = ds.marks[rows[:, l_in:]] if with_marks else None
    in_marks = ds.marks[rows[:, :l_in]] if with_input_marks else None
    return WindowBatch(inputs, targets, marks, in_marks)
