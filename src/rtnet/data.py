"""Dataset loading, chronological splitting, standardization, and windowing.

CSV files carry a leading "date" column (YYYY-MM-DD HH:MM:SS) followed by
numeric variate columns; the last column is the default forecasting target.
Splits are strictly chronological and windows never straddle a split
boundary, so no test information can leak into training statistics.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property

import numpy as np

from .errors import ConfigError, DataError, DimensionError

DATE_FORMAT = "%Y-%m-%d %H:%M:%S"


@dataclass
class TimeSeriesDataset:
    timestamps: list[datetime]
    values: np.ndarray  # (length, N)
    variate_names: list[str]
    target_index: int

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]

    @cached_property
    def marks(self) -> np.ndarray:
        """(length, 6) calendar features of every row, computed once."""
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
    months: tuple[int, int, int] = (12, 4, 4)
    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        if self.mode not in ("months", "ratio"):
            raise ConfigError(f"split mode must be 'months' or 'ratio', got {self.mode!r}")


def load_csv(path: str) -> TimeSeriesDataset:
    """Parse a dataset CSV; every malformed row is reported by file line number."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0].strip() != "date":
            raise DataError(f"{path}: first column must be named 'date', got {header[:1]}")
        names = [h.strip() for h in header[1:]]
        if len(names) < 1:
            raise DataError(f"{path}: no variate columns")
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate variate names in header")

        timestamps: list[datetime] = []
        rows: list[list[float]] = []
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                raise DataError(f"{path}: row {line_no} has {len(cells)} cells, expected {len(header)}")
            try:
                ts = datetime.strptime(cells[0].strip(), DATE_FORMAT)
            except ValueError:
                raise DataError(f"{path}: row {line_no} has unparseable date {cells[0]!r}") from None
            try:
                vals = [float(c) for c in cells[1:]]
            except ValueError:
                raise DataError(f"{path}: row {line_no} has a non-numeric cell") from None
            if not all(np.isfinite(vals)):
                raise DataError(f"{path}: row {line_no} has a non-finite value")
            timestamps.append(ts)
            rows.append(vals)

    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=np.float64)
    if len(timestamps) > 1:
        interval = timestamps[1] - timestamps[0]
        for i in range(1, len(timestamps)):
            delta = timestamps[i] - timestamps[i - 1]
            if delta.total_seconds() <= 0:
                raise DataError(f"{path}: row {i + 2} timestamp is not increasing")
            if delta != interval:
                raise DataError(f"{path}: row {i + 2} breaks the sampling interval "
                                f"({delta} != {interval})")
    return TimeSeriesDataset(timestamps, values, names, target_index=len(names) - 1)


def _add_months(ts: datetime, months: int) -> datetime:
    month_index = ts.month - 1 + months
    year = ts.year + month_index // 12
    month = month_index % 12 + 1
    # clamp the day so e.g. Jan 31 + 1 month lands on the last day of Feb
    for day in (ts.day, 30, 29, 28):
        try:
            return ts.replace(year=year, month=month, day=day)
        except ValueError:
            continue
    raise AssertionError("unreachable")


def split(ds: TimeSeriesDataset, spec: SplitSpec
          ) -> tuple[TimeSeriesDataset, TimeSeriesDataset, TimeSeriesDataset]:
    """Chronological train/val/test partition."""
    n = len(ds)
    if spec.mode == "ratio":
        r_train, r_val, _ = spec.ratios
        n_train = int(n * r_train)
        n_val = int(n * r_val)
        if n_train == 0 or n_val == 0 or n_train + n_val >= n:
            raise DataError(f"dataset of {n} rows is too short for ratio split {spec.ratios}")
        b1, b2 = n_train, n_train + n_val
    else:
        m_train, m_val, m_test = spec.months
        t0 = ds.timestamps[0]
        edge1 = _add_months(t0, m_train)
        edge2 = _add_months(t0, m_train + m_val)
        edge3 = _add_months(t0, m_train + m_val + m_test)
        ts = ds.timestamps
        b1 = next((i for i, t in enumerate(ts) if t >= edge1), n)
        b2 = next((i for i, t in enumerate(ts) if t >= edge2), n)
        b3 = next((i for i, t in enumerate(ts) if t >= edge3), n)
        if b1 == 0 or b2 <= b1 or b3 <= b2:
            raise DataError(f"dataset spanning {ts[0]}..{ts[-1]} is shorter than "
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

    def to_json(self) -> str:
        return json.dumps({"mean": self.mean.tolist(), "std": self.std.tolist()}, indent=2)


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


def time_features(timestamps: list[datetime]) -> np.ndarray:
    """Hour of day, day of week, day of month, day of year, week of year and
    month of year, each mapped linearly onto [-0.5, 0.5]."""
    out = np.empty((len(timestamps), 6))
    for i, ts in enumerate(timestamps):
        out[i, 0] = ts.hour / 23.0 - 0.5
        out[i, 1] = ts.weekday() / 6.0 - 0.5
        out[i, 2] = (ts.day - 1) / 30.0 - 0.5
        out[i, 3] = (ts.timetuple().tm_yday - 1) / 365.0 - 0.5
        out[i, 4] = (ts.isocalendar()[1] - 1) / 52.0 - 0.5
        out[i, 5] = (ts.month - 1) / 11.0 - 0.5
    return out


@dataclass
class WindowBatch:
    offsets: np.ndarray
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
    return WindowBatch(offsets, inputs, targets, marks, in_marks)
