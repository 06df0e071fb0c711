"""CSV ingestion, normalization, splitting, window extraction, and synthetic series.

Tables are immutable after load: values are float64 with NaN at missing
cells and a boolean mask recording which cells were missing markers.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import ImputationWindow
from .numerics import Rng

DEFAULT_MISSING_MARKERS = ("NA", "")

SYNTH_KINDS = ("sine", "sum-of-sines", "random-walk")

# amplitude/period pairs for the sum-of-sines generator; phases come from the seed
_SINE_MIX = ((1.0, 41.0), (0.6, 89.0), (0.3, 17.0))


class DataError(ValueError):
    """Unusable input data or an invalid data request."""


@dataclass
class SeriesTable:
    columns: list[str]
    values: np.ndarray  # (n_rows, n_cols) float64, NaN where missing
    missing: np.ndarray  # (n_rows, n_cols) bool, True where the cell was a marker
    # set by load_csv: the file line on which each data row starts (the
    # header and blank lines hold no data row); derived tables drop it
    row_lines: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column(self, sel) -> np.ndarray:
        return self.values[:, self.column_index(sel)]

    def column_index(self, sel) -> int:
        if isinstance(sel, int) or (isinstance(sel, str) and sel.lstrip("-").isdigit()):
            idx = int(sel)
            if not 0 <= idx < self.n_cols:
                raise DataError(f"column index {idx} out of range (table has {self.n_cols})")
            return idx
        if sel in self.columns:
            return self.columns.index(sel)
        raise DataError(f"unknown column {sel!r}; available: {self.columns}")

    def select(self, selectors) -> "SeriesTable":
        idx = [self.column_index(s) for s in selectors]
        return SeriesTable([self.columns[i] for i in idx],
                           self.values[:, idx].copy(), self.missing[:, idx].copy(), self.row_lines)


def _parse_cell(cell: str, markers: tuple[str, ...]) -> tuple[float, bool]:
    text = cell.strip()
    if text in markers:
        return math.nan, True
    try:
        return float(text), False
    except ValueError:
        raise DataError(f"cannot parse cell {cell!r}") from None


def load_csv(
    path,
    columns=None,
    markers: tuple[str, ...] = DEFAULT_MISSING_MARKERS,
    header: bool | None = None,
) -> SeriesTable:
    """Read a comma-separated file into a SeriesTable.

    `header=None` auto-detects: if any cell of the first row is neither a
    number nor a missing marker, that row is taken as column names.
    `columns` restricts and orders the result (names need a header row;
    zero-based indices always work). Blank lines are skipped; the table's
    `row_lines` map every data row back to its line in the file.
    """
    markers = tuple(m.strip() for m in markers)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        records = list(reader)
        if reader.line_num == len(records):  # one line per record, the usual case
            starts = range(len(records))
        else:  # a quoted cell holds a line break: find where each record starts
            fh.seek(0)
            reader = csv.reader(fh)
            starts = [0] + [reader.line_num for _ in reader][:-1]
    row_lines = np.array([start for start, row in zip(starts, records) if row], dtype=np.int64)
    rows = [row for row in records if row]
    if not rows:
        raise DataError(f"{path}: file has no rows")

    def _is_header(row: list[str]) -> bool:
        for cell in row:
            text = cell.strip()
            if text in markers:
                continue
            try:
                float(text)
            except ValueError:
                return True
        return False

    has_header = _is_header(rows[0]) if header is None else header
    if has_header:
        names = [c.strip() for c in rows[0]]
        rows, row_lines = rows[1:], row_lines[1:]
    else:
        names = [f"col{i}" for i in range(len(rows[0]))]
    if not rows:
        raise DataError(f"{path}: no data rows")
    width = len(names)
    values = np.empty((len(rows), width))
    missing = np.zeros((len(rows), width), dtype=bool)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: row {r + 1} has {len(row)} cells, expected {width}")
        for c, cell in enumerate(row):
            try:
                values[r, c], missing[r, c] = _parse_cell(cell, markers)
            except DataError:
                raise DataError(
                    f"{path}: row {r + 1}, column {names[c]!r}: cannot parse {cell!r}"
                ) from None
    table = SeriesTable(names, values, missing, row_lines)
    if columns is not None:
        table = table.select(columns)
    return table


def write_csv(path, table: SeriesTable, markers: tuple[str, ...] = DEFAULT_MISSING_MARKERS) -> None:
    """Write a table with a header row; missing cells become the first marker."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(table.columns) + "\n")
        for r in range(table.n_rows):
            cells = [
                markers[0] if table.missing[r, c] else repr(float(table.values[r, c]))
                for c in range(table.n_cols)
            ]
            fh.write(",".join(cells) + "\n")


def read_lines(path) -> list[str]:
    """The file's physical lines with their endings, split as `load_csv` splits them."""
    with open(path, newline="") as fh:
        return fh.readlines()


def replace_cells(lines: list[str], start: int, cells: dict[int, str]) -> None:
    """Rewrite cells of the CSV record starting at `lines[start]`, in place.

    The record is re-parsed and re-written with the csv module: its other
    cells keep their values, its line ending is kept, and only cells that
    need quotes are quoted. The number of lines stays the same, so the
    line numbers of other records stay valid.
    """
    reader = csv.reader(lines[i] for i in range(start, len(lines)))
    record = next(reader)
    end = start + reader.line_num
    for col, text in cells.items():
        record[col] = text
    ending = lines[end - 1][len(lines[end - 1].rstrip("\r\n")):]
    out = io.StringIO()
    # "\r\n" makes the writer quote any cell holding a line break
    csv.writer(out, lineterminator="\r\n").writerow(record)
    lines[start:end] = [out.getvalue()[:-2] + ending] + [""] * (end - start - 1)


def split_train_test(table: SeriesTable, test_fraction: float) -> tuple[SeriesTable, SeriesTable]:
    """Chronological split: the last ceil(test_fraction * n) rows are the test set."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = table.n_rows
    n_test = math.ceil(test_fraction * n)
    n_train = n - n_test
    if n_train < 1 or n_test < 1:
        raise DataError(
            f"split leaves an empty side: {n} rows at test_fraction {test_fraction} "
            f"gives {n_train} train / {n_test} test"
        )
    train = SeriesTable(table.columns, table.values[:n_train].copy(), table.missing[:n_train].copy())
    test = SeriesTable(table.columns, table.values[n_train:].copy(), table.missing[n_train:].copy())
    return train, test


@dataclass(frozen=True)
class WindowSpec:
    before_len: int
    gap_len: int
    after_len: int
    stride: int = 1

    def __post_init__(self):
        for name in ("before_len", "gap_len", "after_len", "stride"):
            if getattr(self, name) < 1:
                raise DataError(f"window spec field {name} must be >= 1")

    @property
    def total(self) -> int:
        return self.before_len + self.gap_len + self.after_len


def extract_windows(table: SeriesTable, spec: WindowSpec) -> list[ImputationWindow]:
    """Slide a window over the rows; offsets go 0, stride, 2*stride, ...

    Windows touching any genuinely-missing row are dropped. Too few rows is
    not an error: the result is empty and a warning is issued.
    """
    n = table.n_rows
    if n < spec.total:
        warnings.warn(
            f"series of {n} rows is shorter than one {spec.total}-row window; no windows extracted",
            stacklevel=2,
        )
        return []
    row_has_missing = table.missing.any(axis=1)
    out: list[ImputationWindow] = []
    for start in range(0, n - spec.total + 1, spec.stride):
        end = start + spec.total
        if row_has_missing[start:end].any():
            continue
        b = start + spec.before_len
        g = b + spec.gap_len
        out.append(ImputationWindow(
            table.values[start:b].copy(),
            table.values[b:g].copy(),
            table.values[g:end].copy(),
        ))
    return out


@dataclass
class NormStats:
    """Per-column mean and population standard deviation of the training rows."""

    mean: np.ndarray
    std: np.ndarray


def compute_norm_stats(table: SeriesTable) -> NormStats:
    mean = np.empty(table.n_cols)
    std = np.empty(table.n_cols)
    for c in range(table.n_cols):
        col = table.values[~table.missing[:, c], c]
        if col.size == 0:
            raise DataError(f"column {table.columns[c]!r} has no observed values")
        mean[c] = col.mean()
        std[c] = np.sqrt(np.mean((col - mean[c]) ** 2))
        if std[c] == 0.0:
            raise DataError(f"column {table.columns[c]!r} is constant; cannot normalize")
    return NormStats(mean, std)


def normalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    return (values - stats.mean) / stats.std


def denormalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    return values * stats.std + stats.mean


def normalize_table(table: SeriesTable, stats: NormStats) -> SeriesTable:
    return SeriesTable(list(table.columns), normalize(table.values, stats), table.missing.copy())


def synth(kind: str, n: int, noise_std: float = 0.0, seed: int = 0, period: float = 50.0) -> SeriesTable:
    """Deterministic synthetic series for experiments and fixtures.

    sine:          sin(2*pi*i/period) plus Gaussian noise
    sum-of-sines:  three fixed-period sines with seed-dependent phases
    random-walk:   cumulative sum of Gaussian increments of scale noise_std
    """
    if n < 1:
        raise DataError("n must be >= 1")
    if kind not in SYNTH_KINDS:
        raise DataError(f"unknown synthetic kind {kind!r}; expected one of {SYNTH_KINDS}")
    rng = Rng(seed)
    i = np.arange(n, dtype=np.float64)
    if kind == "sine":
        x = np.sin(2.0 * np.pi * i / period)
        if noise_std > 0.0:
            x = x + noise_std * rng.normal_array((n,))
    elif kind == "sum-of-sines":
        x = np.zeros(n)
        for amp, per in _SINE_MIX:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x = x + amp * np.sin(2.0 * np.pi * i / per + phase)
        if noise_std > 0.0:
            x = x + noise_std * rng.normal_array((n,))
    else:
        steps = noise_std * rng.normal_array((n,))
        steps[0] = 0.0
        x = np.cumsum(steps)
    return SeriesTable(["value"], x[:, None], np.zeros((n, 1), dtype=bool))
