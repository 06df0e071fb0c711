"""CSV ingestion, normalization, splitting, window extraction, and synthetic series.

Tables are immutable after load: values are float64 with NaN at missing
cells and a boolean mask recording which cells hold no finite value (a
missing marker, or a number such as nan or inf).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
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
    missing: np.ndarray  # (n_rows, n_cols) bool, True where the cell has no finite value
    # set by load_csv: the file line on which each data row starts (the
    # header and blank lines hold no data row) and the field index of each
    # column in the file's records; select keeps both, derived tables drop them
    row_lines: np.ndarray | None = field(default=None, repr=False, compare=False)
    file_fields: list[int] | None = field(default=None, repr=False, compare=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def column_index(self, sel) -> int:
        return _column_index(self.columns, sel)

    def select(self, selectors) -> "SeriesTable":
        idx = [self.column_index(s) for s in selectors]
        fields = None if self.file_fields is None else [self.file_fields[i] for i in idx]
        return SeriesTable([self.columns[i] for i in idx], self.values[:, idx].copy(),
                           self.missing[:, idx].copy(), self.row_lines, fields)


def _column_index(names: list[str], sel) -> int:
    """Resolve a column name, or a zero-based index given as int or decimal string."""
    if isinstance(sel, int) or (isinstance(sel, str) and sel.removeprefix("-").isdecimal()):
        idx = int(sel)
        if not 0 <= idx < len(names):
            raise DataError(f"column index {idx} out of range (table has {len(names)})")
        return idx
    if sel in names:
        return names.index(sel)
    raise DataError(f"unknown column {sel!r}; available: {names}")


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
    zero-based indices always work). Only the returned columns are parsed
    as numbers, so other columns may hold any text. A marker, or a cell
    that parses to a non-finite number (nan, inf), reads as missing. Blank
    lines are skipped; the table's `row_lines` map every data row back to
    its line in the file and its `file_fields` every column to its field in
    a record.
    """
    markers = frozenset(m.strip() for m in markers)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        start = 0  # the line the next record starts on
        for first in reader:
            if first:
                break
            start = reader.line_num
        else:
            raise DataError(f"{path}: file has no rows")
        if header is None:
            header = not all(_is_number_or_marker(cell, markers) for cell in first)
        if header:
            names = [c.strip() for c in first]
            start, records = reader.line_num, reader
        else:
            names = [f"col{i}" for i in range(len(first))]
            records = itertools.chain([first], reader)
        width = len(names)
        bad_selection = None  # raised after the rows: a row error or no rows comes first
        try:
            fields = list(range(width)) if columns is None else [_column_index(names, s)
                                                                 for s in columns]
        except DataError as exc:
            bad_selection, fields = exc, []
        # one field gives a bare cell, several a tuple
        pick = operator.itemgetter(*fields) if fields else lambda row: ()
        row_lines, kept = [], []  # only the selected fields of each record are kept
        for row in records:
            if row:
                if len(row) != width:
                    raise DataError(f"{path}: row {len(kept) + 1} has {len(row)} cells, "
                                    f"expected {width}")
                row_lines.append(start)
                kept.append(pick(row))
            start = reader.line_num
    if not kept:
        raise DataError(f"{path}: no data rows")
    if bad_selection is not None:
        raise bad_selection

    cols = [kept] if len(fields) == 1 else list(zip(*kept))
    values = np.empty((len(kept), len(fields)))
    for j, col in enumerate(cols):
        cells = [cell.strip() for cell in col]
        try:  # numpy parses each str as float() does, so _first_bad_cell finds the culprit
            values[:, j] = np.array(["nan" if cell in markers else cell for cell in cells],
                                    dtype=np.float64)
        except ValueError:
            raise _first_bad_cell(path, cols, names, fields, markers) from None
    missing = ~np.isfinite(values)
    values[missing] = np.nan
    return SeriesTable([names[c] for c in fields], values, missing,
                       np.array(row_lines, dtype=np.int64), fields)


def _is_number_or_marker(cell: str, markers) -> bool:
    text = cell.strip()
    if text in markers:
        return True
    try:
        float(text)
    except ValueError:
        return False
    return True


def _first_bad_cell(path, cols, names, fields, markers) -> DataError:
    """The error naming the first selected cell, row by row and within a row in
    file order, that is neither a number nor a marker; `cols[j]` holds the
    cells of field `fields[j]`."""
    in_file_order = sorted({c: j for j, c in enumerate(fields)}.items())
    for r in range(len(cols[0])):
        for c, j in in_file_order:
            if not _is_number_or_marker(cols[j][r], markers):
                return DataError(
                    f"{path}: row {r + 1}, column {names[c]!r}: cannot parse {cols[j][r]!r}")
    # reached only if numpy's cast ever rejects a cell that float() accepts
    return DataError(f"{path}: column {names[fields[0]]!r}: cannot parse a cell")


def write_csv(path, table: SeriesTable, markers: tuple[str, ...] = DEFAULT_MISSING_MARKERS) -> None:
    """Write a table with a header row; missing cells become the first marker."""
    cols = [
        [markers[0] if miss else repr(v) for v, miss in zip(table.values[:, c].tolist(),
                                                             table.missing[:, c].tolist())]
        for c in range(table.n_cols)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows(zip(*cols))


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
