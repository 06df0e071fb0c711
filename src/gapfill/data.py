"""CSV ingestion, normalization, splitting, window extraction, and synthetic series.

Tables are immutable after load: values are float64 with NaN at missing
cells and a boolean mask recording which cells hold no finite value (a
missing marker, or a number such as nan or inf).
"""

from __future__ import annotations

import csv
import io
import itertools
import locale
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .model import ImputationWindow
from .numerics import Rng

DEFAULT_MISSING_MARKERS = ("NA", "")

# `header` values of `load_csv` by their name in the CLI and the config
HEADER_MODES = {"auto": None, "yes": True, "no": False}

SYNTH_KINDS = ("sine", "sum-of-sines", "random-walk")

# amplitude/period pairs for the sum-of-sines generator; phases come from the seed
_SINE_MIX = ((1.0, 41.0), (0.6, 89.0), (0.3, 17.0))


class DataError(ValueError):
    """Unusable input data or an invalid data request."""


@dataclass
class SeriesTable:
    columns: list[str]
    values: np.ndarray  # (n_rows, n_cols) float64, NaN where missing
    # (n_rows, n_cols) bool, True where the cell has no finite value, and on
    # every row a load_csv call with `rows` did not cast
    missing: np.ndarray
    # set by load_csv: the file line on which each data row starts (the
    # header and blank lines hold no data row), the field index of each
    # column in the file's records, the file's bytes and the byte offset of
    # each line (plus the file's size); select keeps them, derived tables
    # drop them
    row_lines: np.ndarray | None = field(default=None, repr=False, compare=False)
    file_fields: list[int] | None = field(default=None, repr=False, compare=False)
    source: bytes | None = field(default=None, repr=False, compare=False)
    line_starts: np.ndarray | None = field(default=None, repr=False, compare=False)

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
                           self.missing[:, idx].copy(), self.row_lines, fields,
                           self.source, self.line_starts)


def _is_index(sel) -> bool:
    """A column selector that is an int or a string of decimal digits (maybe negative)."""
    return isinstance(sel, int) or (isinstance(sel, str) and sel.removeprefix("-").isdecimal())


def _column_index(names: list[str], sel) -> int:
    """Resolve a column name, or a zero-based index given as int or decimal string."""
    if _is_index(sel):
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
    rows=None,
) -> SeriesTable:
    """Read a comma-separated file into a SeriesTable.

    `header=True` takes the first row as column names and `False` as data.
    `None` decides from the first row's text, a cell that is neither a
    number nor a missing marker: no text makes it data; text in a selected
    column, or anywhere when `columns` is None or names a column, makes it
    a header; text only in columns an index-only selection leaves out is a
    DataError, since such a row reads as well as data.
    `columns` restricts and orders the result (names need a header row;
    zero-based indices always work). Only the returned columns are parsed
    as numbers, so other columns may hold any text. A marker, or a cell
    that parses to a non-finite number (nan, inf), reads as missing. Blank
    lines are skipped; the table's `row_lines` map every data row back to
    its line in the file, its `file_fields` every column to its field in a
    record, and its `source` and `line_starts` hold the file for
    `rewrite_csv`.

    `rows`, a sequence of half-open `(start, stop)` data-row ranges, casts
    only the cells of those rows; every other row reads as NaN and missing,
    and a cell there that is not a number is no error. Each range is
    clipped to the table's rows first. Every record's width and the header
    are checked either way. `None` casts every row.

    The file is read once. Quote-free ASCII text is parsed with numpy over
    its bytes; any other text, and any file the numpy path cannot take
    whole, goes through csv.reader, which alone raises load errors.
    """
    markers = frozenset(m.strip() for m in markers)
    with open(path, "rb") as fh:
        raw = fh.read()
    table = _load_fast(raw, columns, markers, header, rows)
    if table is None:
        table = _load_records(raw, path, columns, markers, header, rows)
    return table


def _row_index(rows, n: int) -> np.ndarray | None:
    """The increasing data-row indices in the half-open ranges `rows`, each
    clipped to [0, n) before it is expanded; None when `rows` is None."""
    if rows is None:
        return None
    keep = np.zeros(n, dtype=bool)
    for start, stop in rows:
        keep[min(max(start, 0), n):min(max(stop, 0), n)] = True
    return np.flatnonzero(keep)


def _spread(cast: np.ndarray, take: np.ndarray | None, n: int) -> np.ndarray:
    """The n-row values with row `take[i]` set to `cast[i]` and NaN elsewhere,
    or `cast` itself when `take` is None."""
    if take is None:
        return cast
    values = np.full((n, cast.shape[1]), np.nan)
    values[take] = cast
    return values


def _text_encoding() -> str:
    return locale.getpreferredencoding(False)  # what open() decodes text with


def _header_names(first: list[str], columns, markers, header, path) -> list[str] | None:
    """The column names the first record `first` gives, or None when it is a
    data row; `header=None` applies the rule `load_csv` states."""
    if header is None:
        text = [not _is_number_or_marker(cell, markers) for cell in first]
        header = any(text)
        if (header and columns is not None and all(_is_index(s) for s in columns)
                and not any(text[int(s)] for s in columns if 0 <= int(s) < len(first))):
            raise DataError(f"{path}: the first row has text only in columns not selected, "
                            "so it may be a header or data; set header to yes or no")
    return [c.strip() for c in first] if header else None


def _csv_records(reader, path):
    """The records of csv `reader`; a csv.Error is a DataError at its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _load_records(raw: bytes, path, columns, markers, header, rows) -> SeriesTable:
    """`load_csv` through csv.reader; every load error is raised here."""
    encoding = _text_encoding()
    try:
        text = raw.decode(encoding)
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: line {line}: byte 0x{raw[exc.start]:02x} "
                        f"is not {encoding} text") from None
    # the lines csv.reader reads from a file opened as text with newline=""
    lines = io.StringIO(text, newline="").readlines()
    reader = csv.reader(lines)
    read = _csv_records(reader, path)
    start = 0  # the line the next record starts on
    for first in read:
        if first:
            break
        start = reader.line_num
    else:
        raise DataError(f"{path}: file has no rows")
    names = _header_names(first, columns, markers, header, path)
    if names is not None:
        start, records = reader.line_num, read
    else:
        names = [f"col{i}" for i in range(len(first))]
        records = itertools.chain([first], read)
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

    take = _row_index(rows, len(kept))
    if take is not None:
        kept = [kept[r] for r in take]
    cols = [kept] if len(fields) == 1 else list(zip(*kept))
    cast = np.empty((len(kept), len(fields)))
    for j, col in enumerate(cols):
        cells = [cell.strip() for cell in col]
        try:  # numpy parses each str as float() does, so _first_bad_cell finds the culprit
            cast[:, j] = np.array(["nan" if cell in markers else cell for cell in cells],
                                  dtype=np.float64)
        except ValueError:
            numbers = range(len(kept)) if take is None else take.tolist()
            raise _first_bad_cell(path, cols, numbers, names, fields, markers) from None
    line_starts = np.cumsum([0] + [len(line.encode(encoding)) for line in lines])
    return _table(names, fields, _spread(cast, take, len(row_lines)), row_lines, raw,
                  line_starts)


# Bytes that keep a file off the numpy path: a quote starts csv quoting, a
# numpy bytes cell drops trailing NULs, and str.strip strips 0x1c-0x1f
# where numpy's cast does not. A CR not followed by LF is checked apart.
_FAST_PATH_STOPS = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")

# the bytes the numpy path compares at a time, so its temporaries stay small
_BLOCK = 1 << 18


def _load_fast(raw: bytes, columns, markers, header, rows) -> SeriesTable | None:
    """`load_csv` for quote-free ASCII text, or None to read `raw` with csv.reader.

    In such text every non-empty line is one record and every comma ends a
    field. One scan finds every field's end, a comma or a line's LF, and
    the LFs among them split the ends into lines: a line's first field
    starts after the previous line's LF, and each comma opens the next
    field. Each selected field is gathered into one fixed-width bytes
    array, stripped of ASCII whitespace and cast with one
    `astype(np.float64)`, which parses as float() does. Any problem
    (uneven widths, a header or selection error, no data rows, a cell the
    cast rejects) returns None, so that `_load_records` raises its error.
    """
    if not raw or not raw.isascii() or any(stop in raw for stop in _FAST_PATH_STOPS):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    ends = _field_ends(buf)
    # full-length temporaries are dropped as soon as they are read: a higher
    # peak can make the allocator hand the freed memory back to the system,
    # and each call then faults it in again
    is_lf = np.take(buf, ends, mode="clip") == 10
    is_lf[-1] |= ends[-1] == buf.size  # the end of a last line without a line ending
    lf = np.flatnonzero(is_lf)  # the index in `ends` of each line's last field end
    del is_lf
    line_ends = ends[lf]  # each line's end: its LF, its CR if CRLF, or the end of text
    line_starts = np.empty(lf.size + 1, np.intp)
    line_starts[0], line_starts[-1] = 0, buf.size
    np.add(line_ends[:-1], 1, out=line_starts[1:-1])
    if b"\r" in raw:  # a CR must open a CRLF ending, which ends its line a byte early
        crlf = buf[np.maximum(line_ends - 1, 0)] == 13
        crlf[-1] &= ends[-1] != buf.size  # the end of the text ends no CRLF
        if np.count_nonzero(crlf) != sum(int(np.count_nonzero(buf[i:i + _BLOCK] == 13))
                                         for i in range(0, buf.size, _BLOCK)):
            return None
        line_ends -= crlf
    per_line = np.empty_like(lf)  # the fields of each line
    per_line[0] = lf[0] + 1
    np.subtract(lf[1:], lf[:-1], out=per_line[1:])
    del lf
    length = line_ends - line_starts[:-1]
    if length.max() > csv.field_size_limit():
        return None
    nonempty = length > 0  # csv.reader skips empty lines
    del length
    rec = np.flatnonzero(nonempty)
    if not rec.size:
        return None
    last = int(per_line[rec[0]]) - 1  # the last field's index
    if ((per_line != last + 1) & nonempty).any():
        return None
    del per_line, nonempty
    first_row = raw[line_starts[rec[0]]:line_ends[rec[0]]].decode("ascii").split(",")
    try:
        names = _header_names(first_row, columns, markers, header, None)
        if names is None:
            names = [f"col{i}" for i in range(last + 1)]
        else:
            rec = rec[1:]
        fields = list(range(last + 1)) if columns is None else [_column_index(names, s)
                                                                for s in columns]
    except DataError:
        return None
    if not rec.size:
        return None

    take = _row_index(rows, rec.size)
    cast_lines = rec if take is None else rec[take]
    starts, stops = line_starts[cast_lines], line_ends[cast_lines]
    first = np.searchsorted(ends, starts)  # the index in `ends` of each one's first field end
    codes = [m.encode("ascii") for m in markers if m.isascii() and "\0" not in m]
    cast = np.empty((starts.size, len(fields)))
    for f in set(fields):
        lo = starts if f == 0 else ends[first + f - 1] + 1
        width = (stops if f == last else ends[first + f]) - lo
        w = max(1, int(width.max(initial=0)))
        # row i is the w bytes from lo[i] (a copy), but no window runs past the end
        cells = np.lib.stride_tricks.sliding_window_view(buf, w)[np.minimum(lo, buf.size - w)]
        for i in np.flatnonzero(lo > buf.size - w):
            cells[i, :width[i]] = buf[lo[i]:lo[i] + width[i]]
        for k in range(w):  # zero the bytes past each field
            cells[width <= k, k] = 0
        cells = np.char.strip(cells.view(f"S{w}").ravel()).astype(f"S{max(w, 3)}", copy=False)
        for code in codes:
            cells[cells == code] = b"nan"
        try:
            cast[:, np.equal(fields, f)] = cells.astype(np.float64)[:, None]
        except ValueError:
            return None
    return _table(names, fields, _spread(cast, take, rec.size), rec, raw, line_starts)


def _field_ends(buf: np.ndarray) -> np.ndarray:
    """The offset of every comma and LF in `buf`, then `buf.size` if the text
    does not end in an LF."""
    tail = [] if buf[-1] == 10 else [np.array([buf.size])]
    return np.concatenate([np.flatnonzero((buf[i:i + _BLOCK] == 44) | (buf[i:i + _BLOCK] == 10))
                           + i for i in range(0, buf.size, _BLOCK)] + tail)


def _table(names, fields, values, row_lines, source, line_starts) -> SeriesTable:
    missing = ~np.isfinite(values)
    values[missing] = np.nan
    return SeriesTable([names[c] for c in fields], values, missing,
                       np.asarray(row_lines, dtype=np.int64), fields, source,
                       np.asarray(line_starts, dtype=np.int64))


def _is_number_or_marker(cell: str, markers) -> bool:
    text = cell.strip()
    if text in markers:
        return True
    try:
        float(text)
    except ValueError:
        return False
    return True


def _first_bad_cell(path, cols, numbers, names, fields, markers) -> DataError:
    """The error naming the first selected cell, row by row and within a row in
    file order, that is neither a number nor a marker; `cols[j][i]` holds the
    cell of field `fields[j]` in data row `numbers[i]`."""
    in_file_order = sorted({c: j for j, c in enumerate(fields)}.items())
    for i, r in enumerate(numbers):
        for c, j in in_file_order:
            if not _is_number_or_marker(cols[j][i], markers):
                return DataError(
                    f"{path}: row {r + 1}, column {names[c]!r}: cannot parse {cols[j][i]!r}")
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


def rewrite_csv(path, table: SeriesTable, rows, values) -> None:
    """Write the file `table` was loaded from to `path`, with the table's
    columns in data rows `rows` (strictly increasing) set to `values`, one
    sequence of `n_cols` numbers per row, each written as `repr(float(v))`.

    A record whose first line is ASCII without a `"` is that one line, and
    its fields are its comma splits: the selected fields' bytes are replaced
    and the rest of the line, its ending included, is kept. Any other record
    is re-parsed and re-written with the csv module: its other cells keep
    their values, its line ending is kept, and only cells that need quotes
    are quoted. Each run of adjacent rewritten records is written as one
    block, and the bytes between runs are copied through, each in one write.
    Bad `rows` or `values` are a DataError, and no file is written.

    The output is written whole to a new file beside `path` and then renamed
    onto it, so a write that fails leaves `path` as it was, even when `path`
    is the file `table` was loaded from; the new file is removed. Like
    `open(path, "w")` on a new file, the output gets mode 0666 less the umask.
    """
    raw, starts = table.source, table.line_starts
    if raw is None:
        raise DataError("rewrite_csv needs a table read by load_csv")
    rows, values = _rewrite_rows(table, rows, values)
    lines = table.row_lines[rows]
    fields, encoding = table.file_fields, _text_encoding()
    view = memoryview(raw)
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            done, block = 0, []
            for line, lo, hi, row in zip(lines.tolist(), starts[lines].tolist(),
                                         starts[lines + 1].tolist(), values):
                record = raw[lo:hi]
                if record.isascii() and b'"' not in record:
                    body = record.rstrip(b"\r\n")
                    cells = body.split(b",")
                    for col, v in zip(fields, row):
                        cells[col] = repr(v).encode()
                    piece = b",".join(cells) + record[len(body):]
                else:
                    piece, hi = _rewrite_record(raw, starts, line, fields, row, encoding)
                if lo != done:
                    fh.write(b"".join(block))
                    fh.write(view[done:lo])
                    block = []
                block.append(piece)
                done = hi
            fh.write(b"".join(block))
            fh.write(view[done:])
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _rewrite_rows(table: SeriesTable, rows, values) -> tuple[np.ndarray, list[list[float]]]:
    """`rows` as an index array and `values` as lists of floats, once the rows
    strictly increase within the table and each has `n_cols` values."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.dtype.kind not in "iu" and rows.size):
        raise DataError("rewrite_csv: rows must be a sequence of integers")
    rows = rows.astype(np.int64, copy=False)
    if len(rows) != len(values):
        raise DataError(f"rewrite_csv: {len(rows)} rows but {len(values)} value rows")
    outside = rows[(rows < 0) | (rows >= table.n_rows)]
    if outside.size:
        raise DataError(f"rewrite_csv: row {outside[0]} is outside the table's "
                        f"{table.n_rows} data rows")
    back = np.flatnonzero(np.diff(rows) <= 0)
    if back.size:
        raise DataError(f"rewrite_csv: rows must strictly increase, got row "
                        f"{rows[back[0] + 1]} after row {rows[back[0]]}")
    if not len(rows):
        return rows, []
    try:
        cells = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):  # rows of uneven length
        cells = None
    if cells is None or cells.shape != (len(rows), table.n_cols):
        raise DataError(f"rewrite_csv: each row needs {table.n_cols} value(s)")
    return rows, cells.tolist()


def _rewrite_record(raw: bytes, starts: np.ndarray, line: int, fields: list[int], row,
                    encoding: str) -> tuple[bytes, int]:
    """The record that starts on `line`, re-parsed with csv.reader and its
    `fields` set to `row`, as csv.writer writes it with its own line ending;
    and the offset where the record ends."""
    reader = csv.reader(raw[starts[i]:starts[i + 1]].decode(encoding)
                        for i in range(line, len(starts) - 1))
    record = next(reader)
    for col, v in zip(fields, row):
        record[col] = repr(v)
    end = line + reader.line_num
    last_line = raw[starts[end - 1]:starts[end]].decode(encoding)
    out = io.StringIO()
    # "\r\n" makes the writer quote any cell holding a line break
    csv.writer(out, lineterminator="\r\n").writerow(record)
    ending = last_line[len(last_line.rstrip("\r\n")):]
    return (out.getvalue()[:-2] + ending).encode(encoding), int(starts[end])


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
    not an error here: the result is empty, and each caller says what it
    needed the windows for.
    """
    n = table.n_rows
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


def series_windows(table: SeriesTable, test_fraction: float, spec: WindowSpec,
                   test_spec: WindowSpec | None = None
                   ) -> tuple[NormStats, list[ImputationWindow], list[ImputationWindow]]:
    """A series' normalization by its training rows (`split_train_test`),
    its normalized training windows and, given `test_spec`, test windows.
    A test split without a window is an error, and so is a training split
    of fewer than 2: training fits on some and validates on the rest."""
    train_part, test_part = split_train_test(table, test_fraction)
    stats = compute_norm_stats(train_part)
    test_windows = []
    if test_spec is not None:
        test_windows = extract_windows(normalize_table(test_part, stats), test_spec)
        if not test_windows:
            raise DataError("test split yields no evaluation windows")
    windows = extract_windows(normalize_table(train_part, stats), spec)
    if len(windows) < 2:
        raise DataError(f"too few training windows ({len(windows)}); need at least 2 "
                        "(shrink the window or add rows)")
    return stats, windows, test_windows


def synth(kind: str, n: int, noise_std: float = 0.0, seed: int = 0, period: float = 50.0) -> SeriesTable:
    """Deterministic synthetic series for experiments and fixtures.

    sine:          sin(2*pi*i/period) plus Gaussian noise
    sum-of-sines:  three fixed-period sines with seed-dependent phases
    random-walk:   cumulative sum of Gaussian increments of scale noise_std
    """
    if n < 1:
        raise DataError("n must be >= 1")
    if not (math.isfinite(period) and period > 0):
        raise DataError(f"period must be finite and > 0, got {period}")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise DataError(f"noise standard deviation must be finite and >= 0, got {noise_std}")
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
