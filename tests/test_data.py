import errno
import os
import re
import stat
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gapfill.data as data_module
from gapfill.data import (
    DataError,
    SeriesTable,
    WindowSpec,
    _load_fast,
    _load_records,
    compute_norm_stats,
    denormalize,
    extract_windows,
    load_csv,
    normalize,
    normalize_table,
    rewrite_csv,
    split_train_test,
    synth,
    write_csv,
)

from _reference import enumerate_window_starts, load_csv_scalar, rewrite_lines


def make_table(values, missing=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if missing is None:
        missing = np.zeros(values.shape, dtype=bool)
    return SeriesTable([f"col{i}" for i in range(values.shape[1])], values, missing)


class TestLoadCsv:
    def test_plain_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1\n2\n3\n")
        table = load_csv(path)
        assert np.array_equal(table.values[:, 0], [1.0, 2.0, 3.0])
        assert not table.missing.any()

    def test_missing_marker_masks_cell(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1\nNA\n3\n")
        table = load_csv(path)
        assert table.missing[1, 0]
        assert np.isnan(table.values[1, 0])

    def test_header_and_column_selection(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,temp\n0,10.5\n1,11.5\n2,12.5\n")
        table = load_csv(path, columns=["temp"])
        assert table.columns == ["temp"]
        assert np.array_equal(table.values[:, 0], [10.5, 11.5, 12.5])
        by_index = load_csv(path, columns=[1])
        assert np.array_equal(by_index.values, table.values)

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("v\n1\nbogus!\n")
        with pytest.raises(DataError, match="row 2.*'v'.*bogus!"):
            load_csv(path)

    def test_first_bad_cell_is_found_row_by_row(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("a,b,c\n1,2,3\n4,x,6\ny,8,z\n")
        with pytest.raises(DataError, match=r"row 2, column 'b': cannot parse 'x'"):
            load_csv(path, columns=["c", "a", "b"])

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("v\n1\n")
        with pytest.raises(DataError, match="unknown column"):
            load_csv(path, columns=["w"])

    def test_empty_string_marker(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("a,b\n1,\n2,3\n")
        table = load_csv(path)
        assert table.missing[0, 1]

    def test_row_width_mismatch(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_write_read_round_trip(self, tmp_path):
        table = synth("sine", 50, noise_std=0.3, seed=9)
        path = tmp_path / "s.csv"
        write_csv(path, table)
        back = load_csv(path)
        assert np.allclose(back.values, table.values, atol=1e-12, rtol=0)

    def test_write_read_round_trip_of_names_needing_quotes(self, tmp_path):
        names = ["site,north", 'say "hi"', "plain"]
        values = np.array([[1.5, -2.0, 1e-300], [np.nan, 3.25, 7.0]])
        missing = np.array([[False, False, False], [True, False, False]])
        path = tmp_path / "q.csv"
        write_csv(path, SeriesTable(names, values, missing))
        back = load_csv(path)
        assert back.columns == names
        assert back.values.tobytes() == values.tobytes()
        assert np.array_equal(back.missing, missing)

    def test_empty_marker_in_a_one_column_table_keeps_its_row(self, tmp_path):
        table = SeriesTable(["v"], np.array([[1.0], [np.nan], [3.0]]),
                            np.array([[False], [True], [False]]))
        path = tmp_path / "e.csv"
        write_csv(path, table, markers=("",))
        back = load_csv(path, markers=("",))
        assert back.n_rows == 3 and back.missing[:, 0].tolist() == [False, True, False]

    def test_write_csv_plain_text(self, tmp_path):
        table = SeriesTable(["t", "v"], np.array([[0.0, 0.1], [1.0, np.nan]]),
                            np.array([[False, False], [False, True]]))
        path = tmp_path / "p.csv"
        write_csv(path, table)
        assert path.read_bytes() == b"t,v\n0.0,0.1\n1.0,NA\n"

    def test_only_selected_columns_are_parsed(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,value,note\n2020-01-01T00:00,1.5,ok\n2020-01-01T01:00,NA,x\n")
        table = load_csv(path, columns=["value"])
        assert table.columns == ["value"]
        assert table.file_fields == [1]
        assert table.values[0, 0] == 1.5 and table.missing[1, 0]
        with pytest.raises(DataError, match=r"row 1, column 'time'.*2020-01-01T00:00"):
            load_csv(path, columns=["value", "time"])

    def test_header_with_a_numeric_selected_name_is_kept(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("time,101\n2020-01-01T00:00,1.5\n2020-01-01T01:00,NA\n")
        table = load_csv(path, columns=[1], header=True)
        assert table.columns == ["101"] and table.file_fields == [1]
        assert table.row_lines.tolist() == [1, 2]
        assert table.values[0, 0] == 1.5 and table.missing[1, 0]

    def test_header_with_an_empty_selected_name_is_kept(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(",value\n0,1.5\n1,2.5\n")
        table = load_csv(path, columns=[0], header=True)
        assert table.columns == [""] and table.row_lines.tolist() == [1, 2]
        assert table.values[:, 0].tolist() == [0.0, 1.0]

    def test_empty_and_repeated_selections(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("a,b\n\n1,x\n3,4\n")
        empty = load_csv(path, columns=[], header=True)
        assert empty.values.shape == (2, 0) and empty.row_lines.tolist() == [2, 3]
        twice = load_csv(path, columns=["a", 0])
        assert twice.values.tolist() == [[1.0, 1.0], [3.0, 3.0]] and twice.file_fields == [0, 0]

    def test_select_keeps_file_fields(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        table = load_csv(path, columns=["c", "a"])
        assert table.file_fields == [2, 0]
        assert table.select(["a"]).file_fields == [0]
        assert table.select([0]).file_fields == [2]

    def test_text_only_in_unselected_columns_needs_a_header_mode(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("2020-01-01T00:00,0.5\n2020-01-01T01:00,1.5\n2020-01-01T02:00,2.5\n")
        with pytest.raises(DataError, match="set header to yes or no"):
            load_csv(path, columns=[1])
        data = load_csv(path, columns=[1], header=False)
        assert data.values[:, 0].tolist() == [0.5, 1.5, 2.5]
        assert data.row_lines.tolist() == [0, 1, 2]
        named = load_csv(path, columns=[1], header=True)
        assert named.columns == ["0.5"] and named.values[:, 0].tolist() == [1.5, 2.5]

    @pytest.mark.parametrize("sel", ["\u00b2", "--1", "1.0"])
    def test_non_decimal_selector_is_a_name(self, tmp_path, sel):
        path = tmp_path / "a.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="unknown column"):
            load_csv(path).column_index(sel)

    def test_unicode_decimal_selector_is_an_index(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("a,b\n1,2\n")
        table = load_csv(path)
        assert table.column_index("\u0661") == 1  # ARABIC-INDIC DIGIT ONE
        with pytest.raises(DataError, match="out of range"):
            table.column_index("\u0662")
        with pytest.raises(DataError, match="out of range"):
            table.column_index("-1")


_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["inf", "-inf", "nan", "-nan", "NaN", "Infinity", "1_0", "+1.5", "1e400",
                     "5e-324", "-0", ".5", "1.", "\u0661\u0662"]),
)
_BAD = st.sampled_from(["bogus", "1__0", "0x10", "1e", "--1", "\u00b2", "N/A", "1x"])
_MARKER_SETS = [("NA", ""), ("-999", "?"), (" x ",), ("nan", "NA", "")]
_PADS = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _csv_files(draw):
    """A CSV text, its markers and a column selection for `load_csv` and its oracle."""
    markers = draw(st.sampled_from(_MARKER_SETS))
    marker_cells = [m.strip() for m in markers]
    n_cols, n_rows = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    bad_rate = draw(st.sampled_from([0, 0, 10, 40, 70]))  # percent of bad cells
    header = draw(st.booleans())
    # header names may look like numbers (sensor ids) or be empty
    names = [draw(st.sampled_from([f"h{c}", f"{101 + c}", ""])) for c in range(n_cols)]
    lines = [",".join(names)] if header else []
    mode = draw(st.sampled_from([None, None, True, False]))
    all_bad = draw(st.integers(-n_rows, n_rows - 1))  # a row of bad cells when >= 0
    for r in range(n_rows):
        cells = []
        for _ in range(n_cols):
            roll = draw(st.integers(0, 99))
            if roll < bad_rate or r == all_bad:
                text = draw(_BAD)
            elif roll < bad_rate + 15:
                text = draw(st.sampled_from(marker_cells))
            else:
                text = draw(_NUMBERS)
            cells.append(draw(_PADS) + text + draw(_PADS))
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    if draw(st.booleans()):
        columns = None
    else:
        picked = draw(st.permutations(range(n_cols)))[:draw(st.integers(1, n_cols))]
        kinds = [draw(st.sampled_from(["int", "str", "name"] if header else ["int", "str"]))
                 for _ in picked]
        columns = [c if k == "int" else str(c) if k == "str" else names[c]
                   for c, k in zip(picked, kinds)]
    return text, markers, columns, mode


@given(_csv_files())
@example(("\nbogus", ("NA", ""), [""], None))  # no data rows and an unknown column: rows first
@example(("a,b\n1\n", ("NA", ""), ["c"], None))  # a short row and an unknown column: rows first
@example(("t,1\nx,2\n", ("NA", ""), [1], None))  # text only in an unselected column
@settings(max_examples=400, deadline=None)
def test_load_csv_matches_the_per_cell_oracle(case):
    _check_per_cell_oracle(case, None)


# half-open data-row ranges for `load_csv(rows=...)`: empty and reversed
# ranges, starts before row 0 and stops far past the last row
_ROW_BOUNDS = st.integers(-3, 10) | st.sampled_from([-10**12, 10**12])
_ROW_RANGES = st.lists(st.tuples(_ROW_BOUNDS, _ROW_BOUNDS), max_size=4)


@given(_csv_files(), _ROW_RANGES)
@example(("v\nx\n1\ny\n", ("NA", ""), None, None), [(1, 2)])  # bad cells only outside
@example(("v\nx\n1\ny\n", ("NA", ""), None, None), [(1, 3)])  # row 3 is named as row 3
@example(("1\n2\n3\n", ("NA", ""), None, None), [(-1, 1), (2, 10**12), (0, -1)])
@settings(max_examples=400, deadline=None)
def test_load_csv_with_rows_matches_the_per_cell_oracle(case, rows):
    _check_per_cell_oracle(case, rows)


def _check_per_cell_oracle(case, rows):
    text, markers, columns, header = case
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "in.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            names, values, missing, row_lines, fields = load_csv_scalar(path, columns, markers,
                                                                        header, rows)
        except ValueError as exc:
            with pytest.raises(DataError) as got:
                load_csv(path, columns=columns, markers=markers, header=header, rows=rows)
            assert str(got.value) == str(exc)
            return
        table = load_csv(path, columns=columns, markers=markers, header=header, rows=rows)
    assert table.columns == names
    assert table.file_fields == fields
    assert table.row_lines.tolist() == row_lines
    assert table.missing.tolist() == missing
    want = b"".join(struct.pack("=d", v) for row in values for v in row)
    assert table.values.dtype == np.float64 and table.values.tobytes() == want


# text that sends a file to the csv.reader path, or tests the numpy path's edges
_EDGES = ['"', '"7"', '"1,5"', "\r", "\r\n", "\n", "\n\n", "\x1c", "\x1d", "\x1e", "\x1f",
          "\x1b", "\x0b", "\x0c", "\t", " ", "\x00", ",", "1_0", "nan", "-inf", "NA",
          "\u00e9", "\u00a0", "\u2028"]


@st.composite
def _ingest_cases(draw):
    """A `_csv_files` case as bytes, with up to three edge strings spliced in anywhere."""
    text, markers, columns, header = draw(_csv_files())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_EDGES)) + text[at:]
    return text.encode(), markers, columns, header


def _same_table(a, b):
    assert a.columns == b.columns and a.file_fields == b.file_fields
    assert a.values.tobytes() == b.values.tobytes()
    assert np.array_equal(a.missing, b.missing)
    assert np.array_equal(a.row_lines, b.row_lines) and a.row_lines.dtype == b.row_lines.dtype
    assert a.source == b.source
    assert np.array_equal(a.line_starts, b.line_starts)


@given(_ingest_cases())
@example((b"1.5\x1c\n2\n", ("NA", ""), None, None))  # str.strip strips 0x1c, numpy does not
@example((b"t,v\n1\x1c,2\n", ("NA", ""), ["v"], None))  # 0x1c in a column not parsed
@example((b"1_0\r\n\r\n 2 ,x\r\n", ("NA", ""), [0], False))
@example((b"a,b\n1,2\n3\n", ("NA", ""), None, None))  # a short row
@example((b"a,b\n1,2\r3,4\n", ("NA", ""), None, None))  # a lone CR ends a line
@settings(max_examples=400, deadline=None)
def test_numpy_path_matches_the_csv_reader_path(case):
    raw, markers, columns, header = case
    markers = frozenset(m.strip() for m in markers)
    fast = _load_fast(raw, columns, markers, header, None)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "in.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            want = _load_records(raw, path, columns, markers, header, None)
        except DataError as exc:
            assert fast is None
            with pytest.raises(DataError) as got:
                load_csv(path, columns=columns, markers=markers, header=header)
            assert str(got.value) == str(exc)
            return
        got = load_csv(path, columns=columns, markers=markers, header=header)
    _same_table(got, want)
    # quote-free ASCII without NUL, 0x1c-0x1f or a lone CR never falls back
    eligible = (raw.isascii() and not any(c in raw for c in b'"\x00\x1c\x1d\x1e\x1f')
                and raw.count(b"\r") == raw.count(b"\r\n"))
    assert (fast is not None) == eligible
    if fast is not None:
        _same_table(fast, want)


@given(_ingest_cases(), _ROW_RANGES)
@example((b"v\n1\nx\n3\n", ("NA", ""), None, None), [(2, 3)])  # a bad cell not cast
@example((b"v\n1\nx\n3\n", ("NA", ""), None, None), [(-1, 1)])  # -1 does not wrap
@example((b"v\n1\n2,3\n4\n", ("NA", ""), None, None), [(0, 1)])  # a short row anywhere
@settings(max_examples=400, deadline=None)
def test_both_paths_cast_only_the_rows_asked_for(case, rows):
    raw, markers, columns, header = case
    markers = frozenset(m.strip() for m in markers)
    fast = _load_fast(raw, columns, markers, header, rows)
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "in.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            full, full_error = _load_records(raw, path, columns, markers, header, None), None
        except DataError as exc:
            full, full_error = None, str(exc)
        try:
            want = _load_records(raw, path, columns, markers, header, rows)
        except DataError as exc:
            assert fast is None
            with pytest.raises(DataError) as got:
                load_csv(path, columns=columns, markers=markers, header=header, rows=rows)
            assert str(got.value) == str(exc)
            # a load that casts fewer cells fails only where a full load fails
            assert full is None
            bad_cell = re.match(r".*: row (\d+), column .*: cannot parse ", str(exc))
            if bad_cell is None:
                assert str(exc) == full_error
            else:
                assert any(a <= int(bad_cell[1]) - 1 < b for a, b in rows)
            return
        got = load_csv(path, columns=columns, markers=markers, header=header, rows=rows)
    _same_table(got, want)
    eligible = (raw.isascii() and not any(c in raw for c in b'"\x00\x1c\x1d\x1e\x1f')
                and raw.count(b"\r") == raw.count(b"\r\n"))
    assert (fast is not None) == eligible
    if fast is not None:
        _same_table(fast, want)
    cast = np.array([any(a <= r < b for a, b in rows) for r in range(want.n_rows)], dtype=bool)
    assert np.isnan(want.values[~cast]).all() and want.missing[~cast].all()
    if full is None:  # only a cell no range casts fails the full load
        bad_cell = re.match(r".*: row (\d+), column .*: cannot parse ", full_error)
        assert bad_cell is not None and not cast[int(bad_cell[1]) - 1]
        return
    assert want.values[cast].tobytes() == full.values[cast].tobytes()
    assert np.array_equal(want.missing[cast], full.missing[cast])
    assert want.columns == full.columns and want.file_fields == full.file_fields
    assert np.array_equal(want.row_lines, full.row_lines) and want.source == full.source
    assert np.array_equal(want.line_starts, full.line_starts)


@st.composite
def _plain_files(draw):
    """Quote-free ASCII CSV text of numbers and missing markers with every
    record equally wide, LF or CRLF, with or without a last line ending;
    its header flag for `load_csv`, and each data row's cells."""
    n_cols, n_rows = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    # a lone empty cell would make an empty line, which holds no record
    markers = ["NA", ""] if n_cols > 1 else ["NA"]
    cell = st.one_of(st.floats().map(repr), st.integers(-10**9, 10**9).map(str),
                     st.sampled_from(markers))
    rows = [[draw(cell) for _ in range(n_cols)] for _ in range(n_rows)]
    header = draw(st.booleans())
    lines = [",".join(f"h{c}" for c in range(n_cols))] if header else []
    lines += [",".join(draw(st.sampled_from(["", " "])) + c for c in row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    return text.encode("ascii"), draw(st.sampled_from([header, None])), rows


@given(_plain_files(), st.one_of(st.none(), _ROW_RANGES))
@example((b"v\n1\n2", None, [["1"], ["2"]]), None)
@example((b"a,b\r\n1,NA\r\n,2", True, [["1", "NA"], ["", "2"]]), [(1, 2)])
@settings(max_examples=200, deadline=None, derandomize=True)
def test_quote_free_files_of_even_width_never_reach_the_csv_reader(case, rows):
    raw, header, cells = case

    def csv_reader_path(*args):
        raise AssertionError("a quote-free file of even width reached _load_records")

    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(work, "in.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        mp.setattr(data_module, "_load_records", csv_reader_path)
        table = load_csv(path, header=header, rows=rows)
    want = np.array([[np.nan if c.strip() in ("NA", "") else float(c) for c in row]
                     for row in cells])
    cast = np.ones(len(cells), dtype=bool) if rows is None else np.array(
        [any(a <= r < b for a, b in rows) for r in range(len(cells))], dtype=bool)
    want[~cast] = np.nan
    missing = ~np.isfinite(want)
    assert table.missing.tolist() == missing.tolist()
    assert table.values[~missing].tobytes() == want[~missing].tobytes()


@st.composite
def _rewrite_cases(draw):
    """A CSV with quoted, multi-line and non-ASCII cells, blank lines, LF, CRLF or
    CR endings; the value column; and the data rows to rewrite with their values."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    column = draw(st.integers(0, n_cols - 1))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = draw(st.booleans())
    lines = [",".join(['"h,0"'] + [f"h{c}" for c in range(1, n_cols)])] if header else []
    for _ in range(n_rows):
        cells = []
        for c in range(n_cols):
            x = repr(draw(st.integers(-99, 99)) / 4)
            if c == column:
                cells.append(draw(st.sampled_from([x, f'"{x}"', f'"{x}\n"', f" {x} ", "NA"])))
            else:
                cells.append(draw(st.sampled_from([x, "t", '"a,b"', '"x\r\ny"', '"q""q"',
                                                   "\u00e9", "", '"\n"'])))
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    rows = sorted(draw(st.sets(st.integers(0, n_rows - 1))))
    values = [[draw(st.floats(allow_nan=False, width=64))] for _ in rows]
    return text, column, header, rows, values


@given(_rewrite_cases())
@settings(max_examples=200, deadline=None)
# spliced quote-free records beside records the csv module re-writes:
@example(('1,a\n"2",b\n3,"x\ny"\n4,c\n5,d\n', 0, False, [0, 1, 2, 3], [[0.5], [1.5], [2.5], [-0.0]]))
@example(("v,w\n1,\u00e9\n2,b\n3,c\n", 0, True, [0, 1], [[1e22], [-3.25]]))  # non-ASCII
@example(("1,a\r2,b\r\r3,c", 0, False, [1, 2], [[0.1], [2.0]]))  # CR-only endings
@example(("v,w\r\na,1\r\nb, 2 \r\n", 1, True, [0, 1], [[5e-324], [7.0]]))  # CRLF endings
@example(("1\n2\n\n3\n", 0, False, [0, 2], [[4.0], [-1.5]]))  # single-field records
@example(("a,x,1\nb,y,2\nc,z,3\nd,w,4\ne,v,5", 2, False, [1, 2, 3, 4],
          [[0.25], [0.5], [0.75], [1.0]]))  # adjacent gap rows: one run
def test_rewrite_csv_matches_the_line_by_line_oracle(case):
    text, column, header, rows, values = case
    with tempfile.TemporaryDirectory() as work:
        path, out, ref = (os.path.join(work, n) for n in ("in.csv", "out.csv", "ref.csv"))
        with open(path, "w", newline="") as fh:
            fh.write(text)
        _, _, _, row_lines, fields = load_csv_scalar(path, [column], header=header)
        with open(ref, "w", newline="") as fh:
            fh.write(rewrite_lines(path, row_lines, fields, rows, values))
        rewrite_csv(out, load_csv(path, columns=[column], header=header), rows, values)
        with open(out, "rb") as got, open(ref, "rb") as want:
            assert got.read() == want.read()


@pytest.mark.parametrize("rows, values, message", [
    ([2, 0], [[1.0], [2.0]], "rows must strictly increase, got row 0 after row 2"),
    ([1, 1], [[1.0], [2.0]], "rows must strictly increase, got row 1 after row 1"),
    ([0, 1, 2], [[1.0]], "3 rows but 1 value rows"),
    ([-1], [[1.0]], "row -1 is outside the table's 4 data rows"),
    ([0], [[1.0, 2.0]], r"each row needs 1 value\(s\)"),
    ([7], [[1.0]], "row 7 is outside the table's 4 data rows"),
], ids=["decreasing", "repeated", "fewer-values", "negative", "wide-values", "past-the-end"])
def test_rewrite_csv_rejects_bad_rows_and_values(tmp_path, rows, values, message):
    path, out = tmp_path / "in.csv", tmp_path / "out.csv"
    path.write_bytes(b"v,w\n1,a\n2,b\n3,c\n4,d\n")
    with pytest.raises(DataError, match=message):
        rewrite_csv(out, load_csv(path, columns=["v"]), rows, values)
    assert not out.exists()


def test_rewrite_csv_keeps_a_multi_line_record_whole(tmp_path):
    path, out = tmp_path / "in.csv", tmp_path / "out.csv"
    path.write_bytes(b'v,note\r\n1,"a\r\nb"\r\n2,x\n\n3,"c,d"')
    table = load_csv(path, columns=["v"])
    assert table.row_lines.tolist() == [1, 3, 5]
    rewrite_csv(out, table, [0, 2], [[0.25], [-4.0]])
    assert out.read_bytes() == b'v,note\r\n0.25,"a\r\nb"\r\n2,x\n\n-4.0,"c,d"'


@pytest.mark.parametrize("onto_input", [False, True], ids=["existing-out", "out-is-the-input"])
def test_rewrite_csv_that_fails_partway_leaves_the_old_file(tmp_path, monkeypatch, onto_input):
    path = tmp_path / "in.csv"
    path.write_bytes(b'v,w\n1,a\n2,b\n3,c\n4,"d"\n')
    out = path if onto_input else tmp_path / "out.csv"
    if not onto_input:
        out.write_bytes(b"the file that was there\n")
    old = out.read_bytes()
    table = load_csv(path, columns=["v"])

    def disk_full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    # rows 0 and 2 are written before the quoted record of row 3 is rewritten
    monkeypatch.setattr(data_module, "_rewrite_record", disk_full)
    with pytest.raises(OSError, match="No space left"):
        rewrite_csv(out, table, [0, 2, 3], [[5.0], [6.0], [7.0]])
    assert out.read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == sorted({"in.csv", out.name})


def test_rewrite_csv_creates_its_output_as_open_does(tmp_path):
    path, out = tmp_path / "in.csv", tmp_path / "out.csv"
    path.write_bytes(b"v\n1\n2\n")
    table = load_csv(path, columns=["v"])
    old_mask = os.umask(0o027)
    try:
        rewrite_csv(out, table, [1], [[0.5]])
    finally:
        os.umask(old_mask)
    assert out.read_bytes() == b"v\n1\n0.5\n"
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert sorted(os.listdir(tmp_path)) == ["in.csv", "out.csv"]


class TestSplit:
    def test_last_eighty_percent_is_test(self):
        table = make_table(np.arange(10.0))
        train, test = split_train_test(table, 0.8)
        assert np.array_equal(train.values[:, 0], [0.0, 1.0])
        assert np.array_equal(test.values[:, 0], np.arange(2.0, 10.0))

    def test_even_split(self):
        train, test = split_train_test(make_table(np.arange(10.0)), 0.5)
        assert train.n_rows == 5 and test.n_rows == 5

    def test_ceiling_can_empty_the_train_side(self):
        with pytest.raises(DataError, match="empty"):
            split_train_test(make_table(np.arange(2.0)), 0.9)

    def test_fraction_bounds(self):
        with pytest.raises(DataError):
            split_train_test(make_table(np.arange(5.0)), 1.0)

    def test_no_row_leakage(self):
        table = make_table(np.arange(30.0))
        train, test = split_train_test(table, 0.8)
        assert set(train.values[:, 0]).isdisjoint(test.values[:, 0])
        assert train.n_rows + test.n_rows == 30


class TestExtractWindows:
    def test_exact_fit(self):
        table = make_table(np.arange(1.0, 10.0))
        windows = extract_windows(table, WindowSpec(3, 3, 3, 1))
        assert len(windows) == 1
        w = windows[0]
        assert np.array_equal(w.before[:, 0], [1, 2, 3])
        assert np.array_equal(w.missing[:, 0], [4, 5, 6])
        assert np.array_equal(w.after[:, 0], [7, 8, 9])

    def test_one_extra_row_gives_two_windows(self):
        windows = extract_windows(make_table(np.arange(10.0)), WindowSpec(3, 3, 3, 1))
        assert len(windows) == 2

    def test_masked_row_drops_covering_window(self):
        values = np.arange(10.0)
        missing = np.zeros((10, 1), dtype=bool)
        missing[0] = True  # inside the first window only
        windows = extract_windows(make_table(values, missing), WindowSpec(3, 3, 3, 1))
        assert len(windows) == 1
        assert np.array_equal(windows[0].before[:, 0], [1, 2, 3])
        # a mask shared by every candidate window empties the result
        missing_mid = np.zeros((10, 1), dtype=bool)
        missing_mid[4] = True
        assert extract_windows(make_table(values, missing_mid), WindowSpec(3, 3, 3, 1)) == []

    def test_short_series_warns_and_returns_empty(self):
        windows = extract_windows(make_table(np.arange(5.0)), WindowSpec(3, 3, 3, 1))
        assert windows == []

    @pytest.mark.parametrize("stride", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", range(9, 31))
    def test_counts_match_brute_force_enumeration(self, n, stride):
        spec = WindowSpec(3, 2, 4, stride)
        table = make_table(np.arange(float(n)))
        windows = extract_windows(table, spec)
        starts = enumerate_window_starts(n, spec.total, stride)
        assert len(windows) == len(starts)
        # closed-form count for an unmasked series
        assert len(windows) == (n - spec.total) // stride + 1
        for w, s in zip(windows, starts):
            assert w.before[0, 0] == float(s)

    def test_multicolumn_windows(self):
        values = np.stack([np.arange(9.0), np.arange(9.0) * 10], axis=1)
        windows = extract_windows(SeriesTable(["a", "b"], values, np.zeros((9, 2), bool)),
                                  WindowSpec(3, 3, 3, 1))
        assert windows[0].missing.shape == (3, 2)
        assert np.array_equal(windows[0].missing[:, 1], [30.0, 40.0, 50.0])


class TestNormalization:
    def test_mean_maps_to_zero(self):
        stats = compute_norm_stats(make_table([0.0, 2.0]))
        assert normalize(np.array([stats.mean[0]]), stats)[0] == 0.0

    def test_population_std(self):
        stats = compute_norm_stats(make_table([0.0, 2.0]))
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0  # population convention, denominator n
        assert normalize(np.array([[2.0]]), stats)[0, 0] == 1.0

    def test_round_trip(self):
        table = make_table(np.linspace(-5, 13, 40))
        stats = compute_norm_stats(table)
        x = table.values
        assert np.allclose(denormalize(normalize(x, stats), stats), x, atol=1e-12, rtol=0)

    def test_constant_column_rejected(self):
        with pytest.raises(DataError, match="constant"):
            compute_norm_stats(make_table([3.0, 3.0, 3.0]))

    def test_masked_cells_excluded_from_stats(self):
        missing = np.array([[False], [False], [True]])
        stats = compute_norm_stats(make_table([0.0, 2.0, 999.0], missing))
        assert stats.mean[0] == 1.0

    def test_normalize_table_keeps_mask(self):
        missing = np.array([[False], [True], [False]])
        table = make_table([0.0, np.nan, 2.0], missing)
        out = normalize_table(table, compute_norm_stats(table))
        assert out.missing[1, 0]


class TestSynth:
    def test_sine_exact_samples(self):
        table = synth("sine", 8, noise_std=0.0, seed=0, period=4.0)
        assert np.allclose(table.values[:, 0], [0, 1, 0, -1, 0, 1, 0, -1], atol=1e-12)

    def test_same_seed_identical(self):
        a = synth("sum-of-sines", 200, noise_std=0.1, seed=4)
        b = synth("sum-of-sines", 200, noise_std=0.1, seed=4)
        assert np.array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = synth("sum-of-sines", 100, seed=1)
        b = synth("sum-of-sines", 100, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_random_walk_increment_scale(self):
        table = synth("random-walk", 100_000, noise_std=0.5, seed=8)
        increments = np.diff(table.values[:, 0])
        assert abs(increments.std() - 0.5) / 0.5 < 0.1

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            synth("sawtooth", 10)

    @pytest.mark.parametrize("period", [0.0, -50.0, float("nan"), float("inf")])
    def test_period_must_be_finite_and_positive(self, period):
        with pytest.raises(DataError, match="period"):
            synth("sine", 10, period=period)

    @pytest.mark.parametrize("noise", [-1.0, float("nan"), float("inf")])
    def test_noise_must_be_finite_and_non_negative(self, noise):
        with pytest.raises(DataError, match="noise"):
            synth("random-walk", 10, noise_std=noise)


def test_norm_stats_ignore_test_rows():
    # shifting the test tail must not move statistics computed on the train side
    base = np.concatenate([np.linspace(0, 1, 20), np.linspace(5, 9, 20)])
    table = make_table(base)
    train, _ = split_train_test(table, 0.5)
    stats = compute_norm_stats(train)
    shifted = base.copy()
    shifted[20:] += 1000.0
    train2, _ = split_train_test(make_table(shifted), 0.5)
    stats2 = compute_norm_stats(train2)
    assert stats.mean[0] == stats2.mean[0]
    assert stats.std[0] == stats2.std[0]
