import csv
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill.checkpoint import load_checkpoint, save_checkpoint
from gapfill.cli import main
from gapfill.data import NormStats, load_csv
from gapfill.model import NetworkConfig, init_model_params, iter_params
from gapfill.numerics import Rng

TRAIN_CFG = """
[model]
hidden_dim = 6
[training]
epochs = 4
seed = 0
lr = {lr}
batch_size = 16
[data]
path = {data}
before_len = 4
gap_len = 3
after_len = 4
test_fraction = 0.5
[paths]
checkpoint = {ckpt}
train_log = {log}
"""


@pytest.fixture()
def sine_csv(tmp_path):
    path = tmp_path / "sine.csv"
    rc = main(["synth", "--kind", "sine", "--n", "240", "--seed", "0",
               "--noise", "0.05", "--period", "20", "--out", str(path)])
    assert rc == 0
    return path


def write_train_cfg(tmp_path, data, lr="0.005"):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TRAIN_CFG.format(data=data, lr=lr,
                                         ckpt=tmp_path / "model.ckpt", log=tmp_path / "log"))
    return cfg_path


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path, sine_csv):
        table = load_csv(sine_csv)
        assert table.n_rows == 240
        assert table.columns == ["value"]

    def test_repeat_invocations_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--kind", "sum-of-sines", "--n", "100", "--seed", "3", "--noise", "0.1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_precision(self, tmp_path):
        out = tmp_path / "walk.csv"
        assert main(["synth", "--kind", "random-walk", "--n", "50", "--seed", "1",
                     "--noise", "0.3", "--out", str(out)]) == 0
        from gapfill.data import synth
        direct = synth("random-walk", 50, noise_std=0.3, seed=1)
        loaded = load_csv(out)
        assert np.allclose(loaded.values, direct.values, atol=1e-12, rtol=0)


class TestTrain:
    def test_smoke_train_writes_artifacts(self, tmp_path, sine_csv, capsys):
        cfg = write_train_cfg(tmp_path, sine_csv)
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "model.ckpt").exists()
        log_text = (tmp_path / "log.txt").read_text()
        assert "best epoch" in log_text
        rows = (tmp_path / "log.csv").read_text().strip().splitlines()
        vals = [float(r.split(",")[2]) for r in rows[1:]]
        assert vals[-1] < vals[0]  # validation improved on the sine task

    def test_zero_lr_preserves_initial_params(self, tmp_path, sine_csv):
        cfg = write_train_cfg(tmp_path, sine_csv, lr="0")
        assert main(["train", "--config", str(cfg)]) == 0
        params, _ = load_checkpoint(tmp_path / "model.ckpt")
        fresh = init_model_params(params.config, Rng(0))
        for (pa, ta), (_, tb) in zip(iter_params(params), iter_params(fresh)):
            assert np.array_equal(ta, tb), pa

    def test_missing_data_file_is_clean_error(self, tmp_path, capsys):
        cfg = write_train_cfg(tmp_path, tmp_path / "absent.csv")
        assert main(["train", "--config", str(cfg)]) == 1
        assert not (tmp_path / "model.ckpt").exists()
        assert "error" in capsys.readouterr().err

    def test_bad_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[model]\nhidden_dim = lots\n")
        assert main(["train", "--config", str(bad)]) == 1
        assert "model.hidden_dim" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path, sine_csv):
        cfg = write_train_cfg(tmp_path, sine_csv, lr="0")
        assert main(["train", "--config", str(cfg), "--seed", "5"]) == 0
        params, _ = load_checkpoint(tmp_path / "model.ckpt")
        fresh = init_model_params(params.config, Rng(5))
        for (_, ta), (_, tb) in zip(iter_params(params), iter_params(fresh)):
            assert np.array_equal(ta, tb)


class TestDeterminismAndPersistence:
    def test_two_runs_bit_identical_checkpoints(self, tmp_path, sine_csv):
        cfg = write_train_cfg(tmp_path, sine_csv)
        assert main(["train", "--config", str(cfg)]) == 0
        first = (tmp_path / "model.ckpt").read_bytes()
        assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "model.ckpt").read_bytes() == first

    def test_checkpoint_round_trip_same_imputation(self, tmp_path, sine_csv):
        cfg = write_train_cfg(tmp_path, sine_csv)
        assert main(["train", "--config", str(cfg)]) == 0
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        args = ["impute", "--checkpoint", str(tmp_path / "model.ckpt"),
                "--data", str(sine_csv), "--gap", "30:3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestImpute:
    @pytest.fixture()
    def trained(self, tmp_path, sine_csv):
        cfg = write_train_cfg(tmp_path, sine_csv)
        assert main(["train", "--config", str(cfg)]) == 0
        return tmp_path / "model.ckpt"

    def test_only_gap_cells_change(self, tmp_path, sine_csv, trained):
        out = tmp_path / "filled.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "50:3", "--out", str(out)]) == 0
        original = sine_csv.read_text().splitlines()
        filled = out.read_text().splitlines()
        assert len(original) == len(filled)
        changed = [i for i, (a, b) in enumerate(zip(original, filled)) if a != b]
        assert changed == [51, 52, 53]  # header occupies line 0

    def test_zero_length_gap_copies_input(self, tmp_path, sine_csv, trained):
        out = tmp_path / "copy.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "50:0", "--out", str(out)]) == 0
        assert out.read_bytes() == sine_csv.read_bytes()

    def test_filled_values_in_sane_range(self, tmp_path, sine_csv, trained):
        out = tmp_path / "filled.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "60:3", "--out", str(out)]) == 0
        table = load_csv(out)
        assert np.all(np.abs(table.values[60:63, 0]) < 2.0)

    def test_gap_too_close_to_edge_names_gap(self, tmp_path, sine_csv, trained, capsys):
        out = tmp_path / "x.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "1:3", "--out", str(out)]) == 1
        assert "1:3" in capsys.readouterr().err

    def test_overlapping_gaps_rejected(self, tmp_path, sine_csv, trained, capsys):
        out = tmp_path / "x.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "50:5", "--gap", "52:5", "--out", str(out)]) == 1
        assert "overlap" in capsys.readouterr().err

    def test_marker_cells_inside_gap_are_fillable(self, tmp_path, trained, sine_csv):
        # replace three observed cells with NA, then fill that hole
        lines = sine_csv.read_text().splitlines()
        for i in (51, 52, 53):
            lines[i] = "NA"
        holed = tmp_path / "holed.csv"
        holed.write_text("\n".join(lines) + "\n")
        out = tmp_path / "refilled.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(holed),
                     "--gap", "50:3", "--out", str(out)]) == 0
        table = load_csv(out)
        assert not table.missing.any()

    def test_blank_line_after_the_gap_does_not_shift_the_writes(self, tmp_path, trained,
                                                                 sine_csv):
        lines = sine_csv.read_text().splitlines()
        lines.insert(50, "")  # after data row 48 (line 0 is the header)
        blanked = tmp_path / "blanked.csv"
        blanked.write_text("\n".join(lines) + "\n")
        out = tmp_path / "filled.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(blanked),
                     "--gap", "20:2", "--out", str(out)]) == 0
        filled = out.read_text().splitlines()
        assert len(filled) == len(lines)
        changed = [i for i, (a, b) in enumerate(zip(lines, filled)) if a != b]
        assert changed == [21, 22]

    def test_gaps_of_equal_length_are_filled_like_single_gaps(self, tmp_path, trained,
                                                              sine_csv):
        together = tmp_path / "together.csv"
        args = ["impute", "--checkpoint", str(trained), "--data", str(sine_csv)]
        assert main(args + ["--gap", "40:3", "--gap", "90:3", "--gap", "150:5",
                            "--out", str(together)]) == 0
        table = load_csv(together).values[:, 0]
        for gap in ("40:3", "90:3", "150:5"):
            alone = tmp_path / f"alone-{gap.replace(':', '-')}.csv"
            assert main(args + ["--gap", gap, "--out", str(alone)]) == 0
            start, length = map(int, gap.split(":"))
            single = load_csv(alone).values[start:start + length, 0]
            assert np.allclose(table[start:start + length], single, rtol=0, atol=1e-12)

    def test_context_must_be_observed(self, tmp_path, trained, sine_csv, capsys):
        lines = sine_csv.read_text().splitlines()
        lines[51] = "NA"  # data row 50 (line 0 is the header)
        holed = tmp_path / "holed.csv"
        holed.write_text("\n".join(lines) + "\n")
        assert main(["impute", "--checkpoint", str(trained), "--data", str(holed),
                     "--gap", "50:3", "--out", str(tmp_path / "x.csv")]) == 0
        capsys.readouterr()
        assert main(["impute", "--checkpoint", str(trained), "--data", str(holed),
                     "--gap", "51:3", "--out", str(tmp_path / "y.csv")]) == 1
        assert "observed" in capsys.readouterr().err


class TestEval:
    def test_eval_writes_report_and_ranking(self, tmp_path, capsys):
        data = tmp_path / "wave.csv"
        assert main(["synth", "--kind", "sine", "--n", "160", "--seed", "2",
                     "--noise", "0.05", "--period", "16", "--out", str(data)]) == 0
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"""
[model]
hidden_dim = 4
[training]
epochs = 3
seed = 0
[data]
before_len = 4
gap_len = 3
after_len = 4
test_fraction = 0.5
[paths]
report = {tmp_path / 'report'}
borda = {tmp_path / 'borda'}
[eval]
variants = seq2seqImp,RNN_FW,RNN_BW,seq2seq

[dataset:wave]
path = {data}
columns = 0
""")
        assert main(["eval", "--config", str(cfg)]) == 0
        report_csv = (tmp_path / "report.csv").read_text()
        assert report_csv.count("\n") == 1 + 4  # header + one line per variant
        assert "wave:0" in report_csv
        borda_txt = (tmp_path / "borda.txt").read_text()
        assert "MAE" in borda_txt and "MRE" in borda_txt
        out = capsys.readouterr().out
        assert "seq2seqImp" in out

    def test_eval_without_datasets_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("[eval]\nvariants = seq2seq\n")
        assert main(["eval", "--config", str(cfg)]) == 1
        assert "dataset" in capsys.readouterr().err


def _physical_lines(text):
    return io.StringIO(text, newline="").readlines()


def _record_blocks(text):
    """The text of each CSV record, blank lines included, in file order."""
    lines = _physical_lines(text)
    reader = csv.reader(lines)
    blocks, start = [], 0
    for _ in reader:
        blocks.append("".join(lines[start:reader.line_num]))
        start = reader.line_num
    return blocks


def _cell_text(value, quote, split_line):
    text = repr(value)
    if split_line:
        return f'"{text}\n"'  # a quoted cell holding a line break spans two lines
    return f'"{text}"' if quote else text


@st.composite
def csv_layouts(draw):
    """A numeric CSV with blank lines, quoted and multi-line cells, LF or CRLF
    endings, with or without a header; plus one or two fillable gaps."""
    n_rows = draw(st.integers(24, 36))
    n_cols = draw(st.integers(1, 3))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    header = draw(st.booleans())
    blank_before = draw(st.sets(st.integers(0, n_rows - 1), max_size=4))
    column = draw(st.integers(0, n_cols - 1))
    half = n_rows // 2
    gaps = []
    for lo, hi in draw(st.sampled_from([[(0, half)], [(half, n_rows)],
                                        [(0, half), (half, n_rows)]])):
        length = draw(st.integers(1, 3))  # the gap and its context stay inside [lo, hi)
        gaps.append((draw(st.integers(lo + length, hi - 2 * length)), length))
    blocks, line_of_row = [], []  # the text of each record; the block of each data row
    if header:
        names = ['"t,0"'] + [f"c{k}" for k in range(1, n_cols)]
        blocks.append(",".join(names) + eol)
    for r in range(n_rows):
        blocks += [eol] if r in blank_before else []
        cells = [_cell_text(draw(st.integers(-800, 800)) / 8.0, draw(st.booleans()),
                            draw(st.integers(0, 9)) == 0) for _ in range(n_cols)]
        line_of_row.append(len(blocks))
        blocks.append(",".join(cells) + eol)
    if draw(st.booleans()):
        blocks.append(eol)  # a trailing blank line
    elif draw(st.booleans()):
        blocks[-1] = blocks[-1][:-len(eol)]  # no final line ending
    return blocks, line_of_row, column, gaps, eol


@given(csv_layouts())
@settings(max_examples=40, deadline=None)
def test_impute_changes_only_gap_cells(layout):
    blocks, line_of_row, column, gaps, eol = layout
    text = "".join(blocks)
    with tempfile.TemporaryDirectory() as work:
        ckpt, data, out = (os.path.join(work, n) for n in ("m.ckpt", "in.csv", "out.csv"))
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), Rng(0))
        save_checkpoint(ckpt, params, NormStats(np.zeros(1), np.ones(1)))
        with open(data, "w", newline="") as fh:
            fh.write(text)
        argv = ["impute", "--checkpoint", ckpt, "--data", data, "--column", str(column),
                "--out", out]
        for start, length in gaps:
            argv += ["--gap", f"{start}:{length}"]
        assert main(argv) == 0
        with open(out, newline="") as fh:
            result = fh.read()

    gap_blocks = {line_of_row[r] for start, length in gaps for r in range(start, start + length)}
    out_blocks = _record_blocks(result)
    assert len(out_blocks) == len(blocks)
    for b, (block, got) in enumerate(zip(blocks, out_blocks)):
        if b not in gap_blocks:
            assert got == block  # copied byte for byte
            continue
        assert got.endswith(eol) == block.endswith(eol)
        old, new = (next(csv.reader(_physical_lines(t))) for t in (block, got))
        assert len(new) == len(old)
        for k, (a, c) in enumerate(zip(old, new)):
            if k == column:
                assert math.isfinite(float(c))
            else:
                assert a == c


class TestGradcheck:
    def test_passes_and_reports(self, capsys):
        assert main(["gradcheck", "--instances", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max relative error" in out


class TestMisc:
    def test_print_defaults(self, capsys):
        assert main(["--print-defaults"]) == 0
        out = capsys.readouterr().out
        assert "[model]" in out and "hidden_dim = 64" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "synth" in capsys.readouterr().out


class TestExitCodes:
    def test_divergence_exits_three_without_checkpoint(self, tmp_path, sine_csv, capsys):
        cfg = write_train_cfg(tmp_path, sine_csv, lr="1e200")
        assert main(["train", "--config", str(cfg)]) == 3
        assert not (tmp_path / "model.ckpt").exists()
        assert "diverged" in capsys.readouterr().err

    def test_partial_benchmark_exits_two(self, tmp_path, capsys):
        data = tmp_path / "wave.csv"
        assert main(["synth", "--kind", "sine", "--n", "140", "--seed", "1",
                     "--noise", "0.05", "--period", "16", "--out", str(data)]) == 0
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"""
[model]
hidden_dim = 4
[training]
epochs = 2
lr = 1e200
[data]
before_len = 4
gap_len = 3
after_len = 4
test_fraction = 0.5
[paths]
report = {tmp_path / 'report'}
borda = {tmp_path / 'borda'}
[eval]
variants = seq2seqImp,seq2seq

[dataset:wave]
path = {data}
""")
        assert main(["eval", "--config", str(cfg)]) == 2
        report = (tmp_path / "report.csv").read_text()
        assert "failed" in report
        assert not (tmp_path / "borda.txt").exists()

    def test_multivariate_column_count_enforced(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("a,b\n" + "\n".join(f"{i},{i * 2}" for i in range(40)) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"""
[model]
hidden_dim = 3
input_dim = 2
[training]
epochs = 1
[data]
path = {data}
columns = 0
before_len = 3
gap_len = 2
after_len = 3
test_fraction = 0.5
[paths]
checkpoint = {tmp_path / 'm.ckpt'}
train_log = {tmp_path / 'log'}
""")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "data.columns" in capsys.readouterr().err


def test_eval_dataset_with_too_few_windows_exits_two(tmp_path, capsys):
    good, short = tmp_path / "good.csv", tmp_path / "short.csv"
    assert main(["synth", "--kind", "sine", "--n", "140", "--seed", "1",
                 "--period", "16", "--out", str(good)]) == 0
    assert main(["synth", "--kind", "sine", "--n", "22", "--seed", "1",
                 "--period", "16", "--out", str(short)]) == 0
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"""
[model]
hidden_dim = 3
[training]
epochs = 1
[data]
before_len = 4
gap_len = 3
after_len = 4
test_fraction = 0.5
[paths]
report = {tmp_path / 'report'}
borda = {tmp_path / 'borda'}
[eval]
variants = seq2seqImp,seq2seq

[dataset:good]
path = {good}

[dataset:short]
path = {short}
""")
    assert main(["eval", "--config", str(cfg), "--jobs", "2"]) == 2
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    status = {tuple(r.split(",")[:2]): r.split(",")[-1] for r in rows}
    assert status[("good:0", "seq2seqImp")] == "ok"
    assert status[("short:0", "seq2seqImp")] == "failed"
    assert "2 cell(s) failed" in capsys.readouterr().err


def test_parallel_eval_matches_sequential(tmp_path):
    data = tmp_path / "wave.csv"
    assert main(["synth", "--kind", "sine", "--n", "160", "--seed", "2",
                 "--noise", "0.05", "--period", "16", "--out", str(data)]) == 0
    body = f"""
[model]
hidden_dim = 4
[training]
epochs = 2
seed = 0
[data]
before_len = 4
gap_len = 3
after_len = 4
test_fraction = 0.5
[paths]
report = {{report}}
borda = {{borda}}
[eval]
variants = seq2seqImp,seq2seq

[dataset:wave]
path = {data}
"""
    seq_cfg = tmp_path / "seq.cfg"
    seq_cfg.write_text(body.format(report=tmp_path / "seq_report", borda=tmp_path / "seq_borda"))
    par_cfg = tmp_path / "par.cfg"
    par_cfg.write_text(body.format(report=tmp_path / "par_report", borda=tmp_path / "par_borda"))
    assert main(["eval", "--config", str(seq_cfg)]) == 0
    assert main(["eval", "--config", str(par_cfg), "--jobs", "2"]) == 0
    assert (tmp_path / "seq_report.csv").read_text() == (tmp_path / "par_report.csv").read_text()


def test_multivariate_train_and_impute_end_to_end(tmp_path):
    import math
    rows = ["a,b"] + [f"{math.sin(i / 5):.6f},{math.cos(i / 5):.6f}" for i in range(120)]
    data = tmp_path / "two.csv"
    data.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
[model]
hidden_dim = 4
input_dim = 2
[training]
epochs = 2
seed = 0
[data]
path = {data}
columns = a,b
before_len = 3
gap_len = 2
after_len = 3
test_fraction = 0.5
[paths]
checkpoint = {tmp_path / 'm.ckpt'}
train_log = {tmp_path / 'log'}
""")
    assert main(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "filled.csv"
    assert main(["impute", "--checkpoint", str(tmp_path / "m.ckpt"), "--data", str(data),
                 "--column", "a", "--column", "b", "--gap", "30:2", "--out", str(out)]) == 0
    original = data.read_text().splitlines()
    filled = out.read_text().splitlines()
    changed = [i for i, (x, y) in enumerate(zip(original, filled)) if x != y]
    assert changed == [31, 32]
