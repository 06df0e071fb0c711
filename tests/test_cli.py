import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapfill
from gapfill.checkpoint import load_checkpoint, save_checkpoint
from gapfill.cli import main
from gapfill.data import NormStats, load_csv
from gapfill.model import NetworkConfig, impute, init_model_params, iter_params
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


# `gapfill impute` runs the model in float32, and BLAS may sum a batch of
# one row in another order than a larger batch, so a gap's fill can move
# by a few float32 ulps with the other gaps of its call (data here is O(1))
BATCH_ATOL_32 = 1e-6


def untrained_checkpoint(path, input_dim=1):
    params = init_model_params(NetworkConfig(input_dim=input_dim, hidden_dim=2), Rng(0))
    save_checkpoint(path, params, NormStats(np.zeros(input_dim), np.ones(input_dim)))
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

    @pytest.mark.parametrize("flags", [["--period", "0"], ["--period", "nan"],
                                       ["--noise", "-1"], ["--noise", "nan"]])
    def test_bad_period_or_noise_is_a_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "s.csv"
        assert main(["synth", "--n", "20", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


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

    def test_nan_and_inf_cells_train_like_missing_markers(self, tmp_path, sine_csv):
        lines = sine_csv.read_text().splitlines(keepends=True)
        checkpoints = []
        for cell in ("NA", "nan", "inf", "-inf"):
            data = tmp_path / f"{cell}.csv"
            data.write_text("".join(lines[:31] + [cell + "\n"] + lines[32:]))
            cfg = write_train_cfg(tmp_path, data)
            assert main(["train", "--config", str(cfg)]) == 0, cell
            checkpoints.append((tmp_path / "model.ckpt").read_bytes())
        assert checkpoints[1:] == checkpoints[:1] * 3

    def test_data_header_key_reads_a_numeric_header_row(self, tmp_path, sine_csv, capsys):
        # a sensor id as the selected column's name: the first row reads as data too
        lines = sine_csv.read_text().splitlines(keepends=True)
        data = tmp_path / "ids.csv"
        data.write_text("".join(["time,101\n"] + [f"t{r},{line}" for r, line in
                                                   enumerate(lines[1:])]))
        cfg = write_train_cfg(tmp_path, data)
        cfg.write_text(cfg.read_text().replace("[data]\n", "[data]\ncolumns = 1\n"))
        assert main(["train", "--config", str(cfg)]) == 1
        assert "set header to yes or no" in capsys.readouterr().err
        cfg.write_text(cfg.read_text().replace("[data]\n", "[data]\nheader = yes\n"))
        assert main(["train", "--config", str(cfg)]) == 0

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

    def test_out_a_directory_is_a_usage_error(self, tmp_path, sine_csv, capsys):
        cfg = write_train_cfg(tmp_path, sine_csv)
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main(["train", "--config", str(cfg), "--out", str(folder)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err

    @pytest.mark.parametrize("columns", ["a,a", "b,1"], ids=["repeated", "name-and-index"])
    def test_a_column_selected_twice_is_a_config_error(self, tmp_path, capsys, columns):
        data = tmp_path / "two.csv"
        data.write_text("a,b\n" + "".join(
            f"{math.sin(i / 5)!r},{math.cos(i / 3)!r}\n" for i in range(80)))
        cfg = write_train_cfg(tmp_path, data)
        cfg.write_text(cfg.read_text().replace(
            "[data]\n", f"[data]\ncolumns = {columns}\n").replace(
            "[model]\n", "[model]\ninput_dim = 2\n"))
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: data.columns: file column ")
        assert not (tmp_path / "model.ckpt").exists()

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

    def test_out_may_be_the_input_file(self, tmp_path, sine_csv, trained):
        expected = tmp_path / "filled.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "50:3", "--out", str(expected)]) == 0
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "50:3", "--out", str(sine_csv)]) == 0
        assert sine_csv.read_bytes() == expected.read_bytes()

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
            assert np.allclose(table[start:start + length], single, rtol=0, atol=BATCH_ATOL_32)

    def test_gaps_unlike_the_trained_length_are_filled_independently(self, tmp_path):
        # a model trained on 10-row gaps fills gaps of 1-33 rows in one call,
        # each with a context as long as the gap, beside a timestamp column
        series = tmp_path / "series.csv"
        assert main(["synth", "--kind", "sum-of-sines", "--n", "320", "--seed", "2",
                     "--noise", "0.05", "--out", str(series)]) == 0
        lines = series.read_text().splitlines(keepends=True)
        stamped = tmp_path / "stamped.csv"
        stamped.write_text("".join(["time," + lines[0]] + [
            f"2021-03-{1 + r // 24:02d}T{r % 24:02d}:00,{line}"
            for r, line in enumerate(lines[1:])]))
        cfg = tmp_path / "gap10.cfg"
        cfg.write_text(TRAIN_CFG.format(data=series, lr="0.005", ckpt=tmp_path / "model.ckpt",
                                        log=tmp_path / "log").replace("gap_len = 3",
                                                                      "gap_len = 10"))
        assert main(["train", "--config", str(cfg)]) == 0
        gaps = [(33, 33), (110, 17), (150, 10), (180, 7), (200, 2), (210, 1)]
        args = ["impute", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(stamped),
                "--column", "value"]
        together = tmp_path / "together.csv"
        assert main(args + [a for s, n in gaps for a in ("--gap", f"{s}:{n}")]
                    + ["--out", str(together)]) == 0

        original = stamped.read_text().splitlines()
        filled = together.read_text().splitlines()
        assert len(filled) == len(original)
        gap_rows = {s + k for s, n in gaps for k in range(n)}
        for r, (old, new) in enumerate(zip(original[1:], filled[1:])):
            if r not in gap_rows:
                assert new == old, r
                continue
            assert new.split(",")[0] == old.split(",")[0], r
            assert math.isfinite(float(new.split(",")[1])), r
        values = load_csv(together, columns=["value"]).values[:, 0]
        for start, length in gaps:
            alone = tmp_path / f"alone-{start}.csv"
            assert main(args + ["--gap", f"{start}:{length}", "--out", str(alone)]) == 0
            single = load_csv(alone, columns=["value"]).values[start:start + length, 0]
            assert np.allclose(values[start:start + length], single, rtol=0,
                               atol=BATCH_ATOL_32)

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

    @pytest.mark.parametrize("gaps, named", [
        (["50:3", "55:2"], "50:3"),  # the after context of 50:3 runs into 55:2
        (["50:1", "53:4"], "53:4"),  # the before context of 53:4 runs into 50:1
    ])
    def test_context_that_runs_into_another_gap_is_rejected(self, tmp_path, sine_csv, trained,
                                                           capsys, gaps, named):
        args = ["impute", "--checkpoint", str(trained), "--data", str(sine_csv)]
        out = tmp_path / "x.csv"
        assert main(args + [a for g in gaps for a in ("--gap", g)] + ["--out", str(out)]) == 1
        assert f"gap {named}: context rows must be observed" in capsys.readouterr().err
        assert not out.exists()
        # contexts that touch but do not enter the other gap are fine
        assert main(args + ["--gap", "50:2", "--gap", "56:2", "--out", str(out)]) == 0

    def test_the_model_steps_in_float32(self, tmp_path, sine_csv, trained, monkeypatch):
        dtypes = set()
        step = gapfill.model.lstm_step

        def traced_step(p, x, s):
            new, tape = step(p, x, s)
            dtypes.update(a.dtype for a in (p.w, p.b, x, s.h, s.c, new.h, new.c,
                                            *vars(tape).values()))
            return new, tape

        monkeypatch.setattr(gapfill.model, "lstm_step", traced_step)
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "50:3", "--gap", "90:7", "--out", str(tmp_path / "x.csv")]) == 0
        assert dtypes == {np.dtype(np.float32)}

    def test_fills_match_the_float64_model(self, tmp_path, sine_csv, trained):
        params, stats = load_checkpoint(trained)
        values = load_csv(sine_csv).values[:, 0]
        gaps = [(20, 1), (40, 3), (90, 7), (150, 12), (200, 5)]
        out = tmp_path / "filled.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv), "--out",
                     str(out)] + [a for s, n in gaps for a in ("--gap", f"{s}:{n}")]) == 0
        filled = load_csv(out).values[:, 0]
        norm = (values - stats.mean[0]) / stats.std[0]
        want = impute(params, [norm[s - n:s, None] for s, n in gaps],
                      [norm[s + n:s + 2 * n, None] for s, n in gaps], [n for _, n in gaps])
        got = [(filled[s:s + n] - stats.mean[0]) / stats.std[0] for s, n in gaps]
        # in normalized units: float32 rounding through at most 24 steps of a
        # hidden-6 cell and the merge (the benchmark's hidden-64 models stay
        # within 3.1e-6 over 8 gap sets of 100 gaps)
        for g, w in zip(got, want):
            assert np.allclose(g, w[:, 0], atol=1e-5, rtol=0)
        assert not all(np.array_equal(g, w[:, 0]) for g, w in zip(got, want))

    def test_fills_float32_cannot_hold_are_computed_in_float64(self, tmp_path, sine_csv):
        # a merge weight beyond float32's range: the float32 copy holds inf
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), Rng(0))
        params.merge[0].w[0, 0] = 1e39
        save_checkpoint(tmp_path / "big.ckpt", params, NormStats(np.zeros(1), np.ones(1)))
        out = tmp_path / "filled.csv"
        assert main(["impute", "--checkpoint", str(tmp_path / "big.ckpt"), "--data",
                     str(sine_csv), "--gap", "50:3", "--out", str(out)]) == 0
        values = load_csv(sine_csv).values[:, 0]
        want = impute(params, [values[47:50, None]], [values[53:56, None]], [3])[0][:, 0]
        assert np.isfinite(want).all()
        assert np.array_equal(load_csv(out).values[50:53, 0], want)

    @pytest.mark.parametrize("columns", [["a", "a"], ["a", "0"]],
                             ids=["repeated", "name-and-index"])
    def test_a_column_selected_twice_is_a_usage_error(self, tmp_path, capsys, columns):
        data = tmp_path / "two.csv"
        data.write_text("a,b\n" + "".join(f"{i},{-i}\n" for i in range(20)))
        ckpt = untrained_checkpoint(tmp_path / "two.ckpt", input_dim=2)
        flags = [flag for c in columns for flag in ("--column", c)]
        assert main(["impute", "--checkpoint", str(ckpt), "--data", str(data), "--gap", "8:3",
                     *flags, "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: --column: file column 0 ")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("context", ["-1", "0", "-5"])
    def test_context_below_one_is_a_usage_error(self, tmp_path, sine_csv, trained, capsys,
                                                context):
        out = tmp_path / "x.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "50:5", "--context", context, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--context" in err
        assert not out.exists()

    def test_superscript_digit_column_is_an_unknown_name(self, tmp_path, sine_csv, trained,
                                                         capsys):
        assert main(["impute", "--checkpoint", str(trained), "--data", str(sine_csv),
                     "--gap", "50:3", "--column", "\u00b2", "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown column" in capsys.readouterr().err

    def test_headerless_file_with_a_timestamp_column_is_not_shifted(self, tmp_path, capsys):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        data, out = tmp_path / "stamped.csv", tmp_path / "filled.csv"
        lines = [f"2020-01-01T{r:02d}:00,{r}.5\n" for r in range(12)]
        data.write_text("".join(lines))
        args = ["impute", "--checkpoint", str(ckpt), "--data", str(data), "--column", "1",
                "--gap", "4:2", "--context", "2", "--out", str(out)]
        assert main(args) == 1  # auto: the first row may be a header or data
        assert "set header to yes or no" in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--header", "no"]) == 0
        filled = out.read_text().splitlines(keepends=True)
        changed = [i for i, (a, b) in enumerate(zip(lines, filled)) if a != b]
        assert changed == [4, 5] and len(filled) == 12
        assert all(filled[i].startswith(f"2020-01-01T{i:02d}:00,") for i in changed)

    def test_missing_flag_reads_the_training_markers(self, tmp_path, capsys):
        # a model trained with data.missing = -999 meets a file with -999 at data row 49
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        data = tmp_path / "holed.csv"
        rows = [repr(math.sin(r / 5)) for r in range(200)]
        rows[49] = "-999"
        data.write_text("value\n" + "\n".join(rows) + "\n")
        args = ["impute", "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(tmp_path / "out.csv")]
        assert main(args + ["--missing=-999", "--gap", "52:2", "--context", "3"]) == 1
        assert "context rows must be observed" in capsys.readouterr().err
        assert main(args + ["--missing=NA,-999", "--gap", "49:1", "--context", "3"]) == 0
        filled = load_csv(tmp_path / "out.csv", markers=("-999",)).values[:, 0]
        assert np.isfinite(filled).all() and filled[49] != -999.0

    @pytest.mark.parametrize("note, message", [
        (b"caf\xe9", "line 9: byte 0xe9 is not"),
        (b"y" * 200_000, "line 9: field larger than field limit")],
        ids=["undecodable-byte", "huge-field"])
    def test_unreadable_text_is_a_data_error(self, tmp_path, capsys, note, message):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        data = tmp_path / "noted.csv"
        rows = [repr(math.sin(r / 5)).encode() + b",ok" for r in range(40)]
        rows[7] = rows[7][:-2] + note  # data row 7 is line 9, under the header
        data.write_bytes(b"value,note\n" + b"\n".join(rows) + b"\n")
        assert main(["impute", "--checkpoint", str(ckpt), "--data", str(data), "--column", "0",
                     "--gap", "20:2", "--context", "3", "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: {message}"), err[:200]

    @pytest.mark.parametrize("flag", ["--checkpoint", "--data", "--out"])
    def test_a_directory_path_is_a_usage_error(self, tmp_path, sine_csv, capsys, flag):
        paths = {"--checkpoint": untrained_checkpoint(tmp_path / "m.ckpt"),
                 "--data": sine_csv, "--out": tmp_path / "out.csv"}
        paths[flag] = tmp_path / "folder"
        paths[flag].mkdir()
        argv = ["impute", "--gap", "50:3"] + [a for f, p in paths.items() for a in (f, str(p))]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(paths[flag]) in err
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    @pytest.mark.parametrize("flags, message", [
        (["--gap", "10:999999999999"], "gap 10:999999999999 runs past the 20000-row file"),
        (["--gap", "50:3", "--context", "999999999999"],
         "gap 50:3: needs 999999999999 observed rows on each side"),
        (["--gap", "5:2", "--context", "6"], "gap 5:2: needs 6 observed rows on each side")],
        ids=["huge-gap", "huge-context", "context-before-row-0"])
    def test_context_ranges_are_clipped_before_they_are_expanded(self, tmp_path, capsys, flags,
                                                                 message):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        data = tmp_path / "long.csv"
        data.write_text("value\n" + "".join(f"{math.sin(r / 5)!r}\n" for r in range(20000)))
        tracemalloc.start()
        try:
            rc = main(["impute", "--checkpoint", str(ckpt), "--data", str(data),
                       "--out", str(tmp_path / "out.csv")] + flags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        # the bytes, a few int64 offsets a line and the cast rows (about 4-7x here);
        # a range expanded before it is clipped would need 8 TB
        assert peak < 10 * data.stat().st_size

    def test_a_bad_cell_is_an_error_only_in_a_context_row(self, tmp_path, capsys):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        data, out = tmp_path / "typo.csv", tmp_path / "out.csv"
        lines = ["value"] + [repr(math.sin(r / 5)) for r in range(60)]
        lines[31] = "abc"  # data row 30
        data.write_text("\n".join(lines) + "\n")
        args = ["impute", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
        # context rows 7-9 and 12-14, then 27-29 and 31-33: row 30 is not read
        for gap, changed_lines in (("10:2", [11, 12]), ("30:1", [31])):
            assert main(args + ["--gap", gap, "--context", "3"]) == 0
            filled = out.read_text().splitlines()
            changed = [i for i, (a, b) in enumerate(zip(lines, filled)) if a != b]
            assert len(filled) == len(lines) and changed == changed_lines
        capsys.readouterr()
        # context rows 23-25 and 28-30
        assert main(args + ["--gap", "26:2", "--context", "3"]) == 1
        assert capsys.readouterr().err == (f"error: {data}: row 31, column 'value': "
                                           "cannot parse 'abc'\n")

    @pytest.mark.parametrize("header, bad_row, flags, message", [
        ("note,value", "n,0.5,x", ["--column", "value"], "row 41 has 3 cells, expected 2"),
        ("n0,0.5", None, ["--column", "1"], "the first row has text only in columns not "
                                             "selected, so it may be a header or data"),
        ("note,value", None, ["--column", "nope"], "unknown column 'nope'")],
        ids=["record-width", "header-undecided", "unknown-column"])
    def test_record_width_and_header_are_checked_in_every_row(self, tmp_path, capsys, header,
                                                               bad_row, flags, message):
        ckpt = untrained_checkpoint(tmp_path / "m.ckpt")
        data = tmp_path / "far.csv"
        lines = [header] + [f"n{r},{math.sin(r / 5)!r}" for r in range(1, 60)]
        if bad_row is not None:
            lines[41] = bad_row  # data row 40, far from the gap's context rows 7-14
        data.write_text("\n".join(lines) + "\n")
        assert main(["impute", "--checkpoint", str(ckpt), "--data", str(data), "--gap", "10:2",
                     "--context", "3", "--out", str(tmp_path / "out.csv")] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_non_numeric_timestamp_column_is_copied_through(self, tmp_path, sine_csv, trained):
        lines = sine_csv.read_text().splitlines(keepends=True)
        stamped = ["time," + lines[0]] + [f"2020-01-01T{r // 60:02d}:{r % 60:02d},{line}"
                                          for r, line in enumerate(lines[1:])]
        data = tmp_path / "stamped.csv"
        data.write_text("".join(stamped))
        out = tmp_path / "filled.csv"
        assert main(["impute", "--checkpoint", str(trained), "--data", str(data),
                     "--column", "value", "--gap", "50:3", "--out", str(out)]) == 0
        filled = out.read_text().splitlines(keepends=True)
        assert len(filled) == len(stamped)
        changed = [i for i, (a, b) in enumerate(zip(stamped, filled)) if a != b]
        assert changed == [51, 52, 53]
        for i in changed:
            stamp, value = filled[i].rstrip("\n").split(",")
            assert stamp == stamped[i].split(",")[0]
            assert math.isfinite(float(value))


class TestEval:
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        assert main(["eval", "--config", str(tmp_path / "absent.cfg"), "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--jobs" in err

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

    def test_report_path_a_directory_is_a_usage_error(self, tmp_path, capsys):
        data = tmp_path / "wave.csv"
        assert main(["synth", "--kind", "sine", "--n", "80", "--seed", "2",
                     "--period", "16", "--out", str(data)]) == 0
        (tmp_path / "report.txt").mkdir()
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
variants = seq2seqImp

[dataset:wave]
path = {data}
""")
        assert main(["eval", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "report.txt") in err

    def test_report_csvs_quote_a_dataset_name_with_comma_and_quote(self, tmp_path):
        data = tmp_path / "wave.csv"
        assert main(["synth", "--kind", "sine", "--n", "120", "--seed", "2",
                     "--period", "16", "--out", str(data)]) == 0
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
variants = seq2seqImp,RNN_FW

[dataset:site,north "A"]
path = {data}
""")
        assert main(["eval", "--config", str(cfg)]) == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "variant", "mae", "mre", "status"]
        assert [r[:2] for r in rows[1:]] == [['site,north "A":0', "seq2seqImp"],
                                             ['site,north "A":0', "RNN_FW"]]
        assert all(len(r) == 5 and r[4] == "ok" for r in rows[1:])
        with open(tmp_path / "borda.csv", newline="") as fh:
            assert all(len(r) == 3 for r in csv.reader(fh))

    def test_dataset_name_keeps_the_file_index_of_a_later_column(self, tmp_path):
        wave = tmp_path / "wave.csv"
        assert main(["synth", "--kind", "sine", "--n", "120", "--seed", "2",
                     "--period", "16", "--out", str(wave)]) == 0
        lines = wave.read_text().splitlines()
        data = tmp_path / "stamped.csv"
        data.write_text("time,note,value\n" + "".join(
            f"2020-01-01T{r // 60:02d}:{r % 60:02d},n{r},{line}\n"
            for r, line in enumerate(lines[1:])))
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
variants = seq2seqImp

[dataset:wave]
path = {data}
columns = value
""")
        assert main(["eval", "--config", str(cfg)]) == 0
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [r[:2] for r in rows[1:]] == [["wave:2", "seq2seqImp"]]
        assert rows[1][4] == "ok"

    @staticmethod
    def _eval_cfg(tmp_path, data, variants, columns="0"):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"""
[model]
hidden_dim = 4
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
variants = {variants}

[dataset:s]
path = {data}
columns = {columns}
""")
        return cfg

    @pytest.mark.parametrize("variants", ["seq2seq,seq2seq,RNN_FW", ""],
                             ids=["repeated", "empty"])
    def test_a_repeated_or_empty_variant_list_is_a_config_error(self, tmp_path, capsys,
                                                               variants):
        data = tmp_path / "wave.csv"
        data.write_text("".join(f"{math.sin(i / 5)!r}\n" for i in range(40)))
        cfg = self._eval_cfg(tmp_path, data, variants)
        assert main(["eval", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eval.variants" in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("columns", ["0,0", "b,1"], ids=["repeated", "name-and-index"])
    def test_a_column_selected_twice_is_a_config_error(self, tmp_path, capsys, columns):
        data = tmp_path / "two.csv"
        data.write_text("a,b\n" + "".join(
            f"{math.sin(i / 5)!r},{math.cos(i / 3)!r}\n" for i in range(40)))
        cfg = self._eval_cfg(tmp_path, data, "seq2seq", columns=columns)
        assert main(["eval", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: dataset:s.columns: ")

    def test_a_dataset_that_cannot_be_prepared_fails_only_its_cells(self, tmp_path, capsys):
        good, flat, short = tmp_path / "good.csv", tmp_path / "flat.csv", tmp_path / "short.csv"
        assert main(["synth", "--kind", "sine", "--n", "140", "--seed", "1",
                     "--period", "16", "--out", str(good)]) == 0
        flat.write_text("5\n" * 140)  # constant: cannot be normalized
        (tmp_path / "blank.csv").write_text("NA\n" * 140)  # nothing observed
        # 20 rows at test_fraction 0.5 leave 10 test rows, short of one 11-row window
        assert main(["synth", "--kind", "sine", "--n", "20", "--seed", "1",
                     "--period", "16", "--out", str(short)]) == 0
        cfg = self._eval_cfg(tmp_path, good, "seq2seqImp,seq2seq")
        cfg.write_text(cfg.read_text().replace("[dataset:s]", "[dataset:good]")
                       + f"[dataset:flat]\npath = {flat}\n[dataset:short]\npath = {short}\n"
                       + f"[dataset:blank]\npath = {tmp_path / 'blank.csv'}\n")
        assert main(["eval", "--config", str(cfg)]) == 2
        with open(tmp_path / "report.csv", newline="") as fh:
            status = {(r[0], r[1]): r[4] for r in list(csv.reader(fh))[1:]}
        assert status == {(d, v): "ok" if d == "good:0" else "failed"
                          for d in ("good:0", "flat:0", "short:0", "blank:0")
                          for v in ("seq2seqImp", "seq2seq")}
        err = capsys.readouterr().err
        assert "error: flat:0 seq2seq: column 'col0' is constant; cannot normalize" in err
        assert "error: short:0 seq2seqImp: test split yields no evaluation windows" in err
        assert "error: blank:0 seq2seq: column 'col0' has no observed values" in err
        assert "6 cell(s) failed" in err
        assert "blank:0  [nan,nan]" in (tmp_path / "report.txt").read_text()

    def test_a_gap_longer_than_the_test_split_fails_every_cell(self, tmp_path, capsys):
        data = tmp_path / "wave.csv"
        assert main(["synth", "--kind", "sine", "--n", "300", "--out", str(data)]) == 0
        cfg = self._eval_cfg(tmp_path, data, "seq2seqImp,RNN_FW")
        cfg.write_text(cfg.read_text().replace("gap_len = 3", "gap_len = 400"))
        assert main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("test split yields no evaluation windows") == 2
        assert (tmp_path / "report.csv").read_text().count(",failed\n") == 2
        assert not (tmp_path / "borda.txt").exists()

    def test_an_undefined_score_fails_only_its_datasets_cells(self, tmp_path, capsys):
        # column 0 is all zeros in its test half, where MRE is undefined
        data = tmp_path / "two.csv"
        data.write_text("tail0,wave\n" + "".join(
            f"{math.sin(i / 5) if i < 60 else 0},{math.sin(i / 7)}\n" for i in range(120)))
        cfg = self._eval_cfg(tmp_path, data, "seq2seqImp,seq2seq", columns="tail0,wave")
        assert main(["eval", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error: s:0 seq2seqImp: mre is undefined for all-zero truth" in err
        assert "error: s:0 seq2seq: mre is undefined for all-zero truth" in err
        with open(tmp_path / "report.csv", newline="") as fh:
            status = {(r[0], r[1]): r[4] for r in list(csv.reader(fh))[1:]}
        assert status == {("s:0", "seq2seqImp"): "failed", ("s:0", "seq2seq"): "failed",
                          ("s:1", "seq2seqImp"): "ok", ("s:1", "seq2seq"): "ok"}
        assert "FAILED" in (tmp_path / "report.txt").read_text()

    @pytest.mark.skipif("fork" not in __import__("multiprocessing").get_all_start_methods(),
                        reason="--jobs 2 trains serially without fork")
    def test_jobs_two_prints_each_table_once(self, tmp_path):
        data = tmp_path / "wave.csv"
        assert main(["synth", "--kind", "sine", "--n", "120", "--seed", "2",
                     "--period", "16", "--out", str(data)]) == 0
        cfg = self._eval_cfg(tmp_path, data, "seq2seqImp,seq2seq")
        src = os.path.dirname(os.path.dirname(gapfill.__file__))
        done = subprocess.run([sys.executable, "-m", "gapfill", "eval", "--config", str(cfg),
                               "--jobs", "2"],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        report = (tmp_path / "report.txt").read_text()
        borda = (tmp_path / "borda.txt").read_text()
        assert done.stdout == report + borda
        assert done.stderr == ""

    def test_jobs_two_writes_the_same_bytes_as_jobs_one(self, tmp_path):
        data = tmp_path / "waves.csv"
        data.write_text("a,b\n" + "".join(
            f"{math.sin(i / 5)!r},{math.cos(i / 3) + 0.1 * math.sin(i)!r}\n" for i in range(120)))
        cfg = self._eval_cfg(tmp_path, data, "seq2seqImp,seq2seqImp-noscale,seq2seq",
                             columns="a,b")  # 2 datasets x 3 trained networks
        outputs = {}
        for jobs in ("1", "2"):
            assert main(["eval", "--config", str(cfg), "--jobs", jobs]) == 0
            outputs[jobs] = [(tmp_path / name).read_bytes() for name in
                             ("report.csv", "report.txt", "borda.csv", "borda.txt")]
        assert outputs["2"] == outputs["1"]
        assert outputs["1"][0].count(b",ok\n") == 6

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
        assert "windows 3" in out  # the second instance is a ragged batch
        assert "forward_only 1" in out  # the third is a forward-only network

    @pytest.mark.parametrize("flag, value", [
        ("--instances", "0"), ("--instances", "-3"), ("--eps", "0"), ("--eps", "nan"),
        ("--eps", "-1e-5"), ("--eps", "inf"), ("--tolerance", "0"), ("--tolerance", "nan"),
        ("--tolerance", "inf")])
    def test_checking_nothing_is_a_usage_error(self, capsys, flag, value):
        assert main(["gradcheck", "--instances", "1", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("error: ") and flag in captured.err


class TestMisc:
    def test_print_defaults(self, capsys):
        assert main(["--print-defaults"]) == 0
        out = capsys.readouterr().out
        assert "[model]" in out and "hidden_dim = 64" in out

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(gapfill.__file__))
        done = subprocess.run([sys.executable, "-m", "gapfill", "--print-defaults"],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "[model]" in done.stdout

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "synth" in capsys.readouterr().out

    # 2 means a partial benchmark failure, so a usage error must not exit 2
    @pytest.mark.parametrize("argv", [["train"], ["train", "--config"], ["--no-such-flag"],
                                      ["impute", "--checkpoint", "m.ckpt"], ["bogus"],
                                      ["gradcheck", "--instances", "many"]])
    def test_a_usage_error_returns_one_with_usage_on_stderr(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: gapfill") and "error:" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["train", "-h"]])
    def test_help_returns_zero(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: gapfill")


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


def test_a_too_short_series_reports_one_clean_error_line(tmp_path):
    # 20 rows at test_fraction 0.5 leave 10 rows a side, short of one 11-row
    # window; 22 rows leave 11, one window
    src = os.path.dirname(os.path.dirname(gapfill.__file__))
    sections = []
    for n, windows in ((20, 0), (22, 1)):
        data = tmp_path / f"n{n}.csv"
        data.write_text("".join(f"{math.sin(i / 3)!r}\n" for i in range(n)))
        sections.append(f"[dataset:n{n}]\npath = {data}\n")
        cfg = write_train_cfg(tmp_path, data)
        done = subprocess.run([sys.executable, "-m", "gapfill", "train", "--config", str(cfg)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 1
        assert done.stderr == (f"error: {data}: too few training windows ({windows}); need at "
                               "least 2 (shrink the window or add rows)\n")
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"""
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
variants = seq2seqImp
""" + "".join(sections))
    done = subprocess.run([sys.executable, "-m", "gapfill", "eval", "--config", str(cfg)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: n20:0 seq2seqImp: test split yields no evaluation windows",
        "error: n22:0 seq2seqImp: too few training windows (1); need at least 2 "
        "(shrink the window or add rows)",
        "warning: 2 cell(s) failed; ranking skipped"]


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
