"""The benchmark's workloads: closed loops of in-process `gapfill` CLI calls.

Each workload writes its inputs (CSV files, a config, gap specs) from the
workload seed, hands the program only files and argv through
`gapfill.cli.main`, and checks every call's outputs. Every training run is
fixed-length: patience exceeds the epoch count, so early stopping never
fires and each call does the same work.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

from gapfill import cli
from gapfill.checkpoint import load_checkpoint
from gapfill.data import SeriesTable, synth, write_csv

BEFORE = GAP = AFTER = 10
NOISE = 0.05
VAL_FRACTION = 0.1  # the config default, used to count fit windows
TEST_FRACTION = 0.8  # the config default


def fit_windows(n_rows: int, stride: int) -> int:
    """Training windows `gapfill train/eval` fits on, for a series without gaps."""
    train_rows = n_rows - math.ceil(TEST_FRACTION * n_rows)
    windows = (train_rows - (BEFORE + GAP + AFTER)) // stride + 1
    return windows - max(1, round(VAL_FRACTION * windows))


def train_config(csv_path, work, hidden, epochs, seed, stride, lr=1e-3, batch=32,
                 test_fraction=TEST_FRACTION) -> str:
    return f"""[model]
hidden_dim = {hidden}
[training]
epochs = {epochs}
patience = {epochs + 1}
batch_size = {batch}
lr = {lr}
seed = {seed}
[data]
path = {csv_path}
test_fraction = {test_fraction}
before_len = {BEFORE}
gap_len = {GAP}
after_len = {AFTER}
train_stride = {stride}
[paths]
checkpoint = {work}/model.ckpt
train_log = {work}/train_log
report = {work}/report
borda = {work}/borda
"""


def _read_train_log(prefix: str) -> list[tuple[float, float]]:
    with open(prefix + ".csv") as fh:
        rows = fh.read().splitlines()[1:]
    return [(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows]


def _remove(*paths) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


class Train:
    """`gapfill train` at hidden 64 on a sum-of-sines CSV.

    The cost users pay most; nearly all of it is LSTM step dispatch forward
    and backward, so this is where a faster cell must show.
    """

    name = "train"
    unit = "windows"
    work_name = "train_windows_per_s"
    ROWS, HIDDEN, EPOCHS, STRIDE = 600, 64, 2, 1
    min_calls = 3
    trace_pairs = 2

    def __init__(self, seed: int, work: str):
        self.seed, self.work = seed, work
        self.csv = os.path.join(work, "series.csv")
        self.cfg = os.path.join(work, "train.cfg")
        self.ckpt = os.path.join(work, "model.ckpt")
        self.log = os.path.join(work, "train_log")
        self.work_per_call = fit_windows(self.ROWS, self.STRIDE) * self.EPOCHS
        self.best_val: float | None = None

    def setup(self) -> None:
        write_csv(self.csv, synth("sum-of-sines", self.ROWS, noise_std=NOISE, seed=self.seed))
        with open(self.cfg, "w") as fh:
            fh.write(train_config(self.csv, self.work, self.HIDDEN, self.EPOCHS,
                                  self.seed, self.STRIDE))

    def argv(self, i: int) -> list[str]:
        _remove(self.ckpt, self.log + ".csv", self.log + ".txt")
        return ["train", "--config", self.cfg]

    def check(self, i: int) -> list[str]:
        errors = []
        losses = _read_train_log(self.log)
        if len(losses) != self.EPOCHS:
            errors.append(f"ran {len(losses)} epochs, configured {self.EPOCHS}")
        if not all(math.isfinite(v) for pair in losses for v in pair):
            errors.append("non-finite loss in the train log")
        params, _ = load_checkpoint(self.ckpt)
        if params.config.hidden_dim != self.HIDDEN:
            errors.append(f"checkpoint has hidden {params.config.hidden_dim}")
        best = min(val for _, val in losses)
        if self.best_val is None:
            self.best_val = best
        elif best != self.best_val:
            errors.append(f"best validation loss {best!r} differs from the first call's "
                          f"{self.best_val!r}; training is not deterministic")
        return errors

    def quality(self) -> tuple[str, float | None]:
        return "train_val_loss", self.best_val


class Impute:
    """Repeated `gapfill impute` calls on a 10^5-row, three-column CSV.

    Forward-only inference with variable gap length: no backward pass and
    no Adam, while CSV parsing, checkpoint loading and the row rewrite take
    a real share of each call.
    """

    name = "impute"
    unit = "gaps"
    work_name = "impute_gaps_per_s"
    ROWS, HIDDEN, GAPS = 100_000, 64, 100
    # set-up trains on the first TRAIN_ROWS rows of the series (test_fraction 0.1)
    TRAIN_ROWS, TRAIN_EPOCHS, TRAIN_BATCH, TRAIN_LR = 400, 1, 4, 0.005
    GAP_SETS = 8  # calls cycle through this many seeded gap sets
    # data units, per call; filling every gap with the mean scores 0.69-0.75,
    # the set-up model 0.34-0.61 (seeds 0-12 and 101-120, eight gap sets each)
    MAE_BAR = 0.65
    min_calls = GAP_SETS
    trace_pairs = GAP_SETS
    COLUMN = 1  # "value"

    def __init__(self, seed: int, work: str):
        self.seed, self.work = seed, work
        self.csv = os.path.join(work, "series.csv")
        self.train_csv = os.path.join(work, "head.csv")
        self.cfg = os.path.join(work, "train.cfg")
        self.ckpt = os.path.join(work, "model.ckpt")
        self.out = os.path.join(work, "filled.csv")
        self.gap_sets = [self._gaps(k) for k in range(self.GAP_SETS)]
        self.abs_err: dict[int, np.ndarray] = {}
        self.work_per_call = self.GAPS
        self._lines: list[str] | None = None

    def _gaps(self, k: int) -> list[tuple[int, int]]:
        """Non-overlapping gaps, one per slot, each with its context inside the slot.

        Every set has the same lengths, so every call does the same work:
        three in four are 1-8 rows, the rest log-uniform from 9 to 64, taken
        at evenly spaced quantiles. The seed shuffles them over the slots
        and places each within its slot.
        """
        lengths = []
        for j in range(self.GAPS):
            p = (j + 0.5) / self.GAPS
            if p < 0.75:
                lengths.append(1 + int(p / 0.75 * 8))
            else:
                q = (p - 0.75) / 0.25
                lengths.append(round(math.exp(math.log(9) + q * math.log(64 / 9))))
        rng = random.Random(f"gaps-{self.seed}-{k}")
        rng.shuffle(lengths)
        slot = self.ROWS // self.GAPS
        return [(j * slot + rng.randrange(slot - 3 * length + 1) + length, length)
                for j, length in enumerate(lengths)]

    def setup(self) -> None:
        value = synth("sum-of-sines", self.ROWS, noise_std=NOISE, seed=self.seed)
        aux = synth("sine", self.ROWS, period=97.0)
        table = SeriesTable(
            ["t", "value", "aux"],
            np.column_stack([np.arange(self.ROWS, dtype=np.float64),
                             value.values[:, 0], aux.values[:, 0]]),
            np.zeros((self.ROWS, 3), dtype=bool))
        write_csv(self.csv, table)
        # the model is trained on the head of the same series
        head = SeriesTable(["value"], value.values[:self.TRAIN_ROWS].copy(),
                           np.zeros((self.TRAIN_ROWS, 1), dtype=bool))
        write_csv(self.train_csv, head)
        with open(self.cfg, "w") as fh:
            fh.write(train_config(self.train_csv, self.work, self.HIDDEN, self.TRAIN_EPOCHS,
                                  self.seed, 1, lr=self.TRAIN_LR, batch=self.TRAIN_BATCH,
                                  test_fraction=0.1))
        if cli.main(["train", "--config", self.cfg]) != 0:
            raise RuntimeError("set-up training failed")
        with open(self.csv) as fh:
            self._lines = fh.read().splitlines()

    def argv(self, i: int) -> list[str]:
        _remove(self.out)
        argv = ["impute", "--checkpoint", self.ckpt, "--data", self.csv,
                "--column", "value", "--out", self.out]
        for start, length in self.gap_sets[i % self.GAP_SETS]:
            argv += ["--gap", f"{start}:{length}"]
        return argv

    def check(self, i: int) -> list[str]:
        with open(self.out) as fh:
            lines = fh.read().splitlines()
        if len(lines) != len(self._lines):
            return [f"output has {len(lines)} lines, input {len(self._lines)}"]
        gap_rows = [r for start, length in self.gap_sets[i % self.GAP_SETS]
                    for r in range(start, start + length)]
        errors, err = [], []
        for r in gap_rows:
            got, want = lines[r + 1].split(","), self._lines[r + 1].split(",")
            filled = float(got[self.COLUMN])
            if not math.isfinite(filled):
                errors.append(f"row {r}: non-finite fill {got[self.COLUMN]!r}")
            got[self.COLUMN] = want[self.COLUMN]
            if got != want:
                errors.append(f"row {r}: a cell outside the imputed column changed")
            err.append(abs(filled - float(want[self.COLUMN])))
        gap_lines = {r + 1 for r in gap_rows}
        changed = sum(1 for n, (a, b) in enumerate(zip(lines, self._lines))
                      if a != b and n not in gap_lines)
        if changed:
            errors.append(f"{changed} line(s) outside the gaps changed")
        self.abs_err.setdefault(i % self.GAP_SETS, np.array(err))
        mae = float(np.mean(err))
        if not mae < self.MAE_BAR:
            errors.append(f"gap MAE {mae:.4f} is not under {self.MAE_BAR}")
        return errors

    def quality(self) -> tuple[str, float | None]:
        """MAE over every gap set once, so it repeats for a seed."""
        if not self.abs_err:
            return "impute_mae", None
        return "impute_mae", float(np.mean(np.concatenate(list(self.abs_err.values()))))


class Eval:
    """`gapfill eval --jobs 2`: seq2seqImp against two ablations at hidden 16.

    The paper's experiment in the acceptance grid's shape. At hidden 16
    per-call overhead dominates; three trained networks on two workers let
    the process pool and the slowest cell set the wall time, and the parent
    scores the test windows forward-only.
    """

    name = "eval"
    unit = "windows"
    work_name = "eval_windows_per_s"
    ROWS, HIDDEN, EPOCHS, STRIDE = 1000, 16, 2, 2
    VARIANTS = ("seq2seqImp", "seq2seqImp-noscale", "seq2seq")  # three trained networks
    JOBS = 2
    min_calls = 3
    trace_pairs = 2

    def __init__(self, seed: int, work: str):
        self.seed, self.work = seed, work
        self.csv = os.path.join(work, "series.csv")
        self.cfg = os.path.join(work, "eval.cfg")
        self.report = os.path.join(work, "report")
        self.borda = os.path.join(work, "borda")
        self.work_per_call = fit_windows(self.ROWS, self.STRIDE) * self.EPOCHS * len(self.VARIANTS)
        self.mae: float | None = None

    def setup(self) -> None:
        write_csv(self.csv, synth("sum-of-sines", self.ROWS, noise_std=NOISE, seed=self.seed))
        text = train_config(self.csv, self.work, self.HIDDEN, self.EPOCHS, self.seed, self.STRIDE)
        text += f"[eval]\nvariants = {','.join(self.VARIANTS)}\n"
        text += f"[dataset:sines]\npath = {self.csv}\ncolumns = value\n"
        with open(self.cfg, "w") as fh:
            fh.write(text)

    def argv(self, i: int) -> list[str]:
        _remove(*(p + ext for p in (self.report, self.borda) for ext in (".txt", ".csv")))
        return ["eval", "--config", self.cfg, "--jobs", str(self.JOBS)]

    def check(self, i: int) -> list[str]:
        errors = []
        with open(self.report + ".csv") as fh:
            rows = [r.split(",") for r in fh.read().splitlines()[1:]]
        cells = {r[1]: r for r in rows}
        for v in self.VARIANTS:
            row = cells.get(v)
            if row is None or row[4] != "ok" or not math.isfinite(float(row[2])):
                errors.append(f"cell {v} missing or failed: {row}")
        for path in (self.borda + ".txt", self.borda + ".csv"):
            if not os.path.exists(path):
                errors.append(f"{os.path.basename(path)} not written")
        if not errors:
            mae = float(cells["seq2seqImp"][2])
            if self.mae is None:
                self.mae = mae
            elif mae != self.mae:
                errors.append(f"seq2seqImp MAE {mae!r} differs from the first call's "
                              f"{self.mae!r}; the grid is not deterministic")
        return errors

    def quality(self) -> tuple[str, float | None]:
        return "eval_mae", self.mae


WORKLOADS = {w.name: w for w in (Train, Impute, Eval)}
