"""Metrics, model variants, the benchmark harness, and Borda-count ranking.

MAE and MRE are pooled over every imputed point of every test window, in
the original (denormalized) units of each dataset.

The harness trains each dataset's networks, one per kind its variants
need (full, noscale, forward-only), as one stack (`optim.train`): they
share the dataset's windows, seed and mini-batches, and each one's bits
are those of training it alone. One stacked `forward` then scores the
test windows. A dataset is the unit of work: with `jobs` above 1 the
datasets are split over the calling process and forked workers, so a
single dataset always trains in the calling process. A network that
diverges fails only its own cells; an unexpected error while training a
dataset, or the death of the worker that took it, fails that dataset's
cells.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import traceback
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .data import DataError, SeriesTable, WindowSpec, denormalize, series_windows
from .model import ForwardTrace, ModelParams, NetworkConfig, forward, make_schedule, stack_networks
from .optim import DivergenceError, TrainConfig, split_validation, train


def mae(truth, pred) -> float:
    """Mean absolute error over all points."""
    t = np.asarray(truth, dtype=np.float64).ravel()
    p = np.asarray(pred, dtype=np.float64).ravel()
    if t.size == 0:
        raise ValueError("mae needs at least one point")
    if t.size != p.size:
        raise ValueError(f"mae length mismatch: {t.size} vs {p.size}")
    return float(np.mean(np.abs(t - p)))


def mre(truth, pred) -> float:
    """Sum of absolute errors divided by the sum of absolute truth values."""
    t = np.asarray(truth, dtype=np.float64).ravel()
    p = np.asarray(pred, dtype=np.float64).ravel()
    if t.size == 0:
        raise ValueError("mre needs at least one point")
    if t.size != p.size:
        raise ValueError(f"mre length mismatch: {t.size} vs {p.size}")
    denom = float(np.sum(np.abs(t)))
    if denom == 0.0:
        raise ValueError("mre is undefined for all-zero truth")
    return float(np.sum(np.abs(t - p)) / denom)


@dataclass(frozen=True)
class MetricPair:
    mae: float
    mre: float


class ModelVariant(str, Enum):
    """Benchmark columns.

    SEQ2SEQ_IMP is the full two-stream network with proximity scaling.
    RNN_FW / RNN_BW read the full network's local stream predictions.
    SEQ2SEQ is a separately trained forward-only network.
    NOSCALE is the full architecture trained with both stream weights 0.5.
    """

    SEQ2SEQ_IMP = "seq2seqImp"
    RNN_FW = "RNN_FW"
    RNN_BW = "RNN_BW"
    SEQ2SEQ = "seq2seq"
    NOSCALE = "seq2seqImp-noscale"


DEFAULT_VARIANTS = tuple(ModelVariant)

# which separately-trained network serves each variant
_VARIANT_KIND = {
    ModelVariant.SEQ2SEQ_IMP: "full",
    ModelVariant.RNN_FW: "full",
    ModelVariant.RNN_BW: "full",
    ModelVariant.NOSCALE: "noscale",
    ModelVariant.SEQ2SEQ: "forward_only",
}

# the trace array a variant scores, where it is not the merged output
_VARIANT_OUTPUT = {ModelVariant.RNN_FW: "pred_fw", ModelVariant.RNN_BW: "pred_bw"}

# how each kind of network departs from the configured one
_KIND_NETWORK = {"full": {}, "noscale": {"schedule_variant": "constant"},
                 "forward_only": {"forward_only": True}}


@dataclass
class EvalCell:
    metrics: MetricPair | None
    error: str | None = None


@dataclass
class EvalReport:
    datasets: list[str]
    variants: list[str]
    cells: dict[tuple[str, str], EvalCell]
    ranges: dict[str, tuple[float, float]]

    @property
    def complete(self) -> bool:
        return all(self.cells[(d, v)].metrics is not None
                   for d in self.datasets for v in self.variants)

    @property
    def failed_cells(self) -> list[tuple[str, str]]:
        return [(d, v) for d in self.datasets for v in self.variants
                if self.cells[(d, v)].metrics is None]


@dataclass
class BordaTable:
    metric: str
    models: list[str]
    totals: dict[str, float]
    per_dataset: dict[str, dict[str, float]] = field(default_factory=dict)


def borda_points(errors) -> list[float]:
    """Rank-sum points for one dataset: worst error gets 1, best gets N.

    Tied errors share the mean of the ranks they straddle, which keeps the
    per-dataset point total at N(N+1)/2.
    """
    errors = [float(e) for e in errors]
    if any(math.isnan(e) for e in errors):
        raise ValueError("cannot rank NaN errors")
    n = len(errors)
    order = sorted(range(n), key=lambda i: -errors[i])  # worst first
    points = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and errors[order[j + 1]] == errors[order[i]]:
            j += 1
        shared = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            points[order[k]] = shared
        i = j + 1
    return points


def borda(report: EvalReport, metric: str = "mae") -> BordaTable:
    """Sum Borda points per model across all datasets of a complete report."""
    if metric not in ("mae", "mre"):
        raise ValueError(f"unknown metric {metric!r}")
    if not report.complete:
        raise ValueError(f"report has failed cells: {report.failed_cells}")
    totals = {v: 0.0 for v in report.variants}
    per_dataset: dict[str, dict[str, float]] = {}
    for ds in report.datasets:
        errors = [getattr(report.cells[(ds, v)].metrics, metric) for v in report.variants]
        points = borda_points(errors)
        per_dataset[ds] = dict(zip(report.variants, points))
        for v, p in zip(report.variants, points):
            totals[v] += p
    return BordaTable(metric, list(report.variants), totals, per_dataset)


@dataclass
class BenchmarkDataset:
    """One benchmark row: a single variable of a named dataset."""

    label: str
    table: SeriesTable  # single column


@dataclass
class BenchmarkConfig:
    window: WindowSpec
    train: TrainConfig
    network: NetworkConfig  # the full network; its input_dim follows each dataset
    test_fraction: float = 0.8
    eval_stride: int = 0  # 0 -> gap length (non-overlapping test gaps)
    val_fraction: float = 0.1
    jobs: int = 1


def _train_dataset(job) -> list:
    """Train one dataset's networks, one per kind, as one stack on its fit
    and validation windows; each kind's trained ModelParams, or its
    divergence's message."""
    label, kinds, fit_windows, val_windows, cfg = job
    nets = [replace(cfg.network, input_dim=fit_windows[0].before.shape[1], **_KIND_NETWORK[kind])
            for kind in kinds]
    return [str(outcome) if isinstance(outcome, DivergenceError) else outcome[0]
            for outcome in train(nets, fit_windows, val_windows, cfg.train)]


def _try_dataset(job) -> list:
    """`_train_dataset(job)`; if it raised, the error with its full
    traceback (a worker's included) for every kind of the dataset."""
    try:
        return _train_dataset(job)
    except Exception as exc:  # one failed dataset must not abort the grid
        return ["".join(traceback.format_exception(exc)).rstrip()] * len(job[1])


class _JobCounter:
    """Hands out the job indices 0..n-1 once each, to whichever trainer asks
    first, and records which trainer took each: 0 is the calling process,
    k > 0 its k-th forked worker."""

    def __init__(self, ctx, n: int):
        self.n = n
        self.next = ctx.Value("i", 0)
        self.owner = ctx.Array("i", n, lock=False)  # written under next's lock

    def take(self, trainer: int) -> int | None:
        with self.next.get_lock():
            i = self.next.value
            if i == self.n:
                return None
            self.next.value = i + 1
            self.owner[i] = trainer
        return i


def _train_worker(jobs, counter: _JobCounter, trainer: int, conn) -> None:
    """A forked trainer: trains datasets until none remain, then sends one
    `(index, outcome)` message per dataset it took.

    It sends only once no dataset is left to take: a send blocks while the
    pipe is full, and the parent reads only after its own share, so a
    result sent earlier could keep this trainer idle while datasets remain.
    """
    outcomes = [(i, _try_dataset(jobs[i])) for i in iter(lambda: counter.take(trainer), None)]
    with conn:
        for message in outcomes:
            conn.send(message)


def _train_forked(ctx, jobs, trainers: int) -> list:
    """`_try_dataset` of every job, on the calling process and `trainers - 1`
    workers forked from `ctx` that take datasets one at a time from a
    shared counter.

    Fork, not spawn: a forked worker starts with the program imported and the
    jobs in memory, where a spawned one would import numpy and unpickle the
    jobs first. Forking is safe while the calling process runs no other
    thread, as the CLI does not.
    """
    counter = _JobCounter(ctx, len(jobs))
    outcomes: dict[int, list] = {}
    workers = []  # (trainer number, process, reading end of its pipe)
    done = False
    # a forked child flushes its copy of any buffered output when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for trainer in range(1, trainers):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_train_worker, args=(jobs, counter, trainer, writer))
            proc.start()
            workers.append((trainer, proc, reader))
            writer.close()  # the worker holds the only writing end: its exit is EOF
        for i in iter(lambda: counter.take(0), None):
            outcomes[i] = _try_dataset(jobs[i])
        for trainer, proc, reader in workers:
            # read to EOF before joining: a worker blocked on a full pipe never exits
            while True:
                try:
                    i, outcome = reader.recv()
                except EOFError:
                    break
                outcomes[i] = outcome
            proc.join()
            for i in range(len(jobs)):
                if counter.owner[i] == trainer and i not in outcomes:
                    outcomes[i] = [f"training worker {trainer} exited with code "
                                   f"{proc.exitcode} before returning this dataset"] * len(jobs[i][1])
        done = True
    finally:
        for _, proc, reader in workers:
            if not done:
                proc.kill()
            proc.join()
            reader.close()
    return [outcomes[i] for i in range(len(jobs))]


def _train_grid(jobs, trainers: int) -> list:
    """`_try_dataset` of every job, in order, on up to `trainers` processes,
    at most one per dataset; the calling process trains too. Without a fork
    start method it trains serially."""
    trainers = min(trainers, len(jobs))
    if trainers > 1:
        import multiprocessing  # only forking needs it, so most runs never load it

        if "fork" in multiprocessing.get_all_start_methods():
            return _train_forked(multiprocessing.get_context("fork"), jobs, trainers)
    return [_try_dataset(job) for job in jobs]


def _prepare(ds: BenchmarkDataset, cfg: BenchmarkConfig):
    """A dataset's fit and validation windows, its normalization, its test
    windows and their gap rows in data units."""
    eval_spec = replace(cfg.window, stride=cfg.eval_stride or cfg.window.gap_len)
    stats, train_windows, test_windows = series_windows(ds.table, cfg.test_fraction,
                                                        cfg.window, eval_spec)
    truth = denormalize(np.concatenate([w.missing for w in test_windows]).ravel(), stats)
    return (*split_validation(train_windows, cfg.val_fraction), stats, test_windows, truth)


def run_benchmark(datasets: list[BenchmarkDataset], variants, cfg: BenchmarkConfig) -> EvalReport:
    """Train every needed network per dataset, as one stack, and score the
    requested variants.

    A dataset that cannot be prepared (a split without data, a constant or
    unobserved column, no test window, too few training windows) and a
    training that fails for any reason (a diverged network fails its own
    cells; an unexpected error or a crashed worker its dataset's) mark
    their dependent cells as failed with the error, and so does a cell
    whose score is undefined (MRE on all-zero truth); the rest of the grid
    still completes.
    """
    variants = [ModelVariant(v) for v in variants]
    if not variants or len(set(variants)) != len(variants):
        raise ValueError(f"needs one or more variants, each once, got "
                         f"{[v.value for v in variants]}")
    if not datasets:
        raise ValueError("no datasets to benchmark")
    names = [d.label for d in datasets]
    if len(set(names)) != len(names):
        raise ValueError("dataset labels must be unique")

    kinds_needed = sorted({_VARIANT_KIND[v] for v in variants})
    prepared = {}
    ranges = {}
    failures: dict[tuple[str, str], str] = {}
    for ds in datasets:
        try:
            prepared[ds.label] = _prepare(ds, cfg)
        except DataError as exc:  # fails only this dataset's cells
            failures.update({(ds.label, kind): str(exc) for kind in kinds_needed})
        observed = ds.table.values[~ds.table.missing]
        ranges[ds.label] = ((float(observed.min()), float(observed.max())) if observed.size
                            else (math.nan, math.nan))

    jobs = [(label, kinds_needed, fit, val, cfg) for label, (fit, val, *_) in prepared.items()]
    trained: dict[tuple[str, str], ModelParams] = {}
    for (label, *_), outcomes in zip(jobs, _train_grid(jobs, cfg.jobs)):
        for kind, outcome in zip(kinds_needed, outcomes):
            if isinstance(outcome, str):
                failures[(label, kind)] = outcome
            else:
                trained[(label, kind)] = outcome

    cells: dict[tuple[str, str], EvalCell] = {}
    for ds in datasets:
        kinds = [kind for kind in kinds_needed if (ds.label, kind) in trained]
        traces: dict[str, ForwardTrace] = {}
        if kinds:
            nets = [trained[(ds.label, kind)] for kind in kinds]
            schedules = [make_schedule(cfg.window.gap_len, p.config.schedule_variant)
                         for p in nets]
            traces = dict(zip(kinds, forward(stack_networks(nets), prepared[ds.label][3],
                                             schedules)))
        for variant in variants:
            kind = _VARIANT_KIND[variant]
            if (ds.label, kind) in failures:
                cells[(ds.label, variant.value)] = EvalCell(None, failures[(ds.label, kind)])
                continue
            pred = getattr(traces[kind], _VARIANT_OUTPUT.get(variant, "merged"))
            _, _, stats, _, t = prepared[ds.label]
            p = denormalize(pred.ravel(), stats)
            try:
                cells[(ds.label, variant.value)] = EvalCell(MetricPair(mae(t, p), mre(t, p)))
            except ValueError as exc:  # an undefined score fails only its cell
                cells[(ds.label, variant.value)] = EvalCell(None, str(exc))
    return EvalReport(names, [v.value for v in variants], cells, ranges)


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, a dashed rule under the headers."""
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths))
             for row in [headers, ["-" * w for w in widths], *rows]]
    return "\n".join(lines) + "\n"


def _csv_text(rows: list[list]) -> str:
    """CSV text, one line per row; a field with a comma, quote or line break is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def format_report(report: EvalReport) -> str:
    """Aligned text table: one row per dataset, columns Range then variants."""
    rows = []
    for ds in report.datasets:
        lo, hi = report.ranges[ds]
        row = [ds, f"[{lo:g},{hi:g}]"]
        for v in report.variants:
            cell = report.cells[(ds, v)]
            row.append("FAILED" if cell.metrics is None else f"{cell.metrics.mae:.4g}")
        rows.append(row)
    return _format_table(["dataset", "range"] + list(report.variants), rows)


def report_rows(report: EvalReport) -> str:
    """Machine-readable CSV rows: dataset,variant,mae,mre,status."""
    rows = [["dataset", "variant", "mae", "mre", "status"]]
    for ds in report.datasets:
        for v in report.variants:
            m = report.cells[(ds, v)].metrics
            rows.append([ds, v, "", "", "failed"] if m is None
                        else [ds, v, repr(m.mae), repr(m.mre), "ok"])
    return _csv_text(rows)


def format_borda(tables: list[BordaTable]) -> str:
    """Text table: one row per metric, columns are models, entries are point sums."""
    if not tables:
        return ""
    models = tables[0].models
    rows = [[t.metric.upper()] + [f"{t.totals[m]:g}" for m in models] for t in tables]
    return _format_table(["metric"] + models, rows)


def borda_rows(tables: list[BordaTable]) -> str:
    rows = [["metric", "model", "points"]]
    for t in tables:
        rows.extend([t.metric, m, repr(t.totals[m])] for m in t.models)
    return _csv_text(rows)
