"""Metrics, model variants, the benchmark harness, and Borda-count ranking.

MAE and MRE are pooled over every imputed point of every test window, in
the original (denormalized) units of each dataset.
"""

from __future__ import annotations

import csv
import io
import math
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import (
    DataError,
    SeriesTable,
    WindowSpec,
    compute_norm_stats,
    denormalize,
    extract_windows,
    normalize_table,
    split_train_test,
)
from .model import ForwardTrace, NetworkConfig, forward, make_schedule
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
    hidden_dim: int = 64
    schedule_variant: str = "linear"
    merge_hidden: int = 0
    test_fraction: float = 0.8
    eval_stride: int | None = None  # None -> gap length (non-overlapping test gaps)
    val_fraction: float = 0.1
    jobs: int = 1


def _train_cell(args):
    """Train one (dataset, network-kind) pair; top-level so pools can pickle it."""
    label, kind, norm_train, cfg = args
    train_windows = extract_windows(norm_train, cfg.window)
    if len(train_windows) < 2:
        raise DataError(f"{label}: too few training windows ({len(train_windows)})")
    fit_windows, val_windows = split_validation(train_windows, cfg.val_fraction)
    net = NetworkConfig(
        input_dim=norm_train.n_cols,
        hidden_dim=cfg.hidden_dim,
        schedule_variant={"full": cfg.schedule_variant,
                          "noscale": "constant",
                          "forward_only": cfg.schedule_variant}[kind],
        merge_hidden=cfg.merge_hidden,
        forward_only=kind == "forward_only",
    )
    params, log = train(net, fit_windows, val_windows, None, cfg.train)
    return label, kind, params, log


def _describe(exc: Exception) -> str:
    """A failed cell's error text: the message of an expected failure, the
    full traceback (a worker's included) of an unexpected one."""
    if isinstance(exc, (DivergenceError, DataError)):
        return str(exc)
    return "".join(traceback.format_exception(exc)).rstrip()


def run_benchmark(datasets: list[BenchmarkDataset], variants, cfg: BenchmarkConfig) -> EvalReport:
    """Train every needed network per dataset and score the requested variants.

    A training run that fails for any reason (divergence, too little data,
    a crashed worker) marks its dependent cells as failed with the error;
    the rest of the grid still completes.
    """
    variants = [ModelVariant(v) for v in variants]
    if not datasets:
        raise ValueError("no datasets to benchmark")
    names = [d.label for d in datasets]
    if len(set(names)) != len(names):
        raise ValueError("dataset labels must be unique")

    prepared = {}
    ranges = {}
    for ds in datasets:
        train_part, test_part = split_train_test(ds.table, cfg.test_fraction)
        stats = compute_norm_stats(train_part)
        eval_spec = WindowSpec(cfg.window.before_len, cfg.window.gap_len,
                               cfg.window.after_len,
                               cfg.eval_stride or cfg.window.gap_len)
        test_windows = extract_windows(normalize_table(test_part, stats), eval_spec)
        if not test_windows:
            raise ValueError(f"{ds.label}: test split yields no evaluation windows")
        prepared[ds.label] = (normalize_table(train_part, stats), stats, test_windows)
        observed = ds.table.values[~ds.table.missing]
        ranges[ds.label] = (float(observed.min()), float(observed.max()))

    kinds_needed = sorted({_VARIANT_KIND[v] for v in variants})
    jobs = [(ds.label, kind, prepared[ds.label][0], cfg)
            for ds in datasets for kind in kinds_needed]
    trained: dict[tuple[str, str], object] = {}
    failures: dict[tuple[str, str], str] = {}

    def consume(result):
        label, kind, params, _log = result
        trained[(label, kind)] = params

    if cfg.jobs > 1:
        # the pool forks all its workers at the first submit: no more than there are jobs
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(jobs))) as pool:
            futures = [(job[0], job[1], pool.submit(_train_cell, job)) for job in jobs]
            for label, kind, fut in futures:
                try:
                    consume(fut.result())
                except Exception as exc:  # one failed cell must not abort the grid
                    failures[(label, kind)] = _describe(exc)
    else:
        for job in jobs:
            try:
                consume(_train_cell(job))
            except Exception as exc:
                failures[(job[0], job[1])] = _describe(exc)

    cells: dict[tuple[str, str], EvalCell] = {}
    for ds in datasets:
        _, stats, test_windows = prepared[ds.label]
        traces: dict[str, ForwardTrace] = {}
        for kind in kinds_needed:
            if (ds.label, kind) in failures:
                continue
            params = trained[(ds.label, kind)]
            schedule = make_schedule(cfg.window.gap_len, params.config.schedule_variant)
            traces[kind] = forward(params, test_windows, schedule)
        truth_raw = np.concatenate([w.missing for w in test_windows]).ravel()
        for variant in variants:
            kind = _VARIANT_KIND[variant]
            if (ds.label, kind) in failures:
                cells[(ds.label, variant.value)] = EvalCell(None, failures[(ds.label, kind)])
                continue
            trace = traces[kind]
            if variant is ModelVariant.RNN_FW:
                pred = trace.pred_fw
            elif variant is ModelVariant.RNN_BW:
                pred = trace.pred_bw
            else:
                pred = trace.merged
            t = denormalize(truth_raw, stats)
            p = denormalize(pred.ravel(), stats)
            cells[(ds.label, variant.value)] = EvalCell(MetricPair(mae(t, p), mre(t, p)))
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
