"""Command-line entry point.

Subcommands: synth, train, impute, eval, gradcheck. Exit codes: 0 success,
1 usage or configuration error, 2 partial benchmark failure, 3 numerical
divergence during training.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, default_config_text, load_config, parse_markers
from .data import (
    DEFAULT_MISSING_MARKERS,
    HEADER_MODES,
    SYNTH_KINDS,
    DataError,
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
from .eval import (
    BenchmarkConfig,
    BenchmarkDataset,
    borda,
    borda_rows,
    format_borda,
    format_report,
    report_rows,
    run_benchmark,
)
from .model import SCHEDULE_VARIANTS, _arena_params, gradient_check, impute
from .optim import DivergenceError, split_validation, train, write_train_log

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_DIVERGED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapfill",
        description="Fill gaps in time series with a two-encoder sequence model.",
    )
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default configuration file and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="write a synthetic CSV series")
    p.add_argument("--kind", default="sine", choices=SYNTH_KINDS)
    p.add_argument("--n", type=int, default=1000, help="number of rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0, help="noise standard deviation")
    p.add_argument("--period", type=float, default=50.0, help="period of the sine kind")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override training.seed")
    p.add_argument("--variant", default=None, choices=SCHEDULE_VARIANTS,
                   help="override model.schedule")
    p.add_argument("--out", default=None, help="override paths.checkpoint")

    p = sub.add_parser("impute", help="fill gaps in a CSV with a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--gap", action="append", default=[], metavar="START:LENGTH",
                   help="gap to fill, zero-based data row index (repeatable)")
    p.add_argument("--column", action="append", default=[],
                   help="column name or index fed to the model "
                        "(repeat to match a multivariate checkpoint; default 0)")
    p.add_argument("--context", type=int, default=None,
                   help="observed rows used on each side of a gap (default: the gap length)")
    p.add_argument("--variant", default=None, choices=SCHEDULE_VARIANTS,
                   help="override the checkpoint's stream-weight schedule")
    p.add_argument("--header", default="auto", choices=tuple(HEADER_MODES),
                   help="whether the first row holds column names (default: auto)")
    p.add_argument("--missing", type=parse_markers, default=DEFAULT_MISSING_MARKERS,
                   metavar="MARKERS",
                   help="comma-separated missing markers, as data.missing "
                        "(default: NA and the empty cell)")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("eval", help="benchmark model variants per the config's datasets")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override training.seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="processes that train, this one included; the rest are forked, "
                        "at most one per training (without fork: trains serially)")

    p = sub.add_parser("gradcheck", help="verify the closed-form gradients numerically")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    return parser


def cmd_synth(args) -> int:
    table = synth(args.kind, args.n, noise_std=args.noise, seed=args.seed, period=args.period)
    write_csv(args.out, table)
    print(f"wrote {table.n_rows} rows to {args.out}")
    return EXIT_OK


def _load_training_data(cfg: RunConfig):
    d = cfg.data
    if not d["path"]:
        raise ConfigError("data.path: required for training")
    columns = [c.strip() for c in d["columns"].split(",") if c.strip()]
    if len(columns) != cfg.model["input_dim"]:
        raise ConfigError(
            f"data.columns: {len(columns)} column(s) selected but model.input_dim "
            f"is {cfg.model['input_dim']}")
    table = load_csv(d["path"], columns=columns, markers=d["missing"],
                     header=HEADER_MODES[d["header"]])
    train_part, _ = split_train_test(table, d["test_fraction"])
    stats = compute_norm_stats(train_part)
    windows = extract_windows(normalize_table(train_part, stats), cfg.window_spec())
    if len(windows) < 2:
        raise DataError(f"{d['path']}: only {len(windows)} training windows; "
                        "need at least 2 (shrink the window or add rows)")
    return windows, stats


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.training["seed"] = args.seed
    if args.variant is not None:
        cfg.model["schedule"] = args.variant
    ckpt_path = args.out or cfg.paths["checkpoint"]
    windows, stats = _load_training_data(cfg)
    fit, val = split_validation(windows, cfg.training["val_fraction"])
    params, log = train(cfg.network_config(), fit, val, cfg.train_config())
    save_checkpoint(ckpt_path, params, stats)
    write_train_log(log, cfg.paths["train_log"] + ".txt", cfg.paths["train_log"] + ".csv")
    print(f"trained {len(log.rows)} epoch(s); best validation loss "
          f"{log.best_val_loss:.6e} at epoch {log.best_epoch}")
    print(f"checkpoint: {ckpt_path}")
    return EXIT_OK


def _parse_gaps(specs: list[str]) -> list[tuple[int, int]]:
    """The non-empty gaps of `specs`, sorted; overlaps are checked apart."""
    gaps = []
    for spec in specs:
        try:
            start_s, len_s = spec.split(":")
            start, length = int(start_s), int(len_s)
        except ValueError:
            raise DataError(f"gap {spec!r}: expected START:LENGTH") from None
        if start < 0 or length < 0:
            raise DataError(f"gap {spec!r}: start and length must be non-negative")
        if length > 0:
            gaps.append((start, length))
    return sorted(gaps)


def cmd_impute(args) -> int:
    params, stats = load_checkpoint(args.checkpoint)
    d = params.config.input_dim
    columns = args.column or ["0"]
    if len(columns) != d:
        raise DataError(f"checkpoint expects {d} column(s), got {len(columns)} --column flags")
    if args.context is not None and args.context < 1:
        raise DataError(f"--context must be at least 1, got {args.context}")
    gaps = _parse_gaps(args.gap)
    contexts = [args.context or length for _, length in gaps]
    # a call reads only the context rows on each side of each gap, so only
    # they are cast; the checks below run on the loaded table
    context_rows = [r for (start, length), c in zip(gaps, contexts)
                    for r in ((start - c, start), (start + length, start + length + c))]
    table = load_csv(args.data, columns=columns, markers=args.missing,
                     header=HEADER_MODES[args.header], rows=context_rows)
    for (s1, l1), (s2, l2) in zip(gaps, gaps[1:]):
        if s1 + l1 > s2:
            raise DataError(f"gap {s2}:{l2} overlaps gap {s1}:{l1}")

    usable = ~table.missing.any(axis=1)  # observed and outside every gap
    for start, length in gaps:
        if start + length > table.n_rows:
            raise DataError(f"gap {start}:{length} runs past the {table.n_rows}-row file")
        usable[start:start + length] = False

    values = normalize(table.values, stats)
    befores, afters = [], []
    for (start, length), context in zip(gaps, contexts):
        lo, hi = start - context, start + length + context
        if lo < 0 or hi > table.n_rows:
            raise DataError(f"gap {start}:{length}: needs {context} observed rows on each side")
        if not (usable[lo:start].all() and usable[start + length:hi].all()):
            raise DataError(f"gap {start}:{length}: context rows must be observed values")
        befores.append(values[lo:start])
        afters.append(values[start + length:hi])

    lengths = [length for _, length in gaps]
    # the model runs on a float32 copy of the weights, as training's
    # mini-batches do; fills that float32 cannot hold finite (weights or
    # context beyond its range) are computed in float64
    with np.errstate(over="ignore", invalid="ignore"):
        filled = impute(_arena_params(params.config, params.flat.astype(np.float32)),
                        befores, afters, lengths, args.variant)
    fills = np.concatenate(filled) if filled else np.empty((0, d))
    if not np.isfinite(fills).all():
        fills = np.concatenate(impute(params, befores, afters, lengths, args.variant))
    rows = [start + k for start, length in gaps for k in range(length)]
    rewrite_csv(args.out, table, rows, denormalize(fills, stats))
    print(f"filled {len(rows)} row(s) across {len(gaps)} gap(s) into {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.training["seed"] = args.seed
    if not cfg.datasets:
        raise ConfigError("eval needs at least one [dataset:NAME] section")
    datasets = {}
    for spec in cfg.datasets:
        table = load_csv(spec.path, columns=spec.columns, markers=spec.missing,
                         header=HEADER_MODES[spec.header])
        for j, field in enumerate(table.file_fields):
            label = f"{spec.name}:{field}"
            if label in datasets:
                raise ConfigError(f"dataset:{spec.name}.columns: file column {field} "
                                  "is selected twice")
            datasets[label] = BenchmarkDataset(label, table.select([j]))
    bench = BenchmarkConfig(
        window=cfg.window_spec(),
        train=cfg.train_config(),
        network=cfg.network_config(),
        test_fraction=cfg.data["test_fraction"],
        eval_stride=cfg.data["eval_stride"],
        val_fraction=cfg.training["val_fraction"],
        jobs=args.jobs,
    )
    report = run_benchmark(list(datasets.values()), cfg.eval["variants"], bench)
    with open(cfg.paths["report"] + ".txt", "w") as fh:
        fh.write(format_report(report))
    with open(cfg.paths["report"] + ".csv", "w", newline="") as fh:
        fh.write(report_rows(report))
    print(format_report(report), end="")
    if report.complete:
        tables = [borda(report, "mae"), borda(report, "mre")]
        with open(cfg.paths["borda"] + ".txt", "w") as fh:
            fh.write(format_borda(tables))
        with open(cfg.paths["borda"] + ".csv", "w", newline="") as fh:
            fh.write(borda_rows(tables))
        print(format_borda(tables), end="")
        return EXIT_OK
    for dataset, variant in report.failed_cells:
        print(f"error: {dataset} {variant}: {report.cells[(dataset, variant)].error}",
              file=sys.stderr)
    print(f"warning: {len(report.failed_cells)} cell(s) failed; ranking skipped", file=sys.stderr)
    return EXIT_PARTIAL


def cmd_gradcheck(args) -> int:
    if args.instances < 1:
        raise ConfigError(f"--instances must be at least 1, got {args.instances}")
    for flag, value in (("--eps", args.eps), ("--tolerance", args.tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{flag} must be a finite positive number, got {value}")
    report = gradient_check(n_instances=args.instances, seed=args.seed,
                            eps=args.eps, tolerance=args.tolerance)
    for inst in report.instances:
        print(f"dims {inst.input_dim}x{inst.hidden_dim} gap {inst.gap_len} "
              f"windows {inst.windows} "
              f"{inst.variant:<8} merge_mlp {inst.merge_hidden} "
              f"forward_only {int(inst.forward_only)}: "
              f"max rel err {inst.max_rel_err:.3e} ({inst.worst_path})")
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: max relative error {report.max_rel_err:.3e} "
          f"(worst parameter {report.worst_path}, tolerance {report.tolerance:g})")
    return EXIT_OK if report.passed else EXIT_USAGE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error, or the help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.print_defaults:
        print(default_config_text(), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    handler = {
        "synth": cmd_synth,
        "train": cmd_train,
        "impute": cmd_impute,
        "eval": cmd_eval,
        "gradcheck": cmd_gradcheck,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, DataError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
