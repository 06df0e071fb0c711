"""Run one gapfill benchmark workload and print its metrics.

    python3 bench/run.py --workload train|impute|eval --seed N --seconds S --trace 0|1

With --trace 0 the workload runs as a closed loop, one caller issuing its
next call when the previous one returns, for S seconds (and at least the
workload's minimum number of calls), and the end-to-end metrics are
reported. With --trace 1 a fixed number of call pairs runs, one call of
each pair plain and one traced, and the per-layer metrics and the tracing
overhead are reported; the fixed count makes every `*.calls` repeat
exactly. Every call's outputs are checked either way. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The program is imported from `src/` next to this directory, with BLAS and
OpenMP pinned to one thread. Inputs and outputs live in a scratch directory
under `bench/_work/` that is removed at exit; a record of each run,
environment included, is written to `bench/out/`.
"""

import os
import sys
import time

STARTED = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3

# per-layer metric -> (span, statistic, unit); spans are "<module>.<function>"
PER_LAYER = {
    "lstm.step.calls": ("lstm.lstm_step", "calls", "count"),
    "lstm.step.self_s": ("lstm.lstm_step", "self_s", "s"),
    "numerics.sigmoid.calls": ("numerics.sigmoid", "calls", "count"),
    "numerics.sigmoid.self_s": ("numerics.sigmoid", "self_s", "s"),
    "lstm.step_backward.calls": ("lstm.lstm_step_backward", "calls", "count"),
    "lstm.step_backward.self_s": ("lstm.lstm_step_backward", "self_s", "s"),
    "model.loss_and_grads.calls": ("model.loss_and_grads", "calls", "count"),
    "model.loss_and_grads.self_s": ("model.loss_and_grads", "self_s", "s"),
    "optim.adam_step.calls": ("optim.adam_step", "calls", "count"),
    "optim.adam_step.self_s": ("optim.adam_step", "self_s", "s"),
    "optim.train.self_s": ("optim.train", "self_s", "s"),
    "optim.evaluate_loss.s": ("optim.evaluate_loss", "total_s", "s"),
    "model.forward.calls": ("model.forward", "calls", "count"),
    "model.forward.self_s": ("model.forward", "self_s", "s"),
    "model.impute.calls": ("model.impute", "calls", "count"),
    "model.impute.ms_p50": ("model.impute", "ms_p50", "ms"),
    "model.impute.ms_p90": ("model.impute", "ms_p90", "ms"),
    "model.init_params.s": ("model.init_model_params", "total_s", "s"),
    "data.load_csv.s": ("data.load_csv", "total_s", "s"),
    "data.load_csv.rows_per_s": ("data.load_csv", "per_s", "1/s"),
    "data.extract_windows.s": ("data.extract_windows", "total_s", "s"),
    "checkpoint.load.s": ("checkpoint.load_checkpoint", "total_s", "s"),
    "checkpoint.save.s": ("checkpoint.save_checkpoint", "total_s", "s"),
    "cli.impute.self_s": ("cli.cmd_impute", "self_s", "s"),
    "eval.run_benchmark.s": ("eval.run_benchmark", "total_s", "s"),
    # the parent's run_benchmark time outside its own child spans: waiting on workers
    "eval.train_wait_s": ("eval.run_benchmark", "self_s", "s"),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "impute", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    sys.path.insert(0, SRC)
    import gapfill.cli  # noqa: F401  (imports every layer module)
    where = os.path.dirname(os.path.abspath(gapfill.cli.__file__))
    if where != os.path.join(SRC, "gapfill"):
        raise ImportError(f"gapfill was imported from {where}, not from {SRC}")


def _git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "not a git checkout"


def _environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info.get('version', '')}".strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pinning": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": _git_sha(),
    }


def _percentile(values, q: int) -> float:
    """q-th percentile, interpolated between samples (q in 1..99)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _call(cli, workload, i: int, tracer=None) -> tuple[float, list[str]]:
    """One timed `gapfill` call plus its output check (untimed)."""
    argv = workload.argv(i)
    installed = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), installed:
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crashing call is a failed operation; keep measuring
            traceback.print_exc()
            rc = "exception"
        elapsed = time.perf_counter() - started
    if rc != 0:
        return elapsed, [f"exit code {rc}"]
    try:
        return elapsed, workload.check(i)
    except Exception as exc:  # an unreadable output is a failed check
        traceback.print_exc()
        return elapsed, [f"output check raised {exc!r}"]


def _setup(workload_cls, seed: int, work: str, tracer=None):
    """Set the workload up SETUP_REPEATS times; returns it and the median time."""
    times = []
    for rep in range(SETUP_REPEATS):
        installed = (tracer.installed() if tracer is not None and rep == SETUP_REPEATS - 1
                     else contextlib.nullcontext())
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), installed:
            workload = workload_cls(seed, work)
            workload.setup()
        times.append(time.perf_counter() - started)
    return workload, statistics.median(times)


def _timed_loop(cli, workload, seconds: float):
    deadline = time.perf_counter() + seconds
    times, messages, failed = [], [], 0
    i = 0
    while i < workload.min_calls or time.perf_counter() < deadline:
        elapsed, errors = _call(cli, workload, i)
        times.append(elapsed)
        messages += [f"call {i}: {e}" for e in errors[:3]]
        failed += bool(errors)
        i += 1
    return times, messages, failed


def _traced_pairs(cli, workload, tracer):
    """Plain and traced calls on the same inputs, alternating which goes first."""
    plain, traced, messages, failed = [], [], [], 0
    for k in range(workload.trace_pairs):
        order = (None, tracer) if k % 2 == 0 else (tracer, None)
        for t in order:
            elapsed, errors = _call(cli, workload, k, t)
            (plain if t is None else traced).append(elapsed)
            messages += [f"call {k}{'' if t is None else ' traced'}: {e}" for e in errors[:3]]
            failed += bool(errors)
    return plain, traced, messages, failed


def _layer_metrics(stats, setup_stats) -> dict:
    out = {}
    for metric, (span, stat, unit) in PER_LAYER.items():
        if stat == "calls":
            value = stats.calls.get(span, 0)
        elif stat == "self_s":
            value = stats.self_s.get(span, 0.0)
        elif stat == "total_s":
            value = stats.total_s.get(span, 0.0)
            if span == "model.init_model_params":  # impute initializes only in set-up
                value += setup_stats.total_s.get(span, 0.0)
        elif stat == "per_s":
            busy = stats.total_s.get(span, 0.0)
            value = stats.counted.get(span, 0) / busy if busy else 0.0
        else:  # ms_p50 / ms_p90
            durations = stats.durations.get(span, [])
            value = 1000 * _percentile(durations, int(stat[4:])) if durations else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def run(args, work: str) -> int:
    from gapfill import cli
    from tracing import LayerStats, Tracer, write_spans
    from workloads import WORKLOADS

    import_s = time.perf_counter() - STARTED
    env = _environment()
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    setup_tracer = Tracer() if args.trace else None
    workload, setup_median = _setup(workload_cls, args.seed, work, setup_tracer)
    setup_s = import_s + setup_median
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"env {json.dumps(env)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}

    if args.trace:
        tracer = Tracer()
        plain, traced, messages, failed = _traced_pairs(cli, workload, tracer)
        attempted = len(plain) + len(traced)
        stats = LayerStats(tracer.spans)
        metrics = _layer_metrics(stats, LayerStats(setup_tracer.spans))
        overhead = 100.0 * (sum(traced) / sum(plain) - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        quality_name, quality = workload.quality()
        metrics["model.error"] = {"value": quality, "unit": "err"}
        write_spans(os.path.join(out_dir, f"spans-{args.workload}.csv"), tracer.spans)
        print(f"traced {len(traced)} call(s), {len(tracer.spans)} spans; plain calls "
              f"{sum(plain):.3f} s, traced {sum(traced):.3f} s, overhead {overhead:.1f}%")
        print(f"model.error is {quality_name}")
        if args.workload == "eval":
            print("eval: spans are from the parent process only; the training workers "
                  "are forked and their spans are lost with them")
        print("wrapped: " + " ".join(tracer.sites))
        print(stats.table())
        samples = {"model.impute spans": stats.calls.get("model.impute", 0),
                   "plain_calls": len(plain), "traced_calls": len(traced)}
    else:
        times, messages, failed = _timed_loop(cli, workload, args.seconds)
        attempted = len(times)
        usage = [resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        quality_name, quality = workload.quality()
        p50, p90 = 1000 * statistics.median(times), 1000 * _percentile(times, 90)
        work_per_s = attempted * workload.work_per_call / sum(times)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": max(usage) / 1024.0, "unit": "MB"},
            "call_ms_p90": {"value": p90, "unit": "ms"},
        }
        n = len(times)
        named = [
            ("setup_s", setup_s, "s", f"import {import_s:.3f} s + median of "
                                      f"{SETUP_REPEATS} set-ups"),
            ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB",
             "largest of this process and its children"),
            ("fail_ratio", failed / attempted, "ratio",
             f"over {attempted} calls"),
            (workload.work_name, work_per_s, "1/s",
             f"{workload.work_per_call} {workload.unit} per call, over {n} calls"),
            (f"{args.workload}_call_ms_p50", p50, "ms", f"of {n} calls"),
            (f"{args.workload}_call_ms_p90", p90, "ms", f"of {n} calls; call_ms_p90"),
            (quality_name, quality, "err", "repeats exactly for a seed"),
        ]
        for name, value, unit, note in named:
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:<24} {shown:>14} {unit:<6} {note}")
        samples = {"calls": n, "call_ms": [1000 * t for t in times]}

    for line in messages:
        print(f"FAILED {line}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(samples=samples, **result)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import gapfill from {SRC}: {exc}", file=sys.stderr)
        return 2
    work_root = os.path.join(BENCH, "_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
