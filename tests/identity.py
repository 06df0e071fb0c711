"""Output-identity check: one `case sha256` line per program output.

    python3 tests/identity.py > lines.txt

Run it on two trees and `diff` the two files: an empty diff means every
hashed output is the same to the bit. It pins no golden value; it only
makes "the outputs did not move" one command. BLAS and OpenMP are pinned to
one thread, as `bench/run.py` pins them.

The model cases run d2 h8 networks (full, forward-only, merge-MLP) on a
batch of one window, a dense batch of 32 and a ragged batch whose context
and gap lengths rank the windows differently (so some encoder steps run
rows whose context has not begun), each on a float64 and a float32 arena.
They hash every trace array, `loss`, the value and gradient of
`loss_and_grads`, `impute`'s fills and, for the two-stream networks,
`merge_input_grads`. The CLI cases hash a `train` checkpoint, `impute`'s
output with context equal to the gap and with `--context 7`, and `eval`'s
report and ranking CSVs at `--jobs 1` and `--jobs 2`, on a 600-row series.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    for _var in THREAD_VARS:  # before numpy is first imported
        os.environ[_var] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from gapfill import cli  # noqa: E402
from gapfill.data import SeriesTable, synth, write_csv  # noqa: E402
from gapfill.model import (  # noqa: E402
    ImputationWindow,
    NetworkConfig,
    _arena_params,
    forward,
    impute,
    init_model_params,
    loss,
    loss_and_grads,
    make_schedule,
    merge_input_grads,
)
from gapfill.numerics import Rng  # noqa: E402

NETWORKS = {
    "full": NetworkConfig(input_dim=2, hidden_dim=8),
    "fwonly": NetworkConfig(input_dim=2, hidden_dim=8, forward_only=True),
    "mlp": NetworkConfig(input_dim=2, hidden_dim=8, schedule_variant="endpoint", merge_hidden=3),
}
# (before, gap, after) lengths of each window
BATCHES = {
    "b1": [(5, 4, 5)],
    "b32": [(6, 5, 6)] * 32,
    "ragged": [(1, 6, 2), (5, 1, 5), (3, 3, 2), (2, 6, 1), (4, 2, 6), (6, 4, 3)],
}
TRACE_ARRAYS = ("h_fw", "pred_fw", "h_bw", "pred_bw", "merged", "merge_hidden_acts")


def digest(value) -> str:
    """SHA-256 of an array's dtype, shape and bytes, or of a file's bytes."""
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    a = np.ascontiguousarray(value)
    return hashlib.sha256(f"{a.dtype}{a.shape}".encode() + a.tobytes()).hexdigest()


def model_case(net: str, batch: str, dtype: str):
    """(case, digest) pairs of one network on one batch and arena dtype."""
    cfg = NETWORKS[net]
    rng = Rng(sum(map(ord, net + batch)))
    params = init_model_params(cfg, rng)
    if dtype == "f32":
        params = _arena_params(cfg, params.flat.astype(np.float32))
    windows = [ImputationWindow(rng.normal_array((b, 2)), rng.normal_array((t, 2)),
                                rng.normal_array((a, 2))) for b, t, a in BATCHES[batch]]
    schedules = [make_schedule(t, cfg.schedule_variant) for _, t, _ in BATCHES[batch]]
    name = f"{net}.{batch}.{dtype}"
    trace = forward(params, windows, schedules)
    for array in TRACE_ARRAYS:
        value = getattr(trace, array)
        if value is not None:
            yield f"{name}.trace.{array}", digest(value)
    yield f"{name}.loss", digest(loss(trace))
    value, grads = loss_and_grads(params, windows, schedules)
    yield f"{name}.loss_and_grads.value", digest(np.float64(value))
    yield f"{name}.loss_and_grads.grads", digest(grads.flat)
    fills = impute(params, [w.before for w in windows], [w.after for w in windows],
                   [t for _, t, _ in BATCHES[batch]])
    yield f"{name}.impute", digest(np.concatenate(fills))
    if not cfg.forward_only:
        dh_fw, dh_bw = merge_input_grads(params, trace, schedules)
        yield f"{name}.merge_input_grads", digest(np.concatenate([dh_fw, dh_bw]))


CONFIG = """[model]
hidden_dim = 8
[training]
epochs = 3
patience = 4
batch_size = 16
lr = 0.005
seed = 3
[data]
path = {csv}
columns = a
test_fraction = 0.5
before_len = 6
gap_len = 5
after_len = 6
train_stride = 2
[paths]
checkpoint = {work}/model.ckpt
train_log = {work}/train_log
report = {work}/report
borda = {work}/borda
[dataset:two]
path = {csv}
columns = a,b
"""


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gapfill {' '.join(argv)} exited with {code}")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cli_case(command: str):
    """(case, digest) pairs of one CLI run on the 600-row two-column series."""
    with tempfile.TemporaryDirectory() as work:
        csv = os.path.join(work, "series.csv")
        a = synth("sum-of-sines", 600, noise_std=0.05, seed=11)
        b = synth("sine", 600, noise_std=0.1, seed=12, period=37.0)
        write_csv(csv, SeriesTable(["a", "b"], np.concatenate([a.values, b.values], axis=1),
                                   np.zeros((600, 2), dtype=bool)))
        cfg = os.path.join(work, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(CONFIG.format(csv=csv, work=work))
        if command == "eval":
            for jobs in ("1", "2"):
                _run(["eval", "--config", cfg, "--jobs", jobs])
                for name in ("report", "borda"):
                    yield f"eval.jobs{jobs}.{name}.csv", digest(_read(f"{work}/{name}.csv"))
            return
        _run(["train", "--config", cfg])
        yield "train.checkpoint", digest(_read(f"{work}/model.ckpt"))
        if command == "impute":
            gaps = [f"{start}:{length}" for start, length in
                    [(40, 5), (100, 1), (180, 12), (300, 7), (450, 20), (560, 3)]]
            for label, extra in (("context=gap", []), ("context=7", ["--context", "7"])):
                out = os.path.join(work, "filled.csv")
                _run(["impute", "--checkpoint", f"{work}/model.ckpt", "--data", csv,
                      "--column", "a", *sum((["--gap", g] for g in gaps), []),
                      *extra, "--out", out])
                yield f"impute.{label}", digest(_read(out))


# every case, in the order the lines print
CASES = {
    **{f"{net}.{batch}.{dtype}": (lambda n=net, b=batch, t=dtype: model_case(n, b, t))
       for net in NETWORKS for batch in BATCHES for dtype in ("f64", "f32")},
    "cli.impute": lambda: cli_case("impute"),
    "cli.eval": lambda: cli_case("eval"),
}


def lines(names=None) -> list[str]:
    """The `case sha256` lines of the named cases, or of every case."""
    return [f"{case} {value}" for name in (names or CASES) for case, value in CASES[name]()]


if __name__ == "__main__":
    print("\n".join(lines()))
