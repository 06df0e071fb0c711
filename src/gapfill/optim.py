"""Adam, the mini-batch training loop, and early stopping."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ImputationWindow,
    ModelParams,
    NetworkConfig,
    _arena_params,
    clone_params,
    forward,
    init_model_params,
    iter_params,
    loss,
    loss_and_grads,
    make_schedule,
    params_from_flat,
)
from .numerics import Rng


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 100
    batch_size: int = 32
    patience: int = 10
    min_delta: float = 0.0
    seed: int = 0
    clip_norm: float = 0.0  # 0 disables gradient clipping


# floats per pass of `adam_step`: its two scratch vectors stay this short
# (64 KB each), so an update allocates nothing and adds no full-length buffer
_ADAM_BLOCK = 8192


class AdamState:
    """First/second moment vectors, shaped like `ModelParams.flat`, the step
    counter, and two short scratch vectors for the update; `cfg` holds the
    learning rate, decays and stabilizer."""

    def __init__(self, params: ModelParams, cfg: TrainConfig):
        self.cfg = cfg
        self.step_count = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._scratch = np.empty((2, min(_ADAM_BLOCK, params.flat.size)))


def adam_step(state: AdamState, params: ModelParams, grads: ModelParams):
    """One bias-corrected Adam update of every parameter, in place.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    theta <- theta - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)
    """
    g = grads.flat
    if g.shape != params.flat.shape:
        raise ValueError(f"gradient has {g.size} floats, the parameters {params.flat.size}")
    if not np.all(np.isfinite(g)):
        path = next(path for path, t in iter_params(grads) if not np.all(np.isfinite(t)))
        raise ValueError(f"non-finite gradient for parameter {path}")
    state.step_count += 1
    t = state.step_count
    cfg = state.cfg
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    # block by block, the same elementwise operations in the same order as
    # m += (1-b1)*g; v += (1-b2)*(g*g); theta -= (lr*(m/bc1)) / (sqrt(v/bc2)+eps)
    for lo in range(0, g.size, state._scratch.shape[1]):
        part = slice(lo, lo + state._scratch.shape[1])
        m, v, gb, theta = state.m[part], state.v[part], g[part], params.flat[part]
        a, b = state._scratch[:, :gb.size]
        m *= cfg.beta1
        np.multiply(1.0 - cfg.beta1, gb, out=a)
        m += a
        v *= cfg.beta2
        np.multiply(gb, gb, out=a)
        a *= 1.0 - cfg.beta2
        v += a
        np.divide(m, bc1, out=a)
        a *= cfg.lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += cfg.eps
        a /= b
        theta -= a
    return state, params


class EarlyStopping:
    """Stop after `cfg.patience` epochs without a validation improvement of
    more than `cfg.min_delta`; keeps the best snapshot."""

    def __init__(self, cfg: TrainConfig):
        if cfg.patience < 1:
            raise ValueError("patience must be >= 1")
        self.cfg = cfg
        self.best_loss = np.inf
        self.best_epoch = 0
        self.best_params: ModelParams | None = None
        self.epochs_since_best = 0

    def update(self, epoch: int, val_loss: float, params: ModelParams) -> bool:
        if val_loss < self.best_loss - self.cfg.min_delta:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.best_params = clone_params(params)
            self.epochs_since_best = 0
            return False
        self.epochs_since_best += 1
        return self.epochs_since_best >= self.cfg.patience


@dataclass
class TrainLogRow:
    epoch: int
    train_loss: float
    val_loss: float
    elapsed: float


@dataclass
class TrainLog:
    rows: list[TrainLogRow] = field(default_factory=list)
    clip_events: int = 0
    stopped_early: bool = False
    best_epoch: int = 0
    best_val_loss: float = np.inf


def _check_windows(windows: list[ImputationWindow], name: str) -> tuple[int, int]:
    if not windows:
        raise ValueError(f"{name} window set is empty")
    first = windows[0]
    if first.missing is None:
        raise ValueError(f"{name} windows need ground-truth gap rows")
    T, d = first.missing.shape
    for w in windows:
        if w.missing is None or w.missing.shape != (T, d):
            raise ValueError(f"{name} windows disagree on gap length or dimension")
    return T, d


def train(
    net_cfg: NetworkConfig,
    windows: list[ImputationWindow],
    val_windows: list[ImputationWindow],
    cfg: TrainConfig,
) -> tuple[ModelParams, TrainLog]:
    """Train a fresh network; returns the best-validation snapshot and the log.

    Deterministic for a fixed config and seed: initialization, shuffling,
    and gradient accumulation order are all driven by one seeded stream.
    Each mini-batch's loss and gradient come from one batched pass in
    float32, on a copy of the float64 master weights refilled before every
    batch; the gradient is cast up to float64 for its scaling, clipping and
    Adam. The master weights, Adam's moments, the snapshot and validation
    stay float64.
    """
    T, _ = _check_windows(windows, "training")
    if _check_windows(val_windows, "validation")[0] != T:
        raise ValueError("training and validation windows disagree on gap length")
    rng = Rng(cfg.seed)
    params = init_model_params(net_cfg, rng)
    compute = _arena_params(net_cfg, np.empty(params.flat.shape, np.float32))
    grads = params_from_flat(net_cfg, np.empty_like(params.flat))
    schedule = make_schedule(T, net_cfg.schedule_variant)
    adam = AdamState(params, cfg)
    policy = EarlyStopping(cfg)
    log = TrainLog()
    started = time.perf_counter()
    order = list(range(len(windows)))

    for epoch in range(1, cfg.epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        for batch_no, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[lo:lo + cfg.batch_size]
            # the isfinite check below is the divergence guard; silence
            # numpy's overflow chatter on the way to it, the cast of master
            # weights beyond float32's range to inf included
            with np.errstate(over="ignore", invalid="ignore"):
                np.copyto(compute.flat, params.flat)
                value, grads32 = loss_and_grads(compute, [windows[i] for i in batch], schedule)
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_no}",
                    epoch=epoch, batch=batch_no)
            epoch_loss += value
            g = grads.flat
            np.copyto(g, grads32.flat)
            g *= 1.0 / len(batch)
            if cfg.clip_norm > 0.0:
                # numpy's pairwise sum, not a BLAS dot: a threaded BLAS dot
                # sums in an order that depends on its thread count
                norm = np.sqrt(np.sum(g * g))
                if norm > cfg.clip_norm:
                    g *= cfg.clip_norm / norm
                    log.clip_events += 1
            adam_step(adam, params, grads)
        train_loss = epoch_loss / len(order)
        val_loss = evaluate_loss(params, val_windows, schedule)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}", epoch=epoch)
        log.rows.append(TrainLogRow(epoch, train_loss, val_loss, time.perf_counter() - started))
        if policy.update(epoch, val_loss, params):
            log.stopped_early = True
            break

    best = policy.best_params if policy.best_params is not None else params
    log.best_epoch = policy.best_epoch
    log.best_val_loss = policy.best_loss
    return clone_params(best), log


def evaluate_loss(params: ModelParams, windows: list[ImputationWindow], schedule) -> float:
    """Mean window loss over a window list, no parameter updates."""
    if not windows:
        raise ValueError("cannot evaluate on an empty window set")
    losses = loss(forward(params, windows, schedule))
    return float(np.sum(losses)) / len(windows)


def split_validation(windows: list[ImputationWindow], fraction: float
                     ) -> tuple[list[ImputationWindow], list[ImputationWindow]]:
    """Hold out the chronologically last slice of windows for validation."""
    if len(windows) < 2:
        raise ValueError(f"need at least 2 windows to split off validation, got {len(windows)}")
    n_val = max(1, round(fraction * len(windows)))
    if n_val >= len(windows):
        n_val = len(windows) - 1
    return windows[:-n_val], windows[-n_val:]


def write_train_log(log: TrainLog, text_path, rows_path) -> None:
    """Emit the log as an aligned text table and as CSV rows."""
    header = f"{'epoch':>6} {'train_loss':>14} {'val_loss':>14} {'elapsed_s':>10}"
    lines = [header, "-" * len(header)]
    for row in log.rows:
        lines.append(f"{row.epoch:>6d} {row.train_loss:>14.6e} {row.val_loss:>14.6e} {row.elapsed:>10.2f}")
    lines.append("")
    lines.append(f"best epoch: {log.best_epoch} (val loss {log.best_val_loss:.6e})")
    if log.stopped_early:
        lines.append("stopped early: validation loss stopped improving")
    if log.clip_events:
        lines.append(f"gradient clipping triggered {log.clip_events} time(s)")
    with open(text_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(rows_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_loss", "elapsed"])
        for row in log.rows:
            writer.writerow([row.epoch, repr(row.train_loss), repr(row.val_loss),
                             f"{row.elapsed:.3f}"])
