"""Adam, the mini-batch training loop, and early stopping."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ImputationWindow,
    ModelParams,
    NetworkConfig,
    clone_params,
    forward,
    init_model_params,
    iter_params,
    loss,
    loss_and_grads,
    make_schedule,
    stack_windows,
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


def _named_params(params) -> list[tuple[str, np.ndarray]]:
    if isinstance(params, ModelParams):
        return iter_params(params)
    return list(params)


class AdamState:
    """First/second moment accumulators plus the step counter."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        named = _named_params(params)
        self.m = {path: np.zeros_like(arr) for path, arr in named}
        self.v = {path: np.zeros_like(arr) for path, arr in named}


def adam_step(state: AdamState, params, grads: dict[str, np.ndarray]):
    """One bias-corrected Adam update, in place.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    theta <- theta - lr * (m/(1-b1^t)) / (sqrt(v/(1-b2^t)) + eps)
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for path, p in _named_params(params):
        if path not in grads:
            raise ValueError(f"missing gradient for parameter {path}")
        g = grads[path]
        if g.shape != p.shape:
            raise ValueError(f"{path}: gradient shape {g.shape} does not match parameter shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {path}")
        m = state.m[path]
        v = state.v[path]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return state, params


class EarlyStopping:
    """Stop after `patience` epochs without validation improvement; keeps the best snapshot."""

    def __init__(self, patience: int = 10, min_delta: float = 0.0):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.min_delta = min_delta
        self.best_loss = np.inf
        self.best_epoch = 0
        self.best_params: ModelParams | None = None
        self.epochs_since_best = 0

    def update(self, epoch: int, val_loss: float, params: ModelParams) -> bool:
        if val_loss < self.best_loss - self.min_delta:
            self.best_loss = val_loss
            self.best_epoch = epoch
            self.best_params = clone_params(params)
            self.epochs_since_best = 0
            return False
        self.epochs_since_best += 1
        return self.epochs_since_best >= self.patience


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
    policy: EarlyStopping | None,
    cfg: TrainConfig,
) -> tuple[ModelParams, TrainLog]:
    """Train a fresh network; returns the best-validation snapshot and the log.

    Deterministic for a fixed config and seed: initialization, shuffling,
    and gradient accumulation order are all driven by one seeded stream.
    Each mini-batch's loss and gradient come from one batched pass.
    """
    T, _ = _check_windows(windows, "training")
    if _check_windows(val_windows, "validation")[0] != T:
        raise ValueError("training and validation windows disagree on gap length")
    rng = Rng(cfg.seed)
    params = init_model_params(net_cfg, rng)
    schedule = make_schedule(T, net_cfg.schedule_variant)
    adam = AdamState(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    policy = policy or EarlyStopping(patience=cfg.patience, min_delta=cfg.min_delta)
    log = TrainLog()
    started = time.perf_counter()
    order = list(range(len(windows)))
    stacked = stack_windows(windows)
    val_stacked = stack_windows(val_windows)

    for epoch in range(1, cfg.epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        for batch_no, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[lo:lo + cfg.batch_size]
            # the isfinite check below is the divergence guard; silence
            # numpy's overflow chatter on the way to it
            with np.errstate(over="ignore", invalid="ignore"):
                value, grads = loss_and_grads(params, stacked.take(batch), schedule)
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_no}",
                    epoch=epoch, batch=batch_no)
            epoch_loss += value
            inv = 1.0 / len(batch)
            for g in grads.values():
                g *= inv
            if cfg.clip_norm > 0.0:
                norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                if norm > cfg.clip_norm:
                    scale = cfg.clip_norm / norm
                    for g in grads.values():
                        g *= scale
                    log.clip_events += 1
            adam_step(adam, params, grads)
        train_loss = epoch_loss / len(order)
        val_loss = evaluate_loss(params, val_stacked, schedule)
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


def evaluate_loss(params: ModelParams, windows, schedule) -> float:
    """Mean window loss over a window list or a batch window, no parameter updates."""
    if not isinstance(windows, ImputationWindow):
        if not windows:
            raise ValueError("cannot evaluate on an empty window set")
        windows = stack_windows(windows)
    losses = loss(forward(params, windows, schedule), windows.missing)
    return float(np.sum(losses)) / losses.shape[0]


def split_validation(windows: list[ImputationWindow], fraction: float = 0.1
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
    with open(rows_path, "w") as fh:
        fh.write("epoch,train_loss,val_loss,elapsed\n")
        for row in log.rows:
            fh.write(f"{row.epoch},{row.train_loss!r},{row.val_loss!r},{row.elapsed:.3f}\n")
