"""The gap-imputation network and its exact gradients.

A window is (before, gap, after). One LSTM encoder reads `before` in
chronological order, a second reads `after` in reverse. Two decoder LSTMs
then fill the gap: the forward decoder starts from the forward encoder's
final state with the last observation before the gap as its first input,
and each step feeds its own local prediction into the next step. The
backward decoder mirrors this from the other side. Both streams run over
the whole gap first; only then is each position's pair of hidden vectors
scaled by the proximity weights (gamma for the forward stream, 1 - gamma
for the backward one) and merged by the output layer into the final
imputation.

Because the proximity weights are fixed constants, the same weights scale
the gradients flowing from the merge layer back into each decoder stream,
so learning is also dominated by whichever stream sits nearer to real
observations.

The gradient of the training loss is computed in closed form by
backpropagation through time, including the paths created by the decoders
consuming their own predictions.

Everything runs batch-first and stream-stacked. The two streams share no
state until the merge, so each LSTM step of both runs as one stacked
(S, B, .) step: S = 2 streams (the backward one fed `after` in reverse),
or S = 1 for the forward-only network, over B windows. One window is the
case B = 1.

Windows in a batch may differ in shape. Contexts are right-aligned: a row
keeps the zero state until its first real row, so a shorter context reads
exactly as it would alone. Rows run longest gap first, so each decoder
step covers only a prefix of them, the rows still inside their gap, and
each encoder step the prefix up to the last row whose context has begun.
Positions past a row's own gap are never computed and read zero in the
returned trace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lstm import (CellTape, ForwardCell, LstmParams, LstmState, lstm_step, lstm_step_backward,
                   zero_state)
from .numerics import Rng, ShapeError, finite_diff_grad

SCHEDULE_VARIANTS = ("linear", "endpoint", "constant")


@dataclass(frozen=True)
class ScalingSchedule:
    """Per-position stream weights for a gap of length `gap_len`.

    gamma[t] weighs the forward decoder stream at gap position t+1 and
    gamma_prime[t] the backward stream; the two always sum to 1.
    """

    gap_len: int
    gamma: np.ndarray
    gamma_prime: np.ndarray
    variant: str


def make_schedule(gap_len: int, variant: str = "linear") -> ScalingSchedule:
    """Build the stream-weight schedule for a gap.

    linear:    gamma_t = 1 - t/gap_len            (reaches 0 at the last position)
    endpoint:  gamma_t = (gap_len-t)/(gap_len-1)  (exactly 1 at the first position)
    constant:  gamma_t = 0.5                      (the no-scaling ablation)

    A gap of length 1 uses 0.5 for every variant: with a single position
    neither stream is closer to the observations.
    """
    if gap_len < 1:
        raise ValueError("gap length must be at least 1")
    if variant not in SCHEDULE_VARIANTS:
        raise ValueError(f"unknown schedule variant {variant!r}; expected one of {SCHEDULE_VARIANTS}")
    t = np.arange(1, gap_len + 1, dtype=np.float64)
    if gap_len == 1:
        gamma = np.array([0.5])
    elif variant == "linear":
        gamma = 1.0 - t / gap_len
    elif variant == "endpoint":
        gamma = (gap_len - t) / (gap_len - 1.0)
    else:
        gamma = np.full(gap_len, 0.5)
    return ScalingSchedule(gap_len, gamma, 1.0 - gamma, variant)


@dataclass
class Affine:
    w: np.ndarray  # (out_dim, in_dim)
    b: np.ndarray  # (out_dim,)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """y = W x + b for a vector, or for every row of a stack of them."""
        return x @ self.w.T + self.b

    def backward(self, x: np.ndarray, dy: np.ndarray, acc: "Affine") -> np.ndarray:
        """Accumulate the gradients of rows `x` -> `dy` into `acc`; returns dL/dx."""
        acc.w += dy.reshape(-1, dy.shape[-1]).T @ x.reshape(-1, x.shape[-1])
        acc.b += dy.reshape(-1, dy.shape[-1]).sum(axis=0)
        return dy @ self.w


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int = 1
    hidden_dim: int = 64
    schedule_variant: str = "linear"
    merge_hidden: int = 0  # 0 = single linear merge layer, else tanh-MLP width
    forward_only: bool = False  # forward encoder + forward decoder only


@dataclass(eq=False)  # identity equality: comparing the arrays has no single truth value
class ModelParams:
    """All trainable tensors, each a view of one vector `flat`.

    `flat` holds, in order: the fused weights `lstm_w` (4, 4h, d+h) and
    biases `lstm_b` (4, 4h) of the cells enc_fw, enc_bw, dec_fw, dec_bw;
    the head weights `head_w` (2, d, h) and biases `head_b` (2, d) of
    head_fw, head_bw; then each merge layer's w and b. So the encoders are
    `lstm_w[0:2]`, the decoders `lstm_w[2:4]` and the heads `head_w[0:2]`,
    each pair stacked in stream order; a head maps a stream's hidden vector
    to its local prediction. Built by `params_from_flat`; a pickled or
    copied ModelParams is rebuilt the same way, so its tensors stay views
    of its own `flat`. `flat` is float64, except for the float32 compute
    copy that `optim.train` runs each mini-batch on; every pass follows
    the dtype of `flat`.
    """

    config: NetworkConfig
    flat: np.ndarray
    lstm_w: np.ndarray
    lstm_b: np.ndarray
    head_w: np.ndarray
    head_b: np.ndarray
    merge: list[Affine]  # [linear] or [hidden_layer, output_layer] with tanh between

    def __reduce__(self):
        return params_from_flat, (self.config, self.flat)


def _arena_shapes(config: NetworkConfig) -> list[tuple[int, ...]]:
    d, h, m = config.input_dim, config.hidden_dim, config.merge_hidden
    merge = [(m, 2 * h), (m,), (d, m), (d,)] if m > 0 else [(d, 2 * h), (d,)]
    return [(4, 4 * h, d + h), (4, 4 * h), (2, d, h), (2, d), *merge]


def n_params(config: NetworkConfig) -> int:
    """Length of the parameter vector of a network with this config."""
    return sum(math.prod(shape) for shape in _arena_shapes(config))


def _blocks(config: NetworkConfig, flat: np.ndarray) -> list[np.ndarray]:
    """The arena's blocks, shaped by `_arena_shapes`, as views of `flat`."""
    shapes = _arena_shapes(config)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def params_from_flat(config: NetworkConfig, flat: np.ndarray) -> ModelParams:
    """The ModelParams whose every tensor is a view of `flat`, without copying."""
    n = n_params(config)
    if flat.dtype != np.float64 or flat.shape != (n,) or not flat.flags.c_contiguous:
        raise ShapeError(f"parameters need a contiguous float64 vector of {n} floats, "
                         f"got {flat.dtype} {flat.shape}")
    return _arena_params(config, flat)


def _arena_params(config: NetworkConfig, flat: np.ndarray) -> ModelParams:
    """`params_from_flat` without its checks, so `flat` may be any float
    type: the float32 compute copy of training is built here."""
    lstm_w, lstm_b, head_w, head_b, *merge = _blocks(config, flat)
    return ModelParams(config, flat, lstm_w, lstm_b, head_w, head_b,
                       [Affine(w, b) for w, b in zip(merge[::2], merge[1::2])])


@functools.lru_cache(maxsize=16)
def file_order(config: NetworkConfig) -> np.ndarray:
    """The parameter order of checkpoint files: the index into `flat` of each value.

    Cell by cell (enc_fw, enc_bw, dec_fw, dec_bw): the input weights w_i,
    w_f, w_g, w_o, then the recurrent weights u_i ... u_o, then the biases
    b_i ... b_o, each row-major; then head_fw.w, head_fw.b, head_bw.w,
    head_bw.b; then each merge layer's w and b, as the arena holds them.
    Built once per config and shared, so the array is read-only.
    """
    d, h = config.input_dim, config.hidden_dim
    lstm_w, lstm_b, head_w, head_b, *merge = _blocks(config, np.arange(n_params(config)))
    gates = [0, 1, 3, 2]  # the fused blocks of gates i, f, g, o
    w = lstm_w.reshape(4, 4, h, d + h)[:, gates]
    cells = [w[..., :d], w[..., d:], lstm_b.reshape(4, 4, h)[:, gates]]
    order = np.concatenate([np.concatenate([a.reshape(4, -1) for a in cells], axis=1).ravel(),
                            np.concatenate([head_w.reshape(2, -1), head_b], axis=1).ravel(),
                            *(a.ravel() for a in merge)])
    order.flags.writeable = False
    return order


def init_model_params(config: NetworkConfig, rng: Rng) -> ModelParams:
    """Initialize all parameters, drawing the weights in `file_order`.

    Cell and head weights are Uniform(-k, k) with k = 1/sqrt(hidden_dim),
    merge weights with k = 1/sqrt(fan_in). No bias is drawn: the forget
    gates' start at 1, all others at 0.
    """
    if config.schedule_variant not in SCHEDULE_VARIANTS:
        raise ValueError(f"unknown schedule variant {config.schedule_variant!r}")
    h = config.hidden_dim
    params = params_from_flat(config, np.zeros(n_params(config)))
    order = file_order(config)
    k = 1.0 / np.sqrt(h)
    # cell by cell, which keeps the draws' scratch small; the cells' weights open the arena
    for cell in np.split(order[order < params.lstm_w.size], 4):
        params.flat[cell] = rng.uniform_array(cell.size, -k, k)
    params.lstm_b[:, h:2 * h] = 1.0  # the forget gates
    params.head_w[...] = rng.uniform_array(params.head_w.shape, -k, k)
    for layer in params.merge:
        k = 1.0 / np.sqrt(layer.w.shape[1])
        layer.w[...] = rng.uniform_array(layer.w.shape, -k, k)
    return params


def iter_params(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """(path, tensor) pairs naming the arena's slices, in file order: each
    cell's fused w and b, each head's w and b, each merge layer's."""
    out: list[tuple[str, np.ndarray]] = []
    for c, name in enumerate(("enc_fw", "enc_bw", "dec_fw", "dec_bw")):
        out += [(f"{name}.w", params.lstm_w[c]), (f"{name}.b", params.lstm_b[c])]
    for s, name in enumerate(("head_fw", "head_bw")):
        out += [(f"{name}.w", params.head_w[s]), (f"{name}.b", params.head_b[s])]
    for i, layer in enumerate(params.merge):
        out += [(f"merge.{i}.w", layer.w), (f"merge.{i}.b", layer.b)]
    return out


def clone_params(params: ModelParams) -> ModelParams:
    return params_from_flat(params.config, params.flat.copy())


@dataclass
class ImputationWindow:
    """One sample: observed rows before a gap, the gap itself, observed rows after.

    `missing` holds the ground-truth gap rows and is None in pure inference.
    A batch is a list of windows, which may differ in shape.
    """

    before: np.ndarray  # (L_b, input_dim)
    missing: np.ndarray | None  # (T, input_dim)
    after: np.ndarray  # (L_a, input_dim)


@dataclass
class StreamTrace:
    """The stacked streams' decoder outputs and their tapes.

    Outputs are packed step-major, one row per real (window, gap step)
    pair: decoder step t's rows are `_Plan.offsets[t]:offsets[t + 1]`.
    Stream 0 processes row i's gap positions 1..T_i; stream 1, the
    backward stream, processes T_i..1.
    """

    h: np.ndarray  # (S, N, hidden)
    pred: np.ndarray  # (S, N, input_dim): local predictions
    enc_tapes: list[CellTape] | None
    dec_tapes: list[CellTape] | None


@dataclass
class _Pairs:
    """One forward pass's outputs by gap position, one row per real
    (window, position) pair, in the step-major order of `StreamTrace`."""

    h_fw: np.ndarray
    pred_fw: np.ndarray
    h_bw: np.ndarray | None
    pred_bw: np.ndarray | None
    merged: np.ndarray
    merge_hidden_acts: np.ndarray | None


class ForwardTrace:
    """Everything one forward pass over B windows produced, ordered by gap
    position.

    Each array is (B, T, .), where T is the batch's longest gap; positions
    past a row's own gap hold zeros, and `gap_len` holds each row's gap
    length as a (B,) array. The pass computes them packed, one row per real
    (window, position) pair, and each array is laid out on its first read
    into a fresh array, so a caller pays only for the arrays it reads, and
    writing to one changes nothing that `loss` reads.
    """

    def __init__(self, pairs: _Pairs, batch: _Batch):
        self._pairs, self._batch = pairs, batch
        self.gap_len: np.ndarray = batch.gap_len

    def _laid_out(self, name: str) -> np.ndarray | None:
        a = getattr(self._pairs, name)
        return None if a is None else _unpack(self._batch, a)

    h_fw = functools.cached_property(lambda self: self._laid_out("h_fw"))
    pred_fw = functools.cached_property(lambda self: self._laid_out("pred_fw"))  # local predictions
    h_bw = functools.cached_property(lambda self: self._laid_out("h_bw"))
    pred_bw = functools.cached_property(lambda self: self._laid_out("pred_bw"))
    merged = functools.cached_property(lambda self: self._laid_out("merged"))  # the imputation
    merge_hidden_acts = functools.cached_property(lambda self: self._laid_out("merge_hidden_acts"))


@dataclass(frozen=True)
class _Plan:
    """Where each row of a batch runs, a function of its shapes alone.

    Rows run longest gap first, ties longest context first, in the encoder
    and the decoder alike. The rows still inside their gap at decoder step t
    are the prefix `[:dec_live[t]]`, and step t's pairs are
    `offsets[t]:offsets[t + 1]` of the packed arrays. Encoder step t runs
    the prefix `[:enc_live[t]]` that ends at the last row with a real step
    at t; a row in it whose context has not begun keeps the zero state
    (`first`, `partial`). Such rows occur only where the windows' context
    and gap lengths rank them differently: never on a dense batch, nor on
    one whose every context is its gap or one shared length.
    """

    first: np.ndarray  # (S, B): each row's first real step in each stream
    enc_live: tuple[int, ...]  # (L,)
    partial: tuple[bool, ...]  # (L,): some live row has no real step yet in one stream
    dec_live: tuple[int, ...]  # (T,)
    offsets: tuple[int, ...]  # (T + 1,)
    rows: np.ndarray  # (N,): each pair's window by input index; the first B give the row order
    pos: np.ndarray  # (N,): each pair's gap position
    rev: np.ndarray  # (N,): the pair of the same window at the mirrored gap position


# a training loop repeats a few batch shapes: the full and the last
# mini-batch, and the validation windows
@functools.lru_cache(maxsize=4)
def _plan(lens: bytes, gaps: bytes, streams: int) -> _Plan:
    """The plan of a batch whose contexts have the int64 lengths `lens`
    (S, B) and whose gaps have the int64 lengths `gaps` (B,). Built once per
    shape and shared, so it is immutable: tuples, and read-only arrays."""
    lens = np.frombuffer(lens, dtype=np.int64).reshape(streams, -1)
    gap_len = np.frombuffer(gaps, dtype=np.int64)
    longest = lens.max(axis=0)
    order = np.lexsort((-longest, -gap_len))  # longest gap first, then longest context
    L, T = int(longest.max()), int(gap_len[order[0]])
    first = L - lens[:, order]
    # each row's first real step, then the earliest of it and every later row's
    begun = np.minimum.accumulate((L - longest[order])[::-1])[::-1]
    enc_live = np.searchsorted(begun, np.arange(L), side="right")
    partial = np.arange(L) < np.maximum.accumulate(first.max(axis=0))[enc_live - 1]
    dec_live = np.count_nonzero(gap_len[order, None] > np.arange(T), axis=0)
    offsets = np.concatenate(([0], np.cumsum(dec_live)))
    pos = np.repeat(np.arange(T), dec_live)
    rank = np.arange(offsets[-1]) - offsets[pos]  # each pair's row
    rows = order[rank]
    rev = offsets[gap_len[rows] - 1 - pos] + rank
    for a in (first, rows, pos, rev):
        a.flags.writeable = False
    return _Plan(first, tuple(enc_live.tolist()), tuple(partial.tolist()),
                 tuple(dec_live.tolist()), tuple(offsets.tolist()), rows, pos, rev)


@dataclass
class _Batch:
    """B windows laid out for the stacked streams, in the rows of `plan`."""

    context: np.ndarray  # (S, B, L, d) in row order: `before`, then `after` reversed, right-aligned
    gap_len: np.ndarray  # (B,) in input order
    gamma: np.ndarray  # (N,): each pair's stream weights
    gamma_prime: np.ndarray
    truth: np.ndarray | None  # (N, d) float64: the windows' `missing` rows, None without them
    plan: _Plan


def _rows(a, name: str, d: int) -> np.ndarray:
    """Validate one window's (n, d) rows."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != d:
        raise ShapeError(f"{name}: expected shape (n, {d}), got {a.shape}")
    if a.shape[0] < 1:
        raise ShapeError(f"{name}: needs at least one row")
    return a


def _schedule_rows(schedule, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's gap length and the stream weights of one shared schedule,
    or of a list of per-row schedules padded with zeros past each gap."""
    if isinstance(schedule, ScalingSchedule):
        return np.full(n, schedule.gap_len), schedule.gamma, schedule.gamma_prime
    schedules = list(schedule)
    if len(schedules) != n:
        raise ShapeError(f"{len(schedules)} schedules for {n} windows")
    gap_len = np.array([s.gap_len for s in schedules])
    gamma, gamma_prime = np.zeros((2, n, gap_len.max()))
    for i, s in enumerate(schedules):
        gamma[i, :s.gap_len], gamma_prime[i, :s.gap_len] = s.gamma, s.gamma_prime
    return gap_len, gamma, gamma_prime


def _layout(params: ModelParams, windows, schedule) -> _Batch:
    """Lay out a list of windows of any shapes for `_forward` of `params`.

    Each row's gap length comes from its schedule; a shared ScalingSchedule
    gives every row its length, and a window's `missing` rows, if any, must
    fill it. The context and stream weights take the dtype of `params.flat`.
    """
    cfg, dtype = params.config, params.flat.dtype
    d, streams = cfg.input_dim, 1 if cfg.forward_only else 2
    if isinstance(windows, ImputationWindow):
        raise ShapeError("expected a list of windows, got one ImputationWindow")
    windows = list(windows)
    if not windows:
        raise ValueError("cannot run an empty window list")
    has_truth = [w.missing is not None for w in windows]
    if any(has_truth) and not all(has_truth):
        raise ValueError("either every window of a batch has ground truth or none has")
    contexts = [[_rows(w.before, f"window {i}: before", d) for i, w in enumerate(windows)],
                [_rows(w.after, f"window {i}: after", d)[::-1] for i, w in enumerate(windows)]]
    gap_len, gamma, gamma_prime = _schedule_rows(schedule, len(windows))
    truth = None
    if all(has_truth):
        truth = np.zeros((len(windows), gap_len.max(), d))
        for i, (w, T) in enumerate(zip(windows, gap_len)):
            r = np.asarray(w.missing, dtype=np.float64)
            if r.shape != (T, d):
                raise ShapeError(f"window {i}: missing has shape {r.shape} for a gap of {T} "
                                 f"in {d} column(s)")
            truth[i, :T] = r

    lens = np.array([[len(r) for r in rows] for rows in contexts[:streams]], dtype=np.int64)
    plan = _plan(lens.tobytes(), gap_len.astype(np.int64, copy=False).tobytes(), streams)
    # right-align each stream's context so that every row ends on the last step
    L = int(lens.max())
    context = np.zeros((streams, len(windows), L, d), dtype)
    for s in range(streams):
        for j, i in enumerate(plan.rows[:len(windows)]):
            r = contexts[s][i]
            context[s, j, L - len(r):] = r
    at = (plan.rows, plan.pos) if gamma.ndim == 2 else plan.pos
    return _Batch(context, gap_len, gamma.astype(dtype, copy=False)[at],
                  gamma_prime.astype(dtype, copy=False)[at],
                  None if truth is None else truth[plan.rows, plan.pos], plan)


def _unpack(batch: _Batch, a: np.ndarray) -> np.ndarray:
    """Pair values (N, .) copied out as (B, T, .) by window and gap position,
    zero past each row's gap."""
    plan = batch.plan
    B, T = len(batch.gap_len), len(plan.dec_live)
    out = np.zeros((B, T, *a.shape[1:]), a.dtype)
    out[plan.rows, plan.pos] = a
    return out


def _prefix(a: np.ndarray, k: int) -> np.ndarray:
    """The first k rows (axis 1) of `a`: `a` itself when it has k."""
    return a if a.shape[1] == k else a[:, :k]


def _grow(a: np.ndarray, k: int) -> np.ndarray:
    """`a` with zero rows appended along axis 1 up to k: `a` itself when it has k."""
    if a.shape[1] == k:
        return a
    out = np.zeros((a.shape[0], k, *a.shape[2:]), a.dtype)
    out[:, :a.shape[1]] = a
    return out


def _run_stream(params: ModelParams, batch: _Batch, keep_tapes: bool) -> StreamTrace:
    """Encode the S stacked contexts, then decode each row's gap, stepping
    only the live rows.

    Stream s uses encoder cell s, decoder cell 2 + s and head s. Encoder
    step t runs on its live prefix of rows, up to the last one with a real
    row in either stream; a row joins with the zero state, and a stream
    that has no real row yet keeps it until its first real step (`first`).
    Each decoder starts from its encoder's final state, in the same row
    order, with the last context row as input, feeds each local prediction
    into its next step, and drops a row after the last position of its gap.
    Steps where every row is live run on the whole arrays.
    """
    context, plan = batch.context, batch.plan
    S, _, _, d = context.shape
    enc = ForwardCell(params.lstm_w[0:S], params.lstm_b[0:S])
    dec = ForwardCell(params.lstm_w[2:2 + S], params.lstm_b[2:2 + S])
    head_w, head_b = np.swapaxes(params.head_w[:S], -1, -2), params.head_b[:S, None]
    enc_tapes: list[CellTape] | None = [] if keep_tapes else None
    dec_tapes: list[CellTape] | None = [] if keep_tapes else None
    state = zero_state(enc.hidden_dim, S, plan.enc_live[0], dtype=context.dtype)
    for t, (k, partial) in enumerate(zip(plan.enc_live, plan.partial)):
        state = LstmState(_grow(state.h, k), _grow(state.c, k))
        new, tape = lstm_step(enc, _prefix(context[:, :, t], k), state)
        if partial:
            real = (_prefix(plan.first, k) <= t)[..., None]
            new = LstmState(np.where(real, new.h, state.h), np.where(real, new.c, state.c))
        state = new
        if enc_tapes is not None:
            enc_tapes.append(tape)
    x = context[:, :, -1]
    off = plan.offsets
    hs = np.empty((S, off[-1], dec.hidden_dim), context.dtype)
    preds = np.empty((S, off[-1], d), context.dtype)
    for t, m in enumerate(plan.dec_live):
        state, tape = lstm_step(dec, _prefix(x, m),
                                LstmState(_prefix(state.h, m), _prefix(state.c, m)))
        if dec_tapes is not None:
            dec_tapes.append(tape)
        hs[:, off[t]:off[t + 1]] = state.h
        x = np.matmul(state.h, head_w) + head_b
        preds[:, off[t]:off[t + 1]] = x
    return StreamTrace(hs, preds, enc_tapes, dec_tapes)


def _stream_backward(params: ModelParams, st: StreamTrace, batch: _Batch,
                     d_pred: np.ndarray, dh_merge: np.ndarray | None, g: ModelParams) -> None:
    """Backpropagate the S stacked streams, newest decoder step first.

    `d_pred` (S, N, d) is the loss gradient on each local prediction and
    `dh_merge` (S, N, h) the merge layer's gradient on each decoder hidden
    vector, both packed like `st`, in processing order. The gradient w.r.t.
    a prediction combines its own loss term with the gradient flowing out
    of the next step's input, because predictions are self-fed. Each step
    runs on the rows its forward step ran on: a row enters the decoder's
    gradients, with zeros, at the last step of its gap, and carries them
    into the encoder's in the same row order; it leaves the encoder's at
    its first live step, before which it holds no parameters. Encoder steps
    before a stream's first real row pass that row's gradients through
    untouched and add nothing to the parameter gradients.
    """
    S, _, d = d_pred.shape
    plan = batch.plan
    off = plan.offsets
    dec = LstmParams(params.lstm_w[2:2 + S], params.lstm_b[2:2 + S])
    g_dec = LstmParams(g.lstm_w[2:2 + S], g.lstm_b[2:2 + S])
    head_w = params.head_w[:S]
    dh = dc = np.zeros((S, 0, dec.hidden_dim), d_pred.dtype)
    d_in = np.zeros((S, 0, d), d_pred.dtype)
    d_preds = np.empty_like(d_pred)
    for t in reversed(range(len(plan.dec_live))):
        m, step = plan.dec_live[t], slice(off[t], off[t + 1])
        d_preds[:, step] = d_pred[:, step] + _grow(d_in, m)
        dh = _grow(dh, m) + np.matmul(d_preds[:, step], head_w)
        if dh_merge is not None:
            dh = dh + dh_merge[:, step]
        d_in, dh, dc = lstm_step_backward(dec, st.dec_tapes[t], dh, _grow(dc, m), g_dec)
    g.head_w[:S] += np.matmul(np.swapaxes(d_preds, -1, -2), st.h)
    g.head_b[:S] += d_preds.sum(axis=1)

    enc = LstmParams(params.lstm_w[0:S], params.lstm_b[0:S])
    g_enc = LstmParams(g.lstm_w[0:S], g.lstm_b[0:S])
    for t in reversed(range(len(plan.enc_live))):
        k = plan.enc_live[t]
        dh, dc = _prefix(dh, k), _prefix(dc, k)
        if not plan.partial[t]:
            _, dh, dc = lstm_step_backward(enc, st.enc_tapes[t], dh, dc, g_enc)
            continue
        real = (_prefix(plan.first, k) <= t)[..., None]
        _, dh_new, dc_new = lstm_step_backward(enc, st.enc_tapes[t], np.where(real, dh, 0.0),
                                               np.where(real, dc, 0.0), g_enc)
        dh, dc = np.where(real, dh_new, dh), np.where(real, dc_new, dc)


def _merge_input(gamma: np.ndarray, gamma_prime: np.ndarray, h_fw: np.ndarray,
                 h_bw: np.ndarray) -> np.ndarray:
    """[gamma_t * h_fw_t, gamma'_t * h_bw_t] for every gap position t."""
    return np.concatenate([gamma[..., None] * h_fw, gamma_prime[..., None] * h_bw], axis=-1)


def _forward(params: ModelParams, batch: _Batch,
             keep_tapes: bool) -> tuple[_Pairs, StreamTrace]:
    """The batched forward pass behind `forward` and `loss_and_grads`: the
    streams, then the merge of each real (window, position) pair."""
    cfg = params.config
    st = _run_stream(params, batch, keep_tapes)
    h_fw, pred_fw = st.h[0], st.pred[0]
    if cfg.forward_only:
        return _Pairs(h_fw, pred_fw, None, None, pred_fw, None), st
    # the backward stream runs over each gap in reverse: `rev` puts it in position order
    h_bw, pred_bw = st.h[1][batch.plan.rev], st.pred[1][batch.plan.rev]
    u = _merge_input(batch.gamma, batch.gamma_prime, h_fw, h_bw)
    hidden_acts = None
    if cfg.merge_hidden > 0:
        hidden_acts = np.tanh(params.merge[0].apply(u))
        merged = params.merge[1].apply(hidden_acts)
    else:
        merged = params.merge[0].apply(u)
    return _Pairs(h_fw, pred_fw, h_bw, pred_bw, merged, hidden_acts), st


def forward(params: ModelParams, windows, schedule) -> ForwardTrace:
    """Run the network over a list of windows.

    The windows may differ in context and gap length; one window is the
    list of one. `schedule` is one ScalingSchedule shared by every window,
    or a list with one per window; each window's gap length is its
    schedule's. Stages: both encoders first, then each decoder stream over
    the whole gap (self-feeding its local predictions), and merging last,
    once both hidden sequences exist.
    """
    batch = _layout(params, windows, schedule)
    return ForwardTrace(_forward(params, batch, keep_tapes=False)[0], batch)


def _loss_terms(pairs: _Pairs, batch: _Batch, truth: np.ndarray) -> list[np.ndarray]:
    """Mean squared error of each loss term, per window: the merged output,
    then (full network) the forward and the backward stream predictions.
    Each window's mean runs over its own gap; `truth` is packed like `pairs`."""
    preds = [pairs.merged] if pairs.pred_bw is None else [
        pairs.merged, pairs.pred_fw, pairs.pred_bw]
    count = batch.gap_len * truth.shape[-1]
    return [np.bincount(batch.plan.rows, np.sum((p - truth) ** 2, axis=-1), len(count)) / count
            for p in preds]


def _truth(batch: _Batch) -> np.ndarray:
    """The batch's packed ground truth, which every loss needs."""
    if batch.truth is None:
        raise ValueError("the windows have no ground-truth gap rows")
    return batch.truth


def loss(trace: ForwardTrace) -> np.ndarray:
    """Mean over gap positions of the squared-error terms, one value per
    window as a (B,) array, against the windows' own `missing` rows.

    Full network: MSE of the merged output plus MSE of each stream's local
    prediction at every position. Forward-only network: MSE of its single
    prediction stream.
    """
    return sum(_loss_terms(trace._pairs, trace._batch, _truth(trace._batch)))


def _merge_backward(params: ModelParams, pairs: _Pairs, gamma: np.ndarray,
                    gamma_prime: np.ndarray, d_merged: np.ndarray,
                    g: list[Affine]) -> tuple[np.ndarray, np.ndarray]:
    """Backward through the merge layer only, with the packed pairs of a
    forward pass held fixed; `gamma`, `gamma_prime` and `d_merged` are
    packed like them.

    Returns the gradients w.r.t. each decoder hidden vector at the merge
    input: the gamma factors multiply straight through, which is what makes
    the stream weights shape learning as well as prediction.
    """
    h = params.config.hidden_dim
    u = _merge_input(gamma, gamma_prime, pairs.h_fw, pairs.h_bw)
    if params.config.merge_hidden > 0:
        z = pairs.merge_hidden_acts
        dz = params.merge[1].backward(z, d_merged, g[1])
        du = params.merge[0].backward(u, dz * (1.0 - z * z), g[0])
    else:
        du = params.merge[0].backward(u, d_merged, g[0])
    return gamma[..., None] * du[..., :h], gamma_prime[..., None] * du[..., h:]


def merge_input_grads(params: ModelParams, trace: ForwardTrace,
                      schedule) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the merged-output loss w.r.t. each stream's hidden vector
    entering the merge, with the forward trace held fixed; (B, T, h) arrays
    indexed like the trace. `schedule` is one ScalingSchedule or one per
    window of the trace; the truth is the windows' `missing` rows."""
    if params.config.forward_only:
        raise ValueError("forward-only network has no merge layer")
    batch = trace._batch
    truth = _truth(batch)
    gap_len, gamma, gamma_prime = _schedule_rows(schedule, len(trace.gap_len))
    if not np.array_equal(gap_len, trace.gap_len):
        raise ShapeError(f"schedule covers gaps of {gap_len} rows, the trace {trace.gap_len}")
    plan, pairs = batch.plan, trace._pairs
    at = (plan.rows, plan.pos) if gamma.ndim == 2 else plan.pos
    scratch = [Affine(np.zeros_like(layer.w), np.zeros_like(layer.b)) for layer in params.merge]
    scale = (2.0 / (trace.gap_len * params.config.input_dim))[plan.rows, None]
    dh_fw, dh_bw = _merge_backward(params, pairs, gamma[at], gamma_prime[at],
                                   scale * (pairs.merged - truth), scratch)
    return _unpack(batch, dh_fw), _unpack(batch, dh_bw)


def loss_and_grads(params: ModelParams, windows, schedule) -> tuple[float, ModelParams]:
    """Loss and its exact gradient w.r.t. every parameter.

    `windows` and `schedule` are as for `forward`, and every window needs
    its `missing` rows; both the loss and the gradients are summed over the
    windows, so the loss is the sum of what `loss` gives per window. The
    gradient is a ModelParams over a fresh zeroed vector of the dtype of
    `params.flat`; `dict(iter_params(grads))` keys it by path.
    """
    cfg = params.config
    batch = _layout(params, windows, schedule)
    truth = _truth(batch).astype(params.flat.dtype, copy=False)

    pairs, st = _forward(params, batch, keep_tapes=True)
    terms = _loss_terms(pairs, batch, truth)
    coef = (2.0 / (batch.gap_len * cfg.input_dim)).astype(truth.dtype, copy=False)
    coef = coef[batch.plan.rows, None]
    g = _arena_params(cfg, np.zeros_like(params.flat))
    if cfg.forward_only:
        d_pred, dh_merge = (coef * (pairs.pred_fw - truth))[None], None
    else:
        dh_fw, dh_bw = _merge_backward(params, pairs, batch.gamma, batch.gamma_prime,
                                       coef * (pairs.merged - truth), g.merge)
        # the backward stream runs over each gap in reverse: map to its order
        rev = batch.plan.rev
        d_pred = np.stack([coef * (pairs.pred_fw - truth), (coef * (pairs.pred_bw - truth))[rev]])
        dh_merge = np.stack([dh_fw, dh_bw[rev]])
    _stream_backward(params, st, batch, d_pred, dh_merge, g)
    return float(np.sum(sum(terms))), g


def impute(params: ModelParams, before, after, gap_len,
           variant: str | None = None) -> list[np.ndarray]:
    """Fill gaps between observed context; no truth needed.

    `before` and `after` are lists of each gap's (L_i, d) context rows and
    `gap_len` a list of the gap lengths; returns a list of (gap_len_i, d)
    arrays. One gap is the list of one. All gaps run as one batch whose
    every step covers only the rows still reading context or filling their
    gap, so a call costs the longest context plus the longest gap in LSTM
    steps; each gap's result does not depend on the others.
    """
    if np.ndim(gap_len) != 1:
        raise ShapeError(f"gap_len: expected a list of gap lengths, got {gap_len!r}")
    lengths = [int(t) for t in gap_len]
    if not len(before) == len(after) == len(lengths):
        raise ShapeError(f"{len(before)} before and {len(after)} after contexts "
                         f"for {len(lengths)} gaps")
    if not lengths:
        return []
    variant = variant or params.config.schedule_variant
    schedules = {t: make_schedule(t, variant) for t in set(lengths)}
    windows = [ImputationWindow(b, None, a) for b, a in zip(before, after)]
    merged = forward(params, windows, [schedules[t] for t in lengths]).merged
    return [m[:t] for m, t in zip(merged, lengths)]


# `gradient_check` draws each size from 1 up to its bound
GRADCHECK_MAX_INPUT_DIM = 3
GRADCHECK_MAX_HIDDEN_DIM = 4
GRADCHECK_MAX_GAP = 3
GRADCHECK_CONTEXT_LEN = 3


@dataclass
class GradCheckInstance:
    input_dim: int
    hidden_dim: int
    gap_len: int  # the longest gap of the instance's windows
    windows: int
    variant: str
    merge_hidden: int
    forward_only: bool
    max_rel_err: float
    worst_path: str


@dataclass
class GradCheckReport:
    instances: list[GradCheckInstance]
    max_rel_err: float
    worst_path: str
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def gradient_check(
    n_instances: int = 20,
    seed: int = 0,
    eps: float = 1e-5,
    tolerance: float = 1e-4,
    _corrupt_path: str | None = None,
) -> GradCheckReport:
    """Compare the closed-form gradient against central differences.

    Random small networks; every coordinate of `params.flat` is perturbed,
    and the worst one is named by its `iter_params` path. Even-numbered
    instances check a batch of one window, odd-numbered ones of three windows
    whose context and gap lengths differ; instance k is forward-only when
    k % 5 == 2. `_corrupt_path` is a test hook that deliberately offsets
    one analytic gradient tensor so the check must fail.
    """
    if n_instances < 1:
        raise ValueError(f"gradient check needs at least one instance, got {n_instances}")
    rng = Rng(seed)
    instances: list[GradCheckInstance] = []
    worst = (0.0, "none")
    for k in range(n_instances):
        d = 1 + rng.randrange(GRADCHECK_MAX_INPUT_DIM)
        h = 1 + rng.randrange(GRADCHECK_MAX_HIDDEN_DIM)
        T = 1 + rng.randrange(GRADCHECK_MAX_GAP)
        variant = SCHEDULE_VARIANTS[k % len(SCHEDULE_VARIANTS)]
        merge_hidden = 3 if k % 4 == 3 else 0
        forward_only = k % 5 == 2
        cfg = NetworkConfig(input_dim=d, hidden_dim=h, schedule_variant=variant,
                            merge_hidden=merge_hidden, forward_only=forward_only)
        params = init_model_params(cfg, rng)
        if k % 2 == 0:
            shapes = [(GRADCHECK_CONTEXT_LEN, T, GRADCHECK_CONTEXT_LEN)]
        else:
            c = rng.randrange(GRADCHECK_CONTEXT_LEN)
            shapes = [(1 + (c + j) % GRADCHECK_CONTEXT_LEN, 1 + (T - 1 + j) % GRADCHECK_MAX_GAP,
                       1 + (c + 2 * j) % GRADCHECK_CONTEXT_LEN) for j in range(3)]
        windows = [ImputationWindow(rng.normal_array((lb, d)), rng.normal_array((t, d)),
                                    rng.normal_array((la, d))) for lb, t, la in shapes]
        schedules = [make_schedule(t, variant) for _, t, _ in shapes]
        grads = loss_and_grads(params, windows, schedules)[1]
        for path, tensor in iter_params(grads):
            if path == _corrupt_path:
                tensor += 1.0

        def f(theta: np.ndarray) -> float:
            trace = forward(params_from_flat(cfg, theta), windows, schedules)
            return float(np.sum(loss(trace)))

        a, numeric = grads.flat, finite_diff_grad(f, params.flat, eps)
        # central differences bottom out at ~1e-11*|loss| of roundoff, so
        # coordinates near zero are held to an absolute bar instead of a
        # relative one (the 1e-4 floor leaves ~100x margin over that noise)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-4)
        rel = params_from_flat(cfg, np.abs(a - numeric) / denom)
        m = float(rel.flat.max())
        path = next(p for p, t in iter_params(rel) if t.max() == m)
        instances.append(GradCheckInstance(d, h, max(t for _, t, _ in shapes), len(windows),
                                           variant, merge_hidden, forward_only, m, path))
        if m > worst[0]:
            worst = (m, path)
    return GradCheckReport(instances, worst[0], worst[1], tolerance)
