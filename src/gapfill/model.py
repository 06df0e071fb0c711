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
exactly as it would alone. Decoders run to the longest gap of the batch;
positions past a row's own gap carry zero stream weights, are left out of
its loss, and read zero in the returned trace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lstm import CellTape, LstmParams, LstmState, lstm_step, lstm_step_backward, zero_state
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
    """All trainable tensors, each a view of one float64 vector `flat`.

    `flat` holds, in order: the fused weights `lstm_w` (4, 4h, d+h) and
    biases `lstm_b` (4, 4h) of the cells enc_fw, enc_bw, dec_fw, dec_bw;
    the head weights `head_w` (2, d, h) and biases `head_b` (2, d) of
    head_fw, head_bw; then each merge layer's w and b. So the encoders are
    `lstm_w[0:2]`, the decoders `lstm_w[2:4]` and the heads `head_w[0:2]`,
    each pair stacked in stream order; a head maps a stream's hidden vector
    to its local prediction. Built by `params_from_flat`; a pickled or
    copied ModelParams is rebuilt the same way, so its tensors stay views
    of its own `flat`.
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
    """The stacked streams' decoder outputs in processing order, and their tapes.

    Stream 0 processes gap positions 1..T; stream 1, the backward stream,
    processes each row's positions T_i..1 and then the steps past its gap.
    """

    h: np.ndarray  # (S, B, T, hidden)
    pred: np.ndarray  # (S, B, T, input_dim): local predictions
    enc_tapes: list[CellTape] | None
    dec_tapes: list[CellTape] | None


@dataclass
class ForwardTrace:
    """Everything one forward pass produced, ordered by gap position.

    Each array is (T, .) for one window and (B, T, .) for a batch, where T
    is the batch's longest gap; positions past a row's own gap hold zeros.
    """

    h_fw: np.ndarray
    pred_fw: np.ndarray  # local forward-stream predictions
    h_bw: np.ndarray | None
    pred_bw: np.ndarray | None
    merged: np.ndarray  # the final imputation per gap position
    merge_hidden_acts: np.ndarray | None
    gap_len: int | np.ndarray  # the window's gap length, or each row's as a (B,) array


@dataclass
class _Batch:
    """B windows laid out for the stacked streams."""

    context: np.ndarray  # (S, B, L, d): `before`, then `after` reversed; right-aligned
    first: np.ndarray  # (S, B): each row's first real step
    gap_len: np.ndarray  # (B,)
    gamma: np.ndarray  # (T,) shared by every row, or (B, T), zero past a row's gap
    gamma_prime: np.ndarray
    truth: np.ndarray | None  # (B, T, d), zero past a row's gap

    @property
    def order(self) -> np.ndarray:
        """(B, T, 1): the backward stream's step for each gap position, and
        back. Row i reverses its first T_i positions and keeps the rest in
        place, so the map is its own inverse."""
        t = np.arange(self.gamma.shape[-1])
        own = t < self.gap_len[:, None]
        return np.where(own, self.gap_len[:, None] - 1 - t, t)[..., None]

    @property
    def keep(self) -> np.ndarray | None:
        """(B, T, 1): which positions lie inside their row's gap; None when all do."""
        T = self.gamma.shape[-1]
        if np.all(self.gap_len == T):
            return None
        return (np.arange(T) < self.gap_len[:, None])[..., None]


def _rows(a, name: str, d: int) -> np.ndarray:
    """Validate one window's (n, d) rows (1-D when d = 1)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
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


def _truth_rows(truth, gap_len, d: int) -> np.ndarray:
    """Ground truth laid out like a trace: (T, d) for one window, (B, T, d)
    for a batch, zero past each row's gap. A batch's truth is a (B, T, d)
    array or a list of each window's rows."""
    single = np.ndim(gap_len) == 0
    lens = np.atleast_1d(gap_len)
    rows = [np.asarray(r, dtype=np.float64) for r in ([truth] if single else truth)]
    rows = [r[:, None] if r.ndim == 1 else r for r in rows]
    if len(rows) != len(lens):
        raise ShapeError(f"truth for {len(rows)} window(s), {len(lens)} expected")
    for r, T in zip(rows, lens):
        if r.ndim != 2 or r.shape[0] != T:
            raise ShapeError(f"truth has shape {r.shape} for a gap of {T}")
        if r.shape[1] != d:
            raise ShapeError(f"truth: expected {d} column(s), got shape {r.shape}")
    if single:
        return rows[0]
    out = np.zeros((len(rows), lens.max(), d))
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def _layout(windows, schedule, d: int, streams: int, truth=None) -> tuple[_Batch, bool]:
    """Lay out one window, as the list of one, or a list of windows of any
    shapes for `_forward`; also whether the input was a single window.

    Each row's gap length comes from its schedule; a shared ScalingSchedule
    gives every row its length. `truth` defaults to the windows' `missing`.
    """
    single = isinstance(windows, ImputationWindow)
    windows = [windows] if single else list(windows)
    if single and truth is not None:
        truth = [truth]
    if not windows:
        raise ValueError("cannot run an empty window list")
    has_truth = [w.missing is not None for w in windows]
    if any(has_truth) and not all(has_truth):
        raise ValueError("either every window of a batch has ground truth or none has")
    if truth is None and all(has_truth):
        truth = [w.missing for w in windows]
    contexts = [[_rows(w.before, f"window {i}: before", d) for i, w in enumerate(windows)],
                [_rows(w.after, f"window {i}: after", d)[::-1] for i, w in enumerate(windows)]]
    gap_len, gamma, gamma_prime = _schedule_rows(schedule, len(windows))
    if truth is not None:
        truth = _truth_rows(truth, gap_len, d)

    # right-align each stream's context so that every row ends on the last step
    lens = np.array([[len(r) for r in rows] for rows in contexts[:streams]])
    L = lens.max()
    context = np.zeros((streams, len(windows), L, d))
    for s in range(streams):
        for i, r in enumerate(contexts[s]):
            context[s, i, L - len(r):] = r
    return _Batch(context, L - lens, gap_len, gamma, gamma_prime, truth), single


def _run_stream(params: ModelParams, context: np.ndarray, first: np.ndarray, gap_len: int,
                keep_tapes: bool) -> StreamTrace:
    """Encode S stacked contexts (S, B, L, d) in order, then decode `gap_len` steps.

    Stream s uses encoder cell s, decoder cell 2 + s and head s. A row
    keeps the zero state until its first real step (`first`); steps where
    every row is real skip that mask. Each decoder starts from its
    encoder's final state with the last context row as input and feeds
    each local prediction into its next step.
    """
    S, B = context.shape[:2]
    enc = LstmParams(params.lstm_w[0:S], params.lstm_b[0:S])
    dec = LstmParams(params.lstm_w[2:2 + S], params.lstm_b[2:2 + S])
    head_w, head_b = np.swapaxes(params.head_w[:S], -1, -2), params.head_b[:S, None]
    enc_tapes: list[CellTape] | None = [] if keep_tapes else None
    dec_tapes: list[CellTape] | None = [] if keep_tapes else None
    state = zero_state(enc.hidden_dim, S, B)
    all_real = first.max()
    for t in range(context.shape[2]):
        new, tape = lstm_step(enc, context[:, :, t], state)
        if t < all_real:
            real = (first <= t)[..., None]
            new = LstmState(np.where(real, new.h, state.h), np.where(real, new.c, state.c))
        state = new
        if enc_tapes is not None:
            enc_tapes.append(tape)
    hs = np.empty((S, B, gap_len, enc.hidden_dim))
    preds = np.empty((S, B, gap_len, context.shape[3]))
    x = context[:, :, -1]
    for t in range(gap_len):
        state, tape = lstm_step(dec, x, state)
        if dec_tapes is not None:
            dec_tapes.append(tape)
        hs[:, :, t] = state.h
        x = np.matmul(state.h, head_w) + head_b
        preds[:, :, t] = x
    return StreamTrace(hs, preds, enc_tapes, dec_tapes)


def _stream_backward(params: ModelParams, st: StreamTrace, first: np.ndarray,
                     d_pred: np.ndarray, dh_merge: np.ndarray | None, g: ModelParams) -> None:
    """Backpropagate the S stacked streams, newest decoder step first.

    `d_pred` (S, B, T, d) is the loss gradient on each local prediction and
    `dh_merge` (S, B, T, h) the merge layer's gradient on each decoder
    hidden vector, both in processing order. The gradient w.r.t. a
    prediction combines its own loss term with the gradient flowing out of
    the next step's input, because predictions are self-fed. Encoder steps
    before a row's first real step pass its gradients through untouched
    and add nothing to the parameter gradients.
    """
    S, B, T, d = d_pred.shape
    dec = LstmParams(params.lstm_w[2:2 + S], params.lstm_b[2:2 + S])
    g_dec = LstmParams(g.lstm_w[2:2 + S], g.lstm_b[2:2 + S])
    head_w = params.head_w[:S]
    dh = np.zeros((S, B, dec.hidden_dim))
    dc = np.zeros((S, B, dec.hidden_dim))
    d_in = None
    d_preds = np.empty_like(d_pred)
    for t in reversed(range(T)):
        d_preds[:, :, t] = d_pred[:, :, t] if d_in is None else d_pred[:, :, t] + d_in
        dh = dh + np.matmul(d_preds[:, :, t], head_w)
        if dh_merge is not None:
            dh = dh + dh_merge[:, :, t]
        d_in, dh, dc = lstm_step_backward(dec, st.dec_tapes[t], dh, dc, g_dec)
    dy = d_preds.reshape(S, B * T, d)
    g.head_w[:S] += np.matmul(np.swapaxes(dy, -1, -2), st.h.reshape(S, B * T, -1))
    g.head_b[:S] += dy.sum(axis=1)

    enc = LstmParams(params.lstm_w[0:S], params.lstm_b[0:S])
    g_enc = LstmParams(g.lstm_w[0:S], g.lstm_b[0:S])
    all_real = first.max()
    for t in reversed(range(len(st.enc_tapes))):
        if t >= all_real:
            _, dh, dc = lstm_step_backward(enc, st.enc_tapes[t], dh, dc, g_enc)
            continue
        real = (first <= t)[..., None]
        _, dh_new, dc_new = lstm_step_backward(enc, st.enc_tapes[t], np.where(real, dh, 0.0),
                                               np.where(real, dc, 0.0), g_enc)
        dh, dc = np.where(real, dh_new, dh), np.where(real, dc_new, dc)


def _merge_input(gamma: np.ndarray, gamma_prime: np.ndarray, h_fw: np.ndarray,
                 h_bw: np.ndarray) -> np.ndarray:
    """[gamma_t * h_fw_t, gamma'_t * h_bw_t] for every gap position t."""
    return np.concatenate([gamma[..., None] * h_fw, gamma_prime[..., None] * h_bw], axis=-1)


def _forward(params: ModelParams, batch: _Batch,
             keep_tapes: bool) -> tuple[ForwardTrace, StreamTrace]:
    """The batched forward pass behind `forward` and `loss_and_grads`."""
    cfg = params.config
    st = _run_stream(params, batch.context, batch.first, batch.gamma.shape[-1], keep_tapes)
    h_fw, pred_fw = st.h[0], st.pred[0]
    if cfg.forward_only:
        arrays = [h_fw, pred_fw, None, None, pred_fw, None]
    else:
        order = batch.order
        h_bw = np.take_along_axis(st.h[1], order, axis=1)
        pred_bw = np.take_along_axis(st.pred[1], order, axis=1)
        u = _merge_input(batch.gamma, batch.gamma_prime, h_fw, h_bw)
        hidden_acts = None
        if cfg.merge_hidden > 0:
            hidden_acts = np.tanh(params.merge[0].apply(u))
            merged = params.merge[1].apply(hidden_acts)
        else:
            merged = params.merge[0].apply(u)
        arrays = [h_fw, pred_fw, h_bw, pred_bw, merged, hidden_acts]
    keep = batch.keep
    if keep is not None:
        arrays = [None if a is None else np.where(keep, a, 0.0) for a in arrays]
    return ForwardTrace(*arrays, batch.gap_len), st


def forward(params: ModelParams, windows, schedule) -> ForwardTrace:
    """Run the network over one window, or over a batch of windows.

    `windows` is an ImputationWindow or a list of windows, which may
    differ in context and gap length; one window runs as the list of one. `schedule` is one
    ScalingSchedule shared by every window, or a list with one per window;
    each window's gap length is its schedule's. Stages: both encoders
    first, then each decoder stream over the whole gap (self-feeding its
    local predictions), and merging last, once both hidden sequences exist.
    """
    cfg = params.config
    batch, single = _layout(windows, schedule, cfg.input_dim, 1 if cfg.forward_only else 2)
    trace, _ = _forward(params, batch, keep_tapes=False)
    if not single:
        return trace
    return ForwardTrace(*(None if a is None else a[0] for a in (
        trace.h_fw, trace.pred_fw, trace.h_bw, trace.pred_bw, trace.merged,
        trace.merge_hidden_acts)), int(trace.gap_len[0]))


def _loss_terms(trace: ForwardTrace, truth: np.ndarray) -> list[np.ndarray]:
    """Mean squared error of each loss term, per window: the merged output,
    then (full network) the forward and the backward stream predictions.
    Each window's mean runs over its own gap."""
    preds = [trace.merged] if trace.pred_bw is None else [
        trace.merged, trace.pred_fw, trace.pred_bw]
    count = trace.gap_len * truth.shape[-1]
    return [np.sum((p - truth) ** 2, axis=(-2, -1)) / count for p in preds]


def loss(trace: ForwardTrace, truth):
    """Mean over gap positions of the squared-error terms.

    Full network: MSE of the merged output plus MSE of each stream's local
    prediction at every position. Forward-only network: MSE of its single
    prediction stream. A float for one window, one value per window for a
    batch. A batch's `truth` is a (B, T, d) array or a list of each
    window's gap rows.
    """
    truth = _truth_rows(truth, trace.gap_len, trace.merged.shape[-1])
    total = sum(_loss_terms(trace, truth))
    return float(total) if np.ndim(total) == 0 else total


def _merge_backward(params: ModelParams, trace: ForwardTrace, gamma: np.ndarray,
                    gamma_prime: np.ndarray, d_merged: np.ndarray,
                    g: list[Affine]) -> tuple[np.ndarray, np.ndarray]:
    """Backward through the merge layer only, with the trace held fixed.

    Returns the gradients w.r.t. each decoder hidden vector at the merge
    input: the gamma factors multiply straight through, which is what makes
    the stream weights shape learning as well as prediction.
    """
    h = params.config.hidden_dim
    u = _merge_input(gamma, gamma_prime, trace.h_fw, trace.h_bw)
    if params.config.merge_hidden > 0:
        z = trace.merge_hidden_acts
        dz = params.merge[1].backward(z, d_merged, g[1])
        du = params.merge[0].backward(u, dz * (1.0 - z * z), g[0])
    else:
        du = params.merge[0].backward(u, d_merged, g[0])
    return gamma[..., None] * du[..., :h], gamma_prime[..., None] * du[..., h:]


def merge_input_grads(params: ModelParams, trace: ForwardTrace, schedule,
                      truth) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the merged-output loss w.r.t. each stream's hidden vector
    entering the merge, with the forward trace held fixed; indexed by gap
    position like the trace. `schedule` is one ScalingSchedule or one per
    window of a batch trace."""
    if params.config.forward_only:
        raise ValueError("forward-only network has no merge layer")
    d = params.config.input_dim
    single = np.ndim(trace.gap_len) == 0
    gap_len, gamma, gamma_prime = _schedule_rows(schedule, 1 if single else len(trace.gap_len))
    if not np.array_equal(gap_len, np.atleast_1d(trace.gap_len)):
        raise ShapeError(f"schedule covers gaps of {gap_len} rows, the trace {trace.gap_len}")
    if single and gamma.ndim == 2:
        gamma, gamma_prime = gamma[0], gamma_prime[0]
    truth = _truth_rows(truth, trace.gap_len, d)
    scratch = [Affine(np.zeros_like(layer.w), np.zeros_like(layer.b)) for layer in params.merge]
    scale = 2.0 / (np.asarray(trace.gap_len) * d)
    return _merge_backward(params, trace, gamma, gamma_prime,
                           scale[..., None, None] * (trace.merged - truth), scratch)


def loss_and_grads(
    params: ModelParams,
    windows,
    schedule,
    truth=None,
    term_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[float, ModelParams]:
    """Loss and its exact gradient w.r.t. every parameter.

    `windows` and `schedule` are as for `forward`; for a batch both the
    loss and the gradients are summed over its windows. `truth` defaults to
    the windows' `missing` rows. `term_weights` scales the (merged,
    forward-stream, backward-stream) loss terms; the default reproduces
    `loss`. The forward-only network has a single term and ignores the
    weights. The gradient is a ModelParams over a fresh zeroed vector;
    `dict(iter_params(grads))` keys it by path.
    """
    cfg = params.config
    batch, _ = _layout(windows, schedule, cfg.input_dim, 1 if cfg.forward_only else 2, truth)
    if batch.truth is None:
        raise ValueError("training needs ground-truth gap rows")
    truth = batch.truth

    trace, st = _forward(params, batch, keep_tapes=True)
    terms = _loss_terms(trace, truth)
    coef = (2.0 / (batch.gap_len * cfg.input_dim))[:, None, None]
    g = params_from_flat(cfg, np.zeros_like(params.flat))
    if cfg.forward_only:
        loss_val = terms[0]
        d_pred, dh_merge = (coef * (trace.pred_fw - truth))[None], None
    else:
        w_merged, w_fw, w_bw = term_weights
        loss_val = w_merged * terms[0] + w_fw * terms[1] + w_bw * terms[2]
        dh_fw, dh_bw = _merge_backward(params, trace, batch.gamma, batch.gamma_prime,
                                       (w_merged * coef) * (trace.merged - truth), g.merge)
        # the backward stream runs over each gap in reverse: map to its order
        order = batch.order
        d_pred = np.stack([(w_fw * coef) * (trace.pred_fw - truth), np.take_along_axis(
            (w_bw * coef) * (trace.pred_bw - truth), order, axis=1)])
        dh_merge = np.stack([dh_fw, np.take_along_axis(dh_bw, order, axis=1)])
    _stream_backward(params, st, batch.first, d_pred, dh_merge, g)
    return float(np.sum(loss_val)), g


def _bucket(gap_len: int) -> int:
    """Gap lengths in (2^(k-1), 2^k] share bucket k, so no row of a bucket
    runs more than twice its own decoder steps."""
    return (gap_len - 1).bit_length()


def _fill(params: ModelParams, before, after, lengths: list[int],
          variant: str) -> list[np.ndarray]:
    """Each gap's (T_i, d) imputation, one `forward` per bucket of gap lengths."""
    if not len(before) == len(after) == len(lengths):
        raise ShapeError(f"{len(before)} before and {len(after)} after contexts "
                         f"for {len(lengths)} gaps")
    schedules = {t: make_schedule(t, variant) for t in set(lengths)}
    buckets: dict[int, list[int]] = {}
    for i, t in enumerate(lengths):
        buckets.setdefault(_bucket(t), []).append(i)
    out: list[np.ndarray] = [None] * len(lengths)  # type: ignore[list-item]
    for idx in buckets.values():
        windows = [ImputationWindow(before[i], None, after[i]) for i in idx]
        merged = forward(params, windows, [schedules[lengths[i]] for i in idx]).merged
        for j, i in enumerate(idx):
            out[i] = merged[j, :lengths[i]]
    return out


def impute(
    params: ModelParams,
    before,
    after,
    gap_len,
    variant: str | None = None,
) -> np.ndarray | list[np.ndarray]:
    """Fill gaps between observed context; no truth needed.

    One gap: `before`/`after` are (L, d) rows (1-D when d = 1) and
    `gap_len` an int, giving (gap_len, d). Several gaps of any shapes:
    lists of each gap's rows and a list of gap lengths, giving a list of
    (gap_len_i, d) arrays. Gaps are batched by power-of-two range of gap
    length; each gap's result does not depend on the others.
    """
    variant = variant or params.config.schedule_variant
    if np.ndim(gap_len) > 0:
        return _fill(params, before, after, [int(t) for t in gap_len], variant)
    return _fill(params, [before], [after], [int(gap_len)], variant)[0]


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
    max_input_dim: int = 3,
    max_hidden_dim: int = 4,
    max_gap: int = 3,
    context_len: int = 3,
    _corrupt_path: str | None = None,
) -> GradCheckReport:
    """Compare the closed-form gradient against central differences.

    Random small networks; every coordinate of `params.flat` is perturbed,
    and the worst one is named by its `iter_params` path. Even-numbered
    instances check one window, odd-numbered ones a batch of three windows
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
        d = 1 + rng.randrange(max_input_dim)
        h = 1 + rng.randrange(max_hidden_dim)
        T = 1 + rng.randrange(max_gap)
        variant = SCHEDULE_VARIANTS[k % len(SCHEDULE_VARIANTS)]
        merge_hidden = 3 if k % 4 == 3 else 0
        forward_only = k % 5 == 2
        cfg = NetworkConfig(input_dim=d, hidden_dim=h, schedule_variant=variant,
                            merge_hidden=merge_hidden, forward_only=forward_only)
        params = init_model_params(cfg, rng)
        if k % 2 == 0:
            shapes = [(context_len, T, context_len)]
        else:
            c = rng.randrange(context_len)
            shapes = [(1 + (c + j) % context_len, 1 + (T - 1 + j) % max_gap,
                       1 + (c + 2 * j) % context_len) for j in range(3)]
        windows = [ImputationWindow(rng.normal_array((lb, d)), rng.normal_array((t, d)),
                                    rng.normal_array((la, d))) for lb, t, la in shapes]
        schedules = [make_schedule(t, variant) for _, t, _ in shapes]
        truth = [w.missing for w in windows]
        grads = loss_and_grads(params, windows, schedules)[1]
        for path, tensor in iter_params(grads):
            if path == _corrupt_path:
                tensor += 1.0

        def f(theta: np.ndarray) -> float:
            trace = forward(params_from_flat(cfg, theta), windows, schedules)
            return float(np.sum(loss(trace, truth)))

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
