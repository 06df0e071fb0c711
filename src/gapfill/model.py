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

Everything runs batch-first: B windows of equal shape go through each LSTM
step together as (B, .) rows. A stream (encoder, self-feeding decoder,
prediction head) is written once; the backward stream is the same code fed
the `after` rows in reverse. One window is the case B = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lstm import (
    CellTape,
    LstmParams,
    init_lstm_params,
    lstm_backward,
    lstm_step,
    lstm_step_backward,
    zero_state,
)
from .numerics import Rng, ShapeError, finite_diff_grad

SCHEDULE_VARIANTS = ("linear", "endpoint", "constant")

_LSTM_COMPONENTS = ("enc_fw", "enc_bw", "dec_fw", "dec_bw")


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
    head_fw.w, head_fw.b, head_bw.w, head_bw.b; then each merge layer's w
    and b. Built by `params_from_flat`; a pickled or copied ModelParams is
    rebuilt the same way, so its tensors stay views of its own `flat`.
    """

    config: NetworkConfig
    flat: np.ndarray
    lstm_w: np.ndarray
    lstm_b: np.ndarray
    enc_fw: LstmParams
    enc_bw: LstmParams
    dec_fw: LstmParams
    dec_bw: LstmParams
    head_fw: Affine  # local forward-stream prediction, hidden -> input_dim
    head_bw: Affine
    merge: list[Affine]  # [linear] or [hidden_layer, output_layer] with tanh between

    def __reduce__(self):
        return params_from_flat, (self.config, self.flat)


def _arena_shapes(config: NetworkConfig) -> list[tuple[int, ...]]:
    d, h, m = config.input_dim, config.hidden_dim, config.merge_hidden
    merge = [(m, 2 * h), (m,), (d, m), (d,)] if m > 0 else [(d, 2 * h), (d,)]
    return [(4, 4 * h, d + h), (4, 4 * h), (d, h), (d,), (d, h), (d,), *merge]


def n_params(config: NetworkConfig) -> int:
    """Length of the parameter vector of a network with this config."""
    return sum(math.prod(shape) for shape in _arena_shapes(config))


def params_from_flat(config: NetworkConfig, flat: np.ndarray) -> ModelParams:
    """The ModelParams whose every tensor is a view of `flat`, without copying."""
    shapes = _arena_shapes(config)
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    if flat.dtype != np.float64 or flat.shape != (ends[-1],) or not flat.flags.c_contiguous:
        raise ShapeError(f"parameters need a contiguous float64 vector of {ends[-1]} floats, "
                         f"got {flat.dtype} {flat.shape}")
    views = [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]
    lstm_w, lstm_b, head_fw_w, head_fw_b, head_bw_w, head_bw_b, *merge = views
    cells = [LstmParams(w, b) for w, b in zip(lstm_w, lstm_b)]
    return ModelParams(config, flat, lstm_w, lstm_b, *cells, Affine(head_fw_w, head_fw_b),
                       Affine(head_bw_w, head_bw_b),
                       [Affine(w, b) for w, b in zip(merge[::2], merge[1::2])])


def init_model_params(config: NetworkConfig, rng: Rng) -> ModelParams:
    """Initialize all parameters; the draw order equals the checkpoint order."""
    if config.schedule_variant not in SCHEDULE_VARIANTS:
        raise ValueError(f"unknown schedule variant {config.schedule_variant!r}")
    d, h = config.input_dim, config.hidden_dim
    params = params_from_flat(config, np.zeros(n_params(config)))
    for name in _LSTM_COMPONENTS:
        cell, fresh = getattr(params, name), init_lstm_params(d, h, rng)
        cell.w[...], cell.b[...] = fresh.w, fresh.b
    k_head = 1.0 / np.sqrt(h)
    for head in (params.head_fw, params.head_bw):
        head.w[...] = rng.uniform_array((d, h), -k_head, k_head)
    for layer in params.merge:  # Uniform(-k, k), k = 1/sqrt(fan_in); biases stay 0
        k = 1.0 / np.sqrt(layer.w.shape[1])
        layer.w[...] = rng.uniform_array(layer.w.shape, -k, k)
    return params


def iter_params(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """(path, tensor) pairs in the canonical order used everywhere."""
    out: list[tuple[str, np.ndarray]] = []
    for name in _LSTM_COMPONENTS:
        for field, tensor in getattr(params, name).fields().items():
            out.append((f"{name}.{field}", tensor))
    out.append(("head_fw.w", params.head_fw.w))
    out.append(("head_fw.b", params.head_fw.b))
    out.append(("head_bw.w", params.head_bw.w))
    out.append(("head_bw.b", params.head_bw.b))
    for i, layer in enumerate(params.merge):
        out.append((f"merge.{i}.w", layer.w))
        out.append((f"merge.{i}.b", layer.b))
    return out


def clone_params(params: ModelParams) -> ModelParams:
    return params_from_flat(params.config, params.flat.copy())


@dataclass
class ImputationWindow:
    """One sample: observed rows before a gap, the gap itself, observed rows after.

    `missing` holds the ground-truth gap rows and is None in pure inference.
    A batch of B equal-shape windows is one ImputationWindow whose arrays
    carry a leading batch axis (see `stack_windows`).
    """

    before: np.ndarray  # (L_b, input_dim), or (B, L_b, input_dim) for a batch
    missing: np.ndarray | None  # (T, input_dim), or (B, T, input_dim)
    after: np.ndarray  # (L_a, input_dim), or (B, L_a, input_dim)

    def take(self, idx) -> "ImputationWindow":
        """The windows at batch positions `idx` of a batch."""
        return ImputationWindow(self.before[idx],
                                None if self.missing is None else self.missing[idx],
                                self.after[idx])


def stack_windows(windows: Sequence[ImputationWindow]) -> ImputationWindow:
    """Stack windows of equal shape into one batch window."""
    if not windows:
        raise ValueError("cannot stack an empty window list")
    missing = [w.missing for w in windows]
    has_truth = [m is not None for m in missing]
    if any(has_truth) and not all(has_truth):
        raise ValueError("either every window of a batch has ground truth or none has")

    def stack(arrays, name):
        rows = [np.asarray(a, dtype=np.float64) for a in arrays]
        rows = [a[:, None] if a.ndim == 1 else a for a in rows]
        if any(a.shape != rows[0].shape for a in rows):
            raise ShapeError(f"{name}: windows of a batch must share one shape")
        return np.stack(rows)

    return ImputationWindow(stack([w.before for w in windows], "before"),
                            stack(missing, "missing") if all(has_truth) else None,
                            stack([w.after for w in windows], "after"))


@dataclass
class StreamTrace:
    """One stream's decoder outputs in processing order, and its tapes.

    For the backward stream processing order is gap positions T..1.
    """

    h: np.ndarray  # (B, T, hidden)
    pred: np.ndarray  # (B, T, input_dim): local predictions
    enc_tapes: list[CellTape] | None
    dec_tapes: list[CellTape] | None


@dataclass
class ForwardTrace:
    """Everything one forward pass produced, ordered by gap position.

    Each array is (T, .) for one window and (B, T, .) for a batch.
    """

    h_fw: np.ndarray
    pred_fw: np.ndarray  # local forward-stream predictions
    h_bw: np.ndarray | None
    pred_bw: np.ndarray | None
    merged: np.ndarray  # the final imputation per gap position
    merge_hidden_acts: np.ndarray | None


def _batch_rows(a, name: str, d: int) -> np.ndarray:
    """Validate a (B, n, d) stack of rows."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3 or a.shape[2] != d:
        raise ShapeError(f"{name}: expected shape (n, {d}), got {a.shape[1:]}")
    if a.shape[1] < 1:
        raise ShapeError(f"{name}: needs at least one row")
    return a


def _as_batch(windows) -> tuple[ImputationWindow, bool]:
    """A batch window from one window, a batch window or a window list; and
    whether the input was a single window."""
    if not isinstance(windows, ImputationWindow):
        return stack_windows(windows), False
    if np.ndim(windows.before) == 3:
        return windows, False
    return stack_windows([windows]), True


def _run_stream(enc: LstmParams, dec: LstmParams, head: Affine, context: np.ndarray,
                gap_len: int, keep_tapes: bool) -> StreamTrace:
    """Encode `context` (B, L, d) in order, then decode `gap_len` steps.

    The decoder starts from the encoder's final state with the last context
    row as input and feeds each local prediction into its next step.
    """
    enc_tapes: list[CellTape] | None = [] if keep_tapes else None
    dec_tapes: list[CellTape] | None = [] if keep_tapes else None
    state = zero_state(enc.hidden_dim, context.shape[0])
    for x in np.swapaxes(context, 0, 1):
        state, tape = lstm_step(enc, x, state)
        if enc_tapes is not None:
            enc_tapes.append(tape)
    hs, preds = [], []
    x = context[:, -1]
    for _ in range(gap_len):
        state, tape = lstm_step(dec, x, state)
        if dec_tapes is not None:
            dec_tapes.append(tape)
        hs.append(state.h)
        x = head.apply(state.h)
        preds.append(x)
    return StreamTrace(np.stack(hs, axis=1), np.stack(preds, axis=1), enc_tapes, dec_tapes)


def _stream_backward(enc: LstmParams, dec: LstmParams, head: Affine, st: StreamTrace,
                     d_pred: np.ndarray, dh_merge: np.ndarray | None,
                     g_enc: LstmParams, g_dec: LstmParams, g_head: Affine) -> None:
    """Backpropagate one stream, newest decoder step first.

    `d_pred` (B, T, d) is the loss gradient on each local prediction and
    `dh_merge` (B, T, h) the merge layer's gradient on each decoder hidden
    vector, both in processing order. The gradient w.r.t. a prediction
    combines its own loss term with the gradient flowing out of the next
    step's input, because predictions are self-fed.
    """
    B, T, _ = d_pred.shape
    dh = np.zeros((B, dec.hidden_dim))
    dc = np.zeros((B, dec.hidden_dim))
    d_in = None
    d_preds = np.empty_like(d_pred)
    for t in reversed(range(T)):
        d_preds[:, t] = d_pred[:, t] if d_in is None else d_pred[:, t] + d_in
        dh = dh + d_preds[:, t] @ head.w
        if dh_merge is not None:
            dh = dh + dh_merge[:, t]
        d_in, dh, dc = lstm_step_backward(dec, st.dec_tapes[t], dh, dc, g_dec)
    head.backward(st.h, d_preds, g_head)
    lstm_backward(enc, st.enc_tapes, None, dh, dc, acc=g_enc)


def _merge_input(schedule: ScalingSchedule, h_fw: np.ndarray, h_bw: np.ndarray) -> np.ndarray:
    """[gamma_t * h_fw_t, gamma'_t * h_bw_t] for every gap position t."""
    return np.concatenate([schedule.gamma[:, None] * h_fw,
                           schedule.gamma_prime[:, None] * h_bw], axis=-1)


def _forward(params: ModelParams, batch: ImputationWindow, schedule: ScalingSchedule,
             keep_tapes: bool) -> tuple[ForwardTrace, StreamTrace, StreamTrace | None]:
    """The batched forward pass behind `forward` and `loss_and_grads`."""
    cfg = params.config
    d, T = cfg.input_dim, schedule.gap_len
    before = _batch_rows(batch.before, "before", d)
    after = _batch_rows(batch.after, "after", d)
    if batch.missing is not None and np.shape(batch.missing)[1] != T:
        raise ShapeError(f"gap has {np.shape(batch.missing)[1]} rows but schedule covers {T}")

    fw = _run_stream(params.enc_fw, params.dec_fw, params.head_fw, before, T, keep_tapes)
    if cfg.forward_only:
        return ForwardTrace(fw.h, fw.pred, None, None, fw.pred, None), fw, None
    bw = _run_stream(params.enc_bw, params.dec_bw, params.head_bw, after[:, ::-1], T, keep_tapes)
    h_bw = np.ascontiguousarray(bw.h[:, ::-1])
    pred_bw = np.ascontiguousarray(bw.pred[:, ::-1])
    u = _merge_input(schedule, fw.h, h_bw)
    hidden_acts = None
    if cfg.merge_hidden > 0:
        hidden_acts = np.tanh(params.merge[0].apply(u))
        merged = params.merge[1].apply(hidden_acts)
    else:
        merged = params.merge[0].apply(u)
    return ForwardTrace(fw.h, fw.pred, h_bw, pred_bw, merged, hidden_acts), fw, bw


def forward(params: ModelParams, windows, schedule: ScalingSchedule) -> ForwardTrace:
    """Run the network over one window, or over a batch of equal-shape windows.

    `windows` is an ImputationWindow, a batch window, or a list of windows.
    Stages: both encoders first, then each decoder stream over the whole
    gap (self-feeding its local predictions), and merging last, once both
    hidden sequences exist.
    """
    batch, single = _as_batch(windows)
    trace, _, _ = _forward(params, batch, schedule, keep_tapes=False)
    if not single:
        return trace
    return ForwardTrace(*(None if a is None else a[0] for a in (
        trace.h_fw, trace.pred_fw, trace.h_bw, trace.pred_bw, trace.merged,
        trace.merge_hidden_acts)))


def _truth_rows(truth, T: int, d: int) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.float64)
    if truth.ndim == 1:
        truth = truth[:, None]
    if truth.shape[-2] != T:
        raise ShapeError(f"truth has {truth.shape[-2]} rows for a gap of {T}")
    if truth.shape[-1] != d:
        raise ShapeError(f"truth: expected {d} column(s), got shape {truth.shape}")
    return truth


def _loss_terms(trace: ForwardTrace, truth: np.ndarray) -> list[np.ndarray]:
    """Mean squared error of each loss term, per window: the merged output,
    then (full network) the forward and the backward stream predictions."""
    preds = [trace.merged] if trace.pred_bw is None else [
        trace.merged, trace.pred_fw, trace.pred_bw]
    return [np.mean((p - truth) ** 2, axis=(-2, -1)) for p in preds]


def loss(trace: ForwardTrace, truth):
    """Mean over gap positions of the squared-error terms.

    Full network: MSE of the merged output plus MSE of each stream's local
    prediction at every position. Forward-only network: MSE of its single
    prediction stream. A float for one window, one value per window for a
    batch.
    """
    truth = _truth_rows(truth, trace.merged.shape[-2], trace.merged.shape[-1])
    total = sum(_loss_terms(trace, truth))
    return float(total) if np.ndim(total) == 0 else total


def _merge_backward(
    params: ModelParams,
    trace: ForwardTrace,
    schedule: ScalingSchedule,
    d_merged: np.ndarray,
    g: list[Affine],
) -> tuple[np.ndarray, np.ndarray]:
    """Backward through the merge layer only, with the trace held fixed.

    Returns the gradients w.r.t. each decoder hidden vector at the merge
    input: the gamma factors multiply straight through, which is what makes
    the stream weights shape learning as well as prediction.
    """
    h = params.config.hidden_dim
    u = _merge_input(schedule, trace.h_fw, trace.h_bw)
    if params.config.merge_hidden > 0:
        z = trace.merge_hidden_acts
        dz = params.merge[1].backward(z, d_merged, g[1])
        du = params.merge[0].backward(u, dz * (1.0 - z * z), g[0])
    else:
        du = params.merge[0].backward(u, d_merged, g[0])
    return schedule.gamma[:, None] * du[..., :h], schedule.gamma_prime[:, None] * du[..., h:]


def merge_input_grads(
    params: ModelParams,
    trace: ForwardTrace,
    schedule: ScalingSchedule,
    truth,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the merged-output loss w.r.t. each stream's hidden vector
    entering the merge, with the forward trace held fixed; indexed by gap
    position like the trace."""
    if params.config.forward_only:
        raise ValueError("forward-only network has no merge layer")
    d, T = params.config.input_dim, schedule.gap_len
    truth = _truth_rows(truth, T, d)
    scratch = [Affine(np.zeros_like(layer.w), np.zeros_like(layer.b)) for layer in params.merge]
    scale = 2.0 / (T * d)
    return _merge_backward(params, trace, schedule, scale * (trace.merged - truth), scratch)


def loss_and_grads(
    params: ModelParams,
    windows,
    schedule: ScalingSchedule,
    truth=None,
    term_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[float, ModelParams]:
    """Loss and its exact gradient w.r.t. every parameter.

    `windows` is one window or a batch (see `forward`); for a batch both the
    loss and the gradients are summed over its windows. `term_weights`
    scales the (merged, forward-stream, backward-stream) loss terms; the
    default reproduces `loss`. The forward-only network has a single term
    and ignores the weights. The gradient is a ModelParams over a fresh
    zeroed vector; `dict(iter_params(grads))` keys it by path.
    """
    cfg = params.config
    d, T = cfg.input_dim, schedule.gap_len
    batch, _ = _as_batch(windows)
    if truth is None:
        truth = batch.missing
    if truth is None:
        raise ValueError("training needs ground-truth gap rows")
    truth = _truth_rows(truth, T, d)
    if truth.ndim == 2:
        truth = truth[None]

    trace, fw, bw = _forward(params, batch, schedule, keep_tapes=True)
    terms = _loss_terms(trace, truth)
    coef = 2.0 / (T * d)
    g = params_from_flat(cfg, np.zeros_like(params.flat))
    if cfg.forward_only:
        loss_val = terms[0]
        d_pred_fw, dh_merge_fw = coef * (fw.pred - truth), None
    else:
        w_merged, w_fw, w_bw = term_weights
        loss_val = w_merged * terms[0] + w_fw * terms[1] + w_bw * terms[2]
        dh_merge_fw, dh_merge_bw = _merge_backward(
            params, trace, schedule, (w_merged * coef) * (trace.merged - truth), g.merge)
        d_pred_fw = (w_fw * coef) * (fw.pred - truth)
        # the backward stream runs over the gap in reverse: flip to its order
        _stream_backward(params.enc_bw, params.dec_bw, params.head_bw, bw,
                         (w_bw * coef) * (bw.pred - truth[:, ::-1]), dh_merge_bw[:, ::-1],
                         g.enc_bw, g.dec_bw, g.head_bw)
    _stream_backward(params.enc_fw, params.dec_fw, params.head_fw, fw, d_pred_fw, dh_merge_fw,
                     g.enc_fw, g.dec_fw, g.head_fw)
    return float(np.sum(loss_val)), g


def impute(
    params: ModelParams,
    before,
    after,
    gap_len: int,
    variant: str | None = None,
) -> np.ndarray:
    """Fill gaps of `gap_len` rows between observed context; no truth needed.

    `before`/`after` are (L, d) rows for one gap (1-D when d = 1), giving
    (gap_len, d); or (B, L, d) stacks for B gaps, giving (B, gap_len, d).
    """
    schedule = make_schedule(gap_len, variant or params.config.schedule_variant)
    window = ImputationWindow(np.asarray(before, dtype=np.float64), None,
                              np.asarray(after, dtype=np.float64))
    return forward(params, window, schedule).merged


@dataclass
class GradCheckInstance:
    input_dim: int
    hidden_dim: int
    gap_len: int
    variant: str
    merge_hidden: int
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

    Random small networks and windows; every parameter coordinate of every
    tensor is perturbed. `_corrupt_path` is a test hook that deliberately
    offsets one analytic gradient tensor so the check must fail.
    """
    rng = Rng(seed)
    instances: list[GradCheckInstance] = []
    worst = (0.0, "none")
    for k in range(n_instances):
        d = 1 + rng.randrange(max_input_dim)
        h = 1 + rng.randrange(max_hidden_dim)
        T = 1 + rng.randrange(max_gap)
        variant = SCHEDULE_VARIANTS[k % len(SCHEDULE_VARIANTS)]
        merge_hidden = 3 if k % 4 == 3 else 0
        cfg = NetworkConfig(input_dim=d, hidden_dim=h, schedule_variant=variant,
                            merge_hidden=merge_hidden)
        params = init_model_params(cfg, rng)
        window = ImputationWindow(
            rng.normal_array((context_len, d)),
            rng.normal_array((T, d)),
            rng.normal_array((context_len, d)),
        )
        schedule = make_schedule(T, variant)
        analytic = dict(iter_params(loss_and_grads(params, window, schedule)[1]))
        if _corrupt_path is not None and _corrupt_path in analytic:
            analytic[_corrupt_path] = analytic[_corrupt_path] + 1.0

        inst_worst = (0.0, "none")
        for path, tensor in iter_params(params):
            original = tensor.copy()

            def f(candidate: np.ndarray) -> float:
                tensor[...] = candidate
                value = loss(forward(params, window, schedule), window.missing)
                return value

            numeric = finite_diff_grad(f, original, eps)
            tensor[...] = original
            a = analytic[path]
            # central differences bottom out at ~1e-11*|loss| of roundoff, so
            # coordinates near zero are held to an absolute bar instead of a
            # relative one (the 1e-4 floor leaves ~100x margin over that noise)
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-4)
            rel = np.abs(a - numeric) / denom
            m = float(rel.max()) if rel.size else 0.0
            if m > inst_worst[0]:
                inst_worst = (m, path)
        instances.append(GradCheckInstance(d, h, T, variant, merge_hidden,
                                           inst_worst[0], inst_worst[1]))
        if inst_worst[0] > worst[0]:
            worst = inst_worst
    return GradCheckReport(instances, worst[0], worst[1], tolerance)
