"""A single LSTM cell: forward step, and exact reverse-mode gradients.

The cell is the standard forget-gate variant without peepholes:

    i = sigmoid(W_i x + U_i h + b_i)        input gate
    f = sigmoid(W_f x + U_f h + b_f)        forget gate
    g = tanh   (W_g x + U_g h + b_g)        cell candidate
    o = sigmoid(W_o x + U_o h + b_o)        output gate
    c' = f * c + i * g
    h' = o * tanh(c')

The four gates are stored fused: one (4h, d+h) weight acting on the
concatenation [x, h] and one 4h bias, with gate blocks in the order i, f,
o, g so the three sigmoid gates form one contiguous slice. A step is then
one matrix product for a whole batch of B states held as (B, .) rows. The
per-gate tensors `w_i` ... `b_o` are views into the fused arrays, so
reading or editing them in place reads or edits the cell.

Weights are drawn Uniform(-k, k) with k = 1/sqrt(hidden_dim); biases start
at zero except the forget bias, which starts at 1 so early training does
not erase the cell memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, ShapeError, sigmoid

# Field order is the canonical parameter order (checkpoints, optimizer walks).
PARAM_FIELDS = (
    "w_i", "w_f", "w_g", "w_o",
    "u_i", "u_f", "u_g", "u_o",
    "b_i", "b_f", "b_g", "b_o",
)

# block of each gate in the fused arrays: the sigmoid gates first, then g
_GATE_BLOCK = {"i": 0, "f": 1, "o": 2, "g": 3}


def field_shape(name: str, input_dim: int, hidden_dim: int) -> tuple[int, ...]:
    """Shape of one per-gate tensor: (h, d) input weights, (h, h) recurrent, (h,) bias."""
    return {"w": (hidden_dim, input_dim), "u": (hidden_dim, hidden_dim),
            "b": (hidden_dim,)}[name[0]]


def _gate_view(name: str) -> property:
    kind, block = name[0], _GATE_BLOCK[name[2]]

    def get(self) -> np.ndarray:
        h, d = self.hidden_dim, self.input_dim
        rows = slice(block * h, (block + 1) * h)
        if kind == "b":
            return self.b[rows]
        return self.w[rows, :d] if kind == "w" else self.w[rows, d:]

    def set(self, value) -> None:
        get(self)[...] = value

    return property(get, set, doc=f"view of the {name} block of the fused arrays")


class LstmParams:
    """One cell's parameters: fused weight `w` (4h, d+h) and bias `b` (4h,).

    Built from the twelve per-gate tensors (in PARAM_FIELDS order), or
    around existing fused arrays with `LstmParams.fused`.
    """

    def __init__(self, w_i, w_f, w_g, w_o, u_i, u_f, u_g, u_o, b_i, b_f, b_g, b_o):
        h, d = np.shape(w_i)
        self.w = np.empty((4 * h, d + h))
        self.b = np.empty(4 * h)
        given = dict(zip(PARAM_FIELDS, (w_i, w_f, w_g, w_o, u_i, u_f, u_g, u_o,
                                        b_i, b_f, b_g, b_o)))
        for name, value in given.items():
            if np.shape(value) != field_shape(name, d, h):
                raise ShapeError(f"{name}: expected shape {field_shape(name, d, h)}, "
                                 f"got {np.shape(value)}")
            setattr(self, name, value)

    @classmethod
    def fused(cls, w: np.ndarray, b: np.ndarray) -> "LstmParams":
        """Wrap fused arrays without copying them."""
        if w.ndim != 2 or b.shape != (w.shape[0],) or w.shape[0] % 4 or w.shape[1] <= w.shape[0] // 4:
            raise ShapeError(f"fused weight {w.shape} and bias {b.shape} do not form a cell")
        p = cls.__new__(cls)
        p.w, p.b = w, b
        return p

    def zeros_like(self) -> "LstmParams":
        return LstmParams.fused(np.zeros_like(self.w), np.zeros_like(self.b))

    def fields(self) -> dict[str, np.ndarray]:
        """The per-gate views, keyed in PARAM_FIELDS order."""
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    @property
    def input_dim(self) -> int:
        return self.w.shape[1] - self.hidden_dim

    @property
    def hidden_dim(self) -> int:
        return self.b.shape[0] // 4

    w_i, w_f, w_g, w_o = (_gate_view(n) for n in PARAM_FIELDS[0:4])
    u_i, u_f, u_g, u_o = (_gate_view(n) for n in PARAM_FIELDS[4:8])
    b_i, b_f, b_g, b_o = (_gate_view(n) for n in PARAM_FIELDS[8:12])


@dataclass
class LstmState:
    h: np.ndarray  # (h,) or (B, h)
    c: np.ndarray


@dataclass
class CellTape:
    """What one forward step keeps for its backward step, as (B, .) rows.

    `c_prev` is the previous step's `c` array itself, not a copy.
    """

    xh: np.ndarray  # (B, d+h): the input and the previous hidden state side by side
    act: np.ndarray  # (B, 4h): sigmoid(i, f, o) then tanh(g)
    c_prev: np.ndarray  # (B, h)
    c: np.ndarray  # (B, h)


def zero_state(hidden_dim: int, batch: int | None = None) -> LstmState:
    """All-zero state: (h,) vectors, or (batch, h) rows."""
    shape = (hidden_dim,) if batch is None else (batch, hidden_dim)
    return LstmState(np.zeros(shape), np.zeros(shape))


def init_lstm_params(input_dim: int, hidden_dim: int, rng: Rng) -> LstmParams:
    """Fresh parameters; draw order matches PARAM_FIELDS."""
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError("input_dim and hidden_dim must be positive")
    k = 1.0 / np.sqrt(hidden_dim)
    p = LstmParams.fused(np.empty((4 * hidden_dim, input_dim + hidden_dim)),
                         np.zeros(4 * hidden_dim))
    for name in PARAM_FIELDS[:8]:
        setattr(p, name, rng.uniform_array(field_shape(name, input_dim, hidden_dim), -k, k))
    p.b_f = 1.0
    return p


def zero_lstm_grads(p: LstmParams) -> dict[str, np.ndarray]:
    return p.zeros_like().fields()


def lstm_step(p: LstmParams, x: np.ndarray, s: LstmState) -> tuple[LstmState, CellTape]:
    """One forward step for one state (1-D) or a batch of states (rows).

    Returns the new state, shaped like the input, and the tape for backward.
    """
    d, h = p.input_dim, p.hidden_dim
    if x.shape[-1] != d:
        raise ShapeError(f"input has length {x.shape[-1]}, cell expects {d}")
    if s.h.shape[-1] != h or s.c.shape[-1] != h:
        raise ShapeError(f"state has length {s.h.shape[-1]}, cell expects {h}")
    c_prev = np.atleast_2d(s.c)
    xh = np.concatenate([np.atleast_2d(x), np.atleast_2d(s.h)], axis=1)
    act = xh @ p.w.T
    act += p.b
    act[:, :3 * h] = sigmoid(act[:, :3 * h])
    np.tanh(act[:, 3 * h:], out=act[:, 3 * h:])
    c = act[:, h:2 * h] * c_prev
    c += act[:, :h] * act[:, 3 * h:]
    h_new = act[:, 2 * h:3 * h] * np.tanh(c)
    tape = CellTape(xh, act, c_prev, c)
    if x.ndim == 1:
        return LstmState(h_new[0], c[0]), tape
    return LstmState(h_new, c), tape


def lstm_step_backward(
    p: LstmParams,
    tape: CellTape,
    dh: np.ndarray,
    dc_in: np.ndarray,
    acc: LstmParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through one step.

    `dh`/`dc_in` are the loss gradients w.r.t. this step's h and c outputs
    (1-D, or one row per batch member). Parameter gradients, summed over
    the batch, accumulate into the fused arrays of `acc`; returns the
    gradients w.r.t. the step input, the previous hidden state, and the
    previous cell memory, shaped like `dh`.
    """
    h = p.hidden_dim
    act = tape.act
    i, f, o, g = (act[:, k * h:(k + 1) * h] for k in range(4))
    tc = np.tanh(tape.c)
    dh2 = np.atleast_2d(dh)
    dc = dh2 * o * (1.0 - tc * tc)
    dc += dc_in
    d_act = np.empty_like(act)
    # sigmoid gates: d/da sigmoid(a) = s (1 - s)
    sig = act[:, :3 * h]
    d_act[:, :h] = dc * g
    d_act[:, h:2 * h] = dc * tape.c_prev
    d_act[:, 2 * h:3 * h] = dh2 * tc
    d_act[:, :3 * h] *= sig * (1.0 - sig)
    d_act[:, 3 * h:] = dc * i * (1.0 - g * g)

    acc.w += d_act.T @ tape.xh
    acc.b += d_act.sum(axis=0)
    dxh = d_act @ p.w
    dc_prev = dc * f
    d = p.input_dim
    if dh.ndim == 1:
        return dxh[0, :d], dxh[0, d:], dc_prev[0]
    return dxh[:, :d], dxh[:, d:], dc_prev


def lstm_run(
    p: LstmParams, xs, state: LstmState
) -> tuple[LstmState, list[np.ndarray], list[CellTape]]:
    """Run the cell over a sequence of inputs; returns final state, h outputs, tapes."""
    hs: list[np.ndarray] = []
    tapes: list[CellTape] = []
    for x in xs:
        state, tape = lstm_step(p, x, state)
        hs.append(state.h)
        tapes.append(tape)
    return state, hs, tapes


def lstm_backward(
    p: LstmParams,
    tapes: list[CellTape],
    grad_h_seq: list[np.ndarray] | None,
    grad_h_final: np.ndarray | None = None,
    grad_c_final: np.ndarray | None = None,
    acc: LstmParams | None = None,
) -> tuple[dict[str, np.ndarray], list[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Backpropagation through time over a taped sequence.

    `grad_h_seq[t]` is the loss gradient flowing directly into the step-t
    hidden output (None means all zeros); `grad_h_final`/`grad_c_final` add
    to the last step's state gradients. Parameter gradients accumulate into
    `acc` (a fresh zero cell when None) and are returned per gate, together
    with the gradient w.r.t. each input and w.r.t. the initial state.
    Gradients are 1-D unless a batched one is passed in.
    """
    n = len(tapes)
    if grad_h_seq is not None and len(grad_h_seq) != n:
        raise ShapeError(f"got {len(grad_h_seq)} hidden gradients for {n} steps")
    if acc is None:
        acc = p.zeros_like()
    hdim = p.hidden_dim
    dh = np.zeros(hdim) if grad_h_final is None else grad_h_final.copy()
    dc = np.zeros(hdim) if grad_c_final is None else grad_c_final.copy()
    dxs: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for t in reversed(range(n)):
        if grad_h_seq is not None:
            dh = dh + grad_h_seq[t]
        dx, dh, dc = lstm_step_backward(p, tapes[t], dh, dc, acc)
        dxs[t] = dx
    return acc.fields(), dxs, (dh, dc)
