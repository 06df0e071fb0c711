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
fused arrays are the cell's only layout; the per-gate order of checkpoint
files is a permutation of them (`model.file_order`).

S independent cells can run as one: a stacked cell holds (S, 4h, d+h)
weights and (S, 4h) biases, its states and inputs are (S, B, .) arrays,
and each step is one batched matrix product over the stream axis. The
stack may have more than one leading axis, (K, S, 4h, d+h) for K networks
of S streams each; every slice computes what it would alone.

A forward step multiplies by the forward operand: the fused weight
transposed to a contiguous (d+h, 4h) array, or (S, d+h, 4h) stacked, with
the i, f, o columns and their biases halved. Since
sigmoid(a) = (1 + tanh(a/2))/2 and halving is exact, one in-place tanh
over all 4h pre-activations serves both kinds of gate: the g block is
done, and one scale and one shift over all 4h columns (x 0.5, + 0.5 on i,
f, o; x 1, + -0.0 on g, which leave it as it is) finish the sigmoids, to
the same bits as (1 + tanh(a/2))/2. A `ForwardCell` builds the operand
once for the steps of a forward pass; a plain `LstmParams` builds it on
each step, so it always reads the weights as they are.

`model.init_model_params` draws the weights Uniform(-k, k) with
k = 1/sqrt(hidden_dim); biases start at zero except the forget bias, which
starts at 1 so early training does not erase the cell memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError


class LstmParams:
    """One cell's parameters: fused weight `w` (4h, d+h) and bias `b` (4h,);
    or stacked cells: `w` (..., 4h, d+h) and `b` (..., 4h).

    Wraps the arrays it is given without copying them.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray):
        if (w.ndim < 2 or b.shape != w.shape[:-1] or w.shape[-2] % 4
                or w.shape[-1] <= w.shape[-2] // 4):
            raise ShapeError(f"fused weight {w.shape} and bias {b.shape} do not form a cell")
        self.w, self.b = w, b

    @property
    def input_dim(self) -> int:
        return self.w.shape[-1] - self.hidden_dim

    @property
    def hidden_dim(self) -> int:
        return self.b.shape[-1] // 4

    def operand(self) -> tuple[np.ndarray, ...]:
        """The forward operand of `w` and `b` as they are now: the weight
        (d+h, 4h) and the bias (1, 4h), stacked (S, .) like the cell, with
        the i, f, o columns halved; then the (4h,) scale and shift that turn
        tanh of the halved i, f, o columns into their sigmoids and keep the
        g columns (x * 1 + -0.0 is x, signed zeros included)."""
        w, b = self.w, self.b
        sig = slice(0, 3 * self.hidden_dim)
        scale, shift = np.ones(b.shape[-1], w.dtype), np.full(b.shape[-1], -0.0, w.dtype)
        scale[sig], shift[sig] = 0.5, 0.5
        wt = np.empty((*w.shape[:-2], w.shape[-1], w.shape[-2]), w.dtype)
        np.multiply(np.swapaxes(w, -1, -2), scale, out=wt)
        return wt, (b * scale)[..., None, :], scale, shift


class ForwardCell(LstmParams):
    """A cell whose forward operand is built once, from `w` and `b` as they
    are when it is made: a snapshot for the steps of one forward pass.
    Weights that change afterwards need a new ForwardCell."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        super().__init__(w, b)
        self._operand = super().operand()

    def operand(self) -> tuple[np.ndarray, ...]:
        return self._operand


@dataclass
class LstmState:
    h: np.ndarray  # (B, h) or (S, B, h)
    c: np.ndarray


@dataclass
class CellTape:
    """What one forward step keeps for its backward step, as (B, .) rows
    (with a leading stream axis for a stacked cell).

    `c_prev` is the previous step's `c` array itself, not a copy.
    """

    xh: np.ndarray  # (B, d+h): the input and the previous hidden state side by side
    act: np.ndarray  # (B, 4h): sigmoid(i, f, o) then tanh(g)
    c_prev: np.ndarray  # (B, h)
    c: np.ndarray  # (B, h)
    tc: np.ndarray  # (B, h): tanh(c)


def zero_state(hidden_dim: int, *lead: int, dtype=np.float64) -> LstmState:
    """All-zero state: (B, h) rows for `zero_state(h, B)`, or (S, B, h) for
    `zero_state(h, S, B)`; `dtype` is the cell's float type."""
    shape = (*lead, hidden_dim)
    return LstmState(np.zeros(shape, dtype), np.zeros(shape, dtype))


def lstm_step(p: LstmParams, x: np.ndarray, s: LstmState) -> tuple[LstmState, CellTape]:
    """One forward step for a batch of states as (B, .) rows or, with a
    stacked cell, S batches of them as (S, B, .) arrays; one state is the
    batch of one.

    Returns the new state, shaped like the input, and the tape for backward.
    Runs in the dtype of the cell's weights; pass a `ForwardCell` to step
    one operand many times.
    """
    d, h = p.input_dim, p.hidden_dim
    if x.ndim < 2 or x.shape[-1] != d:
        raise ShapeError(f"input has shape {x.shape}, cell expects (B, {d}) rows")
    if s.h.shape[-1] != h or s.c.shape[-1] != h:
        raise ShapeError(f"state has length {s.h.shape[-1]}, cell expects {h}")
    wt, bt, scale, shift = p.operand()
    xh = np.concatenate([x, s.h], axis=-1)
    act = np.matmul(xh, wt)
    act += bt
    np.tanh(act, out=act)
    act *= scale  # sigmoid(a) = (1 + tanh(a/2))/2 on i, f, o; g is tanh(a) already
    act += shift
    c = act[..., h:2 * h] * s.c
    c += act[..., :h] * act[..., 3 * h:]
    tc = np.tanh(c)
    h_new = act[..., 2 * h:3 * h] * tc
    return LstmState(h_new, c), CellTape(xh, act, s.c, c, tc)


def lstm_step_backward(
    p: LstmParams,
    tape: CellTape,
    dh: np.ndarray,
    dc_in: np.ndarray,
    acc: LstmParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward through one step.

    `dh`/`dc_in` are the loss gradients w.r.t. this step's h and c outputs,
    as (B, h) rows, or (S, B, h) for a stacked cell. Parameter gradients,
    summed over the batch, accumulate into the fused arrays of `acc`
    (stacked like `p`); returns the gradients w.r.t. the step input, the
    previous hidden state, and the previous cell memory, shaped like `dh`.
    """
    h = p.hidden_dim
    act = tape.act
    i, f, o, g = (act[..., k * h:(k + 1) * h] for k in range(4))
    tc = tape.tc
    dc = dh * o * (1.0 - tc * tc)
    dc += dc_in
    d_act = np.empty_like(act)
    # sigmoid gates: d/da sigmoid(a) = s (1 - s)
    sig = act[..., :3 * h]
    d_act[..., :h] = dc * g
    d_act[..., h:2 * h] = dc * tape.c_prev
    d_act[..., 2 * h:3 * h] = dh * tc
    d_act[..., :3 * h] *= sig * (1.0 - sig)
    d_act[..., 3 * h:] = dc * i * (1.0 - g * g)

    acc.w += np.matmul(np.swapaxes(d_act, -1, -2), tape.xh)
    acc.b += d_act.sum(axis=-2)
    dxh = np.matmul(d_act, p.w)
    d = p.input_dim
    return dxh[..., :d], dxh[..., d:], dc * f

