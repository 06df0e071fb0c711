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
and each step is one batched matrix product over the stream axis.

`model.init_model_params` draws the weights Uniform(-k, k) with
k = 1/sqrt(hidden_dim); biases start at zero except the forget bias, which
starts at 1 so early training does not erase the cell memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ShapeError, sigmoid


class LstmParams:
    """One cell's parameters: fused weight `w` (4h, d+h) and bias `b` (4h,);
    or S stacked cells: `w` (S, 4h, d+h) and `b` (S, 4h).

    Wraps the arrays it is given without copying them.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray):
        if (w.ndim not in (2, 3) or b.shape != w.shape[:-1] or w.shape[-2] % 4
                or w.shape[-1] <= w.shape[-2] // 4):
            raise ShapeError(f"fused weight {w.shape} and bias {b.shape} do not form a cell")
        self.w, self.b = w, b

    @property
    def input_dim(self) -> int:
        return self.w.shape[-1] - self.hidden_dim

    @property
    def hidden_dim(self) -> int:
        return self.b.shape[-1] // 4


@dataclass
class LstmState:
    h: np.ndarray  # (h,), (B, h) or (S, B, h)
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


def zero_state(hidden_dim: int, *lead: int) -> LstmState:
    """All-zero state: (h,) vectors, (B, h) rows for `zero_state(h, B)`, or
    (S, B, h) for `zero_state(h, S, B)`."""
    shape = (*lead, hidden_dim)
    return LstmState(np.zeros(shape), np.zeros(shape))


def lstm_step(p: LstmParams, x: np.ndarray, s: LstmState) -> tuple[LstmState, CellTape]:
    """One forward step for one state (1-D), a batch of states (rows), or,
    with a stacked cell, S batches of states as (S, B, .) arrays.

    Returns the new state, shaped like the input, and the tape for backward.
    """
    d, h = p.input_dim, p.hidden_dim
    if x.shape[-1] != d:
        raise ShapeError(f"input has length {x.shape[-1]}, cell expects {d}")
    if s.h.shape[-1] != h or s.c.shape[-1] != h:
        raise ShapeError(f"state has length {s.h.shape[-1]}, cell expects {h}")
    c_prev = np.atleast_2d(s.c)
    xh = np.concatenate([np.atleast_2d(x), np.atleast_2d(s.h)], axis=-1)
    act = np.matmul(xh, np.swapaxes(p.w, -1, -2))
    act += p.b[..., None, :]
    act[..., :3 * h] = sigmoid(act[..., :3 * h])
    np.tanh(act[..., 3 * h:], out=act[..., 3 * h:])
    c = act[..., h:2 * h] * c_prev
    c += act[..., :h] * act[..., 3 * h:]
    h_new = act[..., 2 * h:3 * h] * np.tanh(c)
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
    (1-D, one row per batch member, or (S, B, h) for a stacked cell).
    Parameter gradients, summed over the batch, accumulate into the fused
    arrays of `acc` (stacked like `p`); returns the gradients w.r.t. the
    step input, the previous hidden state, and the previous cell memory,
    shaped like `dh`.
    """
    h = p.hidden_dim
    act = tape.act
    i, f, o, g = (act[..., k * h:(k + 1) * h] for k in range(4))
    tc = np.tanh(tape.c)
    dh2 = np.atleast_2d(dh)
    dc = dh2 * o * (1.0 - tc * tc)
    dc += dc_in
    d_act = np.empty_like(act)
    # sigmoid gates: d/da sigmoid(a) = s (1 - s)
    sig = act[..., :3 * h]
    d_act[..., :h] = dc * g
    d_act[..., h:2 * h] = dc * tape.c_prev
    d_act[..., 2 * h:3 * h] = dh2 * tc
    d_act[..., :3 * h] *= sig * (1.0 - sig)
    d_act[..., 3 * h:] = dc * i * (1.0 - g * g)

    acc.w += np.matmul(np.swapaxes(d_act, -1, -2), tape.xh)
    acc.b += d_act.sum(axis=-2)
    dxh = np.matmul(d_act, p.w)
    dc_prev = dc * f
    d = p.input_dim
    if dh.ndim == 1:
        return dxh[0, :d], dxh[0, d:], dc_prev[0]
    return dxh[..., :d], dxh[..., d:], dc_prev

