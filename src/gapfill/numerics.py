"""Numeric primitives: the logistic function, a seeded RNG, and a
central-difference gradient checker.

No program path calls the logistic function: the LSTM step computes its
gates' sigmoids from one tanh (`lstm.lstm_step`). It is kept only because
the benchmark's per-layer span table names it, and goes when that table
drops the span. The RNG and the gradient checker work in float64.

Every function here is pure; the Rng is the only stateful object and must
stay confined to a single owner at a time.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D


class ShapeError(ValueError):
    """Operands with incompatible dimensions."""


def sigmoid(v) -> np.ndarray:
    """Elementwise logistic function, overflow-safe on both tails.

    Uses 1/(1+exp(-v)) = (1 + tanh(v/2))/2: one transcendental ufunc, no
    masks, and tanh saturates to +-1 where exp would overflow. A float
    array keeps its dtype; any other input (integers, lists) becomes float64.
    """
    v = np.asarray(v)
    if v.dtype.kind != "f":
        v = v.astype(np.float64)
    out = np.tanh(0.5 * v)
    out += 1.0
    out *= 0.5
    return out


def finite_diff_grad(f: Callable[[np.ndarray], float], params, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate.

    `f` is called with a perturbed copy of `params`; it must be deterministic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta = np.array(params, dtype=np.float64)
    grad = np.empty_like(theta)
    for idx in np.ndindex(*theta.shape):
        orig = theta[idx]
        theta[idx] = orig + eps
        f_plus = float(f(theta))
        theta[idx] = orig - eps
        f_minus = float(f(theta))
        theta[idx] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ValueError(f"non-finite function value while perturbing coordinate {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def _splitmix64(x: int) -> int:
    # one splitmix64 output, used only to scramble seeds
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _xorshift_steps(x: np.ndarray, steps: int) -> np.ndarray:
    """Row t: the uint64 states `x` after t + 1 xorshift64 updates.

    The same recurrence as `Rng.u64`, on many states at once; uint64
    left shifts drop the bits above 2^64 that `u64` masks off.
    """
    out = np.empty((steps, x.shape[0]), dtype=np.uint64)
    tmp = np.empty_like(out[0])
    prev = x
    for row in out:
        np.right_shift(prev, 12, out=tmp)
        np.bitwise_xor(prev, tmp, out=row)
        np.left_shift(row, 25, out=tmp)
        row ^= tmp
        np.right_shift(row, 27, out=tmp)
        row ^= tmp
        prev = row
    return out


@lru_cache(maxsize=None)
def _jump_tables(steps: int) -> tuple[tuple[int, ...], ...]:
    """Byte-lookup tables of the state update applied `steps` times.

    The update is linear over GF(2), so its power is a 64x64 bit matrix M:
    M @ x is the xor of the columns picked by the set bits of x. Table b
    maps a byte value v to the xor of the columns of bits 8b..8b+7 set in
    v, so one jump is 8 lookups.
    """
    basis = np.uint64(1) << np.arange(64, dtype=np.uint64)
    cols = _xorshift_steps(basis, steps)[-1]
    tables = []
    for byte in range(8):
        table = np.zeros(1, dtype=np.uint64)
        for col in cols[8 * byte:8 * byte + 8]:
            table = np.concatenate((table, table ^ col))
        tables.append(tuple(table.tolist()))
    return tuple(tables)


def _jump(tables: tuple[tuple[int, ...], ...], x: int) -> int:
    out = 0
    for byte, table in enumerate(tables):
        out ^= table[(x >> (8 * byte)) & 0xFF]
    return out


class Rng:
    """xorshift64* pseudo-random stream.

    The state recurrence is
        x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27   (mod 2^64)
    and each output is ``state * 0x2545F4914F6CDD1D mod 2^64``. The seed is
    scrambled through splitmix64 so that a zero state cannot occur. Floats
    take the top 53 bits of an output, giving uniforms in [0, 1). Identical
    seeds produce bit-identical streams.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        state = _splitmix64(self.seed)
        self._state = state if state != 0 else 0x9E3779B97F4A7C15
        self._spare_normal: float | None = None

    def u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.u64() >> 11) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; the second deviate is cached."""
        if self._spare_normal is not None:
            z, self._spare_normal = self._spare_normal, None
        else:
            u1 = self.random()
            while u1 <= 0.0:
                u1 = self.random()
            u2 = self.random()
            r = math.sqrt(-2.0 * math.log(u1))
            z = r * math.cos(2.0 * math.pi * u2)
            self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return mu + sigma * z

    def uniform_array(self, shape, lo: float, hi: float) -> np.ndarray:
        """The next prod(shape) `uniform(lo, hi)` draws, bit for bit, in order.

        The draws are cut into lanes of `lane` steps, a power of two near
        sqrt(n). Each lane starts `lane` steps after the previous one (one
        table jump), and all lanes step together as a uint64 vector.
        """
        if isinstance(shape, int):
            shape = (shape,)
        n = int(np.prod(shape))
        lane = 1 << (n.bit_length() // 2)
        tables = _jump_tables(lane)
        starts = [self._state]
        while len(starts) * lane < n:
            starts.append(_jump(tables, starts[-1]))
        states = _xorshift_steps(np.array(starts, dtype=np.uint64), lane)
        # the current state, then the state after each draw, in draw order
        chain = np.concatenate((np.array(starts[:1], dtype=np.uint64), states.T.ravel()))[:n + 1]
        self._state = int(chain[-1])
        u = ((chain[1:] * np.uint64(_XORSHIFT_MULT)) >> 11).astype(np.float64) * (1.0 / (1 << 53))
        return (lo + (hi - lo) * u).reshape(shape)

    def normal_array(self, shape, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        if isinstance(shape, int):
            shape = (shape,)
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(out.shape[0]):
            out[i] = self.normal(mu, sigma)
        return out.reshape(shape)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n); rejection sampling keeps it unbiased."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        lim = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.u64()
            if u < lim:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
