"""Float64 primitives: activations, losses, a seeded RNG, and a
central-difference gradient checker.

Vectors are 1-D numpy float64 arrays and matrices are 2-D row-major
float64 arrays. Every function here is pure; the Rng is the only stateful
object and must stay confined to a single owner at a time.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray

_MASK64 = (1 << 64) - 1


class ShapeError(ValueError):
    """Operands with incompatible dimensions."""


def _as_vector(v, name: str = "vector") -> Vector:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name}: expected a 1-d vector, got shape {v.shape}")
    return v


def matvec(m: Matrix, v: Vector) -> Vector:
    """Dense matrix-vector product with shape validation."""
    m = np.asarray(m, dtype=np.float64)
    v = _as_vector(v, "v")
    if m.ndim != 2:
        raise ShapeError(f"m: expected a 2-d matrix, got shape {m.shape}")
    if m.shape[1] != v.shape[0]:
        raise ShapeError(
            f"matvec shape mismatch: matrix is {m.shape[0]}x{m.shape[1]}, "
            f"vector has length {v.shape[0]}"
        )
    return m @ v


def sigmoid(v) -> np.ndarray:
    """Elementwise logistic function, overflow-safe on both tails.

    Uses 1/(1+exp(-v)) = (1 + tanh(v/2))/2: one transcendental ufunc, no
    masks, and tanh saturates to +-1 where exp would overflow.
    """
    out = np.tanh(0.5 * np.asarray(v, dtype=np.float64))
    out += 1.0
    out *= 0.5
    return out


def tanh(v) -> np.ndarray:
    """Elementwise hyperbolic tangent."""
    return np.tanh(np.asarray(v, dtype=np.float64))


def mse(truth, pred) -> float:
    """Mean squared error between two equal-length vectors."""
    t = _as_vector(truth, "truth")
    p = _as_vector(pred, "pred")
    if t.shape != p.shape:
        raise ShapeError(f"mse length mismatch: {t.shape[0]} vs {p.shape[0]}")
    if t.shape[0] == 0:
        raise ShapeError("mse needs at least one element")
    d = t - p
    return float(np.mean(d * d))


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
        return (x * 0x2545F4914F6CDD1D) & _MASK64

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
        if isinstance(shape, int):
            shape = (shape,)
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(out.shape[0]):
            out[i] = self.uniform(lo, hi)
        return out.reshape(shape)

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
