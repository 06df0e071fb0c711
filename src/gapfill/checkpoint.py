"""Binary checkpoint format with a bit-exact round trip.

Layout (all integers little-endian, all floats IEEE-754 binary64 LE):

    8 bytes   magic  b"GAPFILL\\0"
    u32       format version (currently 1)
    u32       input_dim
    u32       hidden_dim
    u8        schedule variant (0 linear, 1 endpoint, 2 constant)
    u8        merge-MLP flag (0 single linear merge layer, 1 tanh MLP)
    u8        forward-only flag
    u8        reserved (0)
    u32       merge hidden width (0 when the merge layer is linear)
    u32       number of normalization columns
    f64[n]    per-column means
    f64[n]    per-column standard deviations
    f64[...]  every parameter tensor, row-major, in canonical order

The canonical tensor order is the order of `model.iter_params`.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import NormStats
from .model import (
    SCHEDULE_VARIANTS,
    Affine,
    LstmParams,
    ModelParams,
    NetworkConfig,
    iter_params,
)
from .lstm import PARAM_FIELDS, field_shape

MAGIC = b"GAPFILL\x00"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def save_checkpoint(path, params: ModelParams, stats: NormStats) -> None:
    cfg = params.config
    parts = [MAGIC]
    parts.append(struct.pack("<III", FORMAT_VERSION, cfg.input_dim, cfg.hidden_dim))
    parts.append(struct.pack(
        "<BBBB",
        SCHEDULE_VARIANTS.index(cfg.schedule_variant),
        1 if cfg.merge_hidden > 0 else 0,
        1 if cfg.forward_only else 0,
        0,
    ))
    parts.append(struct.pack("<II", cfg.merge_hidden, stats.mean.shape[0]))
    parts.append(np.asarray(stats.mean, dtype="<f8").tobytes())
    parts.append(np.asarray(stats.std, dtype="<f8").tobytes())
    for _, tensor in iter_params(params):
        parts.append(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, shape) -> np.ndarray:
        count = int(np.prod(shape))
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8", count=count).astype(np.float64).reshape(shape)


def load_checkpoint(path) -> tuple[ModelParams, NormStats]:
    with open(path, "rb") as fh:
        buf = fh.read()
    r = _Reader(buf, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version, input_dim, hidden_dim = r.unpack("<III")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    variant_code, merge_mlp, forward_only, _reserved = r.unpack("<BBBB")
    if variant_code >= len(SCHEDULE_VARIANTS):
        raise CheckpointError(f"{path}: unknown schedule variant code {variant_code}")
    merge_hidden, n_cols = r.unpack("<II")
    if merge_mlp != (1 if merge_hidden > 0 else 0):
        raise CheckpointError(f"{path}: merge flag disagrees with merge width {merge_hidden}")
    for name, value in (("input_dim", input_dim), ("hidden_dim", hidden_dim), ("n_cols", n_cols)):
        if value == 0:
            raise CheckpointError(f"{path}: header field {name} is 0")
    if n_cols != input_dim:
        raise CheckpointError(f"{path}: {n_cols} normalization columns for input_dim {input_dim}")
    mean = r.floats((n_cols,))
    std = r.floats((n_cols,))
    cfg = NetworkConfig(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        schedule_variant=SCHEDULE_VARIANTS[variant_code],
        merge_hidden=merge_hidden,
        forward_only=bool(forward_only),
    )
    d, h = input_dim, hidden_dim

    def read_lstm() -> LstmParams:
        return LstmParams(**{name: r.floats(field_shape(name, d, h)) for name in PARAM_FIELDS})

    enc_fw, enc_bw, dec_fw, dec_bw = (read_lstm() for _ in range(4))
    head_fw = Affine(r.floats((d, h)), r.floats((d,)))
    head_bw = Affine(r.floats((d, h)), r.floats((d,)))
    if merge_hidden > 0:
        merge = [Affine(r.floats((merge_hidden, 2 * h)), r.floats((merge_hidden,))),
                 Affine(r.floats((d, merge_hidden)), r.floats((d,)))]
    else:
        merge = [Affine(r.floats((d, 2 * h)), r.floats((d,)))]
    if r.pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - r.pos} unexpected trailing bytes")
    params = ModelParams(cfg, enc_fw, enc_bw, dec_fw, dec_bw, head_fw, head_bw, merge)
    return params, NormStats(mean, std)
