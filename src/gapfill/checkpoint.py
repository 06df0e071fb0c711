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
    f64[...]  every parameter, in the order of `model.file_order`

The file lists each LSTM cell gate by gate (w_i ... w_o, u_i ... u_o,
b_i ... b_o), then the heads and the merge layers. `ModelParams.flat`
holds each cell's gates fused instead, and the one permutation
`model.file_order` maps the arena onto the file: a save writes the header
and one gather of `flat`, a load is one length check, one read of the
payload and one scatter.

A load checks the header and the file length before it allocates the
parameters, and rejects a flag byte other than 0 or 1, a non-finite mean,
a standard deviation that is not finite and positive, and a non-finite
parameter, none of which a trained model writes.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import NormStats
from .model import (
    SCHEDULE_VARIANTS,
    ModelParams,
    NetworkConfig,
    file_order,
    iter_params,
    n_params,
    params_from_flat,
)

MAGIC = b"GAPFILL\x00"
FORMAT_VERSION = 1
# magic, version, input_dim, hidden_dim, 4 flag bytes, merge width, normalization columns
_HEADER = struct.Struct("<8sIIIBBBBII")


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


def save_checkpoint(path, params: ModelParams, stats: NormStats) -> None:
    cfg = params.config
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, cfg.input_dim, cfg.hidden_dim,
                          SCHEDULE_VARIANTS.index(cfg.schedule_variant),
                          1 if cfg.merge_hidden > 0 else 0, 1 if cfg.forward_only else 0, 0,
                          cfg.merge_hidden, len(stats.mean))
    norm = np.concatenate([stats.mean, stats.std]).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header + norm.tobytes())
        fh.write(params.flat[file_order(cfg)].astype("<f8", copy=False))


def load_checkpoint(path) -> tuple[ModelParams, NormStats]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    if len(buf) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated checkpoint")
    (_, version, input_dim, hidden_dim, variant_code, merge_mlp, forward_only, _reserved,
     merge_hidden, n_cols) = _HEADER.unpack_from(buf)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    if variant_code >= len(SCHEDULE_VARIANTS):
        raise CheckpointError(f"{path}: unknown schedule variant code {variant_code}")
    if forward_only > 1:
        raise CheckpointError(f"{path}: forward-only flag is {forward_only}, not 0 or 1")
    if merge_mlp != (1 if merge_hidden > 0 else 0):
        raise CheckpointError(f"{path}: merge flag disagrees with merge width {merge_hidden}")
    for name, value in (("input_dim", input_dim), ("hidden_dim", hidden_dim), ("n_cols", n_cols)):
        if value == 0:
            raise CheckpointError(f"{path}: header field {name} is 0")
    if n_cols != input_dim:
        raise CheckpointError(f"{path}: {n_cols} normalization columns for input_dim {input_dim}")
    cfg = NetworkConfig(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        schedule_variant=SCHEDULE_VARIANTS[variant_code],
        merge_hidden=merge_hidden,
        forward_only=bool(forward_only),
    )
    size = _HEADER.size + 8 * (2 * n_cols + n_params(cfg))
    if len(buf) < size:
        raise CheckpointError(f"{path}: truncated checkpoint: input_dim {input_dim} and "
                              f"hidden_dim {hidden_dim} need {size} bytes, the file has {len(buf)}")
    if len(buf) > size:
        raise CheckpointError(f"{path}: {len(buf) - size} unexpected trailing bytes")
    floats = np.frombuffer(buf, dtype="<f8", offset=_HEADER.size)
    mean, std = floats[:n_cols].astype(np.float64), floats[n_cols:2 * n_cols].astype(np.float64)
    if not np.all(np.isfinite(mean)):
        raise CheckpointError(f"{path}: non-finite normalization mean")
    if not np.all(np.isfinite(std) & (std > 0)):
        raise CheckpointError(f"{path}: normalization std must be finite and positive")
    params = params_from_flat(cfg, np.empty(n_params(cfg)))
    params.flat[file_order(cfg)] = floats[2 * n_cols:]
    if not np.all(np.isfinite(params.flat)):
        name = next(name for name, t in iter_params(params) if not np.all(np.isfinite(t)))
        raise CheckpointError(f"{path}: non-finite value in parameter {name}")
    return params, NormStats(mean, std)
