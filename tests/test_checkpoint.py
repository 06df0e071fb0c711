import struct

import numpy as np
import pytest

from gapfill.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from gapfill.data import NormStats
from gapfill.model import NetworkConfig, impute, init_model_params, iter_params
from gapfill.numerics import Rng


def make_stats(k=1):
    return NormStats(np.arange(1.0, k + 1.0), np.arange(2.0, k + 2.0))


@pytest.mark.parametrize("cfg", [
    NetworkConfig(input_dim=1, hidden_dim=3),
    NetworkConfig(input_dim=2, hidden_dim=4, schedule_variant="endpoint"),
    NetworkConfig(input_dim=1, hidden_dim=2, merge_hidden=5),
    NetworkConfig(input_dim=1, hidden_dim=2, forward_only=True),
    NetworkConfig(input_dim=3, hidden_dim=2, schedule_variant="constant"),
])
def test_round_trip_is_bit_exact(tmp_path, cfg):
    params = init_model_params(cfg, Rng(5))
    stats = make_stats(cfg.input_dim)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, stats)
    loaded, loaded_stats = load_checkpoint(path)
    assert loaded.config == cfg
    assert np.array_equal(loaded_stats.mean, stats.mean)
    assert np.array_equal(loaded_stats.std, stats.std)
    for (pa, ta), (pb, tb) in zip(iter_params(params), iter_params(loaded)):
        assert pa == pb
        assert ta.shape == tb.shape
        assert np.array_equal(ta, tb), pa


def test_round_trip_preserves_predictions_bitwise(tmp_path):
    cfg = NetworkConfig(input_dim=1, hidden_dim=4)
    params = init_model_params(cfg, Rng(8))
    rng = Rng(9)
    before, after = rng.normal_array((4, 1)), rng.normal_array((4, 1))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, make_stats())
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(impute(params, before, after, 3), impute(loaded, before, after, 3))


def test_save_is_deterministic(tmp_path):
    cfg = NetworkConfig(input_dim=1, hidden_dim=3)
    params = init_model_params(cfg, Rng(0))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, make_stats())
    save_checkpoint(p2, params, make_stats())
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    cfg = NetworkConfig(input_dim=1, hidden_dim=3)
    params = init_model_params(cfg, Rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, make_stats())
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(clipped)


def test_trailing_garbage_rejected(tmp_path):
    cfg = NetworkConfig(input_dim=1, hidden_dim=2)
    params = init_model_params(cfg, Rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, make_stats())
    bloated = tmp_path / "bloated.ckpt"
    bloated.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(bloated)


def test_unsupported_version_rejected(tmp_path):
    cfg = NetworkConfig(input_dim=1, hidden_dim=2)
    params = init_model_params(cfg, Rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, make_stats())
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC)] = 99  # bump the version field
    (tmp_path / "v99.ckpt").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(tmp_path / "v99.ckpt")


@pytest.mark.parametrize("cfg", [
    NetworkConfig(input_dim=1, hidden_dim=3),
    NetworkConfig(input_dim=2, hidden_dim=4, merge_hidden=3),
    NetworkConfig(input_dim=3, hidden_dim=2, forward_only=True),
])
def test_save_load_save_is_byte_identical(tmp_path, cfg):
    params = init_model_params(cfg, Rng(12))
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save_checkpoint(first, params, make_stats(cfg.input_dim))
    loaded, stats = load_checkpoint(first)
    save_checkpoint(second, loaded, stats)
    assert first.read_bytes() == second.read_bytes()


# header byte offsets: magic, version, input_dim, hidden_dim, 4 flag bytes, merge width, n_cols
_INPUT_DIM, _HIDDEN_DIM, _N_COLS = len(MAGIC) + 4, len(MAGIC) + 8, len(MAGIC) + 20


def _patched(tmp_path, offset, value):
    params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), Rng(0))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, make_stats())
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 4] = struct.pack("<I", value)
    patched = tmp_path / "patched.ckpt"
    patched.write_bytes(bytes(raw))
    return patched


def test_column_count_must_match_input_dim(tmp_path):
    with pytest.raises(CheckpointError, match="2 normalization columns for input_dim 1"):
        load_checkpoint(_patched(tmp_path, _N_COLS, 2))


@pytest.mark.parametrize("field, offset", [
    ("input_dim", _INPUT_DIM), ("hidden_dim", _HIDDEN_DIM), ("n_cols", _N_COLS)])
def test_zero_dimension_rejected(tmp_path, field, offset):
    with pytest.raises(CheckpointError, match=f"{field} is 0"):
        load_checkpoint(_patched(tmp_path, offset, 0))
