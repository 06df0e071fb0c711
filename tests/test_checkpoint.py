import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gapfill.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from gapfill.data import NormStats
from gapfill.model import (
    SCHEDULE_VARIANTS,
    NetworkConfig,
    impute,
    init_model_params,
    iter_params,
    n_params,
    params_from_flat,
)
from gapfill.numerics import Rng

from _reference import init_params_scalar, v1_tensors, write_v1


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
    assert np.array_equal(impute(params, [before], [after], [3])[0],
                          impute(loaded, [before], [after], [3])[0])


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


# the forward-only flag: the third of the four flag bytes after hidden_dim
_FORWARD_ONLY = len(MAGIC) + 14


def _corrupted(tmp_path, edit):
    """A valid checkpoint of a small network with `edit(raw, payload)` applied
    to its bytes; `payload` is the offset of the first normalization mean."""
    cfg = NetworkConfig(input_dim=2, hidden_dim=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_model_params(cfg, Rng(0)), make_stats(2))
    raw = bytearray(path.read_bytes())
    edit(raw, _N_COLS + 4)
    path.write_bytes(bytes(raw))
    return path


def _put(index, value):
    """Set float `index` of the payload (means, stds, parameters; negative
    from the end of the file) to `value`."""
    def edit(raw, payload):
        at = payload + 8 * index if index >= 0 else len(raw) + 8 * index
        raw[at:at + 8] = struct.pack("<d", value)
    return edit


def test_huge_hidden_dim_is_rejected_before_allocating(tmp_path):
    path = _patched(tmp_path, _HIDDEN_DIM, 2**31)
    with pytest.raises(CheckpointError, match="truncated checkpoint: .*hidden_dim 2147483648"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_mean_rejected(tmp_path, value):
    with pytest.raises(CheckpointError, match="non-finite normalization mean"):
        load_checkpoint(_corrupted(tmp_path, _put(1, value)))


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_std_that_is_not_finite_and_positive_rejected(tmp_path, value):
    # the stds follow the two means
    with pytest.raises(CheckpointError, match="std must be finite and positive"):
        load_checkpoint(_corrupted(tmp_path, _put(3, value)))


# after the 2 means and 2 stds, enc_fw's 4 * 3 * 2 input and 4 * 3 * 3 recurrent
# weights, then its biases; the last value is merge.0.b
@pytest.mark.parametrize("index, path", [(4, "enc_fw.w"), (4 + 24 + 36 + 5, "enc_fw.b"),
                                         (-1, "merge.0.b")])
def test_non_finite_parameter_rejected_by_name(tmp_path, index, path):
    with pytest.raises(CheckpointError, match=f"non-finite value in parameter {path}"):
        load_checkpoint(_corrupted(tmp_path, _put(index, np.nan)))


def test_forward_only_flag_must_be_zero_or_one(tmp_path):
    def edit(raw, payload):
        raw[_FORWARD_ONLY] = 2
    with pytest.raises(CheckpointError, match="forward-only flag is 2"):
        load_checkpoint(_corrupted(tmp_path, edit))


@pytest.mark.parametrize("value", [1, 255])
def test_reserved_byte_must_be_zero(tmp_path, value):
    def edit(raw, payload):
        raw[_FORWARD_ONLY + 1] = value
    with pytest.raises(CheckpointError, match=f"reserved header byte is {value}, not 0"):
        load_checkpoint(_corrupted(tmp_path, edit))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), h=st.integers(1, 5),
       merge_hidden=st.sampled_from([0, 3]), forward_only=st.booleans(),
       variant=st.sampled_from(SCHEDULE_VARIANTS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bytes_match_a_writer_that_slices_the_gates_itself(tmp_path, seed, d, h, merge_hidden,
                                                           forward_only, variant):
    cfg = NetworkConfig(input_dim=d, hidden_dim=h, schedule_variant=variant,
                        merge_hidden=merge_hidden, forward_only=forward_only)
    rng = np.random.default_rng(seed)  # distinct values everywhere, biases included
    params = params_from_flat(cfg, rng.normal(size=n_params(cfg)))
    stats = NormStats(rng.normal(size=d), rng.uniform(0.5, 2.0, size=d))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, params, stats)
    assert path.read_bytes() == write_v1(params, stats.mean, stats.std)
    loaded, _ = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.flat.tobytes() == params.flat.tobytes()


def test_a_file_from_the_per_gate_layout_loads_bit_for_bit(tmp_path):
    # written by an earlier version that kept a tensor per gate: the
    # init_model_params of this config at Rng(3), with mean 0.25 and std 1.5
    path = os.path.join(os.path.dirname(__file__), "data", "v1_d1_h2_seed3.ckpt")
    cfg = NetworkConfig(input_dim=1, hidden_dim=2, schedule_variant="endpoint")
    params, stats = load_checkpoint(path)
    assert params.config == cfg
    assert params.flat.tobytes() == init_model_params(cfg, Rng(3)).flat.tobytes()
    # init and load share the file order, so also read the arena through the
    # oracle's own slicing against the oracle's own draws
    expected = init_params_scalar(3, 1, 2, 0)
    for name, tensor in v1_tensors(params).items():
        shape, values = expected[name]
        assert tensor.tobytes() == np.array(values).reshape(shape).tobytes(), name
    assert stats.mean.tolist() == [0.25] and stats.std.tolist() == [1.5]
    save_checkpoint(tmp_path / "again.ckpt", params, stats)
    with open(path, "rb") as fh:
        assert (tmp_path / "again.ckpt").read_bytes() == fh.read()
