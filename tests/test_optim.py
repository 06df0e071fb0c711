import csv

import numpy as np
import pytest

from gapfill.data import WindowSpec, compute_norm_stats, extract_windows, normalize_table, synth
from gapfill.model import (
    ImputationWindow,
    NetworkConfig,
    init_model_params,
    iter_params,
    make_schedule,
)
from gapfill.numerics import Rng
from gapfill.optim import (
    AdamState,
    DivergenceError,
    EarlyStopping,
    TrainConfig,
    adam_step,
    evaluate_loss,
    split_validation,
    train,
    write_train_log,
)


def scalar_param(value=0.0):
    return [("theta", np.array([value]))]


class TestAdam:
    def test_zero_gradient_keeps_everything_zero(self):
        params = scalar_param(1.5)
        state = AdamState(params, lr=0.1)
        adam_step(state, params, {"theta": np.array([0.0])})
        assert params[0][1][0] == 1.5
        assert state.m["theta"][0] == 0.0
        assert state.v["theta"][0] == 0.0

    def test_first_step_magnitude_is_lr(self):
        # g = 1 at step 1: both bias-corrected moments are exactly 1
        params = scalar_param(0.0)
        state = AdamState(params, lr=0.1)
        adam_step(state, params, {"theta": np.array([1.0])})
        assert params[0][1][0] == pytest.approx(-0.1, abs=1e-6)

    def test_first_step_direction_is_negative_gradient_sign(self):
        for g in (3.7, -0.004, 12.0):
            params = scalar_param(0.0)
            state = AdamState(params, lr=0.01)
            adam_step(state, params, {"theta": np.array([g])})
            assert np.sign(params[0][1][0]) == -np.sign(g)

    def test_odd_symmetry_at_step_one(self):
        pos = scalar_param(0.0)
        neg = scalar_param(0.0)
        adam_step(AdamState(pos, lr=0.05), pos, {"theta": np.array([2.5])})
        adam_step(AdamState(neg, lr=0.05), neg, {"theta": np.array([-2.5])})
        assert pos[0][1][0] == -neg[0][1][0]

    def test_shape_mismatch_names_parameter(self):
        params = scalar_param()
        state = AdamState(params)
        with pytest.raises(ValueError, match="theta"):
            adam_step(state, params, {"theta": np.zeros(2)})

    def test_non_finite_gradient_names_parameter(self):
        params = scalar_param()
        state = AdamState(params)
        with pytest.raises(ValueError, match="non-finite gradient.*theta"):
            adam_step(state, params, {"theta": np.array([np.nan])})

    def test_missing_gradient_rejected(self):
        params = scalar_param()
        state = AdamState(params)
        with pytest.raises(ValueError, match="missing gradient"):
            adam_step(state, params, {})

    def test_works_on_model_params(self):
        model = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), Rng(0))
        state = AdamState(model, lr=0.1)
        grads = {path: np.ones_like(arr) for path, arr in iter_params(model)}
        before = {path: arr.copy() for path, arr in iter_params(model)}
        adam_step(state, model, grads)
        for path, arr in iter_params(model):
            assert np.allclose(arr, before[path] - 0.1, atol=1e-6)


class TestEarlyStopping:
    def test_stops_after_patience_non_improving_epochs(self):
        model = init_model_params(NetworkConfig(input_dim=1, hidden_dim=1), Rng(0))
        policy = EarlyStopping(patience=3)
        assert not policy.update(1, 1.0, model)
        assert not policy.update(2, 1.2, model)
        assert not policy.update(3, 1.1, model)
        assert policy.update(4, 1.3, model)
        assert policy.best_epoch == 1

    def test_improvement_resets_counter_and_snapshots(self):
        model = init_model_params(NetworkConfig(input_dim=1, hidden_dim=1), Rng(0))
        policy = EarlyStopping(patience=2)
        policy.update(1, 1.0, model)
        policy.update(2, 1.5, model)
        model.head_fw.b[0] = 123.0
        assert not policy.update(3, 0.5, model)
        assert policy.best_epoch == 3
        assert policy.best_params.head_fw.b[0] == 123.0
        model.head_fw.b[0] = -1.0  # snapshot must be a copy
        assert policy.best_params.head_fw.b[0] == 123.0

    def test_min_delta_counts_marginal_gains_as_stagnation(self):
        model = init_model_params(NetworkConfig(input_dim=1, hidden_dim=1), Rng(0))
        policy = EarlyStopping(patience=2, min_delta=0.1)
        policy.update(1, 1.0, model)
        assert not policy.update(2, 0.95, model)
        assert policy.update(3, 0.93, model)
        assert policy.best_epoch == 1


def sine_windows(n=240, seed=0, spec=WindowSpec(4, 3, 4, 1)):
    table = synth("sine", n, noise_std=0.05, seed=seed, period=20.0)
    stats = compute_norm_stats(table)
    return extract_windows(normalize_table(table, stats), spec)


class TestTrain:
    def test_validation_loss_improves_on_sine_task(self):
        windows = sine_windows()
        fit, val = split_validation(windows, 0.1)
        cfg = TrainConfig(lr=5e-3, epochs=6, batch_size=16, seed=0, patience=10)
        params, log = train(NetworkConfig(input_dim=1, hidden_dim=6), fit, val, None, cfg)
        assert log.rows[-1].val_loss < log.rows[0].val_loss
        assert log.best_val_loss <= min(r.val_loss for r in log.rows)

    def test_zero_learning_rate_changes_nothing(self):
        windows = sine_windows(n=60)
        fit, val = split_validation(windows, 0.2)
        net = NetworkConfig(input_dim=1, hidden_dim=3)
        cfg = TrainConfig(lr=0.0, epochs=3, batch_size=8, seed=7)
        params, _ = train(net, fit, val, None, cfg)
        fresh = init_model_params(net, Rng(7))
        for (pa, ta), (pb, tb) in zip(iter_params(params), iter_params(fresh)):
            assert pa == pb
            assert np.array_equal(ta, tb)

    def test_deterministic_given_seed(self):
        windows = sine_windows(n=80)
        fit, val = split_validation(windows, 0.2)
        net = NetworkConfig(input_dim=1, hidden_dim=4)
        cfg = TrainConfig(lr=3e-3, epochs=4, batch_size=8, seed=3)
        a, _ = train(net, fit, val, None, cfg)
        b, _ = train(net, fit, val, None, cfg)
        for (pa, ta), (pb, tb) in zip(iter_params(a), iter_params(b)):
            assert np.array_equal(ta, tb), pa

    def test_returned_params_beat_final_epoch_on_validation(self):
        windows = sine_windows(n=150)
        fit, val = split_validation(windows, 0.15)
        net = NetworkConfig(input_dim=1, hidden_dim=5)
        cfg = TrainConfig(lr=8e-3, epochs=10, batch_size=16, seed=1, patience=3)
        params, log = train(net, fit, val, None, cfg)
        schedule = make_schedule(3, net.schedule_variant)
        returned = evaluate_loss(params, val, schedule)
        assert returned == pytest.approx(log.best_val_loss, rel=1e-9)
        assert returned <= log.rows[-1].val_loss + 1e-12

    def test_divergence_aborts_with_context(self):
        windows = sine_windows(n=60)
        fit, val = split_validation(windows, 0.2)
        cfg = TrainConfig(lr=1e200, epochs=4, batch_size=8, seed=0)
        with pytest.raises(DivergenceError, match="epoch"):
            train(NetworkConfig(input_dim=1, hidden_dim=3), fit, val, None, cfg)

    def test_empty_window_sets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(NetworkConfig(), [], [], None, TrainConfig())

    def test_constant_gap_task_converges_toward_zero(self):
        # identical windows with zero-variance targets: loss should collapse
        base = ImputationWindow(np.full((3, 1), 0.3), np.full((2, 1), 0.3), np.full((3, 1), 0.3))
        windows = [base] * 12
        cfg = TrainConfig(lr=2e-2, epochs=30, batch_size=4, seed=0, patience=30)
        params, log = train(NetworkConfig(input_dim=1, hidden_dim=3), windows, [base], None, cfg)
        assert log.rows[-1].train_loss < 0.02 * log.rows[0].train_loss
        val_losses = [r.val_loss for r in log.rows]
        assert min(val_losses) == log.best_val_loss

    def test_gradient_clipping_logged(self):
        windows = sine_windows(n=60)
        fit, val = split_validation(windows, 0.2)
        cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=0, clip_norm=1e-6)
        _, log = train(NetworkConfig(input_dim=1, hidden_dim=3), fit, val, None, cfg)
        assert log.clip_events > 0


class TestValidationSplit:
    def test_holds_out_trailing_slice(self):
        windows = list(range(20))
        fit, val = split_validation(windows, 0.1)
        assert fit == list(range(18))
        assert val == [18, 19]

    def test_always_leaves_both_sides_non_empty(self):
        fit, val = split_validation([1, 2], 0.9)
        assert len(fit) == 1 and len(val) == 1

    def test_too_few_windows_rejected(self):
        with pytest.raises(ValueError):
            split_validation([1], 0.1)


def test_write_train_log(tmp_path):
    windows = sine_windows(n=60)
    fit, val = split_validation(windows, 0.2)
    cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=0)
    _, log = train(NetworkConfig(input_dim=1, hidden_dim=2), fit, val, None, cfg)
    text, rows = tmp_path / "log.txt", tmp_path / "log.csv"
    write_train_log(log, text, rows)
    assert "epoch" in text.read_text()
    lines = rows.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,elapsed"
    assert len(lines) == 1 + len(log.rows)
    parsed = list(csv.reader(lines[1:]))
    assert [[int(r[0]), float(r[1]), float(r[2])] for r in parsed] == [
        [row.epoch, row.train_loss, row.val_loss] for row in log.rows]
    assert rows.read_bytes().count(b"\r") == 0
