import csv
import dataclasses
import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import gapfill.model
import gapfill.optim
from gapfill.data import WindowSpec, compute_norm_stats, extract_windows, normalize_table, synth
from gapfill.model import (
    ImputationWindow,
    NetworkConfig,
    init_model_params,
    iter_params,
    make_schedule,
    n_params,
    params_from_flat,
)
from gapfill.numerics import Rng, ShapeError

from _reference import adam_step_expression
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


def tiny_params(value=0.0):
    """A one-unit network whose every parameter is `value`."""
    cfg = NetworkConfig(input_dim=1, hidden_dim=1)
    return params_from_flat(cfg, np.full(n_params(cfg), value))


def grads_for(params, values):
    """A gradient for `params`: `values` broadcast over its arena."""
    return params_from_flat(params.config, np.broadcast_to(values, params.flat.shape).copy())


class TestAdam:
    def test_zero_gradient_keeps_everything_zero(self):
        params = tiny_params(1.5)
        state = AdamState(params, TrainConfig(lr=0.1))
        adam_step(state, params, grads_for(params, 0.0))
        assert np.all(params.flat == 1.5)
        assert not state.m.any() and not state.v.any()

    def test_first_step_magnitude_is_lr(self):
        # g = 1 at step 1: both bias-corrected moments are exactly 1
        params = tiny_params(0.0)
        state = AdamState(params, TrainConfig(lr=0.1))
        adam_step(state, params, grads_for(params, 1.0))
        assert np.allclose(params.flat, -0.1, rtol=0, atol=1e-6)

    def test_first_step_direction_is_negative_gradient_sign(self):
        params = tiny_params(0.0)
        g = np.resize([3.7, -0.004, 12.0, -5.0], params.flat.shape)
        adam_step(AdamState(params, TrainConfig(lr=0.01)), params, grads_for(params, g))
        assert np.array_equal(np.sign(params.flat), -np.sign(g))

    def test_odd_symmetry_at_step_one(self):
        pos, neg = tiny_params(0.0), tiny_params(0.0)
        g = np.linspace(-2.5, 4.0, pos.flat.size)
        adam_step(AdamState(pos, TrainConfig(lr=0.05)), pos, grads_for(pos, g))
        adam_step(AdamState(neg, TrainConfig(lr=0.05)), neg, grads_for(neg, -g))
        assert np.array_equal(pos.flat, -neg.flat)

    @pytest.mark.parametrize("seed, hidden_dim", [(0, 5), (1, 48), (2, 64)])
    def test_matches_the_expression_form_byte_for_byte(self, seed, hidden_dim):
        # hidden 48 and 64 span several update blocks, the last one partial
        rng = np.random.default_rng(seed)
        cfg = NetworkConfig(input_dim=2, hidden_dim=hidden_dim, merge_hidden=3)
        params = init_model_params(cfg, Rng(seed))
        theta = params.flat.copy()
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        hyper = dict(lr=10.0 ** -(1 + seed), b1=0.9 - 0.1 * seed, b2=0.999, eps=1e-8)
        state = AdamState(params, TrainConfig(lr=hyper["lr"], beta1=hyper["b1"],
                                              beta2=hyper["b2"], eps=hyper["eps"]))
        for t in range(1, 8):
            g = rng.normal(size=theta.shape) * 10.0 ** rng.uniform(-6, 2)
            adam_step(state, params, grads_for(params, g))
            adam_step_expression(m, v, theta, g, t, **hyper)
            assert params.flat.tobytes() == theta.tobytes(), t
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes(), t

    def test_arena_length_mismatch_rejected(self):
        params = tiny_params()
        other = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), Rng(0))
        with pytest.raises(ValueError, match="gradient has"):
            adam_step(AdamState(params, TrainConfig()), params, grads_for(other, 1.0))

    def test_non_finite_gradient_names_parameter(self):
        params = tiny_params(0.5)
        state = AdamState(params, TrainConfig())
        grads = grads_for(params, 1.0)
        # enc_bw.w precedes enc_fw.b in the arena but follows it in iter_params order
        grads.lstm_w[1, 0, 0] = np.inf
        grads.lstm_b[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"non-finite gradient.*enc_fw\.b$"):
            adam_step(state, params, grads)
        assert np.all(params.flat == 0.5) and state.step_count == 0

    def test_works_on_model_params(self):
        model = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), Rng(0))
        state = AdamState(model, TrainConfig(lr=0.1))
        before = {path: arr.copy() for path, arr in iter_params(model)}
        adam_step(state, model, grads_for(model, 1.0))
        for path, arr in iter_params(model):
            assert np.allclose(arr, before[path] - 0.1, atol=1e-6)


class TestEarlyStopping:
    def test_stops_after_patience_non_improving_epochs(self):
        model = init_model_params(NetworkConfig(input_dim=1, hidden_dim=1), Rng(0))
        policy = EarlyStopping(TrainConfig(patience=3))
        assert not policy.update(1, 1.0, model)
        assert not policy.update(2, 1.2, model)
        assert not policy.update(3, 1.1, model)
        assert policy.update(4, 1.3, model)
        assert policy.best_epoch == 1

    def test_improvement_resets_counter_and_snapshots(self):
        model = init_model_params(NetworkConfig(input_dim=1, hidden_dim=1), Rng(0))
        policy = EarlyStopping(TrainConfig(patience=2))
        policy.update(1, 1.0, model)
        policy.update(2, 1.5, model)
        model.head_b[0, 0] = 123.0
        assert not policy.update(3, 0.5, model)
        assert policy.best_epoch == 3
        assert policy.best_params.head_b[0, 0] == 123.0
        model.head_b[0, 0] = -1.0  # snapshot must be a copy
        assert policy.best_params.head_b[0, 0] == 123.0

    def test_min_delta_counts_marginal_gains_as_stagnation(self):
        model = init_model_params(NetworkConfig(input_dim=1, hidden_dim=1), Rng(0))
        policy = EarlyStopping(TrainConfig(patience=2, min_delta=0.1))
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
        (params, log), = train((NetworkConfig(input_dim=1, hidden_dim=6),), fit, val, cfg)
        assert log.rows[-1].val_loss < log.rows[0].val_loss
        assert log.best_val_loss <= min(r.val_loss for r in log.rows)

    def test_zero_learning_rate_changes_nothing(self):
        windows = sine_windows(n=60)
        fit, val = split_validation(windows, 0.2)
        net = NetworkConfig(input_dim=1, hidden_dim=3)
        cfg = TrainConfig(lr=0.0, epochs=3, batch_size=8, seed=7)
        (params, _), = train((net,), fit, val, cfg)
        fresh = init_model_params(net, Rng(7))
        for (pa, ta), (pb, tb) in zip(iter_params(params), iter_params(fresh)):
            assert pa == pb
            assert np.array_equal(ta, tb)

    def test_deterministic_given_seed(self):
        windows = sine_windows(n=80)
        fit, val = split_validation(windows, 0.2)
        net = NetworkConfig(input_dim=1, hidden_dim=4)
        cfg = TrainConfig(lr=3e-3, epochs=4, batch_size=8, seed=3)
        (a, _), = train((net,), fit, val, cfg)
        (b, _), = train((net,), fit, val, cfg)
        for (pa, ta), (pb, tb) in zip(iter_params(a), iter_params(b)):
            assert np.array_equal(ta, tb), pa

    def test_returned_params_beat_final_epoch_on_validation(self):
        windows = sine_windows(n=150)
        fit, val = split_validation(windows, 0.15)
        net = NetworkConfig(input_dim=1, hidden_dim=5)
        cfg = TrainConfig(lr=8e-3, epochs=10, batch_size=16, seed=1, patience=3)
        (params, log), = train((net,), fit, val, cfg)
        schedule = make_schedule(3, net.schedule_variant)
        returned = evaluate_loss(params, val, schedule)
        assert returned == pytest.approx(log.best_val_loss, rel=1e-9)
        assert returned <= log.rows[-1].val_loss + 1e-12

    def test_divergence_aborts_with_context(self):
        windows = sine_windows(n=60)
        fit, val = split_validation(windows, 0.2)
        cfg = TrainConfig(lr=1e200, epochs=4, batch_size=8, seed=0)
        outcome, = train((NetworkConfig(input_dim=1, hidden_dim=3),), fit, val, cfg)
        with pytest.raises(DivergenceError, match="epoch"):
            raise outcome

    @pytest.mark.filterwarnings("error")
    def test_divergence_in_the_float32_copy_raises_no_warning(self):
        # the first update moves the master weights by ~1e200, past float32's range
        windows = sine_windows(n=60)
        fit, val = split_validation(windows, 0.2)
        cfg = TrainConfig(lr=1e200, epochs=4, batch_size=8, seed=0)
        outcome, = train((NetworkConfig(input_dim=1, hidden_dim=3),), fit, val, cfg)
        with pytest.raises(DivergenceError, match="epoch 1, batch 1") as info:
            raise outcome
        assert (info.value.epoch, info.value.batch) == (1, 1)

    def test_a_batch_runs_every_step_in_float32_and_validation_in_float64(self, monkeypatch):
        dtypes = {"batch": set(), "validation": set()}
        phase = ["validation"]
        step, step_backward = gapfill.model.lstm_step, gapfill.model.lstm_step_backward
        batch_pass = gapfill.optim.loss_and_grads

        def in_batch(*args):
            phase[0] = "batch"
            try:
                return batch_pass(*args)
            finally:
                phase[0] = "validation"

        def seen(*arrays):
            dtypes[phase[0]].update(a.dtype for a in arrays)

        def traced_step(p, x, s):
            new, tape = step(p, x, s)
            seen(p.w, p.b, x, s.h, s.c, new.h, new.c, *vars(tape).values())
            return new, tape

        def traced_step_backward(p, tape, dh, dc, acc):
            out = step_backward(p, tape, dh, dc, acc)
            seen(p.w, p.b, dh, dc, acc.w, acc.b, *vars(tape).values(), *out)
            return out

        monkeypatch.setattr(gapfill.optim, "loss_and_grads", in_batch)
        monkeypatch.setattr(gapfill.model, "lstm_step", traced_step)
        monkeypatch.setattr(gapfill.model, "lstm_step_backward", traced_step_backward)
        rng = Rng(5)
        # contexts of mixed lengths, so encoder rows join late and some steps are partial
        windows = [ImputationWindow(rng.normal_array((lb, 2)), rng.normal_array((3, 2)),
                                    rng.normal_array((la, 2)))
                   for lb, la in [(2, 5), (4, 1), (3, 3)]]
        net = NetworkConfig(input_dim=2, hidden_dim=4, merge_hidden=3)
        train((net,), windows, windows[:2], TrainConfig(epochs=1, batch_size=8, seed=2))
        assert dtypes == {"batch": {np.dtype(np.float32)}, "validation": {np.dtype(np.float64)}}

    def test_empty_window_sets_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train((NetworkConfig(),), [], [], TrainConfig())

    def test_constant_gap_task_converges_toward_zero(self):
        # identical windows with zero-variance targets: loss should collapse
        base = ImputationWindow(np.full((3, 1), 0.3), np.full((2, 1), 0.3), np.full((3, 1), 0.3))
        windows = [base] * 12
        cfg = TrainConfig(lr=2e-2, epochs=30, batch_size=4, seed=0, patience=30)
        (params, log), = train((NetworkConfig(input_dim=1, hidden_dim=3),), windows, [base], cfg)
        assert log.rows[-1].train_loss < 0.02 * log.rows[0].train_loss
        val_losses = [r.val_loss for r in log.rows]
        assert min(val_losses) == log.best_val_loss

    def test_gradient_clipping_logged(self):
        windows = sine_windows(n=60)
        fit, val = split_validation(windows, 0.2)
        cfg = TrainConfig(lr=1e-3, epochs=2, batch_size=8, seed=0, clip_norm=1e-6)
        (_, log), = train((NetworkConfig(input_dim=1, hidden_dim=3),), fit, val, cfg)
        assert log.clip_events > 0

    @staticmethod
    def _digests_by_blas_thread_count(script: str) -> set[str]:
        """What `script` prints when run with BLAS on one thread and on two."""
        here = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here])
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=300, check=False)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        return digests

    def test_clipped_training_ignores_the_blas_thread_count(self):
        # at h=64 the gradient has ~68k floats, where a threaded BLAS dot
        # would split the clip norm's sum by thread
        script = (
            "import hashlib\n"
            "from gapfill.model import NetworkConfig\n"
            "from gapfill.optim import TrainConfig, split_validation, train\n"
            "from test_optim import sine_windows\n"
            "fit, val = split_validation(sine_windows(n=120), 0.2)\n"
            "cfg = TrainConfig(epochs=1, batch_size=8, seed=0, clip_norm=1e-3)\n"
            "(params, log), = train((NetworkConfig(hidden_dim=64),), fit, val, cfg)\n"
            "assert log.clip_events > 0\n"
            "print(hashlib.sha256(params.flat.tobytes()).hexdigest())\n")
        assert len(self._digests_by_blas_thread_count(script)) == 1

    def test_float32_checkpoints_repeat_and_ignore_the_blas_thread_count(self, tmp_path):
        # h=64 without clipping: each batch's float32 sgemm calls are the
        # only BLAS work; two trainings in one process must write the same bytes
        script = (
            "import hashlib\n"
            "import pathlib\n"
            "import numpy as np\n"
            "from gapfill.checkpoint import save_checkpoint\n"
            "from gapfill.data import NormStats\n"
            "from gapfill.model import NetworkConfig\n"
            "from gapfill.optim import TrainConfig, split_validation, train\n"
            "from test_optim import sine_windows\n"
            "fit, val = split_validation(sine_windows(n=120), 0.2)\n"
            "cfg = TrainConfig(epochs=2, batch_size=8, seed=0)\n"
            "stats = NormStats(np.zeros(1), np.ones(1))\n"
            "files = []\n"
            "for k in range(2):\n"
            f"    path = pathlib.Path({str(tmp_path)!r}) / f'{{k}}.ckpt'\n"
            "    save_checkpoint(path, train((NetworkConfig(hidden_dim=64),), fit, val, cfg)[0][0],\n"
            "                    stats)\n"
            "    files.append(path.read_bytes())\n"
            "assert files[0] == files[1]\n"
            "print(hashlib.sha256(files[0]).hexdigest())\n")
        assert len(self._digests_by_blas_thread_count(script)) == 1

    def test_clip_that_never_fires_changes_no_bit(self):
        windows = sine_windows(n=80)
        fit, val = split_validation(windows, 0.2)
        net = NetworkConfig(input_dim=1, hidden_dim=4)
        cfg = TrainConfig(lr=3e-3, epochs=3, batch_size=8, seed=3)
        (plain, _), = train((net,), fit, val, cfg)
        (clipped, log), = train((net,), fit, val, dataclasses.replace(cfg, clip_norm=1e6))
        assert log.clip_events == 0
        assert clipped.flat.tobytes() == plain.flat.tobytes()


KINDS = {"full": NetworkConfig(hidden_dim=3),
         "noscale": NetworkConfig(hidden_dim=3, schedule_variant="constant"),
         "forward_only": NetworkConfig(hidden_dim=3, forward_only=True)}
SUBSETS = [kinds for r in (1, 2, 3) for kinds in itertools.combinations(KINDS, r)]
# patience 1 stops the three networks at epochs 7, 9 and 6 on these windows
STOPPING = TrainConfig(lr=4e-2, epochs=12, batch_size=8, seed=3, patience=1)


def log_rows(log):
    return [(r.epoch, r.train_loss, r.val_loss) for r in log.rows]


def assert_same_training(got, want):
    (params, log), (alone, alone_log) = got, want
    assert params.flat.tobytes() == alone.flat.tobytes()
    assert log_rows(log) == log_rows(alone_log)
    assert ((log.best_epoch, log.best_val_loss, log.stopped_early, log.clip_events)
            == (alone_log.best_epoch, alone_log.best_val_loss, alone_log.stopped_early,
                alone_log.clip_events))


class TestStackedTraining:
    @pytest.mark.parametrize("clip_norm", [0.0, 0.05])
    @pytest.mark.parametrize("kinds", SUBSETS, ids="+".join)
    def test_each_network_trains_as_it_trains_alone(self, kinds, clip_norm):
        fit, val = split_validation(sine_windows(n=160), 0.2)
        cfg = dataclasses.replace(STOPPING, clip_norm=clip_norm)
        stacked = train([KINDS[k] for k in kinds], fit, val, cfg)
        assert len(stacked) == len(kinds)
        for kind, outcome in zip(kinds, stacked):
            (alone,) = train((KINDS[kind],), fit, val, cfg)
            assert_same_training(outcome, alone)
        if len(kinds) == 3 and not clip_norm:
            assert len({len(log.rows) for _, log in stacked}) == 3  # three different stops

    @pytest.mark.parametrize("what", ["training loss", "gradient for parameter head_fw.b"])
    def test_a_diverged_network_leaves_the_stack_alone(self, monkeypatch, what):
        fit, val = split_validation(sine_windows(n=160), 0.2)
        kinds = ("full", "forward_only", "noscale")
        alone = [train((KINDS[k],), fit, val, STOPPING)[0] for k in kinds]
        real = gapfill.optim.loss_and_grads
        calls = []
        per_epoch = -(-len(fit) // STOPPING.batch_size)
        at = per_epoch + 5  # epoch 2, batch 4

        def forward_only_diverges(stack, windows, schedules):
            values, grads = real(stack, windows, schedules)
            calls.append(len(stack.nets))
            if len(calls) == at:
                row = [p.config.forward_only for p in stack.nets].index(True)
                if what == "training loss":
                    values[row] = float("nan")
                else:
                    grads.nets[row].head_b[0, 0] = np.inf
            return values, grads

        monkeypatch.setattr(gapfill.optim, "loss_and_grads", forward_only_diverges)
        full, diverged, noscale = train([KINDS[k] for k in kinds], fit, val, STOPPING)
        assert isinstance(diverged, DivergenceError)
        assert str(diverged) == f"non-finite {what} at epoch 2, batch 4"
        assert (diverged.epoch, diverged.batch) == (2, 4)
        assert calls[at - 1:at + 1] == [3, 2]  # it left the stack at once
        assert_same_training(full, alone[0])
        assert_same_training(noscale, alone[2])

    def test_networks_of_two_layouts_are_rejected(self):
        fit, val = split_validation(sine_windows(n=60), 0.2)
        with pytest.raises(ShapeError, match="one arena layout"):
            train([KINDS["full"], NetworkConfig(hidden_dim=4)], fit, val, STOPPING)
        with pytest.raises(ValueError, match="no networks"):
            train([], fit, val, STOPPING)


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
    (_, log), = train((NetworkConfig(input_dim=1, hidden_dim=2),), fit, val, cfg)
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
