import copy
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gapfill.model import (
    SCHEDULE_VARIANTS,
    ImputationWindow,
    NetworkConfig,
    ScalingSchedule,
    forward,
    gradient_check,
    impute,
    init_model_params,
    iter_params,
    loss,
    loss_and_grads,
    make_schedule,
    merge_input_grads,
    n_params,
    params_from_flat,
)
from gapfill.model import _arena_params
from gapfill.numerics import Rng, ShapeError
from gapfill.optim import AdamState, TrainConfig, adam_step

from _reference import (
    init_params_scalar,
    mse,
    network_forward_scalar,
    v1_tensors,
    window_forward,
    window_loss_and_grads,
)


def zero_model(input_dim=1, hidden_dim=2, merge_bias=None):
    cfg = NetworkConfig(input_dim=input_dim, hidden_dim=hidden_dim)
    params = params_from_flat(cfg, np.zeros(n_params(cfg)))
    if merge_bias is not None:
        params.merge[0].b[...] = merge_bias
    return params


def random_window(rng, d, before_len, gap_len, after_len):
    return ImputationWindow(
        rng.normal_array((before_len, d)),
        rng.normal_array((gap_len, d)),
        rng.normal_array((after_len, d)),
    )


class TestSchedule:
    def test_linear_t4(self):
        s = make_schedule(4, "linear")
        assert np.array_equal(s.gamma, [0.75, 0.5, 0.25, 0.0])

    def test_endpoint_t4(self):
        s = make_schedule(4, "endpoint")
        assert np.allclose(s.gamma, [1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0], atol=0, rtol=1e-15)
        assert s.gamma[0] == 1.0 and s.gamma[-1] == 0.0

    def test_gap_of_one_is_balanced(self):
        for variant in SCHEDULE_VARIANTS:
            s = make_schedule(1, variant)
            assert np.array_equal(s.gamma, [0.5])
            assert np.array_equal(s.gamma_prime, [0.5])

    def test_constant_variant(self):
        s = make_schedule(5, "constant")
        assert np.array_equal(s.gamma, np.full(5, 0.5))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(3, "quadratic")

    @pytest.mark.parametrize("variant", SCHEDULE_VARIANTS)
    @pytest.mark.parametrize("gap_len", [1, 2, 3, 7, 50])
    def test_invariants(self, variant, gap_len):
        s = make_schedule(gap_len, variant)
        assert np.all(np.abs(s.gamma + s.gamma_prime - 1.0) <= 1e-15)
        assert np.all(np.diff(s.gamma) <= 0.0)
        assert np.all(np.diff(s.gamma_prime) >= 0.0)
        assert np.all((s.gamma >= 0.0) & (s.gamma <= 1.0))

    def test_linear_endpoints_exact(self):
        for gap_len in range(2, 60):
            s = make_schedule(gap_len, "linear")
            assert s.gamma[0] == 1.0 - 1.0 / gap_len
            assert s.gamma[-1] == 0.0


class TestForward:
    def test_zero_params_emit_merge_bias(self):
        params = zero_model(input_dim=2, merge_bias=[3.5, -1.25])
        window = ImputationWindow(np.ones((3, 2)), np.zeros((4, 2)), np.ones((2, 2)))
        trace = forward(params, [window], make_schedule(4))
        for xhat in trace.merged[0]:
            assert np.array_equal(xhat, [3.5, -1.25])

    def test_linear_gap2_silences_forward_stream_at_the_end(self):
        # hidden 1, unit merge weights, zero bias: merged = g*h_fw + g'*h_bw.
        # With the linear schedule at gap length 2, gamma = [0.5, 0], so the
        # second position depends on the backward stream only.
        rng = Rng(0)
        cfg = NetworkConfig(input_dim=1, hidden_dim=1)
        params = init_model_params(cfg, rng)
        params.merge[0].w[...] = 1.0
        params.merge[0].b[...] = 0.0
        window = random_window(rng, 1, 3, 2, 3)
        schedule = make_schedule(2, "linear")
        assert np.array_equal(schedule.gamma, [0.5, 0.0])
        trace = forward(params, [window], schedule)
        h_fw, h_bw, merged = trace.h_fw[0], trace.h_bw[0], trace.merged[0]
        h_fw2 = h_fw[1][0]
        h_bw2 = h_bw[1][0]
        assert merged[1][0] == pytest.approx(h_bw2, abs=1e-15)
        assert merged[0][0] == pytest.approx(0.5 * h_fw[0][0] + 0.5 * h_bw[0][0], abs=1e-15)
        assert h_fw2 != 0.0  # the forward stream was alive, just silenced

    def test_matches_scalar_reference(self):
        rng = Rng(0)
        cfg = NetworkConfig(input_dim=1, hidden_dim=2)
        params = init_model_params(cfg, rng)
        window = random_window(rng, 1, 3, 3, 3)
        schedule = make_schedule(3, "linear")
        trace = forward(params, [window], schedule)
        merged, pred_fw, pred_bw = network_forward_scalar(
            params,
            [list(r) for r in window.before],
            3,
            [list(r) for r in window.after],
            list(schedule.gamma),
            list(schedule.gamma_prime),
        )
        for t in range(3):
            assert np.allclose(trace.merged[0, t], merged[t], atol=1e-12, rtol=0)
            assert np.allclose(trace.pred_fw[0, t], pred_fw[t], atol=1e-12, rtol=0)
            assert np.allclose(trace.pred_bw[0, t], pred_bw[t], atol=1e-12, rtol=0)

    def test_matches_scalar_reference_multivariate(self):
        rng = Rng(5)
        cfg = NetworkConfig(input_dim=2, hidden_dim=3)
        params = init_model_params(cfg, rng)
        window = random_window(rng, 2, 4, 2, 4)
        schedule = make_schedule(2, "endpoint")
        trace = forward(params, [window], schedule)
        merged, _, _ = network_forward_scalar(
            params, [list(r) for r in window.before], 2,
            [list(r) for r in window.after],
            list(schedule.gamma), list(schedule.gamma_prime))
        for t in range(2):
            assert np.allclose(trace.merged[0, t], merged[t], atol=1e-12, rtol=0)

    def test_rejects_empty_context(self):
        params = zero_model()
        with pytest.raises(ShapeError):
            forward(params, [ImputationWindow(np.zeros((0, 1)), np.zeros((2, 1)), np.ones((2, 1)))],
                    make_schedule(2))

    def test_rejects_gap_mismatch(self):
        params = zero_model()
        with pytest.raises(ShapeError):
            forward(params, [ImputationWindow(np.ones((2, 1)), np.zeros((3, 1)), np.ones((2, 1)))],
                    make_schedule(2))

    def test_forward_only_has_no_backward_stream(self):
        rng = Rng(1)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2, forward_only=True), rng)
        trace = forward(params, [random_window(rng, 1, 3, 2, 3)], make_schedule(2))
        assert trace.pred_bw is None and trace.h_bw is None
        for t in range(2):
            assert np.array_equal(trace.merged[0, t], trace.pred_fw[0, t])


class TestLoss:
    def test_zero_when_exact(self):
        params = zero_model(merge_bias=[0.0])
        window = ImputationWindow(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)))
        trace = forward(params, [window], make_schedule(2))
        assert loss(trace, [window.missing])[0] == 0.0

    def test_single_position_worked_example(self):
        # truth 0, merged 1, forward 2, backward 3 -> 1 + 4 + 9
        trace_like = forward(zero_model(merge_bias=[1.0]),
                             [ImputationWindow(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))],
                             make_schedule(1))
        trace_like.pred_fw[0, 0] = np.array([2.0])
        trace_like.pred_bw[0, 0] = np.array([3.0])
        assert loss(trace_like, [np.array([[0.0]])])[0] == 14.0

    def test_quadratic_homogeneity(self):
        rng = Rng(6)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        window = random_window(rng, 1, 3, 2, 3)
        schedule = make_schedule(2)
        trace = forward(params, [window], schedule)
        base = loss(trace, [window.missing])[0]
        # doubling every residual quadruples the loss
        scaled = forward(params, [window], schedule)
        for t in range(2):
            scaled.merged[0, t] = window.missing[t] + 2 * (trace.merged[0, t] - window.missing[t])
            scaled.pred_fw[0, t] = window.missing[t] + 2 * (trace.pred_fw[0, t] - window.missing[t])
            scaled.pred_bw[0, t] = window.missing[t] + 2 * (trace.pred_bw[0, t] - window.missing[t])
        assert loss(scaled, [window.missing])[0] == pytest.approx(4 * base, rel=1e-12)

    def test_decomposes_into_three_mse_curves(self):
        rng = Rng(7)
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3), rng)
        window = random_window(rng, 2, 3, 3, 3)
        schedule = make_schedule(3)
        trace = forward(params, [window], schedule)
        total = loss(trace, [window.missing])[0]
        parts = 0.0
        for t in range(3):
            parts += mse(window.missing[t], trace.merged[0, t])
            parts += mse(window.missing[t], trace.pred_fw[0, t])
            parts += mse(window.missing[t], trace.pred_bw[0, t])
        assert total == pytest.approx(parts / 3, rel=1e-15)

    def test_rejects_wrong_truth_length(self):
        params = zero_model()
        window = ImputationWindow(np.ones((2, 1)), np.zeros((2, 1)), np.ones((2, 1)))
        trace = forward(params, [window], make_schedule(2))
        with pytest.raises(ShapeError):
            loss(trace, [np.zeros((3, 1))])


class TestBackward:
    def test_zero_residuals_give_zero_gradient(self):
        params = zero_model(merge_bias=[0.0])
        window = ImputationWindow(np.zeros((3, 1)), np.zeros((2, 1)), np.zeros((3, 1)))
        _, grads = loss_and_grads(params, [window], make_schedule(2))
        assert np.array_equal(grads.flat, np.zeros_like(grads.flat))

    def test_matches_finite_differences(self):
        report = gradient_check(n_instances=6, seed=123)
        assert report.passed, f"max rel err {report.max_rel_err:.2e} at {report.worst_path}"

    def test_default_report_includes_forward_only_networks(self):
        report = gradient_check()
        assert report.passed, f"max rel err {report.max_rel_err:.2e} at {report.worst_path}"
        assert any(inst.forward_only for inst in report.instances)

    def test_corruption_hook_detected(self):
        report = gradient_check(n_instances=3, seed=123, _corrupt_path="head_fw.w")
        assert not report.passed
        assert report.worst_path == "head_fw.w"

    def test_zero_weight_silences_merge_path_gradient(self):
        rng = Rng(11)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=3), rng)
        window = random_window(rng, 1, 3, 3, 3)
        gamma = np.array([0.9, 0.0, 0.4])
        schedule = ScalingSchedule(3, gamma, 1.0 - gamma, "linear")
        trace = forward(params, [window], schedule)
        (dh_fw,), (dh_bw,) = merge_input_grads(params, trace, schedule, [window.missing])
        assert np.array_equal(dh_fw[1], np.zeros(3))
        assert not np.array_equal(dh_fw[0], np.zeros(3))
        assert not np.array_equal(dh_bw[1], np.zeros(3))

    @pytest.mark.parametrize("c", [0.0, 2.0])
    def test_merge_path_gradient_scales_linearly(self, c):
        rng = Rng(0)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=3), rng)
        window = random_window(rng, 1, 3, 3, 3)
        schedule = make_schedule(3, "linear")
        trace = forward(params, [window], schedule)
        (base_fw,), (base_bw,) = merge_input_grads(params, trace, schedule, [window.missing])
        t_mod = 1
        gamma = schedule.gamma.copy()
        gamma[t_mod] *= c
        modified = ScalingSchedule(3, gamma, schedule.gamma_prime.copy(), "linear")
        (mod_fw,), (mod_bw,) = merge_input_grads(params, trace, modified, [window.missing])
        assert np.allclose(mod_fw[t_mod], c * base_fw[t_mod], atol=1e-12, rtol=0)
        for t in (0, 2):
            assert np.array_equal(mod_fw[t], base_fw[t])
            assert np.array_equal(mod_bw[t], base_bw[t])

    def test_stream_isolation(self):
        # gamma' pinned to zero and the merge blind to the backward half:
        # the merged output reduces to a forward-only readout, and no
        # gradient of the merged term enters the backward stream.
        rng = Rng(13)
        h = 3
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=h), rng)
        params.merge[0].w[:, h:] = 0.0
        window = random_window(rng, 1, 3, 3, 3)
        schedule = ScalingSchedule(3, np.ones(3), np.zeros(3), "linear")
        trace = forward(params, [window], schedule)
        for t in range(3):
            manual = params.merge[0].w[:, :h] @ trace.h_fw[0, t] + params.merge[0].b
            assert np.allclose(trace.merged[0, t], manual, atol=0, rtol=0)
        dh_fw, dh_bw = merge_input_grads(params, trace, schedule, [window.missing])
        assert np.array_equal(dh_bw, np.zeros_like(dh_bw))
        assert dh_fw.any()

    def test_loss_value_matches_loss_function(self):
        rng = Rng(17)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        window = random_window(rng, 1, 3, 2, 3)
        schedule = make_schedule(2)
        value, _ = loss_and_grads(params, [window], schedule)
        assert value == pytest.approx(loss(forward(params, [window], schedule),
                                           [window.missing])[0], rel=1e-15)


class TestImpute:
    def test_equals_forward_merged(self):
        rng = Rng(19)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        window = random_window(rng, 1, 3, 4, 3)
        out, = impute(params, [window.before], [window.after], [4])
        trace = forward(params, [window], make_schedule(4, "linear"))
        assert np.array_equal(out, trace.merged[0])

    def test_deterministic(self):
        rng = Rng(23)
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3), rng)
        before, after = rng.normal_array((3, 2)), rng.normal_array((3, 2))
        a, = impute(params, [before], [after], [2])
        b, = impute(params, [before], [after], [2])
        assert np.array_equal(a, b)

    def test_all_gaps_run_as_one_batch_of_live_rows(self, monkeypatch):
        import gapfill.model as model_module

        rng = Rng(29)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        lengths = [64, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 7, 1]
        before = [rng.normal_array((1 + t // 2, 1)) for t in lengths]
        after = [rng.normal_array((t + 3, 1)) for t in lengths]
        forwards, steps = [], []
        real_forward, real_step = model_module.forward, model_module.lstm_step
        monkeypatch.setattr(model_module, "forward",
                            lambda *args: forwards.append(args) or real_forward(*args))
        monkeypatch.setattr(model_module, "lstm_step",
                            lambda *args: steps.append(args) or real_step(*args))
        filled = impute(params, before, after, lengths)
        assert len(forwards) == 1
        # both streams step together: the longest context span, then the longest gap
        span = max(max(len(b), len(a)) for b, a in zip(before, after))
        assert len(steps) == span + max(lengths)
        assert [len(f) for f in filled] == lengths
        assert impute(params, [], [], []) == [] and len(forwards) == 1
        for f, b, a, t in zip(filled, before, after, lengths):
            assert np.allclose(f, impute(params, [b], [a], [t])[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("context", [None, 4], ids=["context=gap", "context=4"])
    def test_every_step_runs_only_the_rows_it_needs(self, monkeypatch, context):
        import gapfill.model as model_module

        rng = Rng(31)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        lengths = [3, 1, 9, 4, 1, 6, 2, 9, 5]
        contexts = [context or t for t in lengths]
        before = [rng.normal_array((c, 1)) for c in contexts]
        after = [rng.normal_array((c, 1)) for c in contexts]
        rows = []
        real_step = model_module.lstm_step
        monkeypatch.setattr(model_module, "lstm_step",
                            lambda cell, x, state: rows.append(x.shape[1])
                            or real_step(cell, x, state))
        impute(params, before, after, lengths)
        # contexts are right-aligned: a window's first real step is L - its context
        L = max(contexts)
        begun = [sum(L - c <= t for c in contexts) for t in range(L)]
        open_gaps = [sum(T > t for T in lengths) for t in range(max(lengths))]
        assert rows == begun + open_gaps


class TestReadme:
    def test_model_api_block_runs(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        block = next(b for b in re.findall(r"```python\n(.*?)```", text, re.S)
                     if "loss_and_grads" in b)
        rng = Rng(53)
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3), rng)
        windows = [random_window(rng, 2, 4, 3, 2) for _ in range(3)]
        mixed = [random_window(rng, 2, 1 + k, 3 - k, 2 + k) for k in range(3)]
        names = {"params": params, "windows": windows, "mixed": mixed, "gap_len": 3}
        exec(block, names)
        assert names["per_window"].shape == (3,)
        assert set(names["by_path"]) == {path for path, _ in iter_params(params)}
        assert [len(f) for f in names["filled"]] == [3, 2, 1]


class TestParamPlumbing:
    def test_iter_params_order_is_stable(self):
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), Rng(0))
        paths = [p for p, _ in iter_params(params)]
        assert paths[:3] == ["enc_fw.w", "enc_fw.b", "enc_bw.w"]
        assert paths[-1] == "merge.0.b"
        assert len(paths) == 4 * 2 + 4 + 2
        assert paths == [p for p, _ in iter_params(params)]

    def test_same_seed_same_init(self):
        cfg = NetworkConfig(input_dim=2, hidden_dim=3)
        a = init_model_params(cfg, Rng(42))
        b = init_model_params(cfg, Rng(42))
        for (pa, ta), (pb, tb) in zip(iter_params(a), iter_params(b)):
            assert pa == pb
            assert np.array_equal(ta, tb)

    @pytest.mark.parametrize("hidden_dim", [1, 16, 64, 256])
    @pytest.mark.parametrize("merge_hidden", [0, 3])
    @pytest.mark.parametrize("input_dim", [1, 2])
    def test_init_matches_the_scalar_stream_oracle(self, input_dim, hidden_dim, merge_hidden):
        cfg = NetworkConfig(input_dim=input_dim, hidden_dim=hidden_dim, merge_hidden=merge_hidden)
        seed = 1000 * input_dim + hidden_dim + merge_hidden
        expected = init_params_scalar(seed, input_dim, hidden_dim, merge_hidden)
        # read through the oracle's own slicing, so that a wrong file order
        # cannot cancel out between init and save
        got = v1_tensors(init_model_params(cfg, Rng(seed)))
        assert list(got) == list(expected)
        for path, tensor in got.items():
            shape, values = expected[path]
            assert tensor.shape == shape, path
            assert tensor.tobytes() == np.array(values, dtype=np.float64).tobytes(), path

    @pytest.mark.parametrize("merge_hidden", [0, 3])
    def test_every_tensor_is_a_view_of_one_vector(self, merge_hidden):
        cfg = NetworkConfig(input_dim=2, hidden_dim=3, merge_hidden=merge_hidden)
        params = init_model_params(cfg, Rng(3))
        _, grads = loss_and_grads(params, [random_window(Rng(4), 2, 3, 2, 3)], make_schedule(2))
        adam = AdamState(params, TrainConfig())
        assert adam.m.shape == adam.v.shape == params.flat.shape == (n_params(cfg),)
        for p in (params, grads):
            assert p.flat.shape == (n_params(cfg),)
            assert all(np.shares_memory(p.flat, t) for _, t in iter_params(p))
            # the tensors tile the vector: each element is in exactly one of them
            p.flat[:] = np.arange(n_params(cfg))
            got = np.concatenate([t.ravel() for _, t in iter_params(p)])
            assert np.array_equal(np.sort(got), np.arange(n_params(cfg)))

    def test_cells_are_one_stacked_array_in_stream_order(self):
        d, h = 2, 3
        params = init_model_params(NetworkConfig(input_dim=d, hidden_dim=h), Rng(5))
        assert params.lstm_w.shape == (4, 4 * h, d + h) and params.lstm_b.shape == (4, 4 * h)
        assert params.lstm_w.ctypes.data == params.flat.ctypes.data
        tensors = dict(iter_params(params))
        for k, name in enumerate(("enc_fw", "enc_bw", "dec_fw", "dec_bw")):
            assert tensors[f"{name}.w"].ctypes.data == params.lstm_w[k].ctypes.data, name
            assert tensors[f"{name}.b"].ctypes.data == params.lstm_b[k].ctypes.data, name
        encoders, decoders = params.lstm_w[0:2], params.lstm_w[2:4]
        encoders[1] += 1.0
        decoders[0] -= 1.0
        assert np.array_equal(tensors["enc_bw.w"], encoders[1])
        assert np.array_equal(tensors["dec_fw.w"], decoders[0])

    def test_wrong_vector_rejected(self):
        cfg = NetworkConfig(input_dim=1, hidden_dim=2)
        for flat in (np.zeros(n_params(cfg) + 1), np.zeros(n_params(cfg), dtype=np.float32),
                     np.zeros(2 * n_params(cfg))[::2]):
            with pytest.raises(ShapeError, match="float64 vector"):
                params_from_flat(cfg, flat)

    @pytest.mark.parametrize("copier", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_keep_their_tensors_views_of_their_vector(self, copier):
        cfg = NetworkConfig(input_dim=2, hidden_dim=3, merge_hidden=3)
        params = init_model_params(cfg, Rng(9))
        q = copier(params)
        assert q.config == cfg
        assert np.array_equal(q.flat, params.flat) and not np.shares_memory(q.flat, params.flat)
        assert np.shares_memory(q.flat, q.lstm_w) and np.shares_memory(q.flat, q.lstm_b)
        for (path, t), (_, t0) in zip(iter_params(q), iter_params(params)):
            assert np.shares_memory(q.flat, t), path
            assert np.array_equal(t, t0), path
        before = {path: t.copy() for path, t in iter_params(q)}
        adam_step(AdamState(q, TrainConfig(lr=0.1)), q,
                  params_from_flat(cfg, np.ones(n_params(cfg))))
        for path, t in iter_params(q):
            assert np.allclose(t, before[path] - 0.1, rtol=0, atol=1e-6), path

    def test_merge_mlp_shapes(self):
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3, merge_hidden=5), Rng(0))
        assert params.merge[0].w.shape == (5, 6)
        assert params.merge[1].w.shape == (2, 5)
        window = ImputationWindow(np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))
        trace = forward(params, [window], make_schedule(2))
        assert len(trace.merge_hidden_acts[0]) == 2


class TestBatchedPath:
    """Ragged, stream-stacked batches against the per-window oracle of `_reference`."""

    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 8), d=st.integers(1, 3),
           h=st.integers(1, 5), max_gap=st.integers(1, 6), max_context=st.integers(1, 5),
           variant=st.sampled_from(SCHEDULE_VARIANTS), merge_hidden=st.sampled_from([0, 3]),
           forward_only=st.booleans(), ragged=st.booleans(), shapes=st.none())
    @settings(max_examples=60, deadline=None)
    # (before, gap, after) lengths given outright: the longest gap with the
    # shortest context and the reverse, so the encoder and decoder orders differ
    @example(seed=1, batch=4, d=1, h=3, max_gap=1, max_context=1, variant="linear",
             merge_hidden=0, forward_only=False, ragged=True,
             shapes=[(1, 6, 1), (5, 1, 5), (3, 3, 2), (1, 6, 2)])
    @example(seed=2, batch=3, d=2, h=2, max_gap=1, max_context=1, variant="endpoint",
             merge_hidden=3, forward_only=True, ragged=True,
             shapes=[(1, 5, 1), (4, 1, 4), (2, 2, 2)])
    # `before` longer than `after` in some rows and shorter in others
    @example(seed=3, batch=4, d=1, h=4, max_gap=1, max_context=1, variant="linear",
             merge_hidden=3, forward_only=False, ragged=True,
             shapes=[(5, 2, 1), (1, 3, 5), (4, 4, 2), (2, 1, 3)])
    # every row live at every encoder and decoder step
    @example(seed=4, batch=4, d=2, h=3, max_gap=1, max_context=1, variant="constant",
             merge_hidden=0, forward_only=False, ragged=False, shapes=[(3, 4, 3)] * 4)
    # one row
    @example(seed=5, batch=1, d=1, h=2, max_gap=1, max_context=1, variant="linear",
             merge_hidden=0, forward_only=False, ragged=True, shapes=[(2, 3, 4)])
    def test_matches_the_per_window_oracle(self, seed, batch, d, h, max_gap, max_context,
                                           variant, merge_hidden, forward_only, ragged, shapes):
        rng = Rng(seed)
        cfg = NetworkConfig(input_dim=d, hidden_dim=h, schedule_variant=variant,
                            merge_hidden=merge_hidden, forward_only=forward_only)
        params = init_model_params(cfg, rng)
        if shapes is not None:
            batch = len(shapes)
        elif ragged:  # every row its own before, gap and after length
            shapes = [(1 + rng.randrange(max_context), 1 + rng.randrange(max_gap),
                       1 + rng.randrange(max_context)) for _ in range(batch)]
        else:  # one shape, before and after of unequal length
            shapes = [(max_context, max_gap, 1 + max_context // 2)] * batch
        windows = [random_window(rng, d, *shape) for shape in shapes]
        schedules = [make_schedule(gap, variant) for _, gap, _ in shapes]
        refs = [window_forward(params, w.before, w.after, s.gamma, s.gamma_prime)
                for w, s in zip(windows, schedules)]

        trace = forward(params, windows, schedules)
        T = max(gap for _, gap, _ in shapes)
        assert list(trace.gap_len) == [gap for _, gap, _ in shapes]
        for name in ("h_fw", "pred_fw", "h_bw", "pred_bw", "merged", "merge_hidden_acts"):
            got = getattr(trace, name)
            if got is None:
                assert all(r[name] is None for r in refs), name
                continue
            assert got.shape[:2] == (batch, T), name
            for row, ref, (_, gap, _) in zip(got, refs, shapes):
                assert np.allclose(row[:gap], ref[name], rtol=0, atol=1e-12), name
                assert not row[gap:].any(), name  # zero past the row's own gap

        truth = [w.missing for w in windows]
        results = [window_loss_and_grads(params, w.before, w.after, w.missing, s.gamma,
                                         s.gamma_prime) for w, s in zip(windows, schedules)]
        assert np.allclose(loss(trace, truth), [v for v, _ in results], rtol=0, atol=1e-12)

        value, grads = loss_and_grads(params, windows, schedules)
        assert value == pytest.approx(sum(v for v, _ in results), rel=0, abs=1e-12)
        for path, got in v1_tensors(grads).items():
            want = sum(g[path] for _, g in results)
            assert np.allclose(got, want, rtol=0, atol=1e-12), path

        filled = impute(params, [w.before for w in windows], [w.after for w in windows],
                        [gap for _, gap, _ in shapes])
        for got, ref in zip(filled, refs):
            assert got.shape == ref["merged"].shape
            assert np.allclose(got, ref["merged"], rtol=0, atol=1e-12)

    # float32 rounds at 6e-8 relative. The loss is a float64 sum of float32
    # squared errors, held to 1e-5 relative. A gradient element sums products
    # over every step and window, and cancellation can leave it far below its
    # tensor's scale, so each tensor is held to 1e-4 of its largest magnitude
    # (about 840 float32 ulps; 400 seeded batches measured at most 1.0e-5).
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6), d=st.integers(1, 3),
           h=st.integers(1, 6), max_gap=st.integers(1, 8), max_context=st.integers(1, 8),
           variant=st.sampled_from(SCHEDULE_VARIANTS), merge_hidden=st.sampled_from([0, 3]),
           forward_only=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_float32_arena_matches_the_float64_one(self, seed, batch, d, h, max_gap,
                                                   max_context, variant, merge_hidden,
                                                   forward_only):
        rng = Rng(seed)
        cfg = NetworkConfig(input_dim=d, hidden_dim=h, schedule_variant=variant,
                            merge_hidden=merge_hidden, forward_only=forward_only)
        params = init_model_params(cfg, rng)
        shapes = [(1 + rng.randrange(max_context), 1 + rng.randrange(max_gap),
                   1 + rng.randrange(max_context)) for _ in range(batch)]
        windows = [random_window(rng, d, *shape) for shape in shapes]
        schedules = [make_schedule(gap, variant) for _, gap, _ in shapes]
        value, grads = loss_and_grads(params, windows, schedules)
        value32, grads32 = loss_and_grads(_arena_params(cfg, params.flat.astype(np.float32)),
                                          windows, schedules)
        assert grads32.flat.dtype == np.float32
        assert value32 == pytest.approx(value, rel=1e-5)
        for (path, got), (_, want) in zip(iter_params(grads32), iter_params(grads)):
            assert np.all(np.abs(got - want) <= 1e-4 * np.abs(want).max()), path

    def test_one_window_matches_the_oracle(self):
        rng = Rng(37)
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3, merge_hidden=3), rng)
        window = random_window(rng, 2, 4, 3, 2)
        schedule = make_schedule(3, "endpoint")
        ref_value, ref_grads = window_loss_and_grads(params, window.before, window.after,
                                                     window.missing, schedule.gamma,
                                                     schedule.gamma_prime)
        value, grads = loss_and_grads(params, [window], schedule)
        assert value == pytest.approx(ref_value, rel=0, abs=1e-12)
        for path, got in v1_tensors(grads).items():
            assert np.allclose(got, ref_grads[path], rtol=0, atol=1e-12), path

    def test_shared_schedule_equals_per_window_schedules(self):
        rng = Rng(31)
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3), rng)
        windows = [random_window(rng, 2, 3, 4, 5) for _ in range(4)]
        schedule = make_schedule(4)
        per_window = loss_and_grads(params, windows, [schedule] * 4)
        shared = loss_and_grads(params, windows, schedule)
        assert per_window[0] == shared[0]
        assert np.array_equal(per_window[1].flat, shared[1].flat)

    def test_stacked_window_arrays_rejected(self):
        rng = Rng(43)
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3), rng)
        windows = [random_window(rng, 2, 3, 2, 4) for _ in range(3)]
        stacked = ImputationWindow(*(np.stack([getattr(w, name) for w in windows])
                                     for name in ("before", "missing", "after")))
        schedule = make_schedule(2)
        with pytest.raises(ShapeError, match="window 0: before"):
            forward(params, [stacked], schedule)
        with pytest.raises(ShapeError, match="window 0: before"):
            loss_and_grads(params, [stacked], schedule)
        with pytest.raises(ShapeError, match="window 0: before"):
            impute(params, [stacked.before], [stacked.after], [2])
        # nor one window, its truth or its context rows outside a list
        window = windows[0]
        trace = forward(params, [window], schedule)
        for call in (lambda: forward(params, window, schedule),
                     lambda: loss_and_grads(params, window, schedule),
                     lambda: loss(trace, window.missing),
                     lambda: merge_input_grads(params, trace, schedule, window.missing),
                     lambda: impute(params, window.before, window.after, 2),
                     lambda: impute(params, window.before, window.after, [2])):
            with pytest.raises(ShapeError):
                call()
        # 1-D rows are no (n, 1) rows
        narrow = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        flat = ImputationWindow(np.ones(3), np.zeros((2, 1)), np.ones((4, 1)))
        with pytest.raises(ShapeError, match="window 0: before"):
            forward(narrow, [flat], schedule)
        with pytest.raises(ShapeError, match="window 0: after"):
            impute(narrow, [np.ones((3, 1))], [np.ones(4)], [2])

    def test_mixed_shapes_accepted_malformed_rows_rejected(self):
        rng = Rng(43)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        windows = [random_window(rng, 1, 3, 2, 3), random_window(rng, 1, 4, 5, 1)]
        trace = forward(params, windows, [make_schedule(2), make_schedule(5)])
        assert trace.merged.shape == (2, 5, 1) and list(trace.gap_len) == [2, 5]
        empty = ImputationWindow(np.zeros((0, 1)), np.zeros((2, 1)), np.ones((2, 1)))
        wide = ImputationWindow(np.ones((2, 1)), np.zeros((2, 1)), np.ones((3, 2)))
        for bad, name in ((empty, "window 1: before"), (wide, "window 1: after")):
            with pytest.raises(ShapeError, match=name):
                forward(params, [windows[0], bad], [make_schedule(2)] * 2)
        with pytest.raises(ShapeError, match="schedules"):
            forward(params, windows, [make_schedule(2)])
        with pytest.raises(ShapeError, match="for a gap of 3"):
            forward(params, windows, [make_schedule(2), make_schedule(3)])
