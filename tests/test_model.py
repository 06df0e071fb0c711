import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill.lstm import PARAM_FIELDS
from gapfill.model import (
    SCHEDULE_VARIANTS,
    Affine,
    ImputationWindow,
    ModelParams,
    NetworkConfig,
    ScalingSchedule,
    backward,
    forward,
    gradient_check,
    impute,
    init_model_params,
    iter_params,
    loss,
    loss_and_grads,
    make_schedule,
    merge_input_grads,
    stack_windows,
)
from gapfill.numerics import Rng, ShapeError, mse

from _reference import network_forward_scalar
from test_lstm import all_zero_params


def zero_model(input_dim=1, hidden_dim=2, merge_bias=None):
    cfg = NetworkConfig(input_dim=input_dim, hidden_dim=hidden_dim)
    lstms = [all_zero_params(input_dim, hidden_dim) for _ in range(4)]
    head = lambda: Affine(np.zeros((input_dim, hidden_dim)), np.zeros(input_dim))
    merge = Affine(np.zeros((input_dim, 2 * hidden_dim)),
                   np.zeros(input_dim) if merge_bias is None else np.asarray(merge_bias, float))
    return ModelParams(cfg, lstms[0], lstms[1], lstms[2], lstms[3], head(), head(), [merge])


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
        trace = forward(params, window, make_schedule(4))
        for xhat in trace.merged:
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
        trace = forward(params, window, schedule)
        h_fw2 = trace.h_fw[1][0]
        h_bw2 = trace.h_bw[1][0]
        assert trace.merged[1][0] == pytest.approx(h_bw2, abs=1e-15)
        assert trace.merged[0][0] == pytest.approx(0.5 * trace.h_fw[0][0] + 0.5 * trace.h_bw[0][0], abs=1e-15)
        assert h_fw2 != 0.0  # the forward stream was alive, just silenced

    def test_matches_scalar_reference(self):
        rng = Rng(0)
        cfg = NetworkConfig(input_dim=1, hidden_dim=2)
        params = init_model_params(cfg, rng)
        window = random_window(rng, 1, 3, 3, 3)
        schedule = make_schedule(3, "linear")
        trace = forward(params, window, schedule)
        merged, pred_fw, pred_bw = network_forward_scalar(
            params,
            [list(r) for r in window.before],
            3,
            [list(r) for r in window.after],
            list(schedule.gamma),
            list(schedule.gamma_prime),
        )
        for t in range(3):
            assert np.allclose(trace.merged[t], merged[t], atol=1e-12, rtol=0)
            assert np.allclose(trace.pred_fw[t], pred_fw[t], atol=1e-12, rtol=0)
            assert np.allclose(trace.pred_bw[t], pred_bw[t], atol=1e-12, rtol=0)

    def test_matches_scalar_reference_multivariate(self):
        rng = Rng(5)
        cfg = NetworkConfig(input_dim=2, hidden_dim=3)
        params = init_model_params(cfg, rng)
        window = random_window(rng, 2, 4, 2, 4)
        schedule = make_schedule(2, "endpoint")
        trace = forward(params, window, schedule)
        merged, _, _ = network_forward_scalar(
            params, [list(r) for r in window.before], 2,
            [list(r) for r in window.after],
            list(schedule.gamma), list(schedule.gamma_prime))
        for t in range(2):
            assert np.allclose(trace.merged[t], merged[t], atol=1e-12, rtol=0)

    def test_rejects_empty_context(self):
        params = zero_model()
        with pytest.raises(ShapeError):
            forward(params, ImputationWindow(np.zeros((0, 1)), np.zeros((2, 1)), np.ones((2, 1))),
                    make_schedule(2))

    def test_rejects_gap_mismatch(self):
        params = zero_model()
        with pytest.raises(ShapeError):
            forward(params, ImputationWindow(np.ones((2, 1)), np.zeros((3, 1)), np.ones((2, 1))),
                    make_schedule(2))

    def test_forward_only_has_no_backward_stream(self):
        rng = Rng(1)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2, forward_only=True), rng)
        trace = forward(params, random_window(rng, 1, 3, 2, 3), make_schedule(2))
        assert trace.pred_bw is None and trace.h_bw is None
        for t in range(2):
            assert np.array_equal(trace.merged[t], trace.pred_fw[t])


class TestLoss:
    def test_zero_when_exact(self):
        params = zero_model(merge_bias=[0.0])
        window = ImputationWindow(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)))
        trace = forward(params, window, make_schedule(2))
        assert loss(trace, window.missing) == 0.0

    def test_single_position_worked_example(self):
        # truth 0, merged 1, forward 2, backward 3 -> 1 + 4 + 9
        trace_like = forward(zero_model(merge_bias=[1.0]),
                             ImputationWindow(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))),
                             make_schedule(1))
        trace_like.pred_fw[0] = np.array([2.0])
        trace_like.pred_bw[0] = np.array([3.0])
        assert loss(trace_like, np.array([[0.0]])) == 14.0

    def test_quadratic_homogeneity(self):
        rng = Rng(6)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        window = random_window(rng, 1, 3, 2, 3)
        schedule = make_schedule(2)
        trace = forward(params, window, schedule)
        base = loss(trace, window.missing)
        # doubling every residual quadruples the loss
        scaled = forward(params, window, schedule)
        for t in range(2):
            scaled.merged[t] = window.missing[t] + 2 * (trace.merged[t] - window.missing[t])
            scaled.pred_fw[t] = window.missing[t] + 2 * (trace.pred_fw[t] - window.missing[t])
            scaled.pred_bw[t] = window.missing[t] + 2 * (trace.pred_bw[t] - window.missing[t])
        assert loss(scaled, window.missing) == pytest.approx(4 * base, rel=1e-12)

    def test_decomposes_into_three_mse_curves(self):
        rng = Rng(7)
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3), rng)
        window = random_window(rng, 2, 3, 3, 3)
        schedule = make_schedule(3)
        trace = forward(params, window, schedule)
        total = loss(trace, window.missing)
        parts = 0.0
        for t in range(3):
            parts += mse(window.missing[t], trace.merged[t])
            parts += mse(window.missing[t], trace.pred_fw[t])
            parts += mse(window.missing[t], trace.pred_bw[t])
        assert total == pytest.approx(parts / 3, rel=1e-15)

    def test_rejects_wrong_truth_length(self):
        params = zero_model()
        window = ImputationWindow(np.ones((2, 1)), np.zeros((2, 1)), np.ones((2, 1)))
        trace = forward(params, window, make_schedule(2))
        with pytest.raises(ShapeError):
            loss(trace, np.zeros((3, 1)))


class TestBackward:
    def test_zero_residuals_give_zero_gradient(self):
        params = zero_model(merge_bias=[0.0])
        window = ImputationWindow(np.zeros((3, 1)), np.zeros((2, 1)), np.zeros((3, 1)))
        grads = backward(params, window, make_schedule(2))
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_matches_finite_differences(self):
        report = gradient_check(n_instances=6, seed=123)
        assert report.passed, f"max rel err {report.max_rel_err:.2e} at {report.worst_path}"

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
        trace = forward(params, window, schedule)
        dh_fw, dh_bw = merge_input_grads(params, trace, schedule, window.missing)
        assert np.array_equal(dh_fw[1], np.zeros(3))
        assert not np.array_equal(dh_fw[0], np.zeros(3))
        assert not np.array_equal(dh_bw[1], np.zeros(3))

    @pytest.mark.parametrize("c", [0.0, 2.0])
    def test_merge_path_gradient_scales_linearly(self, c):
        rng = Rng(0)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=3), rng)
        window = random_window(rng, 1, 3, 3, 3)
        schedule = make_schedule(3, "linear")
        trace = forward(params, window, schedule)
        base_fw, base_bw = merge_input_grads(params, trace, schedule, window.missing)
        t_mod = 1
        gamma = schedule.gamma.copy()
        gamma[t_mod] *= c
        modified = ScalingSchedule(3, gamma, schedule.gamma_prime.copy(), "linear")
        mod_fw, mod_bw = merge_input_grads(params, trace, modified, window.missing)
        assert np.allclose(mod_fw[t_mod], c * base_fw[t_mod], atol=1e-12, rtol=0)
        for t in (0, 2):
            assert np.array_equal(mod_fw[t], base_fw[t])
            assert np.array_equal(mod_bw[t], base_bw[t])

    def test_stream_isolation(self):
        # gamma' pinned to zero and the merge blind to the backward half:
        # the merged output reduces to a forward-only readout, and the
        # backward encoder gets no gradient from the merged term.
        rng = Rng(13)
        h = 3
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=h), rng)
        params.merge[0].w[:, h:] = 0.0
        window = random_window(rng, 1, 3, 3, 3)
        schedule = ScalingSchedule(3, np.ones(3), np.zeros(3), "linear")
        trace = forward(params, window, schedule)
        for t in range(3):
            manual = params.merge[0].w[:, :h] @ trace.h_fw[t] + params.merge[0].b
            assert np.allclose(trace.merged[t], manual, atol=0, rtol=0)
        grads = backward(params, window, schedule, term_weights=(1.0, 0.0, 0.0))
        for field in PARAM_FIELDS:
            assert np.array_equal(grads[f"enc_bw.{field}"], np.zeros_like(grads[f"enc_bw.{field}"]))
            assert np.array_equal(grads[f"dec_bw.{field}"], np.zeros_like(grads[f"dec_bw.{field}"]))
        assert np.array_equal(grads["head_bw.w"], np.zeros_like(grads["head_bw.w"]))

    def test_loss_value_matches_loss_function(self):
        rng = Rng(17)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        window = random_window(rng, 1, 3, 2, 3)
        schedule = make_schedule(2)
        value, _ = loss_and_grads(params, window, schedule)
        assert value == pytest.approx(loss(forward(params, window, schedule), window.missing),
                                      rel=1e-15)


class TestImpute:
    def test_equals_forward_merged(self):
        rng = Rng(19)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        window = random_window(rng, 1, 3, 4, 3)
        out = impute(params, window.before, window.after, 4)
        trace = forward(params, window, make_schedule(4, "linear"))
        assert np.array_equal(out, np.stack(trace.merged))

    def test_deterministic(self):
        rng = Rng(23)
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3), rng)
        before, after = rng.normal_array((3, 2)), rng.normal_array((3, 2))
        a = impute(params, before, after, 2)
        b = impute(params, before, after, 2)
        assert np.array_equal(a, b)


class TestParamPlumbing:
    def test_iter_params_order_is_stable(self):
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), Rng(0))
        paths = [p for p, _ in iter_params(params)]
        assert paths[0] == "enc_fw.w_i"
        assert paths[-1] == "merge.0.b"
        assert len(paths) == 4 * 12 + 4 + 2
        assert paths == [p for p, _ in iter_params(params)]

    def test_same_seed_same_init(self):
        cfg = NetworkConfig(input_dim=2, hidden_dim=3)
        a = init_model_params(cfg, Rng(42))
        b = init_model_params(cfg, Rng(42))
        for (pa, ta), (pb, tb) in zip(iter_params(a), iter_params(b)):
            assert pa == pb
            assert np.array_equal(ta, tb)

    def test_merge_mlp_shapes(self):
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3, merge_hidden=5), Rng(0))
        assert params.merge[0].w.shape == (5, 6)
        assert params.merge[1].w.shape == (2, 5)
        window = ImputationWindow(np.ones((2, 2)), np.zeros((2, 2)), np.ones((2, 2)))
        trace = forward(params, window, make_schedule(2))
        assert len(trace.merge_hidden_acts) == 2


class TestBatchedPath:
    """The batched path against the stacked single-window (B = 1) results."""

    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 8), d=st.integers(1, 3),
           h=st.integers(1, 5), gap=st.integers(1, 5), before_len=st.integers(1, 4),
           after_len=st.integers(1, 4), variant=st.sampled_from(SCHEDULE_VARIANTS),
           merge_hidden=st.sampled_from([0, 3]), forward_only=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_stacked_single_windows(self, seed, batch, d, h, gap, before_len,
                                            after_len, variant, merge_hidden, forward_only):
        rng = Rng(seed)
        cfg = NetworkConfig(input_dim=d, hidden_dim=h, schedule_variant=variant,
                            merge_hidden=merge_hidden, forward_only=forward_only)
        params = init_model_params(cfg, rng)
        windows = [random_window(rng, d, before_len, gap, after_len) for _ in range(batch)]
        schedule = make_schedule(gap, variant)

        batched = forward(params, windows, schedule)
        singles = [forward(params, w, schedule) for w in windows]
        for name in ("h_fw", "pred_fw", "h_bw", "pred_bw", "merged", "merge_hidden_acts"):
            got = getattr(batched, name)
            if got is None:
                assert all(getattr(s, name) is None for s in singles), name
                continue
            want = np.stack([getattr(s, name) for s in singles])
            assert got.shape == want.shape, name
            assert np.allclose(got, want, rtol=0, atol=1e-12), name

        truth = np.stack([w.missing for w in windows])
        per_window = loss(batched, truth)
        assert per_window.shape == (batch,)
        assert np.allclose(per_window, [loss(s, w.missing) for s, w in zip(singles, windows)],
                           rtol=0, atol=1e-12)

        value, grads = loss_and_grads(params, windows, schedule)
        single_results = [loss_and_grads(params, w, schedule) for w in windows]
        assert value == pytest.approx(sum(v for v, _ in single_results), rel=0, abs=1e-12)
        assert [p for p, _ in iter_params(params)] == list(grads)
        for path in grads:
            summed = sum(g[path] for _, g in single_results)
            assert np.allclose(grads[path], summed, rtol=0, atol=1e-12), path

        filled = impute(params, np.stack([w.before for w in windows]),
                        np.stack([w.after for w in windows]), gap)
        assert np.allclose(filled, np.stack([s.merged for s in singles]), rtol=0, atol=1e-12)

    def test_batch_window_and_window_list_agree(self):
        rng = Rng(41)
        params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=3), rng)
        windows = [random_window(rng, 2, 3, 2, 4) for _ in range(5)]
        schedule = make_schedule(2)
        from_list = forward(params, windows, schedule)
        from_batch = forward(params, stack_windows(windows), schedule)
        assert np.array_equal(from_list.merged, from_batch.merged)
        assert np.array_equal(stack_windows(windows).take([3, 1]).before,
                              np.stack([windows[3].before, windows[1].before]))

    def test_windows_of_different_shapes_rejected(self):
        rng = Rng(43)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=2), rng)
        windows = [random_window(rng, 1, 3, 2, 3), random_window(rng, 1, 4, 2, 3)]
        with pytest.raises(ShapeError, match="before"):
            forward(params, windows, make_schedule(2))

    def test_in_place_gate_edits_reach_the_fused_cell(self):
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=3), Rng(47))
        fused = params.enc_fw.w.copy()
        params.enc_fw.w_i += 5.0
        params.enc_fw.b_o[...] = -1.0
        assert np.array_equal(params.enc_fw.w[:3, :1], fused[:3, :1] + 5.0)
        assert np.array_equal(params.enc_fw.w[3:, :], fused[3:, :])
        assert np.array_equal(params.enc_fw.b_o, np.full(3, -1.0))
