import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfill.lstm import (ForwardCell, LstmParams, LstmState, lstm_step, lstm_step_backward,
                          zero_state)
from gapfill.model import (ImputationWindow, NetworkConfig, clone_params, forward,
                           init_model_params, make_schedule)
from gapfill.numerics import Rng, ShapeError, finite_diff_grad

from _reference import cell_gates, lstm_step_scalar

_DRAWN = ("w_i", "w_f", "w_g", "w_o", "u_i", "u_f", "u_g", "u_o")


def all_zero_params(input_dim, hidden_dim):
    return LstmParams(np.zeros((4 * hidden_dim, input_dim + hidden_dim)), np.zeros(4 * hidden_dim))


def random_cell(input_dim, hidden_dim, rng):
    """A cell drawn as `init_model_params` draws each of its cells: the
    weights Uniform(-k, k), k = 1/sqrt(hidden_dim), gate by gate in
    checkpoint order; the forget bias 1, every other bias 0."""
    p = all_zero_params(input_dim, hidden_dim)
    gates = cell_gates(p.w, p.b)
    k = 1.0 / np.sqrt(hidden_dim)
    for name in _DRAWN:
        gates[name][...] = rng.uniform_array(gates[name].shape, -k, k)
    gates["b_f"][...] = 1.0
    return p


def lstm_run(p, xs, state):
    """Run the cell over a sequence of inputs, each a batch of one row;
    returns final state, h outputs (as vectors), tapes."""
    hs, tapes = [], []
    for x in xs:
        state, tape = lstm_step(p, x[None], state)
        hs.append(state.h[0])
        tapes.append(tape)
    return state, hs, tapes


def lstm_backward(p, tapes, grad_h_seq):
    """BPTT over a taped sequence: the fused parameter gradients {"w", "b"},
    each input's gradient, and the gradients w.r.t. the initial state."""
    acc = LstmParams(np.zeros_like(p.w), np.zeros_like(p.b))
    dh, dc = np.zeros((1, p.hidden_dim)), np.zeros((1, p.hidden_dim))
    dxs = [None] * len(tapes)
    for t in reversed(range(len(tapes))):
        dx, dh, dc = lstm_step_backward(p, tapes[t], dh + grad_h_seq[t], dc, acc)
        dxs[t] = dx[0]
    return {"w": acc.w, "b": acc.b}, dxs, (dh[0], dc[0])


def test_zero_params_keep_zero_state():
    p = all_zero_params(2, 3)
    state, _ = lstm_step(p, np.array([[5.0, -1.0]]), zero_state(3, 1))
    assert np.array_equal(state.h, np.zeros((1, 3)))
    assert np.array_equal(state.c, np.zeros((1, 3)))


def test_tape_keeps_tanh_of_the_new_cell_memory():
    rng = Rng(4)
    p = random_cell(2, 3, rng)
    state, tape = lstm_step(p, rng.normal_array((5, 2)),
                            LstmState(rng.normal_array((5, 3)), rng.normal_array((5, 3))))
    assert np.array_equal(tape.tc, np.tanh(tape.c))
    assert np.array_equal(state.h, tape.act[:, 6:9] * tape.tc)  # the output gate's block


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_state_takes_the_cell_dtype(dtype):
    state = zero_state(3, 2, 5, dtype=dtype)
    assert state.h.shape == state.c.shape == (2, 5, 3)
    assert state.h.dtype == state.c.dtype == dtype
    assert not state.h.any() and not state.c.any()


def test_saturated_gates_carry_memory():
    # forget gate pinned open, input gate pinned shut: c passes through
    p = all_zero_params(1, 4)
    gates = cell_gates(p.w, p.b)
    gates["b_f"][:] = 30.0
    gates["b_i"][:] = -30.0
    c = np.array([[1.0, -0.5, 2.0, 0.25]])
    state, _ = lstm_step(p, np.array([[3.0]]), LstmState(np.zeros((1, 4)), c.copy()))
    assert np.allclose(state.c, c, atol=1e-9, rtol=0)


def test_step_matches_scalar_reference():
    p = random_cell(1, 2, Rng(0))
    state, _ = lstm_step(p, np.array([[1.0]]), zero_state(2, 1))
    h_ref, c_ref = lstm_step_scalar(p, [1.0], [0.0, 0.0], [0.0, 0.0])
    assert np.allclose(state.h[0], h_ref, atol=1e-12, rtol=0)
    assert np.allclose(state.c[0], c_ref, atol=1e-12, rtol=0)


def test_multi_step_matches_scalar_reference():
    rng = Rng(4)
    p = random_cell(2, 3, rng)
    xs = [rng.normal_array((2,)) for _ in range(4)]
    state = zero_state(3, 1)
    h_ref, c_ref = [0.0] * 3, [0.0] * 3
    for x in xs:
        state, _ = lstm_step(p, x[None], state)
        h_ref, c_ref = lstm_step_scalar(p, list(x), h_ref, c_ref)
    assert np.allclose(state.h[0], h_ref, atol=1e-12, rtol=0)
    assert np.allclose(state.c[0], c_ref, atol=1e-12, rtol=0)


def _stacked_case(d, h, streams, batch, seed):
    """`streams` random cells stacked, and (S, B, .) inputs and states."""
    rng = Rng(seed)
    cells = [random_cell(d, h, rng) for _ in range(streams)]
    w, b = np.stack([c.w for c in cells]), np.stack([c.b for c in cells])
    x = 3.0 * rng.normal_array((streams, batch, d))  # large enough to saturate some gates
    return cells, w, b, x, LstmState(rng.normal_array((streams, batch, h)),
                                     rng.normal_array((streams, batch, h)))


_SHAPES = dict(d=st.integers(1, 3), h=st.integers(1, 5), streams=st.integers(1, 3),
               batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**_SHAPES)
def test_step_matches_scalar_reference_in_every_layout(d, h, streams, batch, seed):
    cells, w, b, x, s = _stacked_case(d, h, streams, batch, seed)
    stacked, _ = lstm_step(ForwardCell(w, b), x, s)
    for k, cell in enumerate(cells):
        rows, _ = lstm_step(ForwardCell(cell.w, cell.b), x[k], LstmState(s.h[k], s.c[k]))
        for r in range(batch):
            one, _ = lstm_step(cell, x[k, r:r + 1], LstmState(s.h[k, r:r + 1], s.c[k, r:r + 1]))
            h_ref, c_ref = lstm_step_scalar(cell, list(x[k, r]), list(s.h[k, r]),
                                            list(s.c[k, r]))
            for got in (LstmState(stacked.h[k, r], stacked.c[k, r]),
                        LstmState(rows.h[r], rows.c[r]), LstmState(one.h[0], one.c[0])):
                assert np.allclose(got.h, h_ref, atol=1e-12, rtol=0)
                assert np.allclose(got.c, c_ref, atol=1e-12, rtol=0)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**_SHAPES)
def test_float32_step_matches_float64_to_float32_rounding(d, h, streams, batch, seed):
    _, w, b, x, s = _stacked_case(d, h, streams, batch, seed)
    new64, tape64 = lstm_step(ForwardCell(w, b), x, s)
    f32 = np.float32
    new32, tape32 = lstm_step(ForwardCell(w.astype(f32), b.astype(f32)), x.astype(f32),
                              LstmState(s.h.astype(f32), s.c.astype(f32)))
    assert {a.dtype for a in (new32.h, new32.c, *vars(tape32).values())} == {np.dtype(f32)}
    # each pre-activation sums d + h + 1 products of |.| < 10 at a relative
    # rounding of 6e-8 each; tanh and sigmoid do not amplify it
    for a, b64 in [(new32.h, new64.h), (new32.c, new64.c), (tape32.act, tape64.act)]:
        assert np.allclose(a, b64, atol=1e-5, rtol=0)


def test_forward_cell_steps_exactly_like_the_plain_cell():
    _, w, b, x, s = _stacked_case(2, 4, 2, 3, 7)
    plain, plain_tape = lstm_step(LstmParams(w, b), x, s)
    cell, cell_tape = lstm_step(ForwardCell(w, b), x, s)
    assert np.array_equal(plain.h, cell.h) and np.array_equal(plain.c, cell.c)
    assert all(np.array_equal(a, c) for a, c in zip(vars(plain_tape).values(),
                                                     vars(cell_tape).values()))


def test_weights_changed_between_passes_are_the_weights_stepped():
    rng = Rng(31)
    p = random_cell(2, 3, rng)
    x, s = rng.normal_array((4, 2)), LstmState(rng.normal_array((4, 3)), rng.normal_array((4, 3)))
    before, _ = lstm_step(p, x, s)
    p.w *= -0.5
    p.b += 0.25
    after, _ = lstm_step(p, x, s)
    fresh, _ = lstm_step(LstmParams(p.w.copy(), p.b.copy()), x, s)
    assert np.array_equal(after.h, fresh.h) and not np.allclose(after.h, before.h)

    # a forward pass builds its cells' operands anew: an in-place update shows
    params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=3), rng)
    window = ImputationWindow(rng.normal_array((4, 1)), None, rng.normal_array((4, 1)))
    schedule = make_schedule(3)
    first = forward(params, [window], schedule).merged
    params.flat *= 1.5
    second = forward(params, [window], schedule).merged
    assert np.array_equal(second, forward(clone_params(params), [window], schedule).merged)
    assert not np.allclose(first, second)


def test_dimension_mismatch_rejected():
    p = random_cell(2, 3, Rng(0))
    with pytest.raises(ShapeError):
        lstm_step(p, np.zeros((1, 5)), zero_state(3, 1))
    with pytest.raises(ShapeError):
        lstm_step(p, np.zeros((1, 2)), zero_state(4, 1))
    with pytest.raises(ShapeError):  # one state is the batch of one, not a vector
        lstm_step(p, np.zeros(2), zero_state(3))


def test_forward_determinism():
    p = random_cell(2, 4, Rng(9))
    xs = [Rng(10).normal_array((2,)) for _ in range(3)]
    s1, h1, _ = lstm_run(p, xs, zero_state(4, 1))
    s2, h2, _ = lstm_run(p, xs, zero_state(4, 1))
    assert all(np.array_equal(a, b) for a, b in zip(h1, h2))
    assert np.array_equal(s1.c, s2.c)


def test_hidden_output_bounded():
    rng = Rng(21)
    for _ in range(10):
        p = random_cell(3, 5, rng)
        xs = [10.0 * rng.normal_array((3,)) for _ in range(6)]
        _, hs, _ = lstm_run(p, xs, zero_state(5, 1))
        for h in hs:
            assert np.all(np.abs(h) < 1.0)


def test_zero_hidden_gradients_give_zero_param_gradients():
    rng = Rng(2)
    p = random_cell(2, 3, rng)
    xs = [rng.normal_array((2,)) for _ in range(4)]
    _, _, tapes = lstm_run(p, xs, zero_state(3, 1))
    grads, dxs, (dh0, dc0) = lstm_backward(p, tapes, [np.zeros(3)] * 4)
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())
    assert all(np.array_equal(dx, np.zeros(2)) for dx in dxs)
    assert np.array_equal(dh0, np.zeros(3)) and np.array_equal(dc0, np.zeros(3))


def _sequence_loss(p, xs, grad_spec):
    """Scalar loss matching `grad_spec`: sum of h[t][j]*w entries and final-h MSE."""
    _, hs, _ = lstm_run(p, xs, zero_state(p.hidden_dim, 1))
    total = 0.0
    for t, vec in grad_spec.get("linear", {}).items():
        total += float(np.dot(vec, hs[t]))
    if "mse_final" in grad_spec:
        target = grad_spec["mse_final"]
        d = hs[-1] - target
        total += float(np.mean(d * d))
    return total


def _numeric_grads(p, xs, grad_spec, eps=1e-5):
    """Central differences of every coordinate of the fused `w` and `b`."""
    out = {}
    for name in ("w", "b"):
        tensor = getattr(p, name)
        orig = tensor.copy()

        def f(candidate):
            tensor[...] = candidate
            return _sequence_loss(p, xs, grad_spec)

        out[name] = finite_diff_grad(f, orig, eps)
        tensor[...] = orig
    return out


def _analytic_grads(p, xs, grad_spec):
    _, hs, tapes = lstm_run(p, xs, zero_state(p.hidden_dim, 1))
    n = len(xs)
    grad_h = [np.zeros(p.hidden_dim) for _ in range(n)]
    for t, vec in grad_spec.get("linear", {}).items():
        grad_h[t] = grad_h[t] + np.asarray(vec, dtype=float)
    if "mse_final" in grad_spec:
        target = grad_spec["mse_final"]
        grad_h[-1] = grad_h[-1] + (2.0 / p.hidden_dim) * (hs[-1] - target)
    grads, _, _ = lstm_backward(p, tapes, grad_h)
    return grads


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for name in ("w", "b"):
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-4)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def test_single_step_output_bias_gradient():
    rng = Rng(3)
    p = random_cell(1, 2, rng)
    xs = [np.array([0.7])]
    spec = {"linear": {0: np.array([1.0, 0.0])}}  # loss = h[0][0]
    analytic = _analytic_grads(p, xs, spec)
    numeric = _numeric_grads(p, xs, spec)
    analytic_b_o = cell_gates(analytic["w"], analytic["b"])["b_o"]
    numeric_b_o = cell_gates(numeric["w"], numeric["b"])["b_o"]
    denom = max(abs(float(numeric_b_o[0])), 1e-12)
    assert abs(float(analytic_b_o[0]) - float(numeric_b_o[0])) / denom < 1e-6


def test_five_step_mse_gradient_matches_finite_differences():
    rng = Rng(8)
    p = random_cell(2, 3, rng)
    xs = [rng.normal_array((2,)) for _ in range(5)]
    spec = {"mse_final": rng.normal_array((3,))}
    assert _max_rel_err(_analytic_grads(p, xs, spec), _numeric_grads(p, xs, spec)) < 1e-4


def test_gradients_match_finite_differences_many_seeds():
    # random tiny instances across shapes, up to 6 steps
    for seed in range(20):
        rng = Rng(1000 + seed)
        d = 1 + rng.randrange(3)
        h = 1 + rng.randrange(5)
        steps = 1 + rng.randrange(6)
        p = random_cell(d, h, rng)
        xs = [rng.normal_array((d,)) for _ in range(steps)]
        spec = {"mse_final": rng.normal_array((h,)),
                "linear": {rng.randrange(steps): rng.normal_array((h,))}}
        err = _max_rel_err(_analytic_grads(p, xs, spec), _numeric_grads(p, xs, spec))
        assert err < 1e-4, f"seed {seed}: rel err {err:.2e}"


def test_gradient_additivity_over_time_steps():
    rng = Rng(15)
    p = random_cell(2, 3, rng)
    xs = [rng.normal_array((2,)) for _ in range(4)]
    v1, v2 = rng.normal_array((3,)), rng.normal_array((3,))
    joint = _analytic_grads(p, xs, {"linear": {1: v1, 3: v2}})
    first = _analytic_grads(p, xs, {"linear": {1: v1}})
    second = _analytic_grads(p, xs, {"linear": {3: v2}})
    for name in ("w", "b"):
        assert np.allclose(joint[name], first[name] + second[name], atol=1e-12, rtol=0)


def test_forget_bias_initialized_to_one():
    params = init_model_params(NetworkConfig(input_dim=2, hidden_dim=4), Rng(0))
    k = 1.0 / np.sqrt(4)
    for w, b in zip(params.lstm_w, params.lstm_b):
        gates = cell_gates(w, b)
        assert np.array_equal(gates["b_f"], np.ones(4))
        for name in ("b_i", "b_g", "b_o"):
            assert np.array_equal(gates[name], np.zeros(4))
        for name in _DRAWN:
            assert np.all(np.abs(gates[name]) <= k)
