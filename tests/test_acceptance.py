"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The directional benchmark
(criterion 4) trains fifteen small models and dominates the runtime.
"""

import statistics
import time

import numpy as np

from gapfill.checkpoint import load_checkpoint, save_checkpoint
from gapfill.data import (
    SeriesTable,
    WindowSpec,
    compute_norm_stats,
    extract_windows,
    normalize_table,
    split_train_test,
    synth,
)
from gapfill.eval import (
    BenchmarkConfig,
    BenchmarkDataset,
    borda_points,
    mae,
    mre,
    run_benchmark,
)
from gapfill.model import (
    ImputationWindow,
    NetworkConfig,
    ScalingSchedule,
    forward,
    gradient_check,
    impute,
    init_model_params,
    iter_params,
    make_schedule,
    merge_input_grads,
)
from gapfill.numerics import Rng
from gapfill.optim import TrainConfig, split_validation, train

from _reference import enumerate_window_starts, mae_loop, mre_loop


def _report(criterion, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE C{criterion} ({name}): {status}{suffix}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_c1_gradient_fidelity():
    started = time.perf_counter()
    report = gradient_check(n_instances=20, seed=0, eps=1e-5, tolerance=1e-4,
                            max_input_dim=3, max_hidden_dim=4, max_gap=3, context_len=3)
    elapsed = time.perf_counter() - started
    _report(1, "gradient fidelity", report.passed and elapsed < 60.0,
            f"max rel err {report.max_rel_err:.2e} at {report.worst_path}, {elapsed:.1f}s")


def test_c2_scaling_schedule_invariants():
    ok = True
    detail = ""
    for gap_len in range(1, 1001):
        for variant in ("linear", "endpoint"):
            s = make_schedule(gap_len, variant)
            if not np.all(np.abs(s.gamma + s.gamma_prime - 1.0) <= 1e-15):
                ok, detail = False, f"{variant} T={gap_len}: weights do not sum to 1"
                break
            if not np.all(np.diff(s.gamma) <= 0.0):
                ok, detail = False, f"{variant} T={gap_len}: gamma not non-increasing"
                break
            if gap_len >= 2:
                if variant == "linear" and not (
                        s.gamma[0] == 1.0 - 1.0 / gap_len and s.gamma[-1] == 0.0):
                    ok, detail = False, f"linear T={gap_len}: endpoint values wrong"
                    break
                if variant == "endpoint" and not (s.gamma[0] == 1.0 and s.gamma[-1] == 0.0):
                    ok, detail = False, f"endpoint T={gap_len}: endpoint values wrong"
                    break
            else:
                if s.gamma[0] != 0.5:
                    ok, detail = False, f"{variant} T=1: expected the balanced 0.5"
                    break
        if not ok:
            break
    _report(2, "scaling-schedule invariants", ok, detail or "T=1..1000, both variants")


def test_c3_merge_path_gradient_scaling():
    rng = Rng(0)
    params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=3), rng)
    window = ImputationWindow(rng.normal_array((3, 1)), rng.normal_array((3, 1)),
                              rng.normal_array((3, 1)))
    schedule = make_schedule(3, "linear")
    trace = forward(params, [window], schedule)
    (base_fw,), _ = merge_input_grads(params, trace, schedule, [window.missing])
    ok = True
    worst = 0.0
    for c in (0.0, 2.0):
        for t_mod in range(3):
            gamma = schedule.gamma.copy()
            gamma[t_mod] = c * gamma[t_mod]
            scaled = ScalingSchedule(3, gamma, schedule.gamma_prime.copy(), "linear")
            (mod_fw,), _ = merge_input_grads(params, trace, scaled, [window.missing])
            err = float(np.max(np.abs(mod_fw[t_mod] - c * base_fw[t_mod])))
            worst = max(worst, err)
            ok = ok and err <= 1e-12
            for t in range(3):
                if t != t_mod:
                    ok = ok and np.array_equal(mod_fw[t], base_fw[t])
    _report(3, "merge-path gradient scaling", ok, f"worst deviation {worst:.1e} at c in {{0,2}}")


def test_c4_directional_benchmark():
    started = time.perf_counter()
    variants = ["seq2seqImp", "seq2seqImp-noscale", "seq2seq"]
    results = {v: [] for v in variants}
    for seed in range(5):
        table = synth("sum-of-sines", 2000, noise_std=0.05, seed=seed)
        dataset = BenchmarkDataset(f"sos{seed}", table)
        cfg = BenchmarkConfig(
            window=WindowSpec(10, 10, 10, 2),
            train=TrainConfig(lr=5e-3, epochs=12, batch_size=32, seed=seed, patience=4),
            network=NetworkConfig(hidden_dim=16),
        )
        report = run_benchmark([dataset], variants, cfg)
        for v in variants:
            results[v].append(report.cells[(dataset.label, v)].metrics.mae)
    elapsed = time.perf_counter() - started
    med = {v: statistics.median(xs) for v, xs in results.items()}
    ok = (med["seq2seqImp"] < med["seq2seqImp-noscale"]
          and med["seq2seqImp"] < med["seq2seq"]
          and elapsed < 300.0)
    _report(4, "directional benchmark", ok,
            f"median MAE scaled {med['seq2seqImp']:.4f} vs noscale "
            f"{med['seq2seqImp-noscale']:.4f} vs forward-only {med['seq2seq']:.4f}, "
            f"{elapsed:.0f}s")


def test_c5_metric_oracles():
    rng = Rng(55)
    ok = mae([2.0, 2.0], [1.0, 3.0]) == 1.0 and mre([2.0, 2.0], [1.0, 3.0]) == 0.5
    worst = 0.0
    for _ in range(100):
        n = 1 + rng.randrange(30)
        truth = [rng.uniform(-50.0, 50.0) for _ in range(n)]
        pred = [rng.uniform(-50.0, 50.0) for _ in range(n)]
        worst = max(worst, abs(mae(truth, pred) - mae_loop(truth, pred)))
        worst = max(worst, abs(mre(truth, pred) - mre_loop(truth, pred)))
        ok = ok and worst <= 1e-12
    _report(5, "metric oracles", ok, f"worst deviation from reference loop {worst:.1e}")


def test_c6_borda_correctness():
    rng = Rng(66)
    ok = True
    detail = ""
    for trial in range(200):
        n_models = 2 + rng.randrange(5)   # up to 6
        n_datasets = 1 + rng.randrange(34)
        grid = [[rng.uniform(0.1, 10.0) for _ in range(n_models)] for _ in range(n_datasets)]
        dominator = rng.randrange(n_models)
        dominated = (dominator + 1 + rng.randrange(n_models - 1)) % n_models
        for errs in grid:
            errs[dominator] = errs[dominated] * rng.uniform(0.05, 0.95)
        totals = [0.0] * n_models
        for errs in grid:
            points = borda_points(errs)
            if sorted(points) != list(range(1, n_models + 1)):
                ok, detail = False, f"trial {trial}: points not a permutation"
                break
            for i, p in enumerate(points):
                totals[i] += p
        if not ok:
            break
        if totals[dominator] <= totals[dominated]:
            ok, detail = False, f"trial {trial}: dominated model ranked at least as high"
            break
    # tie handling keeps the per-dataset total intact
    tied = borda_points([1.0, 1.0, 2.0])
    ok = ok and tied == [2.5, 2.5, 1.0]
    _report(6, "Borda correctness", ok, detail or "200 random grids + tie handling")


def test_c7_determinism_and_persistence(tmp_path):
    table = synth("sine", 200, noise_std=0.05, seed=0, period=20.0)
    train_part, _ = split_train_test(table, 0.5)
    stats = compute_norm_stats(train_part)
    windows = extract_windows(normalize_table(train_part, stats), WindowSpec(4, 3, 4, 1))
    fit, val = split_validation(windows, 0.1)
    net = NetworkConfig(input_dim=1, hidden_dim=6)
    cfg = TrainConfig(lr=5e-3, epochs=4, batch_size=16, seed=0)

    params_a, _ = train(net, fit, val, cfg)
    params_b, _ = train(net, fit, val, cfg)
    save_checkpoint(tmp_path / "a.ckpt", params_a, stats)
    save_checkpoint(tmp_path / "b.ckpt", params_b, stats)
    identical = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    loaded, _ = load_checkpoint(tmp_path / "a.ckpt")
    rng = Rng(1)
    before, after = rng.normal_array((4, 1)), rng.normal_array((4, 1))
    bitwise = np.array_equal(impute(params_a, [before], [after], [3])[0],
                             impute(loaded, [before], [after], [3])[0])
    shapes = all(np.array_equal(ta, tb) for (_, ta), (_, tb)
                 in zip(iter_params(params_a), iter_params(loaded)))
    _report(7, "determinism and persistence", identical and bitwise and shapes,
            "bit-identical checkpoints and round-trip predictions")


def test_c8_pipeline_fidelity():
    # the 10-row fixture: rows 3..10 (1-based) form the test side
    table = SeriesTable(["v"], np.arange(1.0, 11.0)[:, None], np.zeros((10, 1), bool))
    train_part, test_part = split_train_test(table, 0.8)
    split_ok = (np.array_equal(train_part.values[:, 0], [1.0, 2.0])
                and np.array_equal(test_part.values[:, 0], np.arange(3.0, 11.0)))

    counts_ok = True
    for n in range(1, 31):
        values = np.arange(float(n))[:, None]
        tbl = SeriesTable(["v"], values, np.zeros((n, 1), bool))
        for before in (1, 2, 3):
            for gap in (1, 2):
                for after in (1, 3):
                    for stride in (1, 2, 3):
                        spec = WindowSpec(before, gap, after, stride)
                        if n < spec.total:
                            continue
                        got = len(extract_windows(tbl, spec))
                        formula = (n - spec.total) // stride + 1
                        brute = len(enumerate_window_starts(n, spec.total, stride))
                        counts_ok = counts_ok and got == formula == brute
    _report(8, "pipeline fidelity", split_ok and counts_ok,
            "80% tail split and exhaustive window counts, n <= 30")
