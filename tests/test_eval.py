import csv
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gapfill.eval as eval_module
import gapfill.optim
from gapfill.data import (
    DataError,
    SeriesTable,
    WindowSpec,
    synth,
)
from gapfill.eval import (
    BenchmarkConfig,
    BenchmarkDataset,
    EvalCell,
    EvalReport,
    MetricPair,
    ModelVariant,
    borda,
    borda_points,
    borda_rows,
    format_borda,
    format_report,
    mae,
    mre,
    report_rows,
    run_benchmark,
)
from gapfill.model import NetworkConfig, forward, init_model_params, make_schedule
from gapfill.numerics import Rng
from gapfill.optim import TrainConfig

from _reference import mae_loop, mre_loop, v1_tensors
from test_model import random_window


class TestMetrics:
    def test_perfect_prediction(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mre([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_worked_example(self):
        assert mae([2.0, 2.0], [1.0, 3.0]) == 1.0
        assert mre([2.0, 2.0], [1.0, 3.0]) == 0.5

    def test_scaling_behaviour(self):
        truth = np.array([1.0, -2.0, 3.0])
        pred = np.array([0.5, -1.0, 4.0])
        for c in (2.0, 10.0):
            assert mae(c * truth, c * pred) == pytest.approx(c * mae(truth, pred), rel=1e-12)
            assert mre(c * truth, c * pred) == pytest.approx(mre(truth, pred), rel=1e-12)

    def test_all_zero_truth_rejected_for_mre(self):
        with pytest.raises(ValueError, match="all-zero"):
            mre([0.0, 0.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])

    def test_matches_reference_loop(self):
        rng = Rng(99)
        for _ in range(100):
            n = 1 + rng.randrange(20)
            truth = [rng.uniform(-10, 10) for _ in range(n)]
            pred = [rng.uniform(-10, 10) for _ in range(n)]
            assert mae(truth, pred) == pytest.approx(mae_loop(truth, pred), abs=1e-12)
            if sum(abs(t) for t in truth) > 0:
                assert mre(truth, pred) == pytest.approx(mre_loop(truth, pred), abs=1e-12)


class TestBordaPoints:
    def test_worst_gets_one_best_gets_n(self):
        assert borda_points([3.0, 1.0, 2.0]) == [1.0, 3.0, 2.0]

    def test_two_model_example(self):
        # A always best over three datasets: A sums 6, B sums 3
        total_a = total_b = 0.0
        for errs in ([1.0, 2.0], [0.5, 0.9], [3.0, 7.0]):
            pa, pb = borda_points(errs)
            total_a += pa
            total_b += pb
        assert (total_a, total_b) == (6.0, 3.0)

    def test_tie_shares_mean_rank(self):
        assert borda_points([1.0, 1.0, 2.0]) == [2.5, 2.5, 1.0]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            borda_points([1.0, float("nan")])

    @given(st.lists(st.floats(0.1, 100, allow_nan=False), min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_points_sum_to_triangle_number(self, errors):
        points = borda_points(errors)
        n = len(errors)
        assert sum(points) == pytest.approx(n * (n + 1) / 2)
        if len(set(errors)) == n:
            assert sorted(points) == list(range(1, n + 1))


def grid_report(errors_by_dataset, models):
    datasets = list(errors_by_dataset)
    cells = {}
    for ds, errs in errors_by_dataset.items():
        for m, e in zip(models, errs):
            cells[(ds, m)] = EvalCell(MetricPair(e, e / 10.0))
    ranges = {ds: (0.0, 1.0) for ds in datasets}
    return EvalReport(datasets, list(models), cells, ranges)


class TestBorda:
    def test_sums_across_datasets(self):
        report = grid_report({"d1": [1.0, 2.0], "d2": [0.5, 0.9], "d3": [3.0, 7.0]}, ["A", "B"])
        table = borda(report, "mae")
        assert table.totals == {"A": 6.0, "B": 3.0}

    def test_incomplete_grid_rejected(self):
        report = grid_report({"d1": [1.0, 2.0]}, ["A", "B"])
        report.cells[("d1", "B")] = EvalCell(None, "diverged")
        with pytest.raises(ValueError, match="failed"):
            borda(report, "mae")

    def test_unknown_metric_rejected(self):
        report = grid_report({"d1": [1.0, 2.0]}, ["A", "B"])
        with pytest.raises(ValueError):
            borda(report, "rmse")

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_domination_implies_higher_total(self, seed):
        rng = Rng(seed)
        n_models = 2 + rng.randrange(5)
        n_datasets = 1 + rng.randrange(34)
        models = [f"m{i}" for i in range(n_models)]
        grid = {f"d{j}": [rng.uniform(0.1, 10.0) for _ in range(n_models)]
                for j in range(n_datasets)}
        # force model 0 to dominate model 1 on every dataset
        for errs in grid.values():
            errs[0] = errs[1] * rng.uniform(0.1, 0.9)
        report = grid_report(grid, models)
        table = borda(report, "mae")
        assert table.totals["m0"] > table.totals["m1"]
        for ds in report.datasets:
            assert sum(table.per_dataset[ds].values()) == pytest.approx(
                n_models * (n_models + 1) / 2)


def tiny_benchmark_config(seed=0, epochs=4, hidden=4):
    return BenchmarkConfig(
        window=WindowSpec(4, 3, 4, 1),
        train=TrainConfig(lr=5e-3, epochs=epochs, batch_size=8, seed=seed, patience=10),
        network=NetworkConfig(hidden_dim=hidden),
        test_fraction=0.5,
    )


class TestRunBenchmark:
    def test_grid_is_complete(self):
        datasets = [BenchmarkDataset(f"sine:{i}", synth("sine", 120, 0.05, seed=i, period=15.0))
                    for i in range(2)]
        variants = [v.value for v in ModelVariant]
        report = run_benchmark(datasets, variants, tiny_benchmark_config())
        assert report.complete
        assert len(report.cells) == len(datasets) * len(variants)
        assert set(report.datasets) == {"sine:0", "sine:1"}
        for cell in report.cells.values():
            assert cell.metrics.mae >= 0.0

    def test_nearly_constant_series_is_easy(self):
        # tiny-amplitude wave around a constant level: every variant should
        # land very close to the truth
        base = synth("sine", 160, 0.0, seed=0, period=8.0)
        table = SeriesTable(["v"], 100.0 + 0.01 * base.values, base.missing.copy())
        report = run_benchmark([BenchmarkDataset("flat:0", table)],
                               ["seq2seqImp", "seq2seq"],
                               tiny_benchmark_config(epochs=8))
        for cell in report.cells.values():
            assert cell.metrics.mae < 0.05
            assert cell.metrics.mre < 0.0005

    def test_forward_variant_ignores_backward_parameters(self):
        rng = Rng(31)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=3), rng)
        window = random_window(rng, 1, 4, 3, 4)
        schedule = make_schedule(3)
        base = forward(params, [window], schedule)
        tensors = v1_tensors(params)
        tensors["enc_bw.w_i"] += 5.0
        tensors["dec_bw.u_f"] -= 2.0
        tensors["head_bw.w"] += 1.0
        perturbed = forward(params, [window], schedule)
        for t in range(3):
            assert np.array_equal(base.pred_fw[0, t], perturbed.pred_fw[0, t])
            assert not np.array_equal(base.pred_bw[0, t], perturbed.pred_bw[0, t])

    def test_zero_forward_weight_makes_merge_ignore_forward_stream(self):
        from gapfill.model import ScalingSchedule

        rng = Rng(37)
        params = init_model_params(NetworkConfig(input_dim=1, hidden_dim=3), rng)
        window = random_window(rng, 1, 4, 3, 4)
        schedule = ScalingSchedule(3, np.zeros(3), np.ones(3), "linear")
        base = forward(params, [window], schedule)
        tensors = v1_tensors(params)
        tensors["dec_fw.u_g"] += 3.0  # perturb the forward decoder
        tensors["enc_fw.w_i"] -= 1.0
        perturbed = forward(params, [window], schedule)
        for t in range(3):
            assert np.array_equal(base.merged[0, t], perturbed.merged[0, t])

    def test_ranges_reflect_raw_data(self):
        table = synth("sine", 120, 0.0, seed=0, period=4.0)
        report = run_benchmark([BenchmarkDataset("s:0", table)], ["seq2seq"],
                               tiny_benchmark_config(epochs=2))
        lo, hi = report.ranges["s:0"]
        assert lo == -1.0
        assert hi == 1.0

    def test_duplicate_labels_rejected(self):
        table = synth("sine", 120, 0.0, seed=0, period=15.0)
        datasets = [BenchmarkDataset("x", table), BenchmarkDataset("x", table)]
        with pytest.raises(ValueError, match="unique"):
            run_benchmark(datasets, ["seq2seq"], tiny_benchmark_config())


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="workers are forked")


def one_dataset():
    return [BenchmarkDataset("d", synth("sine", 120, 0.05, seed=0, period=15.0))]


def two_datasets():
    return [*one_dataset(), BenchmarkDataset("e", synth("sine", 120, 0.05, seed=1, period=11.0))]


class TestVariantList:
    @pytest.mark.parametrize("variants", [["seq2seq", "seq2seq", "RNN_FW"], []],
                             ids=["repeated", "empty"])
    def test_repeated_or_no_variants_rejected(self, variants):
        with pytest.raises(ValueError, match="variant"):
            run_benchmark(one_dataset(), variants, tiny_benchmark_config(epochs=1))


class TestCellIsolation:
    # 22 rows at test_fraction 0.5 leave 11 training rows: one 11-row window
    SHORT = 22

    def test_too_few_training_windows_is_a_data_error(self):
        short = BenchmarkDataset("short", synth("sine", self.SHORT, 0.0, seed=0, period=15.0))
        with pytest.raises(DataError, match=r"^too few training windows \(1\)"):
            eval_module._prepare(short, tiny_benchmark_config())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_data_error_fails_only_its_cells(self, jobs):
        datasets = [BenchmarkDataset("ok", synth("sine", 120, 0.05, seed=0, period=15.0)),
                    BenchmarkDataset("short", synth("sine", self.SHORT, 0.0, seed=0,
                                                    period=15.0))]
        cfg = tiny_benchmark_config(epochs=1)
        cfg.jobs = jobs
        report = run_benchmark(datasets, ["seq2seqImp", "seq2seq"], cfg)
        assert sorted(report.failed_cells) == [("short", "seq2seq"), ("short", "seq2seqImp")]
        assert "too few training windows" in report.cells[("short", "seq2seq")].error
        assert report.cells[("ok", "seq2seqImp")].metrics is not None

    @needs_fork  # the patched trainer reaches workers through fork
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unexpected_exception_fails_only_its_cell(self, jobs, monkeypatch):
        # a dataset's networks train as one unit: an exception fails its cells only
        real_train_dataset = eval_module._train_dataset

        def flaky_train(job):
            if job[0] == "e":
                raise RuntimeError("worker blew up")
            return real_train_dataset(job)

        monkeypatch.setattr(eval_module, "_train_dataset", flaky_train)
        cfg = tiny_benchmark_config(epochs=1)
        cfg.jobs = jobs
        report = run_benchmark(two_datasets(), ["seq2seqImp", "seq2seq"], cfg)
        assert report.failed_cells == [("e", "seq2seqImp"), ("e", "seq2seq")]
        for variant in ("seq2seqImp", "seq2seq"):
            error = report.cells[("e", variant)].error
            assert error.endswith("RuntimeError: worker blew up")
            assert "in flaky_train" in error  # the traceback, a worker's included, is kept
            assert report.cells[("d", variant)].metrics is not None

    @needs_fork  # the patched pass reaches workers through fork
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_diverged_network_fails_only_its_cells(self, jobs, monkeypatch):
        variants = ["seq2seqImp", "RNN_FW", "seq2seq", "seq2seqImp-noscale"]
        cfg = tiny_benchmark_config(epochs=2)
        cfg.jobs = jobs
        clean = run_benchmark(two_datasets(), variants, cfg)
        real = gapfill.optim.loss_and_grads

        def forward_only_diverges(stack, windows, schedules):
            values, grads = real(stack, windows, schedules)
            return [math.nan if p.config.forward_only else v
                    for p, v in zip(stack.nets, values)], grads

        monkeypatch.setattr(gapfill.optim, "loss_and_grads", forward_only_diverges)
        report = run_benchmark(two_datasets(), variants, cfg)
        assert report.failed_cells == [("d", "seq2seq"), ("e", "seq2seq")]
        for dataset in ("d", "e"):
            assert (report.cells[(dataset, "seq2seq")].error
                    == "non-finite training loss at epoch 1, batch 0")
        # the networks that trained on are the ones a clean run trains
        assert {cell: result for cell, result in report.cells.items() if cell[1] != "seq2seq"} \
            == {cell: result for cell, result in clean.cells.items() if cell[1] != "seq2seq"}


@needs_fork
class TestWorkers:
    @pytest.mark.parametrize("jobs, trainings, workers",
                             [(500, 2, 1), (2, 2, 1), (3, 2, 1), (2, 1, 0)])
    def test_starts_one_worker_fewer_than_the_trainers(self, monkeypatch, jobs, trainings,
                                                       workers):
        # a training is one dataset's stack of networks, however many it holds
        started = []
        real_start = multiprocessing.context.ForkProcess.start

        def counting_start(proc):
            started.append(proc)
            real_start(proc)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
        cfg = tiny_benchmark_config(epochs=1)
        cfg.jobs = jobs
        report = run_benchmark(two_datasets()[:trainings], ["seq2seqImp", "seq2seq"], cfg)
        assert len(started) == workers
        assert report.complete

    def test_without_fork_jobs_above_one_trains_serially(self, monkeypatch):
        started = []
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", started.append)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        cfg = tiny_benchmark_config(epochs=1)
        cfg.jobs = 2
        report = run_benchmark(two_datasets(), ["seq2seqImp", "seq2seq"], cfg)
        assert started == []
        assert report.complete

    def test_a_dead_worker_fails_only_the_cells_it_took(self, monkeypatch):
        caller = os.getpid()
        died = multiprocessing.get_context("fork").Event()
        real_train_dataset = eval_module._train_dataset

        def train_or_die(job):
            if os.getpid() != caller:
                died.set()
                os._exit(1)
            assert died.wait(timeout=60)  # the worker has taken the other dataset
            return real_train_dataset(job)

        monkeypatch.setattr(eval_module, "_train_dataset", train_or_die)
        cfg = tiny_benchmark_config(epochs=1)
        cfg.jobs = 2
        report = run_benchmark(two_datasets(), ["seq2seqImp", "seq2seq"], cfg)
        assert len(report.failed_cells) == 2
        assert len({dataset for dataset, _ in report.failed_cells}) == 1
        for cell in report.failed_cells:
            assert report.cells[cell].error == ("training worker 1 exited with code 1 "
                                                "before returning this dataset")
        assert multiprocessing.active_children() == []

    def test_a_caller_that_raises_kills_its_workers(self, monkeypatch):
        caller = os.getpid()
        training = multiprocessing.get_context("fork").Event()
        real_train_dataset = eval_module._train_dataset

        def stuck_or_interrupted(job):
            if os.getpid() != caller:
                training.set()
                time.sleep(120)
                return real_train_dataset(job)
            assert training.wait(timeout=60)
            raise KeyboardInterrupt

        monkeypatch.setattr(eval_module, "_train_dataset", stuck_or_interrupted)
        cfg = tiny_benchmark_config(epochs=1)
        cfg.jobs = 2
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_benchmark(two_datasets(), ["seq2seqImp", "seq2seq"], cfg)
        assert time.monotonic() - started < 60
        assert multiprocessing.active_children() == []


class TestFormatting:
    def test_report_table_and_rows(self):
        report = grid_report({"d1": [1.0, 2.0], "d2": [0.5, 0.9]}, ["A", "B"])
        text = format_report(report)
        assert "d1" in text and "range" in text
        rows = report_rows(report)
        assert rows.splitlines()[0] == "dataset,variant,mae,mre,status"
        assert "d2,B,0.9,0.09,ok" in rows

    def test_failed_cell_marked(self):
        report = grid_report({"d1": [1.0, 2.0]}, ["A", "B"])
        report.cells[("d1", "B")] = EvalCell(None, "diverged")
        assert "FAILED" in format_report(report)
        assert "d1,B,,,failed" in report_rows(report)

    def test_text_tables_are_aligned_columns(self):
        report = grid_report({"d1": [1.0, 2.0], "long-dataset:0": [0.5, 0.123456]},
                             ["A", "seq2seqImp"])
        report.ranges["d1"] = (-1.5, 20.0)
        assert format_borda([borda(report, "mae"), borda(report, "mre")]) == (
            "metric  A  seq2seqImp\n"
            "------  -  ----------\n"
            "MAE     3  3         \n"
            "MRE     3  3         \n")
        report.cells[("d1", "A")] = EvalCell(None, "diverged")
        assert format_report(report) == (
            "dataset         range      A       seq2seqImp\n"
            "--------------  ---------  ------  ----------\n"
            "d1              [-1.5,20]  FAILED  2         \n"
            "long-dataset:0  [0,1]      0.5     0.1235    \n")
        assert report_rows(report) == (
            "dataset,variant,mae,mre,status\n"
            "d1,A,,,failed\n"
            "d1,seq2seqImp,2.0,0.2,ok\n"
            "long-dataset:0,A,0.5,0.05,ok\n"
            "long-dataset:0,seq2seqImp,0.123456,0.0123456,ok\n")

    def test_csv_rows_round_trip_names_with_commas_and_quotes(self):
        name, model = 'site,north "A":0', 'm,"x"'
        report = grid_report({name: [1.0, 2.0], "plain": [0.5, 0.9]}, ["A", model])
        report.cells[("plain", "A")] = EvalCell(None, "diverged")
        rows = list(csv.reader(report_rows(report).splitlines()))
        assert rows == [["dataset", "variant", "mae", "mre", "status"],
                        [name, "A", "1.0", "0.1", "ok"],
                        [name, model, "2.0", "0.2", "ok"],
                        ["plain", "A", "", "", "failed"],
                        ["plain", model, "0.9", "0.09", "ok"]]
        report.cells[("plain", "A")] = EvalCell(MetricPair(0.5, 0.05))
        tables = [borda(report, "mae")]
        rows = list(csv.reader(borda_rows(tables).splitlines()))
        assert rows == [["metric", "model", "points"], ["mae", "A", "4.0"], ["mae", model, "2.0"]]

    def test_borda_tables(self):
        report = grid_report({"d1": [1.0, 2.0], "d2": [0.5, 0.9]}, ["A", "B"])
        tables = [borda(report, "mae"), borda(report, "mre")]
        text = format_borda(tables)
        assert "MAE" in text and "MRE" in text
        rows = borda_rows(tables)
        assert "mae,A,4.0" in rows
