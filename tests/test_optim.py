import os
import pickle

import numpy as np
import pytest

from hcal import dataset, optim
from hcal.dataset import softmax_rows
from hcal.loss import HCalConfig
from hcal.maps import EnsembleTempMap, init_map
from hcal.metrics import ece_ew
from hcal.optim import (
    AdamState,
    CandidateReport,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    standard_grid,
    select_model,
    train_one,
)
from hcal.synthetic import make_calibrated_task, make_overconfident_task

FAST = dict(max_epochs=60, scheduler_patience=5, early_stop_patience=20)


class TestAdamStep:
    def test_zero_gradient_no_move(self):
        params = np.array([1.0, -2.0])
        state = AdamState.zeros(2)
        out = adam_step(params, np.zeros(2), state, lr=0.1)
        np.testing.assert_array_equal(out, params)
        assert state.step == 1

    def test_single_step_closed_form(self):
        # from zero state: m_hat = g, v_hat = g^2, so the step is
        # -lr * g / (|g| + eps)
        g = np.array([0.3, -4.0])
        state = AdamState.zeros(2)
        out = adam_step(np.zeros(2), g, state, lr=0.01)
        expected = -0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_constant_gradient_asymptotic_step(self):
        # with a constant gradient the update magnitude approaches
        # lr * sign(g)
        params = np.zeros(1)
        g = np.array([0.37])
        state = AdamState.zeros(1)
        prev = params
        for _ in range(10000):
            prev, params = params, adam_step(params, g, state, lr=1e-3)
        step = params - prev
        np.testing.assert_allclose(step, -1e-3 * np.sign(g), rtol=1e-4)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            adam_step(np.zeros(2), np.zeros(3), AdamState.zeros(2), lr=0.1)


class TestTrainConfigValidation:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.max_epochs == 2000
        assert cfg.lr == 0.005
        assert cfg.scheduler_patience == 20
        assert cfg.early_stop_patience == 160

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(scheduler_factor=1.5)
        with pytest.raises(ValueError):
            TrainConfig(early_stop_patience=0)

    @pytest.mark.parametrize("option", ["monitor_metric", "selector_metric"])
    def test_unknown_metric_id_names_the_option(self, option):
        with pytest.raises(ValueError, match=f"^{option}: unknown metric 'bogus'"):
            TrainConfig(**{option: "bogus"})

    def test_negative_seed_names_the_option(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            TrainConfig(seed=-1)


class TestTrainOne:
    def test_zero_epochs_returns_initial_map(self):
        task, _ = make_calibrated_task(n=200, seed=0)
        cal_map = init_map("ensemble_temp", 2, seed=0)
        before = cal_map.params.copy()
        trained, history = train_one(cal_map, task, "nll", TrainConfig(max_epochs=0))
        np.testing.assert_array_equal(trained.params, before)
        assert history.records == []
        assert history.best_epoch == -1

    def test_temperature_recovery_quick(self):
        # scaled-down version of the synthetic-recalibration check; the NLL
        # monitor snapshots the maximum-likelihood temperature
        task = make_overconfident_task(
            n_train=1500, n_test=100, temperature=0.4, seed=3
        )
        trained, _ = train_one(
            EnsembleTempMap(1, seed=0), task.train, "nll",
            TrainConfig(max_epochs=800, seed=0, monitor_metric="nll"),
        )
        t = float(np.exp(trained.params[0]))
        assert 1.0 / t == pytest.approx(0.4, rel=0.10)

    def test_calibrated_input_does_not_degrade(self):
        task, _ = make_calibrated_task(n=3000, n_classes=5, seed=1)
        start = ece_ew(softmax_rows(task.logits), task.labels)
        trained, history = train_one(
            init_map("ensemble_temp", 4, seed=0), task,
            HCalConfig(window=50), TrainConfig(seed=0, **FAST),
        )
        end = ece_ew(trained.forward(task.logits).probs, task.labels)
        assert end <= start + 0.005

    def test_deterministic_history(self):
        task, _ = make_calibrated_task(n=400, seed=2)
        runs = []
        for _ in range(2):
            _, history = train_one(
                init_map("piecewise_linear", 5, seed=7), task,
                HCalConfig(window=20), TrainConfig(seed=7, **FAST),
            )
            runs.append([(r.loss, r.metric, r.lr) for r in history.records])
        assert runs[0] == runs[1]

    def test_best_snapshot_contract(self):
        task, _ = make_calibrated_task(n=500, seed=4)
        cfg = TrainConfig(seed=1, **FAST)
        trained, history = train_one(
            init_map("ensemble_temp", 2, seed=1), task, "brier", cfg
        )
        metrics = [r.metric for r in history.records]
        assert history.best_epoch == int(np.argmin(metrics))
        probs = trained.forward(task.logits).probs
        re_eval = ece_ew(probs, task.labels)
        assert abs(re_eval - min(metrics)) < 1e-12

    def test_lr_schedule_monotone_and_exact_drops(self):
        task, _ = make_calibrated_task(n=300, seed=5)
        cfg = TrainConfig(seed=0, max_epochs=50, scheduler_patience=3,
                          early_stop_patience=40)
        _, history = train_one(
            init_map("ensemble_temp", 2, seed=0), task, "nll", cfg
        )
        lrs = [r.lr for r in history.records]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        distinct = sorted(set(lrs), reverse=True)
        for a, b in zip(distinct, distinct[1:]):
            assert b == pytest.approx(a * 0.5, rel=1e-12)

    def test_early_stop_bound(self):
        task, _ = make_calibrated_task(n=300, seed=6)
        cfg = TrainConfig(seed=0, max_epochs=500, scheduler_patience=4,
                          early_stop_patience=12)
        _, history = train_one(
            init_map("ensemble_temp", 2, seed=0), task, "brier", cfg
        )
        if len(history.records) < 500:  # stopped early
            assert len(history.records) - 1 - history.best_epoch <= 12

    def test_mini_batch_mode_runs(self):
        task, _ = make_calibrated_task(n=256, seed=8)
        cfg = TrainConfig(seed=0, max_epochs=10, batch_size=64,
                          scheduler_patience=3, early_stop_patience=8)
        trained, history = train_one(
            init_map("ensemble_temp", 2, seed=0), task, HCalConfig(window=16), cfg
        )
        assert len(history.records) >= 1

    def test_dataset_smaller_than_window_rejected(self):
        task, _ = make_calibrated_task(n=10, n_classes=2, seed=9)
        with pytest.raises(ValueError, match="exceeds"):
            train_one(
                init_map("ensemble_temp", 1, seed=0), task,
                HCalConfig(window=200), TrainConfig(max_epochs=2),
            )

    @pytest.mark.parametrize("batch_size, per_epoch", [(None, 1), (64, 5)])
    def test_forward_calls_per_epoch(self, monkeypatch, batch_size, per_epoch):
        # full batch: the monitor forward after each update is the next
        # epoch's training forward; mini-batch: one forward per batch plus
        # the monitor
        calls = []
        forward = EnsembleTempMap.forward
        monkeypatch.setattr(EnsembleTempMap, "forward",
                            lambda self, logits: calls.append(1) or forward(self, logits))
        task, _ = make_calibrated_task(n=256, seed=10)
        epochs = 6
        _, history = train_one(
            init_map("ensemble_temp", 2, seed=0), task, HCalConfig(window=30),
            TrainConfig(seed=0, max_epochs=epochs, batch_size=batch_size,
                        early_stop_patience=epochs + 1),
        )
        assert len(history.records) == epochs
        expected = epochs + 1 if batch_size is None else epochs * per_epoch
        assert len(calls) == expected

    def test_batch_of_n_or_more_is_the_full_batch(self, monkeypatch):
        # bit for bit: same history, parameters and E + 1 forwards
        calls = []
        forward = EnsembleTempMap.forward
        monkeypatch.setattr(EnsembleTempMap, "forward",
                            lambda self, logits: calls.append(1) or forward(self, logits))
        task, _ = make_calibrated_task(n=256, seed=10)
        epochs = 6
        runs = []
        for batch_size in (None, 256, 1000):
            calls.clear()
            trained, history = train_one(
                init_map("ensemble_temp", 2, seed=0), task, HCalConfig(window=30),
                TrainConfig(seed=0, max_epochs=epochs, batch_size=batch_size,
                            early_stop_patience=epochs + 1),
            )
            assert len(calls) == epochs + 1
            runs.append((trained.params.tobytes(),
                         [(r.loss, r.metric, r.lr) for r in history.records],
                         history.best_epoch, history.best_probs.tobytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_short_last_batch_is_one_of_the_batches(self, monkeypatch):
        # 1010 samples in batches of 100: ten full batches and one of 10 per
        # epoch, each with its own forward, plus the monitor forward
        sizes = []
        forward = EnsembleTempMap.forward
        monkeypatch.setattr(EnsembleTempMap, "forward",
                            lambda self, logits: sizes.append(len(logits)) or forward(self, logits))
        task, _ = make_calibrated_task(n=1010, seed=4)
        epochs = 3
        train_one(init_map("ensemble_temp", 2, seed=0), task, "nll",
                  TrainConfig(seed=0, max_epochs=epochs, batch_size=100,
                              early_stop_patience=epochs + 1))
        assert sizes == epochs * ([100] * 10 + [10, 1010])

    def test_history_csv(self, tmp_path):
        task, _ = make_calibrated_task(n=200, seed=11)
        _, history = train_one(
            init_map("ensemble_temp", 2, seed=0), task, "nll",
            TrainConfig(seed=0, max_epochs=5, scheduler_patience=2,
                        early_stop_patience=4),
        )
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,metric,lr"
        assert len(lines) == len(history.records) + 1


class TestSelectModel:
    def test_single_candidate_returned(self):
        task, _ = make_calibrated_task(n=300, seed=0)
        cfg = TrainConfig(seed=0, selector_metric="ece_ew", **FAST)
        best, _, reports = select_model(
            task, [("ensemble_temp", 2)], "nll", cfg
        )
        assert best.family == "ensemble_temp"
        assert len(reports) == 1

    def test_identity_candidate_never_loses_on_calibrated_data(self):
        # on already-calibrated data the winner's selector value is the
        # minimum across candidates (the near-identity candidate cannot lose
        # to anything worse)
        task, _ = make_calibrated_task(n=2000, n_classes=4, seed=1)
        cfg = TrainConfig(seed=0, selector_metric="ece_ew", **FAST)
        best, _, reports = select_model(
            task,
            [("ensemble_temp", 1), ("piecewise_linear", 3)],
            HCalConfig(window=100),
            cfg,
        )
        winner = next(r for r in reports if r.family == best.family)
        assert winner.selector_value == min(r.selector_value for r in reports)

    def test_tie_break_declaration_order(self):
        # m=1 and m=2 ensembles are bit-identical at init (uniform weights of
        # equal members), so with zero epochs the selector ties exactly and
        # the first-declared candidate must win
        task, _ = make_calibrated_task(n=200, seed=2)
        cfg = TrainConfig(seed=0, selector_metric="ece_ew", max_epochs=0)
        best, _, reports = select_model(
            task, [("ensemble_temp", 2), ("ensemble_temp", 1)], "brier", cfg
        )
        assert reports[0].selector_value == reports[1].selector_value
        assert best.hyper() == (2, 0)

    @pytest.mark.parametrize("epochs", [0, 3])
    def test_selector_scores_the_best_monitor_forward(self, monkeypatch, epochs):
        # full batch: E + 1 forwards per candidate, none more for the
        # selector; the value equals a fresh forward's, bit for bit
        calls = []
        forward = EnsembleTempMap.forward
        monkeypatch.setattr(EnsembleTempMap, "forward",
                            lambda self, logits: calls.append(1) or forward(self, logits))
        monkeypatch.setattr(dataset, "_WORKERS", 1)  # a child's calls are not counted here
        task, _ = make_calibrated_task(n=256, seed=10)
        cfg = TrainConfig(seed=0, max_epochs=epochs, early_stop_patience=epochs + 1,
                          selector_metric="ece_ew")
        best, _, reports = select_model(task, [("ensemble_temp", 2), ("ensemble_temp", 3)],
                                        HCalConfig(window=30), cfg)
        assert len(calls) == 2 * (epochs + 1)
        assert min(r.selector_value for r in reports) == ece_ew(best.forward(task.logits).probs,
                                                                task.labels)

    def test_forward_blow_up_marks_candidate_failed(self):
        # at lr=1000 the monotonic_net's first update makes its next forward
        # non-finite; the candidate fails and the grid goes on
        task = make_overconfident_task(n_train=500, n_test=10, n_classes=10, seed=0)
        _, _, reports = select_model(
            task.train, [("monotonic_net", (2, 2)), ("ensemble_temp", 16)],
            HCalConfig(), TrainConfig(max_epochs=3, lr=1000.0),
        )
        assert [r.failed for r in reports] == [True, False]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_any_worker_count_selects_the_same(self, workers, monkeypatch):
        # each candidate trains in its own process slot; every output but
        # the wall times is the one-process run's, byte for byte
        task = make_overconfident_task(n_train=300, n_test=10, n_classes=5, seed=6)
        grid = [("ensemble_temp", 2), ("piecewise_linear", 3), ("monotonic_net", (2, 2)),
                ("ensemble_temp", 1), ("piecewise_linear", 10)]
        cfg = TrainConfig(seed=1, max_epochs=4, selector_metric="ece_ew")

        def run():
            log = []
            best, history, reports = select_model(task.train, grid, HCalConfig(window=50), cfg,
                                                  log_fn=log.append)
            assert history.best_probs is None and history.wall_time > 0
            history.wall_time = 0.0
            for rep in reports:
                rep.wall_time = 0.0
            return pickle.dumps((best.family, best.sizes, best.params, history, reports, log))

        monkeypatch.setattr(dataset, "_WORKERS", 1)
        alone = run()
        monkeypatch.setattr(dataset, "_WORKERS", workers)
        assert run() == alone
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_candidate_keeps_its_slot(self, workers, monkeypatch):
        # candidate 1 runs in a child for two or more workers
        monkeypatch.setattr(dataset, "_WORKERS", workers)
        task = make_overconfident_task(n_train=500, n_test=10, n_classes=10, seed=0)
        grid = [("ensemble_temp", 16), ("monotonic_net", (2, 2)), ("ensemble_temp", 2)]
        log = []
        _, _, reports = select_model(task.train, grid, HCalConfig(),
                                     TrainConfig(max_epochs=3, lr=1000.0), log_fn=log.append)
        assert [r.failed for r in reports] == [False, True, False]
        assert reports[1] == CandidateReport("monotonic_net", (2, 2), float("inf"), 0, -1, 0.0,
                                             failed=True)
        assert [line for line in log if line.startswith("candidate")] == [
            f"candidate ensemble_temp {r.hyper[0]}: dece = {r.selector_value:.6g}"
            for r in (reports[0], reports[2])]

    @pytest.mark.parametrize("workers,after", [(1, [1, 2, 3]), (2, [1, 2, 2])])
    def test_lines_are_logged_once_their_turn_comes(self, workers, after, monkeypatch):
        # one process logs every candidate as it trains; with two, candidate
        # 0 logs as it trains and candidate 1, trained in a child, once this
        # process has trained candidate 2 as well
        monkeypatch.setattr(dataset, "_WORKERS", workers)
        started = []
        real = optim.train_one
        monkeypatch.setattr(optim, "train_one", lambda *a, **k: started.append(1) or real(*a, **k))
        task, _ = make_calibrated_task(n=200, seed=11)
        seen = []
        select_model(task, [("ensemble_temp", 1), ("ensemble_temp", 2), ("ensemble_temp", 3)],
                     "brier", TrainConfig(max_epochs=2, selector_metric="ece_ew"),
                     log_fn=lambda line: seen.append((len(started), line)))
        assert [line.split()[0] for _, line in seen] == ["epoch", "epoch", "candidate"] * 3
        assert [n for n, _ in seen] == [n for n in after for _ in range(3)]

    def test_short_tail_batch_rejected_before_training(self):
        # 1010 samples in batches of 100 leave a 10-sample tail batch: 50
        # atomic events, fewer than the default window of 200
        task, _ = make_calibrated_task(n=1010, n_classes=5, seed=4)
        log = []
        with pytest.raises(ValueError, match="window 200 exceeds .* 10-sample batch.*batch_size"):
            select_model(task, [("ensemble_temp", 16)], HCalConfig(),
                         TrainConfig(max_epochs=2, batch_size=100), log_fn=log.append)
        assert log == []

    def test_too_few_samples_for_selector_rejected_before_training(self):
        # dece needs two samples in each of its 15 equal-mass bins
        task, _ = make_calibrated_task(n=25, n_classes=2, seed=5)
        log = []
        with pytest.raises(ValueError, match="selector_metric 'dece' cannot score 25"):
            select_model(task, [("ensemble_temp", 16)], HCalConfig(window=10),
                         TrainConfig(max_epochs=2), log_fn=log.append)
        assert log == []

    def test_empty_candidates_rejected(self):
        task, _ = make_calibrated_task(n=100, seed=3)
        with pytest.raises(ValueError, match="candidate"):
            select_model(task, [], "nll", TrainConfig())

    def test_standard_grid_composition(self):
        grid = standard_grid()
        assert len(grid) == 12
        assert ("ensemble_temp", 16) in grid
        assert ("piecewise_linear", 500) in grid
        assert ("monotonic_net", (50, 50)) in grid


@pytest.mark.slow
def test_standard_grid_smoke_full_scale():
    # all 12 candidates run to completion at benchmark scale; epochs are
    # capped so this checks plumbing and memory, not convergence
    task = make_overconfident_task(n_train=5000, n_test=100, seed=0)
    cfg = TrainConfig(seed=0, max_epochs=3, scheduler_patience=2,
                      early_stop_patience=3, selector_metric="ece_ew")
    best, _, reports = select_model(task.train, standard_grid(), HCalConfig(), cfg)
    assert len(reports) == 12
    assert not any(r.failed for r in reports)
