import csv
import re
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from hcal import cli, dataset, optim
from hcal.cli import (
    COMMAND_KEYS,
    CONFIG_KEYS,
    RunConfig,
    build_parser,
    main,
    merge_config,
    read_config_file,
)
from hcal.loss import LOSSES, NORMS, WEIGHTINGS, HCalConfig
from hcal.metrics import DEFAULT_BINS
from hcal.optim import TrainConfig, standard_grid
from hcal.dataset import LogitDataset, save_dataset, softmax_rows
from hcal.diagram import render_reliability_svg
from hcal.maps import init_map, load_map, save_map
from hcal.metrics import ece_ew, reliability_data
from hcal.synthetic import make_calibrated_task, make_overconfident_task


@pytest.fixture(scope="module")
def small_task(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    task = make_overconfident_task(
        n_train=400, n_test=300, n_classes=4, temperature=0.5, seed=0
    )
    train_path = root / "train.csv"
    test_path = root / "test.csv"
    save_dataset(task.train, train_path)
    save_dataset(task.test, test_path)
    return train_path, test_path


def read_csv(path, header):
    """The rows of a CSV report after its header, which must be ``header``."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    return rows[1:]


def report_values(path):
    """The metric -> value mapping of an ``eval --out`` CSV."""
    return {name: float(value) for name, value in read_csv(path, ["metric", "value"])}


def compare_rows(path):
    """The (calibrator, metric, value, rel_to_uncal) rows of a ``compare --out`` CSV."""
    rows = read_csv(path, ["calibrator", "metric", "value", "rel_to_uncal"])
    return [(name, mid, float(value), float(rel)) for name, mid, value, rel in rows]


FAST_FLAGS = [
    "--max-epochs", "40",
    "--window", "50",
]

# each command's positionals, with dataset paths that do not exist
MISSING_INPUTS = {
    "train": ["nope.csv", "m.hcal"],
    "eval": ["uncal", "nope.csv"],
    "diagram": ["uncal", "nope.csv", "d.svg"],
    "compare": ["nope.csv", "nope2.csv"],
}


def missing_inputs(command, tmp_path):
    return [arg if arg == "uncal" else str(tmp_path / arg) for arg in MISSING_INPUTS[command]]


class TestTrain:
    def test_happy_path_writes_artifacts(self, small_task, tmp_path, capsys):
        train_path, _ = small_task
        model = tmp_path / "model.hcal"
        rc = main([
            "train", str(train_path), str(model),
            "--family", "ensemble_temp", "--size", "4",
            "--selector-metric", "ece_ew", *FAST_FLAGS,
        ])
        assert rc == 0
        assert model.exists()
        assert (tmp_path / "model.hcal.history.csv").exists()
        assert (tmp_path / "model.hcal.meta.txt").exists()
        out = capsys.readouterr().out
        assert "best: ensemble_temp" in out

    def test_brier_single_temperature_baseline(self, small_task, tmp_path):
        train_path, _ = small_task
        model = tmp_path / "ts.hcal"
        rc = main([
            "train", str(train_path), str(model),
            "--loss", "brier", "--family", "ensemble_temp", "--size", "1",
            "--selector-metric", "ece_ew", "--max-epochs", "60",
        ])
        assert rc == 0
        loaded = load_map(model)
        assert loaded.family == "ensemble_temp"
        assert loaded.n_params == 2
        # overconfident task: the learned temperature relaxes the logits
        assert np.exp(loaded.params[0]) > 1.0

    def test_epsilon_flag_plumbs_through(self, small_task, tmp_path):
        train_path, _ = small_task
        model = tmp_path / "m.hcal"
        rc = main([
            "train", str(train_path), str(model),
            "--family", "ensemble_temp", "--size", "1",
            "--epsilon", "0.9",  # dead zone: loss identically zero
            "--selector-metric", "ece_ew", "--max-epochs", "5", "--window", "50",
        ])
        assert rc == 0
        loaded = load_map(model)
        np.testing.assert_array_equal(loaded.params, np.zeros(2))

    def test_verbose_logs_each_epoch_and_candidate_to_stderr(self, small_task, tmp_path, capsys):
        # stderr holds only the epoch and candidate lines
        train_path, _ = small_task
        argv = ["train", str(train_path), str(tmp_path / "m.hcal"), "--family",
                "piecewise_linear", "--selector-metric", "ece_ew", "--max-epochs", "5",
                "--window", "50"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert main([*argv, "--verbose"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        summary = re.findall(r"^  piecewise_linear (\d+): selector = (\S+), epochs = (\d+)$",
                             loud.out, re.MULTILINE)
        assert [z for z, _, _ in summary] == ["1", "10", "100", "500"]
        expected = []
        for z, value, epochs in summary:
            expected += [rf"epoch {e} loss \S+ ece_ew \S+ lr \S+" for e in range(1, int(epochs) + 1)]
            expected.append(rf"candidate piecewise_linear {z}: ece_ew = {re.escape(value)}")
        lines = loud.err.splitlines()
        assert len(lines) == len(expected)
        for line, pattern in zip(lines, expected):
            assert re.fullmatch(pattern, line), (line, pattern)

    def test_negative_seed_rejected_before_loading(self, tmp_path, capsys):
        rc = main(["train", *missing_inputs("train", tmp_path), "--seed", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err and "nope" not in err

    def test_missing_input_fails_with_message(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "nope.csv"), str(tmp_path / "m.hcal")])
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err


class TestWorkerCounts:
    def session(self, small_task, root, capsys):
        """The streams and files of a verbose default-grid train and a compare."""
        train_path, test_path = small_task
        model, report = root / "m.hcal", root / "cmp.csv"
        assert main(["train", str(train_path), str(model), "--max-epochs", "3",
                     "--window", "50", "--verbose"]) == 0
        train_streams = capsys.readouterr()
        assert main(["compare", str(train_path), str(test_path), "--calibrators",
                     "uncal,hcal,nll_ts", "--max-epochs", "3", "--window", "50",
                     "--metrics", "ece_ew,dece", "--out", str(report)]) == 0
        compare_streams = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(root.iterdir())}
        assert sorted(files) == ["cmp.csv", "m.hcal", "m.hcal.history.csv", "m.hcal.meta.txt"]
        return train_streams, compare_streams, files

    def test_outputs_are_byte_identical_for_any_worker_count(self, small_task, tmp_path,
                                                             monkeypatch, capsys):
        sessions = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(dataset, "_WORKERS", workers)
            sessions.append(self.session(small_task, tmp_path, capsys))
        lines = sessions[0][0].err.splitlines()
        assert sum(line.startswith("candidate ") for line in lines) == 12
        assert sessions[1] == sessions[0] and sessions[2] == sessions[0]


class TestEval:
    def test_identity_model_equals_uncal(self, small_task, tmp_path, capsys):
        train_path, test_path = small_task
        model = tmp_path / "id.hcal"
        main([
            "train", str(train_path), str(model),
            "--family", "ensemble_temp", "--size", "1",
            "--selector-metric", "ece_ew", "--max-epochs", "0",
        ])
        capsys.readouterr()  # drop the train output
        rc = main(["eval", str(model), str(test_path), "--metrics", "ece_ew,ks"])
        assert rc == 0
        out_model = capsys.readouterr().out
        rc = main(["eval", "uncal", str(test_path), "--metrics", "ece_ew,ks"])
        assert rc == 0
        out_uncal = capsys.readouterr().out
        assert out_model == out_uncal

    @pytest.mark.parametrize("sidecar", ["latin-1", "directory"])
    def test_sidecar_is_not_read(self, small_task, tmp_path, capsys, sidecar):
        # the sidecar is for people; eval reads only the .hcal file
        _, test_path = small_task
        model = tmp_path / "m.hcal"
        save_map(init_map("ensemble_temp", 16), model)
        side = tmp_path / "m.hcal.meta.txt"
        side.unlink()
        if sidecar == "directory":
            side.mkdir()
        else:
            side.write_bytes("note = caf\xe9\nseed = 3\n".encode("latin-1"))
        assert main(["eval", str(model), str(test_path), "--metrics", "ece_ew"]) == 0
        out_model = capsys.readouterr().out
        assert main(["eval", "uncal", str(test_path), "--metrics", "ece_ew"]) == 0
        assert capsys.readouterr().out == out_model

    def test_metric_selection_exact_rows(self, small_task, tmp_path, capsys):
        _, test_path = small_task
        rc = main([
            "eval", "uncal", str(test_path),
            "--metrics", "ece_ew,cwece_a,skce",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 0
        assert list(report_values(tmp_path / "r.csv")) == ["ece_ew", "cwece_a", "skce"]

    def test_csv_values_match_direct_computation(self, small_task, tmp_path):
        _, test_path = small_task
        out = tmp_path / "direct.csv"
        main(["eval", "uncal", str(test_path), "--metrics", "ece_ew", "--out", str(out)])
        values = report_values(out)
        task = make_overconfident_task(
            n_train=400, n_test=300, n_classes=4, temperature=0.5, seed=0
        )
        expected = ece_ew(softmax_rows(task.test.logits), task.test.labels)
        assert values["ece_ew"] == pytest.approx(expected, rel=1e-12)

    def test_class_count_mismatch_detected(self, small_task, tmp_path, capsys):
        train_path, _ = small_task
        model = tmp_path / "m4.hcal"
        main([
            "train", str(train_path), str(model),
            "--family", "ensemble_temp", "--size", "1",
            "--selector-metric", "ece_ew", "--max-epochs", "0",
        ])
        other = tmp_path / "six.csv"
        rng = np.random.default_rng(0)
        save_dataset(LogitDataset(rng.normal(size=(20, 6)), rng.integers(0, 6, 20)), other)
        rc = main(["eval", str(model), str(other)])
        assert rc == 1
        assert "class-count mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "diagram"])
    def test_non_finite_model_params_fail_with_message(self, small_task, tmp_path, capsys,
                                                       command):
        _, test_path = small_task
        cal_map = init_map("ensemble_temp", 2)
        cal_map.n_classes = 4
        cal_map.params[0] = np.nan
        model = tmp_path / "nan.hcal"
        save_map(cal_map, model)
        argv = [command, str(model), str(test_path)]
        if command == "diagram":
            argv.append(str(tmp_path / "r.svg"))
        rc = main(argv)
        assert rc == 1
        err = capsys.readouterr().err
        assert "nan.hcal: ensemble_temp(m=2) has a non-finite parameter at index 0: nan" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_forward_blow_up_fails_with_message(self, small_task, tmp_path, capsys):
        # a finite raw log-temperature of -1000 gives T = 0; numpy's overflow
        # warnings would raise here, so the forward's check is the one report
        _, test_path = small_task
        cal_map = init_map("ensemble_temp", 2)
        cal_map.n_classes = 4
        cal_map.params[0] = -1000.0
        model = tmp_path / "cold.hcal"
        save_map(cal_map, model)
        rc = main(["eval", str(model), str(test_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: non-finite probabilities in forward pass (parameter blow-up?)\n")

    def test_unknown_metric_fails(self, small_task, capsys):
        _, test_path = small_task
        rc = main(["eval", "uncal", str(test_path), "--metrics", "bogus"])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err


class TestDiagram:
    def test_byte_deterministic(self, small_task, tmp_path):
        _, test_path = small_task
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["diagram", "uncal", str(test_path), str(a)]) == 0
        assert main(["diagram", "uncal", str(test_path), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_title_with_markup_characters_is_escaped(self, small_task, tmp_path):
        # the title holds the dataset's file name; '&' and '<' must not break the XML
        _, test_path = small_task
        odd = tmp_path / "r&d<1>.csv"
        shutil.copy(test_path, odd)
        svg = tmp_path / "odd.svg"
        assert main(["diagram", "uncal", str(odd), str(svg)]) == 0
        root = ET.parse(svg).getroot()
        titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert titles[0] == "r&d<1> / uncal"

    def test_perfect_predictions_on_diagonal(self, tmp_path):
        labels = np.arange(30) % 3
        probs = np.full((30, 3), 1e-9)
        probs[np.arange(30), labels] = 1 - 2e-9
        logits = np.log(probs)
        ds = LogitDataset(logits, labels)
        path = tmp_path / "p.csv"
        save_dataset(ds, path)
        svg = tmp_path / "p.svg"
        assert main(["diagram", "uncal", str(path), str(svg)]) == 0
        stats = reliability_data(softmax_rows(ds.logits), labels)
        occupied = stats.counts > 0
        assert np.all(stats.accuracy[occupied] == 1.0)
        assert svg.read_text(encoding="utf-8").startswith("<svg")

    def test_gap_shrinks_after_calibration(self, tmp_path):
        # needs a test set large enough that every bin is meaningfully
        # populated, otherwise one-sample bins dominate the max gap
        task = make_overconfident_task(
            n_train=1000, n_test=4000, n_classes=4, temperature=0.5, seed=0
        )
        train_path = tmp_path / "train.csv"
        test_path = tmp_path / "test.csv"
        save_dataset(task.train, train_path)
        save_dataset(task.test, test_path)
        model = tmp_path / "cal.hcal"
        main([
            "train", str(train_path), str(model),
            "--loss", "nll", "--family", "ensemble_temp", "--size", "1",
            "--selector-metric", "ece_ew", "--monitor-metric", "nll",
            "--max-epochs", "300",
        ])
        before = reliability_data(softmax_rows(task.test.logits), task.test.labels)
        cal = load_map(model)
        after = reliability_data(cal.forward(task.test.logits).probs, task.test.labels)

        def max_gap(stats):
            mask = stats.counts > 0
            return float(np.abs(stats.accuracy[mask] - stats.mean_confidence[mask]).max())

        assert max_gap(after) < max_gap(before)
        # the SVG command accepts the trained model too
        assert main(["diagram", str(model), str(test_path), str(tmp_path / "after.svg")]) == 0


class TestCompare:
    def test_uncal_only_relative_one(self, small_task, tmp_path, capsys):
        train_path, test_path = small_task
        out = tmp_path / "cmp.csv"
        rc = main([
            "compare", str(train_path), str(test_path),
            "--calibrators", "uncal",
            "--metrics", "ece_ew,ks,mmce",
            "--out", str(out),
        ])
        assert rc == 0
        rows = compare_rows(out)
        assert len(rows) == 3
        assert all(rel == pytest.approx(1.0) for _, _, _, rel in rows)

    def test_calibrators_beat_uncal_and_csv_round_trips(self, small_task, tmp_path, capsys):
        train_path, test_path = small_task
        out = tmp_path / "cmp.csv"
        rc = main([
            "compare", str(train_path), str(test_path),
            "--calibrators", "uncal,hcal,nll_ts",
            "--family", "ensemble_temp", "--size", "4",
            "--selector-metric", "ece_ew",
            "--metrics", "ece_ew",
            *FAST_FLAGS,
        ])
        assert rc == 0
        # no --out: the printed table carries the values
        table = capsys.readouterr().out
        assert "rel_to_uncal" in table

        rc = main([
            "compare", str(train_path), str(test_path),
            "--calibrators", "uncal,hcal",
            "--family", "ensemble_temp", "--size", "4",
            "--selector-metric", "ece_ew",
            "--metrics", "ece_ew", "--out", str(out),
            *FAST_FLAGS,
        ])
        assert rc == 0
        rows = compare_rows(out)
        by_cal = {name: value for name, mid, value, _ in rows}
        assert by_cal["hcal"] < by_cal["uncal"]
        rel = {name: rel for name, _, _, rel in rows}
        assert rel["hcal"] == pytest.approx(by_cal["hcal"] / by_cal["uncal"])

    def test_unknown_calibrator_rejected(self, small_task, capsys):
        train_path, test_path = small_task
        rc = main([
            "compare", str(train_path), str(test_path), "--calibrators", "magic",
        ])
        assert rc == 1
        assert "magic" in capsys.readouterr().err

    def test_scaling_baselines_train_the_loss_the_table_names(self, small_task, monkeypatch):
        losses = []
        real = cli.train_one
        monkeypatch.setattr(cli, "train_one",
                            lambda m, ds, spec, cfg: losses.append(spec) or real(m, ds, spec, cfg))
        assert main(["compare", *map(str, small_task), "--calibrators", "brier_ts,nll_ts",
                     "--max-epochs", "1", "--metrics", "ece_ew"]) == 0
        assert losses == ["brier", "nll"]

    def test_untrainable_hcal_rejected_before_any_calibrator_trains(self, small_task,
                                                                    monkeypatch, capsys):
        # the window exceeds the 1600 atomic events of 400 samples x 4 classes;
        # the baselines listed first must not train before that is found
        calls = []
        for owner in (cli, optim):
            monkeypatch.setattr(owner, "train_one", lambda *a, **k: calls.append(a))
        rc = main(["compare", *map(str, small_task), "--calibrators", "nll_ts,brier_ts,hcal",
                   "--window", "60000"])
        assert rc == 1
        assert "window 60000 exceeds the 1600 atomic events" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("calibrators", ["uncal,nll_ts", "brier_ts", "uncal,hcal"])
    def test_class_count_mismatch_rejected_before_any_calibrator_trains(
            self, small_task, calibrators, tmp_path, monkeypatch, capsys):
        train_path, _ = small_task  # 4 classes
        other = tmp_path / "five.csv"
        task = make_overconfident_task(n_train=10, n_test=60, n_classes=5, seed=1)
        save_dataset(task.test, other)
        calls = []
        for owner in (cli, optim):
            monkeypatch.setattr(owner, "train_one", lambda *a, **k: calls.append(a))
        rc = main(["compare", str(train_path), str(other), "--calibrators", calibrators,
                   "--metrics", "ece_ew"])
        assert rc == 1
        assert (f"class-count mismatch: {train_path} has 4 classes, {other} has 5"
                in capsys.readouterr().err)
        assert calls == []
        # plain softmax reads only the test set
        assert main(["compare", str(train_path), str(other), "--calibrators", "uncal",
                     "--metrics", "ece_ew"]) == 0


# a valid value of each key only the hcal calibrator reads
HCAL_ONLY = {"loss": "brier", "epsilon": "0.5", "window": "50", "multiplier": "10",
             "clusters": "4", "norm": "squared", "weighting": "uniform",
             "selector_metric": "ece_ew", "family": "monotonic_net", "size": "3x2"}

# a valid value of each key only trained calibrators read, hcal or scaling
TRAINER_ONLY = {"seed": "4", "lr": "0.1", "max_epochs": "5", "scheduler_patience": "3",
                "scheduler_factor": "0.5", "early_stop_patience": "7", "batch_size": "100",
                "monitor_metric": "skce"}


class TestCompareWithoutHcal:
    def test_hcal_keys_are_the_declared_set(self):
        assert cli._HCAL_KEYS == set(HCAL_ONLY)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(HCAL_ONLY))
    def test_hcal_key_rejected_before_loading(self, key, source, tmp_path, capsys):
        conf = tmp_path / "c.conf"
        conf.write_text(f"{key} = {HCAL_ONLY[key]}\n", encoding="utf-8")
        given = (["--config", str(conf)] if source == "config"
                 else ["--" + key.replace("_", "-"), HCAL_ONLY[key]])
        rc = main(["compare", *missing_inputs("compare", tmp_path),
                   "--calibrators", "uncal,nll_ts", *given])
        assert rc == 1
        err = capsys.readouterr().err
        assert (f"{key} (flag or config key) is read only by the hcal calibrator, "
                f"which --calibrators uncal,nll_ts leaves out") in err
        assert "nope" not in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(TRAINER_ONLY))
    def test_trainer_key_rejected_when_nothing_trains(self, key, source, tmp_path, capsys):
        conf = tmp_path / "c.conf"
        conf.write_text(f"{key} = {TRAINER_ONLY[key]}\n", encoding="utf-8")
        given = (["--config", str(conf)] if source == "config"
                 else ["--" + key.replace("_", "-"), TRAINER_ONLY[key]])
        rc = main(["compare", *missing_inputs("compare", tmp_path), "--calibrators", "uncal",
                   *given])
        assert rc == 1
        err = capsys.readouterr().err
        assert (f"{key} (flag or config key) is read only by trained calibrators, "
                f"which --calibrators uncal leaves out") in err
        assert "nope" not in err

    def test_trainer_and_hcal_keys_are_every_train_key(self):
        assert set(cli.COMMAND_KEYS["train"]) == cli._HCAL_KEYS | set(TRAINER_ONLY)

    def test_scaling_keys_still_read(self, small_task, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", *map(str, small_task), "--calibrators", "uncal,nll_ts",
                     "--seed", "1", "--lr", "0.01", "--max-epochs", "5", "--batch-size", "100",
                     "--monitor-metric", "ece_em", "--metrics", "ece_ew", "--out", str(out)]) == 0
        assert [row[:2] for row in compare_rows(out)] == [("uncal", "ece_ew"),
                                                            ("nll_ts", "ece_ew")]

    @pytest.fixture(scope="class")
    def tiny_task(self, tmp_path_factory):
        """20 training samples: too few for dece's 15 bins of 2."""
        root = tmp_path_factory.mktemp("tiny")
        task = make_overconfident_task(n_train=20, n_test=60, n_classes=4, temperature=0.5,
                                       seed=0)
        save_dataset(task.train, root / "train.csv")
        save_dataset(task.test, root / "test.csv")
        return str(root / "train.csv"), str(root / "test.csv")

    def test_monitor_checked_before_anything_runs(self, tiny_task, monkeypatch, capsys):
        calls = []
        for name in ("evaluate", "train_one"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
        rc = main(["compare", *tiny_task, "--calibrators", "uncal,nll_ts",
                   "--monitor-metric", "dece"])
        assert rc == 1
        assert "monitor_metric 'dece' cannot score 20 training samples" in capsys.readouterr().err
        assert calls == []

    def test_selector_not_checked_without_hcal(self, tiny_task, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", *tiny_task, "--calibrators", "uncal,nll_ts",
                     "--max-epochs", "3", "--metrics", "ece_ew", "--out", str(out)]) == 0
        assert len(compare_rows(out)) == 2


class TestConfigFile:
    def test_precedence_defaults_file_flags(self, small_task, tmp_path):
        train_path, _ = small_task
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# comment line\n"
            "window = 30\n"
            "epsilon = 0.25\n"
            "family = ensemble_temp\n"
            "size = 1\n"
            "max_epochs = 3\n"
            "selector_metric = ece_ew\n",
            encoding="utf-8",
        )
        parsed = read_config_file(conf)
        assert parsed["window"] == 30
        assert parsed["epsilon"] == 0.25

        model = tmp_path / "m.hcal"
        # flag overrides the file's epsilon; file overrides built-in window
        rc = main([
            "train", str(train_path), str(model),
            "--config", str(conf), "--epsilon", "0.9",
        ])
        assert rc == 0

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("wibble = 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="wibble"):
            read_config_file(conf)

    def test_malformed_line_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("windows 30\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            read_config_file(conf)

    @pytest.mark.parametrize("key,value,kind", [
        ("lr", "fast", "float"),
        ("window", "2.5", "int"),
        ("max_epochs", "1e3", "int"),
    ])
    def test_bad_value_names_file_line_and_key(self, key, value, kind, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"# header\n{key} = {value}\n", encoding="utf-8")
        expected = f"{conf}:2: {key} = {value!r} is not a valid {kind}"
        with pytest.raises(ValueError) as exc:
            read_config_file(conf)
        assert str(exc.value) == expected

    def test_repeated_key_names_both_lines(self, tmp_path):
        conf = tmp_path / "twice.conf"
        conf.write_text("window = 50\n# later\nwindow = 60\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_config_file(conf)
        assert str(exc.value) == f"{conf}:3: config key 'window' repeats line 1"


class TestChoiceSets:
    def test_flag_choices_come_from_the_declarations(self):
        train = build_parser()._subparsers._group_actions[0].choices["train"]
        choices = {a.dest: a.choices for a in train._actions if a.choices}
        assert tuple(choices["loss"]) == LOSSES == ("hcal", "nll", "brier")
        assert tuple(choices["norm"]) == NORMS
        assert tuple(choices["weighting"]) == WEIGHTINGS

    def test_messages_list_every_choice(self):
        with pytest.raises(ValueError, match=re.escape("'x' (choose hcal, nll, or brier)")):
            RunConfig(loss="x").loss_spec()
        with pytest.raises(ValueError, match="norm must be 'abs' or 'squared', got 'x'"):
            HCalConfig(norm="x")
        with pytest.raises(ValueError,
                           match="weighting must be 'adaptive' or 'uniform', got 'x'"):
            HCalConfig(weighting="x")
        compare = build_parser()._subparsers._group_actions[0].choices["compare"]
        (calibrators,) = [a for a in compare._actions if a.dest == "calibrators"]
        assert calibrators.default == "uncal,hcal,nll_ts,brier_ts"
        assert calibrators.help == "comma-separated subset of uncal,hcal,nll_ts,brier_ts"


class TestDiagramUnit:
    def test_svg_contains_bars_and_guides(self, rng):
        probs = rng.dirichlet(np.ones(3), size=50)
        labels = rng.integers(0, 3, 50)
        svg = render_reliability_svg(reliability_data(probs, labels), title="t")
        assert svg.count("<rect") > 2
        assert "stroke-dasharray" in svg
        assert svg.rstrip().endswith("</svg>")


def parsed(*argv) -> RunConfig:
    return merge_config(build_parser().parse_args(["train", "in.csv", "out.hcal", *argv]))


class TestOptionSources:
    def test_defaults_come_from_the_dataclasses(self):
        cfg = parsed()
        assert cfg.loss_spec() == HCalConfig()
        assert cfg.train_config() == TrainConfig(selector_metric="dece")

    def test_overrides_reach_the_dataclasses(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("window = 30\nscheduler_factor = 0.25\nbatch_size = 64\n", encoding="utf-8")
        cfg = parsed("--config", str(conf), "--window", "40", "--lr", "0.5", "--seed", "3")
        assert cfg.loss_spec() == HCalConfig(window=40)
        assert cfg.train_config() == TrainConfig(
            lr=0.5, scheduler_factor=0.25, batch_size=64, seed=3
        )

    def test_nll_loss_selects_by_nll_unless_told(self):
        assert parsed("--loss", "nll").loss_spec() == "nll"
        assert parsed("--loss", "nll").train_config().selector_metric == "nll"
        cfg = parsed("--loss", "nll", "--selector-metric", "ece_ew")
        assert cfg.train_config().selector_metric == "ece_ew"

    def test_config_keys_unchanged(self):
        assert set(CONFIG_KEYS) == {
            "seed", "loss", "epsilon", "window", "multiplier", "clusters", "norm",
            "weighting", "lr", "max_epochs", "scheduler_patience", "scheduler_factor",
            "early_stop_patience", "batch_size", "monitor_metric", "selector_metric",
            "family", "size", "bins", "metrics",
        }

    def test_readme_lists_exactly_the_accepted_keys(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config files", 1)[1].split("\n#", 1)[0]
        items = [item.split("\n\n", 1)[0] for item in section.split("\n- ")[1:]]
        listed = {key for item in items for key in re.findall(r"`(\w+)`", item.split(":", 1)[1])}
        assert listed == set(CONFIG_KEYS)
        conf = tmp_path / "all.conf"
        conf.write_text("".join(f"{key} = 1\n" for key in sorted(listed)), encoding="utf-8")
        assert set(read_config_file(conf)) == listed
        for key in ("min_improvement", "verbose", "config", "out", "calibrators", "overrides"):
            conf.write_text(f"{key} = 1\n", encoding="utf-8")
            with pytest.raises(ValueError, match="unknown config key"):
                read_config_file(conf)

    def test_readme_lists_the_keys_of_each_command(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Options per command", 1)[1].split("\n#", 1)[0]
        listed = {cmd: re.findall(r"`(\w+)`", keys)
                  for cmd, keys in re.findall(r"^- `hcal (\w+)`: (.*)$", section, re.M)}
        assert listed == {cmd: list(keys) for cmd, keys in COMMAND_KEYS.items()}

    @pytest.mark.parametrize("key,flag,value", [
        ("scheduler_patience", "--scheduler-patience", "7"),
        ("scheduler_factor", "--scheduler-factor", "0.25"),
        ("early_stop_patience", "--early-stop-patience", "9"),
    ])
    def test_trainer_patience_flags_match_their_config_keys(self, key, flag, value, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {value}\n", encoding="utf-8")
        from_flag = parsed(flag, value).train_config()
        assert from_flag == parsed("--config", str(conf)).train_config()
        assert from_flag != TrainConfig(selector_metric="dece")

    def test_config_value_types_follow_the_annotations(self, tmp_path):
        conf = tmp_path / "t.conf"
        conf.write_text("batch_size = 64\nepsilon = 1\nsize = 4\nmonitor_metric = nll\n",
                        encoding="utf-8")
        assert read_config_file(conf) == {
            "batch_size": 64, "epsilon": 1.0, "size": "4", "monitor_metric": "nll"
        }
        assert type(read_config_file(conf)["epsilon"]) is float


class TestSizeFlag:
    def test_family_grid(self):
        assert RunConfig().family_grid() == standard_grid()
        assert RunConfig(family="piecewise_linear").family_grid() == [
            ("piecewise_linear", z) for z in (1, 10, 100, 500)
        ]
        assert RunConfig(family="ensemble_temp", size="4").family_grid() == [("ensemble_temp", 4)]
        assert RunConfig(family="monotonic_net", size="2x7").family_grid() == [
            ("monotonic_net", (2, 7))
        ]

    def test_size_reads_the_notation_train_prints(self, small_task, tmp_path, capsys):
        train_path, _ = small_task
        model = tmp_path / "net.hcal"
        assert main(["train", str(train_path), str(model), "--family", "monotonic_net",
                     "--size", "3x2", "--selector-metric", "ece_ew", "--max-epochs", "2"]) == 0
        assert "  monotonic_net 3x2: selector = " in capsys.readouterr().out
        assert "hyper = 3x2" in (tmp_path / "net.hcal.meta.txt").read_text(encoding="utf-8")
        assert load_map(model).describe() == "monotonic_net(groups=3, units=2)"

    def test_verbose_summary_and_sidecar_show_one_notation(self, small_task, tmp_path,
                                                           capsys):
        train_path, _ = small_task
        model = tmp_path / "net.hcal"
        assert main(["train", str(train_path), str(model), "--family", "monotonic_net",
                     "--size", "2x2", "--max-epochs", "2", "--window", "50", "--verbose"]) == 0
        out, err = capsys.readouterr()
        assert re.search(r"^candidate monotonic_net 2x2: dece = \S+$", err, re.MULTILINE)
        assert re.search(r"^  monotonic_net 2x2: selector = ", out, re.MULTILINE)
        sidecar = (tmp_path / "net.hcal.meta.txt").read_text(encoding="utf-8")
        assert "hyper = 2x2\n" in sidecar

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_size_without_family_rejected(self, source, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("size = 4\n", encoding="utf-8")
        given = ["--size", "4"] if source == "flag" else ["--config", str(conf)]
        rc = main(["train", str(tmp_path / "nope.csv"), str(tmp_path / "m.hcal"), *given])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--size 4 needs --family" in err
        assert "nope.csv" not in err  # rejected before the dataset loads

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("family, size, takes", [
        ("ensemble_temp", "4x4", "m"),  # one size too many
        ("monotonic_net", "10", "groups x units"),  # one too few
        ("piecewise_linear", "1.5", "z"),
        ("piecewise_linear", "0", "z"),
        ("monotonic_net", "2x-3", "groups x units"),
        ("monotonic_net", "2X3", "groups x units"),
        ("ensemble_temp", " 4", "m"),
        ("ensemble_temp", "", "m"),
    ])
    def test_size_that_does_not_fit_rejected_before_loading(self, command, family, size,
                                                           takes, tmp_path, capsys):
        rc = main([command, *missing_inputs(command, tmp_path), "--family", family,
                   "--size", size])
        assert rc == 1
        err = capsys.readouterr().err
        assert (f"--size {size!r} does not fit {family}, which takes {takes}: "
                f"a positive integer per size, joined by x") in err
        assert "nope" not in err

class TestBinsFlag:
    @pytest.mark.parametrize("command", ["eval", "diagram"])
    def test_bins_below_one_rejected(self, command, small_task, tmp_path, capsys):
        _, test_path = small_task
        svg = [str(tmp_path / "d.svg")] if command == "diagram" else []
        rc = main([command, "uncal", str(test_path), *svg, "--bins", "0"])
        assert rc == 1
        assert "bins must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "d.svg").exists()

    @pytest.mark.parametrize("command", ["eval", "diagram"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bins_rejected_before_loading(self, command, source, tmp_path, capsys):
        conf = tmp_path / "b.conf"
        conf.write_text("bins = 0\n", encoding="utf-8")
        given = ["--bins", "0"] if source == "flag" else ["--config", str(conf)]
        rc = main([command, *missing_inputs(command, tmp_path), *given])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bins must be >= 1, got 0" in err and "nope" not in err

    def test_diagram_defaults_to_default_bins(self, small_task, tmp_path):
        _, test_path = small_task
        out = tmp_path / "d.csv"
        assert main(["diagram", "uncal", str(test_path), str(tmp_path / "d.svg"),
                     "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == DEFAULT_BINS + 2


class TestMetricsFlag:
    @pytest.mark.parametrize("metrics", [",", " , ,"])
    def test_eval_rejects_a_list_without_ids(self, metrics, small_task, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["eval", "uncal", str(small_task[1]), "--metrics", metrics, "--out", str(out)])
        assert rc == 1
        assert "--metrics" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_rejects_a_list_without_ids(self, small_task, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", *map(str, small_task), "--calibrators", "uncal",
                   "--metrics", ",", "--out", str(out)])
        assert rc == 1
        assert "--metrics" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_unknown_id_rejected_before_loading(self, command, tmp_path, capsys):
        first = "uncal" if command == "eval" else str(tmp_path / "nope.csv")
        rc = main([command, first, str(tmp_path / "missing.csv"), "--metrics", "ece_ew,bogus"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "nope.csv" not in err and "missing.csv" not in err


class TestRepeatedNames:
    @pytest.mark.parametrize("command,given", [
        ("eval", ["--metrics", "ece_ew,ece_ew"]),
        ("compare", ["--metrics", "ece_ew, ks,ece_ew"]),
        ("compare", ["--calibrators", "uncal,nll_ts,nll_ts"]),
    ])
    def test_rejected_before_loading(self, command, given, tmp_path, capsys):
        rc = main([command, *missing_inputs(command, tmp_path), *given])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{given[0]} {given[1]!r} must list at least one name, and none twice" in err
        assert "nope" not in err


class TestMetricIdOptions:
    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("option", ["monitor_metric", "selector_metric"])
    def test_unknown_id_rejected_before_loading(self, command, option, tmp_path, capsys):
        flag = "--" + option.replace("_", "-")
        ts_reads = command == "compare" and option == "monitor_metric"
        rc = main([command, *missing_inputs(command, tmp_path), flag, "bogus",
                   *(["--calibrators", "uncal,nll_ts"] if ts_reads else [])])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{option}: unknown metric 'bogus'" in err and "nope" not in err


class TestLineEndings:
    def test_every_csv_report_ends_lines_with_newline_only(self, small_task, tmp_path):
        train_path, test_path = small_task
        model = tmp_path / "m.hcal"
        assert main(["train", str(train_path), str(model), "--family", "ensemble_temp",
                     "--size", "1", "--selector-metric", "ece_ew", "--max-epochs", "3"]) == 0
        assert main(["eval", str(model), str(test_path), "--metrics", "ece_ew,ks",
                     "--out", str(tmp_path / "eval.csv")]) == 0
        assert main(["diagram", str(model), str(test_path), str(tmp_path / "d.svg"),
                     "--out", str(tmp_path / "diagram.csv")]) == 0
        assert main(["compare", str(train_path), str(test_path), "--calibrators", "uncal",
                     "--metrics", "ece_ew,ks", "--out", str(tmp_path / "compare.csv")]) == 0
        for name in ("m.hcal.history.csv", "eval.csv", "diagram.csv", "compare.csv"):
            raw = (tmp_path / name).read_bytes()
            assert raw.endswith(b"\n") and b"\r" not in raw, name


LOSS_FLAGS = {"--epsilon": "0.01", "--window": "50", "--multiplier": "10", "--clusters": "4",
              "--norm": "squared", "--weighting": "uniform"}


class TestLossFlags:
    @pytest.mark.parametrize("loss", ["nll", "brier"])
    @pytest.mark.parametrize("flag", sorted(LOSS_FLAGS))
    def test_window_loss_option_rejected_with_other_loss(self, loss, flag):
        with pytest.raises(ValueError, match=f"{flag} is an option of the hcal loss; "
                                             f"it does not apply to --loss {loss}"):
            parsed("--loss", loss, flag, LOSS_FLAGS[flag]).loss_spec()

    def test_config_file_loss_key_rejected_with_other_loss(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("loss = brier\nclusters = 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="--clusters"):
            parsed("--config", str(conf)).loss_spec()
        # the same key is the window loss's own option
        assert parsed("--config", str(conf), "--loss", "hcal").loss_spec() == HCalConfig(clusters=4)

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_rejected_before_loading(self, command, tmp_path, capsys):
        rc = main([command, str(tmp_path / "nope.csv"), str(tmp_path / "x"),
                   "--loss", "nll", "--window", "50"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--window" in err and "nope.csv" not in err


class TestStepSizeFlags:
    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("flag", ["--lr", "--multiplier"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rejected_before_loading(self, command, flag, value, tmp_path, capsys):
        rc = main([command, str(tmp_path / "nope.csv"), str(tmp_path / "x"), flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{flag[2:]} must be finite and > 0, got {value}" in err
        assert "nope.csv" not in err


# option strings of each command, in --help order
COMMAND_OPTIONS = {
    "train": ["--help", "train_path", "model_path", "--config", "--seed", "--loss",
              "--epsilon", "--window", "--multiplier", "--clusters", "--norm", "--weighting",
              "--lr", "--max-epochs", "--scheduler-patience", "--scheduler-factor",
              "--early-stop-patience", "--batch-size", "--monitor-metric", "--selector-metric",
              "--family", "--size", "--verbose"],
    "eval": ["--help", "model_path", "test_path", "--config", "--metrics", "--bins", "--out"],
    "diagram": ["--help", "model_path", "test_path", "out_svg", "--config", "--bins", "--out"],
}
COMMAND_OPTIONS["compare"] = [
    "--help", "train_path", "test_path", *COMMAND_OPTIONS["train"][3:-1], "--metrics", "--out",
    "--calibrators"
]


class TestSeedFlag:
    def test_options_per_command(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        assert set(commands) == set(COMMAND_OPTIONS)
        for name, parser in commands.items():
            got = [a.option_strings[-1] if a.option_strings else a.dest for a in parser._actions]
            assert got == COMMAND_OPTIONS[name], name

    @pytest.mark.parametrize("command", ["eval", "diagram"])
    def test_seed_is_a_usage_error_where_nothing_reads_it(self, command, small_task, tmp_path,
                                                          capsys):
        _, test_path = small_task
        svg = [str(tmp_path / "d.svg")] if command == "diagram" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "uncal", str(test_path), *svg, "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [("train", ["--out", "hist.csv"]),
                                              ("compare", ["--verbose"])])
    def test_flag_nothing_reads_is_a_usage_error(self, command, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *missing_inputs(command, tmp_path), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "hist.csv").exists()


class TestConfigKeysPerCommand:
    @pytest.mark.parametrize("command,key", [(command, key) for command in MISSING_INPUTS
                                             for key in CONFIG_KEYS
                                             if key not in COMMAND_KEYS[command]])
    def test_every_unread_key_rejected_before_loading(self, command, key, tmp_path, capsys):
        conf = tmp_path / "c.conf"
        conf.write_text(f"{key} = 1\n", encoding="utf-8")
        rc = main([command, *missing_inputs(command, tmp_path), "--config", str(conf)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config key {key!r} does not apply to hcal {command}" in err
        assert "nope" not in err

    @pytest.mark.parametrize("command", ["eval", "diagram"])
    @pytest.mark.parametrize("line", ["seed = 3", "window = 9", "lr = 0.1", "family = monotonic_net"])
    def test_unread_key_rejected_before_loading(self, command, line, tmp_path, capsys):
        conf = tmp_path / "e.conf"
        conf.write_text(f"bins = 7\n{line}\n", encoding="utf-8")
        svg = [str(tmp_path / "d.svg")] if command == "diagram" else []
        rc = main([command, "uncal", str(tmp_path / "nope.csv"), *svg, "--config", str(conf)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config key {line.split()[0]!r} does not apply to hcal {command}" in err
        assert "nope.csv" not in err

    def test_diagram_does_not_read_metrics(self, small_task, tmp_path, capsys):
        conf = tmp_path / "d.conf"
        conf.write_text("metrics = ece_ew\n", encoding="utf-8")
        rc = main(["diagram", "uncal", str(small_task[1]), str(tmp_path / "d.svg"),
                   "--config", str(conf)])
        assert rc == 1
        assert "config key 'metrics' does not apply to hcal diagram" in capsys.readouterr().err

    def test_eval_reads_its_own_keys(self, small_task, tmp_path, capsys):
        conf = tmp_path / "e.conf"
        conf.write_text("metrics = ece_ew\nbins = 7\n", encoding="utf-8")
        out = tmp_path / "e.csv"
        assert main(["eval", "uncal", str(small_task[1]), "--config", str(conf),
                     "--out", str(out)]) == 0
        values = report_values(out)
        task = make_overconfident_task(n_train=400, n_test=300, n_classes=4, temperature=0.5,
                                       seed=0)
        probs = softmax_rows(task.test.logits)
        assert list(values) == ["ece_ew"]
        assert values["ece_ew"] == pytest.approx(ece_ew(probs, task.test.labels, bins=7),
                                                   rel=1e-12)
