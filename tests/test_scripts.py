"""Smoke tests for the scripts under scripts/, run as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hcal.dataset import load_dataset
from hcal.synthetic import make_overconfident_task

ROOT = Path(__file__).parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )


def test_make_synthetic_writes_both_splits(tmp_path):
    out = tmp_path / "synth"
    proc = run_script("make_synthetic.py", "--out-dir", str(out), "--n-train", "30",
                      "--n-test", "20", "--classes", "3", "--format", "binary")
    assert proc.returncode == 0, proc.stderr
    train, test = load_dataset(out / "train.bin"), load_dataset(out / "test.bin")
    assert (train.n_samples, test.n_samples, train.n_classes) == (30, 20, 3)
    assert proc.stdout.endswith("(N=20), L=3, distortion 1/0.4\n")


def test_make_synthetic_omitted_flags_keep_the_task_defaults(tmp_path):
    proc = run_script("make_synthetic.py", "--out-dir", str(tmp_path), "--n-train", "30",
                      "--n-test", "20")
    assert proc.returncode == 0, proc.stderr
    task = make_overconfident_task(n_train=30, n_test=20)
    train = load_dataset(tmp_path / "train.csv")
    assert train.n_classes == task.train.n_classes
    assert train.logits == pytest.approx(task.train.logits, rel=1e-15)
    assert proc.stdout.endswith(f"L={task.train.n_classes}, distortion 1/{task.temperature}\n")


def test_epsilon_sweep_help():
    proc = run_script("epsilon_sweep.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--epsilons" in proc.stdout


def test_epsilon_sweep_runs_end_to_end():
    proc = run_script("epsilon_sweep.py", "--n-train", "300", "--n-test", "300",
                      "--epsilons", "1e-20,1e-1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("uncalibrated test ECEew: ")
    assert [line.split(":")[0].split() for line in lines[1:]] == [["epsilon", "1e-20"],
                                                                  ["epsilon", "1e-01"]]
