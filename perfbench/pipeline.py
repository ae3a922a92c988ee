"""Workloads and the pipeline they run: the public calls ``hcal train`` and
``hcal eval`` make, on inputs generated from a seed.

Importing this module puts the checkout's ``src`` directory first on
``sys.path`` and refuses to continue when ``src/hcal`` is missing, so the
benchmark never measures an installed copy of the package.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hcal" / "__init__.py").is_file():
    raise SystemExit(f"error: {SRC / 'hcal'} not found; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from hcal import dataset, loss, maps, metrics, optim, synthetic  # noqa: E402

if not Path(dataset.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: imported hcal from {dataset.__file__}, not from {SRC}")

# Every workload's task: observed logits are the true logits divided by 0.4.
TEMPERATURE = 0.4
# Relative and absolute tolerance of the metric values of a fixed map
# against the recorded references.  Loose enough for a reordered
# floating-point sum, tight enough that any change to what a metric
# computes shows.
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-12
# Relative tolerance of values that depend on what a fit learned: each
# candidate's selector value, and the metric values of a map the fit saved.
# A few epochs of Adam may carry a reordered sum's rounding a little
# further; any change to what the fit learns is far larger.
FIT_RTOL = 1e-6
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def grid_map(n_classes: int) -> maps.EnsembleTempMap:
    """The saved map grid-L100 applies: an ensemble_temp m=128 whose
    temperatures scatter around 1.3, part of the way to the oracle 2.5.

    After a one-epoch grid every candidate has taken the same first Adam
    step from its identity start, so the selector values tie within
    rounding and which one the selector picks changes from seed to seed; applying the pick would make apply_s jump between families.  What
    the grid learns is checked instead: every candidate's selector value
    against the references (:meth:`Checks.fit`), and the saved pick's
    outputs on the training set (:func:`check_fitted`).
    """
    rng = np.random.default_rng(0)
    params = np.concatenate([np.log(1.3) + rng.normal(0.0, 0.3, 128), rng.normal(0.0, 1.0, 128)])
    return maps.EnsembleTempMap(128, seed=0, params=params, n_classes=n_classes)


def eval_map(n_classes: int) -> maps.MonotonicNetMap:
    """The saved map eval-L10 applies: a 50x50 monotonic_net that shrinks
    the logits a little towards the oracle scale, with fixed jitter on
    every line."""
    base = maps.MonotonicNetMap(50, 50, seed=0, n_classes=n_classes)
    rng = np.random.default_rng(0)
    n = base.params.size // 2
    raw_a = np.log(0.9) + rng.normal(0.0, 0.2, n)
    biases = base.params[n:] + rng.normal(0.0, 0.5, n)
    base.params = np.concatenate([raw_a, biases])
    return base


@dataclass(frozen=True)
class Workload:
    name: str
    n_train: int
    n_test: int
    n_classes: int
    grid: tuple  # (family, hyper) candidates, as select_model takes them
    epochs: int  # fixed budget per candidate; early stopping never triggers
    metric_ids: tuple | None  # None = the full suite
    # Builds the saved map the apply step uses, the same for every seed so
    # that only the data vary and the metric references depend on the maps
    # and metrics code alone.  None = apply the map the fit saved.
    input_map: Callable[[int], maps.CalibrationMap] | None
    step_s: tuple  # seconds per round spent repeating (apply, eval)

    @property
    def values_rtol(self) -> float:
        """Tolerance of the metric values against the references."""
        return REFERENCE_RTOL if self.input_map is not None else FIT_RTOL


WORKLOADS = {
    w.name: w
    for w in (
        Workload("recal-L10", 5000, 10_000, 10, (("ensemble_temp", 16),), 10,
                 ("ece_ew",), None, (0.3, 0.3)),
        Workload("grid-L100", 200, 2000, 100, tuple(optim.standard_grid()), 1,
                 ("ece_ew",), grid_map, (0.6, 0.3)),
        Workload("eval-L10", 1000, 3000, 10, (("monotonic_net", (50, 50)),), 2,
                 None, eval_map, (1.0, 0.0)),
    )
}


@dataclass(frozen=True)
class Files:
    train: Path
    test: Path
    input_map: Path | None
    fitted_map: Path

    @property
    def inputs(self) -> list[Path]:
        return [p for p in (self.train, self.test, self.input_map) if p is not None]

    @property
    def applied_map(self) -> Path:
        return self.input_map if self.input_map is not None else self.fitted_map


def make_inputs(wl: Workload, seed: int, workdir: Path) -> Files:
    """Write the workload's input files for ``seed`` (never timed)."""
    workdir.mkdir(parents=True, exist_ok=True)
    task = synthetic.make_overconfident_task(
        n_train=wl.n_train, n_test=wl.n_test, n_classes=wl.n_classes,
        temperature=TEMPERATURE, seed=seed,
    )
    files = Files(workdir / "train.csv", workdir / "test.csv",
                  workdir / "input.hcal" if wl.input_map is not None else None,
                  workdir / "fitted.hcal")
    dataset.save_dataset(task.train, files.train)
    dataset.save_dataset(task.test, files.test)
    if files.input_map is not None:
        maps.save_map(wl.input_map(wl.n_classes), files.input_map)
    return files


# -- the pipeline steps; the traced run wraps each as a span of layer "cli" --


def load_inputs(files: Files):
    """What every command does first: read its dataset files."""
    return dataset.load_dataset(files.train), dataset.load_dataset(files.test)


def fit(wl: Workload, train, seed: int, model_path: Path):
    """``hcal train``: candidate init through selection, then ``save_map``."""
    cfg = optim.TrainConfig(max_epochs=wl.epochs, early_stop_patience=wl.epochs + 1, seed=seed)
    best, _, reports = optim.select_model(train, list(wl.grid), loss.HCalConfig(), cfg)
    maps.save_map(best, model_path)
    return reports


def apply(model_path: Path, test) -> np.ndarray:
    """How a user applies a fitted calibrator: ``load_map`` plus one forward."""
    return maps.load_map(model_path).forward(test.logits).probs


def score(wl: Workload, probs: np.ndarray, test) -> dict[str, float]:
    """``hcal eval``: the workload's metric ids, or the full suite."""
    ids = list(wl.metric_ids) if wl.metric_ids is not None else None
    return metrics.evaluate(probs, test.labels, ids).values


def run_round(wl: Workload, seed: int, files: Files, checks: "Checks"):
    """One closed-loop pass: load, fit, apply, score; every output checked.
    Returns the fit's candidate reports and the metric values."""
    train, test = load_inputs(files)
    reports = fit(wl, train, seed, files.fitted_map)
    checks.fit(reports)
    probs = apply(files.applied_map, test)
    checks.apply(probs, test)
    values = score(wl, probs, test)
    checks.score(values)
    return reports, values


def check_fitted(files: Files, checks: "Checks") -> None:
    """Check the map the fit saved when the apply step used an input map."""
    if files.input_map is not None:
        train, _ = load_inputs(files)
        checks.apply(apply(files.fitted_map, train), train)


# -- correctness checks, each counted as one operation --


class Checks:
    """Counts attempted and failed correctness operations of one run.

    ``reference`` holds what the recorded references say for the run's
    seed (``selector_values`` per candidate and the metric ``values``), or
    None when the seed has none; ``values_rtol`` is the tolerance of the
    metric values.
    """

    def __init__(self, reference: dict | None, values_rtol: float = REFERENCE_RTOL):
        self.reference = reference
        self.values_rtol = values_rtol
        self.attempted = 0
        self.failed: list[str] = []

    def _op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)

    def fit(self, reports) -> None:
        for rep in reports:
            self._op(not rep.failed and bool(np.isfinite(rep.selector_value)),
                     f"candidate {rep.family} {rep.hyper} diverged")
        if self.reference is None:
            return
        want = self.reference["selector_values"]
        self._op(len(reports) == len(want),
                 f"{len(reports)} candidates, reference has {len(want)}")
        for rep, value in zip(reports, want):
            ok = bool(np.isclose(rep.selector_value, value, rtol=FIT_RTOL, atol=REFERENCE_ATOL))
            self._op(ok, f"candidate {rep.family} {rep.hyper} selector value "
                         f"{rep.selector_value!r}, reference {value!r}")

    def apply(self, probs: np.ndarray, test) -> None:
        self._op(np.array_equal(probs.argmax(axis=1), test.logits.argmax(axis=1)),
                 "argmax of calibrated probabilities differs from argmax of logits")
        try:
            dataset.check_prob_matrix(probs)
            ok, why = True, ""
        except ValueError as exc:
            ok, why = False, str(exc)
        self._op(ok, f"check_prob_matrix: {why}")

    def score(self, values: dict[str, float]) -> None:
        if self.reference is None:
            ece = values["ece_ew"]
            self._op(bool(0.0 <= ece <= 1.0), f"ece_ew out of [0, 1]: {ece}")
            return
        want = self.reference["values"]
        for mid, value in want.items():
            got = values.get(mid, float("nan"))
            ok = bool(np.isclose(got, value, rtol=self.values_rtol, atol=REFERENCE_ATOL))
            self._op(ok, f"{mid} = {got!r}, reference {value!r}")
        self._op(set(values) == set(want),
                 f"metric ids {sorted(values)} differ from reference ids {sorted(want)}")
