"""Synthetic recalibration tasks with known ground truth.

Labels are sampled from softmax(true logits), then the observed logits are
distorted by dividing by a temperature below 1 (sharpening the softmax and
making the model overconfident).  Since the distortion is a single scale, an
oracle recalibrator exists: scale by exactly ``temperature`` again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LogitDataset, softmax_rows

OVERCONFIDENT_LOGIT_SCALE = 1.5  # std of make_overconfident_task's true logits
CALIBRATED_LOGIT_SCALE = 1.0  # std of make_calibrated_task's logits


@dataclass(frozen=True)
class SyntheticTask:
    train: LogitDataset
    test: LogitDataset
    true_train_probs: np.ndarray
    true_test_probs: np.ndarray
    temperature: float


def sample_labels(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of a row-stochastic matrix."""
    cum = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])
    idx = (u[:, None] > cum).sum(axis=1)
    return np.minimum(idx, probs.shape[1] - 1)


def make_overconfident_task(
    n_train: int = 5000,
    n_test: int = 10000,
    n_classes: int = 10,
    temperature: float = 0.4,
    seed: int = 0,
) -> SyntheticTask:
    """Overconfident synthetic task: observed logits = true logits / temperature."""
    rng = np.random.default_rng(seed)
    out = []
    for n, tag in ((n_train, "train"), (n_test, "test")):
        true_logits = rng.normal(0.0, OVERCONFIDENT_LOGIT_SCALE, size=(n, n_classes))
        true_probs = softmax_rows(true_logits)
        labels = sample_labels(true_probs, rng)
        observed = true_logits / temperature
        out.append((LogitDataset(observed, labels, name=f"synthetic-{tag}"), true_probs))
    return SyntheticTask(
        train=out[0][0], test=out[1][0],
        true_train_probs=out[0][1], true_test_probs=out[1][1],
        temperature=temperature,
    )


def make_calibrated_task(
    n: int = 2000, n_classes: int = 5, seed: int = 0
) -> tuple[LogitDataset, np.ndarray]:
    """Already-calibrated task: labels drawn from softmax of the very logits."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, CALIBRATED_LOGIT_SCALE, size=(n, n_classes))
    probs = softmax_rows(logits)
    labels = sample_labels(probs, rng)
    return LogitDataset(logits, labels, name="synthetic-calibrated"), probs
