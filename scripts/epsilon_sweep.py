#!/usr/bin/env python3
"""Sweep the error-bound hyperparameter and report final test calibration.

Trains the window objective at several epsilon values on the synthetic
overconfidence task and prints the resulting test-set ECE (equal width).
The small-epsilon runs should agree closely; pushing epsilon to 1e-1 relaxes
the constraint enough that calibration degrades.
"""

import argparse
import time

from hcal.dataset import softmax_rows
from hcal.loss import HCalConfig
from hcal.maps import init_map
from hcal.metrics import ece_ew
from hcal.optim import TrainConfig, train_one
from hcal.synthetic import make_overconfident_task


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilons", default="1e-20,1e-10,1e-5,1e-2,1e-1")
    ap.add_argument("--n-train", type=int, default=5000)
    ap.add_argument("--n-test", type=int, default=10000)
    ap.add_argument("--m", type=int, default=16, help="temperature components")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    task = make_overconfident_task(
        n_train=args.n_train, n_test=args.n_test, seed=42
    )
    uncal = ece_ew(softmax_rows(task.test.logits), task.test.labels)
    print(f"uncalibrated test ECEew: {uncal:.5f}")
    cfg = TrainConfig(seed=args.seed)
    for eps_text in args.epsilons.split(","):
        eps = float(eps_text)
        start = time.time()
        cal_map, history = train_one(
            init_map("ensemble_temp", args.m, seed=args.seed),
            task.train,
            HCalConfig(epsilon=eps),
            cfg,
        )
        value = ece_ew(cal_map.forward(task.test.logits).probs, task.test.labels)
        print(
            f"epsilon {eps:8.0e}: test ECEew {value:.5f} "
            f"({len(history.records)} epochs, {time.time() - start:.0f}s)"
        )


if __name__ == "__main__":
    main()
