#!/usr/bin/env python3
"""Sweep the error-bound hyperparameter and report final test calibration.

Trains the window objective at several epsilon values on the synthetic
overconfidence task, in parallel processes, and prints the resulting
test-set ECE (equal width) in the order the epsilons are given.
The small-epsilon runs should agree closely; pushing epsilon to 1e-1 relaxes
the constraint enough that calibration degrades.
"""

import argparse
import time

from hcal.dataset import forked, softmax_rows
from hcal.loss import HCalConfig
from hcal.maps import init_map
from hcal.metrics import ece_ew
from hcal.optim import TrainConfig, train_one
from hcal.synthetic import make_overconfident_task


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilons", default="1e-20,1e-10,1e-5,1e-2,1e-1")
    ap.add_argument("--n-train", type=int)
    ap.add_argument("--n-test", type=int)
    ap.add_argument("--m", type=int, default=16, help="temperature components")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # an omitted size keeps make_overconfident_task's default
    sizes = {"n_train": args.n_train, "n_test": args.n_test}
    task = make_overconfident_task(**{k: v for k, v in sizes.items() if v is not None}, seed=42)
    uncal = ece_ew(softmax_rows(task.test.logits), task.test.labels)
    print(f"uncalibrated test ECEew: {uncal:.5f} "
          f"(N_train={task.train.n_samples}, N_test={task.test.n_samples})")
    cfg = TrainConfig(seed=args.seed)

    def sweep(eps):
        start = time.time()
        cal_map, history = train_one(
            init_map("ensemble_temp", args.m, seed=args.seed),
            task.train,
            HCalConfig(epsilon=eps),
            cfg,
        )
        value = ece_ew(cal_map.forward(task.test.logits).probs, task.test.labels)
        return value, len(history.records), time.time() - start

    # the epsilons train in parallel processes; the lines keep their order
    epsilons = [float(eps_text) for eps_text in args.epsilons.split(",")]
    for eps, (value, epochs, seconds) in zip(epsilons, forked(sweep, epsilons)):
        print(f"epsilon {eps:8.0e}: test ECEew {value:.5f} ({epochs} epochs, {seconds:.0f}s)")


if __name__ == "__main__":
    main()
