#!/usr/bin/env python3
"""Generate synthetic overconfident logit-label files for experimenting with
the CLI, in the package's CSV or binary format.

Example:
    python scripts/make_synthetic.py --out-dir data/synth --format csv
    hcal train data/synth/train.csv model.hcal --family ensemble_temp --m 16
    hcal eval model.hcal data/synth/test.csv
"""

import argparse
from pathlib import Path

from hcal.dataset import save_dataset
from hcal.synthetic import make_overconfident_task


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data/synth")
    ap.add_argument("--n-train", type=int, default=5000)
    ap.add_argument("--n-test", type=int, default=10000)
    ap.add_argument("--classes", type=int, default=10)
    ap.add_argument("--temperature", type=float, default=0.4,
                    help="true logits are divided by this, < 1 = overconfident")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--format", choices=["csv", "binary"], default="csv")
    args = ap.parse_args()

    task = make_overconfident_task(
        n_train=args.n_train,
        n_test=args.n_test,
        n_classes=args.classes,
        temperature=args.temperature,
        seed=args.seed,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ext = ".csv" if args.format == "csv" else ".bin"
    save_dataset(task.train, out / f"train{ext}")
    save_dataset(task.test, out / f"test{ext}")
    print(f"wrote {out / ('train' + ext)} (N={args.n_train}) and "
          f"{out / ('test' + ext)} (N={args.n_test}), L={args.classes}, "
          f"distortion 1/{args.temperature}")


if __name__ == "__main__":
    main()
