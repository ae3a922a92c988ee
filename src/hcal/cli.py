"""Command-line front end: train calibrators, evaluate metric suites,
compare calibrators, and emit reliability diagrams.

Commands: ``train``, ``eval``, ``diagram``, ``compare``.  Option precedence
is built-in defaults < config file (``--config``, flat ``key = value``
lines) < command-line flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .dataset import LogitDataset, load_dataset, softmax_rows, write_csv
from .diagram import render_reliability_svg
from .loss import BASELINE_LOSSES, LOSSES, NORMS, WEIGHTINGS, HCalConfig
from .maps import FAMILIES, EnsembleTempMap, check_sizes, load_map, save_map, size_text
from .metrics import (DEFAULT_BINS, METRICS, MetricReport, _check_bins, evaluate,
                      reliability_data)
from .optim import TrainConfig, check_trainable, standard_grid, select_model, train_one


_LOSS_KEYS = {f.name for f in fields(HCalConfig)}
# each calibrator compare offers, with the loss a single-temperature scaling
# baseline trains (None: not a scaling baseline)
_COMPARE_CALIBRATORS = {"uncal": None, "hcal": None, "nll_ts": "nll", "brier_ts": "brier"}
# the keys only the hcal calibrator reads (the baselines fix loss and family)
_HCAL_KEYS = {"loss", "selector_metric", "family", "size", *_LOSS_KEYS}


@dataclass
class RunConfig:
    """Merged options for one CLI invocation.

    The fields are the CLI's own options.  Loss and trainer options stay in
    ``overrides`` and go to :class:`HCalConfig` / :class:`TrainConfig`,
    which supply every default.
    """

    loss: str = "hcal"
    family: str | None = None  # None = the standard grid
    size: str | None = None  # the family's sizes as maps.size_text; None = its grid
    bins: int | None = None  # None = each metric's documented default
    metrics: str | None = None  # comma-separated ids; None = full suite
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bins is not None:
            _check_bins(self.bins)  # the rule evaluate applies, before any data loads

    def loss_spec(self):
        """The loss: an :class:`HCalConfig` for ``hcal``, else its name.  A
        window-loss option given with another loss is rejected."""
        loss_keys = {k: v for k, v in self.overrides.items() if k in _LOSS_KEYS}
        if self.loss == "hcal":
            return HCalConfig(**loss_keys)
        if self.loss not in BASELINE_LOSSES:
            raise ValueError(f"unknown loss {self.loss!r} "
                             f"(choose {', '.join(LOSSES[:-1])}, or {LOSSES[-1]})")
        if loss_keys:
            raise ValueError(f"--{next(iter(loss_keys))} is an option of the hcal loss; "
                             f"it does not apply to --loss {self.loss}")
        return self.loss

    def train_config(self) -> TrainConfig:
        kwargs = {k: v for k, v in self.overrides.items() if k not in _LOSS_KEYS}
        if self.loss == "nll":
            kwargs.setdefault("selector_metric", "nll")
        return TrainConfig(**kwargs)

    def family_grid(self) -> list[tuple]:
        """The (family, hyper) candidates: the standard grid without a
        family, the family's ``grid`` without a size, else the one
        ``size``, checked by :func:`maps.check_sizes`."""
        if self.family is None:
            if self.size is not None:
                raise ValueError(f"--size {self.size} needs --family "
                                 f"(one of {', '.join(sorted(FAMILIES))})")
            return standard_grid()
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        cls = FAMILIES[self.family]
        if self.size is None:
            return [(self.family, h) for h in cls.grid]
        try:
            sizes = check_sizes(cls, self.size)
        except ValueError as exc:
            raise ValueError(f"--size {exc}") from None
        return [(self.family, sizes if len(sizes) > 1 else sizes[0])]

    def metric_ids(self) -> list[str] | None:
        """The ``--metrics`` ids, each checked; None when not given."""
        return None if self.metrics is None else _comma_list("metrics", self.metrics, METRICS)


def _comma_list(option: str, text: str, choices) -> list[str]:
    """The names in ``--option``'s comma-separated text: at least one, none
    twice, each one of ``choices``."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names or len(set(names)) < len(names):
        raise ValueError(f"--{option} {text!r} must list at least one name, and none twice")
    for name in names:
        if name not in choices:
            raise ValueError(f"--{option}: unknown name {name!r}; available: "
                             f"{', '.join(sorted(choices))}")
    return names


# accepted config-file keys and their value types, read off the annotations
# (an ``int | None`` option parses as int)
CONFIG_KEYS = {
    name: next(t for t in (*get_args(hint), hint) if t is not type(None))
    for cls in (RunConfig, HCalConfig, TrainConfig)
    for name, hint in get_type_hints(cls).items()
    if name != "overrides"
}

# the keys each command reads, as flags and as config-file keys, in --help order
_TRAIN_KEYS = ("seed", "loss", "epsilon", "window", "multiplier", "clusters", "norm",
               "weighting", "lr", "max_epochs", "scheduler_patience", "scheduler_factor",
               "early_stop_patience", "batch_size", "monitor_metric", "selector_metric",
               "family", "size")
COMMAND_KEYS = {
    "train": _TRAIN_KEYS,
    "eval": ("metrics", "bins"),
    "diagram": ("bins",),
    "compare": (*_TRAIN_KEYS, "metrics"),
}
_CHOICES = {"loss": LOSSES, "norm": NORMS, "weighting": WEIGHTINGS, "family": sorted(FAMILIES)}
_HELP = {
    "epsilon": "calibration error bound",
    "window": "events per constraint window",
    "multiplier": "loss scale factor",
    "clusters": "k-means clusters for window weighting",
    "scheduler_patience": "epochs without monitor improvement before the lr is scaled",
    "scheduler_factor": "lr scale factor on a plateau",
    "early_stop_patience": "epochs without monitor improvement before training stops",
    "batch_size": "samples per Adam step (default: all N, one full batch; "
                  "fewer: batches of a fresh seeded shuffle each epoch)",
    "size": "a positive integer per size of the family, joined by x (default: its grid): "
            + ", ".join(f"{f} {' x '.join(cls.hyper_names)}" for f, cls in FAMILIES.items()),
    "metrics": "comma-separated metric ids (default: full suite)",
    "bins": "bin count (default: each binned metric's own; 15 in a diagram)",
}


def read_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file; '#' starts a comment.  A
    key may appear once."""
    out, first_line = {}, {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} = {value!r} is not a valid "
                             f"{CONFIG_KEYS[key].__name__}") from None
    return out


def merge_config(args: argparse.Namespace, skipped=()) -> RunConfig:
    """Config file, then flags.  A config-file key outside the command's
    ``COMMAND_KEYS`` is rejected, and so is a key in ``skipped`` given either
    way: those of the calibrators ``compare`` leaves out."""
    keys = COMMAND_KEYS[args.command]
    given = read_config_file(args.config) if args.config else {}
    unread = [key for key in given if key not in keys]
    if unread:
        raise ValueError(f"{args.config}: config key {unread[0]!r} does not apply to "
                         f"hcal {args.command}")
    given.update({key: getattr(args, key) for key in keys if getattr(args, key) is not None})
    unread = [key for key in given if key in skipped]
    if unread:
        reader = "the hcal calibrator" if unread[0] in _HCAL_KEYS else "trained calibrators"
        raise ValueError(f"{unread[0]} (flag or config key) is read only by {reader}, "
                         f"which --calibrators {args.calibrators} leaves out")
    own = {f.name: given.pop(f.name) for f in fields(RunConfig) if f.name in given}
    return RunConfig(**own, overrides=given)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command: its positionals, ``--config``, one flag per
    ``COMMAND_KEYS`` key (dashes for underscores), then its own flags."""
    parser = argparse.ArgumentParser(
        prog="hcal", description="post-hoc classifier recalibration toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    model_in = ("model_path", "model file, or 'uncal' for plain softmax")
    commands = {  # name: handler, summary, positionals
        "train": (cmd_train, "train a calibrator and save the best model",
                  [("train_path", "training dataset (csv or binary)"),
                   ("model_path", "output model file")]),
        "eval": (cmd_eval, "evaluate a model (or 'uncal') on a dataset",
                 [model_in, ("test_path", None)]),
        "diagram": (cmd_diagram, "write an SVG reliability diagram",
                    [model_in, ("test_path", None), ("out_svg", None)]),
        "compare": (cmd_compare, "train several calibrators and tabulate metrics",
                    [("train_path", None), ("test_path", None)]),
    }
    for name, (handler, summary, positionals) in commands.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        for dest, text in positionals:
            p.add_argument(dest, help=text)
        p.add_argument("--config", help="flat key = value config file")
        for key in COMMAND_KEYS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=CONFIG_KEYS[key],
                           choices=_CHOICES.get(key), help=_HELP.get(key))
        if name == "train":
            p.add_argument("--verbose", action="store_true", help="log one line per epoch")
        else:
            p.add_argument("--out", help="output path for CSV results")
        if name == "compare":
            p.add_argument("--calibrators", default=",".join(_COMPARE_CALIBRATORS),
                           help=f"comma-separated subset of {','.join(_COMPARE_CALIBRATORS)}")
    return parser


def _apply_model(model_path: str, test_path: str) -> tuple[LogitDataset, np.ndarray]:
    """Load the test set and apply the model (or plain softmax for 'uncal')."""
    ds = load_dataset(test_path)
    if model_path == "uncal":
        return ds, softmax_rows(ds.logits)
    return ds, load_map(model_path).forward(ds.logits).probs


def cmd_train(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    grid, loss_spec, train_cfg = cfg.family_grid(), cfg.loss_spec(), cfg.train_config()
    train_ds = load_dataset(args.train_path)
    log_fn = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
    best, history, reports = select_model(train_ds, grid, loss_spec, train_cfg, log_fn=log_fn)
    save_map(best, args.model_path)
    history_path = Path(args.model_path).with_name(Path(args.model_path).name + ".history.csv")
    history.to_csv(history_path)
    print(f"trained {len(reports)} candidate(s) on {train_ds.name} "
          f"(N={train_ds.n_samples}, L={train_ds.n_classes})")
    for rep in reports:
        status = "FAILED" if rep.failed else f"{rep.selector_value:.6g}"
        print(f"  {rep.family} {size_text(rep.hyper)}: selector = {status}, epochs = {rep.epochs_run}")
    print(f"best: {best.describe()} -> {args.model_path}")
    print(f"history: {history_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    metric_ids = cfg.metric_ids()  # checked before any data loads
    test_ds, probs = _apply_model(args.model_path, args.test_path)
    report = evaluate(probs, test_ds.labels, metric_ids, bins=cfg.bins)
    print(report.to_table())
    if args.out:
        report.to_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_diagram(args: argparse.Namespace) -> int:
    cfg = merge_config(args)
    test_ds, probs = _apply_model(args.model_path, args.test_path)
    stats = reliability_data(probs, test_ds.labels,
                             bins=DEFAULT_BINS if cfg.bins is None else cfg.bins)
    title = f"{test_ds.name} / {Path(args.model_path).name}"
    Path(args.out_svg).write_bytes(render_reliability_svg(stats, title=title).encode("utf-8"))
    print(f"wrote {args.out_svg}")
    if args.out:
        stats.to_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = _comma_list("calibrators", args.calibrators, _COMPARE_CALIBRATORS)
    # without hcal, its own keys are unread; with nothing trained, every trainer key
    cfg = merge_config(args, () if "hcal" in names else
                       _HCAL_KEYS if set(names) - {"uncal"} else _TRAIN_KEYS)
    # options are checked before any data loads
    grid, loss_spec, train_cfg = cfg.family_grid(), cfg.loss_spec(), cfg.train_config()
    metric_ids = cfg.metric_ids() or list(METRICS)
    train_ds = load_dataset(args.train_path)
    test_ds = load_dataset(args.test_path)
    if set(names) - {"uncal"} and train_ds.n_classes != test_ds.n_classes:
        raise ValueError(f"class-count mismatch: {args.train_path} has {train_ds.n_classes} "
                         f"classes, {args.test_path} has {test_ds.n_classes}")
    if "hcal" in names:  # before any calibrator uses compute
        check_trainable(train_ds, loss_spec, train_cfg)
    elif any(_COMPARE_CALIBRATORS[name] for name in names):  # scaling reads no window or selector
        check_trainable(train_ds, "nll", train_cfg, selects=False)

    reports: dict[str, MetricReport] = {}
    uncal_report = evaluate(softmax_rows(test_ds.logits), test_ds.labels, metric_ids)
    for name in names:
        if name == "uncal":
            reports[name] = uncal_report
            continue
        if name == "hcal":
            best, _, _ = select_model(train_ds, grid, loss_spec, train_cfg)
        else:  # single-temperature scaling with the table's loss
            ts_map = EnsembleTempMap(1, seed=train_cfg.seed)
            best, _ = train_one(ts_map, train_ds, _COMPARE_CALIBRATORS[name], train_cfg)
        reports[name] = evaluate(best.forward(test_ds.logits).probs, test_ds.labels, metric_ids)

    rows = []
    for name in names:
        for mid in metric_ids:
            value = reports[name].values[mid]
            base = uncal_report.values[mid]
            rel = value / base if base != 0 else float("nan")
            rows.append((name, mid, value, rel))

    name_w = max(len(n) for n in names + ["calibrator"])
    mid_w = max(len(m) for m in metric_ids + ["metric"])
    print(f"{'calibrator'.ljust(name_w)}  {'metric'.ljust(mid_w)}  {'value':>14}  {'rel_to_uncal':>12}")
    for name, mid, value, rel in rows:
        print(f"{name.ljust(name_w)}  {mid.ljust(mid_w)}  {value:14.8f}  {rel:12.6f}")

    if args.out:
        write_csv(args.out, ["calibrator", "metric", "value", "rel_to_uncal"],
                  [[name, mid, repr(value), repr(rel)] for name, mid, value, rel in rows])
        print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
