"""Adam training loop with plateau LR scheduling, early stopping, and
selection across mapping-family candidates by a training-set metric."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import LogitDataset, check_integer, forked, softmax_rows, write_csv
from .loss import LossOutput, resolve_loss
from .maps import FAMILIES, CalibrationMap, init_map, size_text
from .metrics import get_metric

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# dead-band so exactly-flat binned metrics do not keep resetting the
# patience counter
MIN_IMPROVEMENT = 1e-6


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    """Training-loop hyperparameters (defaults match the standard recipe)."""

    max_epochs: int = 2000
    lr: float = 0.005
    scheduler_patience: int = 20
    scheduler_factor: float = 0.5
    early_stop_patience: int = 160
    batch_size: int | None = None  # None, or N or more: one full batch
    monitor_metric: str = "ece_ew"
    selector_metric: str = "dece"
    seed: int = 0

    def __post_init__(self):
        for option, least in (("max_epochs", 0), ("scheduler_patience", 1),
                              ("early_stop_patience", 1), ("seed", 0)):
            check_integer(option, getattr(self, option), least)
        if self.batch_size is not None:  # None: one full batch
            check_integer("batch_size", self.batch_size, 1)
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0 < self.scheduler_factor < 1:
            raise ValueError("scheduler_factor must be in (0, 1)")
        for option in ("monitor_metric", "selector_metric"):
            try:
                get_metric(getattr(self, option))
            except ValueError as exc:
                raise ValueError(f"{option}: {exc}") from None

    def batch_rows(self, n: int) -> int:
        """Samples per training batch on an n-sample training set."""
        return n if self.batch_size is None else min(self.batch_size, n)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One bias-corrected Adam update; mutates ``state``, returns new params."""
    if params.shape != grads.shape:
        raise ValueError(f"params shape {params.shape} != grads shape {grads.shape}")
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    metric: float
    lr: float


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1  # index into records; -1 when no epoch ran
    wall_time: float = 0.0
    # train_one's monitor forward probabilities at the returned parameters
    # (the same array, not a copy); None when no epoch was best, and always
    # None on the history select_model returns
    best_probs: np.ndarray | None = field(default=None, repr=False)

    def to_csv(self, path) -> None:
        write_csv(path, ["epoch", "loss", "metric", "lr"],
                  [[r.epoch, repr(r.loss), repr(r.metric), repr(r.lr)] for r in self.records])


def train_one(
    cal_map: CalibrationMap,
    train: LogitDataset,
    loss_cfg,
    cfg: TrainConfig,
    log_fn=None,
) -> tuple[CalibrationMap, TrainHistory]:
    """Train one map; returns (best-snapshot map, per-epoch history).

    An epoch takes one Adam step per batch; mini-batches (the last possibly
    short) come from a fresh seeded permutation each epoch.  After every
    epoch the monitor metric is evaluated on the full training set; the
    learning rate is scaled by ``scheduler_factor`` after every
    ``scheduler_patience`` epochs without improvement, and training stops
    after ``early_stop_patience`` of them.  The returned map carries the
    parameters of the best monitored epoch.

    In full-batch mode the monitor's forward after each update is also the
    next epoch's training forward: E epochs take E + 1 forwards.  A forward
    that blows up raises :class:`TrainingDivergedError`.  The best epoch's
    monitor probabilities stay in ``history.best_probs``.
    """
    start = time.perf_counter()
    cal_map = cal_map.clone()
    cal_map.n_classes = train.n_classes
    monitor = get_metric(cfg.monitor_metric)
    loss_fn = resolve_loss(loss_cfg)
    state = AdamState.zeros(cal_map.n_params)
    rng = np.random.default_rng(cfg.seed)
    n = train.n_samples
    batch = cfg.batch_rows(n)

    history = TrainHistory()
    best_exact = np.inf  # governs the returned snapshot (true minimum)
    best_banded = np.inf  # governs the patience counter (MIN_IMPROVEMENT dead-band)
    best_params = cal_map.params.copy()
    lr = cfg.lr
    stop_wait = 0  # epochs since the last banded improvement
    trace = None  # the monitor forward, kept as the next full-batch epoch's forward

    for epoch in range(1, cfg.max_epochs + 1):
        batches = ([slice(None)] if batch == n
                   else np.split(rng.permutation(n), range(batch, n, batch)))
        total = 0.0
        try:
            for idx in batches:
                if trace is None:
                    trace = cal_map.forward(train.logits[idx])
                labels = train.labels[idx]
                out: LossOutput = loss_fn(trace.probs, labels)
                if not np.isfinite(out.value):
                    raise TrainingDivergedError(f"non-finite loss at step {state.step + 1} "
                                                f"(family {cal_map.family})")
                pgrad = cal_map.backward(trace, out.prob_grad)
                cal_map.params = adam_step(cal_map.params, pgrad, state, lr)
                total += out.value * len(labels)
                trace = out = None  # free the spent trace and gradient before the next forward
            trace = cal_map.forward(train.logits)
        except FloatingPointError as exc:  # raised by a forward's finiteness check
            raise TrainingDivergedError(f"forward pass diverged at step {state.step + 1} "
                                        f"(family {cal_map.family}): {exc}") from exc
        mean_loss = total / n
        metric_val = float(monitor(trace.probs, train.labels))
        history.records.append(EpochRecord(epoch, mean_loss, metric_val, lr))
        if log_fn is not None:
            log_fn(f"epoch {epoch} loss {mean_loss:.6g} {cfg.monitor_metric} {metric_val:.6g} lr {lr:.6g}")

        if metric_val < best_exact:
            best_exact = metric_val
            best_params = cal_map.params.copy()
            history.best_epoch = len(history.records) - 1
            history.best_probs = trace.probs
        if batch < n:
            trace = None  # mini-batch epochs start from their own forwards
        if best_banded - metric_val >= MIN_IMPROVEMENT:
            best_banded = metric_val
            stop_wait = 0
        else:
            stop_wait += 1
            if stop_wait >= cfg.early_stop_patience:
                break
            if stop_wait % cfg.scheduler_patience == 0:
                lr *= cfg.scheduler_factor

    if history.best_epoch >= 0:
        cal_map.params = best_params
    history.wall_time = time.perf_counter() - start
    return cal_map, history


@dataclass
class CandidateReport:
    family: str
    hyper: tuple  # one size per hyper_names entry
    selector_value: float
    epochs_run: int
    best_epoch: int
    wall_time: float
    failed: bool = False


def select_model(
    train: LogitDataset,
    families: list[tuple],
    loss_cfg,
    cfg: TrainConfig,
    log_fn=None,
) -> tuple[CalibrationMap, TrainHistory, list[CandidateReport]]:
    """Train every (family, hyper) candidate; return the one minimizing the
    selector metric on the training set (ties broken by declaration order).
    The selector scores the best epoch's monitor probabilities; only a
    candidate without a best epoch takes one more forward.

    The candidates train in up to ``dataset._WORKERS`` processes
    (:func:`hcal.dataset.forked`); every output, and the order of the
    ``log_fn`` lines, is the same for any count.  The first candidate logs
    as it trains; with more than one worker the others' lines follow once
    they are all trained."""
    if not families:
        raise ValueError("need at least one candidate")
    check_trainable(train, loss_cfg, cfg)
    selector = get_metric(cfg.selector_metric)
    logged = 0  # candidates whose lines are out; a child's copy stays below its items

    def fit(i):
        """Candidate i: (sizes, log lines, (map, history, value) or None if
        it diverged).  It logs live only while every earlier candidate's
        lines are out; otherwise its lines wait for select_model."""
        nonlocal logged
        family, hyper = families[i]
        live, lines = logged == i, []
        log = log_fn if live or log_fn is None else lines.append
        candidate = init_map(family, hyper, seed=cfg.seed)
        try:
            trained, history = train_one(candidate, train, loss_cfg, cfg, log_fn=log)
            probs = history.best_probs
            if probs is None:
                probs = trained.forward(train.logits).probs
            value = float(selector(probs, train.labels))
            history.best_probs = None  # not sent back from a child
            fitted = (trained, history, value)
            if log is not None:
                log(f"candidate {family} {size_text(candidate.sizes)}: "
                    f"{cfg.selector_metric} = {value:.6g}")
        except TrainingDivergedError:
            fitted = None
        logged += live
        return candidate.sizes, lines, fitted

    best = None  # (value, map, history)
    reports: list[CandidateReport] = []
    for (family, _), (sizes, lines, fitted) in zip(families, forked(fit, range(len(families)))):
        for line in lines:
            log_fn(line)
        if fitted is None:
            reports.append(CandidateReport(family, sizes, float("inf"), 0, -1, 0.0, failed=True))
            continue
        trained, history, value = fitted
        reports.append(CandidateReport(family, sizes, value, len(history.records),
                                       history.best_epoch, history.wall_time))
        if best is None or value < best[0]:
            best = (value, trained, history)
    if best is None:
        raise TrainingDivergedError("all candidate trainings diverged")
    return best[1], best[2], reports


def check_trainable(train: LogitDataset, loss_cfg, cfg: TrainConfig) -> None:
    """Reject what would otherwise fail only after a candidate has trained:
    a window wider than the smallest batch's events, or a monitor or
    selector metric that cannot score the training set."""
    n, n_classes = train.n_samples, train.n_classes
    window = getattr(loss_cfg, "window", 0)
    batch = cfg.batch_rows(n)
    rows = n % batch or batch  # the smallest batch
    if window > rows * n_classes:
        fix = f"a window <= {rows * n_classes}"
        if rows < n:
            fix += f" or a batch_size that leaves no batch under {-(-window // n_classes)} samples"
        raise ValueError(f"window {window} exceeds the {rows * n_classes} atomic events of "
                         f"a {rows}-sample batch ({n_classes} classes); use {fix}")
    probe = softmax_rows(train.logits)
    for option in ("monitor_metric", "selector_metric"):
        metric = get_metric(getattr(cfg, option))
        try:
            metric(probe, train.labels)
        except ValueError as exc:
            raise ValueError(f"{option} {getattr(cfg, option)!r} cannot score {n} training "
                             f"samples ({exc}); choose another {option} or add samples") from exc


def standard_grid() -> list[tuple]:
    """The standard 12-candidate family grid: each family's ``grid``."""
    return [(family, h) for family, cls in FAMILIES.items() for h in cls.grid]
