"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Criteria 5 and 7 train on the shared synthetic overconfidence task (labels
drawn from softmax of known true logits, observed logits divided by 0.4);
their fitted models are shared through a module-scoped fixture so the suite
stays inside the stated runtime budgets.  Criterion 8 needs user-supplied
benchmark logit exports and skips itself when the files are absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from hcal.dataset import load_dataset, softmax_rows
from hcal.loss import (
    HCalConfig,
    brier_loss,
    build_windows,
    hcal_loss,
    nll_loss,
)
from hcal.maps import EnsembleTempMap, init_map
from hcal.metrics import ece_ew, sweep_ece, tcwece
from hcal.optim import TrainConfig, train_one
from hcal.synthetic import make_overconfident_task

EPSILONS = (1e-20, 1e-10, 1e-5, 1e-2, 1e-1)


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: Brier degeneracy


def test_criterion_1_brier_degeneracy():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    cfg = HCalConfig(
        epsilon=0.0, window=1, multiplier=1e5, norm="squared", weighting="uniform"
    )
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        l = int(rng.integers(2, 11))
        probs = rng.dirichlet(np.ones(l), size=n)
        labels = rng.integers(0, l, size=n)
        hv = hcal_loss(probs, labels, cfg).value
        bv = 1e5 * brier_loss(probs, labels).value
        worst = max(worst, abs(hv - bv) / bv)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report("criterion 1 (Brier degeneracy)",
           f"100 instances, worst rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient correctness


def _structure(probs, labels, cfg):
    """Sort order and per-window hinge sign at ``probs``."""
    perm, _, gaps = build_windows(probs, labels, cfg.window)
    return perm, np.where((np.abs(gaps) - cfg.epsilon) > 0, np.sign(gaps), 0.0)


def _fd_instance(family, hyper, loss_kind, seed, h=1e-4):
    """Worst guarded relative error for one random instance, or None when an
    FD evaluation crosses a kink of the loss (subgradient undefined there)."""
    rng = np.random.default_rng(seed)
    n, l = int(rng.integers(6, 20)), int(rng.integers(2, 5))
    logits = rng.normal(0, 2.0, (n, l))
    labels = rng.integers(0, l, n)
    cal_map = init_map(family, hyper, seed=seed)
    cal_map.params = cal_map.params + rng.normal(0, 0.3, cal_map.n_params)
    cfg = HCalConfig(epsilon=0.0, window=min(5, n * l), clusters=3)

    trace = cal_map.forward(logits)
    if loss_kind == "hcal":
        perm, w = oracles.frozen_structure(trace.probs, labels, cfg)
        base = _structure(trace.probs, labels, cfg)
        out = hcal_loss(trace.probs, labels, cfg)

        def loss_at(p):
            if not all(map(np.array_equal, _structure(p, labels, cfg), base)):
                raise _KinkCrossed
            return oracles.naive_hcal_loss(p, labels, cfg.epsilon, cfg.window, cfg.multiplier,
                                           w, perm)

    elif loss_kind == "nll":
        out = nll_loss(trace.probs, labels)
        loss_at = lambda p: nll_loss(p, labels).value
    else:
        out = brier_loss(trace.probs, labels)
        loss_at = lambda p: brier_loss(p, labels).value

    pgrad = cal_map.backward(trace, out.prob_grad)
    p0 = cal_map.params.copy()
    fd = np.zeros_like(pgrad)
    try:
        for i in range(cal_map.n_params):
            step = np.zeros_like(p0)
            step[i] = h
            cal_map.params = p0 + step
            f_plus = loss_at(cal_map.forward(logits).probs)
            cal_map.params = p0 - step
            f_minus = loss_at(cal_map.forward(logits).probs)
            fd[i] = (f_plus - f_minus) / (2 * h)
    except _KinkCrossed:
        return None
    finally:
        cal_map.params = p0
    # guarded relative error: parameters whose gradient is negligible against
    # the overall gradient scale cannot be resolved by FD in float64
    scale = max(np.abs(fd).max(), np.abs(pgrad).max(), 1e-8)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(pgrad)), 1e-6 * scale)
    return float(np.max(np.abs(fd - pgrad) / denom))


class _KinkCrossed(Exception):
    pass


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    combos = [
        (family, hyper, loss_kind)
        for family, hyper in [
            ("ensemble_temp", 3),
            ("piecewise_linear", 4),
            ("monotonic_net", (2, 3)),
        ]
        for loss_kind in ("hcal", "nll", "brier")
    ]
    for family, hyper, loss_kind in combos:
        accepted = []
        seed = 0
        while len(accepted) < 100 and seed < 200:
            err = _fd_instance(family, hyper, loss_kind, seed)
            if err is not None:
                accepted.append(err)
            seed += 1
        assert len(accepted) >= 100, f"{family}/{loss_kind}: too many kink draws"
        worst = max(accepted)
        assert worst <= 1e-4, f"{family}/{loss_kind}: rel err {worst:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("criterion 2 (gradient correctness)",
           f"9 family x loss combos, 100 instances each, step 1e-4, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: accuracy preservation


def test_criterion_3_accuracy_preservation():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    families = [("ensemble_temp", 8), ("piecewise_linear", 10), ("monotonic_net", (3, 4))]
    for family, hyper in families:
        checked = 0
        for _ in range(5):  # five random parameter draws, 2000 rows each
            cal_map = init_map(family, hyper, seed=int(rng.integers(0, 2**31)))
            cal_map.params = cal_map.params + rng.normal(0, 0.8, cal_map.n_params)
            logits = rng.normal(0, 3.0, (2000, 8))
            probs = cal_map.forward(logits).probs
            unique = np.sum(logits == logits.max(axis=1, keepdims=True), axis=1) == 1
            pre = logits[unique].argmax(axis=1)
            post = probs[unique].argmax(axis=1)
            assert np.array_equal(pre, post), f"{family}: argmax changed"
            checked += int(unique.sum())
        assert checked >= 10_000
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 3 (accuracy preservation)",
           f"10^4 unique-max rows per family, 100% preserved, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: metric oracles


def test_criterion_4_metric_oracles():
    start = time.perf_counter()
    from hcal.metrics import ace, cwece_a, cwece_s, ece_em, ks, mmce, skce

    pairs_exact = [
        ("ece_ew", ece_ew, oracles.naive_ece_ew),
        ("ece_em", ece_em, oracles.naive_ece_em),
        ("ace", ace, oracles.naive_ace),
        ("cwece_a", cwece_a, lambda p, y: oracles.naive_cwece(p, y, "a")),
        ("cwece_s", cwece_s, lambda p, y: oracles.naive_cwece(p, y, "s")),
        ("sweep_ece", sweep_ece, oracles.naive_sweep_ece),
        ("ks", ks, oracles.naive_ks),
    ]
    pairs_kernel = [
        ("mmce", mmce, oracles.naive_mmce),
        ("skce", skce, oracles.naive_skce),
    ]
    rng = np.random.default_rng(404)
    instances = []
    for _ in range(100):
        n = int(rng.integers(2, 51))
        l = int(rng.integers(2, 6))
        probs = rng.dirichlet(np.ones(l), size=n)
        labels = rng.integers(0, l, size=n)
        instances.append((probs, labels))
    for name, fast, naive in pairs_exact:
        worst = max(abs(fast(p, y) - naive(p, y)) for p, y in instances)
        assert worst <= 1e-12, f"{name}: {worst:.2e}"
    for name, fast, naive in pairs_kernel:
        worst = max(abs(fast(p, y) - naive(p, y)) for p, y in instances)
        assert worst <= 1e-9, f"{name}: {worst:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("criterion 4 (metric oracles)",
           f"9 metrics x 100 instances vs naive implementations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5 and 7 share the synthetic task and its trainings


@pytest.fixture(scope="module")
def synthetic_task():
    return make_overconfident_task(
        n_train=5000, n_test=10000, n_classes=10, temperature=0.4, seed=42
    )


@pytest.fixture(scope="module")
def trained_by_epsilon(synthetic_task):
    """Window-loss trainings at each epsilon, standard defaults otherwise."""
    models = {}
    wall = {}
    cfg = TrainConfig(seed=0)
    for eps in EPSILONS:
        start = time.perf_counter()
        cal_map, _ = train_one(
            init_map("ensemble_temp", 16, seed=0),
            synthetic_task.train,
            HCalConfig(epsilon=eps),
            cfg,
        )
        models[eps] = cal_map
        wall[eps] = time.perf_counter() - start
    return models, wall


def test_criterion_5_synthetic_recalibration(synthetic_task, trained_by_epsilon):
    task = synthetic_task
    models, wall = trained_by_epsilon

    # (a) NLL-trained single-temperature map recovers the distortion
    start = time.perf_counter()
    ts_map, _ = train_one(
        EnsembleTempMap(1, seed=0), task.train, "nll",
        TrainConfig(seed=0, monitor_metric="nll"),
    )
    t_fit = float(np.exp(ts_map.params[0]))
    scaling = 1.0 / t_fit
    assert abs(scaling - task.temperature) / task.temperature <= 0.05

    # (b) window-loss training at defaults halves the test calibration error
    uncal = ece_ew(softmax_rows(task.test.logits), task.test.labels)
    calibrated = ece_ew(models[1e-20].forward(task.test.logits).probs, task.test.labels)
    assert calibrated <= 0.5 * uncal
    elapsed = time.perf_counter() - start + wall[1e-20]
    assert elapsed < 300.0
    report(
        "criterion 5 (synthetic recalibration)",
        f"scaling {scaling:.4f} vs 0.4, test ECEew {uncal:.4f} -> {calibrated:.4f} "
        f"({100 * calibrated / uncal:.1f}%), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: zero-loss alignment


def test_criterion_6_zero_loss_alignment():
    start = time.perf_counter()
    # probabilities exactly equal to within-window event frequencies: with
    # constant 0.5 predictions and all labels 0, the flattened event sequence
    # alternates 1, 0, so every length-2 window has mean indicator 0.5
    n, m = 8, 2
    probs = np.full((n, 2), 0.5)
    labels = np.zeros(n, dtype=int)
    cfg = HCalConfig(epsilon=0.0, window=m, weighting="uniform")
    out = hcal_loss(probs, labels, cfg)
    assert out.value == 0.0

    # every window's mean event indicator equals its mean probability
    _, _, gaps = build_windows(probs, labels, m)
    assert np.all(np.abs(gaps) <= cfg.epsilon + 1e-15)

    # contrapositive sanity: a nonzero loss exhibits a violating window
    probs_bad = probs.copy()
    probs_bad[:, 0], probs_bad[:, 1] = 0.9, 0.1
    out_bad = hcal_loss(probs_bad, labels, cfg)
    assert out_bad.value > 0
    _, _, gaps_bad = build_windows(probs_bad, labels, m)
    assert np.abs(gaps_bad).max() > cfg.epsilon
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 6 (zero-loss alignment)",
           f"constructed case aligns every window, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 7: epsilon robustness


def test_criterion_7_epsilon_robustness(synthetic_task, trained_by_epsilon):
    task = synthetic_task
    models, wall = trained_by_epsilon
    final = {
        eps: ece_ew(models[eps].forward(task.test.logits).probs, task.test.labels)
        for eps in EPSILONS
    }
    small = [final[eps] for eps in (1e-20, 1e-10, 1e-5, 1e-2)]
    spread = (max(small) - min(small)) / min(small)
    assert spread < 0.30
    assert final[1e-1] >= final[1e-20]
    elapsed = sum(wall.values())
    assert elapsed < 1200.0
    report(
        "criterion 7 (epsilon robustness)",
        "ECEew " + " ".join(f"{eps:.0e}:{final[eps]:.4f}" for eps in EPSILONS)
        + f", spread {spread:.3f}, total training {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: optional external benchmark


def _benchmark_paths():
    root = Path(os.environ.get("HCAL_BENCHMARK_DIR", Path(__file__).parent.parent / "data"))
    for ext in (".csv", ".bin"):
        train = root / f"cifar10_resnet110_train{ext}"
        test = root / f"cifar10_resnet110_test{ext}"
        if train.exists() and test.exists():
            return train, test
    return None


@pytest.mark.skipif(
    _benchmark_paths() is None,
    reason="benchmark logits not present (see README: external benchmark check)",
)
def test_criterion_8_external_benchmark():
    train_path, test_path = _benchmark_paths()
    train = load_dataset(train_path)
    test = load_dataset(test_path)
    cfg = TrainConfig(seed=0)
    best_val, best_map = np.inf, None
    for m in (16, 32, 64, 128):
        cal_map, _ = train_one(
            init_map("ensemble_temp", m, seed=0), train, HCalConfig(), cfg
        )
        probs = cal_map.forward(train.logits).probs
        from hcal.metrics import dece

        val = dece(probs, train.labels)
        if val < best_val:
            best_val, best_map = val, cal_map
    probs = best_map.forward(test.logits).probs
    sweep = sweep_ece(probs, test.labels)
    thr = tcwece(probs, test.labels)
    assert sweep <= 0.010
    assert abs(thr - 0.0258) <= 0.010
    report("criterion 8 (external benchmark)",
           f"sweep ECE {sweep:.4f} <= 0.010, tCWECE {thr:.4f} within 0.0258 +/- 0.010")
