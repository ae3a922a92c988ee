"""Calibration metric suite: top-label, classwise, and canonical estimators.

Conventions shared across the suite:

* top-label confidence is the row max; the predicted class is the argmax
  with lowest-index tie-break (same convention as the mapping families);
* each id in :data:`METRICS` is the function of that name; a binned one
  takes its bin count as ``bins``; equal-width bin m covers
  [m/bins, (m+1)/bins) with the last bin closed at 1;
* equal-mass bins are contiguous runs of the stably-sorted confidences, so
  bin sizes differ by at most one and ties keep their input order;
* every metric, :func:`reliability_data` and :func:`evaluate` first check
  the input: a non-empty N x L matrix with no NaN or infinite entry, and N
  labels, each a whole number in [0, L); a ``ValueError`` names the fault;
* ``skce`` and ``dkde_ce`` run their row blocks, and ``kde_ece`` its grid
  blocks, on the process's CPUs (``dataset.blockwise``), with the same
  value for any count.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import loss as loss_mod
from .dataset import (blockwise, check_labels, check_prob_matrix, one_hot, stable_argsort,
                      write_csv)
from .loss import kmeans_1d

DEFAULT_BINS = 15
CWECE_S_BINS = DEFAULT_BINS - 1  # keeps cwece_s distinct from cwece_a
MMCE_BANDWIDTH = 0.4
SKCE_BANDWIDTH = 1.0
DKDE_BANDWIDTH = 1.0
KDE_GRID_POINTS = 1024  # kde_ece's integration grid over [1/L, 1]
_SKCE_BLOCK = _DKDE_BLOCK = 32  # samples per block of the pairwise kernels
_KDE_BLOCK = 32  # grid points per block of kde_ece
_SWEEP_SCREEN, _SWEEP_CELLS = 8, 1 << 18  # sweep_ece: first screen depth, bounds per pass
_lgamma = np.vectorize(math.lgamma, otypes=[np.float64])  # elementwise log-gamma


# ---------------------------------------------------------------------------
# shared helpers


def top_label(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(confidence, correctness) of the argmax prediction per sample."""
    pred = probs.argmax(axis=1)
    return probs[np.arange(pred.size), pred], (pred == labels).astype(np.float64)


class _Input:
    """A metric input that passed the gate (see the module docstring).  The
    arrays several metrics share are built on first use; none is written to."""

    def __init__(self, probs, labels):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 2 or probs.size == 0:
            raise ValueError(f"probability matrix must be 2-D and non-empty, got {probs.shape}")
        if not np.isfinite(probs.sum()):  # one cheap pass; the full check names the fault
            check_prob_matrix(probs)
        self.probs, self.shape = probs, probs.shape
        self.labels = check_labels(labels, probs.shape)

    @functools.cached_property
    def top(self) -> tuple[np.ndarray, np.ndarray]:
        return top_label(self.probs, self.labels)

    @functools.cached_property
    def ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """:attr:`top` in stable ascending confidence order."""
        order = stable_argsort(self.top[0])
        return self.top[0][order], self.top[1][order]

    @functools.cached_property
    def events(self) -> np.ndarray:
        return one_hot(self.labels, self.shape[1])


def _checked(probs, labels) -> _Input:
    """The gate; an input that already passed it is used as it is."""
    return probs if isinstance(probs, _Input) else _Input(probs, labels)


def equal_width_bin_index(values: np.ndarray, bins: int) -> np.ndarray:
    """Bin index for values in [0, 1]; bin m is [m/bins, (m+1)/bins), the
    topmost bin also contains 1."""
    edges = np.arange(bins + 1) / bins
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, bins - 1)


def equal_mass_bounds(n: int, bins: int) -> np.ndarray:
    """Start of each equal-mass bin among n sorted positions, then n; bin
    sizes differ by at most one."""
    return (np.arange(bins + 1) * n) // bins


def _bin_sums(values: np.ndarray, targets: np.ndarray, idx: np.ndarray, bins: int) -> tuple:
    """Per-bin (count, sum of values, sum of targets) for bin assignment ``idx``."""
    return tuple(np.bincount(idx, weights=w, minlength=bins) for w in (None, values, targets))


def _check_bins(bins: int) -> None:
    if isinstance(bins, bool) or not isinstance(bins, (int, np.integer)):
        raise ValueError(f"bins must be an integer, got {bins!r}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")


@dataclass
class BinStats:
    """Per-bin reliability statistics for the top-label prediction."""

    lower: np.ndarray
    upper: np.ndarray
    counts: np.ndarray
    mean_confidence: np.ndarray  # NaN for empty bins
    accuracy: np.ndarray  # NaN for empty bins
    overall_confidence: float
    overall_accuracy: float

    @property
    def n_bins(self) -> int:
        return self.counts.size

    def to_csv(self, path: str | Path) -> None:
        """Bin table for external plotting (one row per bin)."""
        rows = [[repr(float(self.lower[m])), repr(float(self.upper[m])), int(self.counts[m]),
                 repr(float(self.mean_confidence[m])), repr(float(self.accuracy[m]))]
                for m in range(self.n_bins)]
        rows.append(["overall", "", int(self.counts.sum()),
                     repr(self.overall_confidence), repr(self.overall_accuracy)])
        write_csv(path, ["lower", "upper", "count", "mean_confidence", "accuracy"], rows)


def reliability_data(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> BinStats:
    """Equal-width top-label bin statistics plus the overall aggregates."""
    conf, correct, (counts, conf_sum, corr_sum) = _top_label_sums(probs, labels, False, bins)
    mean_conf = np.where(counts > 0, conf_sum / np.maximum(counts, 1), np.nan)
    acc = np.where(counts > 0, corr_sum / np.maximum(counts, 1), np.nan)
    edges = np.arange(bins + 1) / bins
    return BinStats(
        lower=edges[:-1],
        upper=edges[1:],
        counts=counts,
        mean_confidence=mean_conf,
        accuracy=acc,
        overall_confidence=float(conf.mean()),
        overall_accuracy=float(correct.mean()),
    )


# ---------------------------------------------------------------------------
# top-label metrics


def _top_label_sums(probs: np.ndarray, labels: np.ndarray, equal_mass: bool, bins: int) -> tuple:
    """Top-label (confidence, correctness), sorted by confidence for equal
    mass, and their per-bin (count, sum of confidences, sum of correctness)."""
    _check_bins(bins)
    x = _checked(probs, labels)
    if equal_mass:
        conf, correct = x.ranked
        return conf, correct, _equal_mass_sums(conf, correct, bins)
    conf, correct = x.top
    return conf, correct, _bin_sums(conf, correct, equal_width_bin_index(conf, bins), bins)


def _equal_mass_sums(conf: np.ndarray, correct: np.ndarray, bins: int) -> tuple:
    """Per-bin sums of ``bins`` equal-mass bins over confidence-sorted samples."""
    idx = np.repeat(np.arange(bins), np.diff(equal_mass_bounds(conf.size, bins)))
    return _bin_sums(conf, correct, idx, bins)


def _nonempty_bins(counts: np.ndarray, conf_sum: np.ndarray, corr_sum: np.ndarray) -> tuple:
    """Per nonempty bin (count, accuracy, mean confidence)."""
    mask = counts > 0
    counts = counts[mask]
    return counts, corr_sum[mask] / counts, conf_sum[mask] / counts


def _binned_gap(sums: tuple, r: int) -> float:
    """From per-bin (count, sum of confidences, sum of correctness), the
    count-weighted mean |accuracy - confidence| (r=1), or the root of the
    count-weighted mean squared gap (r=2)."""
    counts, acc, conf = _nonempty_bins(*sums)
    gap = np.abs(acc - conf)
    w = counts / counts.sum()
    return float(w @ gap) if r == 1 else float(np.sqrt(w @ (gap * gap)))


def ece_ew(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """Expected calibration error of the top-label prediction: the
    count-weighted mean |accuracy - confidence| over equal-width bins."""
    return _binned_gap(_top_label_sums(probs, labels, False, bins)[2], 1)


def ece_em(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """:func:`ece_ew` over equal-mass bins."""
    return _binned_gap(_top_label_sums(probs, labels, True, bins)[2], 1)


def ece_r2(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """Order-2 :func:`ece_ew`: the square root of the count-weighted mean
    squared gap."""
    return _binned_gap(_top_label_sums(probs, labels, False, bins)[2], 2)


def dece(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """Debiased equal-mass calibration error.

    Subtracts the per-bin plug-in variance A(1-A)/(|B|-1) from each squared
    gap, floors the weighted total at zero, and takes the square root.  Every
    bin must contain at least 2 samples.
    """
    _check_bins(bins)
    x = _checked(probs, labels)
    n = x.shape[0]
    if n // bins < 2:  # the smallest equal-mass bin holds n // bins samples
        raise ValueError(
            f"debiased ECE needs >= 2 samples per bin; a bin got {n // bins} "
            f"(N={n}, bins={bins})"
        )
    counts, acc, conf = _nonempty_bins(*_top_label_sums(x, labels, True, bins)[2])
    gap = acc - conf
    total = (counts / n) @ (gap * gap - acc * (1.0 - acc) / (counts - 1))
    return float(np.sqrt(max(total, 0.0)))


def ace(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """Unweighted mean absolute gap over the nonempty equal-width bins."""
    _, acc, conf = _nonempty_bins(*_top_label_sums(probs, labels, False, bins)[2])
    return float(np.abs(acc - conf).mean())


def _monotone_bin_count(csum_k: np.ndarray) -> int:
    """Largest equal-mass bin count with non-decreasing bin accuracies, from
    the cumulative correctness (leading 0) in ascending confidence order.

    A count whose first ``width`` bins decrease is not monotone, so the
    largest counts (``_SWEEP_CELLS`` bounds' worth) are screened on their
    first ``width`` bins at once; while the largest survivor has more bins
    than that, ``width`` grows 8x.  Count 1 always survives.
    """
    n = csum_k.size - 1
    cand = np.arange(n, 0, -1)
    width = _SWEEP_SCREEN
    while True:
        head = cand[:max(_SWEEP_CELLS // (width + 1), 1), None]
        bounds = (np.minimum(np.arange(width + 1), head) * n) // head  # bins past b are empty
        with np.errstate(invalid="ignore"):  # 0/0 = NaN for empty bins never compares < 0
            accs = np.diff(csum_k[bounds], axis=1) / np.diff(bounds, axis=1)
        keep = ~(np.diff(accs, axis=1) < 0).any(axis=1)
        cand = np.concatenate([head[keep, 0], cand[head.shape[0]:]])
        if keep.any():
            if cand[0] <= width:
                return int(cand[0])
            width *= _SWEEP_SCREEN


def _sweep_gap(probs: np.ndarray, labels: np.ndarray, r: int) -> float:
    """:func:`_binned_gap` of order r over the monotone sweep's equal-mass
    bins.  One ranking serves the bin-count search and the binning."""
    conf, correct = _checked(probs, labels).ranked
    bins = _monotone_bin_count(np.concatenate([[0.0], np.cumsum(correct)]))
    return _binned_gap(_equal_mass_sums(conf, correct, bins), r)


def sweep_ece(probs: np.ndarray, labels: np.ndarray) -> float:
    """Equal-mass ECE at the largest bin count whose bin accuracies are
    non-decreasing in confidence order, found by screening the counts on
    their first bins and checking only survivors deeper
    (:func:`_monotone_bin_count`)."""
    return _sweep_gap(probs, labels, 1)


def sweep_ece_r2(probs: np.ndarray, labels: np.ndarray) -> float:
    """Order-2 :func:`sweep_ece`."""
    return _sweep_gap(probs, labels, 2)


def ks(probs: np.ndarray, labels: np.ndarray) -> float:
    """Max gap between cumulative correctness and confidence mass, over
    samples in (stable) ascending confidence order."""
    conf, correct = _checked(probs, labels).ranked
    n = conf.size
    h = np.cumsum(correct) / n
    g = np.cumsum(conf) / n
    return float(np.abs(h - g).max())


def mmce(probs: np.ndarray, labels: np.ndarray) -> float:
    """Kernel-embedding top-label calibration error with a Laplacian kernel.

    Returns sqrt of the (zero-floored) biased V-statistic, bw = MMCE_BANDWIDTH:
    (1/N^2) sum_ij (e_i - c_i) exp(-|c_i - c_j| / bw) (e_j - c_j).

    On confidences sorted ascending the kernel of j < i factors as
    f_i / f_j with f = exp(-(c - c_min) / bw), which stays in [e^-2.5, 1],
    so the double sum is r @ r + 2 sum_i r_i f_i sum_{j<i} r_j / f_j: a
    running sum in O(N log N).
    """
    c, correct = _checked(probs, labels).ranked
    r = correct - c
    f = np.exp(-(c - c[0]) / MMCE_BANDWIDTH)
    below = np.concatenate([[0.0], np.cumsum(r / f)[:-1]])
    total = r @ r + 2.0 * (r * f) @ below
    return float(np.sqrt(max(total / (c.size * c.size), 0.0)))


def kde_ece(probs: np.ndarray, labels: np.ndarray) -> float:
    """Kernel-smoothed top-label calibration error.

    Gaussian-kernel Nadaraya-Watson estimate of accuracy given confidence,
    integrated (trapezoid rule) against the smoothed confidence density on a
    fixed grid of ``KDE_GRID_POINTS`` points over [1/L, 1].  The bandwidth
    is the 1.06 * sigma * N^-1/5 rule of thumb, floored at 1e-3.
    The grid and the confidences are scaled by 1 / (bw sqrt 2), so each
    block of grid points builds its (block, N) kernel array in place in four
    passes, small enough to stay in cache for its two sums, and writes its
    own entries of the two sums.
    """
    x = _checked(probs, labels)
    conf, correct = x.top
    n, n_classes = x.shape
    sigma = float(np.std(conf, ddof=1)) if n > 1 else 0.0
    bandwidth = max(1.06 * sigma * n ** (-0.2), 1e-3)
    grid = np.linspace(1.0 / n_classes, 1.0, KDE_GRID_POINTS)
    scale = 1.0 / (bandwidth * np.sqrt(2.0))
    scaled_grid, scaled_conf = grid * scale, conf * scale
    numer, denom = np.empty(KDE_GRID_POINTS), np.empty(KDE_GRID_POINTS)
    def block(s):
        kmat = np.subtract.outer(scaled_grid[s:s + _KDE_BLOCK], scaled_conf)
        np.square(kmat, out=kmat)
        np.negative(kmat, out=kmat)
        np.exp(kmat, out=kmat)  # unnormalized Gaussian
        np.matmul(kmat, correct, out=numer[s:s + _KDE_BLOCK])
        kmat.sum(axis=1, out=denom[s:s + _KDE_BLOCK])
    blockwise(block, range(0, KDE_GRID_POINTS, _KDE_BLOCK))
    pi = np.where(denom > 0, numer / np.maximum(denom, 1e-300), 0.0)
    density = denom / (n * bandwidth * np.sqrt(2.0 * np.pi))
    integrand = np.where(denom > 0, np.abs(grid - pi) * density, 0.0)
    return float(np.trapezoid(integrand, grid))


# ---------------------------------------------------------------------------
# classwise metrics


def _classwise(probs, labels, bins: int, r: int, thresholded: bool, kmeans: bool) -> list[float]:
    """Per class with retained entries, the retained-count-weighted mean over
    its nonempty bins of |mean event - mean prob| ** r.  Every entry is
    retained, or with ``thresholded`` only those above 1/L.  Bins are
    ``bins`` equal-width bins, or with ``kmeans`` the 1-D k-means clusters
    of the retained entries (at most one per entry)."""
    _check_bins(bins)
    x = _checked(probs, labels)
    threshold = 1.0 / x.shape[1]
    per_class = []
    for p, e in zip(x.probs.T, x.events.T):
        if thresholded:
            keep = p > threshold
            p, e = p[keep], e[keep]
        if p.size == 0:
            continue
        k = min(bins, p.size) if kmeans else bins
        idx = kmeans_1d(p, k)[1] if kmeans else equal_width_bin_index(p, bins)
        counts, p_sum, e_sum = _bin_sums(p, e, idx, k)
        mask = counts > 0
        gaps = np.abs(e_sum[mask] - p_sum[mask]) / counts[mask]
        per_class.append(float((counts[mask] / p.size) @ (gaps if r == 1 else gaps * gaps)))
    if not per_class:
        raise ValueError(f"no entries retained above threshold 1/L = {threshold}")
    return per_class


def cwece_a(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """Classwise binned calibration error, averaged over classes (1/L)."""
    per_class = _classwise(probs, labels, bins, 1, thresholded=False, kmeans=False)
    return sum(per_class) / len(per_class)


def cwece_s(probs: np.ndarray, labels: np.ndarray, bins: int = CWECE_S_BINS) -> float:
    """:func:`cwece_a` summed over classes (no 1/L)."""
    return sum(_classwise(probs, labels, bins, 1, thresholded=False, kmeans=False))


def cwece_r2(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """Order-2 :func:`cwece_a`: the square root of the class mean of the
    squared gaps."""
    per_class = _classwise(probs, labels, bins, 2, thresholded=False, kmeans=False)
    return float(np.sqrt(sum(per_class) / len(per_class)))


def tcwece(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """Thresholded classwise error: only (sample, class) entries with
    probability strictly above 1/L are scored.

    Per class the gaps are weighted by retained count; classes with no
    retained entries are skipped and the rest averaged.
    """
    return float(np.mean(_classwise(probs, labels, bins, 1, thresholded=True, kmeans=False)))


def tcwece_k(probs: np.ndarray, labels: np.ndarray, bins: int = DEFAULT_BINS) -> float:
    """:func:`tcwece` with ``bins`` 1-D k-means clusters per class instead of
    fixed equal-width edges."""
    return float(np.mean(_classwise(probs, labels, bins, 1, thresholded=True, kmeans=True)))


# ---------------------------------------------------------------------------
# canonical metrics


def skce(probs: np.ndarray, labels: np.ndarray) -> float:
    """Unbiased pairwise kernel calibration error over full probability rows.

    Matrix kernel = exp(-||p - p'||_1 / bw) * identity, bw = SKCE_BANDWIDTH,
    so each pair contributes exp(-||p_i - p_j||_1 / bw) <e_i - p_i, e_j - p_j>.
    The unbiased estimator averages over the N(N-1)/2 unordered pairs and may
    be negative.

    Since |a - b| = a + b - 2 min(a, b), the kernel factors, for any rows
    with sums S, into exp(-S_i / bw) exp(-S_j / bw) exp(2 sum_l min(p_il,
    p_jl) / bw).  Each residual row carries its outer factor into the
    residual Gram matmul.  The min factor is at most exp(2 min(S_i, S_j) /
    bw), e^2 for probability rows at bw = 1, so it cannot overflow.  Row
    block [s, s + B) meets only columns s..N-1, its min sums taken class by
    class in one (B, N - s) buffer.
    """
    x = _checked(probs, labels)
    probs, (n, n_classes) = x.probs, x.shape
    if n < 2:
        raise ValueError("SKCE needs at least 2 samples")
    resid = x.events - probs
    resid *= np.exp(probs.sum(axis=1, keepdims=True) / -SKCE_BANDWIDTH)
    by_class = probs.T.copy()  # contiguous columns for the class-wise minima
    by_class *= 2.0 / SKCE_BANDWIDTH
    def block(s):
        e = min(s + _SKCE_BLOCK, n)
        kmat = np.empty((e - s, n - s))
        work = np.empty_like(kmat)
        np.minimum.outer(by_class[0, s:e], by_class[0, s:], out=kmat)
        for c in range(1, n_classes):
            kmat += np.minimum.outer(by_class[c, s:e], by_class[c, s:], out=work)
        np.exp(kmat, out=kmat)
        kmat *= np.matmul(resid[s:e], resid[s:].T, out=work)
        # keep strictly upper-triangular pairs (global i < j): only the
        # block's diagonal square holds pairs with i >= j
        return float(np.triu(kmat[:, : e - s], 1).sum()) + float(kmat[:, e - s:].sum())
    total = 0.0
    for part in blockwise(block, range(0, n, _SKCE_BLOCK)):  # not sum(): 3.12 compensates
        total += part
    return float(total / (n * (n - 1) / 2))


def dkde_ce(probs: np.ndarray, labels: np.ndarray) -> float:
    """Leave-one-out Dirichlet-kernel estimate of the canonical gap: the mean
    squared L2 distance between each row and its estimate.

    Kernels (bandwidth ``DKDE_BANDWIDTH``) are evaluated in the log domain
    (lgamma) so large class counts do not overflow; probabilities are
    floored at 1e-12 and renormalized for the kernel only.  Sample j's
    leave-one-out shift and normalization use only its own row of weights,
    so blocks of j are exact on their own.  A ones column beside log a_j
    meets the per-kernel constant beside alpha_i, so one matmul gives a
    block's log-kernels, and the estimate is normalized after its
    contraction with the labels, on a (B, L) array.
    """
    x = _checked(probs, labels)
    probs, (n, n_classes) = x.probs, x.shape
    if n < 2:
        raise ValueError("DKDE-CE needs at least 2 samples")
    safe = np.maximum(probs, 1e-12)
    safe = safe / safe.sum(axis=1, keepdims=True)
    alpha = safe / DKDE_BANDWIDTH  # kernel parameters b_l / h per row
    # log K(a_j ; b_i) = lgamma(L + sum alpha_i) - sum lgamma(1 + alpha_i)
    #                    + sum alpha_i * log a_j
    const_i = _lgamma(n_classes + alpha.sum(axis=1)) - _lgamma(1.0 + alpha).sum(axis=1)
    at_j = np.column_stack([np.log(safe), np.ones(n)])
    params_i = np.column_stack([alpha, const_i]).T  # [L + 1, i]
    events = x.events
    pi = np.empty_like(probs)  # [j, L] leave-one-out estimate
    def block(s):
        e = min(s + _DKDE_BLOCK, n)
        logk = at_j[s:e] @ params_i  # [j, i]
        logk[np.arange(e - s), np.arange(s, e)] = -np.inf  # leave j out
        logk -= logk.max(axis=1, keepdims=True)  # stabilize per sample j
        np.exp(logk, out=logk)
        np.divide(logk @ events, logk.sum(axis=1, keepdims=True), out=pi[s:e])
    blockwise(block, range(0, n, _DKDE_BLOCK))
    diff = probs - pi
    return float((diff * diff).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# reference scores


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(_checked(probs, labels).top[1].mean())


def nll(probs: np.ndarray, labels: np.ndarray) -> float:
    x = _checked(probs, labels)
    return loss_mod.nll_loss(x.probs, x.labels).value


# ---------------------------------------------------------------------------
# registry and reports

METRICS = {fn.__name__: fn for fn in (
    ece_ew, ece_em, ece_r2, dece, ace, sweep_ece, sweep_ece_r2, ks, mmce, kde_ece,
    cwece_a, cwece_s, cwece_r2, tcwece, tcwece_k, dkde_ce, skce, nll, accuracy,
)}
"""Metric id -> the ``(probs, labels)`` function of that name.  A metric is
binned exactly when it takes a ``bins`` keyword, whose default is its own
bin count; :func:`evaluate` passes its ``bins`` override only to those."""


def get_metric(metric_id: str):
    try:
        return METRICS[metric_id]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric_id!r}; available: {', '.join(sorted(METRICS))}"
        ) from None


@dataclass
class MetricReport:
    """Named metric values for one (dataset, calibrator) pair."""

    values: dict[str, float]

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["metric", "value"],
                  [[name, repr(float(value))] for name, value in self.values.items()])

    def to_table(self) -> str:
        width = max((len(k) for k in self.values), default=6)
        lines = [f"{'metric'.ljust(width)}  value", f"{'-' * width}  {'-' * 12}"]
        for name, value in self.values.items():
            lines.append(f"{name.ljust(width)}  {value: .10f}")
        return "\n".join(lines)


def evaluate(
    probs: np.ndarray,
    labels: np.ndarray,
    metric_ids: list[str] | None = None,
    bins: int | None = None,
) -> MetricReport:
    """Compute the requested metrics (default: the whole registry).

    ``bins`` (an integer >= 1) overrides the bin count of every binned metric
    (see :data:`METRICS`; otherwise each uses its documented default).  Every
    id, ``bins`` and the input are checked before any metric runs.
    """
    fns = {mid: get_metric(mid) for mid in (metric_ids if metric_ids is not None else METRICS)}
    if bins is not None:
        _check_bins(bins)
    x = _Input(probs, labels)
    values = {}
    for mid, fn in fns.items():
        binned = bins is not None and "bins" in inspect.signature(fn).parameters
        values[mid] = float(fn(x, x.labels, bins=bins) if binned else fn(x, x.labels))
    return MetricReport(values=values)
