"""Training losses over probability matrices: the sorted-window alignment
objective, plus NLL and Brier baselines.

The window objective flattens the N x L per-class probabilities into atomic
events (sample i, class l), sorts them, and penalizes every length-M run of
consecutive sorted values whose mean predicted probability deviates from the
empirical event frequency in that run by more than ``epsilon``.  A 1-D
k-means weighting (``weighting="adaptive"``) counterbalances the flood of
near-zero probabilities in many-class problems.

Gradients are taken with the sort permutation, k-means assignments, and
cluster sizes held constant (they change only on a measure-zero set), so the
backward pass is an exact subgradient of the frozen-structure loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import check_labels, one_hot, stable_argsort

KMEANS_MAX_ITER = 100
NORMS = ("abs", "squared")
WEIGHTINGS = ("adaptive", "uniform")


@dataclass(frozen=True)
class HCalConfig:
    """Hyperparameters of the window-alignment loss; the defaults are the
    standard training configuration.

    ``norm="abs"`` scores each window by its hinge max(|gap| - epsilon, 0),
    ``norm="squared"`` by the square of that hinge.  With epsilon=0,
    window=1 and uniform weighting the squared norm reduces to ``multiplier``
    times the Brier score.
    """

    epsilon: float = 1e-20
    window: int = 200
    multiplier: float = 1e5
    clusters: int = 15
    norm: str = "abs"  # one of NORMS
    weighting: str = "adaptive"  # one of WEIGHTINGS

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0 < self.multiplier < np.inf:
            raise ValueError(f"multiplier must be finite and > 0, got {self.multiplier}")
        if self.clusters < 1:
            raise ValueError(f"clusters must be >= 1, got {self.clusters}")
        for name, allowed in (("norm", NORMS), ("weighting", WEIGHTINGS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be {' or '.join(map(repr, allowed))}, got {value!r}")


@dataclass
class LossOutput:
    value: float
    prob_grad: np.ndarray
    n_active_windows: int = 0
    max_window_violation: float = 0.0


def build_windows(probs: np.ndarray, labels: np.ndarray,
                  window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort the atomic-event probabilities and take every window's gap.

    Returns ``(perm, sorted_probs, gaps)``: ``perm`` maps sorted position to
    flat (sample * L + class) index, ties broken by that index (stable sort);
    ``gaps[j]`` is the mean event indicator minus the mean probability over
    sorted positions j .. j + window - 1.
    """
    probs = np.asarray(probs, dtype=np.float64)
    n, l = probs.shape
    if window > n * l:
        raise ValueError(f"window {window} exceeds the {n * l} atomic events")
    perm = stable_argsort(probs.ravel())
    q = probs.ravel()[perm]
    gaps = window_sums(one_hot(labels, l).ravel()[perm] - q, window) / window
    return perm, q, gaps


def window_sums(vec: np.ndarray, window: int) -> np.ndarray:
    """Sliding sums of every length-``window`` run, via prefix sums."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.size < window:
        raise ValueError(f"need at least {window} values, got {vec.size}")
    prefix = np.concatenate([[0.0], np.cumsum(vec)])
    return prefix[window:] - prefix[:-window]


def kmeans_1d(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 1-D Lloyd clustering.

    Centers start at the k equally-spaced quantiles of ``values``; iteration
    stops when assignments stabilize or after ``KMEANS_MAX_ITER`` rounds.
    A value goes to the center at the smallest ``|value - center|``, ties to
    the lower index (so the upper of two equal centers stays empty, keeping
    its center).  Unsorted values are sorted once and the assignments mapped
    back; on sorted values each cluster is a contiguous run, so a Lloyd step
    finds k - 1 split points by binary search and takes the run sums from
    one prefix sum.  Returns (centers, assignment).
    """
    values = np.asarray(values, dtype=np.float64)
    order = None
    if np.count_nonzero(values[1:] < values[:-1]):
        # timsort, not stable_argsort: the loss's window centroids come
        # sorted or nearly so, and on nearly sorted input timsort's runs win
        # (0.13 ms against 1.0 ms for 50k values with 20 swaps)
        order = np.argsort(values, kind="stable")
        values = values[order]
    centers = _sorted_quantiles(values, (np.arange(k) + 0.5) / k)
    # values ascend, so a difference of two prefix sums rounds only against
    # the run's sum plus the values below it
    prefix = np.zeros(values.size + 1)
    np.cumsum(values, out=prefix[1:])
    edges = np.full(k + 1, values.size)
    edges[0] = 0  # cluster j is values[edges[j]:edges[j + 1]]
    splits = _nearest_center_splits(values, centers)
    for _ in range(KMEANS_MAX_ITER):
        edges[1:-1] = splits
        counts = edges[1:] - edges[:-1]
        sums = prefix[edges]
        # an empty cluster keeps its center
        np.divide(sums[1:] - sums[:-1], counts, out=centers, where=counts > 0)
        centers.sort()
        new_splits = _nearest_center_splits(values, centers)
        if not np.count_nonzero(new_splits != splits):
            break
        splits = new_splits
    edges[1:-1] = splits
    assign = np.repeat(np.arange(k), edges[1:] - edges[:-1])
    if order is not None:
        assign[order] = assign.copy()
    return centers, assign


def _sorted_quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(values, q)`` of ascending ``values``, read directly
    instead of through a partition, with numpy's "linear" rule and its
    ``_lerp`` rounding: virtual index (n - 1) q, its floor and the next
    position, and an index at or above n - 1 takes the last value."""
    last = values.size - 1
    index = last * q
    lo = np.floor(index)
    t = index - lo
    lo = lo.astype(np.intp)
    a, b = values[lo], values[np.minimum(lo + 1, last)]
    d = b - a
    quantiles = np.where(t >= 0.5, b - d * (1 - t), a + d * t)
    quantiles[index >= last] = values[last]
    return quantiles


# offsets from a split to the last value at or below its midpoint and the
# first value above it, and the side of the split the midpoint test gives each
_NEAR_MIDPOINT = np.array([[-1], [0]])
_NEARER_UPPER = np.array([[False], [True]])


def _nearest_center_splits(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Split points of sorted ``values`` between sorted ``centers``: entry j
    counts the values nearest to one of centers 0..j (ties to the lower)."""
    lo, hi = centers[:-1], centers[1:]
    splits = values.searchsorted((lo + hi) / 2.0, "right")
    # rounding can make the distance test disagree with the midpoint test
    # only on the two values next to a midpoint; one that does crosses the
    # split with its run of equal values.  No value is strictly nearer to the
    # upper of two equal centers, so that cluster stays empty and a later
    # split bounds the earlier ones.
    near = values.take(splits + _NEAR_MIDPOINT, mode="clip")
    nearer_upper = np.abs(near - hi) < np.abs(near - lo)
    if np.count_nonzero(nearer_upper != _NEARER_UPPER):
        below_up, above_up = nearer_upper
        splits = np.where(below_up, values.searchsorted(near[0], "left"),
                          np.where(above_up, splits, values.searchsorted(near[1], "right")))
        splits[lo == hi] = values.size
        splits = np.minimum.accumulate(splits[::-1])[::-1]
    return splits


def kmeans_weights(window_centroids: np.ndarray, clusters: int) -> np.ndarray:
    """Per-window weight 1 / (C * size of the window's cluster).

    Weights sum to (number of nonempty clusters) / C <= 1, so dense regions
    are averaged rather than dominating the loss.
    """
    window_centroids = np.asarray(window_centroids, dtype=np.float64)
    if window_centroids.size == 0:
        raise ValueError("need at least one window")
    _, assign = kmeans_1d(window_centroids, clusters)
    counts = np.bincount(assign, minlength=clusters)
    return 1.0 / (clusters * counts[assign])


def hcal_loss(probs: np.ndarray, labels: np.ndarray, cfg: HCalConfig) -> LossOutput:
    """Window-alignment loss with subgradients w.r.t. the probabilities; a
    window's gap is its mean event indicator minus its mean probability."""
    probs = np.asarray(probs, dtype=np.float64)
    check_labels(labels, probs.shape[1])
    m = cfg.window
    perm, q, gaps = build_windows(probs, labels, m)
    if cfg.weighting == "uniform":
        weights = np.full(gaps.size, 1.0 / gaps.size)
    else:
        weights = kmeans_weights(window_sums(q, m) / m, cfg.clusters)

    # a window's hinge is how far its |gap| exceeds epsilon; "abs" scores the
    # hinge, "squared" its square
    hinge = np.maximum(np.abs(gaps) - cfg.epsilon, 0.0)
    if cfg.norm == "squared":
        per_window, dper = hinge * hinge, 2.0 * np.copysign(hinge, gaps) / m
    else:
        per_window, dper = hinge, np.where(hinge > 0.0, np.sign(gaps) / m, 0.0)
    value = cfg.multiplier * float(weights @ per_window)

    # g is dvalue/d(gap * M) per window, the gap being mean event minus mean
    # probability; position j collects every window covering it, windows
    # j - M + 1 .. j, which are the length-M runs of g padded with zeros
    g = cfg.multiplier * weights * dper
    cover = window_sums(np.pad(g, m - 1), m)
    prob_grad_flat = np.zeros(probs.size)
    prob_grad_flat[perm] = -cover  # d(event_j - q_j)/dq_j = -1 regardless of the event bit
    return LossOutput(
        value=value,
        prob_grad=prob_grad_flat.reshape(probs.shape),
        n_active_windows=int(np.count_nonzero(hinge > 0.0)),
        max_window_violation=float(hinge.max()),
    )


NLL_CLAMP = 1e-12


def nll_loss(probs: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Mean negative log-likelihood; probabilities floored at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[0]
    labels = np.asarray(labels)
    check_labels(labels, probs.shape[1])
    p_label = np.maximum(probs[np.arange(n), labels], NLL_CLAMP)
    value = float(-np.log(p_label).mean())
    grad = np.zeros_like(probs)
    grad[np.arange(n), labels] = -1.0 / (n * p_label)
    return LossOutput(value=value, prob_grad=grad)


def brier_loss(probs: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Mean squared error against one-hot labels, averaged over N * L entries."""
    probs = np.asarray(probs, dtype=np.float64)
    n, l = probs.shape
    check_labels(labels, l)
    resid = probs - one_hot(labels, l)
    value = float((resid * resid).sum() / (n * l))
    return LossOutput(value=value, prob_grad=2.0 * resid / (n * l))


BASELINE_LOSSES = {"nll": nll_loss, "brier": brier_loss}
LOSSES = ("hcal", *BASELINE_LOSSES)  # hcal is given as an HCalConfig, the rest by name


def resolve_loss(spec):
    """Map a loss spec (an HCalConfig or a BASELINE_LOSSES name) to a callable."""
    if isinstance(spec, HCalConfig):
        return lambda probs, labels: hcal_loss(probs, labels, spec)
    if isinstance(spec, str) and spec in BASELINE_LOSSES:
        return BASELINE_LOSSES[spec]
    raise ValueError(f"unknown loss spec {spec!r}")
