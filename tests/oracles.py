"""Independent naive reference implementations used as test oracles.

Everything here is written with explicit Python loops and the most literal
reading of each definition, deliberately avoiding the vectorized code paths
of the package, so the two sides can only agree by computing the same thing.
The exceptions: ``reduceat_kmeans_1d`` is the loss's k-means with its older
run sums, which the prefix-sum rounds must match; ``frozen_structure`` reads
the loss's own window structure; ``naive_ensemble_temp_forward`` is the
list-and-stack forward that the row-blocked one must match bit for bit; and
``naive_ensemble_temp_backward`` is the per-member gradient loop over that
stack.  ``blocked_skce``, ``blocked_dkde_ce`` and ``inplace_kde_ece`` are
the metric kernels as they were before their passes were cut; they reach the
sizes the loops cannot.  ``soft_skce`` is the dense pairwise sum.
"""

from __future__ import annotations

import math

import numpy as np

from hcal.dataset import one_hot, softmax_rows
from hcal.loss import _nearest_center_splits, build_windows, kmeans_weights, window_sums
from hcal.maps import ForwardTrace


def bin_index_equal_width(value: float, bins: int) -> int:
    for m in range(bins):
        lo, hi = m / bins, (m + 1) / bins
        if lo <= value < hi:
            return m
    return bins - 1  # value == 1.0


def top_label_pairs(probs, labels):
    pairs = []
    for row, lab in zip(probs, labels):
        best = 0
        for j in range(1, len(row)):
            if row[j] > row[best]:
                best = j
        pairs.append((max(row), 1.0 if best == lab else 0.0))
    return pairs


def naive_ece_ew(probs, labels, bins=15, r=1):
    pairs = top_label_pairs(probs, labels)
    buckets = {}
    for conf, corr in pairs:
        buckets.setdefault(bin_index_equal_width(conf, bins), []).append((conf, corr))
    total = 0.0
    for members in buckets.values():
        acc = sum(c for _, c in members) / len(members)
        conf = sum(c for c, _ in members) / len(members)
        gap = abs(acc - conf)
        total += len(members) / len(pairs) * (gap if r == 1 else gap * gap)
    return total if r == 1 else math.sqrt(total)


def equal_mass_groups(pairs, bins):
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i][0], i))
    n = len(pairs)
    groups = []
    for k in range(bins):
        lo, hi = (k * n) // bins, ((k + 1) * n) // bins
        if hi > lo:
            groups.append([pairs[i] for i in order[lo:hi]])
    return groups


def naive_ece_em(probs, labels, bins=15, r=1):
    pairs = top_label_pairs(probs, labels)
    total = 0.0
    for members in equal_mass_groups(pairs, bins):
        acc = sum(c for _, c in members) / len(members)
        conf = sum(c for c, _ in members) / len(members)
        gap = abs(acc - conf)
        total += len(members) / len(pairs) * (gap if r == 1 else gap * gap)
    return total if r == 1 else math.sqrt(total)


def naive_dece(probs, labels, bins=15):
    pairs = top_label_pairs(probs, labels)
    total = 0.0
    for members in equal_mass_groups(pairs, bins):
        if len(members) < 2:
            raise ValueError("bin with fewer than 2 samples")
        acc = sum(c for _, c in members) / len(members)
        conf = sum(c for c, _ in members) / len(members)
        gap = acc - conf
        total += len(members) / len(pairs) * (
            gap * gap - acc * (1 - acc) / (len(members) - 1)
        )
    return math.sqrt(max(total, 0.0))


def naive_ace(probs, labels, bins=15):
    pairs = top_label_pairs(probs, labels)
    buckets = {}
    for conf, corr in pairs:
        buckets.setdefault(bin_index_equal_width(conf, bins), []).append((conf, corr))
    gaps = []
    for members in buckets.values():
        acc = sum(c for _, c in members) / len(members)
        conf = sum(c for c, _ in members) / len(members)
        gaps.append(abs(acc - conf))
    return sum(gaps) / len(gaps)


def naive_monotone_bin_count(probs, labels):
    """Largest equal-mass bin count whose bin accuracies never decrease, from
    every count checked in full."""
    pairs = top_label_pairs(probs, labels)
    best_b = 1
    for b in range(1, len(pairs) + 1):
        groups = equal_mass_groups(pairs, b)
        accs = [sum(c for _, c in g) / len(g) for g in groups]
        if all(accs[i] <= accs[i + 1] for i in range(len(accs) - 1)):
            best_b = max(best_b, b)
    return best_b


def naive_sweep_ece(probs, labels, r=1):
    pairs = top_label_pairs(probs, labels)
    n = len(pairs)
    total = 0.0
    for g in equal_mass_groups(pairs, naive_monotone_bin_count(probs, labels)):
        acc = sum(c for _, c in g) / len(g)
        conf = sum(c for c, _ in g) / len(g)
        gap = abs(acc - conf)
        total += len(g) / n * (gap if r == 1 else gap * gap)
    return total if r == 1 else math.sqrt(total)


def naive_ks(probs, labels):
    pairs = top_label_pairs(probs, labels)
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i][0], i))
    n = len(pairs)
    h = g = 0.0
    worst = 0.0
    for i in order:
        conf, corr = pairs[i]
        h += corr / n
        g += conf / n
        worst = max(worst, abs(h - g))
    return worst


def naive_mmce(probs, labels, bandwidth=0.4):
    pairs = top_label_pairs(probs, labels)
    n = len(pairs)
    total = 0.0
    for ci, ei in pairs:
        for cj, ej in pairs:
            total += (ei - ci) * math.exp(-abs(ci - cj) / bandwidth) * (ej - cj)
    return math.sqrt(max(total / (n * n), 0.0))


def naive_kde_ece(probs, labels):
    """Gaussian Nadaraya-Watson accuracy at each point of an even 1024-point
    grid over [1/L, 1], |grid - accuracy| weighted by the kernel density of the
    confidences, integrated with the trapezoid rule; the bandwidth is
    1.06 * sample std * N^-1/5, at least 1e-3."""
    pairs = top_label_pairs(probs, labels)
    n, n_classes = len(pairs), len(probs[0])
    sigma = 0.0
    if n > 1:
        mean = sum(c for c, _ in pairs) / n
        sigma = math.sqrt(sum((c - mean) ** 2 for c, _ in pairs) / (n - 1))
    bandwidth = max(1.06 * sigma * n ** (-0.2), 1e-3)
    lo = 1.0 / n_classes
    grid = [lo + (1.0 - lo) * g / 1023 for g in range(1024)]
    values = []
    for x in grid:
        weights = [math.exp(-0.5 * ((x - c) / bandwidth) ** 2) for c, _ in pairs]
        denom = sum(weights)
        if denom > 0:
            acc = sum(w * corr for w, (_, corr) in zip(weights, pairs)) / denom
            values.append(abs(x - acc) * denom / (n * bandwidth * math.sqrt(2 * math.pi)))
        else:
            values.append(0.0)
    return sum((grid[g + 1] - grid[g]) * (values[g] + values[g + 1]) / 2
               for g in range(1023))


def naive_tcwece(probs, labels, bins=15, k=None):
    """Per class, the entries above 1/L binned by equal width (or by
    ``naive_kmeans_1d`` with min(k, retained) clusters), count-weighted
    mean |event rate - mean probability|; the mean over the classes that
    retain an entry."""
    probs = np.asarray(probs)
    n, n_classes = probs.shape
    threshold = 1.0 / n_classes
    per_class = []
    for l in range(n_classes):
        kept = [i for i in range(n) if probs[i, l] > threshold]
        if not kept:
            continue
        if k is None:
            assign = [bin_index_equal_width(probs[i, l], bins) for i in kept]
        else:
            assign = naive_kmeans_1d([probs[i, l] for i in kept], min(k, len(kept)))[1]
        buckets = {}
        for i, b in zip(kept, assign):
            buckets.setdefault(b, []).append(i)
        total = 0.0
        for members in buckets.values():
            freq = sum(1.0 for i in members if labels[i] == l) / len(members)
            conf = sum(probs[i, l] for i in members) / len(members)
            total += len(members) / len(kept) * abs(freq - conf)
        per_class.append(total)
    if not per_class:
        raise ValueError("no entries retained")
    return sum(per_class) / len(per_class)


def naive_cwece(probs, labels, variant="a", bins=None):
    probs = np.asarray(probs)
    n, n_classes = probs.shape
    if bins is None:
        bins = 14 if variant == "s" else 15
    total = 0.0
    for l in range(n_classes):
        buckets = {}
        for i in range(n):
            buckets.setdefault(bin_index_equal_width(probs[i, l], bins), []).append(i)
        for members in buckets.values():
            freq = sum(1.0 for i in members if labels[i] == l) / len(members)
            conf = sum(probs[i, l] for i in members) / len(members)
            gap = abs(freq - conf)
            total += len(members) / n * (gap * gap if variant == "r2" else gap)
    if variant == "a":
        return total / n_classes
    if variant == "s":
        return total
    return math.sqrt(total / n_classes)


def naive_skce(probs, labels, bandwidth=1.0):
    probs = np.asarray(probs)
    n, n_classes = probs.shape
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            l1 = sum(abs(probs[i, c] - probs[j, c]) for c in range(n_classes))
            kern = math.exp(-l1 / bandwidth)
            inner = sum(
                ((1.0 if labels[i] == c else 0.0) - probs[i, c])
                * ((1.0 if labels[j] == c else 0.0) - probs[j, c])
                for c in range(n_classes)
            )
            total += kern * inner
    return total / (n * (n - 1) / 2)


def soft_skce(probs, true_probs, bandwidth=1.0):
    """The ``skce`` U-statistic with each one-hot label e_y replaced by the
    true probability vector p*: its expectation over labels drawn from p*,
    since the labels of two different samples are independent."""
    probs, true_probs = np.asarray(probs), np.asarray(true_probs)
    n = probs.shape[0]
    kern = np.exp(-np.abs(probs[:, None, :] - probs[None, :, :]).sum(axis=2) / bandwidth)
    resid = true_probs - probs
    return float(np.triu(kern * (resid @ resid.T), 1).sum() / (n * (n - 1) / 2))


def naive_dkde_ce(probs, labels, bandwidth=1.0):
    """Leave-one-out Dirichlet-kernel estimate of E ||p - E[e | p]||^2: row j
    is scored against the kernel-weighted labels of every other row i, with
    kernel Dir(a_j; a_i / h + 1) on rows clamped at 1e-12 and renormalized."""
    probs = np.asarray(probs)
    n, n_classes = probs.shape
    safe = []
    for row in probs:
        clamped = [max(float(p), 1e-12) for p in row]
        safe.append([p / sum(clamped) for p in clamped])

    def log_kernel(at, params):
        alpha = [b / bandwidth for b in params]
        value = math.lgamma(n_classes + sum(alpha))
        for c in range(n_classes):
            value += alpha[c] * math.log(at[c]) - math.lgamma(1.0 + alpha[c])
        return value

    total = 0.0
    for j in range(n):
        logs = {i: log_kernel(safe[j], safe[i]) for i in range(n) if i != j}
        top = max(logs.values())
        weights = {i: math.exp(v - top) for i, v in logs.items()}
        norm = sum(weights.values())
        for c in range(n_classes):
            estimate = sum(w for i, w in weights.items() if labels[i] == c) / norm
            total += (probs[j, c] - estimate) ** 2
    return total / n


def blocked_skce(probs, labels, bandwidth=1.0, block=32):
    """``skce`` with its L1 distances summed class by class from
    ``np.subtract.outer`` in row blocks that meet only the upper triangle:
    the package's kernel before it was factored."""
    probs = np.asarray(probs, dtype=np.float64)
    n, n_classes = probs.shape
    resid = one_hot(labels, n_classes) - probs
    by_class = probs.T.copy()
    total = 0.0
    for s in range(0, n, block):
        e = min(s + block, n)
        kmat = np.zeros((e - s, n - s))
        work = np.empty_like(kmat)
        for c in range(n_classes):
            np.subtract.outer(by_class[c, s:e], by_class[c, s:], out=work)
            kmat += np.abs(work, out=work)
        np.divide(kmat, -bandwidth, out=kmat)
        np.exp(kmat, out=kmat)
        kmat *= np.matmul(resid[s:e], resid[s:].T, out=work)
        total += float(np.triu(kmat, 1).sum())
    return float(total / (n * (n - 1) / 2))


def blocked_dkde_ce(probs, labels, bandwidth=1.0, block=32):
    """``dkde_ce`` in sample blocks with the per-kernel constant added and
    the weights normalized on each (block, N) array: the package's kernel
    before its one-matmul blocks."""
    probs = np.asarray(probs, dtype=np.float64)
    n, n_classes = probs.shape
    safe = np.maximum(probs, 1e-12)
    safe = safe / safe.sum(axis=1, keepdims=True)
    alpha = safe / bandwidth
    lgamma = np.vectorize(math.lgamma, otypes=[np.float64])
    const_i = lgamma(n_classes + alpha.sum(axis=1)) - lgamma(1.0 + alpha).sum(axis=1)
    log_safe = np.log(safe)
    events = one_hot(labels, n_classes)
    pi = np.empty_like(probs)
    for s in range(0, n, block):
        e = min(s + block, n)
        logk = log_safe[s:e] @ alpha.T
        logk += const_i
        logk[np.arange(e - s), np.arange(s, e)] = -np.inf
        logk -= logk.max(axis=1, keepdims=True)
        np.exp(logk, out=logk)
        logk /= logk.sum(axis=1, keepdims=True)
        pi[s:e] = logk @ events
    diff = probs - pi
    return float((diff * diff).sum(axis=1).mean())


def inplace_kde_ece(probs, labels):
    """``kde_ece`` with its (grid, N) kernel built in place from unscaled
    differences and its two sums taken separately: the package's kernel
    before the pre-scaled grid and the one [correct, 1] matmul."""
    probs = np.asarray(probs, dtype=np.float64)
    n, n_classes = probs.shape
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == np.asarray(labels)).astype(np.float64)
    sigma = float(np.std(conf, ddof=1)) if n > 1 else 0.0
    bandwidth = max(1.06 * sigma * n ** (-0.2), 1e-3)
    grid = np.linspace(1.0 / n_classes, 1.0, 1024)
    kmat = np.subtract.outer(grid, conf)
    kmat /= bandwidth
    kmat *= kmat
    kmat *= -0.5
    np.exp(kmat, out=kmat)
    denom = kmat.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        pi = np.where(denom > 0, kmat @ correct / np.maximum(denom, 1e-300), 0.0)
    density = denom / (n * bandwidth * np.sqrt(2.0 * np.pi))
    integrand = np.where(denom > 0, np.abs(grid - pi) * density, 0.0)
    return float(np.trapezoid(integrand, grid))


def naive_window_sums(vec, window):
    return [sum(vec[j:j + window]) for j in range(len(vec) - window + 1)]


def naive_kmeans_1d(values, k, max_iter=100):
    """Literal Lloyd iteration with quantile init and lower-index tie-break."""
    values = list(map(float, values))
    centers = list(np.quantile(values, (np.arange(k) + 0.5) / k))
    assign = None
    for _ in range(max_iter):
        new_assign = []
        for v in values:
            best, best_d = 0, abs(v - centers[0])
            for c in range(1, k):
                d = abs(v - centers[c])
                if d < best_d:
                    best, best_d = c, d
            new_assign.append(best)
        if assign == new_assign:
            break
        assign = new_assign
        for c in range(k):
            members = [values[i] for i in range(len(values)) if assign[i] == c]
            if members:
                centers[c] = sum(members) / len(members)
        centers.sort()
    final = []
    for v in values:
        best, best_d = 0, abs(v - centers[0])
        for c in range(1, k):
            d = abs(v - centers[c])
            if d < best_d:
                best, best_d = c, d
        final.append(best)
    return centers, final


def reduceat_kmeans_1d(values, k, max_iter=100):
    """The sorted-run Lloyd iteration with each round's cluster sums taken
    by ``np.add.reduceat`` over all values: the loss's k-means before its
    rounds read one prefix sum, with the same splits and tie rules."""
    values = np.asarray(values, dtype=np.float64)
    order = None
    if np.count_nonzero(values[1:] < values[:-1]):
        order = np.argsort(values, kind="stable")
        values = values[order]
    centers = np.quantile(values, (np.arange(k) + 0.5) / k)
    padded = np.append(values, 0.0)  # a run may start at values.size when empty
    edges = np.full(k + 1, values.size)
    edges[0] = 0
    starts, ends = edges[:-1], edges[1:]  # views: cluster j is values[starts[j]:ends[j]]
    splits = _nearest_center_splits(values, centers)
    for _ in range(max_iter):
        edges[1:-1] = splits
        counts = ends - starts
        # an empty run's sum is garbage, and its cluster keeps its center
        np.divide(np.add.reduceat(padded, starts), counts, out=centers, where=counts > 0)
        centers.sort()
        new_splits = _nearest_center_splits(values, centers)
        if not np.count_nonzero(new_splits != splits):
            break
        splits = new_splits
    edges[1:-1] = splits
    assign = np.repeat(np.arange(k), ends - starts)
    if order is not None:
        assign[order] = assign.copy()
    return centers, assign


def naive_hcal_loss(probs, labels, epsilon, window, multiplier, weights=None, perm=None,
                    norm="abs"):
    """Direct evaluation of the window objective from its definition, every
    sum correctly rounded; a given ``perm`` (sorted position -> flat index)
    replaces the sort order.  ``norm="squared"`` squares each window's hinge."""
    probs = np.asarray(probs)
    n, n_classes = probs.shape
    entries = []  # (prob, flat_index, event), by flat index
    for i in range(n):
        for l in range(n_classes):
            entries.append((probs[i, l], i * n_classes + l, labels[i] == l))
    if perm is None:
        entries.sort(key=lambda t: (t[0], t[1]))
    else:
        entries = [entries[k] for k in perm]
    nw = len(entries) - window + 1
    if weights is None:
        weights = [1.0 / nw] * nw
    terms = []
    for w0 in range(nw):
        run = entries[w0:w0 + window]
        t1 = math.fsum((1 - p) for p, _, ev in run if ev)
        t2 = math.fsum(p for p, _, ev in run if not ev)
        hinge = max(abs(t1 - t2) / window - epsilon, 0.0)
        terms.append(weights[w0] * (hinge * hinge if norm == "squared" else hinge))
    return multiplier * math.fsum(terms)


def naive_monotonic_transform(x, a, b):
    """min over groups k of max over units j of x * a[k][j] + b[k][j] for
    each scalar, with the lowest j and then the lowest k on ties; returns
    (values, flat indices k * units + j of the lines that give them)."""
    values, active = [], []
    for v in np.ravel(x).tolist():
        best = None  # (value, flat index)
        for k, (ak, bk) in enumerate(zip(np.asarray(a).tolist(), np.asarray(b).tolist())):
            top = None
            for j in range(len(ak)):
                val = v * ak[j] + bk[j]
                if top is None or val > top[0]:
                    top = (val, k * len(ak) + j)
            if best is None or top[0] < best[0]:
                best = top
        values.append(best[0])
        active.append(best[1])
    return np.array(values), np.array(active, dtype=np.int64)


def frozen_structure(probs, labels, cfg):
    """Sort permutation and window weights the window loss uses at the
    current probabilities."""
    perm, sorted_probs, gaps = build_windows(probs, labels, cfg.window)
    if cfg.weighting == "uniform":
        return perm, np.full(gaps.size, 1.0 / gaps.size)
    centroids = window_sums(sorted_probs, cfg.window) / cfg.window
    return perm, kmeans_weights(centroids, cfg.clusters)


def naive_ensemble_temp_forward(cal_map, logits):
    """The ensemble_temp forward as m separate softmaxes, stacked."""
    temps, w = cal_map._unpack()
    members = np.stack([softmax_rows(logits / t) for t in temps])  # (m, N, L)
    probs = np.einsum("k,kij->ij", w, members)
    return ForwardTrace(logits, probs, {"members": members, "temps": temps, "weights": w})


def naive_ensemble_temp_backward(cal_map, trace, upstream):
    """The ensemble_temp parameter gradient from a stacked trace of
    :func:`naive_ensemble_temp_forward`, one member at a time."""
    members, temps, w = trace.cache["members"], trace.cache["temps"], trace.cache["weights"]
    dw = np.einsum("ij,kij->k", upstream, members)
    raw_w_grad = w * (dw - float(w @ dw))
    raw_t_grad = np.empty(len(temps))
    for k, member in enumerate(members):
        dprobs = w[k] * upstream
        dz = member * (dprobs - (dprobs * member).sum(axis=1, keepdims=True))
        # z = logits / T_k: dT flows through -logits / T^2, raw grad is dT * T
        raw_t_grad[k] = float((dz * (-trace.logits / temps[k])).sum())
    return np.concatenate([raw_t_grad, raw_w_grad])
