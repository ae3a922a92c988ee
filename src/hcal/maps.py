"""Learnable monotonic calibration mappings with analytic gradients.

Three families, all acting on logits and producing row-stochastic
probabilities, all monotone non-decreasing per logit coordinate for every
parameter value, hence argmax (accuracy) preserving:

* ``ensemble_temp`` -- mixture of m tempered softmaxes with learnable
  temperatures and mixture weights.
* ``piecewise_linear`` -- continuous piecewise-linear transform of the
  max-normalized logit over [-100, 0] with z learnable non-negative slopes,
  followed by row softmax.
* ``monotonic_net`` -- elementwise min-of-max-of-affine scalar network
  (non-negative input weights) on the max-normalized logit, then softmax.

Positivity is enforced by exp-reparameterization, so the flat parameter
vector is unconstrained and Adam-friendly.  ``forward`` returns a trace
for ``backward``; ``ensemble_temp`` keeps no (m, N, L) member stack in it
but recomputes its members per row block in both passes.  Its forward's
blocks run on the process's CPUs (``dataset.blockwise``), bit for bit as on
one.  ``backward`` returns the gradient of the flat parameters only: in
post-hoc recalibration the logits are fixed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .dataset import blockwise, softmax_rows

PIECEWISE_RANGE = 100.0  # transform domain is [-PIECEWISE_RANGE, 0]

_MAP_MAGIC = b"HMAP"
_MAP_HEADER = struct.Struct("<4sIIIIII")  # magic, version, family, h0, h1, n_classes, n_params


@dataclass
class ForwardTrace:
    """Cached forward pass: inputs, intermediates, and output probabilities."""

    logits: np.ndarray
    probs: np.ndarray
    cache: dict[str, Any] = field(default_factory=dict)


# a blown-up parameter overflows quietly in a forward: its finiteness check
# is the one report
_quiet_overflow = np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _softmax_backward(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Row-softmax Jacobian-transpose product: dL/dz from dL/dsoftmax(z)."""
    inner = (dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dprobs - inner)


class CalibrationMap:
    """Base class of the map families.

    Each family declares its name, the fixed ``family_id`` written into
    model files, ``hyper_names``, the constructor's size arguments in
    order, and ``grid``, its standard sizes; :data:`FAMILIES` collects the
    classes.  It implements ``_param_count()``, ``_forward(logits) -> (probs,
    cache)`` and ``_backward(trace, upstream)``, and ``_initial_params(seed)``
    if its start is not all zeros; the checks all share are made here.  A
    loaded map's ``seed`` is None: the model file does not store it."""

    family: str
    family_id: int
    hyper_names: tuple[str, ...]
    grid: tuple

    def __init__(self, *sizes: int, seed: int | None = 0, params: np.ndarray | None = None,
                 n_classes: int = 0):
        for name, size in zip(self.hyper_names, check_sizes(type(self), sizes)):
            setattr(self, name, size)
        params = self._initial_params(seed) if params is None else np.asarray(params, np.float64)
        if params.size != self._param_count():
            raise ValueError(f"{self.describe()} needs {self._param_count()} params, "
                             f"got {params.size}")
        finite = np.isfinite(params)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"{self.describe()} has a non-finite parameter at index {bad}: "
                             f"{params[bad]}")
        self.params = params.copy()
        self.seed = seed
        self.n_classes = n_classes  # 0 = not pinned to a class count yet

    def _initial_params(self, seed: int | None) -> np.ndarray:
        return np.zeros(self._param_count())

    @property
    def sizes(self) -> tuple[int, ...]:
        """One size per ``hyper_names`` entry."""
        return tuple(getattr(self, name) for name in self.hyper_names)

    @property
    def n_params(self) -> int:
        return self.params.size

    def hyper(self) -> tuple[int, int]:
        """The sizes as stored in a model file: two slots, 0 when unused."""
        return (self.sizes + (0,))[:2]

    def describe(self) -> str:
        sizes = ", ".join(f"{name}={getattr(self, name)}" for name in self.hyper_names)
        return f"{self.family}({sizes})"

    @_quiet_overflow
    def forward(self, logits: np.ndarray) -> ForwardTrace:
        """Probabilities of the float64 ``logits`` and the trace ``backward``
        reads.  A map pinned to a class count takes only logits that wide;
        non-finite probabilities raise ``FloatingPointError``."""
        logits = np.asarray(logits, dtype=np.float64)
        if self.n_classes and logits.shape[-1] != self.n_classes:
            raise ValueError(f"class-count mismatch: {self.describe()} was trained with "
                             f"{self.n_classes} classes, the logits have {logits.shape[-1]}")
        probs, cache = self._forward(logits)
        if not np.all(np.isfinite(probs)):
            raise FloatingPointError("non-finite probabilities in forward pass (parameter blow-up?)")
        return ForwardTrace(logits, probs, cache)

    def backward(self, trace: ForwardTrace, upstream: np.ndarray) -> np.ndarray:
        if upstream.shape != trace.probs.shape:
            raise ValueError(
                f"upstream shape {upstream.shape} does not match probs {trace.probs.shape}"
            )
        return self._backward(trace, upstream)

    def clone(self) -> "CalibrationMap":
        new = type(self).__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.params = self.params.copy()
        return new


class EnsembleTempMap(CalibrationMap):
    """Weighted mixture of m tempered softmaxes.

    params = [raw log-temperatures (m), raw weight logits (m)];
    T_k = exp(raw_t_k) > 0, weights = softmax(raw_w), so the output
    sum_k w_k softmax(logits / T_k) is a convex combination of
    order-preserving transforms.
    """

    family = "ensemble_temp"
    family_id = 0
    hyper_names = ("m",)
    grid = (16, 32, 64, 128)

    def _param_count(self):
        return 2 * self.m  # the zero start: T_k = 1, uniform weights, identity softmax

    def _unpack(self):
        raw_t = self.params[: self.m]
        raw_w = self.params[self.m:]
        temps = np.exp(raw_t)
        w = np.exp(raw_w - raw_w.max())
        w /= w.sum()
        return temps, w

    def _forward(self, logits):
        temps, w = self._unpack()
        # max_j fl(x_ij / T) == fl(max_j x_ij / T): division by T > 0 is monotone
        xmax = logits.max(axis=1)
        probs = np.empty_like(logits)
        rows = max(1, _MEMBER_BLOCK // (self.m * logits.shape[1]))
        def block(s):
            # this block's (m, rows, L) members, softmaxed in place along the classes
            members = np.divide(logits[s:s + rows], temps[:, None, None])
            members -= (xmax[s:s + rows] / temps[:, None])[:, :, None]
            np.exp(members, out=members)
            members /= members.sum(axis=2, keepdims=True)
            probs[s:s + rows] = np.einsum("k,kij->ij", w, members)
        blockwise(block, range(0, len(logits), rows))
        return probs, {"temps": temps, "weights": w, "xmax": xmax}

    def _backward(self, trace, upstream):
        """Recomputes each row block's unnormalised members E (rows, m, L) and
        contracts them with [1, g, g*x, x] per sample: Z, then A = sum E g / Z,
        B = sum E g x / Z and C = sum E x / Z per (sample, member)."""
        temps, w, xmax = trace.cache["temps"], trace.cache["weights"], trace.cache["xmax"]
        logits = trace.logits
        n_classes = logits.shape[1]
        rows = max(1, _MEMBER_BLOCK // (self.m * n_classes))
        inv_temps = np.repeat(1.0 / temps, n_classes)  # member k's scale, L times
        a, cov = np.zeros(self.m), np.zeros(self.m)
        # [1, g, g*x, x] as four contiguous (rows, L) planes, read by the
        # matmul as (rows, L, 4)
        cols = np.empty((4, min(rows, len(logits)), n_classes))
        cols[0] = 1.0
        for s in range(0, len(logits), rows):
            x, g = logits[s:s + rows], upstream[s:s + rows]
            # one (rows, m * L) array, so each numpy loop runs m * L long
            e = np.tile(x - xmax[s:s + rows, None], self.m)
            e *= inv_temps
            np.exp(e, out=e)
            e = e.reshape(len(x), self.m, n_classes)
            c = cols[:, :len(x)]
            c[1], c[3] = g, x
            np.multiply(g, x, out=c[2])
            z, eg, egx, ex = np.moveaxis(np.matmul(e, c.transpose(1, 2, 0)), 2, 0)
            mean_g = eg / z  # A
            a += mean_g.sum(axis=0)
            cov += (egx / z - mean_g * (ex / z)).sum(axis=0)  # B - A * C
        # the weights' softmax Jacobian; member k sees logits / T_k, so dT flows
        # through -logits / T^2, and the raw log-temperature gradient is dT * T
        return np.concatenate([-(w / temps) * cov, w * (a - float(w @ a))])


class ScalarTransformMap(CalibrationMap):
    """Shared frame of the families that apply one scalar monotone transform
    to every logit: x = logits - row max, y = ``_transform(x)``, then row
    softmax.

    Subclasses implement ``_transform(x) -> (y, cache)`` and
    ``_transform_backward(cache, dy) -> param_grad``; this class owns the
    normalization, the softmax and the softmax backward.
    """

    def _forward(self, logits):
        y, cache = self._transform(logits - logits.max(axis=1, keepdims=True))
        return softmax_rows(y), cache

    def _backward(self, trace, upstream):
        return self._transform_backward(trace.cache, _softmax_backward(trace.probs, upstream))


class PiecewiseLinearMap(ScalarTransformMap):
    """Continuous piecewise-linear transform over [-100, 0], then softmax.

    The row max is subtracted so inputs land in (-inf, 0]; anything below
    -100 is clipped to the domain edge.  params = raw slopes (z), segment
    slope s_j = exp(raw_j) > 0; all-ones slopes give the identity transform.
    """

    family = "piecewise_linear"
    family_id = 1
    hyper_names = ("z",)
    grid = (1, 10, 100, 500)

    def _param_count(self):
        return self.z  # the zero start: unit slopes, identity on [-100, 0]

    @property
    def seg_width(self) -> float:
        return PIECEWISE_RANGE / self.z

    def _transform(self, x):
        slopes = np.exp(self.params)
        xc = np.maximum(x, -PIECEWISE_RANGE)
        seg = np.minimum(
            ((xc + PIECEWISE_RANGE) / self.seg_width).astype(np.int64), self.z - 1
        )
        knots = -PIECEWISE_RANGE + self.seg_width * np.arange(self.z)
        cum = np.concatenate([[0.0], np.cumsum(slopes) * self.seg_width])
        y = -PIECEWISE_RANGE + cum[seg] + slopes[seg] * (xc - knots[seg])
        return y, {"xc": xc, "seg": seg, "knots": knots, "slopes": slopes}

    def _transform_backward(self, cache, dy):
        xc, seg, knots, slopes = cache["xc"], cache["seg"], cache["knots"], cache["slopes"]
        dy_flat, seg_flat = dy.ravel(), seg.ravel()
        # dy/ds_j = seg_width for every full segment j below, plus the partial
        # run inside the active segment
        per_seg = np.bincount(seg_flat, weights=dy_flat, minlength=self.z)
        suffix = np.concatenate([(per_seg[::-1].cumsum())[::-1][1:], [0.0]])
        partial = np.bincount(
            seg_flat, weights=dy_flat * (xc.ravel() - knots[seg_flat]), minlength=self.z
        )
        slope_grad = self.seg_width * suffix + partial
        return slopes * slope_grad


class MonotonicNetMap(ScalarTransformMap):
    """Min-over-groups of max-over-units of affine pieces, then softmax.

    Each scalar max-normalized logit x maps to
    min_k max_j (a_kj * x + b_kj) with a_kj = exp(raw_a_kj) > 0, which is
    strictly increasing for any parameter value.  params = [raw_a (K*J),
    biases (K*J)].  At init all slopes are 1 and biases are spread over the
    working range [-100, 0], so the transform is x plus a constant (exact
    identity after softmax).
    """

    family = "monotonic_net"
    family_id = 2
    hyper_names = ("groups", "units")
    grid = ((2, 2), (10, 10), (20, 20), (50, 50))

    def _param_count(self):
        return 2 * self.groups * self.units

    def _initial_params(self, seed):
        n = self.groups * self.units
        rng = np.random.default_rng(seed)
        slot = PIECEWISE_RANGE / self.units
        centers = -PIECEWISE_RANGE + (np.arange(self.units) + 0.5) * slot
        biases = np.tile(centers, self.groups) + rng.uniform(-0.25 * slot, 0.25 * slot, n)
        return np.concatenate([np.zeros(n), biases])

    def _unpack(self):
        n = self.groups * self.units
        a = np.exp(self.params[:n]).reshape(self.groups, self.units)
        b = self.params[n:].reshape(self.groups, self.units)
        return a, b

    def _transform(self, x):
        """y = min_k max_j (a_kj * x + b_kj) as ``x * a + b`` of the winning
        line, and ``active`` = k * units + j of it (ties: lowest j, then k).
        On each sorted block of scalars a line's :func:`_lead_intervals`
        interval is a slice; the rest, and everything when a parameter is
        NaN or past +-1e300, is settled by evaluating every line."""
        a, b = self._unpack()
        flat = x.ravel()
        y_flat, active = np.empty_like(flat), np.empty(flat.size, dtype=np.int64)
        unsure = [np.arange(flat.size)]
        if np.abs(a).max() <= _MAX_MAGNITUDE and np.abs(b).max() <= _MAX_MAGNITUDE:
            lo, hi = np.stack([_lead_intervals(a_k, b_k) for a_k, b_k in zip(a, b)], axis=1)
            lines = np.flatnonzero(lo < hi)  # the envelope lines, group by group
            lo, hi = lo.ravel()[lines], hi.ravel()[lines]
            coef = list(zip(lines.tolist(), a.ravel()[lines].tolist(), b.ravel()[lines].tolist()))
            unsure = []
            for s in range(0, flat.size, _SCALAR_BLOCK):
                order = np.argsort(flat[s:s + _SCALAR_BLOCK])
                xs = flat[s:s + _SCALAR_BLOCK][order]
                ys, acts, v = np.full(xs.size, np.inf), np.empty(xs.size, np.int64), np.empty(xs.size)
                lower, covered = np.empty(xs.size, bool), np.zeros(xs.size, np.int64)
                ends = zip(np.searchsorted(xs, lo).tolist(), np.searchsorted(xs, hi).tolist())
                for (line, a_j, b_j), (i, e) in zip(coef, ends):
                    np.add(np.multiply(xs[i:e], a_j, out=v[i:e]), b_j, out=v[i:e])
                    np.less(v[i:e], ys[i:e], out=lower[i:e])  # ties keep the lower group
                    np.copyto(ys[i:e], v[i:e], where=lower[i:e])
                    np.copyto(acts[i:e], line, where=lower[i:e])
                    covered[i:e] += 1
                y_flat[s:s + _SCALAR_BLOCK][order] = ys
                active[s:s + _SCALAR_BLOCK][order] = acts
                unsure.append(s + order[covered < self.groups])
        unsure = np.concatenate(unsure)
        block = max(1, 4_000_000 // a.size)  # two (block, K, J) arrays alive
        for s in range(0, unsure.size, block):
            idx = unsure[s:s + block]
            vals = flat[idx, None, None] * a + b
            j_star = vals.argmax(axis=2)  # ties -> lowest unit index
            group_max = np.take_along_axis(vals, j_star[:, :, None], axis=2)[:, :, 0]
            k_star = group_max.argmin(axis=1)  # ties -> lowest group index
            rows = np.arange(idx.size)
            y_flat[idx] = group_max[rows, k_star]
            active[idx] = k_star * self.units + j_star[rows, k_star]
        return y_flat.reshape(x.shape), {"x": x, "active": active, "a": a}

    def _transform_backward(self, cache, dy):
        x, active, a = cache["x"], cache["active"], cache["a"]
        n = self.groups * self.units
        dy_flat = dy.ravel()
        da = np.bincount(active, weights=dy_flat * x.ravel(), minlength=n)
        db = np.bincount(active, weights=dy_flat, minlength=n)
        return np.concatenate([a.ravel() * da, db])


_MEMBER_BLOCK = 1 << 16  # member elements (m * rows * L) per row block of ensemble_temp
_SCALAR_BLOCK = 1 << 16  # scalars per sorted block of the envelope forward
_MAX_MAGNITUDE = 1e300  # parameters and |x * a| this large may overflow
# the lead a line needs over another is _LEAD_TOL * (|x| * max a + max |b|):
# 16 times the most that rounding x * a + b twice can move one value
_LEAD_TOL = 16 * np.finfo(np.float64).eps


def _lead_intervals(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each line ``a_j * x + b_j`` of one group, the ``lo_j <= x < hi_j``
    (x <= 0) where it leads every other line by more than the rounding
    tolerance (a bound linear in x), so its computed value is the strict
    max.  Only upper-envelope lines get one; they are disjoint."""
    slope = a[:, None] - a + _LEAD_TOL * a.max()  # row j, column m: lead of j over m
    const = b[:, None] - b - (_LEAD_TOL * np.abs(b).max() + 1e-300)  # is slope * x + const
    np.fill_diagonal(slope, 0.0)
    np.fill_diagonal(const, 1.0)  # no line competes with itself
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -const / slope  # NaN (0 / 0) empties the interval
    cap = -_MAX_MAGNITUDE / max(a.max(), 1.0)  # keeps x * a finite
    lo = np.maximum(np.where(slope >= 0, root, -np.inf).max(axis=1), cap)
    hi = np.where(slope < 0, root, np.nextafter(0.0, 1.0)).min(axis=1)
    return np.nextafter(lo, np.inf), hi


FAMILIES: dict[str, type[CalibrationMap]] = {
    cls.family: cls for cls in (EnsembleTempMap, PiecewiseLinearMap, MonotonicNetMap)
}
"""Every map family by name: the one table behind :func:`init_map`,
:func:`load_map` and :func:`save_map`, the standard grid, the CLI's
``--size``, and each map's ``hyper()`` and ``describe()``."""


def size_text(sizes) -> str:
    """Sizes (an int, a tuple, or text as is) in their one notation, ``16`` or
    ``10x10``: ``hcal train`` prints it, ``--size`` takes it, the sidecar stores it."""
    return "x".join(map(str, sizes)) if isinstance(sizes, tuple) else str(sizes)


def check_sizes(cls: type[CalibrationMap], sizes) -> tuple[int, ...]:
    """The size rule: one positive integer per ``cls.hyper_names`` entry, given
    as an int, a tuple or their :func:`size_text`.  Returns the tuple."""
    text = size_text(sizes)
    checked = tuple(int(p) if p.isascii() and p.isdigit() else 0 for p in text.split("x"))
    if len(checked) != len(cls.hyper_names) or min(checked) < 1:
        raise ValueError(f"{text!r} does not fit {cls.family}, which takes "
                         f"{' x '.join(cls.hyper_names)}: a positive integer per size, "
                         f"joined by x")
    return checked


def init_map(family: str, hyper, seed: int = 0) -> CalibrationMap:
    """Create a near-identity map of the given family.  ``hyper`` holds its
    sizes (see :func:`check_sizes`), such as one entry of the family's
    ``grid``; any sizes that fit the rule are allowed."""
    if family not in FAMILIES:
        raise ValueError(f"unknown mapping family {family!r}")
    cls = FAMILIES[family]
    return cls(*check_sizes(cls, hyper), seed=seed)


def save_map(m: CalibrationMap, path: str | Path) -> None:
    """Serialize a map (binary, little-endian) plus a text sidecar."""
    path = Path(path)
    h = m.hyper()
    header = _MAP_HEADER.pack(_MAP_MAGIC, 1, m.family_id, h[0], h[1], m.n_classes, m.n_params)
    path.write_bytes(header + m.params.astype("<f8").tobytes())
    sidecar = path.with_name(path.name + ".meta.txt")
    lines = [
        f"family = {m.family}",
        f"hyper = {size_text(m.sizes)}",
        *([] if m.seed is None else [f"seed = {m.seed}"]),
        f"n_classes = {m.n_classes}",
        f"n_params = {m.n_params}",
    ]
    sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_map(path: str | Path) -> CalibrationMap:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _MAP_HEADER.size:
        raise ValueError(f"{path}: truncated map file")
    magic, version, fam_id, h0, h1, n_classes, n_params = _MAP_HEADER.unpack_from(raw)
    if magic != _MAP_MAGIC or version != 1:
        raise ValueError(f"{path}: not a calibration map file")
    expected = _MAP_HEADER.size + 8 * n_params
    if len(raw) != expected:
        raise ValueError(f"{path}: {n_params} parameters need a {expected}-byte file, "
                         f"got {len(raw)} bytes")
    cls = next((c for c in FAMILIES.values() if c.family_id == fam_id), None)
    if cls is None:
        raise ValueError(f"{path}: unknown family id {fam_id}")
    params = np.frombuffer(raw, dtype="<f8", offset=_MAP_HEADER.size).copy()
    try:
        # the inverse of hyper(): an unused slot is 0
        return cls(*(h0, h1) if h1 else (h0,), seed=None, params=params, n_classes=n_classes)
    except ValueError as exc:  # the family's checks of its sizes and parameters
        raise ValueError(f"{path}: {exc}") from None

