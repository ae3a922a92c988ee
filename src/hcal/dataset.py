"""Logit-label datasets: validated containers, file I/O, row softmax, splitting.

Datasets hold pre-computed network logits; nothing here runs inference.
Two interchange formats, picked by the file suffix (``.csv`` in any case
means CSV, anything else binary):

* CSV with header ``logit_0,...,logit_{L-1},label`` (one sample per line,
  UTF-8 with or without a byte order mark, '.' decimal separator).
* Binary: magic ``HCAL``, u32 version=1, u32 N, u32 L, N*L float32 logits
  row-major, N u32 labels.  Everything little-endian.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MAGIC = b"HCAL"
_VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, N, L
PROB_ATOL = 1e-9  # check_prob_matrix's tolerance on entries and row sums


class DatasetFormatError(ValueError):
    """Malformed dataset file (bad row, bad value, bad header)."""


@dataclass(frozen=True)
class LogitDataset:
    """Immutable N x L logit matrix with integer class labels.

    Invariants (checked on construction): all logits finite, every label a
    valid class index, N >= 1 and L >= 2.
    """

    logits: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        logits = np.ascontiguousarray(np.asarray(self.logits, dtype=np.float64))
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        n, l = logits.shape
        if n < 1:
            raise ValueError("dataset must contain at least one sample")
        if l < 2:
            raise ValueError(f"need at least 2 classes, got {l}")
        if not np.all(np.isfinite(logits)):
            bad = int(np.argwhere(~np.isfinite(logits))[0][0])
            raise ValueError(f"non-finite logit at row {bad}")
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", np.ascontiguousarray(check_labels(self.labels, (n, l))))

    @property
    def n_samples(self) -> int:
        return self.logits.shape[0]

    @property
    def n_classes(self) -> int:
        return self.logits.shape[1]


def check_labels(labels: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The labels of an N x L matrix of ``shape`` as int64 (no copy for int64
    input); raises unless there are N, each a whole number in [0, L)."""
    labels = np.asarray(labels)
    n, n_classes = shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match N={n}")
    if labels.dtype.kind == "f":
        fractional = labels != np.floor(labels)  # NaN included
        if fractional.any():
            bad = int(np.argmax(fractional))
            raise ValueError(f"label not a whole number at row {bad}: {labels[bad]}")
    if not (labels.min() >= 0 and labels.max() < n_classes):
        bad = int(np.argmax(~((labels >= 0) & (labels < n_classes))))
        raise ValueError(f"label out of range at row {bad}: {labels[bad]} not in [0, {n_classes})")
    return labels.astype(np.int64, copy=False)


def check_integer(name: str, value, least: int) -> None:
    """The rule of every whole-number setting: ``value`` must be an int or a
    numpy integer (never a bool) and at least ``least``; raises naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_prob_matrix(probs: np.ndarray) -> None:
    """Validate a row-stochastic probability matrix, within ``PROB_ATOL``;
    raises on violation."""
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ValueError(f"probability matrix must be 2-D, got {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probability matrix contains non-finite entries")
    if probs.min() < -PROB_ATOL or probs.max() > 1 + PROB_ATOL:
        raise ValueError("probability entries outside [0, 1]")
    sums = probs.sum(axis=1)
    worst = float(np.abs(sums - 1.0).max())
    if worst > PROB_ATOL:
        raise ValueError(f"rows must sum to 1 within {PROB_ATOL}; worst deviation {worst:g}")


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row softmax (subtracts the row max first)."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """N x L float matrix: entry (i, l) is 1 iff sample i has label l."""
    return (np.asarray(labels)[:, None] == np.arange(n_classes)).astype(np.float64)


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` of a 1-D real array, computed
    with numpy's default (SIMD, unstable) argsort.

    Equal values (by ``==``, so -0.0 ties 0.0; the NaNs, sorted last, form
    one run) lie in contiguous runs of the unstable order.  Each run is put
    back in index order by one int64 sort of ``run * size + index``, which
    leaves the runs in place.  Without ties the unstable order is returned.
    """
    values = np.asarray(values)
    order = np.argsort(values)
    if values.size < 2:
        return order
    ordered = values[order]
    tied = ordered[1:] == ordered[:-1]
    if ordered[-1] != ordered[-1]:  # NaNs: pairs from the first one on tie
        tied[np.argmax(ordered != ordered):] = True
    if not tied.any():
        return order
    n = order.size
    base = np.zeros(n, dtype=np.int64)
    np.cumsum(~tied, out=base[1:])
    base *= n  # run * size; below 2**63 for any array that fits in memory
    return np.sort(base + order) - base


_MAX_WORKERS = 4  # workers for blockwise and forked, at most
_WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1, _MAX_WORKERS)
_lock = threading.Lock()  # guards _WORKERS, _inside and _blas; forked's children make their own
_inside, _blas = 0, None  # calls in _claim now, and the BLAS count the first one found


@contextlib.contextmanager
def _claim(n: int):
    """Yield how many workers a call of ``n`` items may use, and hold them
    and the BLAS count for the call, as ``blockwise`` tells."""
    global _WORKERS, _inside, _blas
    with _lock:
        found, workers = _WORKERS, min(_WORKERS, n)
        if workers > 1:
            _WORKERS = 1
        if _inside == 0:
            _blas = _set_blas_threads(1)
        _inside += 1
    try:
        yield workers
    finally:
        with _lock:
            if workers > 1:
                _WORKERS = found
            _inside -= 1
            if _inside == 0:
                _set_blas_threads(_blas)


def blockwise(fn, starts) -> list:
    """``[fn(s) for s in starts]`` in strided shares: with W = ``_WORKERS``,
    the CPUs this process may use (at most ``_MAX_WORKERS``), worker w takes
    blocks w, w + W, ...  The caller takes share 0; each other share runs on
    a thread started for this call and joined before it returns or raises,
    under the caller's ``np.errstate`` (threads do not inherit it).  The
    blocks must be independent; results come back in block order, so a
    kernel that combines them in that order is the same for any worker
    count.  A call with two or more workers holds them: ``_WORKERS`` is 1
    until it returns, so calls nested in it or made meanwhile by other
    threads, and children forked meanwhile, run inline.  numpy's OpenBLAS
    runs on one thread while any call that holds workers, or any ``forked``
    call, runs; the last one out gives back the count the first one in found."""
    starts = list(starts)
    if min(_WORKERS, len(starts)) < 2:
        return [fn(s) for s in starts]
    from concurrent.futures import ThreadPoolExecutor  # on first use: it imports logging
    errors = np.geterr()
    out = [None] * len(starts)
    with _claim(len(starts)) as workers, ThreadPoolExecutor(  # a thread per share handed over
            workers, thread_name_prefix="hcal-block") as threads:
        def share(w):
            with np.errstate(**errors):
                return [fn(s) for s in starts[w::workers]]
        later = threads.map(share, range(1, workers))
        out[::workers] = share(0)
        for w, results in enumerate(later, 1):
            out[w::workers] = results
    return out


def forked(fn, items) -> list:
    """``[fn(x) for x in items]``, split into shares as in ``blockwise``;
    each share w > 0 runs in a fork-context, non-daemonic ``multiprocessing``
    child (an item may start processes of its own) that sends its results
    back through a pipe.  Every worker runs its blocks on one thread, so no
    more than ``_WORKERS`` threads are busy.  Without ``os.fork``, with one
    worker, or in a daemonic process such as a ``Pool`` worker, which may
    start none, the items run here in order.  numpy's OpenBLAS runs on one
    thread for the whole call: its count moves a fit's last bits, and a BLAS
    thread per core beside each worker made a 12-candidate grid a third
    slower.

    The items must be independent, and their results picklable; results
    come back in item order.  An item's error is raised here with its type
    and message, after every child is stopped.  No child outlives the call:
    each is killed and joined on every way out.
    """
    items = list(items)
    procs, reads = [], []  # each child and the read end of its pipe
    with _claim(len(items) if hasattr(os, "fork") else 1) as workers:
        try:
            if workers > 1:
                import multiprocessing  # on first use, like the block threads' executor
            if workers < 2 or multiprocessing.current_process().daemon:
                return [fn(x) for x in items]
            context = multiprocessing.get_context("fork")
            for w in range(1, workers):  # the children inherit _WORKERS = 1 and the BLAS count
                read, write = context.Pipe(duplex=False)
                reads.append(read)
                proc = context.Process(target=_child, args=(fn, items[w::workers], write))
                with write:  # the child's end, closed here once the child has it
                    proc.start()
                procs.append(proc)
            out = [None] * len(items)
            out[::workers] = [fn(x) for x in items[::workers]]
            for w, (proc, read) in enumerate(zip(procs, reads), 1):
                try:
                    ok, value = read.recv()  # unpickles what our own child sent
                except EOFError:
                    raise RuntimeError(
                        f"worker process {proc.pid} ended without a result") from None
                if not ok:
                    raise value
                out[w::workers] = value
            return out
        finally:
            for proc in procs:  # a child whose result was read is leaving anyway
                proc.kill()
                proc.join()
            for read in reads:  # after the kills: no child writes to a closed pipe
                read.close()


def _child(fn, items, write) -> None:
    """A ``forked`` worker: run ``items`` and send ``(True, results)`` or
    ``(False, error)`` to ``write``."""
    global _lock
    _lock = threading.Lock()  # another thread may have held the parent's at the fork
    try:
        payload = (True, [fn(x) for x in items])
    except BaseException as exc:  # KeyboardInterrupt too: the parent re-raises it
        payload = (False, exc)
    try:
        write.send(payload)
    except Exception as exc:  # send pickles the whole payload before it writes
        write.send((False, RuntimeError(
            f"a worker's {'results' if payload[0] else 'error'} cannot be pickled: {exc}")))


def _set_blas_threads(n: int | None) -> int | None:
    """Give numpy's OpenBLAS ``n`` threads and return how many it had; return
    None, and change nothing, when ``n`` is None or numpy's BLAS exports none
    of OpenBLAS's thread calls (it then keeps its own count)."""
    if n is None or (calls := _blas_calls()) is None:
        return None
    get, put = calls
    before = get()
    put(n)
    return before


@functools.cache
def _blas_calls():
    """numpy's OpenBLAS ``(get, set)`` thread calls, looked up once, or None."""
    import ctypes

    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)  # sees the BLAS it links
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        if hasattr(lib, name.format("set")) and hasattr(lib, name.format("get")):
            get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _is_csv(path: Path) -> bool:
    return path.suffix.lower() == ".csv"


def load_dataset(path: str | Path) -> LogitDataset:
    """Load a logit-label dataset, named after the file: CSV for a ``.csv``
    suffix (in any case), binary otherwise.

    Errors carry the path and the offending data row index (blank CSV lines
    are not counted).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    logits, labels = _read_csv(path) if _is_csv(path) else _read_binary(path)
    try:
        return LogitDataset(logits, labels, name=path.stem)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def _read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading BOM
        header = fh.readline().strip()
        if not header:
            raise DatasetFormatError(f"{path}: empty file")
        cols = header.split(",")
        if len(cols) < 3 or cols[-1] != "label":
            raise DatasetFormatError(
                f"{path}: header must be 'logit_0,...,logit_{{L-1}},label', got {header!r}"
            )
        n_classes = len(cols) - 1
        expected = [f"logit_{i}" for i in range(n_classes)] + ["label"]
        if cols != expected:
            raise DatasetFormatError(f"{path}: unexpected header columns {cols}")
        logits, labels = [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = len(labels)
            parts = line.split(",")
            if len(parts) != n_classes + 1:
                raise DatasetFormatError(
                    f"{path}: wrong column count at row {row} "
                    f"(expected {n_classes + 1}, got {len(parts)})"
                )
            try:
                logits.append([float(p) for p in parts[:-1]])
                try:
                    labels.append(int(parts[-1]))  # any size, kept exact
                except ValueError:  # such as 1.0; LogitDataset rejects 1.5
                    labels.append(float(parts[-1]))
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: unparseable value at row {row}: {exc}") from None
    if not logits:
        raise DatasetFormatError(f"{path}: no data rows")
    return np.array(logits, dtype=np.float64), np.array(labels)


def _read_binary(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise DatasetFormatError(f"{path}: truncated header")
    magic, version, n, l = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise DatasetFormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    if version != _VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version}")
    need = _HEADER.size + 4 * n * l + 4 * n
    if len(raw) != need:
        raise DatasetFormatError(f"{path}: expected {need} bytes, found {len(raw)}")
    logits = np.frombuffer(raw, dtype="<f4", count=n * l, offset=_HEADER.size).reshape(n, l)
    labels = np.frombuffer(raw, dtype="<u4", count=n, offset=_HEADER.size + 4 * n * l)
    return logits, labels


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write UTF-8 CSV with LF (``"\\n"``) line endings on every platform."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_dataset(ds: LogitDataset, path: str | Path) -> None:
    """Write a dataset as CSV for a ``.csv`` suffix, else binary (binary
    round-trips bit-exactly)."""
    path = Path(path)
    if _is_csv(path):
        rows = ([*map(repr, row.tolist()), int(lab)] for row, lab in zip(ds.logits, ds.labels))
        write_csv(path, [f"logit_{i}" for i in range(ds.n_classes)] + ["label"], rows)
    else:
        n, l = ds.logits.shape
        parts = [
            _HEADER.pack(_MAGIC, _VERSION, n, l),
            ds.logits.astype("<f4").tobytes(),
            ds.labels.astype("<u4").tobytes(),
        ]
        path.write_bytes(b"".join(parts))


def split_dataset(
    ds: LogitDataset, fraction: float, seed: int
) -> tuple[LogitDataset, LogitDataset]:
    """Deterministic seeded shuffle-split into (first, second) parts.

    The first part gets floor(N * fraction) samples; both parts must be
    non-empty.  Parts are disjoint and together contain every input row.
    """
    n = ds.n_samples
    n_first = int(np.floor(n * fraction))
    if n_first < 1 or n_first > n - 1:
        raise ValueError(
            f"fraction {fraction} leaves an empty side for N={n} "
            f"(first part would get {n_first} samples)"
        )
    perm = np.random.default_rng(seed).permutation(n)
    idx_a, idx_b = perm[:n_first], perm[n_first:]
    return (
        LogitDataset(ds.logits[idx_a], ds.labels[idx_a], name=f"{ds.name}-a"),
        LogitDataset(ds.logits[idx_b], ds.labels[idx_b], name=f"{ds.name}-b"),
    )
