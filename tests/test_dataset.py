import math
import os
import re
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcal import dataset
from hcal.dataset import (
    DatasetFormatError,
    LogitDataset,
    blockwise,
    check_prob_matrix,
    forked,
    load_dataset,
    save_dataset,
    softmax_rows,
    split_dataset,
    stable_argsort,
)


class TestLogitDataset:
    def test_valid_construction(self):
        ds = LogitDataset(np.zeros((3, 2)), np.array([0, 1, 0]))
        assert ds.n_samples == 3
        assert ds.n_classes == 2

    def test_rejects_nan(self):
        logits = np.zeros((3, 2))
        logits[1, 0] = np.nan
        with pytest.raises(ValueError, match="row 1"):
            LogitDataset(logits, np.array([0, 1, 0]))

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError, match="label out of range at row 2"):
            LogitDataset(np.zeros((3, 3)), np.array([0, 1, 5]))

    @pytest.mark.parametrize("bad", [0.5, 1.7, np.nan])
    def test_rejects_label_that_is_not_whole(self, bad):
        with pytest.raises(ValueError, match="label not a whole number at row 1"):
            LogitDataset(np.zeros((3, 3)), np.array([0.0, bad, 2.0]))

    def test_whole_valued_float_labels_load(self):
        ds = LogitDataset(np.zeros((3, 3)), np.array([0.0, 2.0, 1.0]))
        np.testing.assert_array_equal(ds.labels, [0, 2, 1])
        assert ds.labels.dtype == np.int64

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="2 classes"):
            LogitDataset(np.zeros((3, 1)), np.array([0, 0, 0]))


class TestCsvLoading:
    def test_minimal_file(self, tiny_csv):
        ds = load_dataset(tiny_csv)
        assert ds.n_samples == 3
        assert ds.n_classes == 2
        assert list(ds.labels) == [0, 1, 0]

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbflogit_0,logit_1,label\n0.5,-1,1\n")
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.logits, [[0.5, -1.0]])
        assert list(ds.labels) == [1]

    def test_label_out_of_range_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "logit_0,logit_1,logit_2,label\n0,0,0,1\n0,0,0,5\n", encoding="utf-8"
        )
        with pytest.raises(DatasetFormatError, match="label out of range at row 1"):
            load_dataset(path)

    def test_wrong_column_count_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\n0,0,0\n1,2\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="row 1"):
            load_dataset(path)

    def test_non_finite_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\nnan,0,0\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="row 0"):
            load_dataset(path)

    @pytest.mark.parametrize("bad_row, message", [
        ("1,2", "wrong column count at row 2"),
        ("0,0,7", "label out of range at row 2: 7 not in [0, 2)"),
        ("0,0,99999999999999999999999",
         "label out of range at row 2: 99999999999999999999999 not in [0, 2)"),
        ("inf,0,1", "non-finite logit at row 2"),
    ])
    def test_blank_lines_do_not_shift_the_row(self, tmp_path, bad_row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"logit_0,logit_1,label\n0,0,0\n\n1,1,1\n\n{bad_row}\n0,1,0\n",
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: {message}")):
            load_dataset(path)

    def test_whole_valued_float_labels_load(self, tmp_path):
        # a float label column, as pandas writes one
        path = tmp_path / "floats.csv"
        path.write_text("logit_0,logit_1,label\n0,0,1.0\n1,1,0.0\n", encoding="utf-8")
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.labels, [1, 0])
        assert ds.labels.dtype == np.int64

    def test_fractional_csv_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\n0,0,1.0\n\n1,1,1.5\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError,
                           match=re.escape(f"{path}: label not a whole number at row 1: 1.5")):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.csv")


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        logits = rng.normal(size=(64, 7)).astype(np.float32).astype(np.float64)
        labels = rng.integers(0, 7, size=64)
        ds = LogitDataset(logits, labels)
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.logits, ds.logits)
        assert np.array_equal(loaded.labels, ds.labels)
        # a second save produces identical bytes
        path2 = tmp_path / "data2.bin"
        save_dataset(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, tmp_path):
        ds = LogitDataset(np.zeros((2, 3)), np.array([0, 2]))
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        raw = path.read_bytes()
        assert raw[:4] == b"HCAL"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 3
        assert len(raw) == 16 + 4 * 6 + 4 * 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNK" + bytes(12))
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(path)

    def test_truncated(self, tmp_path, rng):
        ds = LogitDataset(rng.normal(size=(4, 2)), rng.integers(0, 2, 4))
        path = tmp_path / "data.bin"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DatasetFormatError, match="bytes"):
            load_dataset(path)

    @pytest.mark.parametrize("logit, label, message", [
        (0.5, 3, "label out of range at row 1: 3 not in [0, 3)"),
        (np.nan, 0, "non-finite logit at row 1"),
    ])
    def test_bad_row_reports_path_and_row(self, tmp_path, logit, label, message):
        logits = np.zeros((3, 3), dtype="<f4")
        logits[1, 2] = logit
        labels = np.array([0, label, 2], dtype="<u4")
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack("<4sIII", b"HCAL", 1, 3, 3) + logits.tobytes()
                         + labels.tobytes())
        with pytest.raises(DatasetFormatError, match=re.escape(f"{path}: {message}")):
            load_dataset(path)

    def test_csv_round_trip_values(self, tmp_path, rng):
        ds = LogitDataset(rng.normal(size=(10, 3)), rng.integers(0, 3, 10))
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.logits, ds.logits)
        assert np.array_equal(loaded.labels, ds.labels)

    @pytest.mark.parametrize("name, is_csv", [("d.csv", True), ("d.CSV", True),
                                               ("d.bin", False), ("d.csv.gz", False)])
    def test_suffix_picks_the_format(self, tmp_path, rng, name, is_csv):
        ds = LogitDataset(rng.normal(size=(5, 3)).astype(np.float32), rng.integers(0, 3, 5))
        path = tmp_path / name
        save_dataset(ds, path)
        assert path.read_bytes().startswith(b"logit_0,") == is_csv
        assert path.read_bytes().startswith(b"HCAL") != is_csv
        assert np.array_equal(load_dataset(path).logits, ds.logits)

    def test_benchmark_export_shape(self, tmp_path, rng):
        # the shape of a standard ten-class benchmark test export
        ds = LogitDataset(
            rng.normal(size=(10000, 10)).astype(np.float32).astype(np.float64),
            rng.integers(0, 10, 10000),
        )
        path = tmp_path / "bench.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert (loaded.n_samples, loaded.n_classes) == (10000, 10)


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_extreme_logits_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-9)

    def test_closed_form(self):
        # softmax(ln 1, ln 3) = (1, 3) / 4
        out = softmax_rows(np.log(np.array([[1.0, 3.0]])))
        np.testing.assert_allclose(out, [[0.25, 0.75]], rtol=1e-12)

    @given(
        st.lists(
            st.lists(st.floats(-500, 500, allow_nan=False), min_size=2, max_size=6),
            min_size=1,
            max_size=20,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=200, deadline=None)
    def test_output_is_valid_prob_matrix(self, rows):
        out = softmax_rows(np.array(rows, dtype=np.float64))
        check_prob_matrix(out)

    def test_prob_matrix_checker_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="sum"):
            check_prob_matrix(np.array([[0.5, 0.4]]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            check_prob_matrix(np.array([[1.2, -0.2]]))


# a few values, both zeros, both infinities and NaNs of either sign, so that
# most draws are runs of equal values
_TIE_POOL = [0.0, -0.0, 0.25, -1.5, 1e-300, np.inf, -np.inf, np.nan, -np.nan]


class TestStableArgsort:
    @given(st.lists(st.sampled_from(_TIE_POOL), max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_heavy_ties_match_stable_argsort(self, values):
        values = np.array(values, dtype=np.float64)
        np.testing.assert_array_equal(stable_argsort(values),
                                      np.argsort(values, kind="stable"))

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=400),
           st.sampled_from(["as drawn", "sorted", "reversed"]))
    @settings(max_examples=300, deadline=None)
    def test_any_floats_in_any_order_match_stable_argsort(self, values, layout):
        values = np.array(values, dtype=np.float64)
        if layout != "as drawn":
            values = np.sort(values)
            if layout == "reversed":
                values = values[::-1].copy()
        np.testing.assert_array_equal(stable_argsort(values),
                                      np.argsort(values, kind="stable"))

    @pytest.mark.parametrize("values", [[], [0.5], [np.nan], [-0.0]])
    def test_empty_and_one_element(self, values):
        values = np.array(values, dtype=np.float64)
        out = stable_argsort(values)
        assert out.dtype == np.intp
        np.testing.assert_array_equal(out, np.arange(values.size))

    def test_large_tied_input_needs_the_repair(self, rng):
        # 50k values on 1000 levels with the zeros signed at random: the
        # unstable order differs, the repaired one does not
        values = rng.integers(0, 1000, 50_000) / 1000.0
        values[values == 0.0] *= rng.choice([-1.0, 1.0], np.count_nonzero(values == 0.0))
        values[rng.integers(0, values.size, 50)] = np.nan
        stable = np.argsort(values, kind="stable")
        assert not np.array_equal(np.argsort(values), stable)
        np.testing.assert_array_equal(stable_argsort(values), stable)


class TestBlockwise:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2, 3, 7])
    def test_results_in_block_order(self, workers, n_blocks, monkeypatch):
        monkeypatch.setattr(dataset, "_WORKERS", workers)
        ran_on = set()

        def block(s):
            ran_on.add(threading.get_ident())
            return s * s

        assert blockwise(block, range(0, 10 * n_blocks, 10)) == [
            s * s for s in range(0, 10 * n_blocks, 10)]
        assert len(ran_on) <= max(1, min(workers, n_blocks))
        if min(workers, n_blocks) < 2:  # one block, or one worker: the caller's thread
            assert ran_on <= {threading.get_ident()}

    def test_workers_enter_the_callers_errstate(self, monkeypatch):
        # numpy's error state is a context variable that threads do not inherit
        monkeypatch.setattr(dataset, "_WORKERS", 3)
        with np.errstate(divide="raise", over="ignore"):
            states = blockwise(lambda s: np.geterr(), range(5))
        assert all(st["divide"] == "raise" and st["over"] == "ignore" for st in states)

    def test_a_blocks_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(dataset, "_WORKERS", 2)

        def block(s):
            if s == 3:
                raise ValueError("block 3")
            return s

        with pytest.raises(ValueError, match="block 3"):
            blockwise(block, range(4))

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="Linux call")
    def test_worker_count_is_the_processs_cpus_capped(self):
        assert 1 <= dataset._WORKERS <= dataset._MAX_WORKERS == 4
        assert dataset._WORKERS == min(len(os.sched_getaffinity(0)), 4)

    def test_blocks_run_the_blas_on_one_thread(self, monkeypatch):
        def count(s):  # the BLAS thread count, left as it was
            n = dataset._set_blas_threads(1)
            dataset._set_blas_threads(n)
            return n

        before = dataset._set_blas_threads(2)
        if before is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread call")
        try:
            monkeypatch.setattr(dataset, "_WORKERS", 2)
            assert blockwise(lambda s: dataset._set_blas_threads(1), range(4)) == [1, 1, 1, 1]
            assert dataset._set_blas_threads(2) == 2  # the caller's count is back
            monkeypatch.setattr(dataset, "_WORKERS", 1)  # one worker leaves it alone
            assert blockwise(count, range(4)) == [2, 2, 2, 2]
            assert count(None) == 2
        finally:
            dataset._set_blas_threads(before)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestForked:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_items", [0, 1, 2, 3, 7])
    def test_results_in_item_order(self, workers, n_items, monkeypatch):
        # fewer items than workers included; the pids show who ran each item
        monkeypatch.setattr(dataset, "_WORKERS", workers)
        out = forked(lambda x: (x * x, os.getpid(), dataset._WORKERS), range(n_items))
        assert [square for square, _, _ in out] == [x * x for x in range(n_items)]
        pids = [pid for _, pid, _ in out]
        w = max(1, min(workers, n_items))
        assert len(set(pids)) == min(w, n_items)
        assert all(pids[i] == pids[i % w] for i in range(n_items))
        assert pids[:1] == [os.getpid()][:n_items]  # the caller takes share 0
        # every worker ran its items on one thread; the caller's count is back
        assert all(blocks == (workers if w < 2 else 1) for _, _, blocks in out)
        assert dataset._WORKERS == workers
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_items_run_the_blas_on_one_thread(self, workers, monkeypatch):
        monkeypatch.setattr(dataset, "_WORKERS", workers)
        before = dataset._set_blas_threads(2)
        if before is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread call")
        try:
            assert forked(lambda x: dataset._set_blas_threads(1), range(3)) == [1, 1, 1]
            assert dataset._set_blas_threads(2) == 2  # the caller's count is back
        finally:
            dataset._set_blas_threads(before)

    def test_one_item_never_forks(self, monkeypatch):
        monkeypatch.setattr(dataset, "_WORKERS", 4)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for one item"))
        assert forked(lambda x: x + 1, [41]) == [42]

    @pytest.mark.parametrize("bad", [0, 1, 4])  # the caller's share, then a child's
    def test_an_items_error_reaches_the_caller(self, bad, monkeypatch):
        monkeypatch.setattr(dataset, "_WORKERS", 3)

        def item(x):
            if x == bad:
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match=f"^item {bad}$"):
            forked(item, range(6))
        assert dataset._WORKERS == 3
        assert_no_child_left()

    def test_a_child_that_dies_is_reported(self, monkeypatch):
        monkeypatch.setattr(dataset, "_WORKERS", 2)
        parent = os.getpid()

        def item(x):
            if os.getpid() != parent:
                os._exit(7)
            return x

        with pytest.raises(RuntimeError, match="ended without a result"):
            forked(item, range(2))
        assert_no_child_left()

    def test_an_unpicklable_result_is_reported(self, monkeypatch):
        monkeypatch.setattr(dataset, "_WORKERS", 2)
        with pytest.raises(RuntimeError, match="results cannot be pickled"):
            forked(lambda x: (lambda: x), range(2))
        assert_no_child_left()

    def test_an_interrupt_stops_and_waits_for_the_children(self, monkeypatch):
        # the caller's share is interrupted while a child is still busy
        monkeypatch.setattr(dataset, "_WORKERS", 2)
        parent = os.getpid()

        def item(x):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            forked(item, range(2))
        assert time.perf_counter() - start < 30
        assert_no_child_left()


class TestSplitDataset:
    def test_even_split_sizes(self, rng):
        ds = LogitDataset(rng.normal(size=(10, 3)), rng.integers(0, 3, 10))
        a, b = split_dataset(ds, 0.5, seed=7)
        assert (a.n_samples, b.n_samples) == (5, 5)

    def test_floor_rule(self, rng):
        ds = LogitDataset(rng.normal(size=(3, 2)), rng.integers(0, 2, 3))
        a, b = split_dataset(ds, 0.9, seed=0)
        assert (a.n_samples, b.n_samples) == (2, 1)  # floor(3 * 0.9) = 2

    def test_deterministic(self, rng):
        ds = LogitDataset(rng.normal(size=(20, 4)), rng.integers(0, 4, 20))
        a1, b1 = split_dataset(ds, 0.3, seed=99)
        a2, b2 = split_dataset(ds, 0.3, seed=99)
        assert np.array_equal(a1.logits, a2.logits)
        assert np.array_equal(b1.labels, b2.labels)

    def test_degenerate_fraction_rejected(self, rng):
        ds = LogitDataset(rng.normal(size=(3, 2)), rng.integers(0, 2, 3))
        with pytest.raises(ValueError, match="empty side"):
            split_dataset(ds, 0.01, seed=0)

    @given(n=st.integers(2, 60), seed=st.integers(0, 2**31), frac_pct=st.integers(5, 95))
    @settings(max_examples=100, deadline=None)
    def test_partition_is_disjoint_and_exhaustive(self, n, seed, frac_pct):
        fraction = frac_pct / 100
        if not 1 <= math.floor(n * fraction) <= n - 1:
            return
        gen = np.random.default_rng(seed)
        ds = LogitDataset(gen.normal(size=(n, 3)), gen.integers(0, 3, n))
        a, b = split_dataset(ds, fraction, seed=seed)
        assert a.n_samples + b.n_samples == n
        rows = {tuple(r) for r in ds.logits}
        rows_out = [tuple(r) for r in np.vstack([a.logits, b.logits])]
        # union as multisets: same count and every row accounted for
        assert len(rows_out) == n
        assert set(rows_out) == rows
