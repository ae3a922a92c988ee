import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hcal.dataset import check_prob_matrix, softmax_rows
from hcal.loss import HCalConfig, brier_loss, hcal_loss
from hcal.maps import FAMILIES as MAP_FAMILIES
from hcal.maps import (
    _MEMBER_BLOCK,
    EnsembleTempMap,
    MonotonicNetMap,
    PiecewiseLinearMap,
    init_map,
    load_map,
    save_map,
)

FAMILIES = [
    ("ensemble_temp", 3),
    ("piecewise_linear", 4),
    ("monotonic_net", (2, 3)),
]


def random_map(family, hyper, rng, spread=0.5):
    cal_map = init_map(family, hyper, seed=int(rng.integers(0, 2**31)))
    cal_map.params = cal_map.params + rng.normal(0, spread, cal_map.n_params)
    return cal_map


class TestInit:
    def test_ensemble_param_count(self):
        cal_map = init_map("ensemble_temp", 16, seed=0)
        assert cal_map.n_params == 32  # 16 log-temperatures + 16 weight logits

    def test_piecewise_param_count(self):
        assert init_map("piecewise_linear", 500, seed=0).n_params == 500

    def test_net_param_count(self):
        assert init_map("monotonic_net", (2, 10), seed=0).n_params == 40

    def test_invalid_hyper_rejected(self):
        with pytest.raises(ValueError):
            EnsembleTempMap(0)
        with pytest.raises(ValueError):
            PiecewiseLinearMap(0)
        with pytest.raises(ValueError):
            MonotonicNetMap(0, 5)

    @pytest.mark.parametrize("family,hyper,names", [
        ("monotonic_net", 10, "(groups, units)"),
        ("ensemble_temp", (16, 2), "(m)"),
        ("piecewise_linear", (), "(z)"),
    ])
    def test_wrong_number_of_sizes_rejected(self, family, hyper, names):
        with pytest.raises(ValueError, match=re.escape(f"{family} takes the sizes {names}")):
            init_map(family, hyper, seed=0)

    def test_off_grid_hyper_warns(self):
        with pytest.warns(UserWarning, match="outside the standard grid"):
            init_map("ensemble_temp", 7, seed=0)

    @pytest.mark.parametrize("family,hyper", FAMILIES)
    def test_identity_at_init(self, family, hyper, rng):
        logits = rng.normal(0, 2, (40, 5))
        cal_map = init_map(family, hyper, seed=0)
        out = cal_map.forward(logits).probs
        np.testing.assert_allclose(out, softmax_rows(logits), atol=1e-12)


class TestForward:
    def test_piecewise_single_segment_is_scaling(self, rng):
        logits = rng.normal(0, 3, (30, 4))
        cal_map = PiecewiseLinearMap(1)
        cal_map.params = np.array([np.log(0.7)])
        np.testing.assert_allclose(
            cal_map.forward(logits).probs, softmax_rows(0.7 * logits), rtol=1e-10
        )

    def test_piecewise_uniform_slopes_collapse_to_temperature(self, rng):
        logits = rng.normal(0, 3, (30, 4))
        cal_map = PiecewiseLinearMap(10)
        cal_map.params = np.full(10, np.log(2.5))
        np.testing.assert_allclose(
            cal_map.forward(logits).probs, softmax_rows(2.5 * logits), rtol=1e-10
        )

    def test_ensemble_unit_temperatures_identity(self, rng):
        logits = rng.normal(0, 2, (25, 6))
        cal_map = EnsembleTempMap(4)
        cal_map.params[4:] = rng.normal(0, 1, 4)  # any weights; members identical
        np.testing.assert_allclose(
            cal_map.forward(logits).probs, softmax_rows(logits), atol=1e-12
        )

    @pytest.mark.parametrize("family,hyper", FAMILIES)
    def test_rows_sum_to_one(self, family, hyper, rng):
        for _ in range(20):
            cal_map = random_map(family, hyper, rng)
            probs = cal_map.forward(rng.normal(0, 3, (17, 5))).probs
            check_prob_matrix(probs)

    @pytest.mark.parametrize("family,hyper", FAMILIES)
    def test_argmax_preserved(self, family, hyper, rng):
        # exact preservation for rows with a unique maximum
        for _ in range(10):
            cal_map = random_map(family, hyper, rng)
            logits = rng.normal(0, 3, (200, 6))
            probs = cal_map.forward(logits).probs
            unique = np.sum(logits == logits.max(axis=1, keepdims=True), axis=1) == 1
            assert np.array_equal(
                probs[unique].argmax(axis=1), logits[unique].argmax(axis=1)
            )

    @pytest.mark.parametrize("family,hyper", FAMILIES)
    def test_scalar_monotonicity(self, family, hyper, rng):
        # within any row, a larger logit never gets a smaller probability
        for _ in range(10):
            cal_map = random_map(family, hyper, rng)
            logits = rng.normal(0, 4, (100, 5))
            probs = cal_map.forward(logits).probs
            order = np.argsort(logits, axis=1, kind="stable")
            sorted_probs = np.take_along_axis(probs, order, axis=1)
            assert np.all(np.diff(sorted_probs, axis=1) >= -1e-15)

    # numpy's overflow warnings would raise here: the forward's own check is
    # the one report of a blown-up parameter
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family, hyper, index, value", [
        ("ensemble_temp", 2, 0, -1000.0),  # T = 0
        ("piecewise_linear", 4, 0, 1000.0),  # an infinite slope
    ])  # monotonic_net: TestMonotonicNetForward::test_non_finite_parameters_raise
    def test_blow_up_raises_without_numpy_warnings(self, family, hyper, index, value, rng):
        cal_map = init_map(family, hyper)
        cal_map.params[index] = value
        with pytest.raises(FloatingPointError, match="non-finite probabilities"):
            cal_map.forward(rng.normal(0, 3, (30, 4)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_temperature_is_uniform_without_warnings(self, rng):
        cal_map = EnsembleTempMap(2, params=np.array([1000.0, 1000.0, 0.0, 0.0]))
        assert np.all(cal_map.forward(rng.normal(0, 3, (30, 4))).probs == 0.25)


class TestBackward:
    def test_zero_upstream_zero_grads(self, rng):
        for family, hyper in FAMILIES:
            cal_map = random_map(family, hyper, rng)
            logits = rng.normal(0, 2, (9, 4))
            trace = cal_map.forward(logits)
            pgrad = cal_map.backward(trace, np.zeros_like(trace.probs))
            # the parameter gradient alone: the logits are fixed inputs
            assert isinstance(pgrad, np.ndarray)
            assert pgrad.dtype == np.float64
            assert pgrad.shape == (cal_map.n_params,)
            assert np.all(pgrad == 0)

    def test_shape_mismatch_rejected(self, rng):
        cal_map = random_map("ensemble_temp", 2, rng)
        trace = cal_map.forward(rng.normal(0, 1, (5, 3)))
        with pytest.raises(ValueError, match="shape"):
            cal_map.backward(trace, np.zeros((4, 3)))

    @pytest.mark.parametrize("family,hyper", FAMILIES)
    def test_param_grad_matches_fd_through_brier(self, family, hyper, rng):
        # quick per-module FD check; the full family x loss matrix runs in the
        # acceptance suite
        for _ in range(5):
            cal_map = random_map(family, hyper, rng, spread=0.3)
            assert_grad_matches_fd(cal_map, rng.normal(0, 2, (11, 4)), rng.integers(0, 4, 11))


def assert_grad_matches_fd(cal_map, logits, labels, h=1e-5):
    """The parameter gradient through ``brier_loss`` against central
    differences."""
    trace = cal_map.forward(logits)
    pgrad = cal_map.backward(trace, brier_loss(trace.probs, labels).prob_grad)
    p0 = cal_map.params.copy()
    fd = np.zeros_like(pgrad)
    for i in range(cal_map.n_params):
        e = np.zeros_like(p0)
        e[i] = h
        cal_map.params = p0 + e
        fplus = brier_loss(cal_map.forward(logits).probs, labels).value
        cal_map.params = p0 - e
        fminus = brier_loss(cal_map.forward(logits).probs, labels).value
        cal_map.params = p0
        fd[i] = (fplus - fminus) / (2 * h)
    scale = max(np.abs(fd).max(), np.abs(pgrad).max(), 1e-8)
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(pgrad)), 1e-6 * scale)
    assert np.max(np.abs(fd - pgrad) / denom) < 1e-4


class TestSerialization:
    @pytest.mark.parametrize("family,hyper", FAMILIES)
    def test_round_trip(self, family, hyper, tmp_path, rng):
        cal_map = random_map(family, hyper, rng)
        cal_map.n_classes = 7
        path = tmp_path / "model.hcal"
        save_map(cal_map, path)
        loaded = load_map(path)
        assert loaded.family == cal_map.family
        assert loaded.hyper() == cal_map.hyper()
        assert loaded.n_classes == 7
        np.testing.assert_array_equal(loaded.params, cal_map.params)
        logits = rng.normal(0, 2, (8, 7))
        np.testing.assert_array_equal(
            loaded.forward(logits).probs, cal_map.forward(logits).probs
        )

    @pytest.mark.parametrize("sidecar", ["latin-1", "directory"])
    def test_load_reads_only_the_map_file(self, tmp_path, sidecar):
        # a loaded map keeps the constructor's seed, whatever the sidecar holds
        cal_map = init_map("ensemble_temp", 2, seed=41)
        cal_map.params[:] = [0.5, -0.25, 0.125, 1.0]
        path = tmp_path / "m.hcal"
        save_map(cal_map, path)
        side = tmp_path / "m.hcal.meta.txt"
        side.unlink()
        if sidecar == "directory":
            side.mkdir()
        else:
            side.write_bytes("note = caf\xe9\nseed = 41\n".encode("latin-1"))
        loaded = load_map(path)
        assert loaded.seed == 0
        np.testing.assert_array_equal(loaded.params, cal_map.params)

    def test_sidecar_written(self, tmp_path):
        cal_map = init_map("ensemble_temp", 2, seed=41)
        save_map(cal_map, tmp_path / "m.hcal")
        sidecar = (tmp_path / "m.hcal.meta.txt").read_text(encoding="utf-8")
        assert "family = ensemble_temp" in sidecar
        assert "seed = 41" in sidecar


class TestModelFormat:
    # (family, hyper, family id, header sizes, n_params, sidecar hyper line)
    CASES = [
        ("ensemble_temp", 3, 0, (3, 0), 6, "hyper = 3"),
        ("piecewise_linear", 4, 1, (4, 0), 4, "hyper = 4"),
        ("monotonic_net", (2, 3), 2, (2, 3), 12, "hyper = 2x3"),
    ]

    @pytest.mark.parametrize("family,hyper,fam_id,sizes,n_params,hyper_line", CASES)
    def test_bytes_and_sidecar(self, family, hyper, fam_id, sizes, n_params, hyper_line,
                               tmp_path, rng):
        cal_map = random_map(family, hyper, rng)
        cal_map.n_classes = 5
        cal_map.seed = 9
        path = tmp_path / "m.hcal"
        save_map(cal_map, path)
        expected = struct.pack("<4sIIIIII", b"HMAP", 1, fam_id, *sizes, 5, n_params)
        expected += struct.pack(f"<{n_params}d", *cal_map.params)
        assert path.read_bytes() == expected
        sidecar = (tmp_path / "m.hcal.meta.txt").read_text(encoding="utf-8")
        assert sidecar.splitlines() == [
            f"family = {family}", hyper_line, "seed = 9", "n_classes = 5",
            f"n_params = {n_params}",
        ]

    def test_registry_matches_the_file_ids(self):
        assert {name: (cls.family_id, cls.hyper_names) for name, cls in MAP_FAMILIES.items()} == {
            "ensemble_temp": (0, ("m",)),
            "piecewise_linear": (1, ("z",)),
            "monotonic_net": (2, ("groups", "units")),
        }

    def test_describe(self):
        assert init_map("ensemble_temp", 16).describe() == "ensemble_temp(m=16)"
        assert init_map("piecewise_linear", 10).describe() == "piecewise_linear(z=10)"
        assert init_map("monotonic_net", (2, 3)).describe() == "monotonic_net(groups=2, units=3)"

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.hcal"
        save_map(init_map("ensemble_temp", 2), path)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(ValueError, match=r"m\.hcal: 4 parameters need a 60-byte file, got 76"):
            load_map(path)

    def test_truncated_params_rejected(self, tmp_path):
        path = tmp_path / "m.hcal"
        save_map(init_map("ensemble_temp", 2), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match=r"m\.hcal: 4 parameters need a 60-byte file, got 52"):
            load_map(path)

    @pytest.mark.parametrize("index, value", [(0, np.nan), (1, np.inf), (3, -np.inf)])
    def test_non_finite_params_rejected(self, tmp_path, index, value):
        cal_map = init_map("ensemble_temp", 2)
        cal_map.params[index] = value
        path = tmp_path / "m.hcal"
        save_map(cal_map, path)
        with pytest.raises(ValueError, match=rf"m\.hcal: ensemble_temp\(m=2\) has a non-finite "
                                             rf"parameter at index {index}: {value}"):
            load_map(path)

    def test_sizes_that_do_not_fit_the_params_name_the_file(self, tmp_path):
        path = tmp_path / "m.hcal"
        path.write_bytes(struct.pack("<4sIIIIII", b"HMAP", 1, 0, 16, 0, 0, 10) + bytes(80))
        with pytest.raises(ValueError, match=r"m\.hcal: ensemble_temp\(m=16\) needs 32 params, "
                                             r"got 10"):
            load_map(path)

    def test_unknown_family_id_rejected(self, tmp_path):
        path = tmp_path / "m.hcal"
        path.write_bytes(struct.pack("<4sIIIIII", b"HMAP", 1, 7, 1, 0, 0, 0))
        with pytest.raises(ValueError, match="unknown family id 7"):
            load_map(path)


SLOPES = (0.25, 0.5, 1.0, 2.0)  # powers of two: exp(log(s)) == s exactly
BIASES = (-100.0, -3.0, -1.0, 0.0, 2.0, 3.0, 5.0)
XS = (0.0, -0.0, -0.5, -1.0, -2.0, -4.0, -100.0, -150.5, -1e6, -1e17, -1e308)


def net_of_lines(slopes, biases, groups):
    return MonotonicNetMap(groups, len(slopes) // groups,
                           params=np.concatenate([np.log(slopes), biases]))


@st.composite
def line_nets(draw):
    groups, units = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lines = st.lists(st.sampled_from(SLOPES), min_size=groups * units, max_size=groups * units)
    offsets = st.lists(st.sampled_from(BIASES), min_size=groups * units, max_size=groups * units)
    return net_of_lines(draw(lines), draw(offsets), groups)


def crossings(cal_map):
    """Each x <= 0 where two lines of one group meet, with its neighbours."""
    a, b = cal_map._unpack()
    out = []
    for ak, bk in zip(a.tolist(), b.tolist()):
        for i in range(len(ak)):
            for j in range(len(ak)):
                if ak[i] < ak[j]:
                    x = (bk[i] - bk[j]) / (ak[j] - ak[i])
                    out += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    return [x for x in out if x <= 0]


def assert_matches_naive(cal_map, x):
    with np.errstate(over="ignore"):  # 2 * -1e308 is -inf, quietly as in a forward
        y, cache = cal_map._transform(x)
    want_y, want_active = oracles.naive_monotonic_transform(x, *cal_map._unpack())
    np.testing.assert_array_equal(y.ravel(), want_y)
    np.testing.assert_array_equal(np.signbit(y.ravel()), np.signbit(want_y))
    np.testing.assert_array_equal(cache["active"], want_active)


class TestMonotonicNetForward:
    @settings(max_examples=400, deadline=None)
    @given(cal_map=line_nets(), picks=st.lists(st.sampled_from(XS), max_size=8))
    # three lines through (-2, 1)
    @example(cal_map=net_of_lines([0.5, 1.0, 2.0], [2.0, 3.0, 5.0], 1), picks=[-2.0, 0.0])
    @example(cal_map=net_of_lines([1.0], [0.0], 1), picks=[0.0, -1e17])  # K = J = 1
    @example(cal_map=net_of_lines([1.0, 2.0, 0.5], [3.0, 3.0, 3.0], 3), picks=[-1.0])  # J = 1
    @example(cal_map=net_of_lines([1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 2.0, 3.0], 2),
             picks=[-0.0, -4.0])  # equal slopes, duplicate lines
    def test_matches_naive_exactly(self, cal_map, picks):
        x = np.array([0.0, *picks, *crossings(cal_map)])[:, None]
        assert_matches_naive(cal_map, x)

    @pytest.mark.parametrize("hyper", [(2, 2), (10, 10), (20, 20), (50, 50)])
    def test_grid_sizes_match_naive(self, hyper, rng):
        # at init every slope is 1; after Adam's first step three slopes remain
        logits = rng.normal(0, 4, (20, 10))
        x = logits - logits.max(axis=1, keepdims=True)
        cal_map = init_map("monotonic_net", hyper, seed=3)
        assert_matches_naive(cal_map, x)
        n = cal_map.n_params // 2
        cal_map.params[:n] = rng.choice([-0.005, 0.0, 0.005], n)
        cal_map.params[n:] += rng.choice([-0.005, 0.005], n)
        assert_matches_naive(cal_map, x)

    def test_trained_like_net_matches_naive(self, rng):
        cal_map = random_map("monotonic_net", (20, 20), rng, spread=0.3)
        logits = rng.normal(0, 8, (100, 10))
        assert_matches_naive(cal_map, logits - logits.max(axis=1, keepdims=True))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("index, value", [(0, 1000.0), (0, np.inf), (4, np.nan)])
    def test_non_finite_parameters_raise(self, index, value, rng):
        # a raw slope of 1000 or inf makes an infinite slope; 0 * inf at
        # x = 0 is NaN, as is a NaN bias
        cal_map = init_map("monotonic_net", (2, 2), seed=0)
        cal_map.params[index] = value
        with pytest.raises(FloatingPointError):
            cal_map.forward(rng.normal(0, 2, (30, 4)))

    def test_workspace_bounded(self):
        # 2e6 scalars through a 50x50 net: beyond its two outputs the forward
        # holds at most 8e6 elements at once; a (groups, N*L) array alone
        # would be 1e8
        cal_map = MonotonicNetMap(50, 50, seed=0)
        x = -np.random.default_rng(0).exponential(5.0, (200_000, 10))
        tracemalloc.start()
        try:
            y, cache = cal_map._transform(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - y.nbytes - cache["active"].nbytes <= 8_000_000 * 8


def assert_matches_stack(cal_map, logits, upstream):
    """Probabilities bit-identical to the stacked oracle; parameter gradients
    within rtol 1e-10 plus a floor. The kernel sums in another order than the
    per-member loop, and where a member is near one-hot its temperature
    gradient cancels to ~0 while both sides keep rounding errors of about
    eps * sum |g * x| * w_k / T_k (w_k for the weights)."""
    trace = cal_map.forward(logits)
    want = oracles.naive_ensemble_temp_forward(cal_map, logits)
    assert np.array_equal(trace.probs, want.probs)
    got = cal_map.backward(trace, upstream)
    want_grad = oracles.naive_ensemble_temp_backward(cal_map, want, upstream)
    temps, w = cal_map._unpack()
    floor = 1e-14 * np.abs(upstream * logits).sum() * np.concatenate([w / temps, w])
    assert np.all(np.abs(got - want_grad) <= 1e-10 * np.abs(want_grad) + floor)


class TestEnsembleTempForward:
    @pytest.mark.parametrize("m", [1, 3, 16, 128])
    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("l", [2, 10, 100])
    def test_matches_list_and_stack_exactly(self, m, n, l):
        # raw temperatures of +-3 and logits up to +-50: some rows underflow in exp
        gen = np.random.default_rng(1000 * m + 10 * n + l)
        cal_map = EnsembleTempMap(m, params=np.concatenate(
            [gen.uniform(-3.0, 3.0, m), gen.normal(0.0, 1.0, m)]))
        logits = gen.uniform(-50.0, 50.0, (n, l))
        assert_matches_stack(cal_map, logits, gen.normal(0.0, 1.0, (n, l)))

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2, 16, 128]), l=st.sampled_from([2, 10, 1000]),
           blocks=st.integers(1, 2), offset=st.integers(-1, 1), seed=st.integers(0, 2**32 - 1))
    @example(m=128, l=1000, blocks=2, offset=1, seed=0)  # m * L above the block: one row each
    @example(m=1, l=2, blocks=1, offset=-1, seed=1)  # the most rows per block
    @example(m=16, l=1000, blocks=1, offset=1, seed=2)
    def test_block_edges_match_stack(self, m, l, blocks, offset, seed):
        # row counts one below, at and one above a multiple of the rows per
        # block; raw temperatures of +-3 and logits of +-50 underflow in exp
        rows = max(1, _MEMBER_BLOCK // (m * l))
        gen = np.random.default_rng(seed)
        cal_map = EnsembleTempMap(m, params=np.concatenate(
            [gen.uniform(-3.0, 3.0, m), gen.normal(0.0, 1.0, m)]))
        logits = gen.uniform(-50.0, 50.0, (max(1, blocks * rows + offset), l))
        assert_matches_stack(cal_map, logits, gen.normal(0.0, 1.0, logits.shape))

    def test_single_row_blocks_match_fd(self, rng):
        # m * L above the block size: every block is one row
        cal_map = random_map("ensemble_temp", 4, rng, spread=0.3)
        logits = rng.normal(0, 2, (3, 20_000))
        assert 4 * logits.shape[1] > _MEMBER_BLOCK
        assert_grad_matches_fd(cal_map, logits, rng.integers(0, 20_000, 3))

    @pytest.mark.parametrize("m, n, l", [(128, 500, 100), (16, 20_000, 10)])
    def test_no_member_stack_alive(self, m, n, l):
        # an (m, N, L) array would be m times the logits (51 and 26 MB here);
        # forward and backward each hold the logits' size plus a few blocks
        cal_map = EnsembleTempMap(m, params=np.random.default_rng(0).normal(0, 1, 2 * m))
        logits = np.random.default_rng(1).normal(0, 4, (n, l))
        bound = logits.nbytes + 8 * _MEMBER_BLOCK * 8
        tracemalloc.start()
        try:
            trace = cal_map.forward(logits)
            held, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            cal_map.backward(trace, logits)
            backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert set(trace.cache) == {"temps", "weights", "xmax"}
        assert forward_peak <= bound
        assert backward_peak <= bound

    @pytest.mark.parametrize("m", [2, 16, 128])
    def test_symmetric_start_keeps_components_equal(self, m, rng):
        # from T = 1 and equal weights every component gets the same gradient
        # under the default window loss, bit for bit; breaking this symmetry
        # is a training decision (ROADMAP item 4), not a kernel side effect
        logits = rng.normal(0, 3, (600, 10))
        labels = rng.integers(0, 10, 600)
        cal_map = EnsembleTempMap(m)
        trace = cal_map.forward(logits)
        grad = cal_map.backward(trace, hcal_loss(trace.probs, labels, HCalConfig()).prob_grad)
        assert np.all(grad[:m] == grad[0]) and np.all(grad[m:] == grad[m])
        assert grad[0] != 0
