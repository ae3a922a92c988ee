import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hcal import loss as loss_mod
from hcal.dataset import softmax_rows
from hcal.loss import (
    HCalConfig,
    brier_loss,
    build_windows,
    hcal_loss,
    kmeans_1d,
    kmeans_weights,
    nll_loss,
    window_sums,
)
from hcal.synthetic import make_overconfident_task


def random_prob_instance(rng, max_n=20, max_l=4):
    n = int(rng.integers(2, max_n + 1))
    l = int(rng.integers(2, max_l + 1))
    return rng.dirichlet(np.ones(l), size=n), rng.integers(0, l, size=n)


@st.composite
def tie_heavy_instances(draw):
    """(probs, labels, window) with N <= 3 and L <= 50; each row is either
    eight 1/8 units spread over the classes or a near-one-hot row, so equal
    probabilities are the rule and their order decides the windows."""
    n, l = draw(st.integers(1, 3)), draw(st.integers(2, 50))
    rows = []
    for _ in range(n):
        if draw(st.booleans()):
            units = draw(st.lists(st.integers(0, l - 1), min_size=8, max_size=8))
            rows.append(np.bincount(units, minlength=l) / 8.0)
        else:
            rest = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
            row = np.full(l, rest)
            row[draw(st.integers(0, l - 1))] = 1.0 - rest * (l - 1)
            rows.append(row)
    labels = draw(st.lists(st.integers(0, l - 1), min_size=n, max_size=n))
    return np.array(rows), np.array(labels), draw(st.integers(1, n * l))


class TestBuildWindows:
    def test_hand_trace_single_sample(self):
        # one sample, two classes, label 0: the class-0 event holds, class-1
        # does not
        perm, q, gaps = build_windows(np.array([[0.3, 0.7]]), np.array([0]), window=1)
        np.testing.assert_array_equal(perm, [0, 1])
        np.testing.assert_allclose(q, [0.3, 0.7])
        np.testing.assert_allclose(gaps, [0.7, -0.7])

    def test_distinct_values_sorted_ascending(self, rng):
        probs, labels = random_prob_instance(rng)
        perm, q, gaps = build_windows(probs, labels, window=2)
        assert np.all(np.diff(q) >= 0)
        assert sorted(perm.tolist()) == list(range(probs.size))
        assert gaps.size == probs.size - 1

    def test_duplicate_values_stable_by_flat_index(self):
        probs = np.full((3, 2), 0.5)
        perm, _, _ = build_windows(probs, np.array([0, 1, 0]), window=2)
        np.testing.assert_array_equal(perm, np.arange(6))

    def test_window_exceeding_events_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_windows(np.full((2, 2), 0.5), np.array([0, 1]), window=5)


class TestWindowSums:
    def test_hand_example(self):
        np.testing.assert_allclose(window_sums(np.array([1.0, 2, 3, 4]), 2), [3, 5, 7])

    def test_zeros(self):
        np.testing.assert_allclose(window_sums(np.zeros(6), 3), np.zeros(4))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_sliding_sum(self, seed):
        gen = np.random.default_rng(seed)
        vec = gen.normal(0, 1, gen.integers(5, 200))
        m = int(gen.integers(1, len(vec) + 1))
        fast = window_sums(vec, m)
        naive = oracles.naive_window_sums(vec, m)
        np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=1e-12)


class TestKmeans1d:
    def test_identical_values_single_cluster(self):
        w = kmeans_weights(np.full(40, 0.3), 15)
        np.testing.assert_allclose(w, np.full(40, 1.0 / (15 * 40)))

    def test_two_separated_groups(self, rng):
        values = np.concatenate([rng.uniform(0, 0.05, 10), rng.uniform(0.9, 1.0, 90)])
        w = kmeans_weights(values, 2)
        np.testing.assert_allclose(w[:10], 1.0 / (2 * 10))
        np.testing.assert_allclose(w[10:], 1.0 / (2 * 90))

    def test_single_cluster_uniform(self, rng):
        values = rng.uniform(0, 1, 33)
        np.testing.assert_allclose(kmeans_weights(values, 1), np.full(33, 1.0 / 33))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_lloyd(self, seed):
        gen = np.random.default_rng(seed)
        values = gen.uniform(0, 1, int(gen.integers(10, 80)))
        k = int(gen.integers(2, 8))
        centers, assign = kmeans_1d(values, k)
        n_centers, n_assign = oracles.naive_kmeans_1d(values, k)
        np.testing.assert_allclose(centers, n_centers, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(assign, n_assign)

    # Values are multiples of 1/64, so every cluster sum is exact in float64
    # and both implementations compute the same centers to the last bit:
    # values exactly midway between two centers, ties and duplicate centers
    # then occur often, and the assignments must agree exactly.  (On
    # arbitrary floats "nearest" is decided by rounding within an ulp of a
    # midpoint, where no two summation orders need agree.)
    @settings(max_examples=500, deadline=None)
    @given(
        ticks=st.one_of(*(st.lists(st.integers(0, top), min_size=1, max_size=40)
                          for top in (3, 12, 64))),
        k=st.integers(1, 12),
        presorted=st.booleans(),
    )
    @example(ticks=[17], k=5, presorted=False)  # n = 1
    @example(ticks=[3, 60, 3, 9, 41], k=1, presorted=False)
    # a value midway between two centers, where the rounded midpoint and
    # the rounded distances disagree
    @example(ticks=[0, 6, 0, 5, 2], k=5, presorted=False)
    @example(ticks=[3, 3, 1, 1, 1, 1, 2, 3, 3, 0, 2, 1, 1, 3, 0, 1], k=3, presorted=False)
    # fewer distinct values than clusters: equal centers, the upper stays empty
    @example(ticks=[2, 3, 1, 1, 3], k=6, presorted=False)
    def test_matches_naive_lloyd_exactly_on_ties(self, ticks, k, presorted):
        values = np.array(sorted(ticks) if presorted else ticks) / 64.0
        centers, assign = kmeans_1d(values, k)
        n_centers, n_assign = oracles.naive_kmeans_1d(values, k)
        np.testing.assert_array_equal(assign, n_assign)
        np.testing.assert_allclose(centers, n_centers, rtol=0, atol=1e-12)
        r_centers, r_assign = oracles.reduceat_kmeans_1d(values, k)
        np.testing.assert_array_equal(assign, r_assign)
        np.testing.assert_allclose(centers, r_centers, rtol=1e-12, atol=0)

    # the start reads the k quantiles of the sorted values directly; it must
    # round exactly as np.quantile does, or the fits would move
    @settings(max_examples=500, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.floats(0.0, 1.0), min_size=1, max_size=400),
            st.lists(st.integers(0, 3).map(lambda t: t / 3.0), min_size=1, max_size=400),
            st.lists(st.floats(0.0, 2e-6), min_size=1, max_size=400),
            st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        ),
        k=st.integers(1, 15),
    )
    @example(values=[-0.0], k=1)
    def test_start_is_numpy_quantile_bit_for_bit(self, values, k):
        values = np.sort(np.array(values))
        q = (np.arange(k) + 0.5) / k
        start = loss_mod._sorted_quantiles(values, q)
        np.testing.assert_array_equal(start.view(np.int64), np.quantile(values, q).view(np.int64))

    # the loss's own inputs: sorted window centroids of softmax(2 * N(0, 1))
    # logits, up to the 2M centroids of 20,000 x 100 events
    @pytest.mark.parametrize("n, l", [(5000, 10), (200, 100), (20_000, 100)])
    def test_matches_reduceat_on_window_centroids(self, n, l):
        probs = softmax_rows(2.0 * np.random.default_rng(n + l).normal(size=(n, l)))
        _, q, _ = build_windows(probs, np.zeros(n, dtype=np.int64), 200)
        centroids = window_sums(q, 200) / 200
        centers, assign = kmeans_1d(centroids, 15)
        r_centers, r_assign = oracles.reduceat_kmeans_1d(centroids, 15)
        np.testing.assert_array_equal(assign, r_assign)
        np.testing.assert_allclose(centers, r_centers, rtol=1e-12, atol=0)

    def test_weights_sum_is_nonempty_cluster_fraction(self, rng):
        for _ in range(20):
            values = rng.uniform(0, 1, int(rng.integers(5, 100)))
            c = int(rng.integers(1, 20))
            w = kmeans_weights(values, c)
            assert w.sum() <= 1.0 + 1e-9
            _, assign = kmeans_1d(values, c)
            nonempty = np.unique(assign).size
            assert w.sum() == pytest.approx(nonempty / c, rel=1e-12)


class TestHcalLoss:
    def test_epsilon_one_dead_zone(self, rng):
        probs, labels = random_prob_instance(rng)
        cfg = HCalConfig(epsilon=0.999999, window=2, weighting="uniform")
        out = hcal_loss(probs, labels, cfg)
        assert out.value == 0.0
        assert np.all(out.prob_grad == 0)
        assert out.n_active_windows == 0

    def test_exhaustive_tiny_instance(self):
        probs = np.array([[0.2, 0.8], [0.6, 0.4]])
        labels = np.array([1, 0])
        cfg = HCalConfig(epsilon=0.05, window=2, multiplier=10.0, weighting="uniform")
        out = hcal_loss(probs, labels, cfg)
        expected = oracles.naive_hcal_loss(probs, labels, 0.05, 2, 10.0)
        assert out.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_uniform_weighting(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_prob_instance(gen, max_n=12)
        m = int(gen.integers(1, probs.size + 1))
        cfg = HCalConfig(epsilon=0.01, window=m, multiplier=100.0, weighting="uniform")
        out = hcal_loss(probs, labels, cfg)
        expected = oracles.naive_hcal_loss(probs, labels, 0.01, m, 100.0)
        assert out.value == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_row_permutation_invariance(self, seed):
        # continuous draws: ties are measure-zero, and sorting absorbs any
        # reordering of the rows
        gen = np.random.default_rng(seed)
        probs, labels = random_prob_instance(gen)
        cfg = HCalConfig(window=3, clusters=4)
        base = hcal_loss(probs, labels, cfg).value
        perm = gen.permutation(len(probs))
        permuted = hcal_loss(probs[perm], labels[perm], cfg).value
        assert permuted == pytest.approx(base, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(instance=tie_heavy_instances(), epsilon=st.sampled_from([0.0, 1e-3, 0.1]),
           weighting=st.sampled_from(["uniform", "adaptive"]), clusters=st.integers(1, 15))
    @example(instance=(np.array([[0.5, 0.5]]), np.array([1]), 1), epsilon=0.0,
             weighting="uniform", clusters=1)
    @example(instance=(np.full((3, 50), 0.02), np.array([0, 49, 0]), 7), epsilon=0.0,
             weighting="adaptive", clusters=15)
    def test_matches_naive_on_ties_and_near_one_hot_rows(self, instance, epsilon, weighting,
                                                          clusters):
        probs, labels, window = instance
        cfg = HCalConfig(epsilon=epsilon, window=window, multiplier=10.0, clusters=clusters,
                         weighting=weighting)
        # adaptive weights come from the loss's own k-means; the oracle still
        # sorts the events itself, ties by flat index
        weights = None
        if weighting == "adaptive":
            _, weights = oracles.frozen_structure(probs, labels, cfg)
        expected = oracles.naive_hcal_loss(probs, labels, epsilon, window, 10.0, weights)
        assert hcal_loss(probs, labels, cfg).value == pytest.approx(expected, rel=1e-9, abs=1e-10)

    def test_epsilon_monotonicity(self, rng):
        probs, labels = random_prob_instance(rng)
        values = [
            hcal_loss(probs, labels, HCalConfig(epsilon=e, window=3, weighting="uniform")).value
            for e in [0.0, 1e-3, 1e-2, 1e-1, 0.5]
        ]
        assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_squared_norm_honours_epsilon(self, seed):
        # the squared norm squares the same epsilon hinge the abs norm takes
        gen = np.random.default_rng(seed)
        probs, labels = random_prob_instance(gen, max_n=8)
        values = []
        for epsilon in (0.0, 0.01, 0.1):
            cfg = HCalConfig(epsilon=epsilon, window=3, multiplier=10.0, clusters=3,
                             norm="squared")
            perm, weights = oracles.frozen_structure(probs, labels, cfg)
            out = hcal_loss(probs, labels, cfg)

            def frozen_loss(p):
                return oracles.naive_hcal_loss(p, labels, epsilon, 3, 10.0, weights, perm,
                                               norm="squared")

            assert out.value == pytest.approx(frozen_loss(probs), rel=1e-10, abs=1e-12)
            # the squared hinge is smooth, so central differences converge
            h = 1e-6
            fd = np.zeros_like(probs)
            for i, j in np.ndindex(*probs.shape):
                bump = np.zeros_like(probs)
                bump[i, j] = h
                fd[i, j] = (frozen_loss(probs + bump) - frozen_loss(probs - bump)) / (2 * h)
            np.testing.assert_allclose(out.prob_grad, fd, rtol=1e-5, atol=1e-6)
            values.append(out.value)
        assert values[0] >= values[1] >= values[2]

    def test_brier_degeneracy(self, rng):
        for _ in range(20):
            probs, labels = random_prob_instance(rng)
            cfg = HCalConfig(
                epsilon=0.0, window=1, multiplier=1e5, norm="squared", weighting="uniform"
            )
            hv = hcal_loss(probs, labels, cfg)
            bv = brier_loss(probs, labels)
            assert hv.value == pytest.approx(1e5 * bv.value, rel=1e-12)
            np.testing.assert_allclose(hv.prob_grad, 1e5 * bv.prob_grad, rtol=1e-9, atol=1e-12)

    def test_zero_loss_alignment(self):
        # alternating event indicators with constant probability 0.5: every
        # even-length window has mean indicator exactly 0.5
        n = 8
        probs = np.full((n, 2), 0.5)
        labels = np.zeros(n, dtype=int)
        cfg = HCalConfig(epsilon=0.0, window=2, weighting="uniform")
        out = hcal_loss(probs, labels, cfg)
        assert out.value == 0.0
        # every window's mean event indicator equals its mean probability
        _, _, gaps = build_windows(probs, labels, 2)
        assert np.all(np.abs(gaps) <= 1e-12)

    def test_inactive_positions_zero_grad(self, rng):
        # with a large epsilon only a few windows stay active; any position
        # not covered by an active window must have zero gradient
        probs, labels = random_prob_instance(rng, max_n=10)
        cfg = HCalConfig(epsilon=0.2, window=2, weighting="uniform")
        out = hcal_loss(probs, labels, cfg)
        perm, _, gaps = build_windows(probs, labels, 2)
        active = (np.abs(gaps) - 0.2) > 0
        covered = np.zeros(probs.size, dtype=bool)
        for w in np.nonzero(active)[0]:
            covered[w:w + 2] = True
        grad_sorted = out.prob_grad.ravel()[perm]
        assert np.all(grad_sorted[~covered] == 0)

    @pytest.mark.parametrize("seed", range(12))
    def test_prob_grad_matches_fd_frozen(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_prob_instance(gen, max_n=8)
        cfg = HCalConfig(epsilon=0.0, window=3, clusters=3)
        _, _, gaps = build_windows(probs, labels, 3)
        if np.min(np.abs(np.abs(gaps) - cfg.epsilon)) < 1e-3:
            pytest.skip("instance sits on a hinge kink; FD not meaningful there")
        perm, weights = oracles.frozen_structure(probs, labels, cfg)
        out = hcal_loss(probs, labels, cfg)

        def frozen_loss(p):
            return oracles.naive_hcal_loss(p, labels, cfg.epsilon, cfg.window, cfg.multiplier,
                                           weights, perm)

        # the frozen loss is piecewise linear in p, so a larger step loses no
        # accuracy and divides the float64 cancellation noise
        h = 1e-4
        fd = np.zeros_like(probs)
        for i in range(probs.shape[0]):
            for j in range(probs.shape[1]):
                bump = np.zeros_like(probs)
                bump[i, j] = h
                fd[i, j] = (frozen_loss(probs + bump) - frozen_loss(probs - bump)) / (2 * h)
        scale = max(np.abs(fd).max(), np.abs(out.prob_grad).max(), 1e-8)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(out.prob_grad)), 1e-6 * scale)
        assert np.max(np.abs(fd - out.prob_grad) / denom) < 1e-4

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            HCalConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            HCalConfig(window=0)
        with pytest.raises(ValueError):
            HCalConfig(norm="L3")
        with pytest.raises(ValueError):
            HCalConfig(weighting="fancy")

    def test_adaptive_weights_change_value(self, rng):
        # sanity: adaptive weighting is actually wired in
        probs = np.vstack(
            [rng.dirichlet([20, 1, 1], size=30), rng.dirichlet([1, 1, 1], size=5)]
        )
        labels = rng.integers(0, 3, len(probs))
        uni = hcal_loss(probs, labels, HCalConfig(window=5, weighting="uniform")).value
        ada = hcal_loss(probs, labels, HCalConfig(window=5, weighting="adaptive")).value
        assert uni != ada


class TestStableOrderIsTimsortOrder:
    """``build_windows`` takes its order from ``stable_argsort``; a run on
    numpy's stable (timsort) argsort must give the same loss bit for bit."""

    @staticmethod
    def assert_same_as_timsort_run(monkeypatch, probs, labels, cfg):
        out = hcal_loss(probs, labels, cfg)
        perm = build_windows(probs, labels, cfg.window)[0]
        with monkeypatch.context() as patch:
            patch.setattr(loss_mod, "stable_argsort", lambda v: np.argsort(v, kind="stable"))
            ref = hcal_loss(probs, labels, cfg)
            ref_perm = build_windows(probs, labels, cfg.window)[0]
        np.testing.assert_array_equal(perm, ref_perm)
        assert out.value == ref.value
        assert np.array_equal(out.prob_grad, ref.prob_grad)
        assert (out.n_active_windows, out.max_window_violation) == (
            ref.n_active_windows, ref.max_window_violation)

    def test_softmax_5000x10(self, monkeypatch):
        gen = np.random.default_rng(3)
        probs = softmax_rows(3.0 * gen.normal(size=(5000, 10)))
        labels = gen.integers(0, 10, 5000)
        self.assert_same_as_timsort_run(monkeypatch, probs, labels, HCalConfig())

    @pytest.mark.parametrize("weighting", ["adaptive", "uniform"])
    def test_tie_heavy_5000x10(self, monkeypatch, weighting):
        # eight 1/8 units per row: 50k events on nine levels
        gen = np.random.default_rng(4)
        units = gen.integers(0, 10, size=(5000, 8))
        probs = np.stack([np.bincount(row, minlength=10) for row in units]) / 8.0
        labels = gen.integers(0, 10, 5000)
        assert not np.array_equal(np.argsort(probs.ravel()),
                                  np.argsort(probs.ravel(), kind="stable"))
        self.assert_same_as_timsort_run(monkeypatch, probs, labels,
                                        HCalConfig(window=50, weighting=weighting))


class TestPrefixSumKmeansKeepsTheLoss:
    """``kmeans_1d`` takes its run sums from one prefix sum; the window loss
    must come out bit for bit as with the ``np.add.reduceat`` rounds."""

    def test_overconfident_5000x10(self, monkeypatch):
        task = make_overconfident_task(n_train=5000, n_test=1, seed=2)
        probs, labels = softmax_rows(task.train.logits), task.train.labels
        out = hcal_loss(probs, labels, HCalConfig())
        with monkeypatch.context() as patch:
            patch.setattr(loss_mod, "kmeans_1d", oracles.reduceat_kmeans_1d)
            ref = hcal_loss(probs, labels, HCalConfig())
        assert out.value == ref.value
        assert np.array_equal(out.prob_grad, ref.prob_grad)
        assert (out.n_active_windows, out.max_window_violation) == (
            ref.n_active_windows, ref.max_window_violation)


class TestPsrLosses:
    @pytest.mark.parametrize("loss_fn", [
        lambda p, y: hcal_loss(p, y, HCalConfig(window=2, weighting="uniform")),
        brier_loss,
        nll_loss,
    ], ids=["hcal_loss", "brier_loss", "nll_loss"])
    @pytest.mark.parametrize("bad", [5, -1])
    def test_label_out_of_range_rejected(self, loss_fn, bad):
        # one_hot gives such a row no event, and nll would index from the end
        with pytest.raises(ValueError, match=rf"label out of range at row 1: {bad} not in \[0, 2\)"):
            loss_fn(np.full((2, 2), 0.5), np.array([0, bad]))

    def test_nll_perfect_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = nll_loss(probs, np.array([0, 1]))
        assert out.value == pytest.approx(0.0, abs=1e-12)

    def test_nll_uniform_ten_classes(self):
        probs = np.full((7, 10), 0.1)
        out = nll_loss(probs, np.arange(7) % 10)
        assert out.value == pytest.approx(np.log(10), rel=1e-12)

    def test_nll_clamps_zero_probability(self):
        probs = np.array([[1.0, 0.0]])
        out = nll_loss(probs, np.array([1]))
        assert np.isfinite(out.value)

    def test_nll_grad_matches_fd(self, rng):
        probs, labels = random_prob_instance(rng)
        out = nll_loss(probs, labels)
        h = 1e-7
        for _ in range(10):
            i = rng.integers(0, probs.shape[0])
            j = rng.integers(0, probs.shape[1])
            bump = np.zeros_like(probs)
            bump[i, j] = h
            fd = (nll_loss(probs + bump, labels).value - nll_loss(probs - bump, labels).value) / (2 * h)
            assert fd == pytest.approx(out.prob_grad[i, j], rel=1e-5, abs=1e-10)

    def test_brier_perfect_predictions(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert brier_loss(probs, np.array([0, 1])).value == 0.0

    def test_brier_uniform_binary(self):
        probs = np.full((4, 2), 0.5)
        out = brier_loss(probs, np.array([0, 1, 0, 1]))
        assert out.value == pytest.approx(0.25, rel=1e-12)

    def test_brier_grad_matches_fd(self, rng):
        probs, labels = random_prob_instance(rng)
        out = brier_loss(probs, labels)
        h = 1e-6
        fd = np.zeros_like(probs)
        for i in range(probs.shape[0]):
            for j in range(probs.shape[1]):
                bump = np.zeros_like(probs)
                bump[i, j] = h
                fd[i, j] = (
                    brier_loss(probs + bump, labels).value
                    - brier_loss(probs - bump, labels).value
                ) / (2 * h)
        np.testing.assert_allclose(fd, out.prob_grad, rtol=1e-5, atol=1e-10)
