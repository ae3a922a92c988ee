import csv
import inspect
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hcal import dataset
from hcal import metrics as metrics_mod
from hcal.dataset import softmax_rows, stable_argsort
from hcal.loss import kmeans_1d
from hcal.maps import init_map
from hcal.metrics import (
    METRICS,
    accuracy,
    ace,
    cwece_a,
    cwece_r2,
    cwece_s,
    dece,
    dkde_ce,
    ece_em,
    ece_ew,
    ece_r2,
    evaluate,
    kde_ece,
    ks,
    mmce,
    nll,
    reliability_data,
    skce,
    sweep_ece,
    sweep_ece_r2,
    tcwece,
    tcwece_k,
)
from hcal.synthetic import make_overconfident_task, sample_labels


def perfect_instance(n=40, l=4):
    labels = np.arange(n) % l
    probs = np.zeros((n, l))
    probs[np.arange(n), labels] = 1.0
    return probs, labels


def random_instance(gen, max_n=50, max_l=5, min_n=2):
    n = int(gen.integers(min_n, max_n + 1))
    l = int(gen.integers(2, max_l + 1))
    return gen.dirichlet(np.ones(l), size=n), gen.integers(0, l, size=n)


FOUR_SAMPLE_PROBS = np.array(
    [[0.9, 0.1], [0.9, 0.1], [0.6, 0.4], [0.6, 0.4]]
)
FOUR_SAMPLE_LABELS = np.array([0, 1, 0, 0])  # correctness 1,0,1,1


def traced_peak(fn, *args):
    """tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_edge_instance(n, n_classes=4):
    """Dirichlet rows where every third row from 1 is near one-hot and every
    third row from 2 repeats the row before it."""
    gen = np.random.default_rng(n)
    probs = gen.dirichlet(np.ones(n_classes), size=n)
    probs[1::3] = gen.dirichlet(np.full(n_classes, 0.02), size=probs[1::3].shape[0])
    probs[2::3] = probs[1::3][:probs[2::3].shape[0]]
    return probs, gen.integers(0, n_classes, size=n)


CWECE = {"a": cwece_a, "s": cwece_s, "r2": cwece_r2}  # the oracle's variant -> metric
SWEEP = {1: sweep_ece, 2: sweep_ece_r2}  # order -> metric

BLOCK = 4  # small block for the edge tests; N below covers 2, 3, B-1, B, B+1, 2B+3
BLOCK_EDGE_N = sorted({2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3})


@st.composite
def sweep_cases(draw):
    """Two-class rows with few distinct confidences (heavy ties), and
    correctness that is random, all correct, all wrong, or non-decreasing in
    stable confidence order (so every bin count is monotone)."""
    n = draw(st.integers(1, 60))
    levels = draw(st.integers(1, 200))
    conf = 0.5 + 0.5 * np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))) / levels
    kind = draw(st.sampled_from(["random", "all_correct", "all_wrong", "sorted"]))
    if kind == "random":
        correct = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    elif kind == "sorted":
        correct = np.empty(n, dtype=bool)
        correct[np.argsort(conf, kind="stable")] = np.arange(n) >= draw(st.integers(0, n))
    else:
        correct = np.full(n, kind == "all_correct")
    return np.stack([conf, 1 - conf], axis=1), np.where(correct, 0, 1), kind


class TestEce:
    def test_perfect_predictions_zero(self):
        probs, labels = perfect_instance()
        assert ece_ew(probs, labels) == 0.0

    def test_hand_binned_example(self):
        # confidences {0.9, 0.9} -> one bin with acc 0.5; {0.6, 0.6} -> acc 1.0
        value = ece_ew(FOUR_SAMPLE_PROBS, FOUR_SAMPLE_LABELS, 15)
        assert value == pytest.approx(0.5 * 0.4 + 0.5 * 0.4, rel=1e-12)

    def test_equal_mass_one_per_bin(self, rng):
        probs, labels = random_instance(rng, max_n=20, min_n=5)
        n = len(probs)
        conf = probs.max(axis=1)
        correct = (probs.argmax(axis=1) == labels).astype(float)
        expected = np.abs(correct - conf).mean()
        assert ece_em(probs, labels, bins=n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_naive_both_binnings(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_instance(gen)
        assert ece_ew(probs, labels) == pytest.approx(
            oracles.naive_ece_ew(probs, labels), abs=1e-12
        )
        assert ece_em(probs, labels) == pytest.approx(
            oracles.naive_ece_em(probs, labels), abs=1e-12
        )
        assert ece_r2(probs, labels) == pytest.approx(
            oracles.naive_ece_ew(probs, labels, r=2), abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ece_ew(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestDece:
    def test_underfilled_bin_rejected(self):
        probs, labels = perfect_instance(n=10)
        with pytest.raises(ValueError, match=">= 2 samples"):
            dece(probs, labels, bins=15)

    def test_matches_naive(self):
        for seed in range(20):
            gen = np.random.default_rng(seed)
            probs, labels = random_instance(gen, max_n=200, min_n=40)
            assert dece(probs, labels) == pytest.approx(
                oracles.naive_dece(probs, labels), abs=1e-12
            )

    def test_uniform_confidence_synthetic(self):
        # thirty samples, all confidence 0.7, 40% correct
        gen = np.random.default_rng(3)
        n = 30
        probs = np.full((n, 2), 0.3)
        probs[:, 0] = 0.7
        labels = (gen.random(n) > 0.4).astype(int)
        assert dece(probs, labels, bins=15) == pytest.approx(
            oracles.naive_dece(probs, labels, bins=15), abs=1e-12
        )

    def test_usually_below_plugin_estimate(self):
        # bias removal: the debiased value sits at or below the plug-in
        # order-2 equal-mass estimate it corrects, on (at least) 95% of draws
        hold = 0
        trials = 100
        for seed in range(trials):
            gen = np.random.default_rng(seed + 1000)
            probs, labels = random_instance(gen, max_n=200, min_n=30)
            plugin = oracles.naive_ece_em(probs, labels, r=2)
            if dece(probs, labels) <= plugin + 1e-12:
                hold += 1
        assert hold >= 0.95 * trials

    def test_calibrated_data_decays_with_n(self):
        # on perfectly calibrated draws the debiased estimate shrinks with N
        vals = []
        for n in (200, 2000):
            gen = np.random.default_rng(7)
            conf = gen.uniform(0.55, 0.95, n)
            correct = (gen.random(n) < conf).astype(float)
            probs = np.stack([conf, 1 - conf], axis=1)
            labels = np.where(correct > 0, 0, 1)
            vals.append(dece(probs, labels))
        assert vals[1] < vals[0] + 0.02


class TestAce:
    def test_perfect_zero(self):
        probs, labels = perfect_instance()
        assert ace(probs, labels) == 0.0

    def test_hand_example(self):
        assert ace(FOUR_SAMPLE_PROBS, FOUR_SAMPLE_LABELS) == pytest.approx(0.4, rel=1e-12)

    def test_single_bin_equals_ece(self):
        probs = np.array([[0.62, 0.38], [0.6, 0.4], [0.58, 0.42]])
        labels = np.array([0, 1, 0])
        assert ace(probs, labels, bins=1) == pytest.approx(ece_ew(probs, labels, bins=1))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_naive(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_instance(gen)
        assert ace(probs, labels) == pytest.approx(
            oracles.naive_ace(probs, labels), abs=1e-12
        )


class TestSweepEce:
    def test_perfectly_monotone_uses_n_bins(self):
        # all incorrect at low confidence, correct at high: every bin count is
        # monotone, so the sweep settles at N (one sample per bin)
        conf = np.array([0.55, 0.65, 0.85, 0.95])
        correct = np.array([0, 0, 1, 1])
        probs = np.stack([conf, 1 - conf], axis=1)
        labels = np.where(correct > 0, 0, 1)
        expected = np.abs(correct - conf).mean()
        assert sweep_ece(probs, labels) == pytest.approx(expected, rel=1e-12)

    def test_identical_confidences_single_bin(self):
        probs = np.full((6, 2), 0.5)
        probs[:, 0] = 0.7
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert sweep_ece(probs, labels) == pytest.approx(abs(0.5 - 0.7), rel=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_instance(gen, max_n=40)
        assert sweep_ece(probs, labels) == pytest.approx(
            oracles.naive_sweep_ece(probs, labels), abs=1e-12
        )
        assert sweep_ece_r2(probs, labels) == pytest.approx(
            oracles.naive_sweep_ece(probs, labels, r=2), abs=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(case=sweep_cases(), cells=st.sampled_from([None, 1, 40]))
    def test_screen_matches_full_scan(self, case, cells):
        # cells=1 screens one count per pass; cells=40 splits the counts into heads
        probs, labels, kind = case
        cells = metrics_mod._SWEEP_CELLS if cells is None else cells
        conf, correct = metrics_mod.top_label(probs, labels)
        csum_k = np.concatenate([[0.0], np.cumsum(correct[np.argsort(conf, kind="stable")])])
        want = oracles.naive_monotone_bin_count(probs, labels)
        with mock.patch.object(metrics_mod, "_SWEEP_CELLS", cells):
            assert metrics_mod._monotone_bin_count(csum_k) == want
            for r, fn in SWEEP.items():
                assert fn(probs, labels) == pytest.approx(
                    oracles.naive_sweep_ece(probs, labels, r=r), abs=1e-12
                )
        if kind != "random":
            assert want == len(labels)  # the screen prunes nothing

    @pytest.mark.parametrize("r", [1, 2])
    def test_one_ranking_per_call(self, r, monkeypatch):
        # the bin-count search and the equal-mass binning share one sort
        gen = np.random.default_rng(r)
        probs, labels = gen.dirichlet(np.ones(10), size=3000), gen.integers(0, 10, 3000)
        want = SWEEP[r](probs, labels)
        calls = []

        def counted(values):
            calls.append(values.size)
            return stable_argsort(values)

        monkeypatch.setattr(metrics_mod, "stable_argsort", counted)
        assert SWEEP[r](probs, labels) == want
        assert calls == [3000]


class TestKsError:
    def test_perfect_confident_predictions(self):
        probs, labels = perfect_instance()
        assert ks(probs, labels) == pytest.approx(0.0, abs=1e-12)

    def test_single_sample(self):
        probs = np.array([[0.7, 0.3]])
        assert ks(probs, np.array([0])) == pytest.approx(0.3, rel=1e-12)

    def test_invariant_under_order_preserving_shuffle(self, rng):
        probs, labels = random_instance(rng, max_n=30)
        base = ks(probs, labels)
        # reverse-stable permutation: distinct confidences move, ties keep order
        conf = probs.max(axis=1)
        order = np.argsort(conf, kind="stable")
        shuffled = np.empty_like(order)
        shuffled[order] = np.arange(len(order))  # place rows at their rank
        assert ks(probs[np.argsort(shuffled)], labels[np.argsort(shuffled)]) == base

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_naive(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_instance(gen)
        assert ks(probs, labels) == pytest.approx(
            oracles.naive_ks(probs, labels), abs=1e-12
        )


class TestMmce:
    def test_single_correct_confident(self):
        probs = np.array([[1.0, 0.0]])
        assert mmce(probs, np.array([0])) == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_closed_form(self):
        probs = np.array([[0.8, 0.2]])
        assert mmce(probs, np.array([0])) == pytest.approx(0.2, rel=1e-12)

    def test_two_sample_hand_instance(self):
        probs = np.array([[0.9, 0.1], [0.6, 0.4]])
        labels = np.array([0, 1])
        assert mmce(probs, labels) == pytest.approx(
            oracles.naive_mmce(probs, labels), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_instance(gen, max_n=30)
        assert mmce(probs, labels) == pytest.approx(
            oracles.naive_mmce(probs, labels), abs=1e-9
        )


    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_on_ties(self, seed):
        # confidences from three values, so most pairs tie; N from 1
        gen = np.random.default_rng(seed)
        n = 1 + 4 * seed
        conf = gen.choice([0.5, 0.7, 0.9], n)
        probs = np.stack([conf, 1.0 - conf], axis=1)
        labels = gen.integers(0, 2, n)
        assert mmce(probs, labels) == pytest.approx(
            oracles.naive_mmce(probs, labels), rel=1e-12, abs=1e-12
        )


class TestKdeEce:
    def test_calibrated_limit_small(self):
        # accuracy identically equal to confidence: the regression curve sits
        # on the diagonal wherever there is data, so the error is tiny
        gen = np.random.default_rng(0)
        n = 4000
        conf = gen.uniform(0.55, 0.95, n)
        correct = (gen.random(n) < conf).astype(float)
        probs = np.stack([conf, 1 - conf], axis=1)
        labels = np.where(correct > 0, 0, 1)
        assert kde_ece(probs, labels) < 0.02

    def test_single_sample_reduces_to_gap(self):
        # NW estimate is the single correctness value; one sample has no
        # spread, so the kernel takes the 1e-3 floor and the integral
        # contracts to |conf - correct|
        probs = np.array([[0.7, 0.3]])
        assert kde_ece(probs, np.array([0])) == pytest.approx(0.3, abs=1e-4)

    def test_grid_refinement_stable(self, rng, monkeypatch):
        probs, labels = random_instance(rng, max_n=40, min_n=10)
        v1 = kde_ece(probs, labels)
        monkeypatch.setattr(metrics_mod, "KDE_GRID_POINTS", 2048)
        v2 = kde_ece(probs, labels)
        assert abs(v1 - v2) < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_instance(gen, max_n=30, min_n=1)
        assert kde_ece(probs, labels) == pytest.approx(
            oracles.naive_kde_ece(probs, labels), rel=1e-10, abs=1e-15
        )

    def test_workspace_grid_blocks(self, monkeypatch):
        # N=1e4: a (block, N) kernel array per worker, not a (1024, N) one
        monkeypatch.setattr(dataset, "_WORKERS", 2)
        gen = np.random.default_rng(0)
        n = 10_000
        probs = gen.dirichlet(np.ones(10), size=n)
        labels = gen.integers(0, 10, n)
        bound = 2 * metrics_mod._KDE_BLOCK * n * 8 + 10 * n * 8
        assert traced_peak(kde_ece, probs, labels) <= bound


class TestCwece:
    def test_perfect_zero_all_variants(self):
        probs, labels = perfect_instance()
        for fn in CWECE.values():
            assert fn(probs, labels) == 0.0

    def test_s_equals_l_times_a_at_same_bins(self, rng):
        probs, labels = random_instance(rng, max_l=2)
        s14 = cwece_s(probs, labels, bins=14)
        a14 = cwece_a(probs, labels, bins=14)
        assert s14 == pytest.approx(2 * a14, rel=1e-12)

    def test_tiny_hand_instance(self):
        # N=4, L=2: per-class binned sums traced by hand via the oracle
        assert cwece_a(FOUR_SAMPLE_PROBS, FOUR_SAMPLE_LABELS) == pytest.approx(
            oracles.naive_cwece(FOUR_SAMPLE_PROBS, FOUR_SAMPLE_LABELS, "a"), abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_naive(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_instance(gen)
        for variant, fn in CWECE.items():
            assert fn(probs, labels) == pytest.approx(
                oracles.naive_cwece(probs, labels, variant), abs=1e-12
            )


class TestTcwece:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_instance(gen, max_n=40, max_l=6)
        for bins in (15, 7):
            assert tcwece(probs, labels, bins) == pytest.approx(
                oracles.naive_tcwece(probs, labels, bins), rel=1e-12, abs=1e-15
            )
        assert tcwece_k(probs, labels, 4) == pytest.approx(
            oracles.naive_tcwece(probs, labels, k=4), rel=1e-12, abs=1e-15
        )

    def test_uniform_rows_retain_nothing(self):
        # no entry lies strictly above 1/L
        probs = np.full((5, 4), 0.25)
        with pytest.raises(ValueError, match="retained"):
            tcwece(probs, np.zeros(5, dtype=int))

    def test_kmeans_binning_matches_shared_lloyd(self, rng):
        probs, labels = random_instance(rng, max_n=40, min_n=10)
        value = tcwece_k(probs, labels, bins=4)
        # recompute with the same clustering primitive, literal aggregation
        n, n_classes = probs.shape
        per_class = []
        for l in range(n_classes):
            kept = probs[:, l] > 1.0 / n_classes
            if not kept.any():
                continue
            p = probs[kept, l]
            e = (labels[kept] == l).astype(float)
            k = min(4, p.size)
            _, assign = kmeans_1d(p, k)
            vals = []
            for c in range(k):
                members = assign == c
                if members.sum() == 0:
                    continue
                gap = abs(e[members].mean() - p[members].mean())
                vals.append(members.sum() / p.size * gap)
            per_class.append(sum(vals))
        assert value == pytest.approx(np.mean(per_class), rel=1e-12)


class TestSkce:
    def test_identical_onehot_pair_zero(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert skce(probs, np.array([0, 0])) == 0.0

    def test_three_sample_matches_naive(self, rng):
        probs, labels = random_instance(rng, max_n=3, min_n=3)
        assert skce(probs, labels) == pytest.approx(
            oracles.naive_skce(probs, labels), abs=1e-12
        )

    def test_negative_values_reported_as_is(self):
        # unbiased estimator is signed; a calibrated-looking pair drives it
        # negative and the metric must not clip it
        gen = np.random.default_rng(5)
        found_negative = False
        for _ in range(50):
            probs, labels = random_instance(gen, max_n=8, min_n=4)
            if skce(probs, labels) < 0:
                found_negative = True
                break
        assert found_negative

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive(self, seed):
        gen = np.random.default_rng(seed)
        probs, labels = random_instance(gen, max_n=20)
        assert skce(probs, labels) == pytest.approx(
            oracles.naive_skce(probs, labels), abs=1e-9
        )

    @pytest.mark.parametrize("n", BLOCK_EDGE_N)
    def test_block_edges_match_naive(self, n, monkeypatch):
        monkeypatch.setattr(metrics_mod, "_SKCE_BLOCK", BLOCK)
        probs, labels = block_edge_instance(n)
        assert skce(probs, labels) == pytest.approx(
            oracles.naive_skce(probs, labels), rel=1e-12, abs=1e-15
        )

    def test_workspace_bounded(self, monkeypatch):
        # N=4000, L=10: a few (block, N) arrays per worker, not a (block, N, L)
        # temporary
        monkeypatch.setattr(dataset, "_WORKERS", 2)
        gen = np.random.default_rng(0)
        n, l = 4000, 10
        probs = gen.dirichlet(np.ones(l), size=n)
        labels = gen.integers(0, l, n)
        bound = 4 * metrics_mod._SKCE_BLOCK * n * 8 + 6 * n * l * 8
        assert traced_peak(skce, probs, labels) <= bound

    def test_unbiased_over_label_draws(self):
        # given the rows, two samples' labels are independent, so the mean
        # skce over label draws from p* is soft_skce at p*
        task = make_overconfident_task(n_train=10, n_test=200, seed=3)
        probs, truth = softmax_rows(task.test.logits), task.true_test_probs
        gen = np.random.default_rng(0)
        draws = np.array([skce(probs, sample_labels(truth, gen)) for _ in range(400)])
        expected = oracles.soft_skce(probs, truth)
        stderr = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= 4 * stderr
        assert expected > 10 * stderr  # the draws tell it apart from 0


class TestDkdeCe:
    def test_two_identical_rows_hand_trace(self):
        # both rows identical, both labels class 0: each leave-one-out
        # estimate is the other sample's one-hot, so the value is the mean of
        # two identical squared distances ||p - onehot||^2
        p = np.array([0.6, 0.4])
        probs = np.vstack([p, p])
        labels = np.array([0, 0])
        onehot = np.array([1.0, 0.0])
        expected = float(((p - onehot) ** 2).sum())
        assert dkde_ce(probs, labels) == pytest.approx(expected, rel=1e-9)

    def test_consistency_trend(self):
        # labels drawn from the probabilities themselves: estimate shrinks as
        # N grows
        vals = []
        for n in (100, 1000):
            gen = np.random.default_rng(11)
            probs = gen.dirichlet(np.ones(3) * 2, size=n)
            labels = np.array([gen.choice(3, p=row) for row in probs])
            vals.append(dkde_ce(probs, labels))
        assert vals[1] < vals[0]

    def test_log_domain_stable_many_classes(self):
        gen = np.random.default_rng(2)
        probs = gen.dirichlet(np.ones(1000) * 0.05, size=6)
        labels = gen.integers(0, 1000, 6)
        value = dkde_ce(probs, labels)
        assert np.isfinite(value) and value >= 0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="2 samples"):
            dkde_ce(np.array([[0.5, 0.5]]), np.array([0]))

    @pytest.mark.parametrize("seed", range(32))
    def test_matches_naive(self, seed):
        gen = np.random.default_rng(seed)
        if seed % 4 == 3:  # many classes, and near-one-hot rows that hit the clamp
            n, l = int(gen.integers(2, 16)), 50
            probs = gen.dirichlet(np.ones(l) * (0.02 if seed % 8 == 3 else 1.0), size=n)
            labels = gen.integers(0, l, size=n)
        else:
            probs, labels = random_instance(gen, max_n=30, max_l=8)
        assert dkde_ce(probs, labels) == pytest.approx(
            oracles.naive_dkde_ce(probs, labels), rel=1e-10
        )

    @pytest.mark.parametrize("n", BLOCK_EDGE_N)
    def test_block_edges_match_naive(self, n, monkeypatch):
        monkeypatch.setattr(metrics_mod, "_DKDE_BLOCK", BLOCK)
        probs, labels = block_edge_instance(n)
        assert dkde_ce(probs, labels) == pytest.approx(
            oracles.naive_dkde_ce(probs, labels), rel=1e-12
        )

    def test_workspace_bounded(self, monkeypatch):
        # N=6000: a (block, N) array per worker, not two N x N ones
        monkeypatch.setattr(dataset, "_WORKERS", 2)
        gen = np.random.default_rng(0)
        n, l = 6000, 10
        probs = gen.dirichlet(np.ones(l), size=n)
        labels = gen.integers(0, l, n)
        bound = 2 * metrics_mod._DKDE_BLOCK * n * 8 + 12 * n * l * 8
        assert traced_peak(dkde_ce, probs, labels) <= bound


def pairwise_instances():
    """The oracle tests' inputs: random and block-edge ones in blocks of
    ``BLOCK`` (1 to 8 of them) and scale ones in blocks of 32 (16 and 94)."""
    for seed in range(8):
        yield random_instance(np.random.default_rng(seed), max_n=30, max_l=8), BLOCK
    for n in BLOCK_EDGE_N:
        yield block_edge_instance(n), BLOCK
    for n, n_classes in [(500, 100), (3000, 10)]:
        yield scale_instance(n, n_classes), None


@pytest.mark.parametrize("metric, block", [(skce, "_SKCE_BLOCK"), (dkde_ce, "_DKDE_BLOCK"),
                                           (kde_ece, "_KDE_BLOCK")])
def test_blocked_worker_count_changes_nothing(metric, block, monkeypatch):
    """skce and dkde_ce run their row blocks, and kde_ece its grid blocks, on
    ``dataset._WORKERS`` threads, including inputs with fewer blocks than
    workers; no count changes a bit."""
    for (probs, labels), size in pairwise_instances():
        if size is not None:
            monkeypatch.setattr(metrics_mod, block, size)
        values = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(dataset, "_WORKERS", workers)
            values.add(metric(probs, labels).hex())
        monkeypatch.undo()
        assert len(values) == 1, (probs.shape, values)


def scale_instance(n, n_classes):
    """Dirichlet rows where every fourth row from 1 is near one-hot, every
    fourth from 2 repeats a random row, and every fourth from 3 sums to
    1 +- a few ulp."""
    gen = np.random.default_rng(1000 * n + n_classes)
    probs = gen.dirichlet(np.ones(n_classes), size=n)
    probs[1::4] = gen.dirichlet(np.full(n_classes, 0.02), size=probs[1::4].shape[0])
    probs[2::4] = probs[gen.integers(0, n, size=probs[2::4].shape[0])]
    off = probs[3::4]  # a view: the ulps land in probs
    off[np.arange(off.shape[0]), off.argmax(axis=1)] += (
        gen.integers(-4, 5, size=off.shape[0]) * np.spacing(1.0))
    return probs, gen.integers(0, n_classes, size=n)


@pytest.mark.parametrize("n_classes", [2, 10, 100])
@pytest.mark.parametrize("n", [500, 3000])
class TestBlockedReferencesAtScale:
    """The kernels against their earlier blocked bodies at sizes the naive
    loops cannot reach."""

    def test_skce(self, n, n_classes):
        probs, labels = scale_instance(n, n_classes)
        assert skce(probs, labels) == pytest.approx(
            oracles.blocked_skce(probs, labels), rel=1e-12, abs=1e-15
        )

    def test_dkde_ce(self, n, n_classes):
        probs, labels = scale_instance(n, n_classes)
        assert dkde_ce(probs, labels) == pytest.approx(
            oracles.blocked_dkde_ce(probs, labels), rel=1e-12
        )

    def test_kde_ece(self, n, n_classes):
        probs, labels = scale_instance(n, n_classes)
        assert kde_ece(probs, labels) == pytest.approx(
            oracles.inplace_kde_ece(probs, labels), rel=1e-12
        )


class TestReliabilityData:
    def test_perfect_predictions_bins(self):
        probs, labels = perfect_instance()
        stats = reliability_data(probs, labels)
        nonempty = stats.counts > 0
        assert np.all(stats.accuracy[nonempty] == 1.0)
        assert np.all(stats.mean_confidence[nonempty] >= stats.lower[nonempty])

    def test_matches_ece_internal_stats(self, rng):
        probs, labels = random_instance(rng)
        stats = reliability_data(probs, labels)
        mask = stats.counts > 0
        recomputed = float(
            (stats.counts[mask] / stats.counts.sum())
            @ np.abs(stats.accuracy[mask] - stats.mean_confidence[mask])
        )
        assert recomputed == pytest.approx(ece_ew(probs, labels), abs=1e-15)

    def test_hand_four_sample_table(self):
        stats = reliability_data(FOUR_SAMPLE_PROBS, FOUR_SAMPLE_LABELS)
        occupied = np.nonzero(stats.counts)[0]
        assert list(stats.counts[occupied]) == [2, 2]
        np.testing.assert_allclose(stats.accuracy[occupied], [1.0, 0.5])
        np.testing.assert_allclose(stats.mean_confidence[occupied], [0.6, 0.9])
        assert stats.overall_confidence == pytest.approx(0.75)
        assert stats.overall_accuracy == pytest.approx(0.75)

    def test_partition_complete(self, rng):
        probs, labels = random_instance(rng)
        stats = reliability_data(probs, labels)
        assert stats.counts.sum() == len(probs)


class TestReferenceScores:
    def test_accuracy_all_correct(self):
        probs, labels = perfect_instance()
        assert accuracy(probs, labels) == 1.0

    def test_nll_uniform(self):
        probs = np.full((5, 4), 0.25)
        assert nll(probs, np.zeros(5, dtype=int)) == pytest.approx(np.log(4), rel=1e-12)

    def test_accuracy_invariant_under_monotone_maps(self, rng):
        logits = rng.normal(0, 3, (10000, 6))
        labels = rng.integers(0, 6, 10000)
        base = accuracy(softmax_rows(logits), labels)
        for family, hyper in [("ensemble_temp", 4), ("piecewise_linear", 7), ("monotonic_net", (2, 4))]:
            cal_map = init_map(family, hyper, seed=1)
            cal_map.params = cal_map.params + rng.normal(0, 0.5, cal_map.n_params)
            assert accuracy(cal_map.forward(logits).probs, labels) == base


class TestPerfectPredictionInvariant:
    def test_top_label_metrics_vanish(self):
        # one-hot correct predictions: every top-label estimator reports zero
        # (the kernel-density one keeps an O(bandwidth) smoothing bias and is
        # bounded by it instead)
        probs, labels = perfect_instance(n=60, l=4)
        assert ece_ew(probs, labels) <= 1e-9
        assert ece_em(probs, labels) <= 1e-9
        assert ece_r2(probs, labels) <= 1e-9
        assert ace(probs, labels) <= 1e-9
        assert dece(probs, labels) <= 1e-9
        assert sweep_ece(probs, labels) <= 1e-9
        assert ks(probs, labels) <= 1e-9
        assert mmce(probs, labels) <= 1e-9
        assert kde_ece(probs, labels) <= 2 * 1e-3


class TestBinsOverride:
    def test_evaluate_bins_override(self, rng):
        probs, labels = random_instance(rng, min_n=40, max_n=80)
        report = evaluate(probs, labels, ["ece_ew", "cwece_s"], bins=10)
        assert report.values["ece_ew"] == pytest.approx(
            ece_ew(probs, labels, bins=10), abs=1e-15
        )
        assert report.values["cwece_s"] == pytest.approx(
            cwece_s(probs, labels, bins=10), abs=1e-15
        )

    def test_bin_stats_csv(self, tmp_path, rng):
        probs, labels = random_instance(rng, min_n=20)
        stats = reliability_data(probs, labels)
        path = tmp_path / "bins.csv"
        stats.to_csv(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lower,upper,count,mean_confidence,accuracy"
        assert len(lines) == stats.n_bins + 2  # header + bins + overall row
        assert lines[-1].startswith("overall")


# every binned id and its documented bin count
DOCUMENTED_BINS = {mid: 14 if mid == "cwece_s" else 15 for mid in (
    "ece_ew", "ece_em", "ece_r2", "dece", "ace", "cwece_a", "cwece_s", "cwece_r2", "tcwece",
    "tcwece_k")}


class TestBinsOverrideEveryMetric:
    @pytest.fixture(scope="class")
    def instance(self):
        gen = np.random.default_rng(7)
        return gen.dirichlet(np.ones(4) * 0.7, size=150), gen.integers(0, 4, 150)

    def test_binned_ids_are_the_metrics_taking_bins(self):
        takes_bins = {mid for mid, fn in METRICS.items()
                      if "bins" in inspect.signature(fn).parameters}
        assert takes_bins == set(DOCUMENTED_BINS)
        for mid, fn in METRICS.items():
            if mid in DOCUMENTED_BINS:
                assert inspect.signature(fn).parameters["bins"].default == DOCUMENTED_BINS[mid]

    @pytest.mark.parametrize("bins", [None, 7, 30])
    @pytest.mark.parametrize("mid", sorted(METRICS))
    def test_override_reaches_exactly_the_binned_metrics(self, mid, bins, instance):
        probs, labels = instance
        value = evaluate(probs, labels, [mid], bins=bins).values[mid]
        if mid in DOCUMENTED_BINS:
            b = DOCUMENTED_BINS[mid] if bins is None else bins
            assert value == getattr(metrics_mod, mid)(probs, labels, bins=b)
        else:
            assert value == evaluate(probs, labels, [mid]).values[mid]
            assert value == float(METRICS[mid](probs, labels))

    @pytest.mark.parametrize("bins", [0, -3])
    def test_bins_below_one_rejected(self, bins, instance):
        probs, labels = instance
        with pytest.raises(ValueError, match=f"bins must be >= 1, got {bins}"):
            evaluate(probs, labels, ["ece_em", "dece"], bins=bins)
        with pytest.raises(ValueError, match=f"bins must be >= 1, got {bins}"):
            reliability_data(probs, labels, bins=bins)


# bad settings of the binned metrics, each with the message that names it
BAD_SETTINGS = {
    "dece_bins": (lambda p, y: dece(p, y, bins=101), "a bin got 1 (N=200, bins=101)"),
    "cwece_bins0": (lambda p, y: cwece_a(p, y, bins=0), "bins must be >= 1, got 0"),
    "tcwece_bins0": (lambda p, y: tcwece(p, y, bins=0), "bins must be >= 1, got 0"),
    "tcwece_k0": (lambda p, y: tcwece_k(p, y, bins=0), "bins must be >= 1, got 0"),
    "tcwece_k-1": (lambda p, y: tcwece_k(p, y, bins=-1), "bins must be >= 1, got -1"),
    "ece_bins2.5": (lambda p, y: ece_ew(p, y, bins=2.5), "bins must be an integer, got 2.5"),
    "cwece_binsTrue": (lambda p, y: cwece_a(p, y, bins=True), "bins must be an integer, got True"),
    "tcwece_k2.5": (lambda p, y: tcwece_k(p, y, bins=2.5), "bins must be an integer, got 2.5"),
    "evaluate_bins2.5": (lambda p, y: evaluate(p, y, bins=2.5),
                         "bins must be an integer, got 2.5"),
}


class TestSettingsRejectedBeforeWork:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
    def test_bad_setting_raises_before_any_work(self, case, monkeypatch):
        gen = np.random.default_rng(0)
        probs, labels = gen.dirichlet(np.ones(4), size=200), gen.integers(0, 4, 200)

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the settings were checked")

        for name in ("top_label", "one_hot", "stable_argsort", "equal_width_bin_index",
                     "kmeans_1d"):
            monkeypatch.setattr(metrics_mod, name, no_work)
        call, message = BAD_SETTINGS[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            call(probs, labels)

    def test_numpy_integer_bins_pass(self):
        gen = np.random.default_rng(0)
        probs, labels = gen.dirichlet(np.ones(4), size=200), gen.integers(0, 4, 200)
        assert ece_ew(probs, labels, bins=np.int64(10)) == ece_ew(probs, labels, bins=10)
        assert cwece_a(probs, labels, bins=np.int32(14)) == cwece_a(probs, labels, bins=14)
        assert tcwece_k(probs, labels, bins=np.int64(4)) == tcwece_k(probs, labels, bins=4)
        assert (evaluate(probs, labels, ["ece_em", "tcwece"], bins=np.int64(7)).values
                == evaluate(probs, labels, ["ece_em", "tcwece"], bins=7).values)


@st.composite
def suite_instances(draw):
    """(probs, labels) with N of 1 to 60 (1 to 3 often), L up to 200, and
    Dirichlet, near-one-hot or tied rows."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 60)))
    l = draw(st.one_of(st.integers(2, 5), st.integers(6, 200)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dirichlet", "near_one_hot", "tied"]))
    if kind == "near_one_hot":
        probs = softmax_rows(30.0 * gen.normal(size=(n, l)))
    else:
        probs = gen.dirichlet(np.ones(l), size=n)
    if kind == "tied":
        probs = probs[gen.integers(0, min(n, 2), n)]  # repeated rows tie everywhere
    return probs, gen.integers(0, l, n)


# inputs every metric must reject, each with the message that names the fault
_PROBS = np.random.default_rng(0).dirichlet(np.ones(3), size=40)
_LABELS = np.arange(40) % 3
_ONE_INF = _PROBS.copy()
_ONE_INF[7, 1] = np.inf
BAD_INPUTS = {
    "all_nan": (np.full((40, 3), np.nan), _LABELS, "non-finite entries"),
    "one_inf": (_ONE_INF, _LABELS, "non-finite entries"),
    "39_labels": (_PROBS, _LABELS[:39], r"labels shape \(39,\) does not match N=40"),
    "fractional_label": (_PROBS, np.where(np.arange(40) == 5, 1.5, _LABELS),
                         "label not a whole number at row 5: 1.5"),
    "no_rows": (np.empty((0, 3)), np.empty(0, int), r"2-D and non-empty, got \(0, 3\)"),
}
GATED = {**METRICS, "reliability_data": reliability_data}


class TestInputGate:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    @pytest.mark.parametrize("mid", sorted(GATED))
    def test_direct_call_rejects_bad_input(self, mid, case):
        probs, labels, message = BAD_INPUTS[case]
        with pytest.raises(ValueError, match=message):
            GATED[mid](probs, labels)

    @pytest.mark.parametrize("mid", sorted(METRICS))
    def test_whole_valued_float_labels_score_as_ints(self, mid):
        assert (float(METRICS[mid](_PROBS, _LABELS.astype(np.float64))).hex()
                == float(METRICS[mid](_PROBS, _LABELS)).hex())


class TestRegistryAndReport:
    def test_each_id_is_the_function_of_that_name(self):
        assert list(METRICS) == [
            "ece_ew", "ece_em", "ece_r2", "dece", "ace", "sweep_ece", "sweep_ece_r2", "ks",
            "mmce", "kde_ece", "cwece_a", "cwece_s", "cwece_r2", "tcwece", "tcwece_k",
            "dkde_ce", "skce", "nll", "accuracy"]
        for mid, fn in METRICS.items():
            assert fn is getattr(metrics_mod, mid)

    def test_all_metrics_finite_on_random_input(self, rng):
        gen = np.random.default_rng(0)
        probs = gen.dirichlet(np.ones(4), size=120)
        labels = gen.integers(0, 4, 120)
        report = evaluate(probs, labels)
        assert set(report.values) == set(METRICS)
        for name, value in report.values.items():
            assert np.isfinite(value), name
            if name != "skce":  # unbiased estimator is signed by design
                assert value >= 0, name

    def test_report_csv_round_trip(self, tmp_path, rng):
        probs, labels = random_instance(rng, min_n=31, max_n=60)
        report = evaluate(probs, labels, ["ece_ew", "cwece_a", "skce"])
        path = tmp_path / "report.csv"
        report.to_csv(path)
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["metric", "value"]
        assert {name: float(value) for name, value in rows[1:]} == report.values

    def test_unknown_metric_rejected(self, rng):
        probs, labels = random_instance(rng)
        with pytest.raises(ValueError, match="unknown metric"):
            evaluate(probs, labels, ["not_a_metric"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected_before_any_metric(self, bad, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a metric ran on a non-finite matrix")

        for mid in ("ece_ew", "skce"):
            monkeypatch.setitem(metrics_mod.METRICS, mid, no_work)
        probs = np.full((5, 3), 1 / 3)
        probs[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            evaluate(probs, np.zeros(5, int), ["ece_ew", "skce"])
        with pytest.raises(ValueError, match="non-finite entries"):
            evaluate(np.full((5, 3), np.nan), np.zeros(5, int), ["ece_ew", "skce"])

    def test_unknown_id_rejected_before_any_metric(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a metric ran before every id was resolved")

        monkeypatch.setitem(metrics_mod.METRICS, "ece_ew", no_work)
        probs, labels = random_instance(np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown metric 'bogus'"):
            evaluate(probs, labels, ["ece_ew", "bogus"])

    def test_shared_arrays_built_once_per_evaluate(self, monkeypatch):
        gen = np.random.default_rng(0)
        probs, labels = gen.dirichlet(np.ones(4), size=200), gen.integers(0, 4, 200)
        calls = {}
        for name in ("top_label", "stable_argsort", "one_hot"):
            def counted(*args, _fn=getattr(metrics_mod, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(metrics_mod, name, counted)
        evaluate(probs, labels)
        assert calls == {"top_label": 1, "stable_argsort": 1, "one_hot": 1}

    @settings(max_examples=25, deadline=None)
    @given(instance=suite_instances())
    def test_evaluate_equals_direct_calls_in_any_order(self, instance):
        # a metric that wrote into a shared array would change the ids after it
        probs, labels = instance
        direct = {}
        for mid, fn in METRICS.items():
            try:
                direct[mid] = float(fn(probs.copy(), labels.copy())).hex()
            except ValueError:  # too few samples for dece, skce or dkde_ce
                pass
        for ids in (list(direct), list(direct)[::-1]):
            values = evaluate(probs, labels, ids).values
            assert {mid: float(v).hex() for mid, v in values.items()} == direct

    def test_label_out_of_range_rejected(self):
        # skce, cwece_a and dkde_ce would otherwise score a label 7 of 2 classes
        with pytest.raises(ValueError, match=r"label out of range at row 2: 7 not in \[0, 2\)"):
            evaluate(np.full((3, 2), 0.5), np.array([0, 1, 7]), ["skce", "cwece_a", "dkde_ce"])
