"""Tests of the benchmark's own machinery: the span recorder, the layer
wrappers and the correctness checks.

    python3 -m pytest perfbench -q
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import layers
import pipeline
from spans import Recorder

SMALL = pipeline.Workload(
    "small", n_train=300, n_test=300, n_classes=5,
    grid=(("ensemble_temp", 2), ("piecewise_linear", 3), ("monotonic_net", (2, 2))),
    epochs=2, metric_ids=None, input_map=None, step_s=(0.0, 0.0),
)


def _round(files, model_path):
    train, test = pipeline.load_inputs(files)
    reports = pipeline.fit(SMALL, train, 7, model_path)
    probs = pipeline.apply(model_path, test)
    return reports, probs, pipeline.score(SMALL, probs, test), model_path.read_bytes()


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    return pipeline.make_inputs(SMALL, 7, tmp_path_factory.mktemp("small"))


def test_wrapped_calls_are_bit_identical(small_files):
    plain = _round(small_files, small_files.train.parent / "plain.hcal")
    recorder = Recorder()
    with pytest.warns(UserWarning, match="outside the standard grid"):
        with layers.traced(recorder):
            wrapped = _round(small_files, small_files.train.parent / "wrapped.hcal")
    assert [r.selector_value for r in plain[0]] == [r.selector_value for r in wrapped[0]]
    assert np.array_equal(plain[1], wrapped[1])
    assert plain[2] == wrapped[2]
    assert plain[3] == wrapped[3]
    names = {s.name for s in recorder.spans}
    for expected in ("loss.kmeans_1d", "metrics.skce", "maps.monotonic_net.backward",
                     "optim.adam_step", "maps.save_map", "dataset.load_dataset"):
        assert expected in names


def test_originals_restored_after_tracing():
    before = [getattr(owner, attr) for owner, attr, _ in layers.FUNCTIONS]
    registry = dict(pipeline.metrics.METRICS)
    with layers.traced(Recorder()):
        assert pipeline.metrics.METRICS["skce"] is not registry["skce"]
    assert [getattr(owner, attr) for owner, attr, _ in layers.FUNCTIONS] == before
    assert pipeline.metrics.METRICS == registry


def test_self_plus_children_equals_parent():
    rec = Recorder()
    leaf = rec.wrap("leaf", lambda: sum(range(2000)))
    mid = rec.wrap("mid", lambda: [leaf() for _ in range(3)])
    top = rec.wrap("top", lambda: (mid(), leaf(), mid()))
    top()
    selfs = rec.self_times_ns()
    for i, span in enumerate(rec.spans):
        children = [c.duration_ns for c in rec.spans if c.parent == i]
        assert selfs[i] >= 0
        assert selfs[i] + sum(children) == span.duration_ns
    assert [s.name for s in rec.spans].count("leaf") == 7
    assert list(rec.ancestors(2)) == ["mid", "top"]


def test_layer_metrics_counts(small_files):
    recorder = Recorder()
    checks = pipeline.Checks(None)
    wl = replace(SMALL, grid=(("ensemble_temp", 16),), epochs=3)
    with layers.traced(recorder):
        reports, _ = pipeline.run_round(wl, 7, small_files, checks)
    out = layers.layer_metrics(recorder, 1, sum(r.epochs_run for r in reports), len(reports))
    assert checks.attempted > 0 and not checks.failed
    assert out["computed.loss.events_per_call"] == SMALL.n_train * SMALL.n_classes
    assert out["computed.maps.forward_calls_per_epoch"] == 2  # train plus monitor
    assert out["computed.maps.backward_calls_per_epoch"] == 1
    assert out["computed.optim.epochs_per_candidate"] == 3
    assert out["loss.hcal_loss.calls"] == 3
    assert out["computed.metrics.skce_pairs"] == SMALL.n_test * (SMALL.n_test - 1) / 2
    assert out["computed.metrics.dkde_ce_temp_bytes"] == 8 * SMALL.n_test ** 2
    assert out["loss.kmeans_weights_ms"] >= out["loss.kmeans_1d_ms"] > 0
    assert out["metrics.tcwece_k.kmeans_1d_ms"] > 0


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    emitted = list(layers.layer_metrics(Recorder(), 1, 0, 0)) + ["trace_overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == emitted


def test_checks_count_failures():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(50, 4))
    test = pipeline.dataset.LogitDataset(logits, rng.integers(0, 4, 50))
    good = pipeline.dataset.softmax_rows(logits)
    checks = pipeline.Checks({"selector_values": [0.1, 0.2], "values": {"ece_ew": 0.5}})
    checks.apply(good, test)
    assert (checks.attempted, checks.failed) == (2, [])
    checks.apply(good[:, ::-1], test)  # argmax moved
    checks.apply(good * 1.1, test)  # rows no longer sum to one
    checks.score({"ece_ew": 0.5 * (1 + 1e-6)})  # off the reference
    assert checks.attempted == 8
    assert len(checks.failed) == 3


def test_checks_catch_a_changed_fit():
    def report(value):
        return pipeline.optim.CandidateReport("ensemble_temp", (2,), value, 2, 1, 0.0)

    checks = pipeline.Checks({"selector_values": [0.1, 0.2], "values": {}}, pipeline.FIT_RTOL)
    checks.fit([report(0.1), report(0.2 * (1 + 1e-7))])  # within FIT_RTOL
    assert (checks.attempted, checks.failed) == (5, [])
    checks.fit([report(0.1), report(0.2 * 1.01)])  # the fit learned something else
    checks.fit([report(0.1)])  # a candidate went missing
    assert len(checks.failed) == 2
    checks.score({"ece_ew": 0.3})  # values of a fitted map, no longer in the reference
    assert len(checks.failed) == 3


def test_references_cover_every_workload_and_shipped_seed():
    doc = json.loads(pipeline.REFERENCE_FILE.read_text(encoding="utf-8"))
    assert (doc["rtol"], doc["fit_rtol"], doc["atol"]) == (
        pipeline.REFERENCE_RTOL, pipeline.FIT_RTOL, pipeline.REFERENCE_ATOL)
    assert list(doc["workloads"]) == list(pipeline.WORKLOADS)
    for name, per_seed in doc["workloads"].items():
        wl = pipeline.WORKLOADS[name]
        assert list(per_seed) == [str(seed) for seed in range(32)]
        ids = list(wl.metric_ids) if wl.metric_ids is not None else list(pipeline.metrics.METRICS)
        for ref in per_seed.values():
            assert len(ref["selector_values"]) == len(wl.grid)
            assert list(ref["values"]) == ids
