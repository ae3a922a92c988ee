"""Span wrappers around the public functions of each ``hcal`` module, and
the per-layer metrics computed from the recorded spans.

Only the benchmark's own process is patched, and only while
:func:`traced` is active; ``src/hcal`` is not modified.  Each function is
replaced in the module whose global name its callers look up at call time
(``select_model`` calls ``optim.train_one``, ``hcal_loss`` calls
``loss.build_windows``, ``evaluate`` and the trainer fetch metrics from
``metrics.METRICS``), so every internal call is recorded too.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager

import pipeline
from pipeline import maps, metrics

LAYERS = ("cli", "dataset", "maps", "loss", "optim", "metrics")
FAMILIES = {
    "ensemble_temp": maps.EnsembleTempMap,
    "piecewise_linear": maps.PiecewiseLinearMap,
    "monotonic_net": maps.MonotonicNetMap,
}
# (module, attribute, span name)
FUNCTIONS = (
    (pipeline, "load_inputs", "cli.load"),
    (pipeline, "fit", "cli.train"),
    (pipeline, "apply", "cli.apply"),
    (pipeline, "score", "cli.eval"),
    (pipeline.dataset, "load_dataset", "dataset.load_dataset"),
    (maps, "load_map", "maps.load_map"),
    (maps, "save_map", "maps.save_map"),
    (pipeline.loss, "hcal_loss", "loss.hcal_loss"),
    (pipeline.loss, "build_windows", "loss.build_windows"),
    (pipeline.loss, "kmeans_weights", "loss.kmeans_weights"),
    (pipeline.loss, "kmeans_1d", "loss.kmeans_1d"),
    # tcwece_k reaches the same k-means through its own import
    (metrics, "kmeans_1d", "loss.kmeans_1d"),
    (pipeline.optim, "select_model", "optim.select_model"),
    (pipeline.optim, "train_one", "optim.train_one"),
    (pipeline.optim, "adam_step", "optim.adam_step"),
    (metrics, "evaluate", "metrics.evaluate"),
) + tuple(
    (cls, method, f"maps.{family}.{method}")
    for family, cls in FAMILIES.items()
    for method in ("forward", "backward")
)


@contextmanager
def traced(recorder):
    """Record a span for every call of the wrapped functions and of every
    metric in the registry; restore the originals on exit."""
    originals = []
    registry = dict(metrics.METRICS)
    try:
        for owner, attr, name in FUNCTIONS:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, recorder.wrap(name, fn))
        for mid, fn in registry.items():
            metrics.METRICS[mid] = recorder.wrap(f"metrics.{mid}", fn)
        yield recorder
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
        metrics.METRICS.update(registry)


def layer_metrics(recorder, n_rounds: int, epochs_per_round: int,
                  candidates_per_round: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_rounds`` traced rounds.

    Timings are medians per call; ``.calls`` and ``.busy_s`` are per round
    (busy = summed self time).  ``computed.*`` counts are derived from the
    call counts and the array shapes the spans saw, and repeat exactly.
    """
    spans = recorder.spans
    selfs = recorder.self_times_ns()
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def median(name, scale, self_time=False, parent=None):
        idx = [i for i in by_name.get(name, [])
               if parent is None or spans[spans[i].parent].name == parent]
        if not idx:
            return 0.0
        return statistics.median(
            (selfs[i] if self_time else spans[i].duration_ns) for i in idx) / scale

    def per_round(count):
        return count / n_rounds

    out = {
        "dataset.load_dataset_ms": median("dataset.load_dataset", 1e6),
        "maps.load_map_ms": median("maps.load_map", 1e6),
        "maps.save_map_ms": median("maps.save_map", 1e6),
    }
    for family in FAMILIES:
        for method in ("forward", "backward"):
            out[f"maps.{family}.{method}_ms"] = median(f"maps.{family}.{method}", 1e6)
    out.update({
        "loss.hcal_loss_ms": median("loss.hcal_loss", 1e6),
        "loss.hcal_loss.self_ms": median("loss.hcal_loss", 1e6, self_time=True),
        "loss.build_windows_ms": median("loss.build_windows", 1e6),
        "loss.kmeans_weights_ms": median("loss.kmeans_weights", 1e6),
        # k-means serves the loss (sorted window centroids) and tcwece_k
        # (unsorted class probabilities); a fast path for one must not slow
        # the other, so each caller gets its own timing
        "loss.kmeans_1d_ms": median("loss.kmeans_1d", 1e6, parent="loss.kmeans_weights"),
        "metrics.tcwece_k.kmeans_1d_ms": median("loss.kmeans_1d", 1e6, parent="metrics.tcwece_k"),
        "optim.select_model_s": median("optim.select_model", 1e9),
        "optim.train_one_ms": median("optim.train_one", 1e6),
        "optim.train_one.self_ms": median("optim.train_one", 1e6, self_time=True),
        "optim.adam_step_us": median("optim.adam_step", 1e3),
        "metrics.evaluate_s": median("metrics.evaluate", 1e9),
    })
    for mid in metrics.METRICS:
        out[f"metrics.{mid}_ms"] = median(f"metrics.{mid}", 1e6)

    in_training = [
        i for i, span in enumerate(spans)
        if "optim.train_one" in recorder.ancestors(i)
    ]

    def training_calls_per_epoch(suffix):
        calls = sum(1 for i in in_training if spans[i].name.endswith(suffix))
        return per_round(calls) / (epochs_per_round or 1)

    out.update({
        "loss.hcal_loss.calls": per_round(len(by_name.get("loss.hcal_loss", []))),
        "maps.forward.calls": per_round(sum(
            len(by_name.get(f"maps.{f}.forward", [])) for f in FAMILIES)),
        "maps.backward.calls": per_round(sum(
            len(by_name.get(f"maps.{f}.backward", [])) for f in FAMILIES)),
        "optim.adam_step.calls": per_round(len(by_name.get("optim.adam_step", []))),
        "optim.epochs": float(epochs_per_round),
    })
    for layer in LAYERS:
        mine = [i for i, span in enumerate(spans) if span.name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = per_round(len(mine))
        out[f"{layer}.busy_s"] = per_round(sum(selfs[i] for i in mine) / 1e9)

    def shape_of(name):
        idx = by_name.get(name, [])
        return spans[idx[0]].shape if idx else (0, 0)

    n_loss, l_loss = shape_of("loss.hcal_loss")
    n_skce = shape_of("metrics.skce")[0]
    n_mmce = shape_of("metrics.mmce")[0]
    n_dkde = shape_of("metrics.dkde_ce")[0]
    out.update({
        "computed.loss.events_per_call": float(n_loss * l_loss),
        "computed.maps.forward_calls_per_epoch": training_calls_per_epoch(".forward"),
        "computed.maps.backward_calls_per_epoch": training_calls_per_epoch(".backward"),
        "computed.loss.calls_per_epoch": training_calls_per_epoch("loss.hcal_loss"),
        "computed.optim.epochs_per_candidate": epochs_per_round / max(candidates_per_round, 1),
        "computed.metrics.skce_pairs": float(n_skce * (n_skce - 1) // 2),
        "computed.metrics.mmce_pairs": float(n_mmce * n_mmce),
        "computed.metrics.dkde_ce_temp_bytes": float(8 * n_dkde * n_dkde),
    })
    return out
