"""The benchmark's span hooks still reach the functions they name.

``perfbench/layers.py`` wraps ``hcal`` functions by module attribute and
relies on callers looking them up through their module globals.  A renamed
function, or a call that bypasses the module global, would silently drop a
layer metric; these checks catch that with the rest of the suite.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from spans import Recorder  # noqa: E402

from hcal import loss  # noqa: E402


def test_every_wrapped_function_resolves():
    for owner, attr, name in layers.FUNCTIONS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner}.{attr} is gone"


def test_traced_loss_records_its_phases(rng):
    probs = rng.dirichlet(np.ones(4), size=30)
    labels = rng.integers(0, 4, size=30)
    original = loss.hcal_loss
    recorder = Recorder()
    with layers.traced(recorder):
        loss.hcal_loss(probs, labels, loss.HCalConfig(window=5, clusters=3))
    assert loss.hcal_loss is original
    parent_of = {span.name: recorder.spans[span.parent].name if span.parent >= 0 else None
                 for span in recorder.spans}
    assert parent_of == {
        "loss.hcal_loss": None,
        "loss.build_windows": "loss.hcal_loss",
        "loss.kmeans_weights": "loss.hcal_loss",
        "loss.kmeans_1d": "loss.kmeans_weights",
    }
