"""The benchmark's recorded references, checked in the unit suite: seed 0 of
every benchmark workload runs through the benchmark's own pipeline, and each
fit, calibrated output and metric value must match ``perfbench/reference.json``
within the benchmark's tolerances.  A change to what a metric computes or
what a fit learns fails here, not only in a benchmark run."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import pipeline  # noqa: E402


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_seed_zero_matches_references(name, tmp_path):
    wl = pipeline.WORKLOADS[name]
    doc = json.loads(pipeline.REFERENCE_FILE.read_text(encoding="utf-8"))
    checks = pipeline.Checks(doc["workloads"][name]["0"], wl.values_rtol)
    files = pipeline.make_inputs(wl, 0, tmp_path)
    pipeline.run_round(wl, 0, files, checks)
    pipeline.check_fitted(files, checks)
    assert checks.attempted > 0
    assert checks.failed == []
