"""Record, for every workload and shipped seed, what the current code
computes: each candidate's selector value after the fit, and the metric
values of the applied map.  Every later run checks its own values against
these.

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to alter what a fit learns or what a
metric computes, and say so in that change.
"""

import json
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pipeline  # noqa: E402

SEEDS = range(32)


def main() -> None:
    doc = {"rtol": pipeline.REFERENCE_RTOL, "fit_rtol": pipeline.FIT_RTOL,
           "atol": pipeline.REFERENCE_ATOL, "workloads": {}}
    for wl in pipeline.WORKLOADS.values():
        per_seed = doc["workloads"][wl.name] = {}
        for seed in SEEDS:
            files = pipeline.make_inputs(wl, seed, pipeline.ROOT / "perfbench" / "_work" / f"{wl.name}-s{seed}")
            checks = pipeline.Checks(None)
            reports, values = pipeline.run_round(wl, seed, files, checks)
            if checks.failed:
                raise SystemExit(f"error: {wl.name} seed {seed}: {checks.failed}")
            per_seed[str(seed)] = {
                "selector_values": [rep.selector_value for rep in reports],
                "values": values,
            }
            print(wl.name, seed, values["ece_ew"], flush=True)
    pipeline.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
