"""hcal benchmark: end-to-end and per-layer metrics of the train/eval path.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, seed 1
    python3 perfbench/run.py --workload recal-L10 --seed 3 --seconds 20 --trace 0

Each workload runs in its own process as a closed loop with one caller and
one BLAS thread.  Its inputs are generated from ``--seed`` by
``hcal.synthetic`` and written as CSV datasets (plus, for grid-L100 and
eval-L10, a saved map) under ``perfbench/_work``.  The benchmark then makes
the public calls ``hcal train`` and ``hcal eval`` make (``load_dataset``,
``select_model``, ``save_map``, ``load_map``, ``forward``, ``evaluate``)
and checks every output.

``--trace 0`` runs rounds of one cold set-up in a fresh interpreter, one
fit, and repeated apply and eval steps until ``--seconds`` have passed, and
reports medians of the end-to-end metrics declared in ``BENCHMARK.json``
(of eval_s, when sampled at least 100 times, the 10th percentile).
``--trace 1`` alternates untraced and traced rounds for ``--seconds``,
records a span around every public function of every layer in the traced
rounds, and reports the per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
# must be set before numpy is first imported, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
MIN_ROUNDS = 3  # whatever --seconds says, so every statistic has 3 samples
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload name (default: every workload)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="measuring time per run; the "
                   "benchmark's command line passes run_seconds of BENCHMARK.json, "
                   "which is also the default")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


# -- one workload, in this process --


def run_workload(args, spec) -> int:
    import pipeline  # exits when the checkout has no src/hcal

    wl = pipeline.WORKLOADS.get(args.workload)
    if wl is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(pipeline.WORKLOADS)}")
    files = pipeline.make_inputs(wl, args.seed, WORK / f"{wl.name}-s{args.seed}")
    references = load_references(pipeline, wl.name)
    checks = pipeline.Checks(references.get(str(args.seed)), wl.values_rtol)

    if args.trace:
        values = traced_run(pipeline, wl, args, files, checks)
        declared = spec["per_layer"]
    else:
        values = untraced_run(pipeline, wl, args, files, checks)
        declared = spec["end_to_end"]
    pipeline.check_fitted(files, checks)
    if checks.reference is None:
        # no recorded reference for this seed: check one round on a shipped one
        ref_seed = min(references, key=int)
        checks.reference = references[ref_seed]
        ref_files = pipeline.make_inputs(wl, int(ref_seed), WORK / f"{wl.name}-s{ref_seed}")
        pipeline.run_round(wl, int(ref_seed), ref_files, checks)

    result = {
        "correct": checks.attempted > 0 and not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(provenance(spec, wl.name, args.seed)))
    for m in declared:
        print(f"  {m['name']:<44} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  checks: {len(checks.failed)} failed of {checks.attempted} attempted")
    for what in sorted(set(checks.failed)):
        print(f"  FAILED: {what}")
    print(json.dumps(result))
    return 0


def load_references(pipeline, workload: str) -> dict:
    """The workload's recorded selector and metric values per shipped seed."""
    doc = json.loads(pipeline.REFERENCE_FILE.read_text(encoding="utf-8"))
    return doc["workloads"][workload]


def setup_probe(files) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *map(str, files.inputs)],
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(out.stdout.strip().splitlines()[-1])


def untraced_run(pipeline, wl, args, files, checks) -> dict[str, float]:
    """Rounds of: one cold set-up, one fit, then apply and eval repeated for
    their per-round time.  Interleaving spreads every metric's samples over
    the whole run, so a drift in machine speed moves them all alike."""
    train, test = pipeline.load_inputs(files)
    times = {"setup_s": [], "fit_s": [], "apply_s": [], "eval_s": []}

    def timed(key, fn):
        start = time.perf_counter()
        out = fn()
        times[key].append(time.perf_counter() - start)
        return out

    apply_s, eval_s = wl.step_s
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        times["setup_s"].append(setup_probe(files))
        checks.fit(timed("fit_s", lambda: pipeline.fit(wl, train, args.seed, files.fitted_map)))
        step_end = time.perf_counter() + apply_s
        while True:
            probs = timed("apply_s", lambda: pipeline.apply(files.applied_map, test))
            checks.apply(probs, test)
            if time.perf_counter() >= step_end:
                break
        step_end = time.perf_counter() + eval_s
        while True:
            values = timed("eval_s", lambda: pipeline.score(wl, probs, test))
            checks.score(values)
            if time.perf_counter() >= step_end:
                break
        rounds += 1
    out = {key: statistics.median(samples) for key, samples in times.items()}
    # On the training workloads evaluate is a call of 0.5-2 ms over a 1 MB
    # matrix, sampled thousands of times.  On a shared host, episodes of
    # cache and memory contention lasting seconds slow such a call by up to
    # half, and the median then follows how much of the run they covered.
    # The 10th percentile follows the call itself; a slower evaluate moves
    # it as much as the median.  It needs ten samples below it, so a run
    # with fewer than 100 (eval-L10's full suite) keeps the median.
    if len(times["eval_s"]) >= 100:
        out["eval_s"] = statistics.quantiles(times["eval_s"], n=10)[0]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["cal_ece_ew"] = values["ece_ew"]
    return out


def traced_run(pipeline, wl, args, files, checks) -> dict[str, float]:
    import layers
    from spans import Recorder

    recorder = Recorder()
    walls = {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        # alternate which side goes first so warm-up favours neither
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            start = time.perf_counter()
            if traced:
                recorder.round = rounds
                with layers.traced(recorder):
                    reports, _ = pipeline.run_round(wl, args.seed, files, checks)
            else:
                pipeline.run_round(wl, args.seed, files, checks)
            walls[traced].append(time.perf_counter() - start)
        rounds += 1
    recorder.write_jsonl(files.train.parent / "spans.jsonl")
    values = layers.layer_metrics(
        recorder, rounds, sum(r.epochs_run for r in reports), len(reports))
    values["trace_overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
    return values


def provenance(spec, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "hcal"
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": workload,
        "why": why.get(workload, ""),
        "seed": seed,
        "commit": git_commit(),
        "src_hcal_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                              for p in sorted(src.glob("*.py"))),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown".
    The ceiling keeps git from looking for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# -- every workload, each in its own process --


def run_all(args, spec) -> int:
    results = {}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {wl['name']} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[wl["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])

    print()
    print(f"{'metric':<44} {'unit':<8}" + "".join(f"{w:>14}" for w in results))
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        row = "".join(f"{r['metrics'][m['name']]['value']:>14.6g}" for r in results.values())
        print(f"{m['name']:<44} {m['unit']:<8}{row}")
    print(f"{'failed/attempted':<53}" + "".join(
        f"{str(r['failed']) + '/' + str(r['attempted']):>14}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
