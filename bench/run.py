"""hessiankit benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload cone --seed 1 --seconds 25 --trace 0

Run from anywhere; it works on the checkout that contains this file and
imports the package from its ``src/`` directory.  Each workload runs in a
fresh child process (``worker.py``) with one single-threaded closed loop.
With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``; set-up is repeated in extra children and its median
reported.  With ``--trace 1`` one child runs untraced passes, installs the
tracer and runs traced passes, and the per-layer metrics are reported.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it list every metric with its unit and the run's facts.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cone", "barrier", "modulus", "radial")
# set-ups per trace-0 run, by input scale; setup_s is their median
SETUP_RUNS = {"full": 3, "tiny": 1}
RUN_BUDGET_S = 170.0  # a run must end within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
COMPUTED = (  # work counts derived from array sizes, not measured
    "geometry.*.points", "barrier.*.point_barriers", "modulus.estimate_modulus.*.pairs",
    "radial.radial_solve.panels",
)


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode, deadline):
    workdir = os.path.join(".bench_out", f"{args.workload}-{args.seed}-{args.scale}")
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--seconds", str(args.seconds), "--mode", mode, "--workdir", workdir,
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{mode} child exceeded the run budget") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{mode} child exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # both clocks are CLOCK_MONOTONIC, shared by every process on the host
    out["setup_s"] = out["ready"] - start
    return out


def src_lines():
    counts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hessiankit", "*.py"))):
        with open(path) as fh:
            counts[os.path.basename(path)[:-3]] = sum(1 for _ in fh)
    return counts


def end_to_end(setups, main):
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(main["wall_s"]),
        "cpu_s": statistics.median(main["cpu_s"]),
        "peak_rss_mb": main["maxrss_kb"] / 1024.0,
        "passed_share": main["passed_share"],
    }


def per_layer(main):
    values = dict(main["layers"])
    values["setup.import_s"] = main["import_s"]
    values["setup.inputs_s"] = main["inputs_s"]
    values["trace.overhead_s"] = statistics.median(main["traced_wall_s"]) - statistics.median(main["wall_s"])
    return values


def self_check(main):
    """Problems that make the run incorrect, as messages."""
    problems = []
    if main["failed"]:
        problems.append(f"{main['failed']} operations failed: {main['failures']} {main['errors']}")
    if len(main["digests"]) != 1:
        problems.append(f"passes disagree on the output digest: {main['digests']}")
    calls = main.get("span_calls", {})
    for layer in main.get("stressed", ()):
        if not any(v for k, v in calls.items() if k.startswith(layer + ".")):
            problems.append(f"traced run recorded no calls on the {layer} layer")
    for name in main.get("required_spans", ()):
        if calls.get(name, 0) == 0:
            problems.append(f"traced run recorded no calls of {name}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SETUP_RUNS), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "hessiankit", "__init__.py")):
        sys.stderr.write(f"no hessiankit sources under {ROOT}/src\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    try:
        if args.trace:
            main_run = run_child(args, "trace", deadline)
            values = per_layer(main_run)
            wanted = spec["per_layer"]
        else:
            setups = [run_child(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_RUNS[args.scale] - 1)]
            main_run = run_child(args, "run", deadline)
            setups.append(main_run["setup_s"])
            values = end_to_end(setups, main_run)
            wanted = spec["end_to_end"]
    except ChildFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 3

    problems = self_check(main_run)
    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {entry['name']} was not measured")
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "passes": main_run["passes"],
        "digest": main_run["digests"][0], "pass_wall_s": main_run["wall_s"],
        "failures": main_run["failures"], "errors": main_run["errors"],
        "findings": main_run["findings"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": main_run["numpy"],
        "scipy": main_run["scipy"], "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "src_lines": src_lines(),
    }
    if args.trace:
        facts["layer_shares"] = main_run["layer_shares"]
        facts["spans_file"] = main_run["spans_file"]
        facts["computed_counts"] = COMPUTED
    else:
        facts["setup_s_samples"] = setups

    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print("facts " + json.dumps(facts, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
