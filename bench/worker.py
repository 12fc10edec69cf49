"""One benchmark child process: set up a workload, then run timed passes.

Started by ``run.py`` with the checkout root as working directory.  Prints
one JSON object on its last stdout line.  Modes:

* ``setup`` - import, build inputs, warm up, report set-up timings, exit;
* ``run``   - set up, then closed-loop passes for ``--seconds``;
* ``trace`` - set up, untraced passes for half of ``--seconds``, then the
  tracer is installed and traced passes run for the other half.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
MIN_PASSES = {"full": 3, "tiny": 1}  # fewest timed passes per run, by input scale


def feed(h, value):
    """Hash a payload deterministically: exact float bits, array shapes."""
    import numpy as np

    if value is None or isinstance(value, (bool, int, str)):
        h.update(f"{type(value).__name__}:{value};".encode())
    elif isinstance(value, float):
        h.update(f"f:{value.hex()};".encode())
    elif isinstance(value, (tuple, list)):
        h.update(f"seq{len(value)}(".encode())
        for item in value:
            feed(h, item)
        h.update(b")")
    else:
        arr = np.ascontiguousarray(value)
        h.update(f"a:{arr.dtype.str}{arr.shape};".encode())
        h.update(arr.tobytes())


def run_pass(ops, tracer=None):
    """Run every operation once; a failure is an exception or a missed gate."""
    h = hashlib.sha256()
    failures = {}  # operation name -> failed count
    errors = {}  # operation name -> first exception message
    for op in ops:
        try:
            if tracer is None:
                passed, payload = op.run()
            else:
                with tracer.span(f"bench.{op.name}"):
                    passed, payload = op.run()
        except Exception as exc:  # counted and reported, the loop keeps running
            passed, payload = False, type(exc).__name__
            errors.setdefault(op.name, f"{type(exc).__name__}: {exc}")
        if not passed:
            failures[op.name] = failures.get(op.name, 0) + 1
        h.update(op.name.encode())
        feed(h, bool(passed))
        feed(h, payload)
    return {"failed": sum(failures.values()), "attempted": len(ops), "digest": h.hexdigest(),
            "failures": failures, "errors": errors}


def passed_share(ops, passes):
    """Mean over operation names of the share of that name's runs that
    passed, so a whole family failing moves it by one over the family count
    however many operations the family has."""
    attempted = Counter(op.name for op in ops)
    failed = Counter()
    for result in passes:
        failed.update(result["failures"])
    return statistics.fmean(1.0 - failed[name] / (count * len(passes))
                            for name, count in attempted.items())


def timed_passes(ops, seconds, min_passes, tracer=None):
    """Closed loop: the next pass starts when the previous one returns."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        w0, c0 = time.perf_counter(), time.process_time()
        result = run_pass(ops, tracer)
        result["wall_s"] = time.perf_counter() - w0
        result["cpu_s"] = time.process_time() - c0
        passes.append(result)
        if tracer is not None:
            tracer.keep_spans = False  # spans of the first traced pass only
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import hessiankit
    from hessiankit import barrier, cli, core, geometry, modulus, radial  # noqa: F401

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(hessiankit.__file__)) != os.path.join(SRC, "hessiankit"):
        sys.stderr.write(f"hessiankit imported from {hessiankit.__file__}, not from the checkout\n")
        return 2

    sys.path.insert(0, BENCH_DIR)
    import workloads

    t1 = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, args.scale, args.workdir)
    inputs_s = time.perf_counter() - t1
    workload.warmup()
    ready = time.monotonic()

    import numpy
    import scipy

    out = {
        "ready": ready,
        "import_s": import_s,
        "inputs_s": inputs_s,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.mode != "setup":
        ops = workload.ops
        min_passes = MIN_PASSES[args.scale]
        if args.mode == "run":
            passes = timed_passes(ops, args.seconds, min_passes)
            traced = []
        else:
            import tracing

            half = max(min_passes - 1, 1)
            passes = timed_passes(ops, args.seconds / 2, half)
            tracer = tracing.Tracer()
            tracer.install()
            traced = timed_passes(ops, args.seconds / 2, half, tracer)
            tracer.uninstall()
            out["layers"] = tracing.layer_metrics(tracer, len(traced))
            out["layer_shares"] = tracing.layer_shares(tracer)
            out["span_calls"] = {k: v.calls for k, v in tracer.stats.items()}
            spans_path = os.path.join(args.workdir, "spans.jsonl")
            tracer.write_spans(spans_path)
            out["spans_file"] = os.path.relpath(spans_path, ROOT)
            out["traced_wall_s"] = [p["wall_s"] for p in traced]
            out["stressed"] = list(workloads.STRESSED[args.workload])
            out["required_spans"] = list(workloads.REQUIRED_SPANS[args.workload])
        everything = passes + traced
        out["wall_s"] = [p["wall_s"] for p in passes]
        out["cpu_s"] = [p["cpu_s"] for p in passes]
        out["digests"] = sorted({p["digest"] for p in everything})
        out["attempted"] = sum(p["attempted"] for p in everything)
        out["failed"] = sum(p["failed"] for p in everything)
        out["passed_share"] = passed_share(ops, everything)
        out["failures"] = everything[0]["failures"]
        out["errors"] = everything[0]["errors"]
        out["passes"] = len(passes)
        out["findings"] = workload.findings()
    # ru_maxrss is in KiB on Linux
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
