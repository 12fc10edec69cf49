"""Smoke test of the benchmark itself: every workload at the tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks that each run emits exactly the metric names and units listed in
BENCHMARK.json, that failures and the per-family pass share are computed
from attempted operations,
that the benchmark refuses to run without the package sources, and that
the tracer reaches functions bound by name in other modules.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, *args):
    cmd = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted(workload, trace, section):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:
        share = result["metrics"]["passed_share"]["value"]
        assert (share == 1.0) == (result["failed"] == 0)


def test_failures_counted_against_attempted():
    ops = [
        types.SimpleNamespace(name="ok", run=lambda: (True, 1.0)),
        types.SimpleNamespace(name="gate", run=lambda: (False, 2.0)),
        types.SimpleNamespace(name="raises", run=lambda: 1 / 0),
    ]
    result = worker.run_pass(ops)
    assert result["attempted"] == 3
    assert result["failed"] == 2
    assert result["failures"] == {"gate": 1, "raises": 1}
    assert result["errors"]["raises"].startswith("ZeroDivisionError")


def test_passed_share_weighs_families_equally():
    ops = [types.SimpleNamespace(name="many", run=lambda: (True, 0.0)) for _ in range(99)]
    ops.append(types.SimpleNamespace(name="one", run=lambda: (False, 0.0)))
    passes = [worker.run_pass(ops), worker.run_pass(ops)]
    assert sum(p["failed"] for p in passes) == 2
    # one family of two always fails: half the families, not 1 in 100 operations
    assert worker.passed_share(ops, passes) == 0.5


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cone", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_check_flags_unrecorded_layers():
    import run

    main = {
        "failed": 0,
        "digests": ["d"],
        "span_calls": {"core.sigma_tilde": 3},
        "stressed": ["core", "radial"],
        "required_spans": ["core.sigma_tilde", "radial.radial_solve"],
    }
    assert run.self_check(main) == [
        "traced run recorded no calls on the radial layer",
        "traced run recorded no calls of radial.radial_solve",
    ]


def test_self_check_flags_failed_operations():
    import run

    main = {"failed": 2, "failures": {"gate": 2}, "errors": {}, "digests": ["d"]}
    assert run.self_check(main) == ["2 operations failed: {'gate': 2} {}"]


def test_tracer_patches_every_binding():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    from hessiankit import barrier, geometry, radial

    bound_by_name = [
        (barrier, "estimate_modulus"), (barrier, "holder_fit"), (barrier, "sample_boundary"),
        (barrier, "sample_interior"), (geometry, "elementary_symmetric_all"),
        (radial, "elementary_symmetric_all"), (radial, "holder_fit"),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(hasattr(getattr(mod, name), "__wrapped__") for mod, name in bound_by_name)
    finally:
        tracer.uninstall()
    assert not any(hasattr(getattr(mod, name), "__wrapped__") for mod, name in bound_by_name)
