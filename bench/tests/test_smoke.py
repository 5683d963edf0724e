"""Smoke test: every workload once at minimal length, untraced and traced.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
Checks the last output line against BENCHMARK.json and the full record
against the metrics each workload is documented to report.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

from workloads import WORKLOAD_METRICS  # noqa: E402

SEED = 7
WORKLOADS = list(WORKLOAD_METRICS)
COMMON = {"op_ref": "ref", "op_s": "s", "setup_s": "s", "setup_raw_s": "s",
          "ref_s": "s", "peak_rss_mb": "MB", "failed_ratio": "1"}


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "0", "--trace",
         str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def last_json(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    return result


def record(workload, trace):
    path = os.path.join(ROOT, ".bench_out",
                        f"result-{workload}-seed{SEED}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def assert_units(metrics, expected):
    for name, unit in expected.items():
        assert name in metrics, name
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    result = last_json(run_bench(workload, 0))
    assert_units(result["metrics"], {m["name"]: m["unit"]
                                     for m in declared()["end_to_end"]})
    assert set(result["metrics"]) == {m["name"]
                                      for m in declared()["end_to_end"]}

    full = record(workload, 0)
    expected = dict(COMMON)
    for name in WORKLOAD_METRICS[workload]:
        expected[name] = ("s" if name.endswith("_s") else
                          "count" if name == "iterations" else
                          "model_time" if name == "delay_err" else "1")
    assert_units(full["metrics"], expected)
    for entry in full["metrics"].values():
        assert entry["n"] >= 1
    for key in ("commit", "python", "numpy", "scipy", "nproc",
                "blas_threads", "HYPERSHADOW_THREADS"):
        assert key in full["env"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_every_per_layer_metric(workload):
    result = last_json(run_bench(workload, 1))
    assert_units(result["metrics"], {m["name"]: m["unit"]
                                     for m in declared()["per_layer"]})
    assert set(result["metrics"]) == {m["name"]
                                      for m in declared()["per_layer"]}

    full = record(workload, 1)["metrics"]
    for name in ("flows.solve_s", "hyperbolic.frame_s",
                 "hyperbolic.convolve_s", "hyperbolic.proj_s",
                 "hyperbolic.model_s", "hyperbolic.orbit_s",
                 "invariance.step_s", "invariance.self_s",
                 "invariance.bounds_s", "cli.artifact_s", "cli.load_state_s",
                 "cli.self_s", "electrodynamics.delay_solve_s"):
        assert full[name]["unit"] == "s", name
    solves = full["flows.solve_calls"]["value"]
    if workload == "lin-oracle":
        assert solves == 0          # identity time change: flows bypassed
    if workload == "sdd-cubic":
        assert solves > 0
        assert full["perturbations.spec_calls_per_step"]["value"] > 0
    if workload == "lightcone":
        assert full["electrodynamics.delay_fields"]["value"] == 2


def test_failed_checks_are_counted_not_fatal(monkeypatch, capsys):
    import run
    import workloads
    monkeypatch.setattr(workloads, "DELAY_TOL", -1.0)   # every op fails
    assert run.main(["--workload", "lightcone", "--seed", str(SEED),
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    full = record("lightcone", 0)["metrics"]
    assert full["failed_ratio"]["value"] == 1.0
    assert full["op_ref"]["value"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("lin-oracle", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
