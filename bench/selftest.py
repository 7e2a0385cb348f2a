"""Self-test of the benchmark: a short run of every workload, plain and traced.

Run from the root of a checkout (about a minute):

    python3 -m pytest -q bench/selftest.py

It checks that every end-to-end metric is printed with its unit, that the
JSON results hold every metric ``BENCHMARK.json`` lists (end-to-end or, when
traced, per-layer), that no sample fails, and that the benchmark refuses to
run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, lines
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    for name, unit in END_TO_END_UNITS.items():
        assert any(line.startswith(f"{workload} {name} = ") and f" {unit}" in line
                   for line in lines), name
    assert any(line.startswith(f"{workload} solve_s.tail = ") and " samples, " in line
               for line in lines)
    assert f"{workload} fail_rate: 0.0 (0 failed of {result['attempted']} attempted)" in lines
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, lines
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert any(line.startswith(f"{workload} bitwise: ") for line in lines)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
