"""Smoke tests of the benchmark: each workload once at tiny size.

    python3 -m pytest bench/test_bench.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that the correctness gate passes, that exact counts repeat, that the
reference clock samples inside timed regions only, and that the benchmark
refuses to run without the package sources.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from refclock import KERNEL_S, ReferenceClock, Region

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_every_metric_is_emitted_and_the_gate_passes(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"]
                for entry in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        metrics = result_of(run_bench("experiments", 1))["metrics"]
        counts.append({name: metric["value"] for name, metric in metrics.items()
                       if metric["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["trajectory.plan_trajectory.calls"] > 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("latent", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_clock_samples_inside_regions_only():
    with ReferenceClock().running() as clock:
        time.sleep(0.05)
        region = Region(clock)
        with region():
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 5 <= len(region.kernel_s) < len(clock.samples)
    assert 0.0 < region.wall_s < 0.2
    expected = region.wall_s * KERNEL_S / (sum(region.kernel_s) / len(region.kernel_s))
    assert region.reference_s() == pytest.approx(expected)
