"""Tiny-size smoke test of the benchmark.

    python3 -m pytest perfbench/test_smoke.py -q
    python3 perfbench/test_smoke.py

Runs every workload ``workloads.py`` defines (those ``BENCHMARK.json``
gates and ``catalog_correlated``, which it does not) at smoke-test size
(``--tiny``: small circuits, one setup, one second) untraced and traced,
and checks that each run passes its correctness check and prints
exactly the metric names, with units, that ``BENCHMARK.json`` declares.
(The tiny mixes leave out the per-circuit kernel rows' circuits, so
those rows may read 0 here; at full size every one is measured.)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int) -> None:
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_every_workload_prints_the_declared_metrics():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace)


if __name__ == "__main__":
    test_every_workload_prints_the_declared_metrics()
    print("ok")
