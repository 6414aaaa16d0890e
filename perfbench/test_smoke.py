"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload, untraced and traced, must end with a result line that holds
every metric ``BENCHMARK.json`` declares, with its unit.  The same seed must
give the same graphs and outputs in two processes, and a directory without
the library's sources must be refused without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def tiny(workload: str, seed: int, trace: int) -> dict:
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    result = tiny(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 100 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_same_seed_gives_same_graphs_and_outputs():
    details = []
    for _ in range(2):
        tiny("matching_routes", 5, 0)
        details.append(json.loads((HERE / "out" / "matching_routes-seed5-trace0.json").read_text()))
    assert details[0]["graphs_sha256"] == details[1]["graphs_sha256"]
    assert details[0]["outputs_sha256"] == details[1]["outputs_sha256"]


def test_refuses_a_checkout_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for src in HERE.glob("*.py"):
        shutil.copy(src, bare / "perfbench")
    proc = run("--workload", "atlas_exact", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
