"""Smoke tests for the benchmark harness, on its tiny corpus.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = ("_calls", "_built", "_cells", "_gens_in", "_gens_out", "bits_read",
                  "trials", "captured", "_stages", "_materialized", "points_checked", "bytes_out")


def smoke(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(smoke(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    for name in want:
        assert out["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result(smoke(workload, 1)), result(smoke(workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    counts = [k for k in want if k.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as fh:
        mapping = json.load(fh)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert set(mapping) == {m["name"] for m in SPEC["per_layer"]}
    for entry in mapping.values():
        for move in entry["moves"]:
            assert move["metric"] in e2e and move["workload"] in WORKLOADS, move


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = smoke(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
