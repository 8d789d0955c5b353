"""Runs every workload at toy size through the benchmark's command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, script=PERFBENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_declared_metrics(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        values = {k: v["value"] for k, v in doc["metrics"].items()}
        blocks = sum(v for k, v in values.items()
                     if k.startswith("sampler.update_") or k == "sampler.refresh_caches_us")
        assert blocks + values["sampler.sweep_self_us"] == pytest.approx(values["sampler.sweep_us"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("paper_fit", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
