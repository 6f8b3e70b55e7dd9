"""Tests of the benchmark itself; they are not part of the tier-1 suite.

    python3 -m pytest perfbench/tests -q

Every run here uses the tiny scale; the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = result_of(bench(workload, trace, ROOT, "--scale", "tiny"))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_wrong_reference_value_counts_as_failed_job(tmp_path):
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
    values = refs["jobs"]["exact/tiny/gentle/0"]
    path = next(iter(values))
    values[path] += 1e-6
    wrong = tmp_path / "references.json"
    wrong.write_text(json.dumps(refs))

    proc = bench("exact", 0, ROOT, "--scale", "tiny", "--references", str(wrong))
    result = result_of(proc)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    fail_line = next(line for line in proc.stdout.splitlines() if line.startswith("fail_ratio "))
    assert float(fail_line.split()[1]) > 0.0
    assert f"exact/tiny/gentle/0: {path} = " in proc.stdout


def test_traced_counts_repeat_at_the_same_seed():
    first, second = (result_of(bench("sampled", 1, ROOT, "--scale", "tiny"))["metrics"] for _ in range(2))
    counts = sorted(name for name, m in first.items() if m["unit"] == "count")
    assert counts and [first[n] for n in counts] == [second[n] for n in counts]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("exact", 0, tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
