"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 -m pytest -q perfbench/smoke.py

The file name does not match pytest's `test_*.py` pattern on purpose: the
library's test suite never collects it, so its tiny runs (and the BLAS thread
pin that importing run.py applies) never share a process with those tests.
It runs only when named on the command line.

Checks that every metric BENCHMARK.json names is emitted, that every output
check passes, and that each traced operation's self times add up to its wall
time. The check_suite case runs the real suites twice (about half a minute).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run._import_library()

import workloads  # noqa: E402
from layers import SELF_BUCKETS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E_NAMES = [m["name"] for m in BENCH["end_to_end"]]
LAYER_NAMES = [m["name"] for m in BENCH["per_layer"]]


def test_benchmark_json_matches_the_code():
    assert BENCH == run.benchmark_json()
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload(name):
    setup = run.probe_setup(name, seed=0, tiny=True)
    rec = run.run_workload(name, seed=0, seconds=0.5, trace=True, tiny=True, setup_times=setup)

    assert rec["correct"] and rec["failed"] == 0, rec["notes"]
    assert list(rec["e2e"]) == E2E_NAMES
    for metric, value in rec["e2e"].items():
        assert math.isfinite(value) and value > 0, metric
    assert list(rec["per_layer"]) == LAYER_NAMES
    assert all(math.isfinite(v) for v in rec["per_layer"].values())
    assert rec["absent"] == [] and rec["unmapped_spans"] == []

    overhead_s = abs(rec["per_layer"]["trace.overhead_ms"]) / 1e3
    assert rec["op_breakdowns"], "no traced operation"
    for wall, self_times in rec["op_breakdowns"]:
        assert set(self_times) <= set(SELF_BUCKETS)
        assert min(self_times.values()) >= -1e-9
        assert abs(sum(self_times.values()) - wall) <= overhead_s + 1e-6


def test_cli_prints_the_result_line():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "eval_long", "--seed", "3",
           "--seconds", "0.2", "--trace", "0", "--tiny"]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == E2E_NAMES
    for metric in BENCH["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "train_copy", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
