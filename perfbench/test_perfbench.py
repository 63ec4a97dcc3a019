"""Self-tests of the benchmark: toy-size runs, metric names and the gate."""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench.measure import run_workload
from perfbench.workloads import NAMES, Answer, check_answer, error_budget, fingerprint

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_workloads_are_the_ones_defined():
    assert [w["name"] for w in BENCH["workloads"]] == list(NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_at_toy_size(name, trace, tmp_path):
    started = time.perf_counter()
    result = run_workload(name, 3, 0.0, bool(trace), started, tmp_path, shrink=8)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCH[section]}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert 0 < result["metrics"]["setup_s"]["value"] < time.perf_counter() - started
    json.dumps(result, allow_nan=False)


def test_gate_rejects_shifted_hypotheses():
    alpha = 0.1
    mean = np.arange(5.0)
    good = Answer(raw=np.stack([mean + 0.5, mean + 300.0]), reduced=np.stack([mean]))
    assert check_answer(good, mean, alpha).failure is None

    far = Answer(raw=good.raw + 2.0 * error_budget(alpha), reduced=good.reduced)
    assert "budget" in check_answer(far, mean, alpha).failure

    one_ulp = Answer(raw=np.nextafter(good.raw, np.inf), reduced=good.reduced)
    assert fingerprint([one_ulp]) != fingerprint([good])
    assert fingerprint([good]) == fingerprint([Answer(good.raw.copy(), good.reduced.copy())])


def test_gate_rejects_empty_and_oversized_lists():
    alpha, mean = 0.4, np.zeros(2)
    assert check_answer(Answer(np.zeros((0, 2)), np.zeros((0, 2))), mean, alpha).failure
    many = Answer(np.zeros((26, 2)), np.zeros((1, 2)))
    assert "exceeds" in check_answer(many, mean, alpha).failure


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
