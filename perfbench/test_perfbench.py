"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run the benchmark in short child processes, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that depend only on the inputs, never on timing.
EXACT_SUFFIXES = (".calls", ".raised", ".unbroken", ".broken", ".exceptional",
                  ".candidates", ".useful_ratio")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(workload):
    first, second = (
        result(bench("--workload", workload, "--seed", "7", "--seconds", secs, "--trace", "1"))
        for secs in ("0.5", "2")
    )
    names = [m["name"] for m in SPEC["per_layer"]]
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert list(res["metrics"]) == names
    exact = [n for n in names if n.endswith(EXACT_SUFFIXES)]
    assert exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["linalg.eig_arrays.calls"]["value"] == {
        "seed_scan": 17 / 16, "sweep_2level": 1.0, "analyze_evolve": 5.0,
    }[workload]


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench("--workload", "seed_scan", "--seed", "3", "--seconds", "0.5", "--trace", "0")
    res = result(proc)
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in res["metrics"].values())
    detail = json.loads(proc.stdout.splitlines()[-2].split(" ", 2)[2])
    assert detail["env"]["blas_threads_pinned"] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "seed_scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def test_scan_check_rejects_a_wrong_seed(workloads, tmp_path):
    wl = workloads.SeedScan([13108, 24811], tmp_path)
    assert wl.check(24811, [24811]) == (0, "")
    assert wl.check(24811, [24812])[0] == workloads.SCAN_WINDOW


def test_sweep_check_rejects_a_wrong_verdict(workloads, tmp_path):
    wl = workloads.Sweep2Level([], tmp_path)
    params = wl.inputs(5)[0]
    assert wl.check(params, wl.call(params)) == (0, "")
    lines = wl.out.read_text().splitlines()
    lines[1] = lines[1].replace("unbroken", "broken")
    wl.out.write_text("\n".join(lines) + "\n")
    assert wl.check(params, 0)[0] == 1


def test_chain_check_rejects_drift(workloads, tmp_path):
    wl = workloads.AnalyzeEvolve([13108], tmp_path)
    spec = wl.inputs(5)[0]
    codes = wl.call(spec)
    assert wl.check(spec, codes) == (0, "")
    lines = wl.trace.read_text().splitlines()
    t, re_, im = lines[-1].split(",")
    lines[-1] = f"{t},{float(re_) + 1e-5!r},{im}"
    wl.trace.write_text("\n".join(lines) + "\n")
    assert wl.check(spec, codes)[0] == 1
