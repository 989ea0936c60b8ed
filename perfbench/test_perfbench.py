"""Self-test of the benchmark (about four minutes):

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload for one pass, untraced twice and traced once, and a copy
of the benchmark whose pinned verdict and golden hash are corrupted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED_ONLY = {"games.utility.calls"}


def run(workload, trace, root=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.splitlines()
    work = json.loads(next(line for line in lines if line.startswith("work "))[5:])
    return json.loads(lines[-1]), work


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_and_work_counts_repeat(workload):
    first, work = run(workload, 0)
    second, work_again = run(workload, 0)
    traced, traced_work = run(workload, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units("end_to_end")
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == units("per_layer")
    assert all(m["value"] > 0 for m in first["metrics"].values())
    assert first["correct"] and traced["correct"]
    assert work and work == work_again
    assert {k: v for k, v in traced_work.items() if k not in TRACED_ONLY} == work
    for name, value in work.items():
        if name in traced["metrics"]:
            assert traced["metrics"][name]["value"] == value, name


def test_corrupted_pins_are_failures():
    copy = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    pins_path = copy / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["reserve"]["square.q0"]["combos_checked"] += 1
    pins["cli"]["auction_pairs"]["sha256"] = "0" * 64
    pins_path.write_text(json.dumps(pins))
    try:
        clean, _ = run("oracle-grid", 0)
        broken, _ = run("oracle-grid", 0, root=copy)
        assert clean["failed"] == 0 and clean["correct"]
        assert broken["failed"] > 0 and not broken["correct"]
        clean, _ = run("cli-readme", 0)
        broken, _ = run("cli-readme", 0, root=copy)
        assert broken["failed"] > clean["failed"] and not broken["correct"]
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def test_refuses_to_run_without_sources():
    copy = ROOT / ".perfbench" / "nosrc"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle-grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=copy, capture_output=True, text=True, timeout=60, check=False)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(copy, ignore_errors=True)
