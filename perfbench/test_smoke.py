"""Smoke test of the benchmark itself, at toy size; runs in seconds.

    python3 -m pytest -q perfbench
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
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from spans import namespace_snapshot  # noqa: E402
from workloads import TOY_WORKLOADS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(TOY_WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    record = run.run(TOY_WORKLOADS[name](), seed=3, seconds=0.0, trace=False)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert {k: v["unit"] for k, v in record["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in record["metrics"].values())


@pytest.mark.parametrize("name", list(TOY_WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_restores_functions(name):
    before = namespace_snapshot()
    record = run.run(TOY_WORKLOADS[name](), seed=3, seconds=0.0, trace=True)
    assert namespace_snapshot() == before
    assert record["correct"] and record["count_differences"] == []
    assert {k: v["unit"] for k, v in record["metrics"].items()} == _units("per_layer")
    assert record["spans"] and all(s["end"] >= s["start"] for s in record["spans"])


def test_traced_run_restores_functions_when_an_op_raises():
    workload = TOY_WORKLOADS["relabel"]()
    before = namespace_snapshot()
    workload.setup(0, run.WORK_DIR)
    workload.dm = None  # greedy_assign now raises inside its span
    untraced, traced, _metrics, _spans = run._traced(workload, seed=0)
    assert namespace_snapshot() == before
    assert all(op.problems for op in untraced + traced)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relabel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
