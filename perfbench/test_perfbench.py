"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest perfbench -q

Each test runs the benchmark from a scratch copy of ``perfbench/`` and
``BENCHMARK.json`` whose ``src`` links to this checkout's sources, so
outputs land in the scratch copy and expected files can be perturbed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def make_checkout(tmp_path, with_src=True):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    return tmp_path


def run_bench(checkout, workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return make_checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit_and_no_failures(checkout, workload, trace):
    proc, lines, result = run_bench(checkout, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any("fail_frac 0/" in line for line in lines)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    text = "\n".join(lines[:-1])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] >= 0
        assert m["name"] in text
        if not trace:
            assert got["value"] > 0


def test_perturbed_expected_counter_fails(tmp_path):
    checkout = make_checkout(tmp_path)
    path = checkout / "perfbench" / "expected" / "tiny-fig1.json"
    expected = json.load(open(path))
    cell = sorted(expected["0"])[0]
    expected["0"][cell]["ios"] += 1
    path.write_text(json.dumps(expected))
    proc, lines, result = run_bench(checkout, "fig1", 0)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert any(f"FAILED {cell}" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_non_negative_and_reconciled(checkout, workload):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "perfbench/workload.py", "--workload", workload,
         "--seed", "1", "--size", "tiny", "--trace"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["expected_seed"]
    assert result["reconciled"], result["reconcile"]
    for name, (spans, simulator) in result["reconcile"].items():
        assert spans == simulator, name
    spans = [json.loads(line) for line in open(result["spans_path"])]
    covered = [0.0] * len(spans)
    for _i, _name, start, end, parent, _cell, _attrs in spans:
        assert end >= start
        if parent >= 0:
            covered[parent] += end - start
    for (_i, _name, start, end, *_rest), child in zip(spans, covered):
        assert end - start - child >= -1e-6
    layers = result["layers"]
    if workload == "tenants":
        assert layers["mmu.run_calls"] >= layers["tenancy.turns"] > 0
        assert layers["mmu.shootdown_calls"] > 0
    if workload == "check":
        assert layers["check.violations"] == 0 and layers["check.cells"] == 28


def test_exits_nonzero_without_sources(tmp_path):
    checkout = make_checkout(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
