"""Smoke test of the benchmark at reduced sizes.

Run from the repository root (about a minute)::

    python3 -m pytest -q shrimpbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def bench(*args, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "shrimpbench", "run.py"),
               "--seconds", "1", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def table_units(stdout):
    """{metric: unit} from the printed table rows."""
    units = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and not line.startswith(("check", "{")):
            units[fields[0]] = fields[2]
    return units


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit_and_checks_pass(workload):
    done = bench("--workload", workload, "--size", "smoke", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    units = table_units(done.stdout)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert units.get(metric["name"]) == metric["unit"], metric["name"]
    checks = [line for line in done.stdout.splitlines()
              if line.startswith("check")]
    assert checks and all(line.startswith("check ok") for line in checks)
    assert "base of failed_share: 0 failed of %d attempted" \
        % result["attempted"] in done.stdout


def test_untraced_run_reports_the_end_to_end_metrics():
    done = bench("--workload", "pingpong_auto", "--size", "smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_a_forced_failure_is_counted_not_crashed():
    done = bench("--workload", "pingpong_auto", "--size", "smoke",
                 "--max-events", "5000")
    assert done.returncode == 1, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    share = [line for line in done.stdout.splitlines()
             if line.startswith("failed_share ")]
    assert float(share[0].split()[1]) == pytest.approx(
        result["failed"] / result["attempted"])
    assert "error: SimulationError: exceeded max_events=5000" in done.stdout
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_without_the_simulator_sources_there_is_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "shrimpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "pingpong_auto", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
