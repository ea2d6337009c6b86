"""Smoke test of the benchmark at tiny sizes: every workload, untraced and traced."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_benchmark_names_the_workloads_it_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_reports_every_metric_and_stable_digests(capsys, workload):
    plain_record, plain = _run(capsys, workload, 0)
    traced_record, traced = _run(capsys, workload, 1)
    for result, declared in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["failed"] == 0 and result["correct"] is True, plain_record["failures"]
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
    assert plain_record["digest"] == traced_record["digest"] == traced_record["traced_digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain-exact", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
