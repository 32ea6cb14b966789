"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_prints_every_metric(workload, trace, group):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert any(line.startswith(name + " ") for line in lines[:-1]), name
        assert isinstance(result["metrics"][name]["value"], (int, float))


def test_wrong_golden_rational_fails_its_op():
    rs = run.import_package()
    golden = workloads.load_golden()
    key = "pc_two_suspects(3,3,30)"
    golden[key] = str(workloads.as_rational(golden[key]) + 1)
    if "/" not in golden[key]:
        golden[key] += "/1"
    grid = workloads.ExactGrid(rs, workloads.SIZES["tiny"]["exact-grid"], golden)
    rec = workloads.Recorder()
    grid.run_pass(rec)
    assert rec.attempted == len(grid.ops)
    assert rec.failed == 1


def test_hit_rate_outside_wilson_band_fails():
    rs = run.import_package()
    wl = workloads.mc_sweep(rs, 5, workloads.SIZES["tiny"]["mc-sweep"])
    rec = workloads.Recorder()
    wl.run_pass(rec)
    wl.final_checks(rec)
    assert rec.failed == 0
    wl.reference[0] = 0.0 if wl.hits[0] else 1.0
    wl.final_checks(rec)
    assert rec.failed == 1
