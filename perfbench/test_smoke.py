"""Smoke test of the benchmark harness at toy sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import speed  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "cohort-corpus": {"patients": 3},
    "screen-large-db": {"subjects": 4, "chance_seeds": 2, "patients": 2},
    "long-gene": {"genes": 2, "gene_length": 450, "rounds": 1},
}


def tiny_run(workload: str, trace: bool, work: Path) -> dict:
    return run.run(workload, 3, 0.0, trace, work, sizes=TINY[workload], target_mse=1e-2)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_runs_are_correct_and_counts_repeat(workload, tmp_path):
    assert sorted(TINY) == sorted(w["name"] for w in BENCHMARK["workloads"])
    plain = tiny_run(workload, False, tmp_path / "plain")
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    first = tiny_run(workload, True, tmp_path / "traced-1")
    second = tiny_run(workload, True, tmp_path / "traced-2")
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name in run.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["homology.diagonal_groups"]["value"] > 0


def test_speed_clock_scales_each_stretch_by_the_probes_around_it():
    clock = speed.SpeedClock()
    ref = speed.REFERENCE_KERNEL_S
    clock.probes = [(0.0, 1.0, ref), (2.0, 3.0, 2 * ref)]  # (start, end, kernel s)
    clock.fit()
    assert clock.duration(0.2, 0.9) == 0.0  # the probes' own time counts as nothing
    assert clock.duration(1.0, 2.0) == pytest.approx(2 / 3)  # kernel mean 1.5 x ref
    assert clock.duration(0.5, 2.5) == pytest.approx(2 / 3)
    assert clock.duration(3.0, 5.0) == pytest.approx(1.0)  # after the last probe, its speed
    assert clock.mean_speed() == pytest.approx(1.5)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "long-gene",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
