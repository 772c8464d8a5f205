"""Smoke runs of the scripts under ``scripts/``: each exits 0 on a small
input. ``solve_stages.py`` wraps private ``cli`` and ``oracles`` functions
by name, so a renamed helper fails here, and one that is no longer called
leaves its stage without time."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import budgeted_efx

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
STAGES = (
    "argv",
    "read and parse",
    "welfare walks",
    "pipeline",
    "report certificates",
    "canonical JSON",
    "file write",
)


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(budgeted_efx.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("algorithm", ["efx2", "efx3"])
def test_solve_stages_charges_every_stage(algorithm, tmp_path):
    table = tmp_path / "stages.json"
    out = run_script(
        "solve_stages.py", "--algorithm", algorithm, "--count", "20", "--rounds", "1",
        "--json", str(table),
    )
    assert out.startswith(f"{algorithm}: ")
    for stage in STAGES:
        assert f"  {stage} " in out
    assert "  package import " in out
    result = json.loads(table.read_text())
    stages = result["stages"]
    assert list(stages) == list(STAGES)
    assert all(row["us_per_solve"] > 0 for row in stages.values())
    assert result["import_us"] > 0


@pytest.mark.parametrize("agents", [2, 3])
def test_ratio_histogram(agents):
    out = run_script("ratio_histogram.py", "--agents", str(agents), "--count", "5")
    assert "5 instances | min " in out


def test_bench_pairs_help():
    assert "usage: bench_pairs.py" in run_script("bench_pairs.py", "--help")


def test_bench_pairs_compare_flags_the_drifted_pair():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    metric = {"unit": "1/s", "better": "higher", "bound": 0.25}
    # Pair 2 ran at 2.5 times the parent, pair 3 at exactly 2, pair 4 at 0.4.
    parent = [100.0, 100.0, 100.0, 100.0, 100.0]
    change = [101.0, 99.0, 250.0, 200.0, 40.0]
    result = bench_pairs.compare(metric, parent, change)
    assert result["pair_ratios"] == [1.01, 0.99, 2.5, 2.0, 0.4]
    assert result["drift_pairs"] == [2, 4]
    assert bench_pairs.compare(metric, parent, parent)["drift_pairs"] == []


@pytest.mark.parametrize("wins, met", [(10, True), (9, True), (8, False)])
def test_bench_pairs_gain_needs_nine_of_ten_pairs_beyond_the_spread(wins, met):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    metric = {"unit": "ms", "better": "lower", "bound": 0.25}
    # The parent reads 100..109 ms (quartile spread 5.5), the change 80 ms on
    # ``wins`` pairs and 200 ms on the rest: a median gain of about 25 ms.
    parent = [100.0 + k for k in range(10)]
    change = [80.0] * wins + [200.0] * (10 - wins)
    result = bench_pairs.compare(metric, parent, change)
    assert result["change_wins"] == wins
    assert result["gain_beyond_spread"]
    assert result["gain_met"] is met
