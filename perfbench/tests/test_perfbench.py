"""Self-tests of the benchmark at tiny counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from checks import IntInstance, verdicts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"pair": 9, "triple": 5, "certify": 10}


def tiny(workload, tmp_path, trace=False, name="run"):
    return run.measure(workload, WORKLOADS[workload].default_seed, 0, trace,
                       tmp_path / name, TINY[workload])


def invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_name_and_unit(trace):
    proc = invoke(ROOT, "--workload", "certify", "--seed", "5", "--seconds", "0.1",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) == 3}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed[metric["name"]] == metric["unit"]
    for name, unit in run.END_TO_END_UNITS.items():
        assert printed[name] == unit


def test_a_corrupted_allocation_counts_in_fail_frac(tmp_path):
    workload = WORKLOADS["pair"]
    pkg, cases, setup_times = run.setup(workload, 1, tmp_path, TINY["pair"])
    done = run.timed_loop(workload, pkg, cases, tmp_path / "out", 0)
    report_path = tmp_path / "out" / "0.json"
    report = json.loads(report_path.read_text())
    # Every good to agent 0: the report's own certificates still say pass.
    everything = sorted(g for bundle in report["allocation"]["bundles"] for g in bundle)
    everything += report["allocation"]["unallocated"]
    report["allocation"]["bundles"] = [sorted(everything), []]
    report_path.write_text(json.dumps(report))

    failures = run.check_outputs(workload, pkg, cases, tmp_path / "out", done)
    assert list(failures) == [0]
    values, _ = run.end_to_end(workload, done, len(failures), setup_times)
    assert values["fail_frac"] == 1 / len(cases)
    assert values["ops_per_s"] > 0


def test_a_wrong_verdict_counts_as_failed(tmp_path):
    workload = WORKLOADS["certify"]
    pkg, cases, _ = run.setup(workload, 1, tmp_path, 2)
    done = run.timed_loop(workload, pkg, cases, tmp_path / "out", 0)
    sha, efx, ef1, ef = done.results[1]
    done.results[1] = (sha, not efx, ef1, ef)
    assert list(run.check_outputs(workload, pkg, cases, tmp_path / "out", done)) == [1]


def test_certify_inputs_are_built_as_designed(tmp_path):
    workload = WORKLOADS["certify"]
    pkg, cases, _ = run.setup(workload, 3, tmp_path, TINY["certify"])
    seen = set()
    for case in cases:
        inst = IntInstance(json.loads(case.instance))
        bundles = json.loads(case.allocation)["bundles"]
        assert verdicts(inst, bundles) == (case.passes,) * 3
        # The holder's bundle is never affordable whole to the other two.
        held = inst.cost(bundles[2])
        assert held == inst.budgets[2] and held > max(inst.budgets[:2])
        seen.add((len(bundles[2]), case.passes))
    assert seen == {(size, passes) for size in workload.sizes for passes in (True, False)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_spans_cover_the_region_and_keep_the_outputs(workload, tmp_path):
    first = tiny(workload, tmp_path, name="first")
    second = tiny(workload, tmp_path, name="second")
    traced = tiny(workload, tmp_path, trace=True, name="traced")
    assert first["failures"] == second["failures"] == traced["failures"] == {}
    assert first["outputs"] == second["outputs"] == traced["outputs"]
    assert traced["traced_outputs"] == traced["outputs"]

    region = traced["region_s"]
    covered = traced["tracer"].top_level_seconds()
    assert 0.95 * region <= covered <= region
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(traced["per_layer"]) == names
    calls = traced["per_layer"]
    if workload == "certify":
        assert calls["oracles.max_nsw_allocation.calls"] == 0
        assert calls["model.is_ef1.calls"] == TINY["certify"]
    else:
        assert calls["cli.main.calls"] == TINY[workload]
        assert calls["oracles.max_nsw_allocation.calls"] >= TINY[workload]


def test_tracing_restores_every_wrapped_name(tmp_path):
    tiny("pair", tmp_path, trace=True)
    for name, module in list(sys.modules.items()):
        if name.startswith("budgeted_efx"):
            for value in vars(module).values():
                assert getattr(value, "__module__", None) != "tracing", name


def test_exits_nonzero_without_a_result_when_the_source_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = invoke(tmp_path, "--workload", "pair", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
