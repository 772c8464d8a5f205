"""Benchmark for budgeted-efx: one workload, one seed, one process.

    python3 perfbench/run.py --workload {pair,triple,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory. The run sets up the workload's seeded inputs several
times and keeps the median set-up time, then runs operations back to back
(a closed loop with one client, in this process and thread) for the given
number of CPU seconds, then checks every output outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` the same operations are then run
again with every layer's public functions wrapped in spans, and the JSON
object holds the per-layer metrics instead. The lines above it restate the
metrics with their units, the tail percentile's sample counts, and a
SHA-256 digest of the canonical outputs.

Every time is CPU time of this (only) thread, as ``time.thread_time`` gives
it: on a virtual machine whose host takes cycles away, wall-clock time
measures the neighbours as much as the program.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, thread_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CheckFailure  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYERS = ("model", "oracles", "two_agents", "three_agents", "instances", "cli")
SETUP_REPEATS = 3
WORK_DIR = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "fail_frac": "frac",
    "peak_rss_mb": "MB",
}
# fail_frac is 0 whenever the program is right, so no share of a median can
# bound it: it is printed, and the JSON result carries it as attempted and
# failed, but it is not among the metrics the JSON result lists.
RESULT_METRICS = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")


def fresh_package() -> SimpleNamespace:
    """Import the package anew, dropping any module state of a past import."""
    for name in [n for n in sys.modules if n == "budgeted_efx" or n.startswith("budgeted_efx.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{layer: importlib.import_module(f"budgeted_efx.{layer}") for layer in LAYERS}
    )


class Pass:
    """Outputs and latencies of one timed loop over the first cases."""

    def __init__(self):
        self.results: list = []
        self.latencies: list[float] = []
        self.cpu = 0.0
        self.wall = 0.0


def timed_loop(workload, pkg, cases, out: Path, seconds: float | None,
               count: int | None = None, tracer: Tracer | None = None) -> Pass:
    """Run operations back to back until ``seconds`` of CPU time have passed
    (and at least the workload's digest prefix is done), or over exactly
    ``count`` cases. A raised exception is the operation's result, and fails
    its check.
    """
    out.mkdir(parents=True)
    run = workload.run
    result = Pass()
    limit = len(cases) if count is None else count
    wall = perf_counter()
    start = thread_time()
    for case in cases[:limit]:
        t0 = thread_time()
        with tracer.span("bench.op") if tracer else nullcontext():
            try:
                value = run(pkg, case, out)
            except Exception as exc:  # the loop must go on; the check reports it
                value = exc
        t1 = thread_time()
        result.results.append(value)
        result.latencies.append(t1 - t0)
        if (
            count is None
            and t1 - start >= seconds
            and len(result.results) >= workload.digest_ops
        ):
            break
    result.cpu = thread_time() - start
    result.wall = perf_counter() - wall
    return result


def canonical_outputs(workload, pkg, cases, out: Path, run: Pass) -> list[str]:
    lines = []
    for case, value in zip(cases, run.results):
        if isinstance(value, Exception):
            lines.append(json.dumps([case.index, "exception", type(value).__name__]))
        else:
            lines.append(json.dumps(workload.canonical(pkg, case, out, value)))
    return lines


def check_outputs(workload, pkg, cases, out: Path, run: Pass) -> dict[int, str]:
    """A message for each failed operation, by operation index."""
    failures = {}
    for case, value in zip(cases, run.results):
        try:
            if isinstance(value, Exception):
                raise CheckFailure(f"raised {type(value).__name__}: {value}")
            workload.check(pkg, case, out, value)
        except CheckFailure as exc:
            failures[case.index] = str(exc)
        except Exception:  # a malformed output must not stop the other checks
            failures[case.index] = traceback.format_exc(limit=1)
    return failures


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def setup(workload, seed: int, work: Path, size: int | None):
    """Set up ``SETUP_REPEATS`` times; keep the last package and cases."""
    times = []
    for r in range(SETUP_REPEATS):
        if r:
            shutil.rmtree(work / f"setup{r - 1}", ignore_errors=True)
        start = thread_time()
        pkg = fresh_package()
        cases = workload.build(pkg, seed, work / f"setup{r}", size)
        times.append(thread_time() - start)
    return pkg, cases, times


def end_to_end(workload, run: Pass, failed: int, setup_times: list[float]) -> tuple[dict, list[str]]:
    latencies = sorted(run.latencies)
    tail, beyond = nearest_rank(latencies, workload.tail_percentile)
    attempted = len(run.results)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": (attempted - failed) / run.cpu,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail * 1000,
        "fail_frac": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"latency_tail_ms is p{workload.tail_percentile} of {attempted} operations,"
        f" {beyond} beyond it" + ("" if beyond >= 10 else " (fewer than ten)"),
        f"setup_s is the median of {[round(t, 4) for t in setup_times]}",
        f"timed loop: {run.cpu:.4f} s of CPU time in {run.wall:.4f} s of wall-clock time",
    ]
    return values, notes


def traced_pass(workload, seed: int, work: Path, size, count: int, untraced: Pass):
    """Set up and rerun the same operations with every layer traced."""
    pkg = fresh_package()
    tracer = Tracer(pkg)
    tracer.install()
    try:
        start = thread_time()
        with tracer.span("bench.setup"):
            cases = workload.build(pkg, seed, work / "traced-setup", size)
        traced = timed_loop(workload, pkg, cases, work / "traced-out", None, count, tracer)
        region = thread_time() - start
    finally:
        tracer.uninstall()
    overhead = traced.cpu / untraced.cpu - 1
    return pkg, cases, traced, tracer, region, overhead


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            work: Path, size: int | None = None) -> dict:
    """Everything one run reports, as a dict; ``size`` shrinks the corpus."""
    workload = WORKLOADS[workload_name]
    pkg, cases, setup_times = setup(workload, seed, work, size)
    untraced = timed_loop(workload, pkg, cases, work / "out", seconds)
    n = len(untraced.results)
    done = cases[:n]
    failures = check_outputs(workload, pkg, done, work / "out", untraced)
    outputs = canonical_outputs(workload, pkg, done, work / "out", untraced)
    e2e, notes = end_to_end(workload, untraced, len(failures), setup_times)
    notes.append(
        f"digest {digest(outputs[:workload.digest_ops])} over the first"
        f" {workload.digest_ops} operations; {digest(outputs)} over all {n}"
    )
    if len(cases) == n and size is None:
        notes.append("corpus used up before the time ran out")
    report = {
        "attempted": n,
        "failures": failures,
        "end_to_end": e2e,
        "notes": notes,
        "outputs": outputs,
    }
    if trace:
        tpkg, tcases, traced, tracer, region, overhead = traced_pass(
            workload, seed, work, size, n, untraced
        )
        traced_outputs = canonical_outputs(workload, tpkg, tcases, work / "traced-out", traced)
        for k, (a, b) in enumerate(zip(outputs, traced_outputs)):
            if a != b:
                failures.setdefault(k, "traced output differs from untraced")
        notes.append(
            f"traced digest {digest(traced_outputs[:workload.digest_ops])} over the first"
            f" {workload.digest_ops} operations; {digest(traced_outputs)} over all {n}"
        )
        notes.append(
            f"traced region {region:.4f} s; top-level spans cover"
            f" {tracer.top_level_seconds():.4f} s"
        )
        for fn, names in tracer.unknown_branches().items():
            notes.append(f"{fn} returned branches with no metric: {names}")
        report.update(
            per_layer=tracer.metrics(region, overhead),
            tracer=tracer,
            region_s=region,
            traced_outputs=traced_outputs,
        )
    return report


def result_line(report: dict, trace: bool) -> dict:
    if trace:
        units, values = metric_units(), report["per_layer"]
    else:
        units = {name: END_TO_END_UNITS[name] for name in RESULT_METRICS}
        values = report["end_to_end"]
    failed = len(report["failures"])
    return {
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=20,
                        help="CPU seconds of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "budgeted_efx" / "__init__.py").is_file():
        print(f"error: no package source under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    work = WORK_DIR / f"{args.workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        report = measure(args.workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        report["tracer"].write(WORK_DIR / f"spans-{args.workload}-{seed}.json")

    for index, message in list(report["failures"].items())[:20]:
        print(f"FAILED operation {index}: {message}")
    for note in report["notes"]:
        print(note)
    for name, unit in END_TO_END_UNITS.items():
        print(f"{name} {report['end_to_end'][name]!r} {unit}")
    line = result_line(report, bool(args.trace))
    if args.trace:
        for name, metric in line["metrics"].items():
            print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
