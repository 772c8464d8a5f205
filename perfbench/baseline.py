"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --runs 10 [--first-seed 101] \
        [--workload pair ...] [--out perfbench/BASELINE.json]

Runs ``run.py --trace 0`` once per seed, one run at a time, and reports for
each workload and end-to-end metric the median and the quartile spread
(the distance between the first and third quartile over the median), plus
the tail percentile's sample counts. Then it makes one ``--trace 1`` run on
the first seed and keeps its per-layer metrics and digest lines. With
``--out`` it writes the summary as JSON, keeping the entries of workloads
that were not run this time.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1], perf_counter() - start


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"python": platform.python_version(), "machine": platform.machine(),
               "run_seconds": args.seconds, "workloads": {}}
    if args.out and Path(args.out).exists():
        # Keep the other workloads' entries when only some are run again.
        summary["workloads"] = json.loads(Path(args.out).read_text())["workloads"]
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, notes, wall = one_run(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            runs.append({"seed": seed, "wall_s": round(wall, 2), "result": result,
                         "tail": next(n for n in notes if n.startswith("latency_tail_ms is"))})
            print(f"{workload} seed {seed} wall {wall:.1f}s {json.dumps(result['metrics'])}",
                  flush=True)
        metrics = {}
        for name in bounds:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bounds[name]
            metrics[name] = stats
            print(f"  {workload} {name}: median {stats['median']:.4g}"
                  f" spread {stats['spread']:.3f} (bound {bounds[name]})", flush=True)
        traced, notes, wall = one_run(workload, args.first_seed, args.seconds, 1)
        shares = {name[: -len(".share")]: m["value"] for name, m in traced["metrics"].items()
                  if name.endswith(".share")}
        top = sorted(shares, key=shares.get, reverse=True)[:4]
        print(f"  {workload} traced: failed {traced['failed']}, top self shares "
              + ", ".join(f"{name} {shares[name]:.3f}" for name in top), flush=True)
        summary["workloads"][workload] = {
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": metrics,
            "tail": [r["tail"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "traced": {
                "seed": args.first_seed,
                "wall_s": round(wall, 2),
                "failed": traced["failed"],
                "digests": [n for n in notes if "digest" in n],
                "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            },
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
