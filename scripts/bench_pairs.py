"""Paired benchmark runs of two checkouts, written to one JSON file.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --seeds 1 2 3 \
        --out BENCH_name.json

For each seed it runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, the parent first on odd seeds and the
change first on even ones, with T the ``run_seconds`` of the change's
``BENCHMARK.json``. For every end-to-end metric listed there it writes each
side's runs, median and quartiles (``statistics.quantiles(n=4)``), the pairs
the change won (ties count for neither), the parent's quartile spread,
whether the change's median beats the parent's by more than that spread, and
whether it is no worse than the parent's by more than the metric's bound. A
gain is met (``gain_met``, printed) when the change wins at least ceil(0.9 x
pairs) pairs and its median beats the parent's by more than the parent's
quartile spread. A metric is ``resolved`` when the parent's quartile spread
is at most the bound times the parent's median, or when every run of the
change beats every run of the parent; an unresolved metric's
``within_bound`` says nothing either way. It also writes each pair's
change/parent ratio and the median of those ratios: drift of the host moves
both runs of a pair together, so the ratios scatter less than either side's
runs. A pair whose ratio is above 2 or below 1/2 is listed in
``drift_pairs`` (its position in ``pair_ratios``) and printed: no program
change moves one pair that far while leaving the others, so such a pair
points at the host. It records whether the digests over every operation
agree in each pair. The result goes under ``workloads.W`` of the output
file; the file's other keys are kept, so one file can collect several
workloads.

Standard library only; each run is a fresh process in its checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its end-to-end metrics, counts and digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    # "digest A over the first N operations; B over all M"
    digest_line = next(line for line in lines if line.startswith("digest "))
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest_all": digest_line.split("; ")[1].split()[0],
        "corpus_used_up": "corpus used up before the time ran out" in lines,
    }


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    lower = metric["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p, c = summary(parent), summary(change)
    ratios = [b / a for a, b in zip(parent, change)]
    spread = p["q3"] - p["q1"]
    bound = metric["bound"]
    limit = p["median"] * (1 + bound if lower else 1 - bound)
    wins = sum(better(b, a) for a, b in zip(parent, change))
    beyond = better(c["median"], p["median"]) and abs(c["median"] - p["median"]) > spread
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "parent": p,
        "change": c,
        "change_wins": wins,
        "pair_ratios": ratios,
        "median_pair_ratio": statistics.median(ratios),
        "drift_pairs": [k for k, r in enumerate(ratios) if r > 2 or r < 1 / 2],
        "pairs": len(parent),
        "parent_quartile_spread": spread,
        "gain_beyond_spread": beyond,
        "gain_met": beyond and wins >= math.ceil(0.9 * len(parent)),
        "within_bound": not better(limit, c["median"]),
        "resolved": spread <= bound * p["median"]
        or all(better(b, a) for a in parent for b in change),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, seed, seconds)
            print(f"{args.workload} seed {seed} {side}: {pair[side]['metrics']}", flush=True)
        runs.append(pair)

    metrics = {
        m["name"]: compare(
            m,
            [r["parent"]["metrics"][m["name"]] for r in runs],
            [r["change"]["metrics"][m["name"]] for r in runs],
        )
        for m in bench["end_to_end"]
    }
    for name, metric in metrics.items():
        for k in metric["drift_pairs"]:
            print(f"{args.workload} {name}: seed {args.seeds[k]} change/parent ratio "
                  f"{metric['pair_ratios'][k]:.3g}, host drift?", flush=True)
        if metric["gain_met"]:
            print(f"{args.workload} {name}: gain met, {metric['change_wins']} of "
                  f"{metric['pairs']} pairs won beyond the parent's spread", flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S"
        f" --seconds {seconds} --trace 0",
        "order": "parent first on odd seeds, change first on even seeds",
        "seeds": args.seeds,
        "failed_ops": {side: [r[side]["failed"] for r in runs] for side in ("parent", "change")},
        "corpus_used_up": {
            side: sum(r[side]["corpus_used_up"] for r in runs) for side in ("parent", "change")
        },
        "digests_equal": all(
            r["parent"]["digest_all"] == r["change"]["digest_all"] for r in runs
        ),
        "metrics": metrics,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
