"""Where a ``solve`` spends its CPU time, stage by stage.

    PYTHONPATH=src python scripts/solve_stages.py --algorithm efx3 \
        [--seed 3] [--count 800] [--rounds 3] [--json OUT.json]

It writes a seeded ``gen_instances`` corpus to a temporary directory (3
agents and 4 to 8 goods for ``efx3``, 2 agents and 2 to 10 goods
otherwise, as perfbench's ``triple`` and ``pair``), then runs
``cli.main(["solve", FILE, "--algorithm", ALG, "--out", REPORT])`` on every
file, each round into a fresh report directory. It prints the mean thread
CPU time per solve and each stage's share:

* argv: ``cli.main`` itself, that is parsing argv and dispatching;
* read and parse: ``parse_instance``;
* welfare walks: ``oracles._welfare_walk``, every welfare branch and bound;
* pipeline: the rest of ``_solve_report``, the algorithm and its glue;
* report certificates: ``_base_report`` and ``_ratio_check``;
* canonical JSON: ``_canonical_json``;
* file write: ``_emit``.

Each stage is the time spent in its functions minus the time of the other
stages they call. The wrappers cost about a microsecond per call. One more
line gives what a one-instance ``solve`` pays before argv: the thread CPU
time of ``import budgeted_efx.cli`` in a fresh ``python -S`` process, the
median of five such processes. The first writes the package's bytecode
unless ``PYTHONDONTWRITEBYTECODE`` is set, and the others read it.

Standard library only; the package comes from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import thread_time_ns

from budgeted_efx import cli, oracles
from budgeted_efx.instances import gen_instances, instance_to_json

STAGES = (
    "argv",
    "read and parse",
    "welfare walks",
    "pipeline",
    "report certificates",
    "canonical JSON",
    "file write",
)
# (stage, module, function name) for every wrapped function.
WRAPPED = (
    ("argv", cli, "main"),
    ("read and parse", cli, "parse_instance"),
    ("welfare walks", oracles, "_welfare_walk"),
    ("pipeline", cli, "_solve_report"),
    ("report certificates", cli, "_base_report"),
    ("report certificates", cli, "_ratio_check"),
    ("canonical JSON", cli, "_canonical_json"),
    ("file write", cli, "_emit"),
)


class StageClock:
    """Charges thread CPU time to the stage on top of a stack of calls."""

    def __init__(self) -> None:
        self.ns = dict.fromkeys(STAGES, 0)
        self.stack: list[str] = []
        self.last = 0

    def _switch(self) -> None:
        now = thread_time_ns()
        if self.stack:
            self.ns[self.stack[-1]] += now - self.last
        self.last = now

    def wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            self._switch()
            self.stack.append(stage)
            try:
                return fn(*args, **kwargs)
            finally:
                self._switch()
                self.stack.pop()

        return timed


def import_us() -> float:
    """Median thread CPU time, in microseconds, of importing the CLI in a
    fresh ``python -S`` process; the package comes from ``PYTHONPATH``."""
    probe = (
        "import time; start = time.thread_time_ns(); import budgeted_efx.cli; "
        "print(time.thread_time_ns() - start)"
    )
    times = [
        int(subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                           text=True, check=True).stdout)
        for _ in range(5)
    ]
    return round(statistics.median(times) / 1000, 1)


def corpus(algorithm: str, seed: int, count: int) -> list:
    agents, m_range = (3, (4, 8)) if algorithm == "efx3" else (2, (2, 10))
    return gen_instances(seed, count, agents, m_range)


def stage_table(algorithm: str, seed: int, count: int, rounds: int) -> dict:
    clock = StageClock()
    originals = [(module, name, getattr(module, name)) for _, module, name in WRAPPED]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        files = []
        for k, inst in enumerate(corpus(algorithm, seed, count)):
            path = root / f"{k}.json"
            path.write_text(instance_to_json(inst))
            files.append(path)
        for stage, module, name in WRAPPED:
            setattr(module, name, clock.wrap(stage, getattr(module, name)))
        try:
            for r in range(rounds):
                out = root / f"reports{r}"
                out.mkdir()
                for k, path in enumerate(files):
                    argv = ["solve", str(path), "--algorithm", algorithm,
                            "--out", str(out / f"{k}.json")]
                    if cli.main(argv) not in (0, 2):
                        raise SystemExit(f"solve failed on instance {k}")
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)
    solves = count * rounds
    total = sum(clock.ns.values())
    return {
        "algorithm": algorithm,
        "seed": seed,
        "count": count,
        "rounds": rounds,
        "us_per_solve": round(total / solves / 1000, 1),
        "stages": {
            stage: {
                "us_per_solve": round(ns / solves / 1000, 1),
                "share": round(ns / total, 3),
            }
            for stage, ns in clock.ns.items()
        },
        "import_us": import_us(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="efx3",
                        choices=["efx2", "efx3", "oracle-nsw", "oracle-efx"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--count", type=int, default=800)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--json", type=Path, default=None, help="also write JSON here")
    args = parser.parse_args(argv)

    result = stage_table(args.algorithm, args.seed, args.count, args.rounds)
    print(f"{args.algorithm}: {result['us_per_solve']} us per solve "
          f"({args.count} instances x {args.rounds} rounds, seed {args.seed})")
    for stage, row in result["stages"].items():
        print(f"  {stage:20} {row['us_per_solve']:8.1f} us  {row['share']:6.1%}")
    print(f"  {'package import':20} {result['import_us']:8.1f} us  "
          "once per process (fresh python -S)")
    if args.json:
        args.json.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
