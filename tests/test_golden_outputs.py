"""Byte-exact outputs pinned against the committed files in ``tests/golden``.

Refactors that promise unchanged outputs are checked here: each ``cli_*``
case runs the CLI in-process and compares its output with its golden file,
and ``gen_n2_seed1.json`` pins the instance generator's sampling. Bench CSVs
drop the ``millis`` column, the only field that depends on the machine.
This is the one refreeze entry point for everything in ``tests/golden``;
after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest

from budgeted_efx.cli import main
from budgeted_efx.instances import gen_instances, serialize_instance

GOLDEN = Path(__file__).resolve().parent / "golden"
T1 = Path(__file__).resolve().parent.parent / "fixtures" / "t1.json"

CASES = {
    "cli_solve_t1_efx2.json": ("solve", "efx2"),
    "cli_solve_t1_oracle-nsw.json": ("solve", "oracle-nsw"),
    "cli_solve_t1_oracle-efx.json": ("solve", "oracle-efx"),
    "cli_verify_t1_01_2.json": ("verify", [[0, 1], [2]]),
    "cli_verify_t1_0_1.json": ("verify", [[0], [1]]),
    "cli_bench_three-agent_20.csv": ("bench", "three-agent", 20),
    "gen_n2_seed1.json": ("gen", 1, 3, 2, (5, 5)),
}


def _without_millis(text: str) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    columns = [c for c in rows[0] if c != "millis"]
    out = io.StringIO()
    writer = csv.DictWriter(
        out, fieldnames=columns, extrasaction="ignore", lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def render(name: str, workdir: Path) -> str:
    """Render one case, writing CLI outputs into ``workdir``; return the text."""
    command, *params = CASES[name]
    if command == "gen":
        docs = [serialize_instance(i) for i in gen_instances(*params)]
        return json.dumps(docs, indent=2, sort_keys=True) + "\n"
    out = workdir / name
    if command == "solve":
        argv = ["solve", str(T1), "--algorithm", params[0]]
    elif command == "verify":
        allocation = workdir / f"alloc_{name}"
        allocation.write_text(json.dumps({"bundles": params[0]}))
        argv = ["verify", str(T1), str(allocation)]
    else:
        argv = ["bench", "--suite", params[0], "--count", str(params[1])]
    main(argv + ["--out", str(out)])
    text = out.read_text()
    return _without_millis(text) if command == "bench" else text


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert render(name, tmp_path) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / name).write_text(render(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
