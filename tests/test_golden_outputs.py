"""Byte-exact outputs pinned against the committed files in ``tests/golden``.

Refactors that promise unchanged outputs are checked here: each ``cli_*``
case runs the CLI in-process and compares its output with its golden file,
and ``gen_n2_seed1.json`` pins the instance generator's sampling. Bench CSVs
drop the ``millis`` column, the only field that depends on the machine.
Reports are also compared byte for byte, written through ``--out`` and
through standard output alike.
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
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Solve and verify cases name their fixture: t1 (two agents) or r3 (three
# agents whose numbers have different denominators).
CASES = {
    "cli_solve_t1_efx2.json": ("solve", "efx2", "t1"),
    "cli_solve_t1_oracle-nsw.json": ("solve", "oracle-nsw", "t1"),
    "cli_solve_t1_oracle-efx.json": ("solve", "oracle-efx", "t1"),
    "cli_solve_r3_efx3.json": ("solve", "efx3", "r3"),
    "cli_verify_t1_01_2.json": ("verify", [[0, 1], [2]], "t1"),
    "cli_verify_t1_0_1.json": ("verify", [[0], [1]], "t1"),
    "cli_verify_r3_012_3_45.json": ("verify", [[0, 1, 2], [3], [4, 5]], "r3"),
    "cli_bench_three-agent_20.csv": ("bench", "three-agent", 20),
    "gen_n2_seed1.json": ("gen", 1, 3, 2, (5, 5)),
}
REPORTS = sorted(name for name, case in CASES.items() if case[0] in ("solve", "verify"))


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


def cli_argv(name: str, workdir: Path) -> list[str]:
    """The argv of a CLI case, without ``--out``; allocations go to ``workdir``."""
    command, *params = CASES[name]
    if command == "solve":
        return ["solve", str(FIXTURES / f"{params[1]}.json"), "--algorithm", params[0]]
    if command == "verify":
        allocation = workdir / f"alloc_{name}"
        allocation.write_text(json.dumps({"bundles": params[0]}))
        return ["verify", str(FIXTURES / f"{params[1]}.json"), str(allocation)]
    return ["bench", "--suite", params[0], "--count", str(params[1])]


def render(name: str, workdir: Path) -> str:
    """Render one case, writing CLI outputs into ``workdir``; return the text."""
    command, *params = CASES[name]
    if command == "gen":
        docs = [serialize_instance(i) for i in gen_instances(*params)]
        return json.dumps(docs, indent=2, sort_keys=True) + "\n"
    out = workdir / name
    main(cli_argv(name, workdir) + ["--out", str(out)])
    text = out.read_text()
    return _without_millis(text) if command == "bench" else text


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert render(name, tmp_path) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", REPORTS)
def test_reports_are_the_golden_bytes_through_out_and_stdout(name, tmp_path, capsysbinary):
    expected = (GOLDEN / name).read_bytes()
    out = tmp_path / "report.json"
    main(cli_argv(name, tmp_path) + ["--out", str(out)])
    assert out.read_bytes() == expected
    assert capsysbinary.readouterr().out == b""
    main(cli_argv(name, tmp_path))
    assert capsysbinary.readouterr().out == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            (GOLDEN / name).write_text(render(name, Path(tmp)))
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
