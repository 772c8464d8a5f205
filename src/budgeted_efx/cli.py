"""Command-line interface: solve, verify, and bench.

Exit codes form the CI contract: 0 success, 1 usage or parse failure,
2 guarantee violation (the report is still written when one exists), 3
search-cap exhaustion, 4 verification failure. Errors are mapped to these
codes once, in :func:`main`. Every boolean in a report is recomputed from
the final allocation, never copied out of algorithm state.

Inputs are checked once, here and on entry to the solvers; a report's
numbers come from one integer pass and become ``"p/q"`` text only in JSON.
Documents are read as bytes, and reports written as ASCII bytes.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import time
from functools import partial
from pathlib import Path

from .instances import (
    ParseError,
    _canonical_json,
    _ratio_to_json,
    allocation_to_payload,
    gen_instances,
    instance_sha256,
    instance_to_json,
    parse_allocation,
    parse_instance,
    rational_from_json,
    rational_to_json,
)
from .model import (
    Allocation,
    FairDivisionError,
    Instance,
    InvariantViolationError,
    StructuralError,
    _Record,
    _efx_violation,
    _envious,
    _fits,
    _int_cost,
    _own_values,
    _values,
    is_ef1,
    is_efx,
    is_envy_free,
    knapsack_vmax,
    nsw_product,
)
from .oracles import (
    SearchBudget,
    SearchCapExceededError,
    best_allocation_under_predicate,
    is_pareto_efficient,
    knapsack_by_enumeration,
    max_nsw_allocation,
    max_nsw_by_enumeration,
)
from .three_agents import RATIO_DIVISOR_3A, AlphaParams, efx_3a
from .two_agents import efx_2a

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARANTEE = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


def _search_budget(cap: int | None) -> SearchBudget:
    return SearchBudget() if cap is None else SearchBudget(cap)


def _shared_fields(instance: Instance, allocation: Allocation) -> tuple[dict, list[int]]:
    """The fields of solve and verify reports alike, and each agent's value
    of her bundle, from the allocation's one check and one integer pass."""
    values = _own_values(instance, allocation)
    violation = _efx_violation(instance, allocation.bundles, values)
    # Unallocated is every good of the instance that no agent holds.
    return {
        "input_hash": instance_sha256(instance),
        "allocation": allocation_to_payload(Allocation(allocation.bundles, instance.all_goods())),
        "nsw_product": _ratio_to_json(math.prod(values), math.prod(instance._value_scales)),
        "budget_feasible": all(_fits(instance, i, b) for i, b in enumerate(allocation.bundles)),
        "efx": {
            "pass": violation is None,
            "witness": None if violation is None else violation._asdict(),
        },
    }, values


def _base_report(
    instance: Instance, algorithm: str, allocation: Allocation
) -> tuple[dict, list[int]]:
    report, values = _shared_fields(instance, allocation)
    scale = instance._cost_scale
    report.update(
        algorithm=algorithm,
        agent_values=list(map(_ratio_to_json, values, instance._value_scales)),
        agent_costs=[_ratio_to_json(_int_cost(instance, b), scale) for b in allocation.bundles],
        budgets=[_ratio_to_json(b, scale) for b in instance._int_budgets],
    )
    return report, values


def _emit(text: str, out: str | Path | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none.
    Reports and tables are ASCII, so a file gets their bytes as they are."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "wb") as file:
            file.write(text.encode())
    except OSError as exc:
        raise FairDivisionError(f"{out}: cannot write: {exc.strerror or exc}") from exc


def _ratio_check(name: str, lhs: int, rhs: int, scale: int) -> dict:
    """The check lhs >= rhs, both numbers over one positive ``scale``."""
    return {
        "name": name,
        "lhs": _ratio_to_json(lhs, scale),
        "rhs": _ratio_to_json(rhs, scale),
        "pass": lhs >= rhs,
    }


def _solve_report(
    instance: Instance, algorithm: str, search: SearchBudget, seed="opt", alpha=None
) -> dict:
    """Run ``algorithm`` and build its report; ``seed`` ('opt' or an
    allocation path) is for efx2, ``alpha`` (p/q, None for the default of
    :class:`AlphaParams`) for efx3. Either given to another algorithm is a
    :class:`ParseError`."""
    if seed != "opt" and algorithm != "efx2":
        raise ParseError(f"--seed-allocation applies to efx2 only, not {algorithm}")
    if alpha is not None and algorithm != "efx3":
        raise ParseError(f"--alpha applies to efx3 only, not {algorithm}")
    if algorithm == "efx2":
        if instance.num_agents != 2:
            raise StructuralError("efx2 requires a two-agent instance")
        if seed == "opt":
            seed_alloc = max_nsw_allocation(
                instance, range(2), instance.all_goods(), search
            )
        else:
            seed_alloc = parse_allocation(seed, instance)
        # The seed was checked as it was read, or built by the search; efx_2a
        # checks each bundle against its agent's budget.
        seed = _values(instance, seed_alloc.bundles)
        result = efx_2a(instance, (0, 1), seed_alloc)
        report, out = _base_report(instance, "efx2", result.allocation)
        # Each check compares one agent's values, or products of both agents'
        # values, so both sides share a scale.
        scales = instance._value_scales
        both = scales[0] * scales[1]
        half = out[0] * out[1] * 2
        checks = [_ratio_check("product_at_least_half_of_seed", half, seed[0] * seed[1], both)]
        if result.envier is not None:
            e, d = result.envier, 1 - result.envier  # the envier, the envied
            checks.append(_ratio_check("envier_keeps_input_value", out[e], seed[e], scales[e]))
            checks.append(
                _ratio_check("envied_keeps_half_input_value", out[d] * 2, seed[d], scales[d])
            )
        no_envy_toward_r = not any(
            _envious(instance, i, result.unallocated_r, out[i]) for i in range(2)
        )
        report.update(
            {
                "seed_allocation": allocation_to_payload(seed_alloc),
                "seed_product": _ratio_to_json(seed[0] * seed[1], both),
                "ratio_checks": checks,
                "no_envy_toward_unallocated": no_envy_toward_r,
                "trace": {
                    "branch": result.branch,
                    "envier": result.envier,
                    "iterations": result.iterations,
                    "matched": [sorted(b) for b in result.matched],
                    "unallocated_r": sorted(result.unallocated_r),
                    "leftout_rprime": sorted(result.leftout_rprime),
                },
            }
        )
    elif algorithm == "efx3":
        if instance.num_agents != 3:
            raise StructuralError("efx3 requires a three-agent instance")
        alpha = () if alpha is None else (rational_from_json(alpha, "alpha"),)
        try:
            params = AlphaParams(*alpha)
        except StructuralError as exc:
            raise ParseError(f"bad alpha: {exc}") from exc
        result = efx_3a(instance, params, search)
        report, values = _base_report(instance, "efx3", result.allocation)
        # Both products are ints over the product of the value scales, read
        # from the allocations as _shared_fields reads the final one.
        scale = math.prod(instance._value_scales)
        opt = math.prod(_values(instance, result.opt.bundles))
        report.update(
            {
                "alpha": rational_to_json(result.alpha),
                "opt_product": _ratio_to_json(opt, scale),
                "ratio_checks": [
                    _ratio_check(
                        "product_at_least_opt_over_171_cubed",
                        math.prod(values) * RATIO_DIVISOR_3A,
                        opt,
                        scale * RATIO_DIVISOR_3A,
                    )
                ],
                "trace": {
                    "branch": result.branch,
                    "role_order": list(result.role_order),
                    "setaside_goods": list(result.setaside_goods),
                    "setaside_values": [
                        rational_to_json(v) for v in result.setaside_values
                    ],
                    "setaside_taken": list(result.setaside_taken),
                    "monopoly_low": [rational_to_json(v) for v in result.monopoly_low]
                    if result.monopoly_low is not None
                    else None,
                    "notes": list(result.notes),
                },
            }
        )
    elif algorithm == "oracle-nsw":
        allocation = max_nsw_allocation(
            instance, range(instance.num_agents), instance.all_goods(), search
        )
        report, _ = _base_report(instance, "oracle-nsw", allocation)
        report["ratio_checks"] = []
        report["trace"] = {"branch": "exhaustive_max_nsw"}
    elif algorithm == "oracle-efx":
        found = best_allocation_under_predicate(instance, is_efx, search)
        assert found is not None  # the all-empty allocation is EFx
        report, _ = _base_report(instance, "oracle-efx", found[0])
        report["ratio_checks"] = []
        report["trace"] = {"branch": "exhaustive_best_efx"}
    else:
        raise ParseError(f"unknown algorithm {algorithm!r}")
    return report


def _certificate(report: dict) -> tuple[bool, bool]:
    """``(ratio_pass, efx_pass)`` of a solve report. The welfare oracle
    promises optimality, not fairness, so EFx is not part of its contract."""
    ratio_pass = all(c["pass"] for c in report["ratio_checks"])
    ratio_pass = ratio_pass and report.get("no_envy_toward_unallocated", True)
    fair = report["algorithm"] == "oracle-nsw" or report["efx"]["pass"]
    return ratio_pass, report["budget_feasible"] and fair


def cmd_solve(args: argparse.Namespace) -> int:
    instance, search = parse_instance(args.instance), _search_budget(args.cap)
    report = _solve_report(
        instance, args.algorithm, search, args.seed_allocation, args.alpha
    )
    _emit(_canonical_json(report), args.out)
    return EXIT_OK if all(_certificate(report)) else EXIT_GUARANTEE


def _verify_report(
    instance: Instance, allocation: Allocation, search: SearchBudget
) -> dict:
    try:
        pareto: bool | None = is_pareto_efficient(instance, allocation, search)
    except SearchCapExceededError:
        pareto = None
    report, _ = _shared_fields(instance, allocation)
    report.update(
        envy_free=is_envy_free(instance, allocation),
        ef1=is_ef1(instance, allocation),
        pareto_efficient=pareto,
    )
    return report


def cmd_verify(args: argparse.Namespace) -> int:
    instance = parse_instance(args.instance)
    allocation = parse_allocation(args.allocation, instance)
    report = _verify_report(instance, allocation, _search_budget(args.cap))
    _emit(_canonical_json(report), args.out)
    verified = report["budget_feasible"] and report["efx"]["pass"]
    return EXIT_OK if verified else EXIT_VERIFY


def _measure_solve(algorithm: str, instance: Instance, search: SearchBudget) -> dict:
    report = _solve_report(instance, algorithm, search)
    ratio_pass, efx_pass = _certificate(report)
    return {
        "branch": report["trace"]["branch"],
        "product_alg": report["nsw_product"],
        "product_opt": report["seed_product" if algorithm == "efx2" else "opt_product"],
        "ratio_pass": ratio_pass,
        "efx_pass": efx_pass,
    }


def _measure_oracles(instance: Instance, search: SearchBudget) -> dict:
    agents = range(instance.num_agents)
    pool = instance.all_goods()
    pruned = max_nsw_allocation(instance, agents, pool, search)
    unpruned, unpruned_product = max_nsw_by_enumeration(instance, agents, pool, search)
    pruned_product = nsw_product(instance, pruned)
    kn = knapsack_vmax(instance, 0, pool, instance.budgets[0])
    kn_value, kn_witness = knapsack_by_enumeration(instance, 0, pool, instance.budgets[0])
    agree = (
        pruned_product == unpruned_product
        and pruned.bundles == unpruned.bundles
        and kn.value == kn_value
        and kn.witness == kn_witness
    )
    return {
        "branch": "",
        "product_alg": rational_to_json(pruned_product),
        "product_opt": rational_to_json(unpruned_product),
        "ratio_pass": agree,
        "efx_pass": "",
    }


class BenchSuite(_Record):
    """A guarantee suite: which instances to generate, and how to check one.

    ``measure`` runs the solver and the checks on one instance and returns
    the suite's own CSV fields: branch, product_alg, product_opt (exact
    rationals in wire format), ratio_pass and efx_pass.
    """

    __slots__ = _fields = ("algorithm", "agents", "goods", "seed", "count", "measure")


# Default seeds are the frozen acceptance seeds; seed 3 covers all four
# branches of the three-agent procedure within its 100 instances.
BENCH_SUITES = {
    "two-agent": BenchSuite("efx2", 2, (2, 10), 1, 200, partial(_measure_solve, "efx2")),
    "three-agent": BenchSuite("efx3", 3, (4, 9), 3, 100, partial(_measure_solve, "efx3")),
    "oracles": BenchSuite("oracle-nsw", 3, (2, 8), 5, 50, _measure_oracles),
}

CSV_COLUMNS = [
    "instance_id",
    "n",
    "m",
    "algorithm",
    "branch",
    "product_alg",
    "product_opt",
    "ratio_pass",
    "efx_pass",
    "millis",
]


def _csv_table(rows: list[dict]) -> str:
    import csv  # only bench writes CSV; solve and verify never load it

    table = io.StringIO()
    writer = csv.DictWriter(table, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return table.getvalue()


def _emit_reported(text: str, out: str | Path | None) -> None:
    """:func:`_emit`, printing a write failure instead of raising it: once a
    guarantee has failed, the run exits 2 whatever else fails to write."""
    try:
        _emit(text, out)
    except FairDivisionError as exc:
        print(f"error: {exc}", file=sys.stderr)


def cmd_bench(args: argparse.Namespace) -> int:
    suite = BENCH_SUITES[args.suite]
    seed = args.seed if args.seed is not None else suite.seed
    count = args.count if args.count is not None else suite.count
    if count < 1:
        # An empty suite would print a TOTAL row that passes nothing.
        raise ParseError(f"--count must be at least 1, got {count}")
    search = _search_budget(args.cap)
    instances = gen_instances(seed, count, suite.agents, suite.goods)

    repro_dir = Path(args.out).parent if args.out else Path.cwd()
    rows: list[dict] = []
    violations: list[int] = []
    for idx, instance in enumerate(instances):
        repro = repro_dir / f"repro_{args.suite}_{idx}.json"
        start = time.perf_counter()
        try:
            fields = suite.measure(instance, search)
        except InvariantViolationError:
            # Keep the finished rows; main still maps the error to exit 2.
            _emit_reported(instance_to_json(instance), repro)
            _emit_reported(_csv_table(rows), args.out)
            raise
        millis = int((time.perf_counter() - start) * 1000)
        row = {
            "instance_id": idx,
            "n": instance.num_agents,
            "m": instance.num_goods,
            "algorithm": suite.algorithm,
            **fields,
            "millis": millis,
        }
        rows.append(row)
        if not (row["ratio_pass"] and row["efx_pass"] in (True, "")):
            violations.append(idx)
            _emit_reported(instance_to_json(instance), repro)

    total = dict.fromkeys(CSV_COLUMNS, "")
    total.update(
        instance_id="TOTAL",
        algorithm=args.suite,
        ratio_pass=all(r["ratio_pass"] for r in rows),
        efx_pass=all(r["efx_pass"] in (True, "") for r in rows),
        millis=sum(r["millis"] for r in rows),
    )
    rows.append(total)
    if not violations:
        _emit(_csv_table(rows), args.out)
        return EXIT_OK
    _emit_reported(_csv_table(rows), args.out)
    print(
        f"{len(violations)} guarantee violation(s): instances {violations}",
        file=sys.stderr,
    )
    return EXIT_GUARANTEE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgeted-efx",
        description=(
            "Exact solver and verifier for fair allocation of indivisible goods "
            "among budget-constrained agents"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an allocation procedure or oracle")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument(
        "--algorithm",
        required=True,
        choices=["efx2", "efx3", "oracle-nsw", "oracle-efx"],
    )
    solve.add_argument("--alpha", help="threshold for efx3, as p/q")
    solve.add_argument(
        "--seed-allocation",
        default="opt",
        help="'opt' (welfare-optimal seed) or a path to an allocation JSON",
    )
    solve.add_argument("--cap", type=int, default=None, help="search cap override")
    solve.add_argument("--out", default=None, help="report path (stdout by default)")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="recompute certificates for an allocation")
    verify.add_argument("instance", help="instance JSON path")
    verify.add_argument("allocation", help="allocation JSON path")
    verify.add_argument("--cap", type=int, default=None)
    verify.add_argument("--out", default=None)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="run a guarantee suite and emit CSV")
    bench.add_argument("--suite", required=True, choices=sorted(BENCH_SUITES))
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--count", type=int, default=None)
    bench.add_argument("--cap", type=int, default=None)
    bench.add_argument("--out", default=None, help="CSV path (stdout by default)")
    bench.set_defaults(func=cmd_bench)
    return parser


# Built once per process: parsing leaves a parser unchanged, and help text is
# formatted only when it is printed.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FairDivisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SearchCapExceededError):
            return EXIT_CAP
        if isinstance(exc, InvariantViolationError):
            return EXIT_GUARANTEE
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
