"""Independent output checks for the benchmark.

Everything here reads the wire-format JSON documents directly and works on
plain integers by enumerating subsets, so it shares no code with the
package's knapsack walks, predicates or report code. Every benchmark
input has integer costs, budgets and values, which keeps the sums exact.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path


class CheckFailure(Exception):
    """An operation's output is wrong; the message says how."""


class IntInstance:
    """Integer view of an instance document."""

    def __init__(self, doc: dict):
        self.costs = [_as_int(g["cost"]) for g in doc["goods"]]
        self.budgets = [_as_int(a["budget"]) for a in doc["agents"]]
        self.values = [[_as_int(v) for v in a["values"]] for a in doc["agents"]]

    @classmethod
    def load(cls, path: Path) -> tuple["IntInstance", str]:
        """The instance and the SHA-256 of the file's bytes."""
        raw = path.read_bytes()
        return cls(json.loads(raw)), hashlib.sha256(raw).hexdigest()

    def cost(self, bundle) -> int:
        return sum(self.costs[g] for g in bundle)

    def value(self, agent: int, bundle) -> int:
        return sum(self.values[agent][g] for g in bundle)

    def product(self, bundles) -> int:
        out = 1
        for agent, bundle in enumerate(bundles):
            out *= self.value(agent, bundle)
        return out


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise CheckFailure(f"benchmark inputs are integral, got {x!r}")
    return x


def check_bundles(inst: IntInstance, bundles) -> None:
    """Structure and budget feasibility of a list of per-agent bundles."""
    if len(bundles) != len(inst.budgets):
        raise CheckFailure(f"{len(bundles)} bundles for {len(inst.budgets)} agents")
    seen: set[int] = set()
    for agent, bundle in enumerate(bundles):
        for g in bundle:
            if not isinstance(g, int) or not 0 <= g < len(inst.costs) or g in seen:
                raise CheckFailure(f"bundle {agent} holds a bad or repeated good {g!r}")
            seen.add(g)
        if inst.cost(bundle) > inst.budgets[agent]:
            raise CheckFailure(f"bundle {agent} exceeds its budget")


def envy_flags(inst: IntInstance, agent: int, own: int, target) -> tuple[bool, bool, bool]:
    """(envy, EFx violation, EF1 violation) of ``agent`` toward ``target``.

    Over every subset S of the target that the agent can afford: envy when
    some S is worth more than ``own``; an EFx violation when some S other
    than the whole target is (so a good of the target is left out of S); an
    EF1 violation when some nonempty S minus its least valued good is.
    """
    budget = inst.budgets[agent]
    row = inst.values[agent]
    costs, values, lowest = [0], [0], [None]
    for g in target:
        c, v = inst.costs[g], row[g]
        costs += [x + c for x in costs]
        values += [x + v for x in values]
        lowest += [v if x is None else min(x, v) for x in lowest]
    whole = len(costs) - 1
    envy = efx = ef1 = False
    for mask in range(len(costs)):
        if costs[mask] > budget:
            continue
        if values[mask] > own:
            envy = True
            efx = efx or mask != whole
        if lowest[mask] is not None and values[mask] - lowest[mask] > own:
            ef1 = True
    return envy, efx, ef1


def verdicts(inst: IntInstance, bundles) -> tuple[bool, bool, bool]:
    """(EFx, EF1, envy-free) of an allocation, by subset enumeration."""
    efx = ef1 = ef = True
    for i, own_bundle in enumerate(bundles):
        own = inst.value(i, own_bundle)
        for j, target in enumerate(bundles):
            if i != j:
                envy, efx_bad, ef1_bad = envy_flags(inst, i, own, target)
                ef, efx, ef1 = ef and not envy, efx and not efx_bad, ef1 and not ef1_bad
    return efx, ef1, ef


def rational(x) -> Fraction:
    """A wire-format number: an integer or a "p/q" string."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise CheckFailure(f"expected an exact number, got {x!r}")
    return Fraction(x)


def check_solve_report(inst: IntInstance, sha: str, report: dict, algorithm: str) -> list:
    """Check a ``solve`` report against its instance; return its allocation.

    The report's own certificates must pass, and budget feasibility, EFx and
    the welfare floor are recomputed from the final allocation: at least
    half the seed's product for ``efx2``, at least (1/171)^3 of the optimum
    for ``efx3``.
    """
    if report.get("algorithm") != algorithm or report.get("input_hash") != sha:
        raise CheckFailure("report names another algorithm or instance")
    if not (report["efx"]["pass"] and report["budget_feasible"]):
        raise CheckFailure("report's own EFx or budget certificate failed")
    if not all(check["pass"] for check in report["ratio_checks"]):
        raise CheckFailure("report's own ratio checks failed")
    bundles = report["allocation"]["bundles"]
    check_bundles(inst, bundles)
    if not verdicts(inst, bundles)[0]:
        raise CheckFailure("allocation is not EFx")
    product = inst.product(bundles)
    if rational(report["nsw_product"]) != product:
        raise CheckFailure("report's welfare product disagrees with the allocation")
    if algorithm == "efx2":
        seed = report["seed_allocation"]["bundles"]
        check_bundles(inst, seed)
        if 2 * product < inst.product(seed):
            raise CheckFailure("product below half of the seed's")
    else:
        opt = rational(report["opt_product"])
        if not product * 171**3 >= opt >= product:
            raise CheckFailure("product outside [opt / 171^3, opt]")
    return bundles
