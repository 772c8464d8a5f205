"""The benchmark's workloads: seeded inputs, one operation, and its check.

One operation of ``pair`` or ``triple`` solves one instance file through the
``solve`` subcommand, called in-process as ``cli.main``; set-up writes the
files. One operation of ``certify`` decodes and verifies one given
allocation through the library; its documents stay in memory as JSON text.
Writing files dominated its set-up and made it swing by a factor of up to
six from run to run, while parsing them costs the same either way.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from checks import (
    CheckFailure,
    IntInstance,
    check_bundles,
    check_solve_report,
    verdicts,
)


class SolveCase:
    """One ``solve`` operation's instance file."""

    __slots__ = ("index", "instance")

    def __init__(self, index: int, instance: Path):
        self.index = index
        self.instance = instance


class CertifyCase:
    """One ``certify`` operation's instance and allocation documents, and
    whether the generator built the allocation to pass its checks."""

    __slots__ = ("index", "instance", "allocation", "passes")

    def __init__(self, index: int, instance: str, allocation: str, passes: bool):
        self.index = index
        self.instance = instance
        self.allocation = allocation
        self.passes = passes


def _stratified(instances, m_values, per_m):
    """Round-robin over the number of goods, ``per_m`` instances each.

    Every window of operations then holds the same mix of sizes, whatever
    the seed; the run-time of a solve grows steeply with the number of goods.
    """
    buckets = {m: [] for m in m_values}
    for inst in instances:
        bucket = buckets[inst.num_goods]
        if len(bucket) < per_m:
            bucket.append(inst)
    if any(len(b) < per_m for b in buckets.values()):
        raise RuntimeError("generated too few instances of some size")
    return [buckets[m][k] for k in range(per_m) for m in m_values]


class SolveWorkload:
    """``solve --algorithm <algorithm>`` on seeded generator instances."""

    def __init__(self, algorithm, agents, m_range, per_m, default_seed,
                 tail_percentile, digest_ops):
        self.algorithm = algorithm
        self.agents = agents
        self.m_values = range(m_range[0], m_range[1] + 1)
        self.per_m = per_m
        self.default_seed = default_seed
        self.tail_percentile = tail_percentile
        self.digest_ops = digest_ops

    def build(self, pkg, seed: int, directory: Path, size: int | None = None) -> list[SolveCase]:
        per_m = self.per_m if size is None else -(-size // len(self.m_values))
        # Sizes are drawn uniformly; 30% extra fills every size class.
        draw = per_m * len(self.m_values) * 13 // 10 + 50
        m_range = (self.m_values[0], self.m_values[-1])
        instances = pkg.instances.gen_instances(seed, draw, self.agents, m_range)
        directory.mkdir(parents=True)
        cases = []
        for k, inst in enumerate(_stratified(instances, self.m_values, per_m)):
            path = directory / f"{k}.json"
            path.write_text(pkg.instances.instance_to_json(inst))
            cases.append(SolveCase(k, path))
        return cases

    def run(self, pkg, case: SolveCase, out: Path):
        report = out / f"{case.index}.json"
        return pkg.cli.main(
            ["solve", str(case.instance), "--algorithm", self.algorithm, "--out", str(report)]
        )

    def canonical(self, pkg, case: SolveCase, out: Path, code) -> list:
        report_path = out / f"{case.index}.json"
        if code != 0 or not report_path.exists():
            return [case.index, code, None]
        report = json.loads(report_path.read_text())
        return [case.index, code, report["allocation"]["bundles"], report["efx"]["pass"]]

    def check(self, pkg, case: SolveCase, out: Path, code) -> None:
        if code != 0:
            raise CheckFailure(f"solve exited with {code}")
        report = json.loads((out / f"{case.index}.json").read_text())
        inst, sha = IntInstance.load(case.instance)
        check_solve_report(inst, sha, report, self.algorithm)


class CertifyWorkload:
    """Verify given three-agent allocations from their documents.

    Agent 2 holds 9 to 13 goods costing 50 to 60 each, with a budget equal
    to that bundle's cost; agents 0 and 1 hold two goods each, and one good
    stays unallocated. Agents 0 and 1 have budgets of about half the big
    bundle's cost, so they can never afford it whole and every best
    response over it is a real, tight knapsack search. Each of them values
    her own bundle at exactly her best affordable value from the big bundle,
    which makes her EFx and envy-free toward it. Half the allocations pass
    every check; in the other half agent 2 values one of agent 0's goods
    above her whole bundle, so EFx, EF1 and envy-freeness fail with a
    witness on her first comparison. Agent 2 is checked last, so a failing
    allocation costs about as much to verify as a passing one of the same
    size, and the latency median sits inside one size class instead of in
    the gap between a cheap and a dear half.
    """

    default_seed = 1
    sizes = range(9, 14)
    count = 300
    tail_percentile = 90
    digest_ops = 10
    # Every fifth operation, the smallest size class, passing and failing
    # alike, also has its EFx verdict checked with the unpruned oracle.
    oracle_sample = 5

    def build(self, pkg, seed: int, directory: Path, size: int | None = None) -> list[CertifyCase]:
        rng = random.Random(seed)
        cases = []
        for k in range(self.count if size is None else size):
            goods = self.sizes[k % len(self.sizes)]
            passes = (k // len(self.sizes)) % 2 == 0
            inst, bundles = _certify_instance(rng, goods, passes)
            text = pkg.instances.instance_to_json(pkg.model.Instance(*inst))
            cases.append(CertifyCase(k, text, json.dumps({"bundles": bundles}), passes))
        return cases

    def run(self, pkg, case: CertifyCase, out: Path):
        inst = pkg.instances.parse_instance(json.loads(case.instance))
        allocation = pkg.instances.parse_allocation(json.loads(case.allocation), inst)
        return (
            pkg.instances.instance_sha256(inst),
            pkg.model.is_efx(inst, allocation),
            pkg.model.is_ef1(inst, allocation),
            pkg.model.is_envy_free(inst, allocation),
        )

    def canonical(self, pkg, case: CertifyCase, out: Path, result) -> list:
        return [case.index, *result]

    def check(self, pkg, case: CertifyCase, out: Path, result) -> None:
        sha, efx, ef1, ef = result
        inst = IntInstance(json.loads(case.instance))
        bundles = json.loads(case.allocation)["bundles"]
        check_bundles(inst, bundles)
        if sha != hashlib.sha256(case.instance.encode()).hexdigest():
            raise CheckFailure("instance hash differs from the canonical document's")
        if (efx, ef1, ef) != verdicts(inst, bundles):
            raise CheckFailure(f"verdicts {(efx, ef1, ef)} disagree with subset sums")
        if case.index % self.oracle_sample == 0 and efx != _efx_by_oracle(pkg, case):
            raise CheckFailure("EFx verdict disagrees with knapsack_by_enumeration")


def _efx_by_oracle(pkg, case: CertifyCase) -> bool:
    """EFx in its drop-one-good form, with the unpruned knapsack oracle."""
    inst = pkg.instances.parse_instance(json.loads(case.instance))
    allocation = pkg.instances.parse_allocation(json.loads(case.allocation), inst)
    for i in range(inst.num_agents):
        own = sum((inst.values[i][g] for g in allocation.bundles[i]), Fraction(0))
        for j in range(inst.num_agents):
            if i == j:
                continue
            target = allocation.bundles[j]
            for g in sorted(target):
                best, _ = pkg.oracles.knapsack_by_enumeration(
                    inst, i, target - {g}, inst.budgets[i]
                )
                if best > own:
                    return False
    return True


def _best_affordable(costs, values, budget: int) -> int:
    """0/1 knapsack optimum by dynamic programming over integer budgets."""
    best = [0] * (budget + 1)
    for c, v in zip(costs, values):
        for b in range(budget, c - 1, -1):
            if best[b - c] + v > best[b]:
                best[b] = best[b - c] + v
    return best[budget]


def _certify_instance(rng: random.Random, big: int, passes: bool):
    """(costs, budgets, values) and bundles for one ``certify`` case."""
    m = big + 5
    costs = [rng.randint(50, 60) for _ in range(m)]
    held = list(range(big))
    small = [[big, big + 1], [big + 2, big + 3]]
    total = sum(costs[g] for g in held)
    budgets = [total // 2 + rng.randint(-5, 5), total // 2 + rng.randint(-5, 5), total]
    values = [[rng.randint(1, 10) for _ in range(m)] for _ in range(3)]
    for g in held:
        values[2][g] = rng.randint(20, 40)
    for agent in (0, 1):
        row = values[agent]
        for g in held:
            row[g] = rng.randint(1, 30)
        reach = _best_affordable([costs[g] for g in held], [row[g] for g in held], budgets[agent])
        first, second = small[agent]
        row[first], row[second] = reach - reach // 2, reach // 2
    if not passes:
        own = sum(values[2][g] for g in held)
        values[2][small[0][0]] = own + rng.randint(1, 10)
    bundles = [small[0], small[1], held]
    return (costs, budgets, values), bundles


WORKLOADS = {
    "pair": SolveWorkload(
        "efx2", 2, (2, 10), per_m=300, default_seed=1,
        tail_percentile=95, digest_ops=100,
    ),
    # m up to 8 rather than 9: see the README's "Workloads" section.
    "triple": SolveWorkload(
        "efx3", 3, (4, 8), per_m=160, default_seed=3,
        tail_percentile=90, digest_ops=10,
    ),
    "certify": CertifyWorkload(),
}
