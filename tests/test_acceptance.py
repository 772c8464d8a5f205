"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a PASS line once its assertions are through (visible under
``pytest -s``); the assertions themselves carry the criteria.
"""

import random
import time
from fractions import Fraction

import pytest

from budgeted_efx.instances import gen_instances
from budgeted_efx.model import (
    Instance,
    bundle_cost,
    bundle_value,
    efx_envies,
    envies,
    is_ef1,
    is_efx,
    knapsack_vmax,
    normalize,
    nsw_product,
)
from budgeted_efx.oracles import (
    best_allocation_under_predicate,
    complete_efx_allocation,
    is_pareto_efficient,
    knapsack_by_enumeration,
    leximin_pp_split,
    max_nsw_allocation,
    max_nsw_by_enumeration,
)
from budgeted_efx.three_agents import (
    efx_3a,
    preprocess,
    round_robin_self_split,
)
from budgeted_efx.two_agents import efx_2a

from helpers import random_feasible_allocation, random_instance

F = Fraction

TWO_AGENT_SEED = 1
THREE_AGENT_SEED = 3
ALPHA = F(1, 35)
RATIO_FLOOR_3A = F(1, 171) ** 3

BRANCH_FLOORS = {
    "else_return1": (1 - ALPHA) ** 2 / (4 * 6 * 6),
    "else_return2": (1 - ALPHA) / (4 * 7 * 6),
    "else_return3": (1 - 11 * ALPHA) / (6 * 13 * 21),
    "equal_budget": ALPHA**2 / (15 * 15 * 18),
}


def announce(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


@pytest.fixture(scope="module")
def three_agent_runs():
    instances = gen_instances(THREE_AGENT_SEED, 100, 3, (4, 9))
    start = time.monotonic()
    results = [(inst, efx_3a(inst)) for inst in instances]
    elapsed = time.monotonic() - start
    return results, elapsed


def test_criterion_1_three_good_lower_bound_regression(t1):
    start = time.monotonic()

    def ef1_and_efficient(instance, allocation):
        return is_ef1(instance, allocation) and is_pareto_efficient(
            instance, allocation
        )

    # (a) nothing is simultaneously EF1 and Pareto-efficient
    assert best_allocation_under_predicate(t1, ef1_and_efficient) is None

    # (b) the EF1 frontier sits at product 11/20 against an optimum of 1
    best_ef1 = best_allocation_under_predicate(t1, is_ef1)
    assert best_ef1 is not None and best_ef1[1] == F(11, 20)
    opt = max_nsw_allocation(t1, (0, 1), t1.all_goods())
    assert nsw_product(t1, opt) == 1
    assert F(11, 20) >= F(1, 2)
    # 11/20 < (sqrt(1/2) + 1/10)^2 exactly: the gap 11/20 - 51/100 = 1/25
    # must be under sqrt(1/50), i.e. (1/25)^2 < 1/50
    assert F(11, 20) - F(51, 100) == F(1, 25)
    assert F(1, 25) ** 2 < F(1, 50)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"regression took {elapsed:.2f}s"
    announce("1 (impossibility regression)")


def test_criterion_2_pair_procedure_guarantee_suite():
    start = time.monotonic()
    instances = gen_instances(TWO_AGENT_SEED, 200, 2, (2, 10))
    for instance in instances:
        opt = max_nsw_allocation(instance, (0, 1), instance.all_goods())
        seed_vals = [bundle_value(instance, i, opt.bundles[i]) for i in range(2)]
        result = efx_2a(instance, (0, 1), opt)
        out_vals = [
            bundle_value(instance, i, result.allocation.bundles[i]) for i in range(2)
        ]

        assert is_efx(instance, result.allocation)
        for i in range(2):
            assert (
                bundle_cost(instance, result.allocation.bundles[i])
                <= instance.budgets[i]
            )

        # one agent keeps her seed value, the other keeps at least half
        if result.envier is None:
            assert out_vals[0] >= seed_vals[0] and out_vals[1] >= seed_vals[1]
        else:
            envied = 1 - result.envier
            assert out_vals[result.envier] >= seed_vals[result.envier]
            assert 2 * out_vals[envied] >= seed_vals[envied]
        assert 2 * out_vals[0] * out_vals[1] >= seed_vals[0] * seed_vals[1]

        # nobody envies the unallocated bundle
        for i in range(2):
            assert not envies(instance, result.allocation, i, result.unallocated_r)

        # left-out goods sit in the lower-budget agent's matched bundle, the
        # higher-budget agent's matched bundle is fully allocated, and the
        # left-out part is not (EFx-)envied
        lower, higher = sorted(range(2), key=lambda i: (instance.budgets[i], i))
        matched_of = {0: result.matched[0], 1: result.matched[1]}
        assert result.leftout_rprime <= matched_of[lower]
        assert matched_of[higher] == result.allocation.bundles[higher]
        if instance.budgets[0] == instance.budgets[1]:
            assert result.leftout_rprime == frozenset()
        assert not envies(
            instance, result.allocation, lower, result.leftout_rprime
        )
        assert not efx_envies(
            instance, out_vals[higher], higher, result.leftout_rprime
        )

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"two-agent suite took {elapsed:.1f}s"
    announce(f"2 (pair guarantees, 200 instances in {elapsed:.1f}s)")


def test_criterion_3_three_agent_guarantee_suite(three_agent_runs):
    results, elapsed = three_agent_runs
    assert len(results) == 100
    for instance, result in results:
        for i in range(3):
            assert (
                bundle_cost(instance, result.allocation.bundles[i])
                <= instance.budgets[i]
            )
        assert is_efx(instance, result.allocation)
        final, opt = nsw_product(instance, result.allocation), nsw_product(instance, result.opt)
        assert final >= RATIO_FLOOR_3A * opt
    assert elapsed < 600.0, f"three-agent suite took {elapsed:.1f}s"
    announce(f"3 (triple guarantees, 100 instances in {elapsed:.1f}s)")


def test_criterion_4_branch_coverage_with_per_branch_floors(three_agent_runs):
    results, _ = three_agent_runs
    hits = {branch: 0 for branch in BRANCH_FLOORS}
    for instance, result in results:
        if result.branch == "small_instance":
            continue
        assert result.branch in BRANCH_FLOORS
        hits[result.branch] += 1
        floor = BRANCH_FLOORS[result.branch]
        final, opt = nsw_product(instance, result.allocation), nsw_product(instance, result.opt)
        assert final >= floor * opt, (result.branch, final, opt)
        if result.branch == "else_return3":
            # the lowest-monopoly agent's floor with the (1 - 11*alpha)
            # constant, in normalized units
            norm = normalize(instance, result.opt)
            swapped = result.monopoly_low[1] >= ALPHA
            agent3 = result.role_order[1] if swapped else result.role_order[2]
            floor3 = (
                1 - 11 * result.setaside_values[agent3] - 11 * ALPHA
            ) / 10
            final3 = bundle_value(
                norm, agent3, result.allocation.bundles[agent3]
            )
            assert final3 >= floor3
    assert all(count > 0 for count in hits.values()), hits
    announce(f"4 (branch coverage {hits})")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(55)
    # 500 knapsack queries with pools up to 15 goods
    for _ in range(500):
        m = rng.randint(1, 15)
        instance = random_instance(rng, 1, m, cost_hi=20, value_hi=20, budget_hi=60)
        pool = frozenset(g for g in range(m) if rng.random() < 0.8)
        budget = F(rng.randint(0, 60))
        fast = knapsack_vmax(instance, 0, pool, budget)
        value, witness = knapsack_by_enumeration(instance, 0, pool, budget)
        assert fast.value == value
        assert fast.witness == witness

    # 50 welfare searches with up to 8 goods, pruned versus unpruned
    instances = gen_instances(5, 50, 3, (2, 8))
    for instance in instances:
        pruned = max_nsw_allocation(
            instance, range(instance.num_agents), instance.all_goods()
        )
        unpruned, unpruned_product = max_nsw_by_enumeration(
            instance, range(instance.num_agents), instance.all_goods()
        )
        assert nsw_product(instance, pruned) == unpruned_product
        assert pruned.bundles == unpruned.bundles
    announce("5 (oracle equivalence)")


def test_criterion_6_property_suites():
    cases = 1000

    # lost value after dropping a good is at most that good's best value
    rng = random.Random(601)
    for _ in range(cases):
        instance = random_instance(rng, 1, rng.randint(1, 6))
        pool = frozenset(g for g in range(instance.num_goods) if rng.random() < 0.8)
        budget = instance.budgets[0]
        whole = knapsack_vmax(instance, 0, pool, budget).value
        for g in pool:
            rest = knapsack_vmax(instance, 0, pool - {g}, budget).value
            alone = knapsack_vmax(instance, 0, {g}, budget).value
            assert rest >= whole - alone

    # the leximin++ second part survives any single removal from the first
    rng = random.Random(602)
    for _ in range(cases):
        instance = random_instance(rng, 1, rng.randint(0, 6))
        budget = instance.budgets[0]

        def u(part):
            return knapsack_vmax(instance, 0, part, budget).value

        split = leximin_pp_split(instance.all_goods(), u)
        assert u(split.first) >= u(split.second)
        for g in split.first:
            assert u(split.second) >= u(split.first - {g})

    # self round-robin: first part ahead, second trails by at most one good
    rng = random.Random(603)
    for _ in range(cases):
        instance = random_instance(rng, 1, rng.randint(0, 8))
        pool = instance.all_goods()
        split = round_robin_self_split(instance, 0, pool)
        v_first = bundle_value(instance, 0, split.first)
        v_second = bundle_value(instance, 0, split.second)
        assert v_first >= v_second
        top = max((instance.values[0][g] for g in pool), default=F(0))
        assert v_second >= v_first - top

    # after preprocessing, no remaining affordable good beats a set-aside
    rng = random.Random(604)
    for _ in range(cases):
        instance = gen_instances(rng.randint(0, 10**9), 1, 3, (4, 6))[0]
        opt = max_nsw_allocation(instance, range(3), instance.all_goods())
        norm = normalize(instance, opt)
        pool, setaside = preprocess(norm, opt)
        for i in range(3):
            for g in pool:
                if norm.costs[g] <= norm.budgets[i]:
                    assert setaside.values[i] >= norm.values[i][g]

    # envy-freeness up to any good implies it up to one good
    rng = random.Random(605)
    for _ in range(cases):
        instance = random_instance(rng, rng.choice((2, 3)), rng.randint(0, 6))
        allocation = random_feasible_allocation(rng, instance)
        if is_efx(instance, allocation):
            assert is_ef1(instance, allocation)

    # the complete-EFx search allocates everything and is EFx whenever the
    # pool fits within every budget
    rng = random.Random(606)
    for _ in range(cases):
        m = rng.randint(0, 6)
        costs = [rng.randint(0, 4) for _ in range(m)]
        budget = sum(costs) + rng.randint(0, 5)
        instance = Instance(
            tuple(F(c) for c in costs),
            (F(budget),) * 3,
            tuple(
                tuple(F(rng.randint(0, 9)) for _ in range(m)) for _ in range(3)
            ),
        )
        out = complete_efx_allocation(instance, range(3), instance.all_goods())
        assert out.unallocated() == frozenset()
        assert is_efx(instance, out)

    announce("6 (property suites, 1000 cases each)")


def test_criterion_7_substituted_component_is_certified():
    # Every guarantee above is exact; the one substituted component is the
    # complete-allocation step (exhaustive search instead of the cited
    # constructive method). Re-certify its contract on a fresh draw.
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 6)
        costs = [rng.randint(0, 3) for _ in range(m)]
        budget = sum(costs) + 1
        instance = Instance(
            tuple(F(c) for c in costs),
            (F(budget),) * 3,
            tuple(
                tuple(F(rng.randint(0, 9)) for _ in range(m)) for _ in range(3)
            ),
        )
        out = complete_efx_allocation(instance, range(3), instance.all_goods())
        assert out.unallocated() == frozenset()
        assert is_efx(instance, out)
    announce("7 (no unreproducible claims; substitute re-certified)")
