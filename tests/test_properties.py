"""Property tests for the invariants the solvers rely on."""

import math
import operator
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from budgeted_efx import cli, model, oracles
from budgeted_efx.instances import rational_from_json, rational_to_json
from budgeted_efx.model import (
    Allocation,
    DegenerateOptimumError,
    bundle_cost,
    bundle_value,
    efx_envies,
    efx_violation,
    envies,
    is_ef1,
    is_efx,
    knapsack_vmax,
    nsw_product,
)
from budgeted_efx.oracles import (
    SearchBudget,
    is_pareto_efficient,
    knapsack_by_enumeration,
    leximin_pp_split,
    max_nsw_allocation,
    max_nsw_by_enumeration,
)
from budgeted_efx.two_agents import build_feasibility_graph, efx_2a, select_perfect_matching

from helpers import (
    build,
    cost_of,
    literal_drop_least_holds,
    literal_ef1_holds,
    literal_efx_envies,
    literal_pareto_efficient,
    random_feasible_allocation,
    value_of,
)

F = Fraction

rationals = st.fractions(min_value=0, max_value=12, max_denominator=4)


@st.composite
def instances(
    draw, n_agents=st.integers(1, 3), n_goods=st.integers(0, 6), numbers=rationals
):
    n = draw(n_agents)
    m = draw(n_goods)
    costs = tuple(draw(numbers) for _ in range(m))
    budgets = tuple(draw(numbers) for _ in range(n))
    values = tuple(tuple(draw(numbers) for _ in range(m)) for _ in range(n))
    return build(costs, budgets, values)


@st.composite
def instance_with_pool(draw):
    inst = draw(instances())
    pool = frozenset(
        g for g in range(inst.num_goods) if draw(st.booleans())
    )
    return inst, pool


@st.composite
def instance_with_allocation(draw, n_goods=st.integers(0, 7)):
    """Any assignment of the goods, budget-feasible or not; code n leaves a
    good unallocated."""
    inst = draw(instances(n_agents=st.integers(2, 3), n_goods=n_goods))
    n = inst.num_agents
    codes = [draw(st.integers(0, n)) for _ in range(inst.num_goods)]
    bundles = tuple(
        frozenset(g for g, code in enumerate(codes) if code == i) for i in range(n)
    )
    return inst, Allocation(bundles, inst.all_goods())


@settings(deadline=None, max_examples=200)
@given(
    instances(
        n_goods=st.integers(0, 8),
        numbers=st.fractions(min_value=0, max_value=50, max_denominator=30),
    ),
    st.data(),
)
def test_bundle_sums_match_literal_fraction_sums(inst, data):
    """The integer form gives back each Fraction sum, on rows whose
    denominators differ from good to good."""
    goods = st.integers(0, inst.num_goods - 1) if inst.num_goods else st.nothing()
    bundle = data.draw(st.frozensets(goods))
    assert bundle_cost(inst, bundle) == cost_of(inst, bundle)
    for agent in range(inst.num_agents):
        assert bundle_value(inst, agent, bundle) == value_of(inst, agent, bundle)


@settings(deadline=None)
@given(instance_with_pool(), st.integers(0, 2))
def test_dropping_a_good_costs_at_most_that_goods_best_value(data, agent_pick):
    inst, pool = data
    agent = agent_pick % inst.num_agents
    budget = inst.budgets[agent]
    whole = knapsack_vmax(inst, agent, pool, budget).value
    for g in pool:
        rest = knapsack_vmax(inst, agent, pool - {g}, budget).value
        alone = knapsack_vmax(inst, agent, {g}, budget).value
        assert rest >= whole - alone


@settings(deadline=None)
@given(instance_with_pool(), st.integers(0, 2), rationals)
def test_achievable_value_monotone_in_pool_and_budget(data, agent_pick, extra):
    inst, pool = data
    agent = agent_pick % inst.num_agents
    budget = inst.budgets[agent]
    base = knapsack_vmax(inst, agent, pool, budget).value
    assert knapsack_vmax(inst, agent, inst.all_goods(), budget).value >= base
    assert knapsack_vmax(inst, agent, pool, budget + extra).value >= base


@settings(deadline=None)
@given(instance_with_pool(), st.integers(0, 2), rationals)
def test_knapsack_agrees_with_subset_enumeration(data, agent_pick, free_budget):
    """At the agent's budget, and at a budget drawn apart from the instance,
    whose denominator need not divide the instance's cost scale."""
    inst, pool = data
    agent = agent_pick % inst.num_agents
    for budget in (inst.budgets[agent], free_budget):
        fast = knapsack_vmax(inst, agent, pool, budget)
        value, witness = knapsack_by_enumeration(inst, agent, pool, budget)
        assert fast.value == value and fast.witness == witness


@settings(deadline=None)
@given(instances(n_agents=st.integers(2, 3)), st.integers(0, 10**6))
def test_efx_implies_ef1(inst, seed):
    allocation = random_feasible_allocation(random.Random(seed), inst)
    if is_efx(inst, allocation):
        assert is_ef1(inst, allocation)


@settings(deadline=None, max_examples=200)
@given(instance_with_allocation())
def test_ef1_matches_its_literal_form(data):
    inst, allocation = data
    holds = is_ef1(inst, allocation)
    assert holds == literal_drop_least_holds(inst, allocation)
    if holds:
        assert literal_ef1_holds(inst, allocation)


# The only good is over every budget: the walk ignores budgets, so handing
# it to the agent who values it is efficient, and leaving it out is not.
@example((build([5], [1, 1], [[3], [0]]), Allocation((frozenset({0}), frozenset()), {0})))
@example((build([5], [1, 1], [[3], [0]]), Allocation((frozenset(), frozenset()), {0})))
@settings(deadline=None)
@given(instance_with_allocation(n_goods=st.integers(0, 6)))
def test_pareto_walk_matches_its_literal_form(data):
    inst, allocation = data
    assert is_pareto_efficient(inst, allocation) == literal_pareto_efficient(inst, allocation)


@settings(deadline=None, max_examples=200)
@given(instance_with_allocation(), st.integers(0, 2), st.integers(0, 2))
def test_envy_matches_subset_enumeration(data, agent_pick, target_pick):
    inst, allocation = data
    agent = agent_pick % inst.num_agents
    target = allocation.bundles[target_pick % inst.num_agents]
    best, _ = knapsack_by_enumeration(inst, agent, target, inst.budgets[agent])
    own = bundle_value(inst, agent, allocation.bundles[agent])
    assert envies(inst, allocation, agent, target) == (best > own)


@settings(deadline=None)
@given(instance_with_pool(), rationals)
def test_efx_envy_two_step_form_matches_the_literal_form(data, own):
    inst, target = data
    assert efx_envies(inst, own, 0, target) == literal_efx_envies(
        inst, own, 0, target
    )


@st.composite
def bundles_and_own_values(draw):
    """One agent and a bundle of 0-8 goods: zero costs, values and budgets
    are likely, and the own value may be negative."""
    numbers = st.one_of(st.just(F(0)), rationals)
    m = draw(st.integers(0, 8))
    costs = [draw(numbers) for _ in range(m)]
    values = [draw(numbers) for _ in range(m)]
    own = draw(st.fractions(min_value=-2, max_value=12, max_denominator=4))
    return build(costs, [draw(numbers)], [values]), own


# An empty bundle costs nothing and is envied at a negative own value, but
# has no good to drop.
@example((build([], [0], [[]]), F(-1)))
@settings(deadline=None)
@given(bundles_and_own_values())
def test_efx_envy_is_envy_or_one_sum(case):
    # The reduction the EFx and EF1 predicates and the feasibility graph
    # stand on, checked on the unpruned oracles: a bundle the agent cannot
    # afford whole is EFx-envied exactly when it is envied, and an
    # affordable one when it is worth more than ``own`` without its least
    # valued good.
    inst, own = case
    goods, budget = inst.all_goods(), inst.budgets[0]
    literal = literal_efx_envies(inst, own, 0, goods)
    if cost_of(inst, goods) > budget:
        assert literal == (knapsack_by_enumeration(inst, 0, goods, budget)[0] > own)
    else:
        vals = inst.values[0]
        assert literal == (bool(goods) and value_of(inst, 0, goods) - min(vals) > own)
    assert efx_envies(inst, own, 0, goods) == literal


@st.composite
def knapsack_pools(draw):
    """Costs, values and a budget of 0-12 goods. Zero costs and zero values
    are likely, some goods share one value density, every number may be a
    fraction, and the budget is a share of the total cost."""
    numbers = st.one_of(rationals, st.just(F(0)))
    density = draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
    costs = [draw(numbers) for _ in range(draw(st.integers(0, 12)))]
    values = [c * density if draw(st.booleans()) else draw(numbers) for c in costs]
    share = draw(st.fractions(min_value=0, max_value=1, max_denominator=10))
    return costs, values, sum(costs) * share


# The densities of these two goods, 1 - 1/(10^17 - 1) and 1, round to one
# float; the fractional-knapsack bound holds only in the exact order.
@example(([10**17 - 1, 10**17], [10**17 - 2, 10**17], 10**17), F(0))
@settings(deadline=None)
@given(knapsack_pools(), rationals)
def test_the_envy_decision_matches_subset_enumeration(pool, extra):
    costs, values, budget = pool
    inst = build(costs, [budget], [values])
    goods = inst.all_goods()
    best, _ = knapsack_by_enumeration(inst, 0, goods, budget)
    drops = [knapsack_by_enumeration(inst, 0, goods - {g}, budget)[0] for g in goods]
    int_costs, int_values = list(inst._int_costs), list(inst._int_values[0])
    # One unit of the agent's integer form on either side of the optimum.
    unit = F(1, inst._value_scales[0])
    for own in (best - unit, best, best + unit, extra):
        scaled = math.floor(own / unit)
        beats = model._beats(int_costs, int_values, inst._int_budgets[0], scaled, 0)
        assert beats == (best > own)
        assert efx_envies(inst, own, 0, goods) == any(d > own for d in drops)
        if own >= 0:
            # Agent 0 holds one more good, free and worth ``own``.
            holder = build([*costs, 0], [budget], [[*values, own]])
            allocation = Allocation((frozenset({len(costs)}),), holder.all_goods())
            assert envies(holder, allocation, 0, goods) == (best > own)


@settings(deadline=None)
@given(instances(n_agents=st.integers(2, 3)), st.integers(0, 10**6))
def test_efx_violation_agrees_with_the_literal_form_and_its_witness_holds(inst, seed):
    allocation = random_feasible_allocation(random.Random(seed), inst)
    bundles = allocation.bundles
    literal = any(
        literal_efx_envies(inst, value_of(inst, i, bundles[i]), i, bundles[j])
        for i in range(inst.num_agents)
        for j in range(inst.num_agents)
        if i != j
    )
    violation = efx_violation(inst, allocation)
    assert (violation is None) == (not literal)
    if violation is not None:
        agent = violation.agent
        subset = frozenset(violation.subset)
        assert agent != violation.against
        assert violation.removed_good in subset
        assert subset <= bundles[violation.against]
        kept = subset - {violation.removed_good}
        assert cost_of(inst, kept) <= inst.budgets[agent]
        assert value_of(inst, agent, kept) > value_of(inst, agent, bundles[agent])


@settings(deadline=None)
@given(instances(n_agents=st.integers(1, 2), n_goods=st.integers(0, 5)))
def test_split_parts_are_ordered_and_efx_compatible(inst):
    budget = inst.budgets[0]

    def u(part):
        return knapsack_vmax(inst, 0, part, budget).value

    split = leximin_pp_split(inst.all_goods(), u)
    assert split.first | split.second == inst.all_goods()
    assert not split.first & split.second
    assert u(split.first) >= u(split.second)
    for g in split.first:
        assert u(split.second) >= u(split.first - {g})


@settings(deadline=None)
@given(instances(n_agents=st.integers(2, 3), n_goods=st.integers(0, 5)), st.integers(0, 10**6))
def test_welfare_search_dominates_random_feasible_allocations(inst, seed):
    best = max_nsw_allocation(inst, range(inst.num_agents), inst.all_goods())
    sample = random_feasible_allocation(random.Random(seed), inst)
    assert nsw_product(inst, best) >= nsw_product(inst, sample)


@settings(deadline=None)
@given(instances(n_agents=st.just(2), n_goods=st.integers(2, 6)), st.integers(0, 10**6))
def test_two_edges_guarantee_a_perfect_matching(inst, seed):
    rng = random.Random(seed)
    goods = list(range(inst.num_goods))
    rng.shuffle(goods)
    cut1 = rng.randint(0, len(goods))
    cut2 = rng.randint(cut1, len(goods))
    bundles = (
        frozenset(goods[:cut1]),
        frozenset(goods[cut1:cut2]),
        frozenset(goods[cut2:]),
    )
    graph = build_feasibility_graph(inst, (0, 1), bundles)
    if any(sum(i == pos for i, _ in graph.edges) >= 2 for pos in range(2)):
        assert select_perfect_matching(graph, 1, 0) is not None


@settings(deadline=None, max_examples=60)
@given(instances(n_agents=st.just(2), n_goods=st.integers(0, 6)))
def test_pair_procedure_guarantees_hold_from_the_optimal_seed(inst):
    opt = max_nsw_allocation(inst, (0, 1), inst.all_goods())
    result = efx_2a(inst, (0, 1), opt)
    assert is_efx(inst, result.allocation)
    assert 2 * nsw_product(inst, result.allocation) >= nsw_product(inst, opt)
    out = [bundle_value(inst, i, result.allocation.bundles[i]) for i in range(2)]
    seed_vals = [bundle_value(inst, i, opt.bundles[i]) for i in range(2)]
    if result.envier is None:
        assert out[0] >= seed_vals[0] and out[1] >= seed_vals[1]
    else:
        envied = 1 - result.envier
        assert out[result.envier] >= seed_vals[result.envier]
        assert 2 * out[envied] >= seed_vals[envied]


# Budgets are zero often: a zero budget leaves an agent only free goods.
budgets_with_zeros = st.one_of(st.just(F(0)), rationals)


@st.composite
def welfare_instances(draw):
    """2 agents and 0 to 8 goods, or 3 agents and 0 to 7 goods: the
    unpruned enumeration visits (k + 1)^m assignments."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(0, 8 if n == 2 else 7))
    costs = [draw(rationals) for _ in range(m)]
    budgets = [draw(budgets_with_zeros) for _ in range(n)]
    values = [[draw(rationals) for _ in range(m)] for _ in range(n)]
    return build(costs, budgets, values)


THREE_BY_EIGHT = build(
    [F(1, 2), 3, 0, F(7, 4), 2, F(5, 3), 1, 4],
    [F(9, 2), 0, 6],
    [
        [3, F(1, 2), 0, 5, 2, 1, F(7, 3), 4],
        [2, 2, F(3, 4), 0, 1, 6, 1, F(1, 2)],
        [F(5, 2), 0, 4, 3, F(2, 3), 1, 2, 2],
    ],
)


def _welfare_form(inst):
    # The seed's inputs: costs, budgets and value rows on the integer form.
    goods = range(inst.num_goods)
    return (
        [inst._int_costs[g] for g in goods],
        list(inst._int_budgets),
        [[row[g] for g in goods] for row in inst._int_values],
    )


@example(THREE_BY_EIGHT)
@settings(deadline=None, max_examples=80)
@given(welfare_instances())
def test_the_seeded_welfare_walk_matches_the_enumeration(inst):
    """The seed starts the incumbent below the optimum, so the walk still
    returns the first optimum in assignment order."""
    agents, goods = range(inst.num_agents), inst.all_goods()
    expected, product = max_nsw_by_enumeration(inst, agents, goods)
    found = max_nsw_allocation(inst, agents, goods)
    assert found.bundles == expected.bundles
    assert nsw_product(inst, found) == product


@example(THREE_BY_EIGHT)
@settings(deadline=None, max_examples=200)
@given(welfare_instances())
def test_the_seed_never_exceeds_the_optimum(inst):
    """Against the walk's optimum, which the test above pins to the
    enumeration's."""
    agents = range(inst.num_agents)
    product = nsw_product(inst, max_nsw_allocation(inst, agents, inst.all_goods()))
    seed = oracles._seed_product(*_welfare_form(inst))
    assert seed <= product * math.prod(inst._value_scales)


@settings(deadline=None, max_examples=200)
@given(instance_with_allocation())
def test_report_fields_match_their_fraction_sums(data):
    """The report's integer pass against Fraction sums, on any assignment,
    budget-feasible or not."""
    inst, allocation = data
    report, _ = cli._base_report(inst, "any", allocation)
    values = [value_of(inst, i, b) for i, b in enumerate(allocation.bundles)]
    costs = [cost_of(inst, b) for b in allocation.bundles]
    assert report["agent_values"] == [rational_to_json(v) for v in values]
    assert report["agent_costs"] == [rational_to_json(c) for c in costs]
    assert report["budgets"] == [rational_to_json(b) for b in inst.budgets]
    assert report["nsw_product"] == rational_to_json(math.prod(values, start=F(1)))
    assert report["budget_feasible"] == all(map(operator.le, costs, inst.budgets))
    assert report["efx"]["pass"] == is_efx(inst, allocation)


def _check(name, lhs, rhs):
    return {
        "name": name,
        "lhs": rational_to_json(lhs),
        "rhs": rational_to_json(rhs),
        "pass": lhs >= rhs,
    }


@settings(deadline=None, max_examples=60)
@given(instances(n_agents=st.just(2), n_goods=st.integers(0, 6), numbers=rationals))
def test_pair_ratio_checks_match_fraction_arithmetic(inst):
    report = cli._solve_report(inst, "efx2", SearchBudget())
    seed = [value_of(inst, i, b) for i, b in enumerate(report["seed_allocation"]["bundles"])]
    out = [value_of(inst, i, b) for i, b in enumerate(report["allocation"]["bundles"])]
    expected = [_check("product_at_least_half_of_seed", out[0] * out[1] * 2, seed[0] * seed[1])]
    envier = report["trace"]["envier"]
    if envier is not None:
        envied = 1 - envier
        expected.append(_check("envier_keeps_input_value", out[envier], seed[envier]))
        expected.append(_check("envied_keeps_half_input_value", out[envied] * 2, seed[envied]))
    assert report["seed_product"] == rational_to_json(seed[0] * seed[1])
    assert report["ratio_checks"] == expected


@settings(deadline=None, max_examples=60)
@given(instances(n_agents=st.just(3), n_goods=st.integers(0, 6), numbers=rationals))
def test_three_agent_ratio_check_matches_fraction_arithmetic(inst):
    try:
        report = cli._solve_report(inst, "efx3", SearchBudget())
    except DegenerateOptimumError:
        return  # some agent values her optimum bundle at 0
    bundles = report["allocation"]["bundles"]
    final = math.prod((value_of(inst, i, b) for i, b in enumerate(bundles)), start=F(1))
    opt = rational_from_json(report["opt_product"])
    assert report["ratio_checks"] == [
        _check("product_at_least_opt_over_171_cubed", final, opt / 171**3)
    ]
