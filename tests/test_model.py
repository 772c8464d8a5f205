import random
from fractions import Fraction

import pytest

from budgeted_efx import model
from budgeted_efx.model import (
    Allocation,
    DegenerateOptimumError,
    EfxViolation,
    SearchCapExceededError,
    StructuralError,
    bundle_cost,
    bundle_value,
    efx_envies,
    efx_violation,
    envies,
    is_ef1,
    is_efx,
    is_envy_free,
    knapsack_vmax,
    make_allocation,
    normalize,
    nsw_product,
    to_rational,
)
from budgeted_efx.oracles import is_pareto_efficient, knapsack_by_enumeration
from budgeted_efx.three_agents import preprocess, trim_to_budget_share
from budgeted_efx.two_agents import FeasibilityGraph, build_feasibility_graph, efx_2a

from helpers import (
    build,
    literal_drop_least_holds,
    literal_efx_envies,
    random_instance,
    value_of,
)

F = Fraction


class TestBundleSums:
    def test_t1_pair_costs_one(self, t1):
        assert bundle_cost(t1, {0, 1}) == 1

    def test_empty_bundle_costs_nothing(self, t1):
        assert bundle_cost(t1, frozenset()) == 0

    def test_singleton_cost_is_the_goods_cost(self, t1):
        assert bundle_cost(t1, {2}) == 1
        assert bundle_cost(t1, {0}) == F(1, 2)

    def test_unknown_good_rejected(self, t1):
        with pytest.raises(StructuralError):
            bundle_cost(t1, {7})

    def test_t1_values(self, t1):
        assert bundle_value(t1, 0, {0, 1}) == 1
        assert bundle_value(t1, 1, {2}) == 1
        assert bundle_value(t1, 1, frozenset()) == 0

    def test_unknown_agent_rejected(self, t1):
        with pytest.raises(StructuralError):
            bundle_value(t1, 5, {0})

    def test_boolean_ids_rejected(self, t1):
        with pytest.raises(StructuralError, match="unknown good id True"):
            bundle_cost(t1, {True})
        with pytest.raises(StructuralError, match="unknown good id False"):
            make_allocation(t1, [{False}, set()])
        with pytest.raises(StructuralError, match="unknown agent id True"):
            bundle_value(t1, True, {0})


class TestKnapsack:
    def test_t1_agent2_affords_both_halves(self, t1):
        answer = knapsack_vmax(t1, 1, {0, 1}, 1)
        assert answer.value == F(11, 5)
        assert answer.witness == frozenset({0, 1})

    def test_empty_pool(self, t1):
        answer = knapsack_vmax(t1, 0, frozenset(), 1)
        assert answer.value == 0 and answer.witness == frozenset()

    def test_everything_unaffordable(self):
        inst = build([5, 6], [1], [[9, 9]])
        answer = knapsack_vmax(inst, 0, {0, 1}, 1)
        assert answer.value == 0 and answer.witness == frozenset()

    def test_two_cheaper_goods_beat_the_big_one(self):
        # brute force over all 8 subsets: {1,2} costs 5 and is worth 7
        inst = build([4, 3, 2], [5], [[5, 4, 3]])
        answer = knapsack_vmax(inst, 0, {0, 1, 2}, 5)
        assert answer.value == 7
        assert answer.witness == frozenset({1, 2})

    def test_value_tie_takes_lexicographically_smallest_witness(self):
        inst = build([1, 1], [1], [[5, 5]])
        assert knapsack_vmax(inst, 0, {0, 1}, 1).witness == frozenset({0})

    def test_zero_value_goods_join_the_witness_below_the_top_positive(self):
        # optima are {1} and {0,1}; sorted sequence (0,1) precedes (1,)
        inst = build([0, 0], [0], [[0, 5]])
        answer = knapsack_vmax(inst, 0, {0, 1}, 0)
        assert answer.value == 5
        assert answer.witness == frozenset({0, 1})

    def test_negative_budget_rejected(self, t1):
        with pytest.raises(StructuralError):
            knapsack_vmax(t1, 0, {0}, -1)

    def test_matches_plain_enumeration_on_random_pools(self):
        rng = random.Random(42)
        for _ in range(60):
            inst = random_instance(rng, 2, rng.randint(0, 9))
            pool = frozenset(
                g for g in range(inst.num_goods) if rng.random() < 0.7
            )
            budget = F(rng.randint(0, 25))
            # The integer costs fit b + 1/3 exactly when they fit b.
            for b in (budget, budget + F(1, 3)):
                fast = knapsack_vmax(inst, 0, pool, b)
                value, witness = knapsack_by_enumeration(inst, 0, pool, b)
                assert fast.value == value
                assert fast.witness == witness

    def test_t1_agent1_reaches_one_from_all_goods(self, t1):
        assert knapsack_vmax(t1, 0, t1.all_goods(), 1).value == 1

    def test_zero_budget_sees_only_free_goods(self):
        inst = build([0, 3], [0], [[4, 9]])
        assert knapsack_vmax(inst, 0, inst.all_goods(), 0).value == 4

    def test_all_goods_equals_exhaustive_maximum(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = random_instance(rng, 1, rng.randint(1, 8))
            budget = F(rng.randint(0, 20))
            value, _ = knapsack_by_enumeration(
                inst, 0, inst.all_goods(), budget
            )
            assert knapsack_vmax(inst, 0, inst.all_goods(), budget).value == value

    def test_a_hundred_random_rational_goods_at_half_budget(self):
        # Subset search over 100 goods does not finish; the frontiers of
        # random goods stay small (Beier and Voecking, 2003).
        rng = random.Random(100)
        costs = [F(rng.randint(1, 100), rng.randint(1, 9)) for _ in range(100)]
        values = [F(rng.randint(1, 100), rng.randint(1, 9)) for _ in range(100)]
        budget = sum(costs) / 2
        inst = build(costs, [budget], [values])
        answer = knapsack_vmax(inst, 0, inst.all_goods(), budget)
        assert bundle_cost(inst, answer.witness) <= budget
        assert bundle_value(inst, 0, answer.witness) == answer.value
        assert answer.value > sum(values) / 2


class TestEnvy:
    def test_t1_optimum_leaves_agent2_envious(self, t1):
        opt = make_allocation(t1, [{0, 1}, {2}])
        assert envies(t1, opt, 1, opt.bundles[0])

    def test_no_envy_toward_own_bundle(self, t1):
        opt = make_allocation(t1, [{0, 1}, {2}])
        for i in range(2):
            assert not envies(t1, opt, i, opt.bundles[i])

    def test_no_envy_toward_empty_bundle(self, t1):
        opt = make_allocation(t1, [{0, 1}, {2}])
        assert not envies(t1, opt, 0, frozenset())

    def test_t1_efx_envy_drops_one_half_and_takes_the_other(self, t1):
        assert efx_envies(t1, 1, 1, {0, 1})

    def test_singleton_target_cannot_be_efx_envied(self, t1):
        assert not efx_envies(t1, 0, 0, {2})

    @pytest.mark.parametrize(
        "budget, target",
        [(2, {0, 1}), (1, {0, 1, 2})],
        ids=["sums", "frontiers"],
    )
    def test_an_own_value_between_two_integer_answers(self, budget, target):
        # On both paths the best value after a drop is 3, in units of 1, and
        # an own value of 5/2 falls between two units: 3 beats it, not 3.
        inst = build([1, 1, 1], [budget], [[3, 3, 3]])
        assert efx_envies(inst, F(5, 2), 0, target)
        assert not efx_envies(inst, 3, 0, target)

    def test_two_step_form_agrees_with_literal_quantifiers(self):
        rng = random.Random(11)
        for _ in range(80):
            inst = random_instance(rng, 2, rng.randint(0, 7))
            target = frozenset(
                g for g in range(inst.num_goods) if rng.random() < 0.6
            )
            own = F(rng.randint(0, 12))
            assert efx_envies(inst, own, 0, target) == literal_efx_envies(
                inst, own, 0, target
            )


class TestFairnessPredicates:
    def test_t1_singletons_are_efx(self, t1):
        alloc = make_allocation(t1, [{0}, {1}])
        assert is_efx(t1, alloc)
        assert is_ef1(t1, alloc)

    def test_all_empty_allocation_is_fair(self, t1):
        alloc = make_allocation(t1, [frozenset(), frozenset()])
        assert is_efx(t1, alloc) and is_ef1(t1, alloc)

    def test_t1_optimum_is_not_ef1(self, t1):
        opt = make_allocation(t1, [{0, 1}, {2}])
        assert not is_ef1(t1, opt)
        assert not is_efx(t1, opt)

    @pytest.mark.parametrize("predicate", [is_envy_free, is_efx, is_ef1])
    def test_an_unknown_good_in_a_later_bundle_is_a_structural_error(self, t1, predicate):
        # Agent 0's targets are read before agent 1's own bundle would be.
        alloc = Allocation((frozenset({0}), frozenset({5})), frozenset({0, 5}))
        with pytest.raises(StructuralError, match="unknown good id 5"):
            predicate(t1, alloc)

    @staticmethod
    def tight_third_bundle(agent2_values):
        # Agent 0 affords one of agent 2's goods (cost 2, value 3), so she
        # does not envy that bundle, but the fractional bound of its next
        # good lifts her past her own 3: deciding it takes a frontier.
        inst = build(
            (1, 1, 2, 2, 2, 1),
            (3, 100, 6),
            ((2, 1, 3, 3, 3, 0), (0,) * 6, agent2_values),
        )
        return inst, make_allocation(inst, [{0, 1}, {5}, {2, 3, 4}])

    @pytest.mark.parametrize("predicate", [is_envy_free, is_efx, is_ef1])
    def test_a_failing_sum_is_settled_before_any_bounded_decision(
        self, monkeypatch, predicate
    ):
        # Agent 2 envies agent 0's affordable pair of goods, 5 each, without
        # either one; agent 0's pair with agent 2 comes first, unaffordable.
        inst, alloc = self.tight_third_bundle((5, 5, 1, 1, 1, 0))
        assert predicate(inst, alloc) is False
        monkeypatch.setattr(model, "_FRONTIER_ENTRIES", 0)
        assert predicate(inst, alloc) is False

    @pytest.mark.parametrize("predicate", [is_envy_free, is_efx, is_ef1])
    def test_a_passing_verdict_still_makes_its_bounded_decision(self, monkeypatch, predicate):
        inst, alloc = self.tight_third_bundle((0, 0, 1, 1, 1, 0))
        assert predicate(inst, alloc) is True
        monkeypatch.setattr(model, "_FRONTIER_ENTRIES", 0)
        with pytest.raises(SearchCapExceededError, match="frontiers of agent 0 over 3 goods"):
            predicate(inst, alloc)


class TestAllocationSize:
    """An allocation with one bundle per agent is checked once, on entry;
    too few bundles used to raise a raw IndexError, and extra bundles were
    ignored (is_efx said True, nsw_product said 2); ``preprocess`` raised a
    raw ValueError on either."""

    INSTANCE = build((1, 1, 1), (2, 2), ((1, 2, 3), (3, 2, 1)))
    ENTRY_POINTS = {
        "is_efx": is_efx,
        "is_ef1": is_ef1,
        "is_envy_free": is_envy_free,
        "efx_violation": efx_violation,
        "envies": lambda inst, alloc: envies(inst, alloc, 0, {1}),
        "nsw_product": nsw_product,
        "is_pareto_efficient": is_pareto_efficient,
        "efx_2a": lambda inst, alloc: efx_2a(inst, (0, 1), alloc),
        "preprocess": preprocess,
        "trim_to_budget_share": trim_to_budget_share,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bundles", [({0},), ({0}, {1}, {2})], ids=["fewer", "more"])
    def test_a_mis_sized_allocation_is_a_structural_error(self, entry, bundles):
        alloc = Allocation(tuple(frozenset(b) for b in bundles), self.INSTANCE.all_goods())
        with pytest.raises(StructuralError, match=f"expected 2 bundles, got {len(bundles)}"):
            self.ENTRY_POINTS[entry](self.INSTANCE, alloc)

    def test_make_allocation_gives_the_same_message(self):
        with pytest.raises(StructuralError, match="expected 2 bundles, got 3"):
            make_allocation(self.INSTANCE, [{0}, {1}, {2}])


class TestWelfareProduct:
    def test_t1_optimum_product_is_one(self, t1):
        assert nsw_product(t1, make_allocation(t1, [{0, 1}, {2}])) == 1

    def test_zero_factor_zeroes_the_product(self, t1):
        assert nsw_product(t1, make_allocation(t1, [frozenset(), {2}])) == 0

    def test_t1_singleton_split_product(self, t1):
        assert nsw_product(t1, make_allocation(t1, [{0}, {1}])) == F(11, 20)


class TestNormalize:
    def test_already_normalized_instance_is_unchanged(self, t1):
        inst = build([1, 1], [2, 2], [[1, 0], [0, 1]])
        opt = make_allocation(inst, [{0}, {1}])
        assert normalize(inst, opt) == inst

    def test_values_halve_when_the_optimum_is_worth_two(self):
        inst = build([1, 1], [2, 2], [[2, 0], [0, 3]])
        opt = make_allocation(inst, [{0}, {1}])
        out = normalize(inst, opt)
        assert out.values[0] == (F(1), F(0))
        assert out.values[1] == (F(0), F(1))
        assert out.costs == inst.costs and out.budgets == inst.budgets

    def test_optimum_bundles_worth_one_after_rescaling(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_instance(rng, 2, 5)
            bundles = [set(), set()]
            for g in range(5):
                bundles[rng.randrange(2)].add(g)
            opt = Allocation(
                (frozenset(bundles[0]), frozenset(bundles[1])), inst.all_goods()
            )
            if any(bundle_value(inst, i, opt.bundles[i]) == 0 for i in range(2)):
                with pytest.raises(DegenerateOptimumError):
                    normalize(inst, opt)
                continue
            out = normalize(inst, opt)
            for i in range(2):
                assert bundle_value(out, i, opt.bundles[i]) == 1

    def test_zero_value_optimum_rejected(self):
        inst = build([1], [1, 1], [[0], [1]])
        opt = make_allocation(inst, [frozenset(), {0}])
        with pytest.raises(DegenerateOptimumError):
            normalize(inst, opt)


class TestStructure:
    def test_floats_rejected_everywhere(self):
        with pytest.raises(StructuralError):
            build([0.5], [1], [[1]])

    def test_fractions_pass_through_and_other_inputs_convert(self):
        half = F(1, 2)
        assert to_rational(half) is half
        assert to_rational("6/4") == F(3, 2)
        assert type(to_rational(3)) is Fraction
        with pytest.raises(StructuralError):
            to_rational(0.5)

    def test_negative_quantities_rejected(self):
        for negative in (F(-1, 2), "-1/3"):
            with pytest.raises(StructuralError):
                build([negative], [1], [[1]])
            with pytest.raises(StructuralError):
                build([1], [negative], [[1]])
            with pytest.raises(StructuralError):
                build([1], [1], [[negative]])
        with pytest.raises(StructuralError):
            build([-1], [1], [[1]])
        with pytest.raises(StructuralError):
            build([1], [-1], [[1]])
        with pytest.raises(StructuralError):
            build([1], [1], [[-1]])

    def test_value_row_length_must_match_goods(self):
        with pytest.raises(StructuralError):
            build([1, 1], [1], [[1]])

    def test_overlapping_bundles_rejected(self, t1):
        with pytest.raises(StructuralError):
            make_allocation(t1, [{0, 1}, {1}])

    def test_allocation_outside_scope_rejected(self, t1):
        with pytest.raises(StructuralError):
            make_allocation(t1, [{0}, {2}], scope={0, 1})

    def test_unallocated_pool_is_derived(self, t1):
        alloc = make_allocation(t1, [{0}, {2}])
        assert alloc.unallocated() == frozenset({1})


def rational_assignment(rng: random.Random, n: int, m: int):
    """Costs over mixed denominators, budgets over 11 (which no cost
    denominator divides), values over 1, 2, 5 and 7, and each good given
    to a random agent or left out, whatever the budgets."""
    costs = [F(rng.randint(0, 30), rng.choice((1, 2, 3, 4, 6))) for _ in range(m)]
    budgets = [F(11 * rng.randint(0, 4) + rng.randint(1, 10), 11) for _ in range(n)]
    values = [
        [F(rng.randint(0, 20), rng.choice((1, 2, 5, 7))) for _ in range(m)]
        for _ in range(n)
    ]
    inst = build(costs, budgets, values)
    codes = [rng.randint(0, n) for _ in range(m)]
    bundles = tuple(frozenset(g for g in range(m) if codes[g] == i) for i in range(n))
    return inst, Allocation(bundles, inst.all_goods())


def integer_assignment(rng: random.Random, n: int, m: int):
    """Small integer costs and budgets, so that subsets often cost exactly a
    budget, and each good given to a random agent or left out."""
    inst = random_instance(rng, n, m, cost_hi=6, budget_hi=12)
    codes = [rng.randint(0, n) for _ in range(m)]
    bundles = tuple(frozenset(g for g in range(m) if codes[g] == i) for i in range(n))
    return inst, Allocation(bundles, inst.all_goods())


def tight_pool(rng: random.Random):
    """Agent 0 holds 16 goods costing 50 to 60 (in halves); agent 1 holds one
    good and affords about half of agent 0's bundle. Over the goods h of the
    big bundle, agent 1's best affordable value from it without h takes
    several values; she values her own good at the second largest, so only
    some drops violate EFx."""
    m = 17
    costs = [F(rng.randint(100, 120), 2) for _ in range(m)]
    big = range(16)
    total = sum(costs[g] for g in big)
    budgets = [total, total / 2 + F(1, 3)]
    values = [
        [F(rng.randint(1, 10)) for _ in range(m)],
        [F(rng.randint(1, 30), rng.choice((1, 3))) for _ in range(m)],
    ]
    inst = build(costs, budgets, values)
    drops = sorted(
        {knapsack_vmax(inst, 1, set(big) - {g}, budgets[1]).value for g in big}
    )
    values[1][16] = drops[-2]
    inst = build(costs, budgets, values)
    return inst, make_allocation(inst, [big, {16}])


def certificates(inst, allocation):
    agents = range(inst.num_agents)
    return (
        efx_violation(inst, allocation),
        is_ef1(inst, allocation),
        is_envy_free(inst, allocation),
        build_feasibility_graph(inst, agents, allocation.bundles),
    )


def literal_violation(inst, allocation):
    """The first EFx violation, by agent, target and removed good, each
    ascending, from subset enumeration after each drop."""
    for i in range(inst.num_agents):
        own = value_of(inst, i, allocation.bundles[i])
        for j in range(inst.num_agents):
            if i == j:
                continue
            target = allocation.bundles[j]
            for g in sorted(target):
                value, witness = knapsack_by_enumeration(
                    inst, i, target - {g}, inst.budgets[i]
                )
                if value > own:
                    return EfxViolation(i, j, tuple(sorted(witness | {g})), g)
    return None


def literal_envy_free(inst, allocation):
    return not any(
        knapsack_by_enumeration(inst, i, allocation.bundles[j], inst.budgets[i])[0]
        > value_of(inst, i, allocation.bundles[i])
        for i in range(inst.num_agents)
        for j in range(inst.num_agents)
        if i != j
    )


def literal_graph(inst, allocation):
    """The feasibility graph: an agent's edge to a bundle when its best
    affordable value there is at least its best value after any drop."""
    agents, bundles = tuple(range(inst.num_agents)), allocation.bundles
    edges, rows = set(), []
    for agent in agents:
        budget = inst.budgets[agent]
        row = tuple(knapsack_by_enumeration(inst, agent, b, budget)[0] for b in bundles)
        threshold = max(
            (
                knapsack_by_enumeration(inst, agent, b - {g}, budget)[0]
                for b in bundles
                for g in b
            ),
            default=F(0),
        )
        edges |= {(agent, j) for j, value in enumerate(row) if value >= threshold}
        rows.append(row)
    return FeasibilityGraph(agents, bundles, frozenset(edges), tuple(rows))


class TestLeaveOneOutEngine:
    """The EFx, EF1 and envy predicates and the feasibility graph give the
    certificates of the unpruned oracles."""

    @staticmethod
    def cases():
        rng = random.Random(53)
        cases = [
            draw(rng, rng.choice((2, 3)), rng.randint(1, 8))
            for draw in (rational_assignment, integer_assignment)
            for _ in range(60)
        ]
        return cases + [tight_pool(random.Random(seed)) for seed in (1, 2)]

    def test_certificates_match_the_literal_oracles(self):
        cases = self.cases()
        for inst, allocation in cases[:-2]:
            violation, ef1, envy_free, graph = certificates(inst, allocation)
            assert violation == literal_violation(inst, allocation)
            assert is_efx(inst, allocation) == (violation is None)
            assert (violation is None) == all(
                not literal_efx_envies(
                    inst, value_of(inst, i, allocation.bundles[i]), i, target
                )
                for i in range(inst.num_agents)
                for j, target in enumerate(allocation.bundles)
                if i != j
            )
            assert ef1 == literal_drop_least_holds(inst, allocation)
            assert envy_free == literal_envy_free(inst, allocation)
            assert graph == literal_graph(inst, allocation)
        # On a 16-good bundle the literal EF1 and EFx forms and the graph
        # take seconds; the violation needs one enumeration per drop up to
        # the first violator, and envy one per bundle.
        for inst, allocation in cases[-2:]:
            violation, _, envy_free, _ = certificates(inst, allocation)
            assert violation == literal_violation(inst, allocation)
            assert is_efx(inst, allocation) == (violation is None)
            assert envy_free == literal_envy_free(inst, allocation)

    def test_the_cases_reach_every_branch(self):
        cases = self.cases()
        unaffordable = 0
        for inst, allocation in cases:
            for i in range(inst.num_agents):
                for j in range(inst.num_agents):
                    target = allocation.bundles[j]
                    if i != j and bundle_cost(inst, target) > inst.budgets[i]:
                        unaffordable += 1
        assert unaffordable >= 100
        verdicts = [certificates(*case)[:3] for case in cases]
        assert {violation is None for violation, _, _ in verdicts} == {True, False}
        assert {ef1 for _, ef1, _ in verdicts} == {True, False}
        assert {ef for _, _, ef in verdicts} == {True, False}
        for inst, allocation in cases[-2:]:
            violation = efx_violation(inst, allocation)
            assert (violation.agent, violation.against) == (1, 0)
