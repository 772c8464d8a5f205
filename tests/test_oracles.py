import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from budgeted_efx import model
from budgeted_efx.instances import gen_instances
from budgeted_efx.model import (
    DegenerateOptimumError,
    Instance,
    InvariantViolationError,
    StructuralError,
    bundle_value,
    is_ef1,
    is_efx,
    knapsack_vmax,
    make_allocation,
    normalize,
    nsw_product,
)
from budgeted_efx.oracles import (
    ExistenceViolationError,
    SearchBudget,
    SearchCapExceededError,
    best_allocation_under_predicate,
    complete_efx_allocation,
    is_pareto_efficient,
    knapsack_by_enumeration,
    leximin_pp_split,
    max_nsw_allocation,
    max_nsw_by_enumeration,
)

from helpers import (
    build,
    literal_best_under_predicate,
    literal_first_complete_efx,
    literal_leximin_pp_split,
    random_instance,
)

F = Fraction


class TestMaxNswAllocation:
    def test_t1_optimum_bundles_and_product(self, t1):
        opt = max_nsw_allocation(t1, (0, 1), t1.all_goods())
        assert opt.bundles == (frozenset({0, 1}), frozenset({2}))
        assert nsw_product(t1, opt) == 1

    def test_single_agent_gets_her_monopoly_value(self):
        rng = random.Random(5)
        for _ in range(15):
            inst = random_instance(rng, 1, rng.randint(1, 7))
            opt = max_nsw_allocation(inst, (0,), inst.all_goods())
            monopoly = knapsack_vmax(inst, 0, inst.all_goods(), inst.budgets[0])
            assert bundle_value(inst, 0, opt.bundles[0]) == monopoly.value

    def test_pruned_search_matches_plain_enumeration(self):
        rng = random.Random(13)
        for _ in range(20):
            inst = random_instance(rng, rng.choice((2, 3)), rng.randint(1, 6))
            fast = max_nsw_allocation(inst, range(inst.num_agents), inst.all_goods())
            slow, slow_product = max_nsw_by_enumeration(
                inst, range(inst.num_agents), inst.all_goods()
            )
            assert nsw_product(inst, fast) == slow_product
            assert fast.bundles == slow.bundles

    def test_cap_exhaustion_is_loud(self, t1):
        with pytest.raises(SearchCapExceededError):
            max_nsw_allocation(t1, (0, 1), t1.all_goods(), SearchBudget(2))

    @pytest.mark.parametrize("cap", ["5", None, 2.5, True])
    def test_a_cap_other_than_an_int_is_refused(self, cap):
        with pytest.raises(StructuralError, match="search budget must be an int"):
            SearchBudget(cap)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_cap_below_one_is_refused(self, cap):
        with pytest.raises(StructuralError, match="search budget must be positive"):
            SearchBudget(cap)

    def test_restricted_pool_stays_inside_pool(self, t1):
        opt = max_nsw_allocation(t1, (0, 1), {0, 2})
        assert opt.allocated() <= {0, 2}
        assert opt.scope == frozenset({0, 2})

    def test_empty_agent_list_rejected(self, t1):
        with pytest.raises(StructuralError):
            max_nsw_allocation(t1, (), t1.all_goods())

    @pytest.mark.parametrize(
        "agents, message",
        [((0, 5), "unknown agent id 5"), ((0, True), "unknown agent id True"),
         ((), "at least one agent required")],
    )
    @pytest.mark.parametrize("search", [max_nsw_allocation, max_nsw_by_enumeration])
    def test_the_oracle_checks_agents_as_the_walk_does(self, t1, search, agents, message):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            search(t1, agents, t1.all_goods())


def rational_instance(rng: random.Random, n: int, m: int):
    """Costs over mixed denominators, budgets over 11 (which no cost
    denominator divides), values normalized by the welfare optimum as the
    three-agent pipeline normalizes them."""
    costs = [F(rng.randint(0, 30), rng.choice((1, 2, 3, 4, 6))) for _ in range(m)]
    budgets = [F(11 * rng.randint(0, 4) + rng.randint(1, 10), 11) for _ in range(n)]
    values = [
        [F(rng.randint(0, 20), rng.choice((1, 2, 5, 7))) for _ in range(m)]
        for _ in range(n)
    ]
    inst = build(costs, budgets, values)
    opt, _ = max_nsw_by_enumeration(inst, range(n), inst.all_goods())
    try:
        return normalize(inst, opt)
    except DegenerateOptimumError:
        return inst


def agents_product(instance, allocation, agents):
    product = F(1)
    for a in agents:
        product *= bundle_value(instance, a, allocation.bundles[a])
    return product


class TestRationalWelfareWalk:
    """The walk searches on integers scaled over common denominators; on
    non-integer inputs it must still agree exactly with the Fraction-based
    enumeration oracles."""

    def test_max_nsw_matches_enumeration_on_rationals(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.choice((2, 3))
            inst = rational_instance(rng, n, rng.randint(1, 6))
            agents = rng.sample(range(n), rng.randint(1, n))
            pool = {g for g in range(inst.num_goods) if rng.random() < 0.8}
            fast = max_nsw_allocation(inst, agents, pool)
            slow, slow_product = max_nsw_by_enumeration(inst, agents, pool)
            assert fast.bundles == slow.bundles
            assert fast.scope == slow.scope
            assert agents_product(inst, fast, agents) == slow_product

    def test_inputs_are_really_non_integer(self):
        rng = random.Random(41)
        insts = [rational_instance(rng, 3, 5) for _ in range(10)]
        assert any(c.denominator > 1 for i in insts for c in i.costs)
        assert all(b.denominator == 11 for i in insts for b in i.budgets)
        assert any(v.denominator > 1 for i in insts for row in i.values for v in row)

    @pytest.mark.parametrize(
        "predicate",
        [is_efx, is_ef1, lambda i, a: True],
        ids=["efx", "ef1", "always"],
    )
    def test_predicate_walk_matches_literal_enumeration_on_rationals(self, predicate):
        rng = random.Random(43)
        for _ in range(25):
            inst = rational_instance(rng, rng.choice((2, 3)), rng.randint(1, 5))
            found = best_allocation_under_predicate(inst, predicate)
            expected = literal_best_under_predicate(inst, predicate)
            if expected is None:
                assert found is None
            else:
                assert found is not None
                assert found[0].bundles == expected[0].bundles
                assert found[1] == expected[1]
                assert type(found[1]) is Fraction


def zero_valued_agent(rng: random.Random):
    """Three agents, and one of them values every good of the pool at 0."""
    inst = random_instance(rng, 3, rng.randint(1, 6))
    pool = {g for g in range(inst.num_goods) if rng.random() < 0.8}
    zero = rng.randrange(3)
    values = [list(row) for row in inst.values]
    for g in pool:
        values[zero][g] = F(0)
    return build(inst.costs, inst.budgets, values), range(3), pool


def single_agent(rng: random.Random):
    inst = rational_instance(rng, 1, rng.randint(1, 7))
    return inst, (0,), inst.all_goods()


def pair_over_partial_pool(rng: random.Random):
    """Agents 1 and 2 over part of the goods, as else_procedure asks."""
    inst = rational_instance(rng, 3, rng.randint(1, 6))
    pool = {g for g in range(inst.num_goods) if rng.random() < 0.7}
    return inst, (1, 2), pool


EDGE_DRAWS = [zero_valued_agent, single_agent, pair_over_partial_pool]
EDGE_IDS = ["zero-valued-agent", "single-agent", "pair-partial-pool"]


class TestExclusivityBoundEdges:
    """Inputs where the exclusivity bound's weights degenerate: an agent
    whose pool value is 0 (its Y is clamped to 1), one agent (the bound is
    the product bound), and two of three agents over part of the goods."""

    @pytest.mark.parametrize("draw", EDGE_DRAWS, ids=EDGE_IDS)
    def test_max_nsw_matches_enumeration(self, draw):
        rng = random.Random(53)
        for _ in range(25):
            inst, agents, pool = draw(rng)
            fast = max_nsw_allocation(inst, agents, pool)
            slow, slow_product = max_nsw_by_enumeration(inst, agents, pool)
            assert fast.bundles == slow.bundles
            assert agents_product(inst, fast, agents) == slow_product

    @pytest.mark.parametrize("draw", EDGE_DRAWS, ids=EDGE_IDS)
    def test_efx_walk_matches_literal_enumeration(self, draw):
        rng = random.Random(53)
        for _ in range(25):
            inst, _, _ = draw(rng)
            found = best_allocation_under_predicate(inst, is_efx)
            expected = literal_best_under_predicate(inst, is_efx)
            assert found is not None and expected is not None
            assert found[0].bundles == expected[0].bundles
            assert found[1] == expected[1]


# Leaves each search ticks, as (gen_instances seed and goods for three
# agents, None for t1, or a built instance; max_nsw_allocation leaves,
# best_allocation_under_predicate(is_efx) leaves). Each count is the
# number of ticks of the current walk: a cap of that many succeeds and one
# less raises. The max_nsw_allocation walk starts from its seeded
# incumbent, so it reaches fewer leaves than the predicate walk. Pruning on
# ``bound < best`` instead of ``bound <= best`` changes the max_nsw count of
# 3x6 and the predicate count of 3x5 (the product bound, where a node's
# bound equals the incumbent), and both counts of the equal-values instance
# (the exclusivity bound, which AM-GM makes tight when every agent values
# every good alike); so each test catches both mutants. Leaving the
# exclusivity cap at 0 after seeding changes the max_nsw counts of 3x6,
# 3x7, 3x8 and equal-values.
EQUAL_VALUES = build([1] * 6, [3] * 3, [[1] * 6] * 3)
SEARCH_SPEND = [
    (None, 4, 4),
    ((17, 6), 60, 103),
    ((16, 7), 8, 316),
    ((17, 8), 4, 308),
    ((1, 5), 12, 212),
    (EQUAL_VALUES, 28, 46),
]
SPEND_IDS = ["t1", "3x6", "3x7", "3x8", "3x5", "equal-values"]


def spend_instance(drawn, t1):
    if drawn is None:
        return t1
    if isinstance(drawn, Instance):
        return drawn
    seed, m = drawn
    return gen_instances(seed, 1, 3, (m, m))[0]


class TestSearchSpend:
    """The cap counts exactly the leaves the walk reaches: a budget of L
    leaves suffices and L - 1 does not. This pins pruning and the place of
    the tick, which a small-cap test alone does not."""

    @pytest.mark.parametrize("drawn, leaves, _", SEARCH_SPEND, ids=SPEND_IDS)
    def test_max_nsw_spends_exactly(self, t1, drawn, leaves, _):
        inst = spend_instance(drawn, t1)
        agents, goods = range(inst.num_agents), inst.all_goods()
        max_nsw_allocation(inst, agents, goods, SearchBudget(leaves))
        with pytest.raises(SearchCapExceededError):
            max_nsw_allocation(inst, agents, goods, SearchBudget(leaves - 1))

    @pytest.mark.parametrize("drawn, _, leaves", SEARCH_SPEND, ids=SPEND_IDS)
    def test_predicate_walk_spends_exactly(self, t1, drawn, _, leaves):
        inst = spend_instance(drawn, t1)
        assert best_allocation_under_predicate(inst, is_efx, SearchBudget(leaves))
        with pytest.raises(SearchCapExceededError):
            best_allocation_under_predicate(inst, is_efx, SearchBudget(leaves - 1))


class TestCompleteEfxAllocation:
    def test_empty_pool_gives_empty_bundles(self):
        inst = build([1, 1], [5, 5, 5], [[1, 1], [1, 1], [1, 1]])
        out = complete_efx_allocation(inst, (0, 1, 2), frozenset())
        assert all(b == frozenset() for b in out.bundles)

    def test_disjoint_interests_get_their_own_goods(self):
        inst = build(
            [1, 1, 1],
            [5, 5, 5],
            [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
        )
        out = complete_efx_allocation(inst, (0, 1, 2), {0, 1, 2})
        assert out.bundles == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_output_allocates_everything_and_is_efx(self):
        rng = random.Random(19)
        for _ in range(25):
            m = rng.randint(0, 7)
            costs = [rng.randint(0, 3) for _ in range(m)]
            budget = sum(costs) + rng.randint(0, 3)
            inst = build(
                costs,
                [budget] * 3,
                [[rng.randint(0, 8) for _ in range(m)] for _ in range(3)],
            )
            out = complete_efx_allocation(inst, (0, 1, 2), inst.all_goods())
            assert out.unallocated() == frozenset()
            assert is_efx(inst, out)

    def test_first_efx_assignment_in_order(self):
        """The same bundles as a literal enumeration's first EFx assignment,
        on draws with fractional values, ties and zeros."""
        rng = random.Random(47)
        drawn = []
        for _ in range(60):
            m = rng.randint(0, 7)
            costs = [F(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(m)]
            budget = sum(costs, F(0)) + F(rng.randint(0, 4), 2)
            values = [
                [F(rng.randint(0, 4), rng.choice((1, 2, 3))) for _ in range(m)]
                for _ in range(3)
            ]
            inst = build(costs, [budget, budget + 1, budget + 2], values)
            pool = {g for g in range(m) if rng.random() < 0.85}
            out = complete_efx_allocation(inst, (0, 1, 2), pool)
            assert out.bundles == literal_first_complete_efx(inst, (0, 1, 2), pool)
            drawn.append(inst)
        values = [v for inst in drawn for row in inst.values for v in row]
        assert any(v.denominator > 1 for v in values)
        assert 0 in values
        assert any(len(set(row)) < len(row) for inst in drawn for row in inst.values)

    # The unpruned enumeration reaches the first EFx assignment of these
    # two at its 45th and 117th leaf; the pruned search reaches 3 and 6.
    @pytest.mark.parametrize(
        "inst, leaves",
        [
            (build([1] * 5, [5] * 3, [[4, 1, 1, 1, 0], [4, 1, 1, 1, 0], [1] * 5]), 3),
            (
                build(
                    [F(1, 2)] * 6,
                    [3] * 3,
                    [[F(1, 2), 1, 2, 3, 0, 1], [3, 2, 1, F(1, 2), 1, 0], [1] * 6],
                ),
                6,
            ),
        ],
        ids=["5-goods", "6-goods"],
    )
    def test_pruned_search_spends_exactly(self, inst, leaves):
        agents, pool = (0, 1, 2), inst.all_goods()
        out = complete_efx_allocation(inst, agents, pool, SearchBudget(leaves))
        assert out.bundles == literal_first_complete_efx(inst, agents, pool)
        with pytest.raises(SearchCapExceededError):
            complete_efx_allocation(inst, agents, pool, SearchBudget(leaves - 1))

    def test_agents_outside_the_three_are_not_checked(self):
        # Agent 3 holds nothing and values each good above her empty bundle,
        # so the allocation is not EFx for the whole instance; the claim is
        # about agents 0, 1 and 2 only.
        inst = build([1] * 4, [10] * 4, [[1] * 4] * 3 + [[5] * 4])
        agents, pool = (0, 1, 2), {0, 1, 2, 3}
        out = complete_efx_allocation(inst, agents, pool)
        assert out.bundles == literal_first_complete_efx(inst, agents, pool)
        assert not is_efx(inst, out)

    def test_agent_ids_map_back_on_a_four_agent_instance(self):
        """Agents 1, 2 and 3 get the parts of search positions 0, 1 and 2,
        and agent 0 gets nothing, as in the literal enumeration."""
        rng = random.Random(61)
        for _ in range(30):
            m = rng.randint(0, 6)
            costs = [rng.randint(0, 4) for _ in range(m)]
            budgets = [rng.randint(0, 30)] + [sum(costs) + rng.randint(0, 3) for _ in range(3)]
            values = [[rng.randint(0, 5) for _ in range(m)] for _ in range(4)]
            inst = build(costs, budgets, values)
            pool = {g for g in range(m) if rng.random() < 0.85}
            out = complete_efx_allocation(inst, (3, 1, 2), pool)
            assert out.bundles == literal_first_complete_efx(inst, (1, 2, 3), pool)
            assert out.bundles[0] == frozenset()
            assert out.scope == frozenset(pool)

    def test_unaffordable_pool_rejected(self):
        inst = build([5, 5], [4, 9, 9], [[1, 1]] * 3)
        with pytest.raises(StructuralError):
            complete_efx_allocation(inst, (0, 1, 2), {0, 1})

    def test_requires_exactly_three_agents(self, t1):
        with pytest.raises(StructuralError):
            complete_efx_allocation(t1, (0, 1), {0})


class TestLeximinSplit:
    def test_equal_halves_split_one_each(self, t1):
        # the two 1/2-cost goods of the fixture, valued 1/2 each by agent 0
        def u(part):
            return knapsack_vmax(t1, 0, part, t1.budgets[0]).value

        split = leximin_pp_split({0, 1}, u)
        assert split.first == frozenset({0})
        assert split.second == frozenset({1})

    def test_empty_pool(self):
        split = leximin_pp_split(frozenset(), lambda s: F(0))
        assert split.first == split.second == frozenset()

    def test_singleton_goes_to_first(self):
        values = {frozenset(): F(0), frozenset({3}): F(7)}
        split = leximin_pp_split({3}, lambda s: values[frozenset(s)])
        assert split.first == frozenset({3})
        assert split.second == frozenset()

    def test_second_part_not_worse_than_first_after_any_removal(self):
        rng = random.Random(23)
        for _ in range(40):
            inst = random_instance(rng, 1, rng.randint(0, 6))

            def u(part):
                return knapsack_vmax(inst, 0, part, inst.budgets[0]).value

            split = leximin_pp_split(inst.all_goods(), u)
            assert u(split.first) >= u(split.second)
            for g in split.first:
                assert u(split.second) >= u(split.first - {g})

    @pytest.mark.parametrize("n", range(6))
    def test_each_subset_is_valued_once(self, n):
        valued = []

        def u(part):
            valued.append(part)
            return F(sum(part))

        leximin_pp_split(range(n), u)
        assert len(valued) == 2**n
        assert len(set(valued)) == 2**n

    def test_a_split_past_the_frontier_cap_raises_before_valuing(self):
        valued = []
        with pytest.raises(SearchCapExceededError, match="2\\^22 subsets"):
            leximin_pp_split(range(22), valued.append)
        assert valued == []

    @settings(deadline=None, max_examples=200)
    @given(
        st.frozensets(st.integers(0, 30), max_size=8),
        st.sampled_from(["len", "constant", "sum_mod_plus_len"]),
        st.lists(st.integers(0, 5), min_size=31, max_size=31),
        st.integers(1, 4),
    )
    def test_matches_the_literal_split_under_ties(self, pool, kind, weights, k):
        # Tie-heavy valuations: many partitions share the top signature, so
        # the smallest sorted preferred part decides.
        valuation = {
            "len": len,
            "constant": lambda part: 3,
            "sum_mod_plus_len": lambda part: sum(weights[g] for g in part) % k + len(part),
        }[kind]
        split = leximin_pp_split(pool, valuation)
        assert (split.first, split.second) == literal_leximin_pp_split(pool, valuation)

    def test_a_14_good_split_keeps_only_keys(self):
        # One frozenset per subset takes about 13.5 MB here; the keys under 1.
        tracemalloc.start()
        try:
            leximin_pp_split(range(14), lambda part: sum(part) % 3 + len(part))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024


def test_a_knapsack_enumeration_past_the_frontier_cap_raises_before_allocating():
    m = 22
    inst = Instance((1,) * m, (5,), ((1,) * m,))
    tracemalloc.start()
    try:
        with pytest.raises(SearchCapExceededError, match="2\\^22 subsets"):
            knapsack_by_enumeration(inst, 0, range(m), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_subset_searches_read_the_frontier_cap_of_the_model(monkeypatch):
    # 2^4 subsets are past a cap of 8 entries wherever the cap is read.
    monkeypatch.setattr(model, "_FRONTIER_ENTRIES", 8)
    past = "of 4 goods would value 2\\^4 subsets, past the cap of 8$"
    with pytest.raises(SearchCapExceededError, match="^leximin split " + past):
        leximin_pp_split(range(4), len)
    inst = Instance((1,) * 4, (2,), ((1,) * 4,))
    with pytest.raises(SearchCapExceededError, match="^knapsack enumeration " + past):
        knapsack_by_enumeration(inst, 0, range(4), 2)


def test_an_existence_violation_is_an_invariant_violation():
    assert issubclass(ExistenceViolationError, InvariantViolationError)


class TestBestUnderPredicate:
    def test_t1_best_ef1_is_the_singleton_split(self, t1):
        from budgeted_efx.model import is_ef1

        found = best_allocation_under_predicate(t1, is_ef1)
        assert found is not None
        allocation, product = found
        assert allocation.bundles == (frozenset({0}), frozenset({1}))
        assert product == F(11, 20)

    def test_trivial_predicate_recovers_the_welfare_optimum(self, t1):
        found = best_allocation_under_predicate(t1, lambda i, a: True)
        assert found is not None
        allocation, product = found
        opt = max_nsw_allocation(t1, (0, 1), t1.all_goods())
        assert product == nsw_product(t1, opt)
        assert allocation.bundles == opt.bundles

    def test_efx_never_beats_ef1_never_beats_unconstrained(self):
        from budgeted_efx.model import is_ef1

        rng = random.Random(31)
        for _ in range(10):
            inst = random_instance(rng, 2, rng.randint(1, 5))
            best_efx = best_allocation_under_predicate(inst, is_efx)[1]
            best_ef1 = best_allocation_under_predicate(inst, is_ef1)[1]
            unconstrained = nsw_product(
                inst, max_nsw_allocation(inst, (0, 1), inst.all_goods())
            )
            assert best_efx <= best_ef1 <= unconstrained

    def test_unsatisfiable_predicate_returns_none(self, t1):
        assert best_allocation_under_predicate(t1, lambda i, a: False) is None

    @pytest.mark.parametrize(
        "predicate",
        [is_efx, is_ef1, lambda i, a: True, lambda i, a: False],
        ids=["efx", "ef1", "always", "never"],
    )
    def test_matches_literal_enumeration(self, predicate):
        rng = random.Random(37)
        for _ in range(40):
            inst = random_instance(rng, rng.choice((2, 3)), rng.randint(0, 5))
            found = best_allocation_under_predicate(inst, predicate)
            expected = literal_best_under_predicate(inst, predicate)
            if expected is None:
                assert found is None
            else:
                assert found is not None
                assert (found[0].bundles, found[1]) == (
                    expected[0].bundles,
                    expected[1],
                )

    def test_cap_exhaustion_is_loud(self, t1):
        with pytest.raises(SearchCapExceededError):
            best_allocation_under_predicate(t1, is_efx, SearchBudget(2))


class TestParetoEfficiency:
    def test_t1_optimum_is_pareto_efficient(self, t1):
        assert is_pareto_efficient(t1, make_allocation(t1, [{0, 1}, {2}]))

    def test_t1_singleton_split_is_dominated(self, t1):
        # enumeration finds ({0,1},{2}) dominating ({0},{1})
        assert not is_pareto_efficient(t1, make_allocation(t1, [{0}, {1}]))

    def test_leaving_a_valued_affordable_good_idle_is_inefficient(self):
        inst = build([1], [2, 2], [[3], [0]])
        empty = make_allocation(inst, [frozenset(), frozenset()])
        assert not is_pareto_efficient(inst, empty)
