import itertools
import random
from fractions import Fraction

import pytest

import budgeted_efx.three_agents as three_agents
from budgeted_efx.instances import gen_instances
from budgeted_efx.model import (
    Allocation,
    Instance,
    InvariantViolationError,
    StructuralError,
    bundle_cost,
    bundle_value,
    is_efx,
    normalize,
    nsw_product,
)
from budgeted_efx.oracles import (
    SearchBudget,
    complete_efx_allocation,
    max_nsw_allocation,
)
from budgeted_efx.three_agents import (
    AlphaParams,
    efx_3a,
    else_procedure,
    equal_budget_procedure,
    preprocess,
    round_robin_self_split,
    trim_to_budget_share,
)

from helpers import build, cost_of, subsets, value_of

F = Fraction
RATIO_FLOOR = F(1, 171) ** 3


def normalized_pipeline_prefix(instance):
    """Replicate the pipeline up to preprocessing: normalized instance in
    budget-ascending order, its optimum, the pool and the set-asides."""
    opt = max_nsw_allocation(instance, range(3), instance.all_goods())
    norm = normalize(instance, opt)
    roles = tuple(sorted(range(3), key=lambda i: (instance.budgets[i], i)))
    work = Instance(
        norm.costs,
        tuple(norm.budgets[i] for i in roles),
        tuple(norm.values[i] for i in roles),
    )
    opt_work = Allocation(tuple(opt.bundles[i] for i in roles), opt.scope)
    pool, setaside = preprocess(work, opt_work)
    return work, opt_work, pool, setaside


class TestPreprocess:
    def test_disjoint_interests_each_take_their_top_good(self):
        inst = build(
            [1, 1, 1, 1, 1, 1],
            [6, 6, 6],
            [
                [9, 4, 0, 0, 0, 0],
                [0, 0, 9, 4, 0, 0],
                [0, 0, 0, 0, 9, 4],
            ],
        )
        opt = max_nsw_allocation(inst, range(3), inst.all_goods())
        norm = normalize(inst, opt)
        pool, setaside = preprocess(norm, opt)
        assert setaside.goods == (0, 2, 4)
        assert pool == frozenset({1, 3, 5})

    def test_matchings_are_weighed_across_agents_exactly(self):
        # Agent 0's values are in tenths and agent 1's in wholes. Goods 1
        # and 0 to agents 0 and 1 weigh 9/10 + 1, the other way round
        # 1 + 0; summed on each agent's own integer row both read 10.
        inst = build(
            [1] * 4, [4] * 3, [[1, F(9, 10), 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]]
        )
        nothing = Allocation((frozenset(),) * 3, inst.all_goods())
        pool, setaside = preprocess(inst, nothing)
        assert setaside.goods == (1, 0, 3)
        assert setaside.values == (F(9, 10), 1, 1)
        assert pool == frozenset({2})

    def test_no_remaining_affordable_good_beats_a_setaside(self):
        rng = random.Random(91)
        for _ in range(30):
            inst = gen_instances(rng.randint(0, 10**6), 1, 3, (4, 8))[0]
            work, opt_work, pool, setaside = normalized_pipeline_prefix(inst)
            for i in range(3):
                for g in pool:
                    if work.costs[g] <= work.budgets[i]:
                        assert setaside.values[i] >= work.values[i][g]

    def test_matching_weight_at_least_the_canonical_own_optimum_pick(self):
        rng = random.Random(92)
        for _ in range(20):
            inst = gen_instances(rng.randint(0, 10**6), 1, 3, (4, 8))[0]
            work, opt_work, pool, setaside = normalized_pipeline_prefix(inst)
            weight = sum(setaside.values)
            canonical = F(0)
            for i in range(3):
                affordable = sorted(
                    (g for g in range(work.num_goods) if work.costs[g] <= work.budgets[i]),
                    key=lambda g: (-work.values[i][g], g),
                )[:3]
                own = [g for g in affordable if g in opt_work.bundles[i]]
                if own:
                    canonical += max(work.values[i][g] for g in own)
            assert weight >= canonical

    def test_optimum_restricted_to_the_pool_meets_a_loss_case(self):
        # after removing the set-asides, some role assignment satisfies one
        # of the three loss patterns (3+0+0, 2+1+0 or 1+1+1 set-asides taken
        # out of the respective optimum bundles); the values bounded are
        # those of the optimum bundles restricted to the remaining goods --
        # a recomputed pool optimum can starve an agent outright when the
        # set-asides leave fewer goods than agents
        rng = random.Random(93)
        for _ in range(12):
            inst = gen_instances(rng.randint(0, 10**6), 1, 3, (4, 8))[0]
            work, opt_work, pool, setaside = normalized_pipeline_prefix(inst)
            vals = [
                bundle_value(work, i, opt_work.bundles[i] & pool) for i in range(3)
            ]
            s = setaside.values
            one = F(1)

            def case_holds(i, j, k, case):
                if case == 1:
                    return (
                        vals[i] >= one - 3 * s[i]
                        and vals[j] >= one
                        and vals[k] >= one
                    )
                if case == 2:
                    return (
                        vals[i] >= one - 2 * s[i]
                        and vals[j] >= one - s[j]
                        and vals[k] >= one
                    )
                return (
                    vals[i] >= one - s[i]
                    and vals[j] >= one - s[j]
                    and vals[k] >= one - s[k]
                )

            assert any(
                case_holds(i, j, k, case)
                for (i, j, k) in itertools.permutations(range(3))
                for case in (1, 2, 3)
            )


class TestTrimming:
    def equal_budget_prefix(self, inst):
        work, opt_work, pool, setaside = normalized_pipeline_prefix(inst)
        b_low = work.budgets[0]
        reduced = Instance(
            tuple(c / b_low for c in work.costs), (F(1),) * 3, work.values
        )
        opt_pool = max_nsw_allocation(reduced, range(3), pool)
        return reduced, opt_pool, setaside

    def test_cheap_bundles_are_not_touched(self):
        inst = build(
            [1, 1, 1],
            [9, 9, 9],
            [[5, 0, 0], [0, 5, 0], [0, 0, 5]],
        )
        opt = max_nsw_allocation(inst, range(3), inst.all_goods())
        trimmed = trim_to_budget_share(inst, opt)
        assert trimmed == opt.bundles

    def test_trimmed_cost_within_a_third_and_value_floor_holds(self):
        rng = random.Random(94)
        for _ in range(15):
            inst = gen_instances(rng.randint(0, 10**6), 1, 3, (4, 8), budget_spread=1)[0]
            reduced, opt_pool, setaside = self.equal_budget_prefix(inst)
            trimmed = trim_to_budget_share(reduced, opt_pool)
            for i in range(3):
                assert bundle_cost(reduced, trimmed[i]) <= F(1, 3)
                floor = bundle_value(reduced, i, opt_pool.bundles[i]) / 3 - setaside.values[i]
                assert bundle_value(reduced, i, trimmed[i]) >= floor

    def test_zero_cost_goods_are_never_dropped(self):
        inst = build(
            [0, 2, 2],
            [2, 2, 2],
            [[1, 9, 9], [1, 1, 1], [1, 1, 1]],
        )
        opt = Allocation((frozenset({0, 1}), frozenset({2}), frozenset()), inst.all_goods())
        trimmed = trim_to_budget_share(inst, opt)
        assert 0 in trimmed[0]

    def test_unequal_budgets_rejected(self, t1):
        inst = build([1], [1, 2, 3], [[1], [1], [1]])
        opt = Allocation((frozenset({0}), frozenset(), frozenset()), inst.all_goods())
        with pytest.raises(StructuralError):
            trim_to_budget_share(inst, opt)


class TestEqualBudgetProcedure:
    def test_per_agent_floors_hold_for_some_role_assignment(self):
        rng = random.Random(95)
        for _ in range(12):
            inst = gen_instances(rng.randint(0, 10**6), 1, 3, (4, 8), budget_spread=1)[0]
            prefix = TestTrimming()
            reduced, opt_pool, setaside = prefix.equal_budget_prefix(inst)
            out = equal_budget_procedure(reduced, opt_pool)
            assert is_efx(reduced, out)
            for i in range(3):
                assert bundle_cost(reduced, out.bundles[i]) <= reduced.budgets[i]
            vals = [bundle_value(reduced, i, out.bundles[i]) for i in range(3)]
            opt_vals = [
                bundle_value(reduced, i, opt_pool.bundles[i]) for i in range(3)
            ]
            s = setaside.values

            def bounds_hold(i, j, k):
                return (
                    vals[i] >= opt_vals[i] / 9 - s[i] / 3
                    and vals[j] >= opt_vals[j] / 9 - 2 * s[j] / 3
                    and vals[k] >= opt_vals[k] / 9 - s[k]
                )

            assert any(
                bounds_hold(i, j, k)
                for (i, j, k) in itertools.permutations(range(3))
            )

    @staticmethod
    def envy_cycle_and_pair(instance, allocation):
        """Whether some envy 3-cycle, and some mutual-envy pair, exists, by
        the literal definition: an affordable subset of the other's bundle
        worth more than the own bundle."""

        def envy(i, j):
            own = value_of(instance, i, allocation.bundles[i])
            return any(
                cost_of(instance, s) <= instance.budgets[i]
                and value_of(instance, i, s) > own
                for s in subsets(allocation.bundles[j])
            )

        edges = {(i, j) for i, j in itertools.permutations(range(3), 2) if envy(i, j)}
        cycle = any(
            {(i, j), (j, k), (k, i)} <= edges
            for i, j, k in itertools.permutations(range(3))
        )
        pair = any({(i, j), (j, i)} <= edges for i, j in itertools.combinations(range(3), 2))
        return cycle, pair

    def test_output_has_no_envy_cycle_and_no_mutual_envy(self, monkeypatch):
        # Generated instances, as (seed, goods range, index), whose
        # equal-budget inputs start the swap loop with a 3-cycle and no
        # mutual pair, with a 3-cycle and a mutual pair (one rotation each),
        # and twice with mutual pairs only (one swap each).
        cases = ((19, (4, 7), 38), (3, (4, 9), 41), (3, (4, 9), 11), (3, (4, 9), 69))
        inputs = []

        def recording(instance, opt_on_pool, search=SearchBudget()):
            inputs.append((instance, opt_on_pool))
            return equal_budget_procedure(instance, opt_on_pool, search)

        monkeypatch.setattr(three_agents, "equal_budget_procedure", recording)
        for seed, goods, idx in cases:
            efx_3a(gen_instances(seed, idx + 1, 3, goods)[idx])
        assert len(inputs) == len(cases)

        starts = []
        for reduced, opt_pool in inputs:
            z = frozenset().union(*trim_to_budget_share(reduced, opt_pool))
            start = complete_efx_allocation(reduced, range(3), z)
            starts.append(self.envy_cycle_and_pair(reduced, start))
            out = equal_budget_procedure(reduced, opt_pool)
            assert self.envy_cycle_and_pair(reduced, out) == (False, False)
        assert starts == [(True, False), (True, True), (False, True), (False, True)]

    def test_envy_cycles_run_out_after_one_pass_per_arrangement(self, monkeypatch):
        # No arrangement of the three bundles recurs, so 3! passes end the
        # loop. Envy that never settles is a bug, found after exactly those
        # 6 passes of 6 envy decisions each.
        calls = []

        def always_envious(instance, agent, target, own):
            calls.append(agent)
            return True

        monkeypatch.setattr(three_agents, "_envious", always_envious)
        inst = build([1] * 3, [3, 3, 3], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        opt = Allocation(tuple(frozenset({g}) for g in range(3)), inst.all_goods())
        with pytest.raises(InvariantViolationError, match="within 6 passes"):
            equal_budget_procedure(inst, opt)
        assert len(calls) == 36


class TestRoundRobinSelfSplit:
    def test_alternation_on_descending_values(self):
        inst = build([1] * 4, [4, 4, 4], [[5, 3, 2, 1]] + [[0] * 4] * 2)
        split = round_robin_self_split(inst, 0, {0, 1, 2, 3})
        assert split.first == frozenset({0, 2})
        assert split.second == frozenset({1, 3})

    def test_empty_pool(self, t1):
        split = round_robin_self_split(t1, 0, frozenset())
        assert split.first == split.second == frozenset()

    def test_parts_differ_by_at_most_one_good(self):
        rng = random.Random(96)
        for _ in range(40):
            m = rng.randint(0, 8)
            inst = build(
                [1] * max(m, 1),
                [9, 9, 9],
                [[rng.randint(0, 9) for _ in range(max(m, 1))] for _ in range(3)],
            )
            pool = frozenset(range(m))
            split = round_robin_self_split(inst, 1, pool)
            v_first = bundle_value(inst, 1, split.first)
            v_second = bundle_value(inst, 1, split.second)
            assert v_first >= v_second
            top = max((inst.values[1][g] for g in pool), default=F(0))
            assert v_second >= v_first - top


class TestPipelineBranches:
    def test_small_instances_return_the_optimum_directly(self):
        inst = build(
            [1, 1, 1],
            [2, 2, 2],
            [[4, 0, 0], [0, 4, 0], [0, 0, 4]],
        )
        result = efx_3a(inst)
        assert result.branch == "small_instance"
        assert result.allocation.bundles == result.opt.bundles
        assert nsw_product(inst, result.allocation) == nsw_product(inst, result.opt)

    def test_both_monopolies_below_threshold_returns_immediately(self):
        inst = build(
            [1, 2, 2, 2, 2],
            [1, 20, 20],
            [
                [3, 0, 0, 0, 0],
                [1, 40, 30, 2, 2],
                [1, 2, 2, 50, 30],
            ],
        )
        result = efx_3a(inst)
        assert result.branch == "else_return1"
        assert result.setaside_goods == (0, 1, 3)
        assert result.setaside_taken == (True, True, True)
        assert result.allocation.bundles == (
            frozenset({0}),
            frozenset({1}),
            frozenset({3}),
        )
        assert nsw_product(inst, result.allocation) == 6000
        assert nsw_product(inst, result.opt) == 16800
        assert is_efx(inst, result.allocation)

        # the three per-agent floors behind the branch guarantee, measured
        # in normalized units against the optimum recomputed on the pool
        norm = normalize(inst, result.opt)
        pool = inst.all_goods() - set(result.setaside_goods)
        opt_pool = max_nsw_allocation(norm, range(3), pool)
        alpha = result.alpha
        finals = [
            bundle_value(norm, i, result.allocation.bundles[i]) for i in range(3)
        ]
        s = result.setaside_values
        roles = result.role_order
        low = roles[0]
        assert finals[low] >= bundle_value(norm, low, opt_pool.bundles[low])
        for i in (roles[1], roles[2]):
            floor = (
                bundle_value(norm, i, opt_pool.bundles[i]) - s[i] - alpha
            ) / 5
            assert finals[i] >= floor

    def test_content_higher_agent_keeps_the_pair_outcome(self):
        inst = build(
            [1, 2, 2, 2, 2, 2, 1],
            [1, 10, 10],
            [
                [5, 0, 0, 0, 0, 0, 6],
                [10, 30, 30, 30, 0, 0, 0],
                [0, 0, 0, 0, 50, 40, 0],
            ],
        )
        result = efx_3a(inst)
        assert result.branch == "else_return2"
        assert result.allocation.bundles == (
            frozenset({6}),
            frozenset({2, 3}),
            frozenset({4}),
        )
        assert nsw_product(inst, result.allocation) == 18000
        assert nsw_product(inst, result.opt) == 54000
        assert is_efx(inst, result.allocation)

    def test_sharing_the_cheap_monopoly_bundle(self):
        inst = build(
            [1, 2, 2, 3, 3, 1],
            [2, 10, 10],
            [
                [5, 0, 0, 0, 0, 6],
                [8, 9, 7, 0, 0, 0],
                [0, 0, 0, 50, 40, 0],
            ],
        )
        result = efx_3a(inst)
        assert result.branch == "else_return3"
        assert result.allocation.bundles == (
            frozenset({5}),
            frozenset({1}),
            frozenset({3}),
        )
        assert nsw_product(inst, result.allocation) == 2700
        assert nsw_product(inst, result.opt) == 15840
        assert is_efx(inst, result.allocation)
        assert any("1 - 11*alpha" in n or "11" in n for n in result.notes)

    def test_lowest_budget_agent_grabs_from_what_the_agent_below_kept(self):
        # Agent 0 affords good 3 or good 4, not both, and takes 3. Agent 1
        # (above the threshold) wants 3 more than her pair bundle {6}, so
        # she takes 3 in the share and agent 0 is left with nothing. Agent
        # 2 (below the threshold) keeps {4} of {4, 5}, and agent 0 grabs it.
        inst = build(
            [1, 1, 1, 6, 6, 20, 1],
            [10, 30, 30],
            [
                [100, 0, 0, 10, 5, 0, 0],
                [0, 100, 0, 20, 0, 0, 10],
                [0, 0, 100, 0, 1, 50, 0],
            ],
        )
        result = efx_3a(inst)
        assert result.branch == "else_return3"
        assert result.setaside_goods == (0, 1, 2)
        assert result.setaside_taken == (True, True, True)
        assert result.monopoly_low == (F(3, 13), F(1, 150))
        assert result.allocation.bundles == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        )
        assert nsw_product(inst, result.allocation) == 1000000
        assert nsw_product(inst, result.opt) == 2047500
        assert is_efx(inst, result.allocation)

        # Every agent then takes her set-aside good, so the grab shows only
        # in the branch's own allocation.
        work, _, pool, _ = normalized_pipeline_prefix(inst)
        allocation, return_point, swapped = else_procedure(work, pool, (True, False))
        assert (return_point, swapped) == (3, False)
        assert allocation.bundles == (frozenset({4}), frozenset({3}), frozenset())
        assert allocation.unallocated() == {5, 6}

    def test_equal_budgets_reduce_to_the_shared_core(self):
        inst = build(
            [2, 2, 2, 2],
            [5, 5, 5],
            [[9, 1, 1, 1], [1, 9, 1, 1], [1, 1, 9, 1]],
        )
        result = efx_3a(inst)
        assert result.branch == "equal_budget"
        assert is_efx(inst, result.allocation)
        final, opt = nsw_product(inst, result.allocation), nsw_product(inst, result.opt)
        assert final >= RATIO_FLOOR * opt

    def test_disjoint_valuations_keep_the_full_welfare(self):
        inst = build(
            [1] * 6,
            [100, 100, 100],
            [
                [10, 0, 0, 0, 0, 0],
                [0, 10, 0, 0, 0, 0],
                [0, 0, 10, 0, 0, 0],
            ],
        )
        result = efx_3a(inst)
        assert nsw_product(inst, result.allocation) == nsw_product(inst, result.opt)
        assert is_efx(inst, result.allocation)

    def test_alpha_above_the_guarantee_limit_is_refused(self, t1):
        inst = build([1] * 4, [2, 2, 2], [[1] * 4] * 3)
        with pytest.raises(StructuralError):
            efx_3a(inst, AlphaParams(F(1, 10)))

    def test_wrong_arity_rejected(self, t1):
        with pytest.raises(StructuralError):
            efx_3a(t1)

    @pytest.mark.parametrize("alpha", [0.02, True, False])
    def test_alpha_as_a_float_or_a_bool_is_refused(self, alpha):
        with pytest.raises(StructuralError, match="is not allowed"):
            AlphaParams(alpha)

    def test_alpha_as_p_over_q_text_is_exact(self):
        assert AlphaParams("1/40").alpha == F(1, 40)
        assert AlphaParams().alpha == F(1, 35)

    @pytest.mark.parametrize("alpha", ["0.02", "1e-2", " 1/50 ", "1_0/500", "+1/50"])
    def test_alpha_text_outside_the_wire_grammar_is_refused(self, alpha):
        with pytest.raises(StructuralError, match="malformed rational"):
            AlphaParams(alpha)

    def test_else_procedure_needs_ascending_budgets(self):
        inst = build([1] * 4, [3, 2, 4], [[1] * 4] * 3)
        with pytest.raises(StructuralError, match="^agents must be indexed by ascending budget$"):
            else_procedure(inst, inst.all_goods(), (False, False))


class TestPipelineInvariants:
    def test_random_instances_meet_every_guarantee(self):
        for inst in gen_instances(97, 15, 3, (4, 9)):
            result = efx_3a(inst)
            assert is_efx(inst, result.allocation)
            for i in range(3):
                assert (
                    bundle_cost(inst, result.allocation.bundles[i])
                    <= inst.budgets[i]
                )
            final, opt = nsw_product(inst, result.allocation), nsw_product(inst, result.opt)
            assert final >= RATIO_FLOOR * opt
            # set-aside swaps only ever help
            taken = [
                i for i in range(3) if result.setaside_taken[i]
            ]
            for i in taken:
                assert result.allocation.bundles[i] == frozenset(
                    {result.setaside_goods[i]}
                )

    def test_identical_runs_produce_identical_results(self):
        inst = gen_instances(98, 1, 3, (5, 9))[0]
        first = efx_3a(inst)
        second = efx_3a(inst)
        assert first == second
