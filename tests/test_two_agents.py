import random
from fractions import Fraction

import pytest

from budgeted_efx.model import (
    InvariantViolationError,
    StructuralError,
    bundle_cost,
    bundle_value,
    efx_envies,
    envies,
    is_efx,
    knapsack_vmax,
    make_allocation,
    nsw_product,
)
from budgeted_efx import two_agents
from budgeted_efx.oracles import leximin_pp_split, max_nsw_allocation
from budgeted_efx.two_agents import (
    build_feasibility_graph,
    efx_2a,
    select_perfect_matching,
)

from helpers import build, random_instance

F = Fraction


def pair_is_efx(instance, allocation, pair):
    for i in pair:
        own = bundle_value(instance, i, allocation.bundles[i])
        for j in pair:
            if i != j and efx_envies(instance, own, i, allocation.bundles[j]):
                return False
    return True


def assert_result_invariants(instance, seed_alloc, result, pair=(0, 1)):
    a, b = pair
    # EFx between the pair, budget-feasible, disjoint
    assert pair_is_efx(instance, result.allocation, pair)
    for i in pair:
        assert (
            bundle_cost(instance, result.allocation.bundles[i])
            <= instance.budgets[i]
        )
    # value floors: the envier keeps her input value, the envied keeps half;
    # the quick-return branches improve both
    inputs = {i: bundle_value(instance, i, seed_alloc.bundles[i]) for i in pair}
    outputs = {
        i: bundle_value(instance, i, result.allocation.bundles[i]) for i in pair
    }
    if result.envier is None:
        assert outputs[a] >= inputs[a] and outputs[b] >= inputs[b]
    else:
        envied = b if result.envier == a else a
        assert outputs[result.envier] >= inputs[result.envier]
        assert 2 * outputs[envied] >= inputs[envied]
    # welfare floor follows
    assert 2 * outputs[a] * outputs[b] >= inputs[a] * inputs[b]
    # nobody envies the unallocated bundle
    for i in pair:
        assert not envies(instance, result.allocation, i, result.unallocated_r)
    # left-out goods sit inside the lower-budget agent's matched bundle
    lower, higher = sorted(pair, key=lambda i: (instance.budgets[i], i))
    matched_of = {a: result.matched[0], b: result.matched[1]}
    assert result.leftout_rprime <= matched_of[lower]
    # the higher-budget agent's matched bundle is fully allocated
    assert matched_of[higher] == result.allocation.bundles[higher]
    if instance.budgets[a] == instance.budgets[b]:
        assert result.leftout_rprime == frozenset()
    # the lower-budget agent does not envy the left-out part, the other
    # does not EFx-envy it
    assert not envies(instance, result.allocation, lower, result.leftout_rprime)
    assert not efx_envies(
        instance,
        bundle_value(instance, higher, result.allocation.bundles[higher]),
        higher,
        result.leftout_rprime,
    )
    # reserve loop is bounded by the envied bundle's size
    assert result.iterations <= max(len(seed_alloc.bundles[a]), len(seed_alloc.bundles[b]))


class TestFeasibilityGraph:
    def test_t1_bundle_triple_edges(self, t1):
        graph = build_feasibility_graph(t1, (0, 1), ({2}, {0}, {1}))
        # both agents are safe with either half; dropping the single good of
        # any bundle leaves nothing, so thresholds are zero and every bundle
        # qualifies
        for agent_pos in (0, 1):
            assert {1, 2} <= {j for i, j in graph.edges if i == agent_pos}
        assert graph.edges == frozenset(
            (i, j) for i in range(2) for j in range(3)
        )

    def test_single_agent_single_bundle(self, t1):
        graph = build_feasibility_graph(t1, (0,), ({0, 1},))
        assert graph.edges == frozenset({(0, 0)})

    def test_all_zero_valuations_make_a_complete_graph(self):
        inst = build([1, 1, 1], [2, 2], [[0, 0, 0], [0, 0, 0]])
        graph = build_feasibility_graph(inst, (0, 1), ({0}, {1, 2}))
        assert graph.edges == frozenset((i, j) for i in range(2) for j in range(2))

    def test_edges_match_the_definition_on_random_inputs(self):
        rng = random.Random(77)
        for _ in range(30):
            inst = random_instance(rng, 2, 6)
            goods = list(range(6))
            rng.shuffle(goods)
            bundles = (
                frozenset(goods[0:2]),
                frozenset(goods[2:4]),
                frozenset(goods[4:6]),
            )
            graph = build_feasibility_graph(inst, (0, 1), bundles)
            for pos, agent in enumerate((0, 1)):
                budget = inst.budgets[agent]
                threshold = max(
                    (
                        knapsack_vmax(inst, agent, bun - {g}, budget).value
                        for bun in bundles
                        for g in bun
                    ),
                    default=F(0),
                )
                for j, bun in enumerate(bundles):
                    has_edge = (pos, j) in graph.edges
                    assert has_edge == (
                        knapsack_vmax(inst, agent, bun, budget).value >= threshold
                    )

    def test_overlapping_bundles_rejected(self, t1):
        with pytest.raises(StructuralError):
            build_feasibility_graph(t1, (0, 1), ({0, 1}, {1}))

    @pytest.mark.parametrize("agent", [-1, 2, True])
    def test_unknown_agent_rejected(self, t1, agent):
        with pytest.raises(StructuralError, match="unknown agent id"):
            build_feasibility_graph(t1, (0, agent), ({2}, {0}))


class TestSelectPerfectMatching:
    def test_forced_single_option(self, t1):
        graph = build_feasibility_graph(t1, (0, 1), ({2}, {0}, {1}))
        forced = graph.__class__(
            agents=graph.agents,
            bundles=graph.bundles,
            edges=frozenset({(0, 1), (1, 0), (1, 1)}),
            values=graph.values,
        )
        # agent 0 only fits bundle 1, so agent 1 must take bundle 0
        assert select_perfect_matching(forced, 1, 0) == {1: 0, 0: 1}

    def test_t1_tie_breaks_by_bundle_index(self, t1):
        graph = build_feasibility_graph(t1, (0, 1), ({2}, {0}, {1}))
        matching = select_perfect_matching(graph, 0, 1)
        # priority agent 0 values both halves at 1/2; the tie goes to the
        # lower bundle index, the envier then takes the other half
        assert matching == {0: 1, 1: 2}

    def test_both_pinned_to_the_same_bundle_gives_none(self, t1):
        graph = build_feasibility_graph(t1, (0, 1), ({2}, {0}, {1}))
        pinned = graph.__class__(
            agents=graph.agents,
            bundles=graph.bundles,
            edges=frozenset({(0, 1), (1, 1)}),
            values=graph.values,
        )
        assert select_perfect_matching(pinned, 1, 0) is None

    @pytest.mark.parametrize("pair", [(0, 2), (2, 1), (0, 5), (0, True)])
    def test_an_agent_outside_the_graph_is_refused(self, t1, pair):
        graph = build_feasibility_graph(t1, (0, 1), ({2}, {0}, {1}))
        with pytest.raises(StructuralError, match="is not in the feasibility graph"):
            select_perfect_matching(graph, *pair)

    def test_the_same_agent_twice_is_refused(self, t1):
        graph = build_feasibility_graph(t1, (0, 1), ({2}, {0}, {1}))
        with pytest.raises(StructuralError, match="pair must name two distinct agents"):
            select_perfect_matching(graph, 0, 0)

    def test_any_agent_with_two_edges_guarantees_a_matching(self):
        rng = random.Random(15)
        for _ in range(40):
            inst = random_instance(rng, 2, 6)
            goods = list(range(6))
            rng.shuffle(goods)
            cut1, cut2 = sorted((rng.randint(0, 6), rng.randint(0, 6)))
            bundles = (
                frozenset(goods[:cut1]),
                frozenset(goods[cut1:cut2]),
                frozenset(goods[cut2:]),
            )
            graph = build_feasibility_graph(inst, (0, 1), bundles)
            if any(sum(i == pos for i, _ in graph.edges) >= 2 for pos in range(2)):
                assert select_perfect_matching(graph, 1, 0) is not None


class TestEfx2a:
    def test_t1_seeded_with_the_optimum(self, t1):
        opt = max_nsw_allocation(t1, (0, 1), t1.all_goods())
        result = efx_2a(t1, (0, 1), opt)
        assert result.branch == "leximin_split"
        assert result.envier == 1
        assert result.allocation.bundles == (frozenset({0}), frozenset({1}))
        assert result.unallocated_r == frozenset({2})
        assert result.leftout_rprime == frozenset()
        assert nsw_product(t1, result.allocation) == F(11, 20)
        assert_result_invariants(t1, opt, result)

    def test_already_efx_input_is_returned_unchanged(self):
        inst = build([1, 1], [2, 2], [[5, 0], [0, 5]])
        seed = make_allocation(inst, [{0}, {1}])
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "already_efx"
        assert result.allocation.bundles == seed.bundles
        assert result.unallocated_r == result.leftout_rprime == frozenset()

    def test_mutual_envy_swaps_via_best_affordable_subsets(self):
        inst = build(
            [1, 1, 1, 1],
            [2, 2],
            [[1, 1, 10, 10], [10, 10, 1, 1]],
        )
        seed = make_allocation(inst, [{0, 1}, {2, 3}])
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "mutual_swap"
        assert result.allocation.bundles == (frozenset({2, 3}), frozenset({0, 1}))
        assert result.matched == (frozenset({2, 3}), frozenset({0, 1}))
        assert_result_invariants(inst, seed, result)

    def test_removal_loop_reserves_the_least_valued_good(self):
        inst = build([1, 1, 1], [2, 2], [[6, 7, 5], [3, 4, 4]])
        seed = make_allocation(inst, [{0}, {1, 2}])
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "removal_loop"
        assert result.envier == 0
        assert result.iterations == 1
        assert result.allocation.bundles == (frozenset({1}), frozenset({2}))
        assert result.unallocated_r == frozenset({0})
        assert_result_invariants(inst, seed, result)

    def test_removal_loop_does_not_split(self, monkeypatch):
        splits = []

        def counting_split(*args):
            splits.append(args)
            return leximin_pp_split(*args)

        monkeypatch.setattr(two_agents, "leximin_pp_split", counting_split)
        inst = build([1, 1, 1], [2, 2], [[6, 7, 5], [3, 4, 4]])
        seed = make_allocation(inst, [{0}, {1, 2}])
        assert efx_2a(inst, (0, 1), seed).branch == "removal_loop"
        assert splits == []

    def test_empty_versus_full_split(self):
        # the call pattern used when two agents share one agent's bundle
        inst = build([1, 1], [2, 2], [[5, 4], [3, 3]])
        seed = make_allocation(inst, [frozenset(), {0, 1}])
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "leximin_split"
        assert result.envier == 0
        assert result.allocation.bundles == (frozenset({0}), frozenset({1}))
        assert_result_invariants(inst, seed, result)

    def test_partial_affordability_leaves_goods_out(self):
        inst = build([2, 2, 2], [2, 4], [[5, 6, 6], [9, 1, 1]])
        seed = make_allocation(inst, [{0}, {1, 2}])
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "removal_loop"
        assert result.iterations == 0
        assert result.allocation.bundles == (frozenset({1}), frozenset({0}))
        assert result.leftout_rprime == frozenset({2})
        assert result.unallocated_r == frozenset()
        assert_result_invariants(inst, seed, result)

    def test_blocked_favorite_triggers_the_certified_rebuild(self):
        # the removal loop's first matching hands the envied agent bundle
        # {3} worth 8 < 18/2, because the envier's only safe bundle is the
        # envied agent's favorite; the rebuild restores the half guarantee
        inst = build([1, 5, 4, 2], [3, 11], [[6, 4, 8, 3], [7, 5, 6, 8]])
        seed = make_allocation(inst, [{3}, {0, 1, 2}], scope={0, 1, 2, 3})
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "removal_loop_certified"
        assert result.iterations == 1
        assert 2 * bundle_value(inst, 1, result.allocation.bundles[1]) >= 18
        assert_result_invariants(inst, seed, result)

    def test_affordability_crater_triggers_the_certified_rebuild(self):
        # dropping the envier's least-valued good (cheap good 3) breaks the
        # affordability of her best combination, so matching her to the
        # kept bundle would leave her at 5 < 6
        inst = build([2, 3, 4, 1, 0], [5, 8], [[4, 5, 5, 2, 1], [2, 6, 2, 7, 2]])
        seed = make_allocation(inst, [{1, 4}, {0, 2, 3}], scope={0, 1, 2, 3, 4})
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "removal_loop_certified"
        assert bundle_value(inst, 0, result.allocation.bundles[0]) >= 6
        assert 2 * bundle_value(inst, 1, result.allocation.bundles[1]) >= 11
        assert_result_invariants(inst, seed, result)

    def test_reserved_treasure_deadlock_triggers_the_certified_rebuild(self):
        # the envier's only affordable treasure is the zero-cost good; the
        # removal order banishes it to the reserve where both agents stay
        # pinned, so no matching ever appears in the loop's configurations
        inst = build([4, 0, 1, 3], [1, 11], [[1, 2, 1, 7], [2, 7, 1, 4]])
        seed = make_allocation(inst, [{2}, {0, 1, 3}], scope={0, 1, 2, 3})
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "removal_loop_certified"
        assert bundle_value(inst, 0, result.allocation.bundles[0]) >= 1
        assert 2 * bundle_value(inst, 1, result.allocation.bundles[1]) >= 13
        assert_result_invariants(inst, seed, result)

    @pytest.mark.parametrize(
        "costs, budgets, values, iterations, matched, bundles",
        [
            # the loop moves all of {2, 3, 5} to the reserve, and no
            # configuration on the way has a perfect matching
            pytest.param(
                [20, 7, 8, 17, 10, 17],
                [12, 42],
                [[0, 11, 12, 20, 11, 4], [6, 5, 18, 10, 0, 17]],
                3, [{2}, {3, 5}], [{2}, {3, 5}],
                id="no-matching",
            ),
            # after one removal the best matching gives the envied agent
            # {1}, worth 18 < 37 / 2
            pytest.param(
                [4, 15, 13, 15],
                [17, 43],
                [[13, 6, 18, 16], [10, 18, 9, 1]],
                1, [{2}, {0, 1}], [{2}, {0, 1}],
                id="floor-miss",
            ),
            # four assignments pass the checks; the envied agent's highest
            # value wins
            pytest.param(
                [7, 20, 5, 9],
                [16, 48],
                [[17, 17, 12, 12], [18, 2, 15, 13]],
                1, [{1, 2, 3}, {0}], [{2, 3}, {0}],
                id="highest-values",
            ),
            # two assignments tie on both values, the configuration and the
            # envied agent's bundle; the envier's lower bundle index wins
            pytest.param(
                [20, 19, 2, 17, 1, 2, 18],
                [35, 176],
                [[16, 6, 0, 3, 0, 4, 16], [2, 15, 5, 15, 13, 18, 13]],
                3, [{0}, {1, 2, 3, 4, 5}], [{0}, {1, 2, 3, 4, 5}],
                id="tie-to-the-lower-bundle",
            ),
        ],
    )
    def test_welfare_optimal_seeds_rebuilt_by_certification(
        self, costs, budgets, values, iterations, matched, bundles
    ):
        # drawn from the welfare-optimal seeds `solve --algorithm efx2` makes
        inst = build(costs, budgets, values)
        seed = max_nsw_allocation(inst, (0, 1), inst.all_goods())
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "removal_loop_certified"
        assert result.iterations == iterations
        assert result.matched == tuple(map(frozenset, matched))
        assert result.allocation.bundles == tuple(map(frozenset, bundles))
        assert_result_invariants(inst, seed, result)

    def test_certified_ties_go_to_the_first_configuration_then_the_lower_bundle(self):
        # from a feasible seed, not the optimum: four assignments pass the
        # checks at values (25, 25), the envied agent on bundle 1 or 2 of
        # the loop's last configuration or of the split
        inst = build(
            [20, 17, 0, 3, 0, 0, 20, 14, 5],
            [18, 37],
            [[20, 12, 9, 10, 12, 13, 12, 16, 13], [15, 14, 6, 6, 19, 18, 9, 16, 6]],
        )
        seed = make_allocation(inst, [{1, 5}, {3, 4, 6, 7}])
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "removal_loop_certified"
        assert result.iterations == 2
        assert result.allocation.bundles == (frozenset({1, 5}), frozenset({6, 7}))
        assert_result_invariants(inst, seed, result)

    def test_certified_rebuild_with_the_envied_agent_on_the_lower_budget(self):
        # gen_instances(21, 89, 2, (2, 10))[88] from a random feasible
        # seed: the envier has the higher budget, so the leftover goods are
        # checked against the envied agent's envy
        inst = build([16, 14, 5, 11], [271, 194], [[20, 3, 4, 19], [14, 20, 18, 13]])
        seed = make_allocation(inst, [{3}, {0, 1, 2}])
        result = efx_2a(inst, (0, 1), seed)
        assert result.branch == "removal_loop_certified"
        assert result.envier == 0
        assert result.iterations == 1
        assert result.allocation.bundles == (frozenset({0}), frozenset({1, 2}))
        assert_result_invariants(inst, seed, result)

    @pytest.mark.xfail(raises=InvariantViolationError, strict=True)
    def test_certified_rebuild_from_a_seed_where_it_finds_nothing(self):
        """A known defect (ROADMAP item 8): from this budget-feasible seed no
        assignment over the three configurations passes every check, so the
        pair procedure raises. Fixing it makes this test pass, and strict
        xfail then reports it."""
        inst = build(
            [5, 10, 7, 15, 0, 6, 20, 19],
            [46, 72],
            [[6, 18, 9, 9, 11, 15, 13, 14], [16, 8, 9, 19, 8, 0, 2, 14]],
        )
        seed = make_allocation(inst, [{3, 4, 5}, {0, 1, 6, 7}])
        result = efx_2a(inst, (0, 1), seed)
        assert_result_invariants(inst, seed, result)

    def test_every_feasible_seed_on_small_instances(self):
        # scaled-down version of the exhaustive adversarial sweep that
        # uncovered the certified-rebuild cases
        import itertools

        from budgeted_efx.model import Allocation, bundle_cost

        rng = random.Random(321)
        for _ in range(30):
            inst = random_instance(rng, 2, rng.randint(1, 4), cost_hi=6, value_hi=8)
            for codes in itertools.product(range(3), repeat=inst.num_goods):
                bundles = [set(), set()]
                for g, c in enumerate(codes):
                    if c < 2:
                        bundles[c].add(g)
                if any(
                    bundle_cost(inst, bundles[i]) > inst.budgets[i] for i in range(2)
                ):
                    continue
                seed = Allocation(
                    (frozenset(bundles[0]), frozenset(bundles[1])),
                    frozenset(bundles[0]) | frozenset(bundles[1]),
                )
                result = efx_2a(inst, (0, 1), seed)
                assert_result_invariants(inst, seed, result)

    def test_infeasible_seed_rejected(self, t1):
        bad = make_allocation(t1, [{0, 1, 2}, frozenset()])
        with pytest.raises(StructuralError):
            efx_2a(t1, (0, 1), bad)

    def test_random_instances_seeded_with_the_optimum(self):
        rng = random.Random(4242)
        for _ in range(60):
            inst = random_instance(rng, 2, rng.randint(1, 7))
            opt = max_nsw_allocation(inst, (0, 1), inst.all_goods())
            result = efx_2a(inst, (0, 1), opt)
            assert_result_invariants(inst, opt, result)

    def test_pair_inside_a_three_agent_instance(self):
        inst = build(
            [1, 1, 1],
            [3, 3, 3],
            [[2, 2, 2], [1, 5, 4], [9, 9, 9]],
        )
        seed = make_allocation(inst, [frozenset(), {0}, {1, 2}], scope={0, 1, 2})
        result = efx_2a(inst, (1, 2), seed)
        # the third agent's bundle stays empty and off-limits
        assert result.allocation.bundles[0] == frozenset()
        assert result.allocation.scope == frozenset({0, 1, 2})
        assert pair_is_efx(inst, result.allocation, (1, 2))

    def test_the_same_agent_twice_is_refused(self, t1):
        seed = make_allocation(t1, [{0}, {1}])
        with pytest.raises(StructuralError, match="^pair must name two distinct agents$"):
            efx_2a(t1, (1, 1), seed)
