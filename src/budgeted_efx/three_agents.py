"""EFx allocation for three budget-constrained agents.

The pipeline: compute the welfare optimum, rescale values so each optimum
bundle is worth 1, set aside one high-value good per agent, then either
reduce to the equal-budget case (when every agent could still reach value
alpha on the lowest budget) or run the unequal-budget subroutine. At the
very end each agent may trade her bundle for her set-aside good. The final
allocation is budget-feasible, EFx, and its welfare product is at least
(1/171)^3 of the optimum at the default alpha = 1/35.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .model import (
    Allocation,
    Bundle,
    Instance,
    InvariantViolationError,
    RationalLike,
    StructuralError,
    _Record,
    _assemble,
    _check_count,
    _density_key,
    _envious,
    _envy_pairs,
    _from_form,
    _int_value,
    _knapsack,
    _lowest_terms,
    _values,
    normalize,
    to_rational,
)
from .oracles import (
    SearchBudget,
    SplitPair,
    complete_efx_allocation,
    max_nsw_allocation,
)
from .two_agents import efx_2a

__all__ = [
    "AlphaParams",
    "RATIO_DIVISOR_3A",
    "SetAside",
    "SolveResult",
    "efx_3a",
    "else_procedure",
    "equal_budget_procedure",
    "preprocess",
    "round_robin_self_split",
    "trim_to_budget_share",
]

class SetAside(_Record):
    """One reserved good per agent (or none), with the owner's value for it."""

    __slots__ = _fields = ("goods", "values")

    def __init__(self, goods: tuple[int | None, ...], values: tuple[Fraction, ...]) -> None:
        taken = [g for g in goods if g is not None]
        if len(taken) != len(set(taken)):
            raise StructuralError("set-aside goods must be pairwise distinct")
        super().__init__(goods, values)


class AlphaParams(_Record):
    """Monopoly threshold steering the budget-reduction branch."""

    __slots__ = _fields = ("alpha",)

    def __init__(self, alpha: RationalLike = Fraction(1, 35)) -> None:
        alpha = to_rational(alpha)
        if not 0 < alpha <= Fraction(1, 35):
            raise StructuralError(
                "alpha must lie in (0, 1/35]; above 1/35 the guarantees are void"
            )
        super().__init__(alpha)


# The welfare floor of efx_3a's allocation is the optimum over RATIO_DIVISOR_3A.
RATIO_DIVISOR_3A = 171**3


class SolveResult(_Record):
    """Final allocation plus everything needed to certify it."""

    __slots__ = _fields = (
        "allocation",
        "branch",
        "opt",
        "alpha",
        "role_order",
        "setaside_goods",
        "setaside_values",
        "setaside_taken",
        "monopoly_low",
        "notes",
    )


def preprocess(instance: Instance, opt: Allocation) -> tuple[Bundle, SetAside]:
    """Set aside one high-value good per agent and remove them from play.

    Each agent nominates her three most valuable individually affordable
    goods (ties to the lowest id, fewer if fewer exist). Among all matchings
    of agents to nominated goods in which every agent whose nominations meet
    her own optimum bundle is matched at least that well, a maximum-weight
    one is chosen (weights are the owners' values, ties to the smallest
    matched-good ids). Afterwards no remaining affordable good beats any
    agent's set-aside good.
    """
    _check_count(instance, len(opt.bundles))
    # Values are compared on the instance's integer form: one agent's on
    # her own row, sums across agents over the common denominator of their
    # scales, so every comparison reads as it would on the Fractions.
    costs, budgets = instance._int_costs, instance._int_budgets
    rows, scales = instance._int_values, instance._value_scales
    common = math.lcm(*scales)
    sentinel = instance.num_goods
    # Each agent's options, as (weight over the common scale, good), good
    # ``sentinel`` being nothing: her nominations, or nothing. An agent whose
    # nominations meet her optimum bundle keeps only those worth at least
    # the best of them that lies in it, and must be matched.
    options: list[list[tuple[int, int]]] = []
    for row, cap, scale, own in zip(rows, budgets, scales, opt.bundles, strict=True):
        affordable = [g for g, c in enumerate(costs) if c <= cap]
        # Stable, so equal values stay in ascending id order.
        affordable.sort(key=row.__getitem__, reverse=True)
        nominations = affordable[:3]
        floor = max([row[g] for g in nominations if g in own], default=None)
        if floor is None:
            nominations.append(sentinel)
        else:
            nominations = [g for g in nominations if row[g] >= floor]
        unit = common // scale
        options.append([(row[g] * unit if g < sentinel else 0, g) for g in nominations])

    # The largest weight, ties to the smallest goods in agent order.
    best: tuple[int, tuple[int, ...]] | None = None
    for combo in itertools.product(*options):
        goods = tuple([g for _, g in combo])
        chosen = [g for g in goods if g < sentinel]
        if len(chosen) != len(set(chosen)):
            continue
        weight = sum([w for w, _ in combo])
        if best is None or weight > best[0] or (weight == best[0] and goods < best[1]):
            best = weight, goods
    if best is None:
        raise InvariantViolationError("preprocess infeasible: no admissible matching")

    picks = tuple([g if g < sentinel else None for g in best[1]])
    values = tuple(
        [Fraction(row[g], scale) if g is not None else Fraction(0)
         for row, scale, g in zip(rows, scales, picks)]
    )
    pool = instance.all_goods() - {g for g in picks if g is not None}
    return pool, SetAside(picks, values)


def trim_to_budget_share(
    instance: Instance, opt_on_pool: Allocation
) -> tuple[Bundle, ...]:
    """Shrink each optimum bundle until it costs at most a 1/n share of the
    common budget, dropping lowest-density goods first.

    Zero-cost goods have infinite density and are never dropped; ties go to
    the lowest good id.
    """
    # On the integer form: a bundle fits the 1/n share of budget B when n
    # times its cost is at most B, and one agent's densities compare as
    # her integer values over the integer costs.
    _check_count(instance, len(opt_on_pool.bundles))
    budgets = set(instance._int_budgets)
    if len(budgets) != 1:
        raise StructuralError("trimming requires equal budgets")
    (budget,) = budgets
    n = instance.num_agents
    costs = instance._int_costs
    density = _density_key(max(costs, default=0))
    trimmed: list[Bundle] = []
    for i, row in enumerate(instance._int_values):
        kept = set(instance.check_bundle(opt_on_pool.bundles[i]))
        spent = sum([costs[g] for g in kept])
        while n * spent > budget:
            droppable = [g for g in kept if costs[g] > 0]
            g = min(droppable, key=lambda h: (density((costs[h], row[h])), h))
            kept.remove(g)
            spent -= costs[g]
        trimmed.append(frozenset(kept))
    return tuple(trimmed)


def equal_budget_procedure(
    instance: Instance,
    opt_on_pool: Allocation,
    search: SearchBudget = SearchBudget(),
) -> Allocation:
    """Equal-budget branch: trim, allocate the affordable core completely and
    EFx-ly, then rotate or swap bundles along envy cycles.

    Trimming caps each optimum bundle at a 1/n cost share, so the union Z is
    affordable for everyone and the complete-EFx search applies. Envy-cycle
    resolution (a 3-cycle rotation or a mutual-pair swap) strictly raises
    every participant's value, hence the loop terminates. EFx survives the
    reshuffles because bundles are only relabeled, never altered.
    """
    trimmed = trim_to_budget_share(instance, opt_on_pool)
    z: Bundle = frozenset().union(*trimmed)
    allocation = complete_efx_allocation(instance, range(instance.num_agents), z, search)
    allocation = Allocation(allocation.bundles, opt_on_pool.scope)

    agents = range(instance.num_agents)
    # The two 3-cycles first, then mutual pairs; a pair is an envy cycle of
    # length 2. Each cycle is its edges (a, b): a envies the bundle of b.
    cycles = [
        list(zip(c, c[1:] + c[:1]))
        for c in ((0, 1, 2), (0, 2, 1), *itertools.combinations(agents, 2))
    ]
    # Every bundle lies in Z, which every agent affords, so envy is a sum. A
    # resolution only relabels the bundles and strictly raises each
    # participant's value, so the sum of the values rises and no arrangement
    # of the bundles recurs: at most n! - 1 resolutions, and n! passes reach
    # one that finds no cycle. Running out of passes is a bug.
    passes = math.factorial(instance.num_agents)
    for _ in range(passes):
        bundles = allocation.bundles
        envy = set(_envy_pairs(instance, agents, bundles, _values(instance, bundles), _envious))
        cycle = next((c for c in cycles if envy.issuperset(c)), None)
        if cycle is None:
            break
        # Each agent on the cycle takes the bundle it envies.
        moved = list(bundles)
        for a, b in cycle:
            moved[a] = bundles[b]
        allocation = Allocation(tuple(moved), allocation.scope)
    else:
        raise InvariantViolationError(
            f"envy-cycle resolution did not converge within {passes} passes"
        )
    return allocation


def round_robin_self_split(
    instance: Instance, agent: int, pool: Iterable[int]
) -> SplitPair:
    """Split a pool into two parts by alternating picks in the agent's own
    value order (ties to the lowest good id), first part picking first.

    The first part is worth at least the second, and the second trails by at
    most one good's value.
    """
    instance.check_agent(agent)
    pool = instance.check_bundle(pool)
    row = instance._int_values[agent]
    ordered = sorted(pool, key=lambda g: (-row[g], g))
    first = frozenset(ordered[0::2])
    second = frozenset(ordered[1::2])
    return SplitPair(first, second)


def else_procedure(
    instance: Instance,
    pool: Bundle,
    above: Sequence[bool],
    search: SearchBudget = SearchBudget(),
) -> tuple[Allocation, int, bool]:
    """Unequal-budget branch, for agents indexed by ascending budget.

    ``pool`` is the goods left in play once the set-aside goods are out, and
    ``above`` says whether agents 2 and 3 each reach the alpha monopoly
    threshold on it at the lowest budget, as :func:`_monopoly_low` finds.
    Agent 1 takes her best affordable bundle from the pool; agents 2 and 3
    run the pair procedure on the welfare optimum of the rest. If both
    higher-budget agents are below the threshold, that allocation already
    works. Otherwise the agent still below the threshold is indexed 3; if
    agent 2 prefers her own bundle to agent 1's, the allocation also works.
    In the remaining case agents 1 and 2 share agent 1's bundle via the pair
    procedure, agent 3 gives up the half of her bundle agent 2 likes most,
    and agent 1 may grab her best affordable piece of what agent 3 kept.

    Returns the allocation, the return point (1, 2 or 3, in the order
    above) and whether agents 2 and 3 swapped roles, which they do when
    agent 2 is the one below the threshold.
    """
    budgets = instance._int_budgets
    if not (budgets[0] <= budgets[1] <= budgets[2]):
        raise StructuralError("agents must be indexed by ascending budget")
    low = budgets[0]

    x1 = _knapsack(instance, 0, pool, low)[1]
    rest = pool - x1
    opt_rest = max_nsw_allocation(instance, (1, 2), rest, search)
    pair_result = efx_2a(instance, (1, 2), opt_rest)
    x2 = pair_result.allocation.bundles[1]
    x3 = pair_result.allocation.bundles[2]

    if not any(above):
        return _assemble(instance, {0: x1, 1: x2, 2: x3}, pool), 1, False

    # Relabel the higher-budget agents so the one below the threshold is "3".
    swapped = above[1]
    hi, lo = (2, 1) if swapped else (1, 2)
    x_hi = x3 if swapped else x2
    x_lo = x2 if swapped else x3

    if _int_value(instance, hi, x_hi) >= _int_value(instance, hi, x1):
        return _assemble(instance, {0: x1, 1: x2, 2: x3}, pool), 2, swapped

    empty_and_x1 = _assemble(instance, {hi: x1}, pool)
    share_result = efx_2a(instance, (0, hi), empty_and_x1)
    x1_share = share_result.allocation.bundles[0]
    x_hi_share = share_result.allocation.bundles[hi]

    split = round_robin_self_split(instance, lo, x_lo)
    hi_first = _int_value(instance, hi, split.first)
    hi_second = _int_value(instance, hi, split.second)
    dropped = split.first if hi_first >= hi_second else split.second
    x_lo_kept = x_lo - dropped

    grab = _knapsack(instance, 0, x_lo_kept, low)[1]
    if _int_value(instance, 0, x1_share) < _int_value(instance, 0, grab):
        x1_final = grab
        x_lo_kept = x_lo_kept - grab
    else:
        x1_final = x1_share

    return _assemble(instance, {0: x1_final, hi: x_hi_share, lo: x_lo_kept}, pool), 3, swapped


def _monopoly_low(
    instance: Instance, pool: Bundle, alpha: AlphaParams
) -> tuple[list[int], list[bool]]:
    """Agent 1's and agent 2's best values of ``pool`` at the lowest budget
    (agent 0's), in their units, and whether each reaches alpha = p/q:
    v / scale >= p / q exactly when v * q >= p * scale."""
    low = instance._int_budgets[0]
    lows = [_knapsack(instance, i, pool, low)[0] for i in (1, 2)]
    p, q = alpha.alpha.as_integer_ratio()
    return lows, [v * q >= p * instance._value_scales[i] for i, v in zip((1, 2), lows)]


def _permute_instance(instance: Instance, order: Sequence[int]) -> Instance:
    # A permutation keeps every scale, so the form stays canonical.
    return _from_form(
        instance._int_costs,
        tuple([instance._int_budgets[i] for i in order]),
        instance._cost_scale,
        tuple([instance._int_values[i] for i in order]),
        tuple([instance._value_scales[i] for i in order]),
    )


def _equal_budgets(instance: Instance) -> Instance:
    """Costs divided by the lowest budget b and budgets all 1; when b is 0,
    the costs as they are and budgets all 0.

    On the integer form both are the costs over a new scale: the lowest
    budget's int b when b > 0, the cost scale otherwise.
    """
    low = min(instance._int_budgets)
    n = instance.num_agents
    amounts, scale = _lowest_terms(
        instance._int_costs + (low,) * n, low or instance._cost_scale
    )
    m = instance.num_goods
    return _from_form(
        amounts[:m], amounts[m:], scale, instance._int_values, instance._value_scales
    )


def _permute_allocation(allocation: Allocation, order: Sequence[int]) -> Allocation:
    return Allocation(tuple(allocation.bundles[i] for i in order), allocation.scope)


def efx_3a(
    instance: Instance,
    alpha: AlphaParams = AlphaParams(),
    search: SearchBudget = SearchBudget(),
) -> SolveResult:
    """Full three-agent pipeline; see the module docstring for the shape."""
    if instance.num_agents != 3:
        raise StructuralError("this procedure handles exactly 3 agents")

    opt = max_nsw_allocation(instance, range(3), instance.all_goods(), search)

    # Without the pipeline the optimum stands, each agent in her own role
    # with nothing set aside.
    roles, work, result = (0, 1, 2), instance, opt
    setaside = SetAside((None,) * 3, (Fraction(0),) * 3)
    monopoly_low = None
    notes: list[str] = []
    if instance.num_goods <= 3:
        branch = "small_instance"
        notes.append("optimum returned directly: at most 3 goods")
    else:
        roles = tuple(sorted(range(3), key=lambda i: (instance._int_budgets[i], i)))
        work = _permute_instance(normalize(instance, opt), roles)
        pool, setaside = preprocess(work, _permute_allocation(opt, roles))
        lows, above = _monopoly_low(work, pool, alpha)
        monopoly_low = tuple(Fraction(v, work._value_scales[i]) for i, v in zip((1, 2), lows))
        if all(above):
            branch = "equal_budget"
            reduced = _equal_budgets(work)
            opt_on_pool = max_nsw_allocation(reduced, range(3), pool, search)
            result = equal_budget_procedure(reduced, opt_on_pool, search)
        else:
            result, return_point, swapped = else_procedure(work, pool, above, search)
            branch = f"else_return{return_point}"
            if swapped:
                notes.append("higher-budget agents relabeled: original role 2 was "
                             "below the monopoly threshold")
            if return_point == 3:
                notes.append(
                    "efficiency floor for this branch uses the (1 - 11*alpha) "
                    "constant backed by the bound derivation"
                )

    # Each agent takes her set-aside good when she values it above her
    # bundle, in her units of the permuted instance.
    taken: list[bool] = []
    final_bundles = list(result.bundles)
    for i, (s, row) in enumerate(zip(setaside.goods, work._int_values)):
        taken.append(s is not None and row[s] > _int_value(work, i, final_bundles[i]))
        if taken[-1]:
            final_bundles[i] = frozenset({s})

    back = [roles.index(agent) for agent in range(3)]  # each agent's role
    final = Allocation(tuple([final_bundles[r] for r in back]), instance.all_goods())
    return SolveResult(
        allocation=final,
        branch=branch,
        opt=opt,
        alpha=alpha.alpha,
        role_order=roles,
        setaside_goods=tuple([setaside.goods[r] for r in back]),
        setaside_values=tuple([setaside.values[r] for r in back]),
        setaside_taken=tuple([taken[r] for r in back]),
        monopoly_low=monopoly_low,
        notes=tuple(notes),
    )
