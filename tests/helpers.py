"""Shared brute-force checkers for the tests.

These deliberately implement the literal, quantifier-heavy definitions so
they are independent of the package's reformulated fast paths.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from budgeted_efx.model import Allocation, Bundle, Instance


def build(costs, budgets, values) -> Instance:
    return Instance(tuple(costs), tuple(budgets), tuple(values))


def subsets(goods):
    goods = sorted(goods)
    for r in range(len(goods) + 1):
        yield from (frozenset(c) for c in itertools.combinations(goods, r))


def cost_of(instance: Instance, bundle) -> Fraction:
    return sum((instance.costs[g] for g in bundle), Fraction(0))


def value_of(instance: Instance, agent: int, bundle) -> Fraction:
    return sum((instance.values[agent][g] for g in bundle), Fraction(0))


def literal_efx_envies(instance, own_value, agent, target) -> bool:
    """The two-quantifier form: exists S and g in S such that S minus g is
    within budget and worth strictly more than the own value.

    Budget feasibility binds on the bundle the agent would actually take,
    i.e. after the removal; that is the reading under which this agrees with
    the feasibility-graph edge rule and the drop-one-good implementation.
    """
    budget = instance.budgets[agent]
    for s in subsets(target):
        for g in s:
            kept = s - {g}
            if cost_of(instance, kept) <= budget and value_of(
                instance, agent, kept
            ) > own_value:
                return True
    return False


def literal_ef1_holds(instance, allocation: Allocation) -> bool:
    """Textbook EF1 over affordable subsets: every affordable nonempty S of
    another agent's bundle has some good g with v(S - g) at most the own
    value, that is, S without its most valued good."""
    for i in range(instance.num_agents):
        own = value_of(instance, i, allocation.bundles[i])
        for j in range(instance.num_agents):
            if i == j:
                continue
            for s in subsets(allocation.bundles[j]):
                if not s or cost_of(instance, s) > instance.budgets[i]:
                    continue
                if all(value_of(instance, i, s - {g}) > own for g in s):
                    return False
    return True


def literal_drop_least_holds(instance, allocation: Allocation) -> bool:
    """Every affordable nonempty S of another agent's bundle has v(S - g) at
    most the own value for every good g of S, that is, S without its least
    valued good. This is the envy-up-to-one-good test of ``is_ef1``."""
    for i in range(instance.num_agents):
        own = value_of(instance, i, allocation.bundles[i])
        for j in range(instance.num_agents):
            if i == j:
                continue
            for s in subsets(allocation.bundles[j]):
                if cost_of(instance, s) > instance.budgets[i]:
                    continue
                if any(value_of(instance, i, s - {g}) > own for g in s):
                    return False
    return True


def random_instance(
    rng: random.Random,
    n: int,
    m: int,
    cost_hi: int = 10,
    value_hi: int = 10,
    budget_hi: int = 25,
    allow_zero_cost: bool = True,
) -> Instance:
    lo = 0 if allow_zero_cost else 1
    costs = tuple(Fraction(rng.randint(lo, cost_hi)) for _ in range(m))
    budgets = tuple(Fraction(rng.randint(0, budget_hi)) for _ in range(n))
    values = tuple(
        tuple(Fraction(rng.randint(0, value_hi)) for _ in range(m)) for _ in range(n)
    )
    return Instance(costs, budgets, values)


def random_feasible_allocation(
    rng: random.Random, instance: Instance, scope: Bundle | None = None
) -> Allocation:
    scope = instance.all_goods() if scope is None else scope
    bundles = [set() for _ in range(instance.num_agents)]
    spent = [Fraction(0)] * instance.num_agents
    for g in sorted(scope):
        who = rng.randrange(instance.num_agents + 1)
        if who < instance.num_agents and spent[who] + instance.costs[g] <= instance.budgets[who]:
            bundles[who].add(g)
            spent[who] += instance.costs[g]
    return Allocation(tuple(frozenset(b) for b in bundles), scope)


def literal_best_under_predicate(instance: Instance, predicate):
    """Largest welfare product over every budget-feasible assignment of all
    goods that satisfies ``predicate``, as ``(allocation, product)``; None if
    none does.

    Plain enumeration of assignment codes (agent ids, then n for
    "unallocated"), goods in id order; ties go to the first assignment in
    lexicographic order.
    """
    n = instance.num_agents
    goods = range(instance.num_goods)
    best = None
    for codes in itertools.product(range(n + 1), repeat=instance.num_goods):
        bundles = tuple(
            frozenset(g for g in goods if codes[g] == i) for i in range(n)
        )
        if any(cost_of(instance, bundles[i]) > instance.budgets[i] for i in range(n)):
            continue
        allocation = Allocation(bundles, instance.all_goods())
        if not predicate(instance, allocation):
            continue
        product = Fraction(1)
        for i in range(n):
            product *= value_of(instance, i, bundles[i])
        if best is None or product > best[1]:
            best = (allocation, product)
    return best


def literal_first_complete_efx(instance: Instance, agents, pool):
    """The first assignment of every good of ``pool`` to one of ``agents``
    under which no listed agent EFx-envies another's part, as the tuple of
    all agents' bundles; None if there is none.

    Plain enumeration of assignment codes (positions in sorted ``agents``),
    goods in id order, so the first hit is the lexicographically smallest.
    """
    agents = sorted(agents)
    goods = sorted(pool)
    for codes in itertools.product(range(len(agents)), repeat=len(goods)):
        parts = [
            frozenset(g for g, code in zip(goods, codes) if code == pos)
            for pos in range(len(agents))
        ]
        if not any(
            literal_efx_envies(instance, value_of(instance, a, parts[i]), a, parts[j])
            for i, a in enumerate(agents)
            for j in range(len(agents))
            if j != i
        ):
            bundles = [frozenset()] * instance.num_agents
            for a, part in zip(agents, parts):
                bundles[a] = part
            return tuple(bundles)
    return None


def literal_leximin_pp_split(pool, valuation):
    """The leximin++ 2-partition of ``pool`` under ``valuation``, as
    ``(preferred, other)``.

    Plain enumeration of side codes, goods in id order: code 0 puts a good in
    the preferred part and code 1 in the other, and a code counts when the
    preferred part's (value, size) is at least the other's. It is scored by
    (u(worse), |worse|, u(better), |better|); ties go to the smallest sorted
    preferred part.
    """
    goods = sorted(pool)
    best = None
    for codes in itertools.product((0, 1), repeat=len(goods)):
        preferred = frozenset(g for g, side in zip(goods, codes) if side == 0)
        other = frozenset(goods) - preferred
        better = (valuation(preferred), len(preferred))
        worse = (valuation(other), len(other))
        if better < worse:
            continue
        score = (worse[0], worse[1], better[0], better[1])
        if best is None or score > best[0] or (
            score == best[0] and sorted(preferred) < sorted(best[1])
        ):
            best = (score, preferred, other)
    return best[1], best[2]


def literal_pareto_efficient(instance: Instance, allocation: Allocation) -> bool:
    """No way to hand out the goods, budgets ignored, leaves every agent at
    least as well off as ``allocation`` and one strictly better.

    Plain enumeration of assignment codes (agent ids, then n for
    "unallocated") over every good of the instance.
    """
    n = instance.num_agents
    base = [value_of(instance, i, allocation.bundles[i]) for i in range(n)]
    for codes in itertools.product(range(n + 1), repeat=instance.num_goods):
        gains = [
            value_of(instance, i, [g for g, code in enumerate(codes) if code == i]) - base[i]
            for i in range(n)
        ]
        if min(gains) >= 0 and max(gains) > 0:
            return False
    return True
