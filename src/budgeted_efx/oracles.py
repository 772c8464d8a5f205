"""Exhaustive ground-truth solvers.

These are used both inside the allocation procedures (welfare-optimal seeds,
the complete-EFx step, the leximin++ split) and as independent verification
oracles in the test suites. They enumerate, they never approximate: when an
enumeration cap is hit they fail loudly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .model import (
    Allocation,
    Bundle,
    Instance,
    InvariantViolationError,
    SearchCapExceededError,
    StructuralError,
    ZERO,
    _Record,
    _assemble,
    _check_subsets,
    _efx_envies,
    _envy_pairs,
    _fits,
    _own_values,
    _values,
    to_rational,
)

__all__ = [
    "ExistenceViolationError",
    "SearchBudget",
    "SearchCapExceededError",
    "SplitPair",
    "best_allocation_under_predicate",
    "complete_efx_allocation",
    "is_pareto_efficient",
    "knapsack_by_enumeration",
    "leximin_pp_split",
    "max_nsw_allocation",
    "max_nsw_by_enumeration",
]

ONE = Fraction(1)


class ExistenceViolationError(InvariantViolationError):
    """Exhaustive search disproved a guaranteed existence claim (a bug trap)."""


class SearchBudget(_Record):
    """Cap on the number of complete assignments an oracle may enumerate."""

    __slots__ = _fields = ("max_assignments",)

    def __init__(self, max_assignments: int = 50_000_000) -> None:
        if isinstance(max_assignments, bool) or not isinstance(max_assignments, int):
            raise StructuralError(f"search budget must be an int, not {max_assignments!r}")
        if max_assignments <= 0:
            raise StructuralError("search budget must be positive")
        super().__init__(max_assignments)


class SplitPair(_Record):
    """An ordered 2-partition of a pool; ``first`` is the preferred part."""

    __slots__ = _fields = ("first", "second")


class _Counter:
    __slots__ = ("count", "cap")

    def __init__(self, cap: int):
        self.count = 0
        self.cap = cap

    def tick(self) -> None:
        self.count += 1
        if self.count > self.cap:
            raise SearchCapExceededError(
                f"search budget exhausted after {self.cap} enumerated assignments"
            )


def _suffix_sums(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    # For each row, [sum(row[idx:]) for idx in range(len(row) + 1)].
    return [list(itertools.accumulate(reversed(row), initial=0))[::-1] for row in rows]


def _search_frame(
    instance: Instance, agents: Iterable[int], pool: Iterable[int], count_ok, count_error: str
) -> tuple:
    """A walk's start: the distinct agents ascending, the pool, its goods
    ascending, the agents' values of them and their :func:`_suffix_sums`.
    Checks in order: ``count_ok`` of the number of agents (else raises
    ``count_error``), each agent id, the pool."""
    agents = tuple(sorted(set(agents)))
    if not count_ok(len(agents)):
        raise StructuralError(count_error)
    for a in agents:
        instance.check_agent(a)
    pool = instance.check_bundle(pool)
    goods = sorted(pool)
    vals = [[instance._int_values[a][g] for g in goods] for a in agents]
    return agents, pool, goods, vals, _suffix_sums(vals)


def max_nsw_allocation(
    instance: Instance,
    agents: Sequence[int],
    pool: Iterable[int],
    budget: SearchBudget = SearchBudget(),
) -> Allocation:
    """Budget-feasible allocation of (a subset of) ``pool`` to ``agents``
    maximizing the product of their values.

    Branch-and-bound over per-good assignments: each good goes to one of the
    listed agents or stays unallocated. Two upper bounds prune subtrees that
    cannot beat the incumbent: the product of each agent's value so far plus
    its value of every remaining good, and an exclusivity bound (AM-GM over
    weighted values, each remaining good to its one best-weighted owner).
    Unless the tree is small, the incumbent starts just below the product of
    an assignment found by a local search, so the bounds prune from the
    first node. Goods are
    decided in ascending id order and assignment codes are tried
    agents-first (ascending id) then "unallocated", so the first optimum
    found -- and hence the one returned -- has the lexicographically
    smallest assignment vector. The cap counts the leaves reached.
    """
    found = _welfare_walk(instance, agents, pool, budget)
    assert found is not None
    return found[0]


# A walk whose unpruned tree, (k + 1)^n leaves, is smaller costs less than
# its seed: below 4 goods for 3 agents, 6 goods for 2.
_SEED_FROM_LEAVES = 256


def _seed_product(costs: list[int], caps: list[int], vals: list[list[int]]) -> int:
    """The product of a budget-feasible assignment, so at most the optimum.
    From no good assigned, passes move each good to an agent it fits and is
    worth something to: at once if unassigned, from agent a to b if that
    raises the product, (acc_a - v_a)(acc_b + v_b) > acc_a acc_b. At most
    one pass more than there are goods."""
    k = len(caps)
    columns = list(zip(costs, zip(*vals)))
    owner = [k] * len(costs)
    spent, acc = [0] * k, [0] * k
    for _ in range(len(columns) + 1):
        moved = False
        for idx, (cost, column) in enumerate(columns):
            a = owner[idx]
            for b, v in enumerate(column):
                if b == a or not v or spent[b] + cost > caps[b]:
                    continue
                if a < k:
                    if (acc[a] - column[a]) * (acc[b] + v) <= acc[a] * acc[b]:
                        continue
                    spent[a] -= cost
                    acc[a] -= column[a]
                owner[idx] = a = b
                spent[b] += cost
                acc[b] += v
                moved = True
        if not moved:
            break
    return math.prod(acc)


def _welfare_walk(
    instance: Instance,
    agents: Sequence[int],
    pool: Iterable[int],
    budget: SearchBudget,
    accept: Callable[[Instance, Allocation], bool] | None = None,
) -> tuple[Allocation, int] | None:
    """The branch and bound behind :func:`max_nsw_allocation`: the first
    welfare-product maximizer, in lexicographic assignment order, among the
    budget-feasible allocations that ``accept`` admits (all when None), with
    its product in the agents' integer units (see below).

    ``accept`` runs only at leaves whose product strictly beats the
    incumbent, and a subtree is pruned only when one of its two bounds does
    not: the product of each agent's value so far plus its value of every
    remaining good, and the exclusivity bound, which gives each remaining
    good to one owner. Each bound caps every leaf below the node whatever
    ``accept`` says, so no pruned leaf could have replaced the incumbent.

    When ``accept`` is None and :func:`_seed_product` finds a product h > 0
    (on trees of ``_SEED_FROM_LEAVES`` leaves or more), the incumbent starts
    at h - 1. Every optimum is worth at least h, so no bound prunes it and
    the first one is still returned; fewer leaves are reached.

    The search runs on the instance's integer form. Costs and budgets share
    one scale, so every feasibility test is unchanged. Agent a's values are
    scaled by their own L_a. Scaling one agent's values by a constant c > 0
    multiplies both sides of every comparison the walk makes by the same
    factor: c for leaf products and the product bound, c^k for the
    exclusivity bound. So the pruning and the first optimum do not depend
    on the scales, and the product returned is the best product times
    prod(L_a).
    """
    agents, pool, goods, vals, suffix = _search_frame(
        instance, agents, pool, lambda count: count > 0, "at least one agent required"
    )
    k = len(agents)
    n = len(goods)
    costs = [instance._int_costs[g] for g in goods]
    caps = [instance._int_budgets[a] for a in agents]

    # The exclusivity bound: for weights w_a > 0, AM-GM gives
    # prod y_a <= (sum w_a y_a)^k / (k^k prod w_a), and each remaining good
    # has one owner, so sum w_a y_a <= sum w_a acc_a + owned[idx]. The
    # weights w_a = prod_{b != a} Y_b, with Y_b agent b's value of the pool
    # (at least 1), make w_a Y_a the same for every agent, so no agent's
    # value scale dominates the sum.
    totals = [max(row[0], 1) for row in suffix]
    weights = [math.prod(totals) // total for total in totals]
    weighted = [[w * v for v in row] for w, row in zip(weights, vals)]
    (owned,) = _suffix_sums([[max(col) for col in zip(*weighted)]])
    spread = k**k * math.prod(weights)

    def to_allocation(codes: Sequence[int]) -> Allocation:
        parts: dict[int, list[int]] = {a: [] for a in agents}
        for g, code in zip(goods, codes):
            if code < k:
                parts[agents[code]].append(g)
        return _assemble(instance, parts, pool)

    counter = _Counter(budget.max_assignments)
    spent = [0] * k
    acc = [0] * k
    assign = [k] * n
    best_product: int | None = None
    best_assign: tuple[int, ...] | None = None
    # best_product * spread once there is an incumbent.
    exclusive_cap = 0
    if accept is None and (k + 1) ** n >= _SEED_FROM_LEAVES:
        seed = _seed_product(costs, caps, vals)
        if seed:
            best_product = seed - 1
            exclusive_cap = best_product * spread

    def walk(idx: int, weighted_acc: int) -> None:
        nonlocal best_product, best_assign, exclusive_cap
        if idx == n:
            counter.tick()
            product = math.prod(acc)
            if best_product is not None and product <= best_product:
                return
            if accept is not None and not accept(instance, to_allocation(assign)):
                return
            best_product = product
            best_assign = tuple(assign)
            exclusive_cap = product * spread
            return
        if best_product is not None:
            # The product bound is cheaper, so it goes first.
            bound = 1
            for ai in range(k):
                bound *= acc[ai] + suffix[ai][idx]
            if bound <= best_product:
                return
            if (weighted_acc + owned[idx]) ** k <= exclusive_cap:
                return
        cost = costs[idx]
        for code in range(k):
            with_g = spent[code] + cost
            if with_g > caps[code]:
                continue
            assign[idx] = code
            old_spent, old_acc = spent[code], acc[code]
            spent[code] = with_g
            acc[code] = old_acc + vals[code][idx]
            walk(idx + 1, weighted_acc + weighted[code][idx])
            spent[code], acc[code] = old_spent, old_acc
        assign[idx] = k
        walk(idx + 1, weighted_acc)

    walk(0, 0)
    del walk  # it refers to itself: free the search now, not at a GC pass
    if best_assign is None:
        return None
    return to_allocation(best_assign), best_product


def complete_efx_allocation(
    instance: Instance,
    agents: Sequence[int],
    pool: Iterable[int],
    budget: SearchBudget = SearchBudget(),
) -> Allocation:
    """First EFx allocation, in lexicographic assignment order, that assigns
    every good in ``pool`` to one of the three agents.

    Requires the whole pool to fit within every agent's budget, which makes
    budget feasibility automatic for every sub-bundle and reduces the EFx
    test to plain additive comparisons: agent i does not EFx-envy a nonempty
    P_j when v_i(P_j) - min_i(P_j) <= v_i(P_i).

    A depth-first search decides the goods in ascending id order and tries
    the agents in ascending id order, so it meets the complete assignments
    in lexicographic order. It runs on the instance's integer form (each
    agent's values over that agent's own scale, which keeps that agent's
    comparisons) and keeps
    v_i(P_j) and min_i(P_j) for all nine pairs as goods are placed. A node
    is pruned when some v_i(P_j) - min_i(P_j) exceeds v_i(P_i) plus agent
    i's value of the goods not yet placed. The left side never shrinks as
    P_j grows and the right side bounds v_i(P_i) in every completion, so
    every leaf below is not EFx: the first EFx assignment is the one the
    unpruned enumeration would return. The cap counts the leaves reached.
    """
    agents, pool, goods, vals, rest = _search_frame(
        instance, agents, pool, lambda count: count == 3,
        "complete EFx search is defined for exactly 3 agents",
    )
    if not all(_fits(instance, a, pool) for a in agents):
        raise StructuralError("pool must be affordable within every agent's budget")
    n = len(goods)
    # Cell 3 * i + j holds v_i(P_j) and min_i(P_j). An empty part's minimum
    # exceeds every sum of agent i's values, so it never shows envy.
    total = [0] * 9
    least = [rest[ai][0] + 1 for ai in range(3) for _ in range(3)]
    pairs = [
        (ai, 4 * ai, 3 * ai + aj) for ai in range(3) for aj in range(3) if aj != ai
    ]
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    counter = _Counter(budget.max_assignments)

    def walk(idx: int) -> bool:
        if idx == n:
            counter.tick()
        for ai, own, cell in pairs:
            if total[cell] - least[cell] > total[own] + rest[ai][idx]:
                return False
        if idx == n:
            return True
        g = goods[idx]
        for code in range(3):
            saved = least[code], least[3 + code], least[6 + code]
            for ai in range(3):
                v = vals[ai][idx]
                cell = 3 * ai + code
                total[cell] += v
                if v < least[cell]:
                    least[cell] = v
            parts[code].append(g)
            if walk(idx + 1):
                return True
            parts[code].pop()
            for ai in range(3):
                cell = 3 * ai + code
                total[cell] -= vals[ai][idx]
                least[cell] = saved[ai]
        return False

    found = walk(0)
    del walk  # as in _welfare_walk
    if found:
        allocation = _assemble(instance, dict(zip(agents, parts)), pool)
        # Cross-check the three agents against each other only: any other
        # agent of the instance holds nothing and is no part of the claim.
        bundles = allocation.bundles
        if any(_envy_pairs(instance, agents, bundles, _values(instance, bundles), _efx_envies)):
            raise InvariantViolationError("fast EFx test disagrees with the general predicate")
        return allocation

    raise ExistenceViolationError(
        "no complete EFx allocation found despite the affordability "
        f"precondition; instance for inspection: costs={instance.costs} "
        f"budgets={instance.budgets} values={instance.values} "
        f"pool={sorted(pool)} agents={agents}"
    )


def leximin_pp_split(
    pool: Iterable[int], valuation: Callable[[Bundle], int | Fraction]
) -> SplitPair:
    """Split ``pool`` into two parts by brute-force leximin++ under a single
    valuation ``u``.

    ``u`` may answer in any exact numbers that order as its values do (the
    pair procedure passes ints in the envier's units). Every 2-partition is
    scored by the signature (u(worse), |worse|, u(better), |better|), where
    the worse part is the one with the smaller (value, cardinality) key; the
    partition with the lexicographically largest signature wins. Remaining
    ties are broken by the smallest sorted good-id sequence of the preferred
    part, which is returned as ``first``.

    Guarantees u(second) >= u(first minus any single good): if that failed
    for some good, moving the good across would improve the signature.
    Past the knapsack's frontier cap of subsets, raises
    :class:`SearchCapExceededError` before valuing any.
    """
    goods = sorted(frozenset(pool))
    n = len(goods)
    _check_subsets("leximin split", n)
    full = (1 << n) - 1

    def part(mask: int) -> Bundle:
        return frozenset(goods[i] for i in range(n) if mask >> i & 1)

    # Each subset is valued once and kept only as its (value, size) key; the
    # complement of ``mask`` is ``full ^ mask``. A part is rebuilt only to
    # break a tie or to be returned.
    keys = [(valuation(p), len(p)) for p in map(part, range(full + 1))]
    # The top signature (worse key, better key) over the orientations with
    # the preferred part first; every mask that reaches it is one of them.
    top = max((keys[full ^ m], keys[m]) for m in range(full + 1) if keys[m] >= keys[full ^ m])
    tied = (m for m in range(full + 1) if keys[m] == top[1] and keys[full ^ m] == top[0])
    best = min(tied, key=lambda m: sorted(part(m)))
    return SplitPair(part(best), part(full ^ best))


def best_allocation_under_predicate(
    instance: Instance,
    predicate: Callable[[Instance, Allocation], bool],
    budget: SearchBudget = SearchBudget(),
) -> tuple[Allocation, Fraction] | None:
    """Welfare-product maximizer among all budget-feasible allocations of all
    goods that satisfy ``predicate``; None if nothing satisfies it.

    The welfare branch and bound of :func:`max_nsw_allocation`, with the
    predicate checked at the leaves. Predicates like EF1 are not monotone
    under extension, so they never prune; the product bound does, and it
    caps every leaf below a node whatever the predicate says. Ties resolve
    to the first optimum in lexicographic assignment order.
    """
    agents = range(instance.num_agents)
    found = _welfare_walk(instance, agents, instance.all_goods(), budget, predicate)
    return found and (found[0], Fraction(found[1], math.prod(instance._value_scales)))


def is_pareto_efficient(
    instance: Instance, allocation: Allocation, budget: SearchBudget = SearchBudget()
) -> bool:
    """No allocation of the goods weakly dominates with a strict gain.

    Dominators range over all ways to hand out the goods, budget-feasible or
    not: an allocation that wastes value counts as inefficient even when
    budgets block every feasible repair. (With feasible-only dominators, the
    three-good lower-bound instance would admit an allocation that is both
    EF1 and efficient, contradicting what this oracle exists to certify.)
    """
    # On the integer form: each agent's sums over her own scale.
    base = _own_values(instance, allocation)
    rows = instance._int_values
    n_agents, n = len(rows), instance.num_goods
    suffix = _suffix_sums(rows)
    counter = _Counter(budget.max_assignments)
    acc = [0] * n_agents

    def walk(idx: int) -> bool:
        # Whether some leaf below dominates; the first one found ends the walk.
        for a in range(n_agents):
            if acc[a] + suffix[a][idx] < base[a]:
                return False  # cannot even match this agent's current value
        if idx == n:
            counter.tick()
            return any(acc[a] > base[a] for a in range(n_agents))
        for code in range(n_agents):
            old = acc[code]
            acc[code] = old + rows[code][idx]
            if walk(idx + 1):
                return True
            acc[code] = old
        return walk(idx + 1)

    dominated = walk(0)
    del walk  # as in _welfare_walk
    return not dominated


def knapsack_by_enumeration(
    instance: Instance, agent: int, pool: Iterable[int], budget
) -> tuple[Fraction, Bundle]:
    """Unpruned knapsack: literal max over all subsets, same tie-break.

    Independent check for :func:`budgeted_efx.model.knapsack_vmax`; shares no
    search machinery with it. Past the knapsack's frontier cap of subsets,
    raises :class:`SearchCapExceededError` before allocating any.
    """
    instance.check_agent(agent)
    pool = instance.check_bundle(pool)
    goods = sorted(pool)
    n = len(goods)
    _check_subsets("knapsack enumeration", n)
    costs = instance.costs
    vals = instance.values[agent]
    budget = to_rational(budget)
    # Subset sums by reusing the value of mask minus its lowest set bit.
    cost_of = [ZERO] * (1 << n)
    value_of = [ZERO] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        cost_of[mask] = cost_of[rest] + costs[goods[low]]
        value_of[mask] = value_of[rest] + vals[goods[low]]
    best_value = ZERO
    for mask in range(1 << n):
        if cost_of[mask] <= budget and value_of[mask] > best_value:
            best_value = value_of[mask]
    candidates = [
        mask
        for mask in range(1 << n)
        if cost_of[mask] <= budget and value_of[mask] == best_value
    ]
    witnesses = [
        tuple(goods[i] for i in range(n) if mask >> i & 1) for mask in candidates
    ]
    return best_value, frozenset(min(witnesses))


def max_nsw_by_enumeration(
    instance: Instance,
    agents: Sequence[int],
    pool: Iterable[int],
    budget: SearchBudget = SearchBudget(),
) -> tuple[Allocation, Fraction]:
    """Unpruned welfare maximization: visits every assignment of ``pool``.

    Feasibility is checked per complete assignment and no bounding is done,
    so this is the oracle-of-the-oracle for :func:`max_nsw_allocation`.
    """
    agents = tuple(sorted(set(agents)))
    if not agents:
        raise StructuralError("at least one agent required")
    for a in agents:
        instance.check_agent(a)
    pool = instance.check_bundle(pool)
    goods = sorted(pool)
    k = len(agents)
    counter = _Counter(budget.max_assignments)
    best_product: Fraction | None = None
    best_assign: tuple[int, ...] | None = None
    for codes in itertools.product(range(k + 1), repeat=len(goods)):
        counter.tick()
        spent = [ZERO] * k
        acc = [ZERO] * k
        for g, code in zip(goods, codes):
            if code < k:
                spent[code] += instance.costs[g]
                acc[code] += instance.values[agents[code]][g]
        if any(spent[ai] > instance.budgets[agents[ai]] for ai in range(k)):
            continue
        product = ONE
        for v in acc:
            product *= v
        if best_product is None or product > best_product:
            best_product = product
            best_assign = codes
    assert best_assign is not None and best_product is not None
    bundles: list[set[int]] = [set() for _ in range(instance.num_agents)]
    for g, code in zip(goods, best_assign):
        if code < k:
            bundles[agents[code]].add(g)
    return (
        Allocation(tuple(frozenset(b) for b in bundles), pool),
        best_product,
    )
