"""EFx allocation for a pair of budget-constrained agents.

Transforms any budget-feasible two-agent allocation into an EFx one. One
agent keeps at least her input value and the other keeps at least half, so
seeding with the welfare-optimal allocation yields the best approximation
ratio any EFx (or even EF1) allocation can give.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from .model import (
    Allocation,
    Bundle,
    Instance,
    InvariantViolationError,
    StructuralError,
    _Record,
    _assemble,
    _efx_envies,
    _envious,
    _fits,
    _int_value,
    _knapsack,
    _own_values,
)
from .oracles import leximin_pp_split

__all__ = [
    "FeasibilityGraph",
    "TwoAgentResult",
    "build_feasibility_graph",
    "efx_2a",
    "select_perfect_matching",
]


class FeasibilityGraph(_Record):
    """Bipartite agent-to-bundle graph of EFx-safe assignments.

    Agent ``i`` has an edge to bundle ``j`` exactly when holding her best
    affordable subset of bundle ``j`` she would not EFx-envy any of the
    listed bundles. ``values[i][j]`` caches that best affordable value, as a
    Fraction; the pair procedure's own graphs hold it in agent ``i``'s units.
    """

    __slots__ = _fields = ("agents", "bundles", "edges", "values")


class TwoAgentResult(_Record):
    """Outcome of the pair procedure.

    ``allocation`` covers only the two input bundles (its scope); the
    unallocated pool inside that scope is exactly ``unallocated_r`` (a whole
    unmatched bundle) plus ``leftout_rprime`` (goods the matched agents could
    not afford). ``matched`` holds the matched bundles, in pair order, before
    each agent took her best affordable subset.
    """

    __slots__ = _fields = (
        "allocation",
        "matched",
        "unallocated_r",
        "leftout_rprime",
        "branch",
        "envier",
        "iterations",
    )


def build_feasibility_graph(
    instance: Instance,
    agents: Sequence[int],
    bundles: Sequence[Iterable[int]],
) -> FeasibilityGraph:
    checked = tuple(instance.check_bundle(b) for b in bundles)
    taken: set[int] = set()
    for b in checked:
        if b & taken:
            raise StructuralError("graph bundles must be pairwise disjoint")
        taken |= b
    for agent in agents:
        instance.check_agent(agent)
    graph = _graph(instance, agents, checked)
    scales = [instance._value_scales[agent] for agent in agents]
    values = tuple(tuple([Fraction(v, s) for v in row]) for s, row in zip(scales, graph.values))
    return FeasibilityGraph(graph.agents, checked, graph.edges, values)


def _graph(
    instance: Instance, agents: Sequence[int], bundles: tuple[Bundle, ...]
) -> FeasibilityGraph:
    # The feasibility graph of checked agents and bundles, its values in
    # each agent's units.
    values: list[tuple[int, ...]] = []
    edges: set[tuple[int, int]] = set()
    for pos, agent in enumerate(agents):
        vals = instance._int_values[agent]
        row: list[int] = []
        threshold = 0
        for b in bundles:
            # Her best value of the bundle after any one drop: all of it
            # without its least valued good when she affords it whole, and
            # otherwise its best value, since each best affordable subset
            # misses some good of it.
            if _fits(instance, agent, b):
                best = _int_value(instance, agent, b)
                after_drop = best - min([vals[g] for g in b], default=0)
            else:
                best = after_drop = _knapsack(instance, agent, b, instance._int_budgets[agent])[0]
            row.append(best)
            threshold = max(threshold, after_drop)
        for j, achievable in enumerate(row):
            if achievable >= threshold:
                edges.add((pos, j))
        values.append(tuple(row))
    return FeasibilityGraph(tuple(agents), bundles, frozenset(edges), tuple(values))


def select_perfect_matching(
    graph: FeasibilityGraph, priority_agent: int, secondary_agent: int
) -> dict[int, int] | None:
    """Best perfect matching of the two agents to distinct bundles, or None.

    Maximizes the priority agent's achievable value, then the secondary
    agent's, then takes the lowest bundle index pair, so reruns replay
    identically.
    """
    for agent in (priority_agent, secondary_agent):
        if isinstance(agent, bool) or agent not in graph.agents:
            raise StructuralError(f"agent {agent!r} is not in the feasibility graph")
    if priority_agent == secondary_agent:
        raise StructuralError("pair must name two distinct agents")
    p = graph.agents.index(priority_agent)
    s = graph.agents.index(secondary_agent)
    edges, values = graph.edges, graph.values
    best = max(
        (
            (bp, bs)
            for bp, bs in itertools.permutations(range(len(graph.bundles)), 2)
            if (p, bp) in edges and (s, bs) in edges
        ),
        key=lambda pick: (values[p][pick[0]], values[s][pick[1]], -pick[0], -pick[1]),
        default=None,
    )
    return None if best is None else {priority_agent: best[0], secondary_agent: best[1]}


def efx_2a(
    instance: Instance, pair: tuple[int, int], allocation: Allocation
) -> TwoAgentResult:
    """Turn a budget-feasible allocation for ``pair`` into an EFx one.

    Branches:

    * already EFx between the two agents: returned unchanged;
    * mutual EFx-envy: the agents swap, each taking her best affordable
      subset of the other's bundle;
    * one-sided envy with the envier worth at least half of what she could
      extract from the envied bundle: the envier repeatedly moves her least
      valued good from the envied bundle into a reserve until the
      feasibility graph over (own, envied, reserve) has a perfect matching;
    * one-sided envy below that threshold: the envied bundle is split by
      leximin++ under the envier's achievable-value function and the
      matching runs over (own, part one, part two).

    In rare budget geometries the value-maximizing matching can sit below
    the promised per-agent floors; the result is then rebuilt from the best
    assignment, across both bundle configurations, that passes a direct
    check of every promised property (the ``*_certified`` branches).

    The envier never loses value against her input bundle and the envied
    agent keeps at least half of hers; neither agent envies the bundle left
    unallocated.
    """
    a, b = pair
    instance.check_agent(a)
    instance.check_agent(b)
    if a == b:
        raise StructuralError("pair must name two distinct agents")
    # The one check of the allocation; then ints, in each agent's units.
    own_values = _own_values(instance, allocation)
    budgets = instance._int_budgets
    xa, xb = allocation.bundles[a], allocation.bundles[b]
    for agent, bundle in ((a, xa), (b, xb)):
        if not _fits(instance, agent, bundle):
            raise StructuralError(f"input bundle of agent {agent} exceeds her budget")
    scope = xa | xb

    a_envies = _efx_envies(instance, a, xb, own_values[a])
    b_envies = _efx_envies(instance, b, xa, own_values[b])

    def result(parts, matched, branch, envier, iterations):
        # Each agent's final bundle in ``parts``, her matched one in ``matched``.
        final = _assemble(instance, parts, scope)
        leftout = (matched[a] - final.bundles[a]) | (matched[b] - final.bundles[b])
        unallocated = final.unallocated() - leftout
        return TwoAgentResult(
            allocation=final,
            matched=(matched[a], matched[b]),
            unallocated_r=unallocated,
            leftout_rprime=leftout,
            branch=branch,
            envier=envier,
            iterations=iterations,
        )

    def take_best_affordable(agent: int, bundle: Bundle) -> Bundle:
        # A fully affordable bundle is taken whole (its value already equals
        # the best achievable), so the higher-budget agent never leaves
        # zero-value crumbs behind and the left-out part stays confined to
        # the lower-budget agent's matched bundle.
        if _fits(instance, agent, bundle):
            return bundle
        return _knapsack(instance, agent, bundle, budgets[agent])[1]

    def best_value(agent: int, bundle: Bundle) -> int:
        return _knapsack(instance, agent, bundle, budgets[agent])[0]

    if not a_envies and not b_envies:
        return result({a: xa, b: xb}, {a: xa, b: xb}, "already_efx", None, 0)

    if a_envies and b_envies:
        swapped = {a: take_best_affordable(a, xb), b: take_best_affordable(b, xa)}
        return result(swapped, {a: xb, b: xa}, "mutual_swap", None, 0)

    envier, envied = (a, b) if a_envies else (b, a)
    x_envier = allocation.bundles[envier]
    x_envied = allocation.bundles[envied]
    own_value = own_values[envier]
    envied_value = own_values[envied]
    reachable = best_value(envier, x_envied)

    def floors_hold(graph: FeasibilityGraph, matching: dict[int, int]) -> bool:
        return (
            graph.values[0][matching[envier]] >= own_value
            and 2 * graph.values[1][matching[envied]] >= envied_value
        )

    def split_bundles() -> tuple[Bundle, Bundle, Bundle]:
        split = leximin_pp_split(x_envied, lambda part: best_value(envier, part))
        return (x_envier, split.first, split.second)

    def certify(bundles: tuple[Bundle, ...], be: int, bd: int):
        """Check every promised property of assigning bundle ``be`` to the
        envier and ``bd`` to the envied; returns the sort key or None."""
        take_e = take_best_affordable(envier, bundles[be])
        take_d = take_best_affordable(envied, bundles[bd])
        val_e = _int_value(instance, envier, take_e)
        val_d = _int_value(instance, envied, take_d)
        if val_e < own_value or 2 * val_d < envied_value:
            return None
        if _efx_envies(instance, envier, take_d, val_e):
            return None
        if _efx_envies(instance, envied, take_e, val_d):
            return None
        leftover = (bundles[be] - take_e) | (bundles[bd] - take_d)
        third = bundles[3 - be - bd]
        for agent, val in ((envier, val_e), (envied, val_d)):
            if _envious(instance, agent, third, val):
                return None
        (lower, low_val), (higher, high_val) = sorted(
            ((envier, val_e), (envied, val_d)), key=lambda av: (budgets[av[0]], av[0])
        )
        if _envious(instance, lower, leftover, low_val):
            return None
        if _efx_envies(instance, higher, leftover, high_val):
            return None
        return (val_d, val_e)

    def certified_selection(
        configurations: list[tuple[Bundle, Bundle, Bundle]],
    ) -> tuple[tuple[Bundle, Bundle, Bundle], int, int]:
        # The highest (val_d, val_e), ties to the earliest configuration,
        # then the lowest envied bundle, then the lowest envier bundle.
        best = max(
            (
                ((*key, -cfg_idx, -bd, -be), (bundles, be, bd))
                for cfg_idx, bundles in enumerate(configurations)
                for be, bd in itertools.permutations(range(3), 2)
                if (key := certify(bundles, be, bd)) is not None
            ),
            key=lambda keyed: keyed[0],
            default=None,
        )
        if best is None:
            raise InvariantViolationError(
                "no assignment over either bundle configuration satisfies "
                "all promised guarantees"
            )
        return best[1]

    iterations = 0
    if 2 * own_value >= reachable:
        branch = "removal_loop"
        kept = set(x_envied)
        reserve: set[int] = set()
        envier_vals = instance._int_values[envier]
        while True:
            graph = _graph(
                instance,
                (envier, envied),
                (x_envier, frozenset(kept), frozenset(reserve)),
            )
            matching = select_perfect_matching(graph, envied, envier)
            if matching is not None or not kept:
                break
            g = min(kept, key=lambda h: (envier_vals[h], h))
            kept.remove(g)
            reserve.add(g)
            iterations += 1
    else:
        branch = "leximin_split"
        graph = _graph(instance, (envier, envied), split_bundles())
        matching = select_perfect_matching(graph, envied, envier)

    if matching is not None and floors_hold(graph, matching):
        matched_envier = graph.bundles[matching[envier]]
        matched_envied = graph.bundles[matching[envied]]
    else:
        # The value-maximizing matching can sit below the promised floors,
        # and budget geometry can starve the graph of matchings altogether:
        # removing the envier's cheapest-by-value good may crater the kept
        # bundle's achievable value (a dropped cheap good can be what made a
        # combination affordable), the matching may hand the envied agent
        # the envier's own bundle, or a reserved cheap treasure can pin both
        # agents to the reserve. Fall back to the best assignment, over the
        # current configuration, the split and the raw input bundles, that
        # passes a direct check of every promised property.
        configurations = [graph.bundles]
        if branch == "removal_loop":
            configurations.append(split_bundles())
        configurations.append((x_envier, x_envied, frozenset()))
        branch += "_certified"
        bundles, be, bd = certified_selection(configurations)
        matched_envier = bundles[be]
        matched_envied = bundles[bd]
    matched = {envier: matched_envier, envied: matched_envied}
    final = {agent: take_best_affordable(agent, bundle) for agent, bundle in matched.items()}
    return result(final, matched, branch, envier, iterations)
