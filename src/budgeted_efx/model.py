"""Exact domain model for budget-constrained fair division.

Instances, bundles, allocations, and the budget-aware fairness and
efficiency predicates. All arithmetic is exact: numbers are
:class:`fractions.Fraction` everywhere except inside the welfare branch and
bound (``oracles._welfare_walk``), which searches on integers scaled over
common denominators. Floating point is rejected at the boundary because
every predicate in this package compares exact sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Bundle = frozenset
RationalLike = Union[Fraction, int, str]

__all__ = [
    "Allocation",
    "Bundle",
    "DegenerateOptimumError",
    "EfxViolation",
    "FairDivisionError",
    "Instance",
    "InvariantViolationError",
    "KnapsackAnswer",
    "MAX_GOODS",
    "StructuralError",
    "bundle_cost",
    "bundle_value",
    "efx_envies",
    "efx_violation",
    "envies",
    "is_ef1",
    "is_efx",
    "is_envy_free",
    "knapsack_vmax",
    "make_allocation",
    "monopoly_value",
    "normalize",
    "nsw_product",
    "to_rational",
]

ZERO = Fraction(0)

# The knapsack, EF1, welfare and Pareto walks recurse once per good; this
# keeps them well inside Python's default limit of 1,000 frames.
MAX_GOODS = 512


class FairDivisionError(Exception):
    """Base class for errors raised by this package."""


class StructuralError(FairDivisionError):
    """Malformed input: unknown ids, shape mismatches, negative quantities."""


class DegenerateOptimumError(FairDivisionError):
    """Normalization rejected because some agent values the optimum at zero."""


class InvariantViolationError(FairDivisionError):
    """A guaranteed property failed at runtime; indicates a bug, not bad input."""


def to_rational(x: RationalLike) -> Fraction:
    """Convert to an exact rational, rejecting floats outright."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise StructuralError(
            f"floating point value {x!r} is not allowed; pass an int, a 'p/q' "
            "string, or a Fraction"
        )
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise StructuralError(f"cannot interpret {x!r} as a rational") from exc


@dataclass(frozen=True)
class Instance:
    """Goods with costs, agents with budgets and additive per-good values.

    ``values[i][g]`` is agent ``i``'s value for good ``g``. Good and agent
    ids are dense 0-based indices into these tuples.
    """

    costs: tuple[Fraction, ...]
    budgets: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "costs", tuple(to_rational(c) for c in self.costs))
        if len(self.costs) > MAX_GOODS:
            raise StructuralError(f"{len(self.costs)} goods exceed the limit of {MAX_GOODS}")
        object.__setattr__(self, "budgets", tuple(to_rational(b) for b in self.budgets))
        object.__setattr__(
            self, "values", tuple(tuple(to_rational(v) for v in row) for row in self.values)
        )
        if len(self.values) != len(self.budgets):
            raise StructuralError(
                f"{len(self.budgets)} budgets but {len(self.values)} value rows"
            )
        for i, row in enumerate(self.values):
            if len(row) != len(self.costs):
                raise StructuralError(
                    f"agent {i} has {len(row)} values but there are {len(self.costs)} goods"
                )
        if any(c.numerator < 0 for c in self.costs):
            raise StructuralError("costs must be nonnegative")
        if any(b.numerator < 0 for b in self.budgets):
            raise StructuralError("budgets must be nonnegative")
        if any(v.numerator < 0 for row in self.values for v in row):
            raise StructuralError("values must be nonnegative")

    @property
    def num_goods(self) -> int:
        return len(self.costs)

    @property
    def num_agents(self) -> int:
        return len(self.budgets)

    def all_goods(self) -> Bundle:
        return frozenset(range(self.num_goods))

    def check_agent(self, agent: int) -> None:
        if not isinstance(agent, int) or not 0 <= agent < self.num_agents:
            raise StructuralError(f"unknown agent id {agent!r}")

    def check_bundle(self, bundle: Iterable[int]) -> Bundle:
        bundle = frozenset(bundle)
        for g in bundle:
            if not isinstance(g, int) or not 0 <= g < self.num_goods:
                raise StructuralError(f"unknown good id {g!r}")
        return bundle


@dataclass(frozen=True)
class Allocation:
    """Disjoint per-agent bundles over a scope of eligible goods.

    The unallocated pool is always derived as ``scope`` minus the union of
    the bundles, never stored.
    """

    bundles: tuple[Bundle, ...]
    scope: Bundle

    def __post_init__(self) -> None:
        object.__setattr__(self, "bundles", tuple(frozenset(b) for b in self.bundles))
        object.__setattr__(self, "scope", frozenset(self.scope))
        seen: set[int] = set()
        for i, b in enumerate(self.bundles):
            if b & seen:
                raise StructuralError(
                    f"bundle of agent {i} overlaps an earlier bundle: {sorted(b & seen)}"
                )
            seen |= b
            if not b <= self.scope:
                raise StructuralError(
                    f"bundle of agent {i} contains goods outside the scope: "
                    f"{sorted(b - self.scope)}"
                )

    @property
    def num_agents(self) -> int:
        return len(self.bundles)

    def allocated(self) -> Bundle:
        return frozenset().union(*self.bundles) if self.bundles else frozenset()

    def unallocated(self) -> Bundle:
        return self.scope - self.allocated()

    def replace(self, agent: int, bundle: Iterable[int]) -> "Allocation":
        bundles = list(self.bundles)
        bundles[agent] = frozenset(bundle)
        return Allocation(tuple(bundles), self.scope)


def make_allocation(
    instance: Instance,
    bundles: Sequence[Iterable[int]],
    scope: Iterable[int] | None = None,
) -> Allocation:
    """Build an allocation for ``instance``; scope defaults to all goods."""
    if len(bundles) != instance.num_agents:
        raise StructuralError(
            f"expected {instance.num_agents} bundles, got {len(bundles)}"
        )
    checked = tuple(instance.check_bundle(b) for b in bundles)
    if scope is None:
        scope_set = instance.all_goods()
    else:
        scope_set = instance.check_bundle(scope)
    return Allocation(checked, scope_set)


@dataclass(frozen=True)
class KnapsackAnswer:
    """Best achievable value within a budget, plus a witness bundle attaining it."""

    value: Fraction
    witness: Bundle


def bundle_cost(instance: Instance, bundle: Iterable[int]) -> Fraction:
    bundle = instance.check_bundle(bundle)
    return sum((instance.costs[g] for g in bundle), ZERO)


def bundle_value(instance: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    instance.check_agent(agent)
    bundle = instance.check_bundle(bundle)
    row = instance.values[agent]
    return sum((row[g] for g in bundle), ZERO)


def knapsack_vmax(
    instance: Instance, agent: int, pool: Iterable[int], budget: RationalLike
) -> KnapsackAnswer:
    """Maximum-value budget-feasible sub-bundle of ``pool`` for ``agent``.

    Exhaustive subset search with cost pruning. Among equal-value optima the
    witness is the one whose sorted good-id sequence is lexicographically
    smallest, which makes every downstream trace reproducible.
    """
    instance.check_agent(agent)
    pool = instance.check_bundle(pool)
    budget = to_rational(budget)
    if budget < 0:
        raise StructuralError("budget must be nonnegative")
    goods = sorted(pool)
    costs = instance.costs
    vals = instance.values[agent]

    # Whole pool affordable: the max value is the sum of the positive-value
    # goods, and the lexicographic tie-break admits every zero-value good
    # below the largest positive one (prepending small ids shrinks the
    # sorted sequence, appending large ids grows it).
    if sum((costs[g] for g in goods), ZERO) <= budget:
        positives = [g for g in goods if vals[g] > 0]
        if not positives:
            return KnapsackAnswer(ZERO, frozenset())
        top = positives[-1]
        witness = frozenset(g for g in goods if vals[g] > 0 or g < top)
        return KnapsackAnswer(sum((vals[g] for g in positives), ZERO), witness)

    n = len(goods)
    suffix = [ZERO] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vals[goods[i]]

    best_value = ZERO
    best_witness: tuple[int, ...] = ()
    chosen: list[int] = []

    def walk(idx: int, cost: Fraction, value: Fraction) -> None:
        nonlocal best_value, best_witness
        if value + suffix[idx] < best_value:
            return
        if idx == n:
            if value > best_value or (
                value == best_value and tuple(chosen) < best_witness
            ):
                best_value = value
                best_witness = tuple(chosen)
            return
        g = goods[idx]
        with_g = cost + costs[g]
        if with_g <= budget:
            chosen.append(g)
            walk(idx + 1, with_g, value + vals[g])
            chosen.pop()
        walk(idx + 1, cost, value)

    walk(0, ZERO, ZERO)
    return KnapsackAnswer(best_value, frozenset(best_witness))


def monopoly_value(instance: Instance, agent: int, budget: RationalLike) -> Fraction:
    """Best value the agent could reach if she alone chose from all goods."""
    return knapsack_vmax(instance, agent, instance.all_goods(), budget).value


def envies(
    instance: Instance, allocation: Allocation, agent: int, target: Iterable[int]
) -> bool:
    """Budget-aware envy: some affordable subset of ``target`` beats the own bundle."""
    own = bundle_value(instance, agent, allocation.bundles[agent])
    best = knapsack_vmax(instance, agent, target, instance.budgets[agent]).value
    return best > own


def _first_efx_drop(
    instance: Instance, own_value: Fraction, agent: int, target: Bundle
) -> tuple[int, KnapsackAnswer] | None:
    # The smallest good of ``target`` whose removal still leaves the agent an
    # affordable subset worth more than ``own_value``, with that subset.
    budget = instance.budgets[agent]
    for g in sorted(target):
        answer = knapsack_vmax(instance, agent, target - {g}, budget)
        if answer.value > own_value:
            return g, answer
    return None


def efx_envies(
    instance: Instance, own_value: RationalLike, agent: int, target: Iterable[int]
) -> bool:
    """Whether dropping any single good from ``target`` still leaves the agent
    an affordable subset worth strictly more than ``own_value``.

    Equivalent to the literal two-quantifier form (a witnessing subset S and
    good g in S): the maximizing subset of ``target`` minus a good is itself
    budget-feasible, and any witness yields such a removed good.
    """
    own_value = to_rational(own_value)
    target = instance.check_bundle(target)
    return _first_efx_drop(instance, own_value, agent, target) is not None


def _ef1_envies(
    instance: Instance, own_value: Fraction, agent: int, target: Bundle
) -> bool:
    # Violation iff some feasible nonempty S <= target has
    # v(S) - min_{g in S} v(g) > own_value.
    goods = sorted(target)
    costs = instance.costs
    vals = instance.values[agent]
    budget = instance.budgets[agent]
    n = len(goods)

    def walk(idx: int, cost: Fraction, value: Fraction, lowest: Fraction | None) -> bool:
        if lowest is not None and value - lowest > own_value:
            return True
        if idx == n:
            return False
        g = goods[idx]
        with_g = cost + costs[g]
        if with_g <= budget:
            new_low = vals[g] if lowest is None else min(lowest, vals[g])
            if walk(idx + 1, with_g, value + vals[g], new_low):
                return True
        return walk(idx + 1, cost, value, lowest)

    return walk(0, ZERO, ZERO, None)


@dataclass(frozen=True)
class EfxViolation:
    """Witness that ``agent`` EFx-envies the bundle of agent ``against``.

    ``subset`` lies in that bundle and contains ``removed_good``; without
    that good it fits the budget of ``agent`` and is worth strictly more to
    ``agent`` than the bundle ``agent`` holds.
    """

    agent: int
    against: int
    subset: tuple[int, ...]
    removed_good: int


def efx_violation(instance: Instance, allocation: Allocation) -> EfxViolation | None:
    """First EFx violation, scanning agents, then targets, then removed goods
    in ascending id order; None when the allocation is EFx."""
    for i in range(instance.num_agents):
        own = bundle_value(instance, i, allocation.bundles[i])
        for j in range(instance.num_agents):
            if i == j:
                continue
            found = _first_efx_drop(instance, own, i, allocation.bundles[j])
            if found is not None:
                g, answer = found
                return EfxViolation(i, j, tuple(sorted(answer.witness | {g})), g)
    return None


def is_efx(instance: Instance, allocation: Allocation) -> bool:
    """Envy-freeness up to any good, measured against budget-feasible sub-bundles."""
    return efx_violation(instance, allocation) is None


def is_ef1(instance: Instance, allocation: Allocation) -> bool:
    """Envy-freeness up to one good, measured against budget-feasible sub-bundles."""
    for i in range(instance.num_agents):
        own = bundle_value(instance, i, allocation.bundles[i])
        for j in range(instance.num_agents):
            if i != j and _ef1_envies(instance, own, i, allocation.bundles[j]):
                return False
    return True


def is_envy_free(instance: Instance, allocation: Allocation) -> bool:
    for i in range(instance.num_agents):
        for j in range(instance.num_agents):
            if i != j and envies(instance, allocation, i, allocation.bundles[j]):
                return False
    return True


def nsw_product(instance: Instance, allocation: Allocation) -> Fraction:
    """Product of the agents' bundle values.

    The n-th root of this product is irrational in general; every comparison
    made here is between allocations of the same instance, for which the
    product order and the geometric-mean order coincide.
    """
    product = Fraction(1)
    for i in range(instance.num_agents):
        product *= bundle_value(instance, i, allocation.bundles[i])
    return product


def normalize(instance: Instance, opt: Allocation) -> Instance:
    """Rescale each agent's values so her optimum bundle is worth exactly 1.

    Costs and budgets are untouched. Instances where some agent values her
    optimum bundle at zero are rejected: the rescaling is undefined there.
    """
    scaled_rows = []
    for i in range(instance.num_agents):
        opt_value = bundle_value(instance, i, opt.bundles[i])
        if opt_value == 0:
            raise DegenerateOptimumError(
                f"degenerate optimum: agent {i} values her optimum bundle at 0"
            )
        scaled_rows.append(tuple(v / opt_value for v in instance.values[i]))
    return Instance(instance.costs, instance.budgets, tuple(scaled_rows))
