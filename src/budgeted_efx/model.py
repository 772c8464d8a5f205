"""Exact domain model for budget-constrained fair division.

Instances, bundles, allocations, and the budget-aware fairness and
efficiency predicates. All arithmetic is exact. An :class:`Instance` is its
integer form: costs and budgets over one common denominator, and each
agent's values over that agent's own. Ints go into that form as they are;
Fractions and "p/q" strings are converted once, when the instance is built.
Its public ``costs``, ``budgets`` and ``values`` are Fractions built on
first read. The bundle sums, the knapsack kernels, the searches in
``oracles`` and the derived instances of ``normalize`` and the three-agent
pipeline read and write that form; results leave as Fractions.

The knapsack kernels are the suffix Pareto frontiers read by
``knapsack_vmax``, and one bounded decision, ``_beats``, that answers
whether an agent affords a subset of a bundle worth more than a value. The
envy, EFx and EF1 predicates need nothing else: an envied bundle the agent
cannot afford whole is EFx-envied (the budget binds after the removal, and
each best affordable subset misses some good of it), and of an affordable
one she keeps all but the dropped good, a sum. EF1 asks ``_beats`` once per
good of an envied unaffordable bundle. ``is_efx``, ``is_ef1`` and
``is_envy_free`` settle every pair whose target the agent affords whole, by
a sum, before any bounded decision on a target she cannot afford. So a
failing sum answers False even where a bounded decision on another pair
would pass the frontier cap; only a verdict that needs such a decision
raises :class:`SearchCapExceededError`. Floats and booleans are rejected at
the boundary because every predicate in this package compares exact sums.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, Union

Bundle = frozenset
RationalLike = Union[Fraction, int, str]

__all__ = [
    "Allocation",
    "Bundle",
    "DegenerateOptimumError",
    "EfxViolation",
    "FairDivisionError",
    "FrozenInstanceError",
    "Instance",
    "InvariantViolationError",
    "KnapsackAnswer",
    "MAX_GOODS",
    "SearchCapExceededError",
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
    "normalize",
    "nsw_product",
    "to_rational",
]

ZERO = Fraction(0)

# The welfare and Pareto walks recurse once per good; this keeps them well
# inside Python's default limit of 1,000 frames.
MAX_GOODS = 512


class FairDivisionError(Exception):
    """Base class for errors raised by this package."""


class StructuralError(FairDivisionError):
    """Malformed input: unknown ids, shape mismatches, negative quantities."""


class DegenerateOptimumError(FairDivisionError):
    """Normalization rejected because some agent values the optimum at zero."""


class InvariantViolationError(FairDivisionError):
    """A guaranteed property failed at runtime; indicates a bug, not bad input."""


class SearchCapExceededError(FairDivisionError):
    """The enumeration cap was hit; the caller gets an error, never a guess."""


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete an attribute of an immutable record."""


class _Record:
    """Base of the package's immutable records, :class:`Instance` among them.

    A record lists its fields, in constructor order, in ``_fields``; a plain
    record keeps them in slots of the same names. The one ``__init__`` takes
    each field by position or by name, raises the :class:`TypeError` a
    written-out signature would, and sets each field once; a record that
    checks its arguments does so in its own ``__init__`` and then calls
    this one. Like a frozen dataclass, a record equals another of the same
    class with an equal ``_key`` (by default the field values), hashes that
    key, prints as ``Name(field=value, ...)``, and raises
    :class:`FrozenInstanceError` on any assignment or deletion.
    ``_replace`` builds a copy with some fields changed, through
    ``__init__``, and ``_asdict`` maps field names to values.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        put = object.__setattr__
        for name, value in zip(fields, args):
            put(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        # The field values, in field order, of a call that names fields or
        # passes too few or too many.
        fields, call = cls._fields, cls.__qualname__ + "()"
        if len(args) > len(fields):
            raise TypeError(
                f"{call} takes {len(fields)} positional arguments but {len(args)} were given"
            )
        bound = dict(zip(fields, args))
        for name in kwargs:
            if name in bound:
                raise TypeError(f"{call} got multiple values for argument {name!r}")
        bound.update(kwargs)
        for name in fields:
            if name not in bound:
                raise TypeError(f"{call} missing required argument {name!r}")
        if len(bound) > len(fields):
            name = next(name for name in kwargs if name not in fields)
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        return tuple([bound[name] for name in fields])

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    _key = _astuple

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    def _replace(self, **changes: object) -> _Record:
        return type(self)(**{**self._asdict(), **changes})

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def _over_common_denominator(xs: Iterable[RationalLike]) -> tuple[tuple[int, ...], int]:
    """``xs`` times the LCM of their denominators, as ints, and that LCM.

    A tuple of ints is its own answer, with LCM 1, and is not copied. Any
    other number goes through :func:`to_rational`, in order.
    """
    xs = tuple(xs)
    for x in xs:
        if type(x) is not int:
            break
    else:
        return xs, 1
    # One as_integer_ratio() call per number, not two property reads.
    pairs = [to_rational(x).as_integer_ratio() for x in xs]
    lcm = math.lcm(*[q for _, q in pairs])
    return tuple([p * (lcm // q) for p, q in pairs]), lcm


def _lowest_terms(ints: tuple[int, ...], scale: int) -> tuple[tuple[int, ...], int]:
    """The numbers ``ints`` over ``scale`` in the instance's form: both divided
    by their gcd, which leaves the scale at the LCM of the reduced
    denominators."""
    d = math.gcd(scale, *ints)
    if d == 1:
        return ints, scale
    return tuple([x // d for x in ints]), scale // d


def _ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def to_rational(x: RationalLike) -> Fraction:
    """Convert to an exact rational, rejecting floats and booleans outright.

    A string is read in the wire format's one grammar: ASCII digits ``p``
    or ``p/q``, optionally after a ``-``. Decimals, exponents, spaces,
    underscores and a ``+`` are refused.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        p, slash, q = x.removeprefix("-").partition("/")
        if not (_ascii_digits(p) and (not slash or _ascii_digits(q))):
            raise StructuralError(
                f"malformed rational {x!r}: expected ASCII digits 'p' or "
                "'p/q', optionally after a '-'"
            )
        try:
            value = Fraction(int(p), int(q)) if slash else Fraction(int(p))
        except (ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"malformed rational {x!r}") from exc
        return -value if x.startswith("-") else value
    if isinstance(x, float):
        raise StructuralError(
            f"floating point value {x!r} is not allowed; pass an int, a 'p/q' "
            "string, or a Fraction"
        )
    if isinstance(x, bool):
        raise StructuralError(
            f"boolean value {x!r} is not allowed; pass an int, a 'p/q' string, or a Fraction"
        )
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise StructuralError(f"cannot interpret {x!r} as a rational") from exc


def _fractions(ints: tuple[int, ...], scale: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(x, scale) for x in ints])


class Instance(_Record):
    """Goods with costs, agents with budgets and additive per-good values.

    ``values[i][g]`` is agent ``i``'s value for good ``g``. Good and agent
    ids are dense 0-based indices into these tuples.

    The instance is its integer form: ``_int_costs`` and ``_int_budgets``
    are the costs and budgets times ``_cost_scale``, the LCM of their
    reduced denominators, and ``_int_values[i]`` is agent ``i``'s values
    times ``_value_scales[i]``, the LCM of that agent's reduced
    denominators. Each scale is a positive constant, so every comparison of
    costs with budgets, and of one agent's values with each other, reads the
    same on the integers. Int inputs go into the form as they are; other
    numbers go through :func:`to_rational`. The public ``costs``,
    ``budgets`` and ``values`` are tuples of Fractions, each built on its
    first read and then kept. The form is canonical, so ``==`` and ``hash``
    read it. The fields that ``repr``, ``_replace`` and ``_asdict`` show
    are the public ``costs``, ``budgets`` and ``values``.
    """

    __slots__ = (
        "_int_costs",
        "_int_budgets",
        "_cost_scale",
        "_int_values",
        "_value_scales",
        # The views, once read; an instance has no dict before that.
        "__dict__",
    )
    _fields = ("costs", "budgets", "values")

    def __init__(
        self,
        costs: Iterable[RationalLike],
        budgets: Iterable[RationalLike],
        values: Iterable[Iterable[RationalLike]],
    ) -> None:
        int_costs, cost_scale = _over_common_denominator(costs)
        m = len(int_costs)
        if m > MAX_GOODS:
            raise StructuralError(f"{m} goods exceed the limit of {MAX_GOODS}")
        int_budgets, budget_scale = _over_common_denominator(budgets)
        rows = [_over_common_denominator(row) for row in values]
        if len(rows) != len(int_budgets):
            raise StructuralError(f"{len(int_budgets)} budgets but {len(rows)} value rows")
        for i, (row, _) in enumerate(rows):
            if len(row) != m:
                raise StructuralError(f"agent {i} has {len(row)} values but there are {m} goods")
        if cost_scale != budget_scale:
            scale = math.lcm(cost_scale, budget_scale)
            int_costs = tuple([c * (scale // cost_scale) for c in int_costs])
            int_budgets = tuple([b * (scale // budget_scale) for b in int_budgets])
            cost_scale = scale
        int_values = tuple([row for row, _ in rows])
        value_scales = tuple([scale for _, scale in rows])
        # The scales are positive, so the integers keep every sign.
        if min(int_costs, default=0) < 0:
            raise StructuralError("costs must be nonnegative")
        if min(int_budgets, default=0) < 0:
            raise StructuralError("budgets must be nonnegative")
        if any(min(row, default=0) < 0 for row in int_values):
            raise StructuralError("values must be nonnegative")
        _set_form(self, int_costs, int_budgets, cost_scale, int_values, value_scales)

    @cached_property
    def costs(self) -> tuple[Fraction, ...]:
        return _fractions(self._int_costs, self._cost_scale)

    @cached_property
    def budgets(self) -> tuple[Fraction, ...]:
        return _fractions(self._int_budgets, self._cost_scale)

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            [_fractions(row, scale) for row, scale in zip(self._int_values, self._value_scales)]
        )

    def _form(self) -> tuple:
        return (
            self._int_costs,
            self._int_budgets,
            self._cost_scale,
            self._int_values,
            self._value_scales,
        )

    _key = _form

    def __reduce__(self) -> tuple:
        return _from_form, self._form()

    @property
    def num_goods(self) -> int:
        return len(self._int_costs)

    @property
    def num_agents(self) -> int:
        return len(self._int_budgets)

    def all_goods(self) -> Bundle:
        return frozenset(range(self.num_goods))

    def check_agent(self, agent: int) -> None:
        if (
            isinstance(agent, bool)
            or not isinstance(agent, int)
            or not 0 <= agent < self.num_agents
        ):
            raise StructuralError(f"unknown agent id {agent!r}")

    def check_bundle(self, bundle: Iterable[int]) -> Bundle:
        bundle = frozenset(bundle)
        m = len(self._int_costs)
        for g in bundle:
            if isinstance(g, bool) or not isinstance(g, int) or not 0 <= g < m:
                raise StructuralError(f"unknown good id {g!r}")
        return bundle


def _set_form(
    instance: Instance,
    int_costs: tuple[int, ...],
    int_budgets: tuple[int, ...],
    cost_scale: int,
    int_values: tuple[tuple[int, ...], ...],
    value_scales: tuple[int, ...],
) -> None:
    put = object.__setattr__
    put(instance, "_int_costs", int_costs)
    put(instance, "_int_budgets", int_budgets)
    put(instance, "_cost_scale", cost_scale)
    put(instance, "_int_values", int_values)
    put(instance, "_value_scales", value_scales)


def _from_form(
    int_costs: tuple[int, ...],
    int_budgets: tuple[int, ...],
    cost_scale: int,
    int_values: tuple[tuple[int, ...], ...],
    value_scales: tuple[int, ...],
) -> Instance:
    """The instance with this integer form, which must be canonical (see
    :func:`_lowest_terms`) and nonnegative; nothing is checked."""
    instance = object.__new__(Instance)
    _set_form(instance, int_costs, int_budgets, cost_scale, int_values, value_scales)
    return instance


class Allocation(_Record):
    """Disjoint per-agent bundles over a scope of eligible goods.

    The unallocated pool is always derived as ``scope`` minus the union of
    the bundles, never stored.
    """

    __slots__ = _fields = ("bundles", "scope")

    def __init__(self, bundles: Iterable[Iterable[int]], scope: Iterable[int]) -> None:
        bundles = tuple([frozenset(b) for b in bundles])
        scope = frozenset(scope)
        seen: set[int] = set()
        for i, b in enumerate(bundles):
            if b & seen:
                raise StructuralError(
                    f"bundle of agent {i} overlaps an earlier bundle: {sorted(b & seen)}"
                )
            seen |= b
            if not b <= scope:
                raise StructuralError(
                    f"bundle of agent {i} contains goods outside the scope: "
                    f"{sorted(b - scope)}"
                )
        super().__init__(bundles, scope)

    def allocated(self) -> Bundle:
        return frozenset().union(*self.bundles)

    def unallocated(self) -> Bundle:
        return self.scope - self.allocated()


def make_allocation(instance: Instance, bundles: Sequence[Iterable[int]]) -> Allocation:
    """Build an allocation of all of ``instance``'s goods."""
    _check_count(instance, len(bundles))
    checked = tuple(instance.check_bundle(b) for b in bundles)
    return Allocation(checked, instance.all_goods())


def _assemble(instance: Instance, parts: dict, scope: Iterable[int]) -> Allocation:
    # The allocation of ``scope`` giving each agent of ``parts`` (checked
    # ids) her goods there, and every other agent of the instance nothing.
    return Allocation(tuple([parts.get(a, ()) for a in range(instance.num_agents)]), scope)


def _check_count(instance: Instance, count: int) -> None:
    if count != len(instance._int_budgets):
        raise StructuralError(f"expected {instance.num_agents} bundles, got {count}")


def _own_values(instance: Instance, allocation: Allocation) -> list[int]:
    """Each agent's value of her own bundle, in her units, after the one
    check of the bundle count and every good id; :func:`_values` skips it."""
    bundles = allocation.bundles
    _check_count(instance, len(bundles))
    for b in bundles:
        instance.check_bundle(b)
    return _values(instance, bundles)


def _values(instance: Instance, bundles: Sequence[Bundle]) -> list[int]:
    return [sum([row[g] for g in b]) for row, b in zip(instance._int_values, bundles)]


class KnapsackAnswer(_Record):
    """Best achievable value within a budget, plus a witness bundle attaining it."""

    __slots__ = _fields = ("value", "witness")


def bundle_cost(instance: Instance, bundle: Iterable[int]) -> Fraction:
    return Fraction(_int_cost(instance, instance.check_bundle(bundle)), instance._cost_scale)


def bundle_value(instance: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    instance.check_agent(agent)
    bundle = instance.check_bundle(bundle)
    return Fraction(_int_value(instance, agent, bundle), instance._value_scales[agent])


# Private helpers take ids checked on the way in, and answer on the integer
# form: costs over the cost scale, each agent's values over her own.


def _int_cost(instance: Instance, bundle: Iterable[int]) -> int:
    costs = instance._int_costs
    return sum([costs[g] for g in bundle])


def _int_value(instance: Instance, agent: int, bundle: Iterable[int]) -> int:
    row = instance._int_values[agent]
    return sum([row[g] for g in bundle])


def knapsack_vmax(
    instance: Instance, agent: int, pool: Iterable[int], budget: RationalLike
) -> KnapsackAnswer:
    """Maximum-value budget-feasible sub-bundle of ``pool`` for ``agent``.

    Reads the suffix Pareto frontiers of the pool on the instance's integer
    form (see :func:`_suffix_frontiers`). Among equal-value optima the
    witness is the one whose sorted good-id sequence is lexicographically
    smallest, which makes every downstream trace reproducible.
    """
    instance.check_agent(agent)
    pool = instance.check_bundle(pool)
    budget = to_rational(budget)
    if budget < 0:
        raise StructuralError("budget must be nonnegative")
    # The costs are integers over _cost_scale, so a sum fits the budget
    # exactly when it fits the floor of the scaled budget.
    cap = budget.numerator * instance._cost_scale // budget.denominator
    best, witness = _knapsack(instance, agent, pool, cap)
    return KnapsackAnswer(Fraction(best, instance._value_scales[agent]), witness)


def _knapsack(instance: Instance, agent: int, pool: Iterable[int], cap: int) -> tuple:
    # knapsack_vmax's value and witness, at a budget of ``cap`` cost units.
    goods = sorted(pool)
    int_costs = instance._int_costs
    costs = [int_costs[g] for g in goods]
    row = instance._int_values[agent]
    vals = [row[g] for g in goods]

    # Whole pool affordable: the max value is the sum of the positive-value
    # goods, and the lexicographic tie-break admits every zero-value good
    # below the largest positive one (prepending small ids shrinks the
    # sorted sequence, appending large ids grows it).
    if sum(costs) <= cap:
        positives = [g for g, v in zip(goods, vals) if v > 0]
        if not positives:
            return 0, frozenset()
        top = positives[-1]
        return sum(vals), frozenset(g for g, v in zip(goods, vals) if v > 0 or g < top)

    suffixes = _suffix_frontiers(costs, vals, cap, agent)
    best = suffixes[0][-1][1]
    # The smallest sorted sequence: take each good, ascending, with which
    # the optimum is still reachable from the goods after it, and stop once
    # the chosen goods reach it.
    need, room, witness = best, cap, []
    for k, g in enumerate(goods):
        if need == 0:
            break
        rest = room - costs[k]
        if rest >= 0 and vals[k] + _best_within(suffixes[k + 1], rest) >= need:
            witness.append(g)
            need -= vals[k]
            room = rest
    return best, frozenset(witness)


# The most entries the suffix frontiers of one knapsack call may hold; past
# it the call raises SearchCapExceededError rather than exhaust memory.
# 2^21 entries are about 240 MB.
_FRONTIER_ENTRIES = 1 << 21


def _check_held(held: int, agent: int, goods: int) -> None:
    # Raises once one knapsack call's frontiers have held past the cap.
    if held > _FRONTIER_ENTRIES:
        raise SearchCapExceededError(
            f"knapsack frontiers of agent {agent} over {goods} goods "
            f"reached {held} entries, past the cap of {_FRONTIER_ENTRIES}"
        )


def _check_subsets(search: str, n: int) -> None:
    # Raises before a ``search`` that values all 2^n subsets of n goods
    # when they are more than the frontier cap.
    if 1 << n > _FRONTIER_ENTRIES:
        raise SearchCapExceededError(
            f"{search} of {n} goods would value 2^{n} subsets, past the cap "
            f"of {_FRONTIER_ENTRIES}"
        )


def _with_good(front: list, cost: int, value: int, cap: int) -> list:
    # The Pareto frontier of the subsets in ``front`` with and without one
    # more good: (cost, value) pairs, cost ascending and at most ``cap``,
    # value strictly ascending.
    if cost > cap:
        return front
    merged = front + [(c + cost, v + value) for c, v in front if c + cost <= cap]
    merged.sort()
    out = [merged[0]]
    for c, v in merged:
        if v > out[-1][1]:
            if c == out[-1][0]:
                out[-1] = (c, v)
            else:
                out.append((c, v))
    return out


def _suffix_frontiers(costs: list, vals: list, cap: int, agent: int) -> list:
    """Pareto frontiers of (cost, value) over the subsets of each suffix of
    the goods, cut at ``cap`` (Nemhauser and Ullmann, 1969): ``[k]`` covers
    goods ``k`` onwards, and the last is ``[(0, 0)]``.

    Raises :class:`SearchCapExceededError` once they hold more than
    ``_FRONTIER_ENTRIES`` entries.
    """
    suffixes = [[(0, 0)]]
    held = 1
    for c, v in zip(reversed(costs), reversed(vals)):
        front = _with_good(suffixes[-1], c, v, cap)
        if front is not suffixes[-1]:
            held += len(front)
            _check_held(held, agent, len(costs))
        suffixes.append(front)
    suffixes.reverse()
    return suffixes


def _best_within(front: list, room: int) -> int:
    # The best value on a frontier at cost at most ``room`` >= 0.
    return front[bisect_right(front, room, key=itemgetter(0)) - 1][1]


def _density_key(largest: int) -> Callable[[tuple[int, int]], int]:
    """The key floor(v * C^2 / c) of a (cost c, value v) pair, 0 < c <= C =
    ``largest``. It orders densities exactly: two different densities v/c
    and v'/c' differ by at least 1/(c c') >= 1/C^2, so their keys do too."""
    square = largest * largest
    return lambda pair: pair[1] * square // pair[0]


def _beats(costs: list, vals: list, cap: int, own: int, agent: int) -> bool:
    """Whether some subset of the goods, at cost at most ``cap``, is worth
    more than ``own``.

    One Pareto frontier of (cost, value) over the goods in decreasing value
    density, cut at ``cap`` like :func:`_suffix_frontiers`, with each entry
    dropped once the fractional-knapsack bound (Dantzig, 1957) of the goods
    still to come cannot lift it above ``own``: its value, plus the whole
    goods that fit in its room, plus floor(room * v / c) of the good that
    does not. The answer is True at the first entry whose whole goods
    already beat ``own``, and False once no entry is left. Zero-cost goods
    are always taken and zero-value goods never help. Densities are ordered
    by :func:`_density_key`.

    Raises :class:`SearchCapExceededError` once the frontiers have held more
    than ``_FRONTIER_ENTRIES`` entries.
    """
    if sum(costs) <= cap:
        return sum(vals) > own
    items = []
    for c, v in zip(costs, vals):
        if v == 0 or c > cap:
            continue
        if c == 0:
            own -= v
        else:
            items.append((c, v))
    if own < 0:
        return True
    if not items:
        return False
    items.sort(key=_density_key(max(c for c, _ in items)), reverse=True)
    # Prefix sums of cost and value in density order.
    pc, pv = [0], [0]
    for c, v in items:
        pc.append(pc[-1] + c)
        pv.append(pv[-1] + v)
    n = len(items)
    front, held = [(0, 0)], 1
    for k, (ck, vk) in enumerate(items):
        kept = []
        for c, v in front:
            # Goods k .. j - 1 fit whole in the room cap - c; good j does not.
            reach = cap - c + pc[k]
            j = bisect_right(pc, reach, k) - 1
            whole = v + pv[j] - pv[k]
            if whole > own:
                return True
            if j < n and whole + (reach - pc[j]) * items[j][1] // items[j][0] > own:
                kept.append((c, v))
        if not kept:
            return False
        held += len(kept)
        _check_held(held, agent, len(costs))
        front = _with_good(kept, ck, vk, cap)
    # Each entry of the last merge is a kept entry with or without the last
    # good, and the loop compared both with ``own`` as whole goods.
    return False


def _envious(instance: Instance, agent: int, target: Bundle, own: int) -> bool:
    # Whether the agent affords a subset of ``target`` worth more than
    # ``own``, in her units. EFx and EF1 envy imply it.
    costs = instance._int_costs
    row = instance._int_values[agent]
    return _beats(
        [costs[g] for g in target],
        [row[g] for g in target],
        instance._int_budgets[agent],
        own,
        agent,
    )


def envies(
    instance: Instance, allocation: Allocation, agent: int, target: Iterable[int]
) -> bool:
    """Budget-aware envy: some affordable subset of ``target`` beats the own bundle."""
    instance.check_agent(agent)
    own = _own_values(instance, allocation)[agent]
    return _envious(instance, agent, instance.check_bundle(target), own)


def efx_envies(
    instance: Instance, own_value: RationalLike, agent: int, target: Iterable[int]
) -> bool:
    """Whether dropping some single good from ``target`` still leaves the agent
    an affordable subset worth strictly more than ``own_value``.

    Equivalent to the literal two-quantifier form (a witnessing subset S and
    good g in S, with S - g affordable). The budget binds after the removal,
    so a ``target`` the agent cannot afford whole is EFx-envied exactly when
    it is envied: each best affordable subset misses some good of it, and
    survives that good's removal. Of an affordable ``target`` she keeps all
    but the dropped good, so the test is its value without its least valued
    good.
    """
    instance.check_agent(agent)
    own_value = to_rational(own_value)
    target = instance.check_bundle(target)
    # No int answer beats the floor of own_value in her units unless it
    # beats own_value.
    own = own_value.numerator * instance._value_scales[agent] // own_value.denominator
    return _efx_envies(instance, agent, target, own)


def _fits(instance: Instance, agent: int, bundle: Bundle) -> bool:
    return _int_cost(instance, bundle) <= instance._int_budgets[agent]


def _efx_envies(instance: Instance, agent: int, target: Bundle, own: int) -> bool:
    # The two cases of efx_envies's docstring, in her units.
    if _fits(instance, agent, target):
        return _beats_but_least(instance, agent, target, own)
    return _envious(instance, agent, target, own)


def _beats_but_least(instance: Instance, agent: int, target: Bundle, own: int) -> bool:
    # EFx and EF1 envy of a target she affords whole: she keeps all of it
    # but the dropped good, so its value without its least valued good
    # beats ``own``.
    row = instance._int_values[agent]
    vals = [row[g] for g in target]
    return bool(vals) and sum(vals) - min(vals) > own


def _beats_whole(instance: Instance, agent: int, target: Bundle, own: int) -> bool:
    # Envy of a target she affords whole: its value beats ``own``.
    return _int_value(instance, agent, target) > own


class EfxViolation(_Record):
    """Witness that ``agent`` EFx-envies the bundle of agent ``against``.

    ``subset`` lies in that bundle and contains ``removed_good``; without
    that good it fits the budget of ``agent`` and is worth strictly more to
    ``agent`` than the bundle ``agent`` holds.
    """

    __slots__ = _fields = ("agent", "against", "subset", "removed_good")


def efx_violation(instance: Instance, allocation: Allocation) -> EfxViolation | None:
    """First EFx violation, scanning agents, then targets, then removed goods
    in ascending id order; None when the allocation is EFx."""
    return _efx_violation(instance, allocation.bundles, _own_values(instance, allocation))


def _efx_violation(
    instance: Instance, bundles: Sequence[Bundle], own_values: list[int]
) -> EfxViolation | None:
    # The first pair, then its witness.
    for i, j in _envy_pairs(instance, range(len(bundles)), bundles, own_values, _efx_envies):
        target, own = bundles[j], own_values[i]
        # The smallest good whose removal still leaves her more than
        # ``own``; one exists because she EFx-envies the target.
        if _fits(instance, i, target):
            row = instance._int_values[i]
            total = _int_value(instance, i, target)
            g = min(h for h in target if total - row[h] > own)
        else:
            g = next(h for h in sorted(target) if _envious(instance, i, target - {h}, own))
        _, witness = _knapsack(instance, i, target - {g}, instance._int_budgets[i])
        return EfxViolation(i, j, tuple(sorted(witness | {g})), g)
    return None


def _envy_pairs(
    instance: Instance, agents: Sequence[int], bundles: Sequence[Bundle], own_values, test
) -> Iterator[tuple[int, int]]:
    # The ordered pairs (i, j) of distinct ``agents`` for which
    # ``test(instance, i, bundles[j], own_values[i])`` holds, lazily, i then
    # j in the order of ``agents``; bundles and values are indexed by id.
    for i in agents:
        own = own_values[i]
        for j in agents:
            if i != j and test(instance, i, bundles[j], own):
                yield i, j


def _no_pair(instance: Instance, allocation: Allocation, affordable, tight) -> bool:
    # Whether no agent envies another's bundle, each at her own value, by a
    # predicate's two cases: ``affordable`` for a bundle she affords whole,
    # a sum, and ``tight`` for one she cannot, a bounded decision. Every
    # affordable pair is settled before any bounded decision runs; each pass
    # takes agents, then targets, in id order.
    own_values = _own_values(instance, allocation)
    bundles = allocation.bundles
    costs = [_int_cost(instance, b) for b in bundles]
    budgets = instance._int_budgets
    unaffordable = []
    for i, own in enumerate(own_values):
        for j, target in enumerate(bundles):
            if i == j:
                continue
            if costs[j] > budgets[i]:
                unaffordable.append((i, j))
            elif affordable(instance, i, target, own):
                return False
    return not any(tight(instance, i, bundles[j], own_values[i]) for i, j in unaffordable)


def is_efx(instance: Instance, allocation: Allocation) -> bool:
    """Envy-freeness up to any good, measured against budget-feasible sub-bundles."""
    return _no_pair(instance, allocation, _beats_but_least, _envious)


def is_ef1(instance: Instance, allocation: Allocation) -> bool:
    """Envy-freeness up to one good, measured against budget-feasible
    sub-bundles: no affordable nonempty subset of another bundle, without its
    least valued good, is worth more than the own bundle."""
    return _no_pair(instance, allocation, _beats_but_least, _ef1_tight)


def _ef1_tight(instance: Instance, agent: int, target: Bundle, own: int) -> bool:
    # EF1 envy of a target she cannot afford whole: some affordable nonempty
    # S of T, without its least valued good, is worth more than ``own``.
    # v(S) minus its least good value is the largest v(S - h) over h in S,
    # so this holds exactly when for some h in T with c(h) <= B some subset
    # of T - h affordable at B - c(h) beats ``own``. Of an affordable T that
    # is EFx's sum test. EF1 envy implies envy, which one bounded decision
    # rules out for most pairs.
    if not _envious(instance, agent, target, own):
        return False
    costs = instance._int_costs
    row = instance._int_values[agent]
    cap = instance._int_budgets[agent]
    for h in sorted(target):
        if costs[h] <= cap:
            rest = target - {h}
            rest_costs, rest_vals = [costs[g] for g in rest], [row[g] for g in rest]
            if _beats(rest_costs, rest_vals, cap - costs[h], own, agent):
                return True
    return False


def is_envy_free(instance: Instance, allocation: Allocation) -> bool:
    return _no_pair(instance, allocation, _beats_whole, _envious)


def nsw_product(instance: Instance, allocation: Allocation) -> Fraction:
    """Product of the agents' bundle values.

    The n-th root of this product is irrational in general; every comparison
    made here is between allocations of the same instance, for which the
    product order and the geometric-mean order coincide.
    """
    return Fraction(
        math.prod(_own_values(instance, allocation)), math.prod(instance._value_scales)
    )


def normalize(instance: Instance, opt: Allocation) -> Instance:
    """Rescale each agent's values so her optimum bundle is worth exactly 1.

    Costs and budgets are untouched. Instances where some agent values her
    optimum bundle at zero are rejected: the rescaling is undefined there.

    Agent i's values are her integer row over her scale S_i, and her
    optimum is worth w/S_i for an int w; so the rescaled values are the
    same row over the scale w, brought to lowest terms.
    """
    rows = []
    for i, (row, opt_value) in enumerate(zip(instance._int_values, _own_values(instance, opt))):
        if opt_value == 0:
            raise DegenerateOptimumError(
                f"degenerate optimum: agent {i} values her optimum bundle at 0"
            )
        rows.append(_lowest_terms(row, opt_value))
    return _from_form(
        instance._int_costs,
        instance._int_budgets,
        instance._cost_scale,
        tuple([row for row, _ in rows]),
        tuple([scale for _, scale in rows]),
    )
