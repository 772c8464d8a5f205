"""The instance as its integer form: constructor inputs, the public surface
of a frozen dataclass, and derived instances that equal their rebuilds."""

import copy
import gc
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from budgeted_efx.model import (
    Allocation,
    DegenerateOptimumError,
    FrozenInstanceError,
    Instance,
    StructuralError,
    bundle_value,
    efx_envies,
    efx_violation,
    is_ef1,
    knapsack_vmax,
    normalize,
    to_rational,
)
from budgeted_efx.oracles import knapsack_by_enumeration, max_nsw_allocation
from budgeted_efx.three_agents import _equal_budgets, _permute_instance

F = Fraction


def form(inst):
    return (
        inst._int_costs,
        inst._int_budgets,
        inst._cost_scale,
        inst._int_values,
        inst._value_scales,
    )


def rebuilt(inst):
    return Instance(inst.costs, inst.budgets, inst.values)


class TestBooleansRejected:
    def test_to_rational(self):
        for flag in (True, False):
            with pytest.raises(StructuralError, match="boolean value"):
                to_rational(flag)

    def test_instance(self):
        with pytest.raises(StructuralError, match="boolean value True"):
            Instance((True,), (1,), ((1,),))
        with pytest.raises(StructuralError, match="boolean value False"):
            Instance((1,), (1,), ((False,),))

    def test_knapsack_vmax(self):
        inst = Instance((0,), (1,), ((1,),))
        with pytest.raises(StructuralError, match="boolean value False"):
            knapsack_vmax(inst, 0, {0}, False)

    def test_efx_envies(self):
        inst = Instance((1, 1), (2,), ((1, 1),))
        with pytest.raises(StructuralError, match="boolean value True"):
            efx_envies(inst, True, 0, {0, 1})

    def test_knapsack_by_enumeration(self):
        inst = Instance((0,), (1,), ((1,),))
        with pytest.raises(StructuralError, match="boolean value True"):
            knapsack_by_enumeration(inst, 0, {0}, True)


class TestConstructor:
    def test_positional_and_keyword_arguments_agree(self):
        a = Instance((1, F(1, 2)), (3,), ((0, "7/4"),))
        b = Instance(values=[[0, F(7, 4)]], budgets=["3"], costs=["2/2", "1/2"])
        assert a == b
        assert a.costs == (F(1), F(1, 2))
        assert a.budgets == (F(3),)
        assert a.values == ((F(0), F(7, 4)),)
        assert all(type(x) is Fraction for x in a.costs + a.budgets + a.values[0])

    @pytest.mark.parametrize(
        "args, message",
        [
            (((0.5,), (1,), ((1,),)), "floating point value 0.5 is not allowed"),
            ((("x",), (0.5,), ((1,),)), "malformed rational 'x'"),
            (((1,) * 513, (0.5,), ()), "513 goods exceed the limit of 512"),
            (((1,), (0.5,), (("x",),)), "floating point value 0.5"),
            (((1, 1), (1,), (("x",),)), "malformed rational 'x'"),
            (((-1,), (1, 1), ((1,),)), "2 budgets but 1 value rows"),
            (((-1, 1), (1,), ((1,),)), "agent 0 has 1 values but there are 2 goods"),
            ((("-1/2",), (-1,), ((-1,),)), "costs must be nonnegative"),
            (((1,), ("-1/3",), ((-1,),)), "budgets must be nonnegative"),
            (((1,), (1,), ((F(-1, 2),),)), "values must be nonnegative"),
        ],
    )
    def test_errors_keep_their_messages_and_order(self, args, message):
        with pytest.raises(StructuralError, match=message):
            Instance(*args)

    def test_repr_is_the_dataclass_text(self):
        inst = Instance((F(1, 2), 1), ("1",), ((0, "6/2"),))
        assert repr(inst) == (
            "Instance(costs=(Fraction(1, 2), Fraction(1, 1)), "
            "budgets=(Fraction(1, 1),), values=((Fraction(0, 1), Fraction(3, 1)),))"
        )

    def test_frozen(self):
        inst = Instance((1,), (1,), ((1,),))
        for name in ("costs", "budgets", "values", "_int_costs", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(inst, name, ())
        inst.costs
        for name in ("costs", "_int_costs"):
            with pytest.raises(FrozenInstanceError):
                delattr(inst, name)
        assert inst.costs == (F(1),)

    def test_copy_and_pickle_round_trip(self):
        inst = Instance((F(1, 2), 3), (F(7, 3),), ((F(5, 6), 0),))
        inst.values
        for twin in (copy.copy(inst), copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
            assert twin == inst
            assert hash(twin) == hash(inst)
            assert repr(twin) == repr(inst)
            assert form(twin) == form(inst)

    def test_equality_needs_the_same_class(self):
        inst = Instance((1,), (1,), ((1,),))
        assert inst != form(inst)
        assert inst.__eq__(form(inst)) is NotImplemented

    def test_integer_instances_share_unit_scales_and_hold_no_views(self):
        a = Instance((1, 2), (3, 4), ((5, 6), (7, 8)))
        b = Instance([0], [9, 9], [[0], [1]])
        assert a._value_scales == b._value_scales == (1, 1)
        # No __dict__ until a view is read: the instance refers to no dict.
        assert not any(isinstance(r, dict) for r in gc.get_referents(a))
        a.budgets
        assert any(isinstance(r, dict) for r in gc.get_referents(a))

    def test_integer_tuples_are_not_copied(self):
        costs, budgets, row = (1, 2), (3,), (4, 5)
        values = (row,)
        inst = Instance(costs, budgets, values)
        assert inst._int_costs is costs
        assert inst._int_budgets is budgets
        assert inst._int_values == values
        assert inst._int_values[0] is row

    def test_reading_budgets_builds_no_values(self):
        inst = Instance((F(1, 2),), (1, 2), ((F(1, 3),), (4,)))
        assert inst.budgets == (F(1), F(2))
        assert "budgets" in vars(inst)
        assert "values" not in vars(inst) and "costs" not in vars(inst)
        assert inst.budgets is inst.budgets


numbers = st.one_of(
    st.just(F(0)),
    st.integers(0, 30).map(F),
    st.builds(F, st.integers(0, 60), st.integers(2, 12)),
)


@st.composite
def spelled_instances(draw):
    """An instance's numbers, and the same numbers as Fractions, as ints
    where integral, and as "p/q" strings not always in lowest terms."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 8))
    costs = [draw(numbers) for _ in range(m)]
    budgets = [draw(numbers) for _ in range(n)]
    values = [[draw(numbers) for _ in range(m)] for _ in range(n)]
    k = draw(st.integers(1, 3))

    def as_int(x):
        return int(x) if x.denominator == 1 else x

    def as_text(x):
        return f"{k * x.numerator}/{k * x.denominator}"

    return [
        (
            tuple(spell(c) for c in costs),
            tuple(spell(b) for b in budgets),
            tuple(tuple(spell(v) for v in row) for row in values),
        )
        for spell in (lambda x: x, as_int, as_text)
    ]


@settings(deadline=None, max_examples=200)
@given(spelled_instances())
def test_spellings_build_equal_instances(spellings):
    fractions, ints, texts = [Instance(*args) for args in spellings]
    costs, budgets, values = spellings[0]
    for inst in (fractions, ints, texts):
        assert inst == fractions
        assert hash(inst) == hash(fractions)
        assert repr(inst) == repr(fractions)
        assert form(inst) == form(fractions)
        assert inst.costs == costs
        assert inst.budgets == budgets
        assert inst.values == values


@st.composite
def derived_instances(draw):
    """An instance, a derivation of it, and an assignment of its goods."""
    inst = Instance(*draw(spelled_instances())[draw(st.integers(0, 2))])
    n = inst.num_agents
    codes = [draw(st.integers(0, n)) for _ in range(inst.num_goods)]
    bundles = tuple(
        frozenset(g for g, code in enumerate(codes) if code == i) for i in range(n)
    )
    allocation = Allocation(bundles, inst.all_goods())
    how = draw(st.sampled_from(["normalize", "permute", "equal_budgets"]))
    if how == "normalize":
        try:
            derived = normalize(inst, allocation)
        except DegenerateOptimumError:
            derived = inst
    elif how == "permute":
        derived = _permute_instance(inst, draw(st.permutations(range(n))))
    else:
        derived = _equal_budgets(inst)
    return derived, allocation


@settings(deadline=None, max_examples=300)
@given(derived_instances())
def test_derived_instances_equal_their_rebuilds(case):
    derived, allocation = case
    again = rebuilt(derived)
    assert derived == again
    assert hash(derived) == hash(again)
    assert form(derived) == form(again)
    assert repr(derived) == repr(again)
    for twin in (copy.copy(derived), pickle.loads(pickle.dumps(derived))):
        assert twin == derived and form(twin) == form(derived)

    pool = derived.all_goods()
    agents = range(derived.num_agents)
    for i in agents:
        assert bundle_value(derived, i, allocation.bundles[i]) == bundle_value(
            again, i, allocation.bundles[i]
        )
        for budget in (derived.budgets[i], derived.budgets[0]):
            assert knapsack_vmax(derived, i, pool, budget) == knapsack_vmax(
                again, i, pool, budget
            )
    assert efx_violation(derived, allocation) == efx_violation(again, allocation)
    assert is_ef1(derived, allocation) == is_ef1(again, allocation)
    assert max_nsw_allocation(derived, agents, pool) == max_nsw_allocation(
        again, agents, pool
    )


def test_the_reduction_at_a_zero_budget_keeps_the_costs():
    inst = Instance((F(1, 2), 0, 3), (0, F(5, 3)), ((1, 2, 3), (4, 5, 6)))
    reduced = _equal_budgets(inst)
    assert reduced.costs == inst.costs
    assert reduced.budgets == (0, 0)
    assert form(reduced) == form(rebuilt(reduced))


def test_the_reduction_divides_the_costs_by_the_lowest_budget():
    inst = Instance((F(1, 2), 0, 3), (F(9, 4), F(3, 2)), ((1, 2, 3), (4, 5, 6)))
    reduced = _equal_budgets(inst)
    assert reduced.costs == (F(1, 3), 0, 2)
    assert reduced.budgets == (1, 1)
    assert reduced.values == inst.values
    assert form(reduced) == form(rebuilt(reduced))
