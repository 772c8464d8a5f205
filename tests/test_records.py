"""The package's immutable records share one base in ``model``: each is
built through one constructor, compares, hashes, prints, copies, replaces
and converts its fields alike, and refuses assignment and deletion with
``model.FrozenInstanceError``. Importing the CLI loads no code-generating
module, and no CSV writer."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import budgeted_efx
from budgeted_efx import cli
from budgeted_efx.model import (
    Allocation,
    EfxViolation,
    FrozenInstanceError,
    Instance,
    StructuralError,
    _Record,
    knapsack_vmax,
)
from budgeted_efx.oracles import SearchBudget, SplitPair, max_nsw_allocation
from budgeted_efx.three_agents import AlphaParams, SetAside, efx_3a
from budgeted_efx.two_agents import build_feasibility_graph, efx_2a

F = Fraction
SRC = Path(budgeted_efx.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def records(t1):
    """One record of each class, most of them as the package builds them."""
    opt = max_nsw_allocation(t1, (0, 1), t1.all_goods())
    three = Instance((1, 2, 1, 3), (3, 2, 2), ((4, 1, 0, 2), (1, 3, 2, 0), (0, 2, 3, 1)))
    return [
        opt,
        knapsack_vmax(t1, 0, t1.all_goods(), t1.budgets[0]),
        EfxViolation(0, 1, (1, 2), 2),
        SearchBudget(7),
        SplitPair(frozenset({0}), frozenset({1, 2})),
        build_feasibility_graph(t1, (0, 1), opt.bundles),
        efx_2a(t1, (0, 1), opt),
        SetAside((0, None, 2), (F(1), F(0), F(3, 2))),
        AlphaParams("1/40"),
        efx_3a(three),
        cli.BENCH_SUITES["oracles"],
    ]


def test_every_record_class_is_covered(records):
    assert {type(r) for r in records} | {Instance} == set(_Record.__subclasses__())


def test_importing_the_cli_loads_no_code_generation_and_no_csv():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import budgeted_efx.cli; "
        "print(sorted(set(sys.argv[2:]) & set(sys.modules)))"
    )
    unwanted = ["dataclasses", "inspect", "ast", "dis", "csv"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC), *unwanted],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_fields_convert_and_replace(records):
    for record in records:
        fields = record._asdict()
        assert list(fields) == list(type(record)._fields)
        assert record._replace() == record
    violation = EfxViolation(0, 1, (1, 2), 2)
    assert violation._asdict() == {"agent": 0, "against": 1, "subset": (1, 2), "removed_good": 2}
    moved = violation._replace(agent=1, against=0)
    assert moved == EfxViolation(1, 0, (1, 2), 2)
    assert violation.agent == 0
    with pytest.raises(TypeError):
        violation._replace(witness=())


def test_no_plain_record_writes_out_its_constructor(records):
    checked = {Instance, Allocation, SearchBudget, SetAside, AlphaParams}
    for cls in _Record.__subclasses__():
        assert ("__init__" in vars(cls)) == (cls in checked), cls


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((0, 1, (1, 2)), {}, "missing required argument 'removed_good'"),
        ((0, 1), {"subset": (1, 2)}, "missing required argument 'removed_good'"),
        ((0, 1, (1, 2), 2, 5), {}, "takes 4 positional arguments but 5 were given"),
        ((0, 1, (1, 2), 2), {"witness": ()}, "got an unexpected keyword argument 'witness'"),
        ((0, 1, (1, 2)), {"agent": 1}, "got multiple values for argument 'agent'"),
    ],
)
def test_the_constructor_refuses_a_call_a_signature_would(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^EfxViolation\\(\\) {message}$"):
        EfxViolation(*args, **kwargs)


def test_fields_bind_by_position_or_by_name():
    by_name = EfxViolation(removed_good=2, subset=(1, 2), against=1, agent=0)
    assert by_name == EfxViolation(0, 1, subset=(1, 2), removed_good=2)
    assert by_name == EfxViolation(0, 1, (1, 2), 2)
    assert by_name._astuple() == (0, 1, (1, 2), 2)


def test_a_checked_record_built_by_name_runs_its_checks():
    allocation = Allocation(bundles=({0}, [1]), scope=range(3))
    assert allocation == Allocation((frozenset({0}), frozenset({1})), frozenset(range(3)))
    with pytest.raises(StructuralError, match="outside the scope"):
        Allocation(bundles=({0}, {3}), scope={0, 1})
    with pytest.raises(StructuralError, match="overlaps an earlier bundle"):
        Allocation(scope={0, 1}, bundles=({0}, {0}))
    with pytest.raises(StructuralError, match="search budget must be positive"):
        SearchBudget(max_assignments=0)
    with pytest.raises(StructuralError, match="pairwise distinct"):
        SetAside(goods=(1, 1, None), values=(F(1), F(1), F(0)))
    with pytest.raises(StructuralError, match="floating point"):
        AlphaParams(alpha=0.02)


def test_replace_goes_through_validation():
    allocation = Allocation(({0}, {1}), {0, 1, 2})
    assert allocation._replace(scope=range(4)).scope == frozenset(range(4))
    with pytest.raises(StructuralError, match="outside the scope"):
        allocation._replace(scope={0})
    with pytest.raises(StructuralError, match="search budget must be positive"):
        SearchBudget(3)._replace(max_assignments=0)


def test_instance_fields_are_its_public_numbers():
    inst = Instance((F(1, 2), 1), (2,), ((3, "1/3"),))
    assert inst._asdict() == {
        "costs": (F(1, 2), F(1)),
        "budgets": (F(2),),
        "values": ((F(3), F(1, 3)),),
    }
    assert inst._replace(budgets=(F(5, 2),)) == Instance((F(1, 2), 1), ("5/2",), ((3, "1/3"),))


def test_equality_hash_and_repr_read_the_fields(records):
    for record in records:
        twin = type(record)(*record._asdict().values())
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)
        assert record != record._astuple()
    assert repr(EfxViolation(0, 1, (1, 2), 2)) == (
        "EfxViolation(agent=0, against=1, subset=(1, 2), removed_good=2)"
    )
    assert repr(SearchBudget(7)) == "SearchBudget(max_assignments=7)"
    assert hash(SearchBudget(7)) == hash((7,))
    assert SplitPair(frozenset(), frozenset()) != EfxViolation(0, 0, (), 0)


def test_copy_and_pickle_round_trip(records):
    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and repr(twin) == repr(record)


def test_records_are_slotted(records):
    for record in records:
        assert not hasattr(record, "__dict__")


def test_assignment_and_deletion_raise_the_package_error(records):
    assert issubclass(FrozenInstanceError, AttributeError)
    inst = Instance((1,), (1,), ((1,),))
    for obj in [*records, inst]:
        name = type(obj)._fields[0]
        before = getattr(obj, name)
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        with pytest.raises(FrozenInstanceError):
            obj.other = 1
        assert getattr(obj, name) == before
