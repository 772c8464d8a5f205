"""Instance files, allocation files, and seeded random generation.

The wire format keeps every number exact: integers stay JSON integers and
non-integers become "p/q" strings. Serialization is canonical (lowest terms,
sorted keys), so parse-then-serialize is a byte-stable round trip.

Integers go straight into an instance's integer form: the JSON integers the
parser reads and every number the generator draws. ``instance_to_json``
writes its digits from that form, so neither direction builds a Fraction
for an integer.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from .model import (
    Allocation,
    FairDivisionError,
    Instance,
    StructuralError,
    make_allocation,
    to_rational,
)

__all__ = [
    "GenerationError",
    "ParseError",
    "allocation_to_payload",
    "gen_instances",
    "instance_sha256",
    "instance_to_json",
    "parse_allocation",
    "parse_instance",
    "rational_from_json",
    "rational_to_json",
    "serialize_instance",
]


class ParseError(FairDivisionError):
    """Malformed instance or allocation document."""


class GenerationError(FairDivisionError):
    """Random generation could not satisfy the solvability requirements."""


def rational_from_json(x: Any, where: str = "") -> Fraction:
    """An instance number: a JSON integer, or a string ``p`` or ``p/q`` of
    ASCII digits with an optional leading ``-`` (:func:`to_rational`'s
    grammar). A negative number parses, so that the instance rejects it
    with its own message."""
    prefix = f"{where}: " if where else ""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ParseError(f"{prefix}expected an integer or 'p/q' string, got {x!r}")
    try:
        return to_rational(x)
    except StructuralError as exc:
        raise ParseError(f"{prefix}{exc}") from exc


def _rational_at(x: Any, where: str, *index: int) -> int | Fraction:
    # rational_from_json(x, where % index), formatting the location only
    # when x is not a number; a JSON integer stays an int.
    if type(x) is int:
        return x
    try:
        return rational_from_json(x)
    except ParseError as exc:
        raise ParseError(f"{where % index}: {exc}") from exc


def rational_to_json(x: Fraction) -> int | str:
    return _ratio_to_json(x.numerator, x.denominator)


# An int of at most this many bits has at most 640 digits, which every
# setting of sys.set_int_max_str_digits() lets str() write.
_PRINTABLE_BITS = 2125


def _ratio_to_json(p: int, q: int) -> int | str:
    # p/q, for q > 0, in the wire format: an int when q divides p, else
    # "p/q" in lowest terms. A part with more digits than str() writes
    # under sys.get_int_max_str_digits() raises FairDivisionError here,
    # not ValueError when the report is written.
    d = math.gcd(p, q)
    p, q = p // d, q // d
    try:
        if q != 1:
            return f"{p}/{q}"
        if p.bit_length() > _PRINTABLE_BITS:
            str(p)
        return p
    except ValueError:
        raise FairDivisionError(
            "a reported number has more digits than sys.get_int_max_str_digits() "
            f"= {sys.get_int_max_str_digits()} lets Python write"
        ) from None


def _load_document(source: str | Path | dict) -> Any:
    """Decode the JSON document at a path; pass a decoded document through.
    ``json.loads`` reads the bytes as UTF-8, -16 or -32, or fails on them."""
    if not isinstance(source, (str, Path)):
        return source
    try:
        with open(source, "rb") as file:
            return json.loads(file.read())
    except OSError as exc:
        raise ParseError(f"{source}: cannot read: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{source}: invalid JSON: {exc}") from exc


def _check_id(given: Any, pos: int, array: str, kind: str) -> None:
    # Ids are dense and ordered, so an id equal to an earlier one is below
    # ``pos``, and each earlier id was its own position.
    if type(given) is int and given == pos:
        return
    if isinstance(given, bool) or not isinstance(given, int):
        raise ParseError(f"{array}[{pos}]: {kind} id must be an integer, got {given!r}")
    if 0 <= given < pos:
        raise ParseError(f"{array}[{pos}]: duplicate {kind} id {given}")
    if given != pos:
        raise ParseError(f"{array}[{pos}]: {kind} ids must be dense and ordered, got {given}")


def parse_instance(source: str | Path | dict) -> Instance:
    """Read an instance document from a path or an already-decoded dict."""
    doc = _load_document(source)
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    try:
        goods = doc["goods"]
        agents = doc["agents"]
    except KeyError as exc:
        raise ParseError(f"missing top-level key {exc}") from exc
    if not isinstance(goods, list) or not isinstance(agents, list):
        raise ParseError("'goods' and 'agents' must be arrays")

    costs: list[int | Fraction] = []
    for pos, entry in enumerate(goods):
        if not isinstance(entry, dict) or "id" not in entry or "cost" not in entry:
            raise ParseError(f"goods[{pos}]: expected an object with 'id' and 'cost'")
        _check_id(entry["id"], pos, "goods", "good")
        costs.append(_rational_at(entry["cost"], "goods[%d].cost", pos))

    budgets: list[int | Fraction] = []
    values: list[tuple[int | Fraction, ...]] = []
    for pos, entry in enumerate(agents):
        if not isinstance(entry, dict) or not {"id", "budget", "values"} <= entry.keys():
            raise ParseError(
                f"agents[{pos}]: expected an object with 'id', 'budget' and 'values'"
            )
        _check_id(entry["id"], pos, "agents", "agent")
        budgets.append(_rational_at(entry["budget"], "agents[%d].budget", pos))
        row = entry["values"]
        if not isinstance(row, list) or len(row) != len(costs):
            raise ParseError(
                f"agents[{pos}].values: expected {len(costs)} entries, got "
                f"{len(row) if isinstance(row, list) else row!r}"
            )
        values.append(
            tuple(
                [_rational_at(v, "agents[%d].values[%d]", pos, k) for k, v in enumerate(row)]
            )
        )
    try:
        return Instance(tuple(costs), tuple(budgets), tuple(values))
    except StructuralError as exc:
        raise ParseError(str(exc)) from exc


def serialize_instance(instance: Instance) -> dict:
    return {
        "goods": [
            {"id": g, "cost": rational_to_json(instance.costs[g])}
            for g in range(instance.num_goods)
        ],
        "agents": [
            {
                "id": i,
                "budget": rational_to_json(instance.budgets[i]),
                "values": [rational_to_json(v) for v in instance.values[i]],
            }
            for i in range(instance.num_agents)
        ],
    }


def _numbers_text(ints: tuple[int, ...], scale: int) -> list[str]:
    # rational_to_json(x / scale) as JSON text, for each x of ints.
    if scale == 1:
        return [str(x) for x in ints]
    texts = (_ratio_to_json(x, scale) for x in ints)
    return [str(v) if type(v) is int else f'"{v}"' for v in texts]


def _array_text(items: list[str], indent: str) -> str:
    # A JSON array of already written items, as json.dumps(indent=2) lays it
    # out when its opening bracket sits on a line indented by ``indent``.
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def instance_to_json(instance: Instance) -> str:
    """The canonical text of an instance document: byte for byte
    ``json.dumps(serialize_instance(instance), indent=2, sort_keys=True)``
    plus a newline, the text ``instance_sha256`` hashes.

    The document's shape is fixed, so it is written directly from the
    instance's integer form: integers as digits, other numbers as "p/q"
    strings in lowest terms, keys in sorted order, and ``[]`` for an empty
    array. ``json.dumps`` with an indent would run the pure-Python encoder
    instead of the C one.
    """
    budgets = _numbers_text(instance._int_budgets, instance._cost_scale)
    agents = [
        '{\n      "budget": %s,\n      "id": %d,\n      "values": %s\n    }'
        % (budgets[i], i, _array_text(_numbers_text(row, scale), "      "))
        for i, (row, scale) in enumerate(zip(instance._int_values, instance._value_scales))
    ]
    goods = [
        '{\n      "cost": %s,\n      "id": %d\n    }' % (text, g)
        for g, text in enumerate(_numbers_text(instance._int_costs, instance._cost_scale))
    ]
    return '{\n  "agents": %s,\n  "goods": %s\n}\n' % (
        _array_text(agents, "  "),
        _array_text(goods, "  "),
    )


def _canonical_text(obj: Any, indent: str) -> str:
    # ``indent`` is that of the line on which ``obj`` starts. Reports are
    # mostly ints, strings and lists of ints: exact types are tried first.
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = indent + "  "
    if kind is list or isinstance(obj, (list, tuple)):
        items = [int.__repr__(x) if type(x) is int else _canonical_text(x, inner) for x in obj]
        return _array_text(items, indent)
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"key {key!r} is not a string")
        if not obj:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _canonical_text(obj[key], inner)
            for key in sorted(obj)
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"{type(obj).__name__} {obj!r} has no canonical JSON form")


def _canonical_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, for
    documents built from dicts with string keys, lists, tuples, strings,
    ints, booleans and None; any other type, a subclass of int or str
    among them, raises TypeError, so a document never differs from that
    text silently. Written here because ``json.dumps`` with an indent runs
    the pure-Python encoder."""
    return _canonical_text(obj, "") + "\n"


def instance_sha256(instance: Instance) -> str:
    return hashlib.sha256(instance_to_json(instance).encode()).hexdigest()


def parse_allocation(source: str | Path | dict, instance: Instance) -> Allocation:
    """Read an allocation document: {"bundles": [[good ids], ...]}."""
    doc = _load_document(source)
    if not isinstance(doc, dict) or "bundles" not in doc:
        raise ParseError("allocation document must be an object with 'bundles'")
    bundles = doc["bundles"]
    if not isinstance(bundles, list) or len(bundles) != instance.num_agents:
        raise ParseError(
            f"'bundles' must list one array per agent ({instance.num_agents})"
        )
    for i, b in enumerate(bundles):
        if not isinstance(b, list) or not all(
            isinstance(g, int) and not isinstance(g, bool) for g in b
        ):
            raise ParseError(f"bundles[{i}] must be an array of good ids")
        if len(set(b)) != len(b):
            raise ParseError(f"bundles[{i}] lists a good more than once")
    try:
        return make_allocation(instance, [frozenset(b) for b in bundles])
    except StructuralError as exc:
        raise ParseError(str(exc)) from exc


def allocation_to_payload(allocation: Allocation) -> dict:
    return {
        "bundles": [sorted(b) for b in allocation.bundles],
        "unallocated": sorted(allocation.unallocated()),
    }


def _has_positive_product(
    costs: list[int], budgets: list[int], values: list[list[int]]
) -> bool:
    # A positive welfare product is reachable iff each agent can be matched
    # to a distinct affordable good she values positively.
    candidates = [
        [g for g, (c, v) in enumerate(zip(costs, row)) if v > 0 and c <= cap]
        for cap, row in zip(budgets, values)
    ]
    return any(len(set(p)) == len(p) for p in itertools.product(*candidates))


def gen_instances(
    seed: int,
    count: int,
    n: int,
    m_range: tuple[int, int],
    budget_spread: int = 10,
) -> list[Instance]:
    """Deterministic batch of solvable random instances.

    Integer costs and values are uniform over 0..20, and go into each
    instance's integer form as they are. Budgets are uniform over
    [base, base * budget_spread] for a base drawn once per instance from
    1..40, so the largest-to-smallest budget ratio stays within
    ``budget_spread`` (spread 1 means equal budgets). Instances where some
    agent cannot reach a positive value are resampled, so normalization
    never rejects a generated instance.
    """
    if n not in (2, 3):
        raise GenerationError("generator supports 2 or 3 agents")
    if m_range[0] < 1 or m_range[0] > m_range[1]:
        raise GenerationError(f"bad goods range {m_range}")
    if m_range[1] < n:
        raise GenerationError(f"goods range {m_range} has fewer than {n} goods, one per agent")
    if budget_spread < 1:
        raise GenerationError("budget spread must be at least 1")

    rng = random.Random(seed)
    out: list[Instance] = []
    for _ in range(count):
        for _attempt in range(1000):
            m = rng.randint(*m_range)
            costs = [rng.randint(0, 20) for _ in range(m)]
            base = rng.randint(1, 40)
            budgets = [rng.randint(base, base * budget_spread) for _ in range(n)]
            values = [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
            if _has_positive_product(costs, budgets, values):
                out.append(
                    Instance(tuple(costs), tuple(budgets), tuple(map(tuple, values)))
                )
                break
        else:
            raise GenerationError("could not draw a solvable instance within 1000 tries")
    return out
