import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from budgeted_efx.instances import (
    GenerationError,
    ParseError,
    _canonical_json,
    allocation_to_payload,
    gen_instances,
    instance_sha256,
    instance_to_json,
    parse_allocation,
    parse_instance,
    serialize_instance,
)
from budgeted_efx.model import Instance, make_allocation
from budgeted_efx.oracles import max_nsw_allocation

from conftest import GOLDEN

F = Fraction


class TestParsing:
    def test_t1_fixture_parses_exactly(self, t1):
        assert t1.costs == (F(1, 2), F(1, 2), F(1))
        assert t1.budgets == (F(1), F(1))
        assert t1.values[0] == (F(1, 2), F(1, 2), F(0))
        assert t1.values[1] == (F(11, 10), F(11, 10), F(1))

    def test_non_reduced_fractions_parse_to_lowest_terms(self):
        doc = {
            "goods": [{"id": 0, "cost": "3/6"}],
            "agents": [{"id": 0, "budget": 1, "values": ["2/4"]}],
        }
        inst = parse_instance(doc)
        assert inst.costs[0] == F(1, 2)
        assert serialize_instance(inst)["goods"][0]["cost"] == "1/2"

    def test_round_trip_is_byte_stable(self, t1):
        once = instance_to_json(t1)
        again = instance_to_json(parse_instance(json.loads(once)))
        assert once == again

    def test_integers_serialize_as_integers(self):
        doc = {
            "goods": [{"id": 0, "cost": "4/2"}],
            "agents": [{"id": 0, "budget": "7", "values": [3]}],
        }
        out = serialize_instance(parse_instance(doc))
        assert out["goods"][0]["cost"] == 2
        assert out["agents"][0]["budget"] == 7

    def test_float_number_rejected_with_location(self):
        doc = {
            "goods": [{"id": 0, "cost": 0.5}],
            "agents": [{"id": 0, "budget": 1, "values": [1]}],
        }
        with pytest.raises(ParseError, match=r"goods\[0\]"):
            parse_instance(doc)

    @staticmethod
    def with_cost(cost) -> dict:
        return {
            "goods": [{"id": 0, "cost": cost}],
            "agents": [{"id": 0, "budget": 1, "values": [1]}],
        }

    @pytest.mark.parametrize(
        "text",
        [
            "0.5",
            "1e-3",
            "1e400",
            " 1 ",
            "1 ",
            "+1",
            "1_000",
            "\u0661",
            "1/\u0662",
            "1/2/3",
            "1/-2",
            "--1",
            "-",
            "",
            "/2",
            "1/",
            "0x10",
            "inf",
        ],
        ids=[
            "decimal-point",
            "exponent",
            "overflowing-exponent",
            "padded",
            "trailing-space",
            "plus-sign",
            "underscore",
            "non-ascii-digit",
            "non-ascii-denominator",
            "two-slashes",
            "negative-denominator",
            "double-minus",
            "bare-minus",
            "empty",
            "no-numerator",
            "no-denominator",
            "hexadecimal",
            "infinity",
        ],
    )
    def test_only_integers_and_p_q_strings_parse(self, text):
        with pytest.raises(ParseError, match=r"goods\[0\]\.cost: malformed rational"):
            parse_instance(self.with_cost(text))

    def test_a_zero_denominator_is_a_parse_error(self):
        with pytest.raises(ParseError, match="malformed rational '1/0'"):
            parse_instance(self.with_cost("1/0"))

    @pytest.mark.parametrize("text", ["-1", "-1/2", "-3/6"])
    def test_a_negative_number_parses_and_the_instance_rejects_it(self, text):
        with pytest.raises(ParseError, match="costs must be nonnegative"):
            parse_instance(self.with_cost(text))

    @pytest.mark.parametrize(
        "text, value", [("007", F(7)), ("-0", F(0)), ("6/4", F(3, 2)), ("0/5", F(0))]
    )
    def test_ascii_digit_forms_parse_exactly(self, text, value):
        assert parse_instance(self.with_cost(text)).costs == (value,)

    def test_duplicate_and_gapped_ids_rejected(self):
        base = {
            "goods": [{"id": 0, "cost": 1}, {"id": 0, "cost": 1}],
            "agents": [{"id": 0, "budget": 1, "values": [1, 1]}],
        }
        with pytest.raises(ParseError, match="duplicate good id"):
            parse_instance(base)
        gapped = {
            "goods": [{"id": 1, "cost": 1}],
            "agents": [{"id": 0, "budget": 1, "values": [1]}],
        }
        with pytest.raises(ParseError, match="dense"):
            parse_instance(gapped)

    @pytest.mark.parametrize("bad_id", [False, True, 0.0, "0", None])
    def test_non_integer_ids_rejected(self, bad_id):
        good = {
            "goods": [{"id": bad_id, "cost": 1}],
            "agents": [{"id": 0, "budget": 1, "values": [1]}],
        }
        with pytest.raises(ParseError, match=r"goods\[0\]: good id must be an integer"):
            parse_instance(good)
        agent = {
            "goods": [{"id": 0, "cost": 1}],
            "agents": [{"id": bad_id, "budget": 1, "values": [1]}],
        }
        with pytest.raises(ParseError, match=r"agents\[0\]: agent id must be an integer"):
            parse_instance(agent)

    def test_value_row_length_mismatch_rejected(self):
        doc = {
            "goods": [{"id": 0, "cost": 1}],
            "agents": [{"id": 0, "budget": 1, "values": [1, 2]}],
        }
        with pytest.raises(ParseError, match=r"agents\[0\].values"):
            parse_instance(doc)

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read"),
            (b"\xff\xfe{", "invalid JSON"),
            (b'{"goods": ' + b"1" * 5000 + b"}", "invalid JSON"),
            (b"[" * 200_000 + b"]" * 200_000, "invalid JSON"),
        ],
        ids=["missing", "not-utf8", "oversized-integer", "too-deep"],
    )
    def test_unreadable_documents_are_parse_errors(self, tmp_path, t1, content, message):
        path = tmp_path / "doc.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ParseError, match=message):
            parse_instance(path)
        with pytest.raises(ParseError, match=message):
            parse_allocation(path, t1)

    def test_hash_is_stable_across_equivalent_spellings(self, t1):
        doc = {
            "goods": [
                {"id": 0, "cost": "2/4"},
                {"id": 1, "cost": "1/2"},
                {"id": 2, "cost": 1},
            ],
            "agents": [
                {"id": 0, "budget": "1", "values": ["1/2", "1/2", 0]},
                {"id": 1, "budget": 1, "values": ["11/10", "22/20", "1"]},
            ],
        }
        assert instance_sha256(parse_instance(doc)) == instance_sha256(t1)


numbers = st.one_of(
    st.just(F(0)),
    st.integers(0, 10**12).map(F),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
)


@st.composite
def drawn_instances(draw):
    n = draw(st.integers(0, 3))
    m = draw(st.integers(0, 5))
    return Instance(
        tuple(draw(numbers) for _ in range(m)),
        tuple(draw(numbers) for _ in range(n)),
        tuple(tuple(draw(numbers) for _ in range(m)) for _ in range(n)),
    )


class TestCanonicalText:
    @settings(deadline=None, max_examples=300)
    @given(drawn_instances())
    def test_instance_text_is_json_dumps_of_the_document(self, inst):
        expected = json.dumps(serialize_instance(inst), indent=2, sort_keys=True) + "\n"
        assert instance_to_json(inst) == expected

    @pytest.mark.parametrize(
        "inst",
        [
            Instance((), (), ()),
            Instance((), (F(1, 2),), ((),)),
            Instance((F(0),), (), ()),
            Instance((F(3),), (F(7, 2),), ((F(0),),)),
        ],
        ids=["empty", "one-agent-no-goods", "no-agents", "one-agent-one-good"],
    )
    def test_empty_arrays_are_written_as_json_dumps_writes_them(self, inst):
        expected = json.dumps(serialize_instance(inst), indent=2, sort_keys=True) + "\n"
        assert instance_to_json(inst) == expected

    documents = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(),
        lambda inner: st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=20,
    )

    @settings(deadline=None, max_examples=300)
    @given(documents)
    def test_documents_are_written_as_json_dumps_writes_them(self, doc):
        assert _canonical_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "doc",
        [
            {"nsw_product": 0.5},
            {"values": [1, F(1, 2)]},
            {"bundles": [{0, 1}]},
            {1: "an integer key"},
        ],
        ids=["float", "fraction", "set", "integer-key"],
    )
    def test_other_types_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            _canonical_json(doc)

    def test_subclasses_of_int_and_str_raise_type_error(self):
        class Count(int):
            pass

        class Name(str):
            pass

        for value in (Count(1), Name("x")):
            with pytest.raises(TypeError, match="has no canonical JSON form"):
                _canonical_json({"value": value})


class TestAllocationDocuments:
    def test_round_trip(self, t1):
        alloc = make_allocation(t1, [{0}, {1}])
        payload = allocation_to_payload(alloc)
        assert payload == {"bundles": [[0], [1]], "unallocated": [2]}
        parsed = parse_allocation({"bundles": payload["bundles"]}, t1)
        assert parsed.bundles == alloc.bundles

    def test_wrong_agent_count_rejected(self, t1):
        with pytest.raises(ParseError):
            parse_allocation({"bundles": [[0]]}, t1)

    def test_overlap_rejected(self, t1):
        with pytest.raises(ParseError):
            parse_allocation({"bundles": [[0], [0]]}, t1)

    @pytest.mark.parametrize(
        "bundles", [[[True], []], [[0], [False]], [[True], [False, False]]]
    )
    def test_boolean_good_ids_rejected(self, t1, bundles):
        with pytest.raises(ParseError, match="must be an array of good ids"):
            parse_allocation({"bundles": bundles}, t1)

    def test_a_good_listed_twice_in_one_bundle_rejected(self, t1):
        with pytest.raises(ParseError, match=r"bundles\[1\] lists a good more than once"):
            parse_allocation({"bundles": [[0], [2, 1, 2]]}, t1)


class TestGeneration:
    def test_same_seed_reproduces_the_same_instances(self):
        a = gen_instances(11, 4, 2, (2, 6))
        b = gen_instances(11, 4, 2, (2, 6))
        assert a == b

    def test_golden_corpus_is_reproduced(self):
        golden = json.loads((GOLDEN / "gen_n2_seed1.json").read_text())
        regenerated = [
            serialize_instance(i) for i in gen_instances(1, 3, 2, (5, 5))
        ]
        assert regenerated == golden

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                (1, 200, 2, (2, 10)),
                "65d19075485fc04a8e787fd4a7bca4292f52e942f7d0d3b3b1ddc7e9d5d159aa",
            ),
            (
                (3, 100, 3, (4, 9)),
                "bccf6bda795c13dfd9f37582450a2d67a3db3e53d91c44d10603ccd118965c86",
            ),
        ],
        ids=["two-agent", "three-agent"],
    )
    def test_bench_corpora_are_frozen(self, args, digest):
        # The two-agent and three-agent bench suites' default draws, frozen
        # when instances were still built before the solvability check.
        h = hashlib.sha256()
        for inst in gen_instances(*args):
            h.update(instance_to_json(inst).encode())
        assert h.hexdigest() == digest

    def test_spread_one_means_equal_budgets(self):
        for inst in gen_instances(5, 6, 3, (3, 6), budget_spread=1):
            assert len(set(inst.budgets)) == 1

    def test_budget_ratio_respects_the_spread(self):
        for inst in gen_instances(6, 10, 3, (3, 6), budget_spread=10):
            assert max(inst.budgets) <= 10 * min(inst.budgets)

    def test_every_instance_supports_a_positive_welfare_product(self):
        from budgeted_efx.model import nsw_product

        for inst in gen_instances(8, 8, 2, (2, 6)):
            opt = max_nsw_allocation(inst, range(2), inst.all_goods())
            assert nsw_product(inst, opt) > 0

    def test_impossible_requirements_fail_loudly(self):
        with pytest.raises(GenerationError):
            gen_instances(1, 1, 2, (3, 2))

    def test_a_goods_range_below_the_agent_count_is_named(self):
        # Fewer goods than agents can never give every agent a positive value.
        with pytest.raises(GenerationError, match=r"goods range \(2, 2\) has fewer than 3"):
            gen_instances(1, 1, 3, (2, 2))
        assert len(gen_instances(1, 2, 3, (1, 3))) == 2

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((1, 1, 4, (4, 6)), {}, "generator supports 2 or 3 agents"),
            ((1, 1, 2, (2, 6)), {"budget_spread": 0}, "budget spread must be at least 1"),
        ],
        ids=["four-agents", "spread-zero"],
    )
    def test_unsupported_arguments_are_named(self, args, kwargs, message):
        with pytest.raises(GenerationError, match=f"^{message}$"):
            gen_instances(*args, **kwargs)
