import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import budgeted_efx
import budgeted_efx.cli as cli_mod
from budgeted_efx import model
from budgeted_efx.cli import main
from budgeted_efx.instances import (
    ParseError,
    _ratio_to_json,
    gen_instances,
    instance_to_json,
    parse_allocation,
    parse_instance,
)
from budgeted_efx.model import (
    MAX_GOODS,
    DegenerateOptimumError,
    Instance,
    InvariantViolationError,
    SearchCapExceededError,
    StructuralError,
    efx_violation,
    is_ef1,
    is_efx,
    knapsack_vmax,
    make_allocation,
)
from budgeted_efx.oracles import (
    ExistenceViolationError,
    SearchBudget,
    is_pareto_efficient,
    max_nsw_allocation,
)
from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out):
    return json.loads(out)


class TestSolve:
    def test_efx2_on_the_fixture(self, t1_path, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "solve", str(t1_path), "--algorithm", "efx2", "--out", str(out_file)
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["allocation"]["bundles"] == [[0], [1]]
        assert report["allocation"]["unallocated"] == [2]
        assert report["nsw_product"] == "11/20"
        assert report["seed_product"] == 1
        assert all(c["pass"] for c in report["ratio_checks"])
        assert report["efx"]["pass"] is True
        assert report["trace"]["branch"] == "leximin_split"

    def test_oracle_nsw_recovers_the_welfare_optimum(self, t1_path, capsys):
        code, out, _ = run(capsys, "solve", str(t1_path), "--algorithm", "oracle-nsw")
        assert code == 0
        report = report_of(out)
        assert report["allocation"]["bundles"] == [[0, 1], [2]]
        assert report["nsw_product"] == 1
        # the welfare optimum is reported as envy-violating, with a witness
        assert report["efx"]["pass"] is False
        assert report["efx"]["witness"] == {
            "agent": 1,
            "against": 0,
            "subset": [0, 1],
            "removed_good": 0,
        }

    def test_oracle_efx_matches_the_fixture_analysis(self, t1_path, capsys):
        code, out, _ = run(capsys, "solve", str(t1_path), "--algorithm", "oracle-efx")
        assert code == 0
        report = report_of(out)
        assert report["nsw_product"] == "11/20"

    def test_arity_mismatch_is_a_usage_error(self, t1_path, capsys):
        code, _, err = run(capsys, "solve", str(t1_path), "--algorithm", "efx3")
        assert code == 1
        assert "three-agent" in err

    def test_seed_allocation_from_file(self, t1_path, capsys, tmp_path):
        seed_file = tmp_path / "seed.json"
        seed_file.write_text(json.dumps({"bundles": [[0], [1]]}))
        code, out, _ = run(
            capsys,
            "solve",
            str(t1_path),
            "--algorithm",
            "efx2",
            "--seed-allocation",
            str(seed_file),
        )
        assert code == 0
        report = report_of(out)
        assert report["trace"]["branch"] == "already_efx"

    def test_tiny_cap_exhausts_with_exit_3(self, t1_path, capsys):
        code, _, err = run(
            capsys, "solve", str(t1_path), "--algorithm", "oracle-nsw", "--cap", "2"
        )
        assert code == 3
        assert "search budget exhausted" in err

    def test_a_leximin_split_past_the_cap_exit_3(self, capsys, tmp_path):
        # Agent 0 holds nothing and affords 5 of agent 1's 22 unit-cost
        # goods, so the pair procedure splits agent 1's bundle: 2^22 subsets.
        m = 22
        instance = Instance((1,) * m, (5, m), ((1,) * m, (1,) * m))
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(instance))
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"bundles": [[], list(range(m))]}))
        code, out, err = run(
            capsys, "solve", str(path), "--algorithm", "efx2", "--seed-allocation", str(seed)
        )
        assert code == 3
        assert out == ""
        assert err == (
            f"error: leximin split of {m} goods would value 2^{m} subsets, past the cap "
            f"of {model._FRONTIER_ENTRIES}\n"
        )

    @staticmethod
    def efx3_on_four_goods(capsys, tmp_path, alpha):
        """Solve a three-agent instance with four unit goods under ``alpha``."""
        doc = {
            "goods": [{"id": g, "cost": 1} for g in range(4)],
            "agents": [
                {"id": i, "budget": 4, "values": [1, 1, 1, 1]} for i in range(3)
            ],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        return run(capsys, "solve", str(path), "--algorithm", "efx3", "--alpha", alpha)

    def test_alpha_above_guarantee_refused(self, capsys, tmp_path):
        code, _, err = self.efx3_on_four_goods(capsys, tmp_path, "1/10")
        assert code == 1
        assert "alpha" in err.lower() or "1/35" in err

    @pytest.mark.parametrize("alpha", ["0.02", "1e-2", " 1/50 "])
    def test_alpha_other_than_p_over_q_is_a_parse_error(self, capsys, tmp_path, alpha):
        code, out, err = self.efx3_on_four_goods(capsys, tmp_path, alpha)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: alpha: malformed rational {alpha!r}")

    def test_alpha_as_p_over_q_runs(self, capsys, tmp_path):
        code, out, _ = self.efx3_on_four_goods(capsys, tmp_path, "1/50")
        assert code == 0
        assert report_of(out)["alpha"] == "1/50"

    def test_efx3_small_instance_passthrough(self, capsys, tmp_path):
        doc = {
            "goods": [{"id": g, "cost": 1} for g in range(3)],
            "agents": [
                {"id": 0, "budget": 2, "values": [4, 0, 0]},
                {"id": 1, "budget": 2, "values": [0, 4, 0]},
                {"id": 2, "budget": 2, "values": [0, 0, 4]},
            ],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", str(path), "--algorithm", "efx3")
        assert code == 0
        report = report_of(out)
        assert report["trace"]["branch"] == "small_instance"

    def test_malformed_instance_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "solve", str(path), "--algorithm", "efx2")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("cost", ["0.5", "1e-3", " 1 ", "1e400"])
    def test_inexact_number_spellings_are_parse_errors(self, capsys, tmp_path, cost):
        doc = {
            "goods": [{"id": 0, "cost": cost}, {"id": 1, "cost": 1}],
            "agents": [{"id": i, "budget": 2, "values": [1, 1]} for i in range(2)],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path), "--algorithm", "efx2")
        assert (code, out) == (1, "")
        assert "goods[0].cost: malformed rational" in err

    def test_missing_instance_file_is_a_parse_error(self, capsys, tmp_path):
        missing = tmp_path / "no_such.json"
        code, out, err = run(capsys, "solve", str(missing), "--algorithm", "efx2")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "no_such.json" in err

    @pytest.mark.parametrize(
        "error", [InvariantViolationError, ExistenceViolationError]
    )
    def test_solver_guarantee_failure_exits_2(self, t1_path, capsys, monkeypatch, error):
        def broken_solver(*args, **kwargs):
            raise error("guaranteed property failed")

        monkeypatch.setattr(cli_mod, "efx_2a", broken_solver)
        code, out, err = run(capsys, "solve", str(t1_path), "--algorithm", "efx2")
        assert code == 2
        assert out == ""
        assert err == "error: guaranteed property failed\n"


class TestVerify:
    def test_the_optimum_fails_with_a_minimal_witness(self, t1_path, capsys, tmp_path):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": [[0, 1], [2]]}))
        code, out, _ = run(capsys, "verify", str(t1_path), str(alloc))
        assert code == 4
        report = report_of(out)
        assert report["budget_feasible"] is True
        assert report["ef1"] is False
        assert report["efx"]["pass"] is False
        assert report["efx"]["witness"]["agent"] == 1
        assert report["efx"]["witness"]["subset"] == [0, 1]
        assert report["efx"]["witness"]["removed_good"] == 0
        assert report["pareto_efficient"] is True
        assert report["nsw_product"] == 1

    def test_the_singleton_split_verifies_clean(self, t1_path, capsys, tmp_path):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": [[0], [1]]}))
        code, out, _ = run(capsys, "verify", str(t1_path), str(alloc))
        assert code == 0
        report = report_of(out)
        assert report["efx"]["pass"] is True and report["ef1"] is True
        assert report["pareto_efficient"] is False
        assert report["nsw_product"] == "11/20"

    def test_empty_allocation_is_efx_with_zero_product(self, t1_path, capsys, tmp_path):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": [[], []]}))
        code, out, _ = run(capsys, "verify", str(t1_path), str(alloc))
        assert code == 0
        report = report_of(out)
        assert report["efx"]["pass"] is True
        assert report["nsw_product"] == 0

    def test_bad_good_id_is_a_parse_error(self, t1_path, capsys, tmp_path):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": [[9], []]}))
        code, _, err = run(capsys, "verify", str(t1_path), str(alloc))
        assert code == 1

    @pytest.mark.parametrize("bundles", [[[True], [False, False]], [[0, 0], [2]]])
    def test_boolean_or_repeated_good_ids_are_parse_errors(
        self, t1_path, capsys, tmp_path, bundles
    ):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": bundles}))
        code, out, err = run(capsys, "verify", str(t1_path), str(alloc))
        assert code == 1
        assert out == ""
        assert err.startswith("error: bundles[")

    def test_boolean_instance_ids_are_parse_errors(self, t1_path, capsys, tmp_path):
        doc = json.loads(t1_path.read_text())
        doc["goods"][0]["id"] = False
        doc["agents"][1]["id"] = True
        instance = tmp_path / "inst.json"
        instance.write_text(json.dumps(doc))
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": [[0], [1]]}))
        code, out, err = run(capsys, "verify", str(instance), str(alloc))
        assert code == 1
        assert out == ""
        assert err == "error: goods[0]: good id must be an integer, got False\n"

    def test_missing_allocation_file_is_a_parse_error(self, t1_path, capsys, tmp_path):
        missing = tmp_path / "no_such.json"
        code, out, err = run(capsys, "verify", str(t1_path), str(missing))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "no_such.json" in err

    @staticmethod
    def one_holder(tmp_path, m):
        """Paths of an m-good instance and an allocation of every good to
        agent 0; agent 1 affords nothing, so each search follows one path."""
        instance = tmp_path / "inst.json"
        instance.write_text(
            json.dumps(
                {
                    "goods": [{"id": g, "cost": 1} for g in range(m)],
                    "agents": [
                        {"id": i, "budget": budget, "values": [1] * m}
                        for i, budget in enumerate((m, 0))
                    ],
                }
            )
        )
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": [list(range(m)), []]}))
        return str(instance), str(alloc)

    def test_more_goods_than_the_limit_is_a_parse_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", *self.one_holder(tmp_path, 1500))
        assert code == 1
        assert out == ""
        assert err == f"error: 1500 goods exceed the limit of {MAX_GOODS}\n"

    def test_knapsack_frontiers_past_the_cap_exit_3(self, capsys, tmp_path, monkeypatch):
        # Agent 1 affords 5 of agent 0's goods costing 1 to 4: the suffix
        # frontiers hold 1, 2, 3, then 5 entries, 11 in all.
        monkeypatch.setattr(model, "_FRONTIER_ENTRIES", 8)
        instance = Instance((1, 2, 3, 4), (10, 5), ((1, 1, 1, 1), (1, 2, 3, 4)))
        with pytest.raises(
            SearchCapExceededError,
            match="knapsack frontiers of agent 1 over 4 goods reached 11 entries, "
            "past the cap of 8",
        ):
            knapsack_vmax(instance, 1, range(4), 5)
        # She envies the bundle she cannot afford whole, so she EFx-envies
        # it, which the envy decision proves without the frontiers.
        alloc = make_allocation(instance, [range(4), ()])
        assert is_efx(instance, alloc) is False
        # The witness is her best subset of goods 1 to 3 (the drop of good
        # 0): frontiers of 1, 2, 3, then 5 entries, 11 in all.
        message = (
            "knapsack frontiers of agent 1 over 3 goods reached 11 entries, "
            "past the cap of 8"
        )
        with pytest.raises(SearchCapExceededError, match=message):
            efx_violation(instance, alloc)
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(instance))
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text(json.dumps({"bundles": [[0, 1, 2, 3], []]}))
        code, out, err = run(capsys, "verify", str(path), str(alloc_path))
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    @staticmethod
    def tight_holder(tmp_path, costs, values, short=0):
        """Paths of an instance where agent 1 holds goods with ``costs`` and
        agent 0 holds one more good, worth to her ``short`` less than her
        best affordable value of agent 1's bundle at half its cost; agent 1
        values only the goods it holds. The best value is a dynamic program over
        integer budgets."""
        m = len(costs)
        budget = sum(costs) // 2
        best = [0] * (budget + 1)
        for c, v in zip(costs, values):
            best[c:] = [a if a >= b + v else b + v for a, b in zip(best[c:], best)]
        instance = tmp_path / "inst.json"
        instance.write_text(
            json.dumps(
                {
                    "goods": [{"id": g, "cost": c} for g, c in enumerate([*costs, 1])],
                    "agents": [
                        {"id": 0, "budget": budget, "values": [*values, best[budget] - short]},
                        {"id": 1, "budget": sum(costs), "values": [1] * m + [0]},
                    ],
                }
            )
        )
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": [[m], list(range(m))]}))
        return str(instance), str(alloc)

    def test_the_envy_decision_past_the_cap_exit_3(self, capsys, tmp_path, monkeypatch):
        # Agent 0 does not envy. Proving it holds 16 entries of the pruned
        # frontier in all, one or two after each good; under a cap of 12
        # the count passes it at 14.
        costs = [8, 8, 5, 7, 9, 8, 8, 7, 8, 7]
        values = [10, 8, 7, 7, 10, 8, 8, 9, 9, 9]
        paths = self.tight_holder(tmp_path, costs, values)
        code, out, _ = run(capsys, "verify", *paths)
        assert code == 0
        assert report_of(out)["envy_free"] is True
        monkeypatch.setattr(model, "_FRONTIER_ENTRIES", 12)
        code, out, err = run(capsys, "verify", *paths)
        assert code == 3
        assert out == ""
        assert err == (
            "error: knapsack frontiers of agent 0 over 10 goods reached 14 entries, "
            "past the cap of 12\n"
        )

    def test_a_tight_511_good_bundle_verifies(self, capsys, tmp_path):
        # Strongly correlated goods: every subset's value is close to its
        # cost, so the suffix frontiers of the whole bundle hold more than
        # the frontier cap; the bounded decision proves in a few ms that
        # agent 0 does not envy.
        rng = random.Random(0)
        costs = [rng.randint(50, 60) for _ in range(MAX_GOODS - 1)]
        values = [c + rng.randint(0, 5) for c in costs]
        code, out, _ = run(capsys, "verify", *self.tight_holder(tmp_path, costs, values))
        assert code == 0
        report = report_of(out)
        assert report["envy_free"] is True and report["ef1"] is True
        assert report["efx"] == {"pass": True, "witness": None}

    def test_a_tight_511_good_bundle_one_short_of_the_best(self, capsys, tmp_path):
        # Agent 0 envies agent 1's bundle and cannot afford it whole, so
        # she EFx-envies it; after paying for any one good h she affords at
        # most best - v(h) < best - 1 of the rest, so she does not EF1-envy
        # it. Bounded decisions answer both. The witness of the violation
        # is her exact best subset without good 0, whose suffix frontiers
        # pass the cap, so verify exits 3.
        rng = random.Random(0)
        costs = [rng.randint(50, 60) for _ in range(MAX_GOODS - 1)]
        values = [c + rng.randint(0, 5) for c in costs]
        paths = self.tight_holder(tmp_path, costs, values, short=1)
        instance = parse_instance(paths[0])
        allocation = parse_allocation(paths[1], instance)
        assert is_efx(instance, allocation) is False
        assert is_ef1(instance, allocation) is True
        code, out, err = run(capsys, "verify", *paths)
        assert code == 3
        assert out == ""
        assert err == (
            "error: knapsack frontiers of agent 0 over 510 goods reached 2102392 "
            "entries, past the cap of 2097152\n"
        )

    def test_an_instance_at_the_limit_verifies(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify", *self.one_holder(tmp_path, MAX_GOODS))
        assert code == 0
        report = report_of(out)
        assert report["envy_free"] is True and report["ef1"] is True
        assert report["pareto_efficient"] is True


class TestBench:
    def test_two_agent_suite_smoke(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys,
            "bench",
            "--suite",
            "two-agent",
            "--count",
            "6",
            "--out",
            str(out_csv),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert len(rows) == 7  # six instances plus the summary
        assert rows[-1]["instance_id"] == "TOTAL"
        assert all(r["ratio_pass"] == "True" for r in rows)

    def test_three_agent_suite_smoke(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys,
            "bench",
            "--suite",
            "three-agent",
            "--count",
            "4",
            "--out",
            str(out_csv),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert {r["algorithm"] for r in rows[:-1]} == {"efx3"}
        assert all(r["efx_pass"] == "True" for r in rows[:-1])

    def test_oracle_suite_smoke(self, capsys, tmp_path):
        out_csv = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys,
            "bench",
            "--suite",
            "oracles",
            "--count",
            "4",
            "--out",
            str(out_csv),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert all(r["ratio_pass"] == "True" for r in rows[:-1])


    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_below_one_is_a_usage_error(self, capsys, tmp_path, count):
        out_csv = tmp_path / "rows.csv"
        argv = ["bench", "--suite", "oracles", "--count", count, "--out", str(out_csv)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "--count" in err
        assert out == "" and not out_csv.exists()

    def test_guarantee_violation_exits_2_and_dumps_a_repro(
        self, capsys, tmp_path, monkeypatch
    ):
        def failing_measure(instance, search):
            return {
                "branch": "already_efx",
                "product_alg": 0,
                "product_opt": 1,
                "ratio_pass": False,
                "efx_pass": True,
            }

        failing_suite = cli_mod.BENCH_SUITES["two-agent"]._replace(
            count=1, measure=failing_measure
        )
        monkeypatch.setitem(cli_mod.BENCH_SUITES, "two-agent", failing_suite)
        out_csv = tmp_path / "rows.csv"
        code, _, err = run(
            capsys, "bench", "--suite", "two-agent", "--out", str(out_csv)
        )
        assert code == 2
        assert "violation" in err
        assert (tmp_path / "repro_two-agent_0.json").exists()


    @pytest.mark.parametrize(
        "error", [InvariantViolationError, ExistenceViolationError]
    )
    def test_solver_failure_exits_2_and_dumps_a_repro(
        self, capsys, tmp_path, monkeypatch, error
    ):
        real_measure = cli_mod.BENCH_SUITES["two-agent"].measure
        seen = []

        def measure_failing_on_the_second(instance, search):
            seen.append(instance)
            if len(seen) == 2:
                raise error("guaranteed property failed")
            return real_measure(instance, search)

        failing_suite = cli_mod.BENCH_SUITES["two-agent"]._replace(
            count=3,
            measure=measure_failing_on_the_second,
        )
        monkeypatch.setitem(cli_mod.BENCH_SUITES, "two-agent", failing_suite)
        out_csv = tmp_path / "rows.csv"
        code, _, err = run(
            capsys, "bench", "--suite", "two-agent", "--out", str(out_csv)
        )
        assert code == 2
        assert err == "error: guaranteed property failed\n"
        assert sorted(p.name for p in tmp_path.glob("repro_*")) == [
            "repro_two-agent_1.json"
        ]
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert [r["instance_id"] for r in rows] == ["0"]

    @pytest.mark.parametrize("failure", ["raised", "reported"])
    def test_guarantee_failure_exits_2_when_nothing_can_be_written(
        self, capsys, tmp_path, monkeypatch, failure
    ):
        def failing_measure(instance, search):
            if failure == "raised":
                raise InvariantViolationError("guaranteed property failed")
            return {
                "branch": "already_efx",
                "product_alg": 0,
                "product_opt": 1,
                "ratio_pass": False,
                "efx_pass": True,
            }

        failing_suite = cli_mod.BENCH_SUITES["two-agent"]._replace(
            count=1, measure=failing_measure
        )
        monkeypatch.setitem(cli_mod.BENCH_SUITES, "two-agent", failing_suite)
        target = tmp_path / "no_such_dir" / "rows.csv"
        code, _, err = run(
            capsys, "bench", "--suite", "two-agent", "--out", str(target)
        )
        assert code == 2
        assert str(target) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{t1}", "--algorithm", "efx2"],
        ["bench", "--suite", "two-agent", "--count", "2"],
    ],
    ids=["solve", "bench"],
)
def test_out_in_a_missing_directory_is_a_usage_error(argv, t1_path, capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "out.txt"
    argv = [a.format(t1=t1_path) for a in argv] + ["--out", str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and str(target) in err


class TestSolveAndBenchAgree:
    def test_a_broken_envier_floor_fails_both(self, capsys, tmp_path, monkeypatch):
        # Instance 20 of the two-agent suite ends in a one-sided branch in
        # which the envied agent loses value. Naming the other agent as the
        # envier then breaks envier_keeps_input_value and nothing else.
        real_efx_2a = cli_mod.efx_2a

        def misnamed_envier(*args):
            result = real_efx_2a(*args)
            if result.envier is None:
                return result
            return result._replace(envier=1 - result.envier)

        monkeypatch.setattr(cli_mod, "efx_2a", misnamed_envier)
        suite = cli_mod.BENCH_SUITES["two-agent"]
        instance = gen_instances(suite.seed, 21, suite.agents, suite.goods)[20]
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(instance_to_json(instance))

        code, out, _ = run(capsys, "solve", str(inst_path), "--algorithm", "efx2")
        assert code == 2
        report = report_of(out)
        assert report["trace"]["branch"] == "leximin_split"
        assert [c["name"] for c in report["ratio_checks"] if not c["pass"]] == [
            "envier_keeps_input_value"
        ]

        out_csv = tmp_path / "rows.csv"
        code, _, _ = run(
            capsys, "bench", "--suite", "two-agent", "--count", "21",
            "--out", str(out_csv),
        )
        assert code == 2
        rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
        assert [r["instance_id"] for r in rows if r["ratio_pass"] == "False"] == [
            "20",
            "TOTAL",
        ]


class TestReportContract:
    def test_solve_reports_are_self_certifying(self, t1_path, capsys, tmp_path):
        # re-running verify on a report's allocation reproduces its booleans
        report_path = tmp_path / "report.json"
        run(
            capsys,
            "solve",
            str(t1_path),
            "--algorithm",
            "efx2",
            "--out",
            str(report_path),
        )
        report = json.loads(report_path.read_text())
        alloc_path = tmp_path / "alloc.json"
        alloc_path.write_text(
            json.dumps({"bundles": report["allocation"]["bundles"]})
        )
        code, out, _ = run(capsys, "verify", str(t1_path), str(alloc_path))
        verified = json.loads(out)
        assert verified["efx"]["pass"] == report["efx"]["pass"]
        assert verified["budget_feasible"] == report["budget_feasible"]
        assert verified["nsw_product"] == report["nsw_product"]
        assert code == 0

    def test_identical_invocations_produce_identical_reports(
        self, t1_path, capsys, tmp_path
    ):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            run(capsys, "solve", str(t1_path), "--algorithm", "efx2", "--out", str(p))
        assert paths[0].read_text() == paths[1].read_text()


numbers = st.one_of(
    st.integers(0, 6).map(Fraction),
    st.fractions(min_value=0, max_value=6, max_denominator=7),
)


@st.composite
def small_instances(draw):
    n = draw(st.integers(2, 3))
    m = draw(st.integers(0, 5))
    return Instance(
        tuple(draw(numbers) for _ in range(m)),
        tuple(draw(numbers) for _ in range(n)),
        tuple(tuple(draw(numbers) for _ in range(m)) for _ in range(n)),
    )


class TestCanonicalReports:
    """solve and verify write a report as json.dumps(report, indent=2,
    sort_keys=True) plus a newline would."""

    @staticmethod
    def assert_written_as_json_dumps(report):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            cli_mod._emit(cli_mod._canonical_json(report), None)
        assert text.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @settings(deadline=None, max_examples=60)
    @given(small_instances(), st.text())
    def test_reports_of_every_algorithm_and_of_verify(self, inst, text):
        search = SearchBudget()
        pair_or_triple = "efx2" if inst.num_agents == 2 else "efx3"
        for algorithm in (pair_or_triple, "oracle-nsw", "oracle-efx"):
            try:
                report = cli_mod._solve_report(inst, algorithm, search)
            except DegenerateOptimumError:
                continue
            report["trace"]["note"] = text
            self.assert_written_as_json_dumps(report)
        agents, goods = range(inst.num_agents), inst.all_goods()
        optimum = max_nsw_allocation(inst, agents, goods, search)
        self.assert_written_as_json_dumps(cli_mod._verify_report(inst, optimum, search))

    def test_a_witness_notes_and_escaped_strings(self, t1):
        witnessed = cli_mod._solve_report(t1, "oracle-nsw", SearchBudget())
        assert witnessed["efx"]["witness"] is not None
        self.assert_written_as_json_dumps(witnessed)
        noted = next(
            report
            for report in (
                cli_mod._solve_report(inst, "efx3", SearchBudget())
                for inst in gen_instances(3, 100, 3, (4, 9))
            )
            if report["trace"]["notes"]
        )
        noted["trace"]["notes"].append('a "quoted" caf\u00e9 \u2713 \\ tab\t line\n')
        self.assert_written_as_json_dumps(noted)


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_arguments(self, capsys):
        assert main(["solve"]) == 1


class TestArgvDispatch:
    """``main`` parses argv with the parser built at import. For every argv,
    what it does must be what a parser from ``build_parser()`` does with the
    whole argv: the same namespace when that parses, and the same exit code,
    stdout and stderr when it does not."""

    ARGVS = {
        "empty": [],
        "help": ["-h"],
        "unknown-word": ["frob"],
        "solve-help": ["solve", "-h"],
        "no-algorithm": ["solve", "x.json"],
        "bad-choice": ["solve", "x.json", "--algorithm", "efx9"],
        "abbreviated": ["solve", "x.json", "--algo", "efx2"],
        "bad-cap": ["solve", "x.json", "--algorithm", "efx2", "--cap", "x"],
        "trailing-word": ["solve", "x.json", "--algorithm", "efx2", "extra"],
        "trailing-option": ["verify", "x.json", "a.json", "--frob"],
        "bench-choice": ["bench", "--suite", "nope"],
        "full": ["solve", "x.json", "--algorithm", "efx3", "--alpha", "1/40", "--cap", "9",
                 "--out", "r.json"],
    }

    @pytest.mark.parametrize("argv", list(ARGVS.values()), ids=list(ARGVS))
    def test_main_parses_as_the_full_parser(self, argv, capsys):
        try:
            expected = vars(cli_mod.build_parser().parse_args(argv))
        except SystemExit as exc:
            code = cli_mod.EXIT_USAGE if exc.code not in (0, None) else 0
            reference = capsys.readouterr()
            assert run(capsys, *argv) == (code, reference.out, reference.err)
        else:
            assert vars(cli_mod._PARSER.parse_args(argv)) == expected


class TestOneParser:
    """``main`` parses with one parser built at import."""

    def test_main_does_not_rebuild_the_parser(self, t1_path, capsys, monkeypatch):
        def no_rebuild():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli_mod, "build_parser", no_rebuild)
        code, out, _ = run(capsys, "solve", str(t1_path), "--algorithm", "efx2")
        assert code == 0
        assert report_of(out)["trace"]["branch"] == "leximin_split"
        assert main(["solve"]) == 1

    def test_help_text_is_unchanged(self, capsys):
        fresh = cli_mod.build_parser().format_help()
        for _ in range(2):
            code, out, _ = run(capsys, "--help")
            assert code == 0
            assert out == fresh

    def test_calls_in_one_process_match_fresh_processes(self, t1_path, capsys, tmp_path):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": [[0, 1], [2]]}))
        calls = [
            ["solve", str(t1_path), "--algorithm", "efx2"],
            ["verify", str(t1_path), str(alloc)],
            ["solve", str(t1_path), "--algorithm", "efx2"],
        ]
        in_process = [run(capsys, *argv)[:2] for argv in calls]
        env = dict(os.environ, PYTHONPATH=str(Path(budgeted_efx.__file__).parents[1]))
        for argv, (code, out) in zip(calls, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "budgeted_efx", *argv],
                capture_output=True,
                text=True,
                env=env,
            )
            assert (fresh.returncode, fresh.stdout) == (code, out)


class TestUnallocatedGoods:
    """A report's ``unallocated`` is every good of the instance that no
    agent holds, as ``verify`` lists it for the same bundles."""

    # The last good costs more than any budget, so the welfare optimum, and
    # with it the pair procedure's seed, leaves it out.
    PAIR = Instance((1, 1, 5), (2, 2), ((1, 1, 1),) * 2)
    TRIPLE = Instance((1, 1, 1, 1, 9), (2, 2, 2), ((1, 2, 3, 4, 5),) * 3)

    @pytest.mark.parametrize(
        "algorithm, instance",
        [("efx2", PAIR), ("oracle-nsw", PAIR), ("oracle-efx", PAIR), ("efx3", TRIPLE)],
        ids=["efx2", "oracle-nsw", "oracle-efx", "efx3"],
    )
    def test_a_good_the_optimum_leaves_out(self, algorithm, instance, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(instance))
        code, out, _ = run(capsys, "solve", str(path), "--algorithm", algorithm)
        assert code == 0
        solved = report_of(out)["allocation"]
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"bundles": solved["bundles"]}))
        code, out, _ = run(capsys, "verify", str(path), str(alloc))
        assert code == 0
        assert solved["unallocated"] == report_of(out)["allocation"]["unallocated"]
        assert instance.num_goods - 1 in solved["unallocated"]


class TestFlagsOfOtherAlgorithms:
    """``--seed-allocation`` is for efx2 and ``--alpha`` for efx3; given to
    another algorithm, either is a parse error that names it."""

    def test_a_seed_allocation_for_efx3(self, capsys, tmp_path):
        never_read = tmp_path / "no_such_seed.json"
        argv = ["solve", str(FIXTURES / "r3.json"), "--algorithm", "efx3"]
        code, out, err = run(capsys, *argv, "--seed-allocation", str(never_read))
        assert (code, out) == (1, "")
        assert err == "error: --seed-allocation applies to efx2 only, not efx3\n"

    def test_alpha_for_efx2(self, t1, t1_path, capsys):
        argv = ["solve", str(t1_path), "--algorithm", "efx2", "--alpha", "1/2"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: --alpha applies to efx3 only, not efx2\n"
        with pytest.raises(ParseError, match="^--alpha applies to efx3 only, not oracle-nsw$"):
            cli_mod._solve_report(t1, "oracle-nsw", SearchBudget(), alpha="1/35")


class TestInputChecks:
    """Each malformed input is refused with its own message; a malformed
    document also exits 1 through ``main``."""

    INSTANCES = {
        "null-number": (
            {"goods": [{"id": 0, "cost": None}], "agents": []},
            "goods[0].cost: expected an integer or 'p/q' string, got None",
        ),
        "not-an-object": ([], "instance document must be a JSON object"),
        "no-goods": ({"agents": []}, "missing top-level key 'goods'"),
        "no-agents": ({"goods": []}, "missing top-level key 'agents'"),
        "goods-not-an-array": ({"goods": {}, "agents": []}, "'goods' and 'agents' must be arrays"),
        "agents-not-an-array": ({"goods": [], "agents": 0}, "'goods' and 'agents' must be arrays"),
        "good-without-cost": (
            {"goods": [{"id": 0}], "agents": []},
            "goods[0]: expected an object with 'id' and 'cost'",
        ),
        "agent-without-values": (
            {"goods": [], "agents": [{"id": 0, "budget": 1}]},
            "agents[0]: expected an object with 'id', 'budget' and 'values'",
        ),
    }

    @pytest.mark.parametrize("doc, message", list(INSTANCES.values()), ids=list(INSTANCES))
    def test_a_malformed_instance(self, doc, message, capsys, tmp_path):
        with pytest.raises(ParseError) as refused:
            parse_instance(doc)
        assert str(refused.value) == message
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", str(path), "--algorithm", "oracle-nsw")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_an_allocation_that_is_not_an_object(self, t1, t1_path, capsys, tmp_path):
        message = "allocation document must be an object with 'bundles'"
        with pytest.raises(ParseError) as refused:
            parse_allocation([[0], [1]], t1)
        assert str(refused.value) == message
        path = tmp_path / "alloc.json"
        path.write_text("[[0], [1]]")
        code, out, err = run(capsys, "verify", str(t1_path), str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_efx2_on_a_three_agent_instance(self, capsys):
        r3 = FIXTURES / "r3.json"
        message = "efx2 requires a two-agent instance"
        with pytest.raises(StructuralError, match=f"^{message}$"):
            cli_mod._solve_report(parse_instance(r3), "efx2", SearchBudget())
        code, out, err = run(capsys, "solve", str(r3), "--algorithm", "efx2")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_a_seed_allocation_over_budget(self, t1, t1_path, capsys, tmp_path):
        message = "input bundle of agent 0 exceeds her budget"
        with pytest.raises(StructuralError, match=f"^{message}$"):
            cli_mod._solve_report(t1, "efx2", SearchBudget(), seed={"bundles": [[0, 1, 2], []]})
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"bundles": [[0, 1, 2], []]}))
        argv = ["solve", str(t1_path), "--algorithm", "efx2", "--seed-allocation", str(seed)]
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_verify_under_a_cap_too_small_for_the_pareto_walk(self, t1, t1_path, capsys, tmp_path):
        allocation = make_allocation(t1, [{0}, {1}])
        with pytest.raises(SearchCapExceededError, match="^search budget exhausted after 1 "):
            is_pareto_efficient(t1, allocation, SearchBudget(1))
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps({"bundles": [[0], [1]]}))
        code, out, _ = run(capsys, "verify", str(t1_path), str(path), "--cap", "1")
        assert code == 0
        assert report_of(out)["pareto_efficient"] is None


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int-to-str digits unlimited")
class TestOversizedNumbers:
    """A report number with more digits than ``sys.get_int_max_str_digits()``
    lets Python write is refused with exit 1 and one error line."""

    MESSAGE = (
        "error: a reported number has more digits than sys.get_int_max_str_digits() "
        f"= {sys.get_int_max_str_digits()} lets Python write\n"
    )

    @pytest.fixture
    def two_agents(self, tmp_path):
        # Each agent's welfare product has a denominator of 5,000 digits.
        doc = {
            "goods": [{"id": g, "cost": 1} for g in range(3)],
            "agents": [
                {"id": 0, "budget": 3, "values": ["1/" + "7" * 2500] * 3},
                {"id": 1, "budget": 3, "values": ["1/" + "9" * 2499 + "1"] * 3},
            ],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("algorithm", ["efx2", "oracle-nsw", "oracle-efx"])
    def test_solve(self, algorithm, two_agents, capsys, tmp_path):
        report = tmp_path / "report.json"
        argv = ["solve", str(two_agents), "--algorithm", algorithm, "--out", str(report)]
        assert run(capsys, *argv) == (1, "", self.MESSAGE)
        assert not report.exists()

    def test_verify(self, two_agents, capsys, tmp_path):
        allocation = tmp_path / "alloc.json"
        allocation.write_text(json.dumps({"bundles": [[0], [1, 2]]}))
        assert run(capsys, "verify", str(two_agents), str(allocation)) == (1, "", self.MESSAGE)

    def test_efx3_with_1500_digit_denominators(self, capsys, tmp_path):
        # Three agents' scales multiply to 4,500 digits in the welfare product.
        doc = json.loads((FIXTURES / "r3.json").read_text())
        for i, agent in enumerate(doc["agents"]):
            scale = int(str(i + 1) * 1500)
            agent["values"] = [
                f"{v.numerator}/{v.denominator * scale}"
                for v in map(Fraction, map(str, agent["values"]))
            ]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "solve", str(path), "--algorithm", "efx3") == (1, "", self.MESSAGE)

    def test_the_largest_writable_int_is_written(self):
        limit = sys.get_int_max_str_digits()
        assert _ratio_to_json(10**limit - 1, 1) == 10**limit - 1
        assert _ratio_to_json(1, 10**limit - 1) == f"1/{10**limit - 1}"
        with pytest.raises(model.FairDivisionError, match="more digits than"):
            _ratio_to_json(10**limit, 1)
        with pytest.raises(model.FairDivisionError, match="more digits than"):
            _ratio_to_json(1, 10**limit)


# JSON values that a mutation writes in place of a number, an id or a list.
_ODD_VALUES = st.sampled_from(
    [0, 1, 2, -1, "1/0", "-3", "3/2", "0.5", "x", 1.5, True, None, [], {}, 10**40]
    + ["1/" + "7" * 2500]
)


@st.composite
def _mutated_document(draw, doc):
    # A copy of ``doc`` with up to three of its numbers, ids, entries or keys
    # replaced, removed or duplicated.
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        array = doc[draw(st.sampled_from(["goods", "agents"]))]
        entry = array[draw(st.integers(0, len(array) - 1))] if array else None
        if not entry:
            continue
        action = draw(st.sampled_from(["set", "drop-key", "drop-entry", "repeat-entry"]))
        key = draw(st.sampled_from(sorted(entry)))
        if action == "set" and key == "values" and entry["values"]:
            entry["values"][draw(st.integers(0, len(entry["values"]) - 1))] = draw(_ODD_VALUES)
        elif action == "set":
            entry[key] = draw(_ODD_VALUES)
        elif action == "drop-key":
            del entry[key]
        elif action == "drop-entry":
            array.remove(entry)
        else:
            array.append(entry)
    return doc


_GOOD_IDS = st.one_of(st.integers(-1, 7), st.sampled_from(["0", 1.0, None, True]))
_ALLOCATIONS = st.one_of(
    # Allocations of t1, then of r3, that parse.
    st.sampled_from([[[0], [1]], [[0, 1], [2]], [[0, 1, 2], []], [[0, 1, 2], [3], [4, 5]]]).map(
        lambda bundles: {"bundles": bundles}
    ),
    st.fixed_dictionaries({"bundles": st.lists(st.lists(_GOOD_IDS, max_size=4), max_size=4)}),
    st.sampled_from([[], {}, {"bundles": None}, {"bundles": [[0], "1"]}]),
)


_SOMETIMES = st.sampled_from([False, False, False, True])


@st.composite
def _argvs(draw):
    # A solve or verify call on a mutated fixture: the documents to write,
    # then argv with INSTANCE and ALLOCATION for their paths.
    name = draw(st.sampled_from(["t1.json", "r3.json"]))
    doc = draw(_mutated_document(json.loads((FIXTURES / name).read_text())))
    allocation = draw(_ALLOCATIONS)
    if draw(st.booleans()):
        argv = ["verify", "INSTANCE", "ALLOCATION"]
    else:
        algorithm = draw(st.sampled_from(["efx2", "efx3", "oracle-nsw", "oracle-efx", "nsw"]))
        argv = ["solve", "INSTANCE", "--algorithm", algorithm]
        if draw(_SOMETIMES):
            argv += ["--alpha", draw(st.sampled_from(["1/35", "1/2", "0", "2", "x"]))]
        if draw(_SOMETIMES):
            argv += ["--seed-allocation", draw(st.sampled_from(["opt", "ALLOCATION", "missing"]))]
    if draw(_SOMETIMES):
        argv += ["--cap", draw(st.sampled_from(["1", "5", "0", "-1", "x"]))]
    return doc, allocation, argv


class TestExitCodeContract:
    """Whatever documents and flags it is given, ``main`` returns one of the
    exit codes README lists and raises nothing."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_argvs())
    def test_mutated_documents_and_flags(self, case):
        doc, allocation, argv = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"INSTANCE": Path(tmp, "inst.json"), "ALLOCATION": Path(tmp, "alloc.json")}
            paths["INSTANCE"].write_text(json.dumps(doc))
            paths["ALLOCATION"].write_text(json.dumps(allocation))
            argv = [str(paths.get(a, a)) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = main(argv)
        assert code in (0, 1, 2, 3, 4)
