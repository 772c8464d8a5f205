"""Per-layer tracing from outside the package.

The tracer wraps public functions of the package modules (the layers) and
records a span per call: name, parent span, start and end. The package
imports functions by name (``from .model import knapsack_vmax``), so each
wrapper replaces the name in every package module that holds it. Spans stay
in memory and are written out once, when the run ends.

Times are CPU time of the benchmark's thread. A span's self time is its
duration minus the time covered by its child spans and by the tracer's own
bookkeeping after each child returns.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import thread_time

WRAPPED = {
    "oracles": ("max_nsw_allocation", "complete_efx_allocation", "leximin_pp_split"),
    "model": (
        "knapsack_vmax",
        "efx_envies",
        "envies",
        "is_efx",
        "is_ef1",
        "is_envy_free",
        "normalize",
    ),
    "two_agents": ("efx_2a", "build_feasibility_graph", "select_perfect_matching"),
    "three_agents": ("efx_3a", "preprocess", "equal_budget_procedure", "else_procedure"),
    "instances": (
        "gen_instances",
        "instance_to_json",
        "parse_instance",
        "parse_allocation",
        "instance_sha256",
    ),
    "cli": ("main",),
}

# Spans the benchmark itself opens around set-up and each operation.
BENCH_SPANS = ("bench.setup", "bench.op")

BRANCHES = {
    "two_agents.efx_2a": (
        "already_efx",
        "mutual_swap",
        "removal_loop",
        "leximin_split",
        "removal_loop_certified",
        "leximin_split_certified",
    ),
    "three_agents.efx_3a": (
        "small_instance",
        "equal_budget",
        "else_return1",
        "else_return2",
        "else_return3",
    ),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer, names in WRAPPED.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
            units[f"{layer}.{name}.share"] = "frac"
    units["model.knapsack_vmax.repeat_frac"] = "frac"
    units["model.knapsack_vmax.whole_pool_frac"] = "frac"
    units["model.knapsack_vmax.pool_mean"] = "goods"
    units["oracles.max_nsw_allocation.pool_mean"] = "goods"
    for fn, branches in BRANCHES.items():
        for branch in branches:
            units[f"{fn}.branch.{branch}"] = "count"
    for layer in WRAPPED:
        units[f"{layer}.cap_hits"] = "count"
    units["trace.overhead_frac"] = "frac"
    return units


class Tracer:
    """Spans and counters for one traced pass over a freshly imported package."""

    def __init__(self, package):
        self.package = package
        self.names = list(BENCH_SPANS) + [
            f"{layer}.{name}" for layer, names in WRAPPED.items() for name in names
        ]
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.spans: list[list] = []  # [name id, parent index or -1, start, end]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.cap_hits = dict.fromkeys(WRAPPED, 0)
        self.branches = {fn: {} for fn in BRANCHES}
        self._open: list[int] = []
        self._covered: list[float] = []  # per open span: time of children and bookkeeping
        self._restore: list[tuple] = []
        # Knapsack keys seen so far; instances are reduced to an equality
        # class once per object so that hashing stays off the per-call path.
        self._seen_keys: set = set()
        self._instance_class: dict = {}
        self._class_by_id: dict[int, tuple] = {}
        self.knapsack_repeats = 0
        self.knapsack_whole_pool = 0
        self.knapsack_pool_total = 0
        self.nsw_pool_total = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in sys.modules.items()
            if name == "budgeted_efx" or name.startswith("budgeted_efx.")
        ]
        observers = {
            "model.knapsack_vmax": self._observe_knapsack,
            "oracles.max_nsw_allocation": self._observe_nsw,
            "two_agents.efx_2a": self._observe_branch,
            "three_agents.efx_3a": self._observe_branch,
        }
        cap_error = self.package.oracles.SearchCapExceededError
        for layer, names in WRAPPED.items():
            home = getattr(self.package, layer)
            for name in names:
                full = f"{layer}.{name}"
                original = getattr(home, name)
                wrapper = self._wrap(full, layer, original, observers.get(full), cap_error)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- spans ------------------------------------------------------------

    def _enter(self, name_id: int) -> tuple[int, float]:
        index = len(self.spans)
        start = thread_time()
        self.spans.append([name_id, self._open[-1] if self._open else -1, start, start])
        self._open.append(index)
        self._covered.append(0.0)
        return index, start

    def _exit(self, index: int, start: float) -> float:
        end = thread_time()
        self._open.pop()
        covered = self._covered.pop()
        span = self.spans[index]
        span[3] = end
        self.calls[span[0]] += 1
        self.self_s[span[0]] += end - start - covered
        return end

    def _charge_parent(self, start: float) -> None:
        if self._covered:
            self._covered[-1] += thread_time() - start

    def _wrap(self, full: str, layer: str, original, observe, cap_error):
        name_id = self.ids[full]

        def traced(*args, **kwargs):
            index, start = self._enter(name_id)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self._exit(index, start)
                self._charge_parent(start)
                # Counted once, in the innermost wrapped call it escaped from.
                if isinstance(exc, cap_error) and not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.cap_hits[layer] += 1
                raise
            self._exit(index, start)
            if observe is not None:
                observe(full, args, result)
            self._charge_parent(start)
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        return traced

    @contextmanager
    def span(self, name: str):
        """One of the benchmark's own spans."""
        index, start = self._enter(self.ids[name])
        try:
            yield
        finally:
            self._exit(index, start)
            self._charge_parent(start)

    # -- observers --------------------------------------------------------

    def _class_of(self, instance) -> int:
        entry = self._class_by_id.get(id(instance))
        if entry is None or entry[0] is not instance:
            cls = self._instance_class.setdefault(instance, len(self._instance_class))
            entry = self._class_by_id[id(instance)] = (instance, cls)
        return entry[1]

    def _observe_knapsack(self, _full, args, _result) -> None:
        instance, agent, pool, budget = args
        pool = frozenset(pool)
        budget = Fraction(budget)
        key = (self._class_of(instance), agent, pool, budget)
        if key in self._seen_keys:
            self.knapsack_repeats += 1
        else:
            self._seen_keys.add(key)
        costs = instance.costs
        if sum(costs[g] for g in pool) <= budget:
            self.knapsack_whole_pool += 1
        self.knapsack_pool_total += len(pool)

    def _observe_nsw(self, _full, _args, result) -> None:
        self.nsw_pool_total += len(result.scope)

    def _observe_branch(self, full, _args, result) -> None:
        counts = self.branches[full]
        counts[result.branch] = counts.get(result.branch, 0) + 1

    # -- results ----------------------------------------------------------

    def top_level_seconds(self) -> float:
        return sum(end - start for _, parent, start, end in self.spans if parent == -1)

    def metrics(self, region_s: float, overhead_frac: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, names in WRAPPED.items():
            for name in names:
                i = self.ids[f"{layer}.{name}"]
                out[f"{layer}.{name}.calls"] = self.calls[i]
                out[f"{layer}.{name}.self_s"] = self.self_s[i]
                out[f"{layer}.{name}.share"] = self.self_s[i] / region_s
        knapsacks = self.calls[self.ids["model.knapsack_vmax"]]
        nsw = self.calls[self.ids["oracles.max_nsw_allocation"]]
        out["model.knapsack_vmax.repeat_frac"] = _ratio(self.knapsack_repeats, knapsacks)
        out["model.knapsack_vmax.whole_pool_frac"] = _ratio(
            self.knapsack_whole_pool, knapsacks
        )
        out["model.knapsack_vmax.pool_mean"] = _ratio(self.knapsack_pool_total, knapsacks)
        out["oracles.max_nsw_allocation.pool_mean"] = _ratio(self.nsw_pool_total, nsw)
        for fn, branches in BRANCHES.items():
            for branch in branches:
                out[f"{fn}.branch.{branch}"] = self.branches[fn].get(branch, 0)
        for layer, hits in self.cap_hits.items():
            out[f"{layer}.cap_hits"] = hits
        out["trace.overhead_frac"] = overhead_frac
        return out

    def unknown_branches(self) -> dict[str, list[str]]:
        """Branch names seen in results but not in the metric list."""
        return {
            fn: sorted(set(counts) - set(BRANCHES[fn]))
            for fn, counts in self.branches.items()
            if set(counts) - set(BRANCHES[fn])
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
