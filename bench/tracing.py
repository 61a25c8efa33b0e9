"""Span tracer for the benchmark's traced run.

The tracer replaces fairpay's public functions at every module binding
where other code looks them up (``fairpay.solvers.brute_force`` and
``fairpay.experiments.brute_force`` are separate names), plus the oracle
and table methods of every ``RewardFunction`` class.  Nothing under
``src/`` is edited; ``uninstall`` restores every original.

Coarse calls (solvers, table builds, CLI commands, file I/O) each become a
span ``[id, parent, name, start, end, fine_s, attrs]`` kept in memory and
written out by ``write``.  Fine calls (oracle ``value``/``marginal`` and
``indifference_payment``) run up to ~10^5 times per op, so they are counted
and timed per name and charged to their parent span's ``fine_s`` instead of
becoming spans of their own; self times subtract them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import threading
import time
from collections import defaultdict

import fairpay
from fairpay import cli, contracts, experiments, families, rewards, serialize, solvers

_ALL_SOLVERS = (solvers, experiments, fairpay)
_GEN = (families, experiments, fairpay)

# Function name -> (the layer group its spans are reported under, the module
# objects whose attribute of that name is replaced).
_TRACED = {
    "check_structure": ("rewards.check_structure", (rewards, contracts, cli, fairpay)),
    "optimal_contract_for_set": (
        "contracts.optimal_contract_for_set", (contracts, solvers, experiments, fairpay)
    ),
    "is_equilibrium": ("contracts.is_equilibrium", (contracts, cli, fairpay)),
    "brute_force": ("solvers.brute_force", _ALL_SOLVERS),
    "symmetric_solve": ("solvers.symmetric_solve", _ALL_SOLVERS),
    "two_agent_solve": ("solvers.two_agent_solve", _ALL_SOLVERS),
    "log_partition": ("solvers.partition", _ALL_SOLVERS),
    "delta_partition": ("solvers.partition", _ALL_SOLVERS),
    "solve_with": ("experiments.solve_with", (experiments, cli, fairpay)),
    "pond_ratio": ("experiments.pond_ratio", (experiments, fairpay)),
    "geometric_solve": ("experiments.geometric_solve", (experiments, fairpay)),
    "run_sweep": ("experiments.run_sweep", (experiments, cli, fairpay)),
    "verify_bounds": ("experiments.verify_bounds", (experiments, fairpay)),
    "gen_random": ("families.gen", _GEN),
    "gen_two_class": ("families.gen", _GEN),
    "gen_geometric_family": ("families.gen", _GEN),
    "gen_two_agent_tight": ("families.gen", _GEN),
    "load_instance": ("serialize.load", (serialize, cli)),
    "load_result": ("serialize.load", (serialize, cli)),
    "load_sweep_config": ("serialize.load", (serialize, cli)),
    "save_instance": ("serialize.save", (serialize, cli)),
    "save_report": ("serialize.save", (serialize, cli)),
}

_CLI_COMMANDS = ("gen", "solve", "check", "sweep")  # the commands the workloads run
_REWARD_CLASSES = (
    rewards.RewardFunction,
    rewards.Additive,
    rewards.CappedAdditive,
    rewards.Coverage,
    rewards.ExplicitTable,
    rewards.SymmetricTwoClass,
)

# Per-layer metric names, in output order, with their units.
LAYER_METRICS = {
    "rewards.value_table.s": "s",
    "rewards.value_table.calls": "count",
    "rewards.value_table.mb": "MB",
    "rewards.check_structure.s": "s",
    "rewards.check_structure.checks": "count",
    "rewards.oracle.calls": "count",
    "rewards.oracle.s": "s",
    "contracts.optimal_contract_for_set.s": "s",
    "contracts.optimal_contract_for_set.calls": "count",
    "contracts.indifference_payment.calls": "count",
    "solvers.brute_force.s": "s",
    "solvers.brute_force.self_s": "s",
    "solvers.brute_force.ns_per_subset": "ns",
    "solvers.brute_force.speedup_w2": "x",
    "solvers.symmetric_solve.s": "s",
    "solvers.symmetric_solve.scaling_exp": "exponent",
    "solvers.partition.s": "s",
    "solvers.partition.feasible_frac": "fraction",
    "experiments.pond_ratio.s": "s",
    "experiments.pond_ratio.calls": "count",
    "experiments.geometric_solve.s": "s",
    "experiments.geometric_solve.scaling_exp": "exponent",
    "experiments.run_sweep.s": "s",
    "experiments.run_sweep.points": "count",
    "experiments.verify_bounds.s": "s",
    "families.gen.s": "s",
    "serialize.load.s": "s",
    "serialize.save.s": "s",
    "serialize.bytes": "bytes",
    **{f"cli.{c}.self_s": "s" for c in ("main",) + _CLI_COMMANDS},
    **{f"cli.exit_code.{k}.count": "count" for k in range(4)},
    "trace.overhead_frac": "fraction",
}


def _attrs_for(name, args, out):
    """Counts recorded on a span from its call's arguments and result."""
    if name == "check_structure":
        return {"checks": out.checks}
    if name == "brute_force":
        return {"n": args[0].n, "candidates": out.candidates_examined}
    if name in ("symmetric_solve", "geometric_solve", "value_table"):
        return {"n": args[0].n}
    if name == "run_sweep":
        return {"points": len(out)}
    if name in ("save_instance", "save_report"):
        return {"bytes": os.path.getsize(args[1])}
    return None


class Tracer:
    """In-memory spans around fairpay's public functions."""

    def __init__(self):
        self.spans = []
        self.active = True
        self._fine_totals = []  # one {group: [calls, seconds]} per thread
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._patches = []
        # guards the fine_s of a main-thread span adopted by sweep threads
        self._lock = threading.Lock()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to the span that is open on
        # the main thread, which is blocked waiting for the pool
        return self._main_stack[-1] if self._main_stack else None

    def _coarse(self, fn, name, group):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            rec = [next(tracer._ids), parent[0] if parent else 0, group, 0.0, 0.0, 0.0, None]
            stack.append(rec)
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[4] = time.perf_counter()
                rec[6] = {"error": True}
                raise
            else:
                rec[4] = time.perf_counter()
                rec[6] = _attrs_for(name, args, out)
                return out
            finally:
                stack.pop()
                tracer.spans.append(rec)

        traced.__wrapped__ = fn
        return traced

    def _fine(self, fn, group):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            local = tracer._local
            open_groups = getattr(local, "fine_open", None)
            if open_groups is None:
                open_groups = local.fine_open = set()
                local.fine = defaultdict(lambda: [0, 0.0])
                tracer._fine_totals.append(local.fine)
            if group in open_groups:
                return fn(*args, **kwargs)
            outermost = not open_groups
            open_groups.add(group)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                open_groups.discard(group)
                acc = local.fine[group]
                acc[0] += 1
                acc[1] += dt
                if outermost:
                    stack = tracer._stack()
                    if stack:
                        stack[-1][5] += dt
                    elif tracer._main_stack:
                        with tracer._lock:
                            tracer._main_stack[-1][5] += dt

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Replace every traced binding with a wrapper; undone by uninstall."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (group, owners) in _TRACED.items():
            for owner in owners:
                self._patch(owner, name, self._coarse(owner.__dict__[name], name, group))
        self._patch(contracts, "indifference_payment",
                    self._fine(contracts.indifference_payment, "contracts.indifference_payment"))
        self._patch(solvers, "indifference_payment",
                    self._fine(solvers.indifference_payment, "contracts.indifference_payment"))
        for cls in _REWARD_CLASSES:
            for attr in ("value", "marginal", "__call__"):
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._fine(cls.__dict__[attr], "rewards.oracle"))
            if "value_table" in cls.__dict__:
                self._patch(cls, "value_table", self._coarse(
                    cls.__dict__["value_table"], "value_table", "rewards.value_table"))
        self._patch(cli, "main", self._coarse(cli.main, "main", "cli.main"))
        for command in _CLI_COMMANDS:
            attr = f"cmd_{command}"
            self._patch(cli, attr, self._coarse(getattr(cli, attr), attr, f"cli.{command}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction to per-layer metrics -----------------------------------

    @property
    def fine(self):
        """Fine-call {group: [calls, seconds]} summed over threads."""
        total = defaultdict(lambda: [0, 0.0])
        for per_thread in self._fine_totals:
            for group, (calls, seconds) in per_thread.items():
                total[group][0] += calls
                total[group][1] += seconds
        return total

    def _outermost(self, group, by_id):
        """Spans of a group not nested inside another span of the same group."""
        out = []
        for rec in self.spans:
            if rec[2] != group:
                continue
            parent = by_id.get(rec[1])
            while parent is not None and parent[2] != group:
                parent = by_id.get(parent[1])
            if parent is None:
                out.append(rec)
        return out

    def _self_times(self):
        """Span id -> duration minus its children's covered interval and fine calls."""
        children = defaultdict(list)
        for rec in self.spans:
            children[rec[1]].append((rec[3], rec[4]))
        result = {}
        for rec in self.spans:
            covered = 0.0
            end = rec[3]
            for lo, hi in sorted(children.get(rec[0], ())):
                lo, hi = max(lo, end), min(hi, rec[4])
                if hi > lo:
                    covered += hi - lo
                    end = hi
            result[rec[0]] = max(0.0, rec[4] - rec[3] - covered - rec[5])
        return result

    def metrics(self, exit_codes, speedup_w2, overhead_frac):
        """Every per-layer metric; 0 where the layer does not run in the workload."""
        by_id = {rec[0]: rec for rec in self.spans}
        groups = {group for group, _ in _TRACED.values()}
        groups |= {"rewards.value_table", "cli.main"} | {f"cli.{c}" for c in _CLI_COMMANDS}
        outer = {group: self._outermost(group, by_id) for group in groups}
        busy = {group: sum(rec[4] - rec[3] for rec in spans) for group, spans in outer.items()}
        calls = {group: len(spans) for group, spans in outer.items()}
        self_s = self._self_times()
        fine = self.fine

        def attr_sum(group, key):
            return sum((rec[6] or {}).get(key, 0) for rec in self.spans if rec[2] == group)

        bf_self = sum(self_s[rec[0]] for rec in outer["solvers.brute_force"])
        bf_subsets = sum((rec[6] or {}).get("candidates", 0) for rec in outer["solvers.brute_force"])
        partitions = outer["solvers.partition"]
        table_bytes = sum(8 << (rec[6] or {}).get("n", 0) for rec in outer["rewards.value_table"])

        m = {
            "rewards.value_table.s": busy["rewards.value_table"],
            "rewards.value_table.calls": calls["rewards.value_table"],
            "rewards.value_table.mb": table_bytes / 1e6,
            "rewards.check_structure.s": busy["rewards.check_structure"],
            "rewards.check_structure.checks": attr_sum("rewards.check_structure", "checks"),
            "rewards.oracle.calls": fine["rewards.oracle"][0],
            "rewards.oracle.s": fine["rewards.oracle"][1],
            "contracts.optimal_contract_for_set.s": busy["contracts.optimal_contract_for_set"],
            "contracts.optimal_contract_for_set.calls": calls["contracts.optimal_contract_for_set"],
            "contracts.indifference_payment.calls": fine["contracts.indifference_payment"][0],
            "solvers.brute_force.s": busy["solvers.brute_force"],
            "solvers.brute_force.self_s": bf_self,
            "solvers.brute_force.ns_per_subset": bf_self / bf_subsets * 1e9 if bf_subsets else 0.0,
            "solvers.brute_force.speedup_w2": speedup_w2,
            "solvers.symmetric_solve.s": busy["solvers.symmetric_solve"],
            "solvers.symmetric_solve.scaling_exp": scaling_exponent(outer["solvers.symmetric_solve"]),
            "solvers.partition.s": busy["solvers.partition"],
            "solvers.partition.feasible_frac": (
                sum(1 for rec in partitions if not (rec[6] or {}).get("error")) / len(partitions)
                if partitions
                else 0.0
            ),
            "experiments.pond_ratio.s": busy["experiments.pond_ratio"],
            "experiments.pond_ratio.calls": calls["experiments.pond_ratio"],
            "experiments.geometric_solve.s": busy["experiments.geometric_solve"],
            "experiments.geometric_solve.scaling_exp": scaling_exponent(
                outer["experiments.geometric_solve"]
            ),
            "experiments.run_sweep.s": busy["experiments.run_sweep"],
            "experiments.run_sweep.points": attr_sum("experiments.run_sweep", "points"),
            "experiments.verify_bounds.s": busy["experiments.verify_bounds"],
            "families.gen.s": busy["families.gen"],
            "serialize.load.s": busy["serialize.load"],
            "serialize.save.s": busy["serialize.save"],
            "serialize.bytes": attr_sum("serialize.save", "bytes"),
        }
        for command in ("main",) + _CLI_COMMANDS:
            group = f"cli.{command}"
            m[f"{group}.self_s"] = sum(self_s[rec[0]] for rec in outer[group])
        for k in range(4):
            m[f"cli.exit_code.{k}.count"] = exit_codes.get(k, 0)
        m["trace.overhead_frac"] = overhead_frac
        return {name: {"value": m[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def write(self, path, header):
        """Write the header line, then one JSON line per span (times in seconds)."""
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for rec in sorted(self.spans, key=lambda r: r[3]):
                span = {"id": rec[0], "parent": rec[1], "name": rec[2],
                        "start": rec[3], "end": rec[4], "fine_s": rec[5]}
                if rec[6]:
                    span.update(rec[6])
                handle.write(json.dumps(span) + "\n")
            fine = {name: {"calls": c, "s": s} for name, (c, s) in sorted(self.fine.items())}
            handle.write(json.dumps({"fine_calls": fine}) + "\n")


def scaling_exponent(spans):
    """Least-squares slope of log(median time) against log(n) over the sizes run."""
    by_n = defaultdict(list)
    for rec in spans:
        by_n[rec[6]["n"]].append(rec[4] - rec[3])
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in sorted(by_n)]
    ys = [math.log(statistics.median(by_n[n])) for n in sorted(by_n)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
