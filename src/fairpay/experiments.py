"""Utility-ratio measurements, sweeps, and bound-verification suites.

The central quantity is the ratio between the unconstrained optimal
principal utility and the optimum under a pay-equity constraint, measured
per instance.  Sweeps evaluate a grid of instances/constraints and emit a
fixed-schema CSV; verify_bounds packages the guarantee checks used by the
test suite and the demos.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .contracts import Instance, ModeSpec, optimal_contract_for_set
from .errors import ParameterError
from .families import gen_geometric_family, gen_random, gen_two_agent_tight, gen_two_class
from .rewards import ExplicitTable, read_field, read_float, read_int
from .solvers import (
    BRUTE_FORCE_LIMIT,
    SolveReport,
    brute_force,
    delta_partition,
    geometric_solve,
    log_partition,
    symmetric_solve,
    two_agent_bound,
    two_agent_exact,
    two_agent_solve,
)

DEGENERATE_TOL = 1e-9

CSV_COLUMNS = [
    "instance_id",
    "n",
    "beta",
    "delta",
    "opt",
    "opt_nd",
    "ratio",
    "method_opt",
    "method_nd",
    "degenerate",
    "error",
]


@dataclass(frozen=True)
class RatioRecord:
    """One measured utility ratio (unconstrained over constrained)."""

    instance_id: str
    n: int
    beta: float | None
    delta: float | None
    opt: float | None
    opt_nd: float | None
    ratio: float | None
    method_opt: str
    method_nd: str
    degenerate: bool = False
    error: str | None = None


# ---------------------------------------------------------------------------
# method dispatch

METHODS = ("brute", "symmetric", "two_agent", "log_partition", "delta_partition", "geometric")


def _default_base(inst: Instance) -> int:
    if inst.n <= BRUTE_FORCE_LIMIT:
        return brute_force(inst, ModeSpec.unconstrained()).best.members
    return (1 << inst.n) - 1


def solve_with(inst: Instance, spec: ModeSpec, method: str) -> SolveReport:
    """Run the named solver on an instance under the given payment regime."""
    if method in ("brute", "brute_force"):
        return brute_force(inst, spec)
    if method == "symmetric":
        return symmetric_solve(inst, spec)
    if method == "two_agent":
        return two_agent_exact(inst, spec)
    if method == "geometric":
        return geometric_solve(inst, spec)
    if method == "log_partition":
        if spec.pay_ratio != 1:
            raise ParameterError("log_partition solves the nd mode (beta = 1) only")
        part = log_partition(inst, _default_base(inst))
        return SolveReport(spec, part.best(), "log_partition", len(part.groups), None)
    if method == "delta_partition":
        if not 1 < spec.pay_ratio < math.inf:
            raise ParameterError("delta_partition solves the beta_nd mode with beta > 1 only")
        if inst.n < 2:
            raise ParameterError("delta_partition needs n >= 2 to set delta = log(beta) / log(n)")
        delta = math.log(spec.pay_ratio) / math.log(inst.n)
        part = delta_partition(inst, _default_base(inst), delta)
        # the best group priced at spec's beta, which n^delta may miss by an ulp
        best = optimal_contract_for_set(inst, part.best().members, spec)
        return SolveReport(spec, best, "delta_partition", len(part.groups), None)
    raise ParameterError(f"unknown method {method!r}; expected one of {METHODS}")


# ---------------------------------------------------------------------------
# ratio measurement

def pond_ratio(
    inst: Instance,
    spec: ModeSpec,
    methods: tuple[str, str] = ("brute", "brute"),
    workers: int = 1,
    delta: float | None = None,
) -> RatioRecord:
    """Measure unconstrained-over-constrained optimal utility for one instance.

    methods names the (unconstrained, constrained) solvers.  A constrained
    optimum at or below tolerance marks the record degenerate instead of
    dividing by it.  workers is accepted for compatibility and ignored.
    """
    if spec.mode == "unconstrained":
        raise ParameterError("pond_ratio needs a constrained mode (nd or beta_nd)")
    method_opt, method_nd = methods
    rep_nd = solve_with(inst, spec, method_nd)
    if method_opt == method_nd and rep_nd.opt_reference is not None:
        opt = rep_nd.opt_reference
    else:
        opt = solve_with(inst, ModeSpec.unconstrained(), method_opt).best.utility
    opt_nd = rep_nd.best.utility
    degenerate = opt_nd <= DEGENERATE_TOL
    return RatioRecord(
        instance_id=inst.label,
        n=inst.n,
        beta=spec.pay_ratio,
        delta=delta,
        opt=opt,
        opt_nd=opt_nd,
        ratio=None if degenerate else opt / opt_nd,
        method_opt=method_opt,
        method_nd=method_nd,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# sweeps

# each family: its generator, a reader for each parameter the generator
# takes (rewards.read_int for a count, read_float otherwise), and the
# parameters it needs; the generators hold the defaults of the others
_RANDOM = {"n": read_int, "seed": read_int, "cost_margin": read_float}
FAMILIES = {
    "geometric": (gen_geometric_family, {"m": read_int, "T": read_float}, ("m", "T")),
    "lemma8": (partial(gen_two_class, "lemma8"), {"n": read_int, "epsilon": read_float,
               "M": read_float, "delta": read_float}, ("n", "M", "delta")),
    "lemma9": (partial(gen_two_class, "lemma9"), {"n": read_int, "epsilon": read_float}, ("n",)),
    "tight2": (gen_two_agent_tight, {"beta": read_float, "epsilon": read_float}, ("beta",)),
    "random-additive": (partial(gen_random, "additive"), _RANDOM, ("n", "seed")),
    "random-coverage": (partial(gen_random, "coverage"), _RANDOM, ("n", "seed")),
    "random-capped": (partial(gen_random, "capped_additive"), _RANDOM, ("n", "seed")),
}


def _family(family: str, given, ratio_keys=()) -> tuple:
    """The table entry of family; ParameterError names an unknown family, a
    given name it does not take (bar those in ratio_keys), or a needed one not given."""
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}; expected one of {tuple(FAMILIES)}")
    entry = FAMILIES[family]
    for key in given:
        if key not in entry[1] and key not in ratio_keys:
            raise ParameterError(f"family {family!r} does not take parameter {key!r}")
    for key in entry[2]:
        if key not in given:
            raise ParameterError(f"family {family!r} needs parameter {key!r}")
    return entry


def build_instance(family: str, params: dict) -> Instance:
    """Construct a family instance from a flat parameter mapping, each
    value read by the family's reader."""
    generator, readers, _ = _family(family, params)
    read = {key: read_field(params, key, readers[key], f"family {family!r}") for key in params}
    return generator(**read)


@dataclass(frozen=True)
class SweepSpec:
    """A family, a one-dimensional parameter grid, and the methods to run.

    A grid sets the family parameter of its name, if the family takes
    it (m, n, tight2's beta), and else the pay ratio: beta, or n^delta.
    The mode defaults to beta_nd over a beta or delta grid, which nd
    would leave nothing to set, and to nd otherwise.  Over an m or n
    grid in beta_nd mode, a beta or delta parameter sets the pay ratio;
    anywhere else, one the family does not take is an error, as is
    every parameter that nothing reads.  That constant beta must be
    finite and >= 1, and a delta finite and >= 0.  Each parameter the
    family takes, and each grid point that sets one, must pass the
    family's reader: a seed is the parameter "seed", and a count is
    integral."""

    family: str
    params: dict
    grid_param: str
    grid_values: list
    methods: tuple[str, str] = ("brute", "brute")
    mode: str | None = None

    def __post_init__(self):
        grid, params = self.grid_param, self.params
        if grid not in ("beta", "delta", "m", "n"):
            raise ParameterError(f"grid must be one of beta/delta/m/n, got {grid!r}")
        if not self.grid_values:
            raise ParameterError("sweep grid is empty")
        if self.mode is None:
            object.__setattr__(self, "mode", "beta_nd" if grid in ("beta", "delta") else "nd")
        if self.mode not in ("nd", "beta_nd"):
            raise ParameterError(f"sweep mode must be nd or beta_nd, got {self.mode!r}")
        if self.mode == "nd" and grid in ("beta", "delta"):
            raise ParameterError(f"mode nd has no pay ratio for a {grid} grid to set")
        for key, method in zip(("method_opt", "method_nd"), self.methods):
            if method not in (*METHODS, "brute_force"):
                raise ParameterError(f"{key} {method!r} is not one of {METHODS}")
        # a grid gives the parameter of its name, bar delta
        given = [*params, *[grid] * (grid != "delta")]
        readers = _family(self.family, given, ("beta", "delta"))[1]
        if grid in params and grid != "delta":
            raise ParameterError(f"parameter {grid!r} is also the grid")
        ratio_keys = [key for key in ("beta", "delta") if key in params and key not in readers]
        if ratio_keys and (grid not in ("m", "n") or self.mode == "nd"):
            raise ParameterError(f"parameter {ratio_keys[0]!r} sets the pay ratio only "
                                 "in a beta_nd sweep over an m or n grid")
        if len(ratio_keys) == 2:
            raise ParameterError("a beta_nd sweep takes a beta or a delta parameter, not both")
        where = f"family {self.family!r}"
        if self.mode == "beta_nd" and grid in ("m", "n"):
            # the constant pay ratio, read as _sweep_point reads it
            key = "beta" if "beta" in params else "delta"
            if key not in params:
                raise ParameterError("beta_nd sweeps need a beta or delta parameter")
            value = read_field(params, key, read_float, "sweep config")
            if key == "beta":
                ModeSpec.beta_nd(value)
            elif not 0 <= value < math.inf:
                raise ParameterError(f"a delta parameter must be finite and >= 0, got {value}")
        for key in params:
            if key in readers:
                read_field(params, key, readers[key], where)
        if grid in readers and grid != "delta":
            for value in self.grid_values:
                read_field({"values": value}, "values", readers[grid], where)


def _sweep_point(sweep: SweepSpec, value, inst: Instance) -> RatioRecord:
    if sweep.mode == "nd":  # over an m or n grid, the only grids nd sweeps
        return pond_ratio(inst, ModeSpec.nd(), sweep.methods)
    # the pay ratio is the grid's, or else that of a beta or delta parameter
    ratio = {sweep.grid_param: value} if sweep.grid_param in ("beta", "delta") else sweep.params
    if "beta" in ratio:
        return pond_ratio(inst, ModeSpec.beta_nd(float(ratio["beta"])), sweep.methods)
    delta = float(ratio["delta"])
    return pond_ratio(inst, ModeSpec.beta_nd(inst.n**delta), sweep.methods, delta=delta)


def run_sweep(sweep: SweepSpec, out_path=None) -> list[RatioRecord]:
    """Evaluate every grid point; failures become error records, not aborts.

    Points run one after another in grid order.  A grid that sets no
    family parameter has one instance, built before the first point, and
    its solves share its value table, or the sets kept on its rows
    (rewards.table_rows); an error from that build propagates.  Else each
    point builds its own instance once the previous one is dropped, and
    an error record carries the built instance's n, or 0 when the
    instance itself failed to build.  When out_path is given the records
    are also written as CSV.
    """
    readers, grid = FAMILIES[sweep.family][1], sweep.grid_param
    params = {key: value for key, value in sweep.params.items() if key in readers}
    shared = None if grid in readers and grid != "delta" else build_instance(sweep.family, params)
    records = []
    for value in sweep.grid_values:
        inst = shared
        try:
            if inst is None:
                inst = build_instance(sweep.family, {**params, grid: value})
            records.append(_sweep_point(sweep, value, inst))
        except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
            records.append(RatioRecord(
                instance_id=f"{sweep.family}[{grid}={value}]",
                n=0 if inst is None else inst.n,
                beta=None, delta=None, opt=None, opt_nd=None, ratio=None,
                method_opt=sweep.methods[0], method_nd=sweep.methods[1],
                error=f"{type(exc).__name__}: {exc}",
            ))

    if out_path is not None:
        write_csv(records, out_path)
    return records


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def records_to_csv(records: list[RatioRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([_fmt(getattr(r, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(records: list[RatioRecord], path) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(records_to_csv(records))


def read_csv(path) -> list[RatioRecord]:
    with open(path, newline="") as handle:
        return parse_csv(handle.read())


def parse_csv(text: str) -> list[RatioRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_COLUMNS:
        raise ParameterError("unrecognized CSV header")
    out = []
    for row in rows[1:]:
        vals = dict(zip(CSV_COLUMNS, row))
        out.append(
            RatioRecord(
                instance_id=vals["instance_id"],
                n=int(vals["n"]),
                beta=float(vals["beta"]) if vals["beta"] else None,
                delta=float(vals["delta"]) if vals["delta"] else None,
                opt=float(vals["opt"]) if vals["opt"] else None,
                opt_nd=float(vals["opt_nd"]) if vals["opt_nd"] else None,
                ratio=float(vals["ratio"]) if vals["ratio"] else None,
                method_opt=vals["method_opt"],
                method_nd=vals["method_nd"],
                degenerate=vals["degenerate"] == "true",
                error=vals["error"] or None,
            )
        )
    return out


# ---------------------------------------------------------------------------
# bound verification suites

@dataclass
class VerifyReport:
    """Outcome of one verification suite."""

    suite: str
    trials: int
    checks: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"suite {self.suite}: {self.checks} checks, {state}"


def random_two_agent_instance(rng: np.random.Generator) -> Instance:
    """Random monotone submodular two-agent instance with feasible singletons."""
    f1 = rng.uniform(0.05, 0.9)
    f2 = rng.uniform(0.05, 0.9)
    f12 = rng.uniform(max(f1, f2), min(1.0, f1 + f2))
    costs = np.array([rng.uniform(0.05, 0.95) * f1, rng.uniform(0.05, 0.95) * f2])
    return Instance(
        n=2,
        costs=costs,
        reward=ExplicitTable(2, [0.0, f1, f2, f12]),
        metadata={"family": "random-two-agent"},
    )


def _witness(inst: Instance) -> str:
    from .serialize import instance_to_dict

    return json.dumps(instance_to_dict(inst))


def _random_pool(trials: int, seed: int):
    rng = np.random.default_rng(seed)
    kinds = ("additive", "coverage", "capped_additive")
    for k in range(trials):
        n = int(rng.integers(4, 13))
        child = int(rng.integers(0, 2**31))
        yield gen_random(kinds[k % 3], n, seed=child)


def verify_bounds(suite: str, trials: int = 200, seed: int = 0) -> VerifyReport:
    """Run one of the guarantee-verification suites.

    lemma2: on random instances, the best uniform-pay group of the
        doubling partition reaches base utility / ceil(log2 n).
    lemma6: the threshold partition at delta in {0.5, 1.0} reaches
        (base utility - n^-delta) / (ceil(1/delta) + 1).
    remark1: on the geometric family with beta = n^1.5 the constrained
        optimum approaches the unconstrained one (ratio <= 1.05 at n=255).
    theorem3: random two-agent ratios never exceed 1 + 1/sqrt(beta+1).
    """
    report = VerifyReport(suite=suite, trials=trials)
    slack = 1e-9

    if suite == "lemma2":
        for inst in _random_pool(trials, seed):
            base = brute_force(inst, ModeSpec.unconstrained()).best
            part = log_partition(inst, base.members)
            got = part.best().utility
            bound = base.utility / part.guarantee_denominator - slack
            report.checks += 1
            if got < bound:
                report.failures.append(
                    f"best group {got} < bound {bound}: {_witness(inst)}"
                )
    elif suite == "lemma6":
        for inst in _random_pool(trials, seed):
            base = brute_force(inst, ModeSpec.unconstrained()).best
            for delta in (0.5, 1.0):
                part = delta_partition(inst, base.members, delta)
                got = part.best().utility
                bound = (base.utility - inst.n**-delta) / part.guarantee_denominator - slack
                report.checks += 1
                if got < bound:
                    report.failures.append(
                        f"delta={delta}: best group {got} < bound {bound}: {_witness(inst)}"
                    )
    elif suite == "remark1":
        delta = 1.5
        series = {}
        for m in range(4, 9):
            inst = gen_geometric_family(m, T=3)
            spec = ModeSpec.beta_nd(inst.n**delta)
            rec = pond_ratio(inst, spec, ("geometric", "geometric"), delta=delta)
            series[inst.n] = rec.ratio
            report.checks += 1
            if inst.n >= 255 and (rec.ratio is None or rec.ratio > 1.05):
                report.failures.append(f"n={inst.n}: ratio {rec.ratio} above 1.05")
        report.details["ratio_by_n"] = series
    elif suite == "theorem3":
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            inst = random_two_agent_instance(rng)
            for beta in (1.0, 2.0, 4.0):
                rep = two_agent_solve(inst, beta)
                report.checks += 1
                if rep.best.utility <= DEGENERATE_TOL:
                    report.failures.append(f"degenerate constrained optimum: {_witness(inst)}")
                    continue
                ratio = rep.opt_reference / rep.best.utility
                if ratio > two_agent_bound(beta) + slack:
                    report.failures.append(
                        f"beta={beta}: ratio {ratio} above bound: {_witness(inst)}"
                    )
    else:
        raise ParameterError(
            f"unknown suite {suite!r}; expected lemma2, lemma6, remark1, or theorem3"
        )
    return report
