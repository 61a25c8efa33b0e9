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

import numpy as np

from .contracts import Instance, ModeSpec
from .contracts import optimal_contract_for_set  # noqa: F401 - bench/tracing.py wraps this name
from .errors import ParameterError
from .families import gen_geometric_family, gen_random, gen_two_agent_tight, gen_two_class
from .rewards import ExplicitTable
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
        if spec.mode != "nd":
            raise ParameterError("log_partition solves the nd mode only")
        part = log_partition(inst, _default_base(inst))
        return SolveReport(spec, part.best(), "log_partition", len(part.groups), None)
    if method == "delta_partition":
        if spec.mode != "beta_nd":
            raise ParameterError("delta_partition solves the beta_nd mode only")
        if inst.n < 2:
            raise ParameterError("delta_partition needs n >= 2 to set delta = log(beta) / log(n)")
        delta = math.log(spec.beta) / math.log(inst.n)
        part = delta_partition(inst, _default_base(inst), delta)
        return SolveReport(spec, part.best(), "delta_partition", len(part.groups), None)
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

@dataclass(frozen=True)
class SweepSpec:
    """A family, a one-dimensional parameter grid, and the methods to run."""

    family: str
    params: dict
    grid_param: str
    grid_values: list
    methods: tuple[str, str] = ("brute", "brute")
    mode: str = "nd"
    seed: int | None = None

    def __post_init__(self):
        if self.grid_param not in ("beta", "delta", "m", "n"):
            raise ParameterError(f"grid must be one of beta/delta/m/n, got {self.grid_param!r}")
        if not self.grid_values:
            raise ParameterError("sweep grid is empty")
        if self.mode not in ("nd", "beta_nd"):
            raise ParameterError(f"sweep mode must be nd or beta_nd, got {self.mode!r}")
        if (
            self.family.startswith("random-")
            and self.seed is None
            and "seed" not in self.params
        ):
            raise ParameterError("sweeps over random families require an explicit seed")


FAMILIES = (
    "geometric",
    "lemma8",
    "lemma9",
    "tight2",
    "random-additive",
    "random-coverage",
    "random-capped",
)


def build_instance(family: str, params: dict, seed: int | None = None) -> Instance:
    """Construct a family instance from a flat parameter mapping."""
    try:
        if family == "geometric":
            return gen_geometric_family(int(params["m"]), float(params["T"]))
        if family in ("lemma8", "lemma9"):
            return gen_two_class(
                family,
                int(params["n"]),
                epsilon=float(params.get("epsilon", 1e-6)),
                M=float(params["M"]) if "M" in params else None,
                delta=float(params["delta"]) if "delta" in params else None,
            )
        if family == "tight2":
            return gen_two_agent_tight(
                float(params["beta"]), float(params.get("epsilon", 1e-6))
            )
        if family in ("random-additive", "random-coverage", "random-capped"):
            kind = {
                "random-additive": "additive",
                "random-coverage": "coverage",
                "random-capped": "capped_additive",
            }[family]
            if seed is None and "seed" not in params:
                raise ParameterError("random families require an explicit seed")
            return gen_random(
                kind,
                int(params["n"]),
                int(params.get("seed", seed)),
                float(params.get("cost_margin", 0.5)),
            )
    except KeyError as missing:
        raise ParameterError(f"family {family!r} needs parameter {missing}") from None
    raise ParameterError(f"unknown family {family!r}")


def _sweep_params(sweep: SweepSpec, value) -> dict:
    """The family parameters of one grid point: a beta or delta grid
    leaves them as they are, except tight2's beta."""
    params = dict(sweep.params)
    if sweep.grid_param in ("m", "n"):
        params[sweep.grid_param] = int(value)
    elif sweep.grid_param == "beta" and sweep.family == "tight2":
        params["beta"] = float(value)
    return params


def _sweep_point(sweep: SweepSpec, value, inst: Instance) -> RatioRecord:
    params = sweep.params
    delta_used = None
    if sweep.grid_param == "beta":
        spec = ModeSpec.beta_nd(float(value))
    elif sweep.grid_param == "delta":
        delta_used = float(value)
        spec = ModeSpec.beta_nd(inst.n**delta_used)
    elif sweep.mode == "nd":
        spec = ModeSpec.nd()
    elif "beta" in params:
        spec = ModeSpec.beta_nd(float(params["beta"]))
    elif "delta" in params:
        delta_used = float(params["delta"])
        spec = ModeSpec.beta_nd(inst.n**delta_used)
    else:
        raise ParameterError("beta_nd sweeps need a beta or delta parameter")

    return pond_ratio(inst, spec, sweep.methods, delta=delta_used)


def run_sweep(sweep: SweepSpec, out_path=None) -> list[RatioRecord]:
    """Evaluate every grid point; failures become error records, not aborts.

    Points run one after another in grid order.  A point whose family
    parameters equal the previous point's reuses its instance, so a beta
    or delta grid builds one instance, and its solves share its value
    table, or its rows (rewards.table_rows).  An error record carries
    the built instance's n, or 0 when the instance itself failed to
    build.  When out_path is given the records are also written as CSV.
    """
    records = []
    built = None  # (params, instance) of the last successful build
    for value in sweep.grid_values:
        n = 0
        try:
            params = _sweep_params(sweep, value)
            if built is None or built[0] != params:
                built = None  # free the previous instance first
                built = params, build_instance(sweep.family, params, sweep.seed)
            inst = built[1]
            n = inst.n
            records.append(_sweep_point(sweep, value, inst))
        except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
            records.append(RatioRecord(
                instance_id=f"{sweep.family}[{sweep.grid_param}={value}]", n=n,
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
