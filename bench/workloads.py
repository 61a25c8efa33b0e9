"""The benchmark's three closed-loop workloads.

Each workload is a fixed cycle of op shapes (solver, size, mode); the seed
only draws the instances' weights, costs and parameters, so every seed
runs the same mix and timing figures are comparable across seeds.  Op k of
a run always gets the same instance for a given seed, and no instance is
reused across cycles.  ``prepare(cycle)`` builds one cycle's ops outside
the timed region; each op's ``run`` is the timed call and ``check`` turns
its result into an outcome dict after verifying the invariants, raising
``CheckFailed`` otherwise.

Library functions are looked up as module attributes at call time
(``ex.pond_ratio``, ``cli.main``) so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from fairpay import cli, contracts, errors, rewards, serialize, solvers
from fairpay import experiments as ex

TOL = 1e-9


class CheckFailed(Exception):
    """An op's result broke one of its invariants."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    index: int
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]
    # True for partition ops on coverage/capped rewards above the brute-force
    # limit, which may hit the known infeasible-base defect (ROADMAP item 5)
    defect_class: bool = False
    # (instance, spec) of a dense op, for the traced run's workers=1 repeat
    brute_args: tuple | None = None

    def is_known_defect(self, err):
        return (
            self.defect_class
            and isinstance(err, errors.ParameterError)
            and "base set is not feasible" in str(err)
        )


def child_rng(seed, index):
    return np.random.default_rng([seed, index])


def child_seed(seed, index):
    return int(child_rng(seed, index).integers(2**31))


def set_key(mask):
    """Winning set as sorted indices, or as size plus digest when it is large."""
    size = mask.bit_count()
    if size <= 64:
        return rewards.mask_to_indices(mask)
    digest = hashlib.sha1(mask.to_bytes((mask.bit_length() + 7) // 8, "little")).hexdigest()
    return f"{size}:{digest}"


class Capture:
    """Keeps the last constrained SolveReport that ``pond_ratio`` got from ``solve_with``.

    ``pond_ratio`` returns only ratios; the checker also needs the winning
    set and contract.  Reports of unconstrained solves are skipped, so the
    capture holds the constrained winner even if ``pond_ratio`` computes
    ``opt`` by a second call.  The hook costs one Python call per op.
    """

    def __init__(self):
        self.last = None
        self._original = None

    def install(self):
        original = self._original = ex.solve_with

        def solve_with(*args, **kwargs):
            rep = original(*args, **kwargs)
            if rep.spec.mode != "unconstrained":
                self.last = rep
            return rep

        ex.solve_with = solve_with

    def uninstall(self):
        if self._original is not None:
            ex.solve_with = self._original
            self._original = None


def check_ratio(inst, spec, rec, rep, equilibrium=True):
    """Invariants of a pond_ratio record and the report it came from."""
    best = rep.best
    require(best.feasible, "winning set is infeasible")
    require(rec.opt_nd == best.utility, "opt_nd differs from the winning utility")
    if rep.opt_reference is not None:
        require(rec.opt == rep.opt_reference, "opt differs from the solver's reference")
    require(rec.opt_nd >= 0.0, f"opt_nd {rec.opt_nd} is negative")
    require(rec.opt >= rec.opt_nd - TOL, f"opt {rec.opt} below opt_nd {rec.opt_nd}")
    if rec.degenerate:
        require(rec.ratio is None, "degenerate record carries a ratio")
    else:
        require(math.isclose(rec.ratio, rec.opt / rec.opt_nd, rel_tol=1e-12), "ratio != opt/opt_nd")
    again = contracts.optimal_contract_for_set(inst, best.members, spec)
    require(abs(again.utility - best.utility) <= TOL, "winning set re-prices differently")
    if equilibrium:
        require(
            contracts.is_equilibrium(inst, best.payments, best.members),
            "returned contract is not an equilibrium",
        )
    return {
        "set": set_key(best.members),
        "opt": rec.opt,
        "opt_nd": rec.opt_nd,
        "ratio": rec.ratio,
    }


class Workload:
    name = ""
    # cycles of the traced run, each run once untraced and once traced
    # (fixed, so per-layer totals compare across commits)
    trace_cycles = 1
    # cycles stored in the default-seed reference file
    reference_cycles = 1

    # thread counts the ops use, for the environment block
    workers: dict = {}

    def __init__(self, seed, outdir):
        self.seed = seed
        self.outdir = outdir
        self.capture = Capture()

    def open(self):
        self.capture.install()

    def close(self):
        self.capture.uninstall()

    def prepare(self, cycle) -> list[Op]:
        raise NotImplementedError

    def worker_repeat(self, stats):
        """(speed-up from workers=2, mismatch messages); only dense-exact repeats."""
        return 0.0, []


# ---------------------------------------------------------------------------
# dense-exact

class DenseExact(Workload):
    """pond_ratio over brute_force (workers=1) on coverage/additive, n = 16..20."""

    name = "dense-exact"
    trace_cycles = 2
    reference_cycles = 8
    KINDS = ("coverage", "additive")
    # instances per cycle for each n, per kind in KINDS order; each is solved
    # in nd and then beta_nd(2).  The counts put the median in the middle of
    # the additive n=17 beta_nd ops and the 90th percentile in the middle of
    # the additive n=19 beta_nd ops, away from the latency gaps between
    # shapes (bench/DESIGN.md has the sorted cycle).
    SIZES = {16: (1, 1), 17: (11, 11), 18: (1, 1), 19: (1, 3), 20: (1, 1)}
    # The timed ops run single-threaded: on a shared 2-vCPU host the two
    # kernel threads of workers=2 made the median op drift twice as much
    # from run to run.  The traced run still times workers=2 (speedup_w2).
    WORKERS = 1
    workers = {"brute_force": WORKERS, "worker_repeat": [1, 2]}

    def prepare(self, cycle):
        plan = []
        for rep in range(max(max(counts) for counts in self.SIZES.values())):
            for n, counts in self.SIZES.items():
                plan.extend((kind, n) for kind, count in zip(self.KINDS, counts) if rep < count)
        per_cycle = 2 * len(plan)
        ops = []
        for k, (kind, n) in enumerate(plan):
            base = cycle * per_cycle + 2 * k
            inst = ex.gen_random(kind, n, child_seed(self.seed, base))
            for j, spec in enumerate((contracts.ModeSpec.nd(), contracts.ModeSpec.beta_nd(2.0))):
                ops.append(self._op(base + j, inst, spec))
        return ops

    def _op(self, index, inst, spec):
        def run():
            rec = ex.pond_ratio(inst, spec, ("brute", "brute"), workers=self.WORKERS)
            return rec, self.capture.last

        def check(out):
            rec, rep = out
            return check_ratio(inst, spec, rec, rep)

        label = f"brute {inst.reward.kind} n={inst.n} {spec.mode}"
        return Op(index, label, run, check, brute_args=(inst, spec))

    def worker_repeat(self, stats):
        """Re-solve each checked op's brute_force at workers=1 and workers=2, untraced.

        Both must reproduce the op's winner, utilities and payments bit for
        bit (results may not depend on the worker count); the speed-up is
        total time at workers=1 over total time at workers=2 on the same
        calls, alternating which runs first.
        """
        elapsed = {1: 0.0, 2: 0.0}
        mismatches = []
        for k, (op, out, status, _) in enumerate(stats.results):
            if status != "ok":
                continue
            inst, spec = op.brute_args
            want = out[1]
            for w in (1, 2) if k % 2 else (2, 1):
                start = time.perf_counter()
                got = solvers.brute_force(inst, spec, workers=w)
                elapsed[w] += time.perf_counter() - start
                if not (
                    got.best.members == want.best.members
                    and got.best.utility == want.best.utility
                    and got.opt_reference == want.opt_reference
                    and np.array_equal(got.best.payments.payments, want.best.payments.payments)
                ):
                    mismatches.append(f"op {op.index} ({op.label}): workers={w} result differs")
        return (elapsed[1] / elapsed[2] if elapsed[2] else 0.0), mismatches


# ---------------------------------------------------------------------------
# large-n

class LargeN(Workload):
    """Structured exact scans and partition schemes far above the brute-force limit."""

    name = "large-n"
    trace_cycles = 8
    reference_cycles = 24
    SYMMETRIC_N = (2000, 4000, 8000, 16000)
    GEOMETRIC_M = (9, 10, 11, 12, 13)
    PARTITION_N = (24, 32, 40, 48, 56, 64)
    # equilibrium checks on the structured ops run on every EQ_EVERY-th cycle
    EQ_EVERY = 3
    workers = {"pond_ratio": 1, "solve_with": 1}

    def prepare(self, cycle):
        ops = []
        eq = cycle % self.EQ_EVERY == 0

        def index():
            return cycle * 1000 + len(ops)

        for n in self.SYMMETRIC_N:
            rng = child_rng(self.seed, index())
            inst = ex.gen_two_class("lemma9", n, epsilon=10 ** -rng.uniform(5, 7))
            ops.append(self._pond(index(), inst, contracts.ModeSpec.nd(), "symmetric", eq))
            ops.append(self._pond(index(), inst, contracts.ModeSpec.beta_nd(rng.uniform(1.5, 4)),
                                  "symmetric", eq))
            eps = rng.uniform(0.01, 0.05)
            M = 3 + 1 / eps + rng.uniform(1, 10)
            delta = rng.uniform(0.1, 0.9) * (1 - math.log(M) / math.log(n))
            inst = ex.gen_two_class("lemma8", n, epsilon=eps, M=M, delta=delta)
            ops.append(self._pond(index(), inst, contracts.ModeSpec.beta_nd(n**delta),
                                  "symmetric", eq))
        for m in self.GEOMETRIC_M:
            rng = child_rng(self.seed, index())
            inst = ex.gen_geometric_family(m, T=rng.uniform(2, 10))
            ops.append(self._pond(index(), inst, contracts.ModeSpec.nd(), "geometric", eq))
            beta = inst.n ** rng.uniform(0.25, 1.0)
            ops.append(self._pond(index(), inst, contracts.ModeSpec.beta_nd(beta), "geometric", eq))
        for n in self.PARTITION_N:
            inst = ex.gen_random("additive", n, child_seed(self.seed, index()))
            ops.append(self._partition(index(), inst, "log_partition", None))
            ops.append(self._partition(index(), inst, "delta_partition",
                                       child_rng(self.seed, index()).uniform(0.3, 0.9)))
        # the defect class: under a tenth of the cycle (ROADMAP item 5)
        n = self.PARTITION_N[cycle % len(self.PARTITION_N)]
        inst = ex.gen_random("coverage", n, child_seed(self.seed, index()))
        ops.append(self._partition(index(), inst, "log_partition", None))
        inst = ex.gen_random("capped_additive", n, child_seed(self.seed, index()))
        ops.append(self._partition(index(), inst, "delta_partition",
                                   child_rng(self.seed, index()).uniform(0.3, 0.9)))
        return ops

    def _pond(self, index, inst, spec, method, equilibrium):
        def run():
            rec = ex.pond_ratio(inst, spec, (method, method))
            return rec, self.capture.last

        def check(out):
            rec, rep = out
            outcome = check_ratio(inst, spec, rec, rep, equilibrium)
            if method == "geometric":
                T = inst.metadata["T"]
                require(abs(rec.opt - (1 - 1 / T)) <= TOL, f"opt {rec.opt} != 1 - 1/T")
            return outcome

        return Op(index, f"{method} {inst.label.split('(')[0]} n={inst.n} {spec.mode}", run, check)

    def _partition(self, index, inst, method, delta):
        if method == "log_partition":
            spec = contracts.ModeSpec.nd()
        else:
            spec = contracts.ModeSpec.beta_nd(inst.n**delta)

        def run():
            return ex.solve_with(inst, spec, method)

        def check(rep):
            best = rep.best
            require(best.feasible, "partition winner is infeasible")
            require(best.utility >= 0.0, f"utility {best.utility} is negative")
            again = contracts.optimal_contract_for_set(inst, best.members, spec)
            require(abs(again.utility - best.utility) <= TOL, "winning group re-prices differently")
            require(
                contracts.is_equilibrium(inst, best.payments, best.members),
                "returned contract is not an equilibrium",
            )
            return {"set": set_key(best.members), "utility": best.utility}

        kind = inst.reward.kind
        defect = kind in ("coverage", "capped_additive") and inst.n > solvers.BRUTE_FORCE_LIMIT
        return Op(index, f"{method} {kind} n={inst.n}", run, check, defect_class=defect)


# ---------------------------------------------------------------------------
# paper-small

@dataclass
class CliResult:
    code: int
    output: str = field(repr=False)


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejections exit like the shell would see
            code = exc.code
    return CliResult(code, buffer.getvalue())


def write_json(path, data):
    with open(path, "w") as handle:
        json.dump(data, handle)


class PaperSmall(Workload):
    """The paper's experiment loop at small n, through fairpay.cli.main in-process."""

    name = "paper-small"
    trace_cycles = 6
    reference_cycles = 28
    ROUNDS = 3
    CHAIN_N = (6, 8, 10, 12, 14)
    FAMILIES = ("random-additive", "random-coverage", "random-capped")
    EXPLICIT_N = (10, 11, 12)
    SWEEP_WORKERS = 2
    workers = {"run_sweep": SWEEP_WORKERS, "cli solve": 1}
    BETAS = (1, 1.5, 2, 3, 4, 6, 8, 16)
    SWEEP_N = (6, 8, 10, 12, 14)
    VERIFY = (("lemma2", 8), ("lemma6", 8), ("theorem3", 30), ("remark1", 1))

    def path(self, name):
        return os.path.join(self.outdir, name)

    def prepare(self, cycle):
        ops = []

        def index():
            return cycle * 1000 + len(ops)

        for r in range(self.ROUNDS):
            tag = f"r{r}"
            for n in self.CHAIN_N:
                for family in self.FAMILIES:
                    self._chain(ops, index, f"{tag}-{family}-{n}", family, n)
            # explicit-table file: loading it runs the exhaustive structure check
            n = self.EXPLICIT_N[r]
            src = ex.gen_random("coverage", n, child_seed(self.seed, index()))
            table = src.reward.value_table()
            explicit = self.path(f"{tag}-explicit-{n}.json")
            write_json(explicit, self._explicit_file(n, src.costs, table))
            ops.append(self._solve(index(), explicit, f"{explicit}.nd.json", "nd", None,
                                   f"solve explicit n={n}"))
            # a structure check that passes, and one on a supermodular table that fails
            ops.append(self._check_structure(index(), self.path(f"{tag}-random-coverage-10.json"),
                                             True, "check structure coverage n=10"))
            w = child_rng(self.seed, index()).uniform(0.1, 1.0, 9)
            w /= w.sum()
            sums = rewards.Additive(w).value_table()
            supermodular = self.path(f"{tag}-supermodular-9.json")
            write_json(supermodular, self._explicit_file(9, 0.01 * w, np.minimum(sums**2, 1.0)))
            ops.append(self._check_structure(index(), supermodular, False,
                                             "check structure supermodular n=9"))
            # sweeps: the two-agent beta grid and a random n grid
            eps = 10 ** -child_rng(self.seed, index()).uniform(4, 7)
            tight = self.path(f"{tag}-tight2.cfg")
            with open(tight, "w") as handle:
                handle.write(
                    "family = tight2\ngrid = beta\n"
                    f"values = {','.join(map(str, self.BETAS))}\nepsilon = {eps!r}\n"
                    "method_opt = two-agent\nmethod_nd = two-agent\n"
                )
            ops.append(self._sweep(index(), tight, len(self.BETAS), True, "sweep tight2 beta grid"))
            grid = self.path(f"{tag}-random.cfg")
            with open(grid, "w") as handle:
                handle.write(
                    "family = random-additive\ngrid = n\n"
                    f"values = {','.join(map(str, self.SWEEP_N))}\n"
                    f"seed = {child_seed(self.seed, index())}\n"
                    "method_opt = brute\nmethod_nd = log-partition\n"
                )
            ops.append(self._sweep(index(), grid, len(self.SWEEP_N), False,
                                   "sweep random-additive n grid"))
            for suite, trials in self.VERIFY:
                ops.append(self._verify(index(), suite, trials, child_seed(self.seed, index())))
        return ops

    @staticmethod
    def _explicit_file(n, costs, table):
        return {
            "version": serialize.FILE_VERSION,
            "n": n,
            "costs": [float(c) for c in costs],
            "reward": {"kind": "explicit", "n": n, "table": [float(v) for v in table]},
            "metadata": {},
        }

    def _chain(self, ops, index, stem, family, n):
        inst_path = self.path(f"{stem}.json")
        seed = child_seed(self.seed, index())
        argv = ["gen", family, "--n", str(n), "--seed", str(seed), "--out", inst_path]

        def check_gen(res):
            require(res.code == 0, f"gen exited {res.code}: {res.output}")
            inst = serialize.load_instance(inst_path)
            require(inst.n == n, f"generated n={inst.n}, expected {n}")
            return {"exit": res.code, "n": inst.n}

        ops.append(Op(index(), f"gen {family} n={n}", lambda: run_cli(argv), check_gen))
        ops.append(self._solve(index(), inst_path, f"{inst_path}.nd.json", "nd", None,
                               f"solve {family} n={n} nd"))
        beta = float(child_rng(self.seed, index()).uniform(1.25, 4.0))
        result = f"{inst_path}.beta.json"
        ops.append(self._solve(index(), inst_path, result, "beta-nd", beta,
                               f"solve {family} n={n} beta-nd"))
        argv_eq = ["check", "equilibrium", "--in", inst_path, "--result", result]

        def check_eq(res):
            require(res.code == 0 and res.output.startswith("pass"),
                    f"equilibrium check exited {res.code}: {res.output}")
            return {"exit": res.code}

        ops.append(Op(index(), f"check equilibrium n={n}", lambda: run_cli(argv_eq), check_eq))

    def _solve(self, index, inst_path, out_path, mode, beta, label):
        argv = ["solve", "--in", inst_path, "--out", out_path, "--mode", mode, "--workers", "1"]
        if beta is not None:
            argv += ["--beta", repr(beta)]

        def check(res):
            require(res.code == 0, f"solve exited {res.code}: {res.output}")
            data = serialize.load_result(out_path)
            require(data["set"], "solve returned the empty set with exit 0")
            require(data["utility"] > 0.0, f"utility {data['utility']} is not positive")
            require(data["opt_reference"] >= data["utility"] - TOL,
                    "unconstrained optimum below the constrained one")
            return {
                "exit": res.code,
                "set": data["set"],
                "utility": data["utility"],
                "opt_reference": data["opt_reference"],
            }

        return Op(index, label, lambda: run_cli(argv), check)

    def _check_structure(self, index, path, expect_pass, label):
        argv = ["check", "structure", "--in", path]

        def check(res):
            verdict = " ".join(res.output.split()[:3])
            if expect_pass:
                require(res.code == 0 and verdict.startswith("pass"), f"structure check: {res.output}")
            else:
                require(res.code == 1 and verdict == "fail: not submodular;",
                        f"supermodular table not rejected: {res.output}")
            return {"exit": res.code, "verdict": verdict}

        return Op(index, label, lambda: run_cli(argv), check)

    def _sweep(self, index, config, rows, two_agent, label):
        out = f"{config}.csv"
        argv = ["sweep", "--config", config, "--out", out, "--workers", str(self.SWEEP_WORKERS)]

        def check(res):
            require(res.code == 0, f"sweep exited {res.code}: {res.output}")
            with open(out, newline="") as handle:
                text = handle.read()
            header = text.splitlines()[0].split(",")
            records = ex.parse_csv(text)
            require(len(records) == rows, f"{len(records)} CSV rows, expected {rows}")
            for rec in records:
                require(rec.error is None, f"sweep point failed: {rec.error}")
                require(rec.ratio is not None and rec.ratio >= 1 - TOL, f"ratio {rec.ratio} below 1")
                if two_agent:
                    bound = solvers.two_agent_bound(rec.beta)
                    require(rec.ratio <= bound + TOL, f"ratio {rec.ratio} above {bound}")
            return {
                "exit": res.code,
                "rows": len(records),
                "header": header,
                "opt": [r.opt for r in records],
                "opt_nd": [r.opt_nd for r in records],
                "ratio": [r.ratio for r in records],
            }

        return Op(index, label, lambda: run_cli(argv), check)

    def _verify(self, index, suite, trials, seed):
        def check(report):
            require(report.passed, f"suite {suite} failed: {report.failures[:1]}")
            return {"passed": report.passed, "checks": report.checks}

        return Op(index, f"verify_bounds {suite}",
                  lambda: ex.verify_bounds(suite, trials=trials, seed=seed), check)


WORKLOADS = {w.name: w for w in (DenseExact, LargeN, PaperSmall)}
