"""Command-line driver.

Commands: gen | solve | check | sweep | bound.  Exit codes are stable for
scripting: 0 success, 1 check/sweep failures, 2 usage or parameter
errors and files that cannot be read or written, 3 degenerate solutions
(only the empty set is worth incentivizing).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .contracts import COMPARE_TOL, ModeSpec, effort_gains, is_equilibrium
from .errors import FairpayError, ParameterError
from .experiments import FAMILIES, METHODS, build_instance, run_sweep, solve_with
from .rewards import check_structure, json_object, mask_to_indices, read_int, reward_from_descriptor
from .serialize import (
    _instance_from_dict,
    load_instance,
    load_result,
    load_sweep_config,
    result_contract,
    save_instance,
    save_report,
)
from .solvers import delta_bands, two_agent_bound

# the methods as solve --method spells them, with "-" for "_"
METHOD_FLAGS = sorted(method.replace("_", "-") for method in METHODS)


def _family_parameters() -> dict:
    """Every family's parameters and their readers, in table order."""
    return {key: read for _, readers, _ in FAMILIES.values() for key, read in readers.items()}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args reads
    it and never writes it, so every main call can share it."""
    parser = argparse.ArgumentParser(
        prog="fairpay",
        description="Optimal linear contracts under pay-equity constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("--out", required=True)
    for key, read in _family_parameters().items():
        gen.add_argument("--" + key.replace("_", "-"), dest=key,
                         type=int if read is read_int else float)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--out", required=True)
    solve.add_argument(
        "--mode", choices=("unconstrained", "nd", "beta-nd"), default="unconstrained"
    )
    group = solve.add_mutually_exclusive_group()
    group.add_argument("--beta", type=float)
    group.add_argument("--delta", type=float, help="shorthand for --beta n^delta")
    solve.add_argument("--method", choices=METHOD_FLAGS, default="brute")
    solve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: solvers run single threaded",
    )

    check = sub.add_parser("check", help="verify structure or an equilibrium")
    check.add_argument("what", choices=("structure", "equilibrium"))
    check.add_argument("--in", dest="infile", required=True)
    check.add_argument("--result", help="result file (equilibrium check)")
    check.add_argument("--sample", type=int, help="sampled checks for large n")
    check.add_argument("--seed", type=int)

    sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: grid points run one after another",
    )

    bound = sub.add_parser("bound", help="print guarantee numbers")
    bound.add_argument("--beta", type=float)
    bound.add_argument("--n", type=int)
    bound.add_argument("--delta", type=float)

    return parser


def cmd_gen(args) -> int:
    # every flag given, so that build_instance refuses one the family does not take
    params = {key: getattr(args, key) for key in _family_parameters()
              if getattr(args, key) is not None}
    inst = build_instance(args.family, params)
    save_instance(inst, args.out)
    shown = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    print(f"wrote {args.out}: family={args.family} n={inst.n} ({shown})")
    return 0


def _n_to_delta(n: int, delta: float) -> float:
    """n^delta, ParameterError when it overflows a float."""
    try:
        return n**delta
    except OverflowError:
        raise ParameterError(f"n^delta overflows at delta={delta:g}") from None


def cmd_solve(args) -> int:
    inst = load_instance(args.infile)
    beta = args.beta if args.delta is None else _n_to_delta(inst.n, args.delta)
    spec = ModeSpec(args.mode.replace("-", "_"), beta)

    start = time.perf_counter()
    report = solve_with(inst, spec, args.method.replace("-", "_"))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    save_report(report, args.out, timing_ms=elapsed_ms)
    members = report.best.member_list()
    print(
        f"method={report.method} mode={spec.mode}"
        + (f" beta={spec.beta:g}" if spec.beta is not None else "")
        + f" utility={report.best.utility:.12g} set={members}"
        + f" candidates={report.candidates_examined} time={elapsed_ms:.1f}ms"
    )
    if not members:
        print("degenerate: no nonempty set beats the empty contract", file=sys.stderr)
        return 3
    return 0


def cmd_check(args) -> int:
    if args.what == "structure":
        with open(args.infile) as handle:
            data = json_object(json.load(handle), "instance file")
        if "reward" not in data:
            raise ParameterError("instance file lacks the required key 'reward'")
        reward = reward_from_descriptor(data["reward"])
        if args.sample is not None and args.seed is None:
            raise ParameterError("--sample requires an explicit --seed")
        report = check_structure(reward, samples=args.sample, seed=args.seed)
        if report.monotone and report.submodular:
            _instance_from_dict(data, reward)  # a pass is a file that solve reads
            print(f"pass: monotone and submodular ({report.checks} checks)")
            return 0
        s, t, i = report.witness
        print(
            f"fail: not {report.violated}; witness S={mask_to_indices(s)} "
            f"T={mask_to_indices(t)} i={i} "
            f"(f(S)={reward.value(s):.12g}, f(T)={reward.value(t):.12g}, "
            f"f(T+i)={reward.value(t | (1 << i)):.12g}, f(S+i)={reward.value(s | (1 << i)):.12g})"
        )
        return 1

    if not args.result:
        raise ParameterError("equilibrium check needs --result")
    inst = load_instance(args.infile)
    data = load_result(args.result)
    contract, mask = result_contract(data, inst.n)
    ok = is_equilibrium(inst, contract, mask)
    if ok:
        print(f"pass: set {mask_to_indices(mask)} is an equilibrium")
        return 0
    for i, gain in enumerate(effort_gains(inst, contract, mask)):
        if (mask >> i) & 1 and gain < -COMPARE_TOL:
            print(f"fail: member {i} prefers shirking by {-gain:.6g}")
        elif not (mask >> i) & 1 and gain > COMPARE_TOL:
            print(f"fail: outsider {i} prefers joining by {gain:.6g}")
    return 1


def cmd_sweep(args) -> int:
    spec = load_sweep_config(args.config)
    records = run_sweep(spec, out_path=args.out)
    ratios = [r.ratio for r in records if r.ratio is not None]
    failures = sum(1 for r in records if r.error is not None)
    lo = f"{min(ratios):.6g}" if ratios else "-"
    hi = f"{max(ratios):.6g}" if ratios else "-"
    print(
        f"wrote {args.out}: {len(records)} points, {failures} failures, "
        f"ratio range [{lo}, {hi}]"
    )
    return 1 if failures else 0


def cmd_bound(args) -> int:
    if args.delta is not None and args.n is None:
        raise ParameterError("--delta needs --n")
    if args.beta is None and args.n is None:
        raise ParameterError("bound needs --beta and/or --n [--delta]")
    if args.n is not None and args.n < 1:
        raise ParameterError(f"n must be at least 1, got {args.n}")
    t = delta_bands(args.delta) if args.delta is not None else None
    beta = _n_to_delta(args.n, args.delta) if t is not None else None
    if args.beta is not None:
        print(f"two-agent ratio bound at beta={args.beta:g}: {two_agent_bound(args.beta):.12g}")
    if args.n is not None:
        print(f"uniform-pay partition denominator at n={args.n}: {args.n.bit_length()}")
        if t is not None:
            print(
                f"threshold partition denominator at delta={args.delta:g}: {t + 1} "
                f"(beta = n^delta = {beta:.6g})"
            )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "solve": cmd_solve,
        "check": cmd_check,
        "sweep": cmd_sweep,
        "bound": cmd_bound,
    }
    try:
        return handlers[args.command](args)
    except (FairpayError, OSError, UnicodeDecodeError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
