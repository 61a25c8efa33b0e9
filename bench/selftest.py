"""Self-test of the benchmark's checker.

    python3 bench/selftest.py

For each workload, at the default seed (reference comparison) and at
another seed (invariants only), one clean cycle must have no failed op,
and one cycle whose every result is corrupted must count every op that
returned as failed, so the corruption lowers ``success_rate``.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
from workloads import WORKLOADS, CliResult  # noqa: E402

from fairpay.experiments import RatioRecord, VerifyReport  # noqa: E402
from fairpay.solvers import SolveReport  # noqa: E402


def corrupt(op, out):
    """A plausible wrong answer: off by 1e-6, a changed exit code, or a failed suite."""
    if isinstance(out, CliResult):
        return CliResult(out.code + 1, out.output)
    if isinstance(out, VerifyReport):
        return dataclasses.replace(out, failures=["corrupted"])
    if isinstance(out, SolveReport):
        best = dataclasses.replace(out.best, utility=out.best.utility + 1e-6)
        return dataclasses.replace(out, best=best)
    rec, rep = out
    if not isinstance(rec, RatioRecord):
        raise TypeError(f"unexpected result {out!r}")
    return dataclasses.replace(rec, opt_nd=rec.opt_nd + 1e-6), rep


def main():
    outdir = os.path.join(run.OUT, "selftest")
    os.makedirs(outdir, exist_ok=True)
    for name, cls in WORKLOADS.items():
        for seed in (run.DEFAULT_SEED, 7):
            wl = cls(seed, outdir)
            reference = run.load_reference(name, seed)
            assert (seed == run.DEFAULT_SEED) == bool(reference), "reference only at the default seed"
            wl.open()
            try:
                clean = run.run_cycles(wl, cycles=1, reference=reference)
                bad = run.run_cycles(wl, cycles=1, reference=reference, corrupt=corrupt)
            finally:
                wl.close()
            assert not clean.failures, clean.failures[:3]
            returned = bad.attempted - bad.status["defect"]
            assert bad.status["failed"] == returned > 0, (bad.status, bad.attempted)
            assert run.end_to_end(bad, [0.0])["success_rate"]["value"] == 0.0
            print(f"ok {name} seed={seed}: {clean.attempted} clean ops pass, "
                  f"{bad.status['failed']} corrupted ops fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
