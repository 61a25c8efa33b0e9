"""fairpay benchmark: three closed-loop workloads, one client each, in one process.

    python3 bench/run.py --workload dense-exact --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the six
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
the traced run instead, and the spans go to
``.bench_out/<workload>/spans.jsonl``.  ``setup_s`` is the median of
several set-ups, each a fresh interpreter's import of fairpay plus
``set_up``.
``--record`` rewrites the default-seed reference file of a workload from
the code as it stands.  See ``bench/DESIGN.md`` for what each figure means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE_DIR = os.path.join(ROOT, "bench", "reference")
DEFAULT_SEED = 1
SETUP_ROUNDS = 15
MIN_OPS = 100  # op_p90_ms needs at least 10 samples beyond it
UTILITY_TOL = 1e-9

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "success_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import fairpay; print(time.perf_counter() - t)"
)


class Stats:
    """Latencies and verdicts of one pass over whole cycles."""

    def __init__(self):
        self.wall = 0.0
        self.latencies = []
        self.status = Counter()
        self.exit_codes = Counter()
        self.results = []
        self.failures = []

    @property
    def attempted(self):
        return len(self.latencies)


def same(ref, got):
    """Exact on everything but floats, which agree within UTILITY_TOL."""
    if isinstance(ref, float) or isinstance(got, float):
        return (
            isinstance(ref, (int, float))
            and isinstance(got, (int, float))
            and abs(ref - got) <= UTILITY_TOL
        )
    if isinstance(ref, list) and isinstance(got, list):
        return len(ref) == len(got) and all(same(a, b) for a, b in zip(ref, got))
    if isinstance(ref, dict) and isinstance(got, dict):
        return ref.keys() == got.keys() and all(same(ref[k], got[k]) for k in ref)
    return ref == got


def judge(op, out, err, reference, corrupt):
    """('ok' | 'defect' | 'failed', outcome or message) for one op."""
    ref = reference.get(op.index)
    if err is not None:
        if op.is_known_defect(err):
            if ref is not None and "defect" not in ref:
                return "failed", f"known defect where the reference succeeded: {err}"
            return "defect", {"defect": str(err)}
        return "failed", f"{type(err).__name__}: {err}"
    if corrupt is not None:
        out = corrupt(op, out)
    try:
        outcome = op.check(out)
    except Exception as exc:  # noqa: BLE001 - any check error is a failed op
        return "failed", f"{type(exc).__name__}: {exc}"
    if ref is not None and "defect" not in ref and not same(ref, outcome):
        return "failed", f"differs from reference: {outcome} != {ref}"
    return "ok", outcome


def run_cycle(wl, cycle, stats, *, reference, corrupt=None, tracer=None, keep=False,
              cap=math.inf):
    """Run one cycle's ops back to back in the timed region, then check them.

    Checks run outside the timed region, with the tracer paused.  The cycle
    is cut short only once ``stats.wall`` passes `cap`.  Results are kept in
    ``stats.results`` only with `keep`, so that a timed run's memory does
    not grow with the number of ops it completes.
    """
    ops = wl.prepare(cycle)
    batch = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # noqa: BLE001 - a raising op is counted, not fatal
            # drop the traceback: it holds this frame, and with it the whole
            # batch, in a cycle that only the garbage collector would free
            out, err = None, exc.with_traceback(None)
        batch.append((op, out, err, time.perf_counter() - t0))
        if stats.wall + time.perf_counter() - start > cap:
            break
    stats.wall += time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    for op, out, err, latency in batch:
        status, outcome = judge(op, out, err, reference, corrupt)
        stats.latencies.append(latency if status == "ok" else math.inf)
        stats.status[status] += 1
        if keep:
            stats.results.append((op, out, status, outcome))
        if status == "failed":
            stats.failures.append(f"op {op.index} ({op.label}): {outcome}")
        elif isinstance(outcome, dict) and "exit" in outcome:
            stats.exit_codes[outcome["exit"]] += 1
    if tracer is not None:
        tracer.active = True


def run_cycles(wl, *, seconds=None, cycles=None, reference=None, corrupt=None, keep=False):
    """Run whole cycles until `seconds` of timed ops and MIN_OPS ops, or `cycles`.

    Stopping only at cycle ends keeps every run's op mix exact.  A timed
    pass stops mid-cycle only past four times its time budget, so a
    pathologically slow commit still ends.
    """
    stats = Stats()
    cap = 4 * seconds if seconds else math.inf
    cycle = 0
    while True:
        run_cycle(wl, cycle, stats, reference=reference or {}, corrupt=corrupt, keep=keep,
                  cap=cap)
        cycle += 1
        if cycles is not None:
            if cycle >= cycles:
                return stats
        elif (stats.wall >= seconds and stats.attempted >= MIN_OPS) or stats.wall > cap:
            return stats


def percentile_ms(latencies, q):
    """Nearest-rank percentile; ops that did not succeed sort above every latency."""
    ordered = sorted(latencies)
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return value * 1000.0 if math.isfinite(value) else None


def import_seconds():
    """Import time of fairpay in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip())


def set_up(wl):
    """One cycle's instances and files, then one untimed warm-up op."""
    start = time.perf_counter()
    ops = wl.prepare(0)
    ops[0].run()
    return time.perf_counter() - start


def environment(args, wl):
    def read(path):
        try:
            with open(path) as handle:
                return handle.read().strip()
        except OSError:
            return "unknown"

    model = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = "/sys/devices/system/cpu/cpu0/cache"
    commit = "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    import numpy

    import fairpay

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_cache_per_core": read(f"{caches}/index2/size"),
        "l3_cache": read(f"{caches}/index3/size"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "fairpay": fairpay.__version__,
        "git_commit": commit,
        "workers": wl.workers,
        "computed": {"rewards.value_table.mb": "8 * 2^n bytes per value_table call, not measured"},
    }


def load_reference(name, seed):
    """Op index -> outcome at the default seed; one ``[index, outcome]`` per line."""
    path = os.path.join(REFERENCE_DIR, f"{name}.jsonl")
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return {}
    with open(path) as handle:
        return dict(json.loads(line) for line in handle)


def end_to_end(stats, setup_times):
    ok = stats.status["ok"]
    values = {
        "ops_per_s": ok / stats.wall,
        "op_p50_ms": percentile_ms(stats.latencies, 0.5),
        "op_p90_ms": percentile_ms(stats.latencies, 0.9),
        "success_rate": ok / stats.attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}


def traced_run(wl, reference, outdir, env):
    """Each cycle run untraced and traced, then per-layer metrics from the traced runs.

    Which of the two runs first alternates by cycle, so that drift in the
    host's speed cancels out of ``trace.overhead_frac``.
    """
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        set_up(wl)
    finally:
        tracer.uninstall()
    plain, traced = Stats(), Stats()
    for cycle in range(wl.trace_cycles):
        for with_trace in (False, True) if cycle % 2 == 0 else (True, False):
            if not with_trace:
                run_cycle(wl, cycle, plain, reference=reference)
                continue
            tracer.install()
            try:
                run_cycle(wl, cycle, traced, reference=reference, tracer=tracer, keep=True)
            finally:
                tracer.uninstall()
    speedup, mismatches = wl.worker_repeat(traced)
    metrics = tracer.metrics(traced.exit_codes, speedup, traced.wall / plain.wall - 1.0)
    tracer.write(os.path.join(outdir, "spans.jsonl"), env)
    failures = plain.failures + traced.failures + mismatches
    return plain.attempted + traced.attempted, failures, metrics


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the default-seed reference file and exit")
    args = parser.parse_args(argv)

    outdir = os.path.join(OUT, args.workload)
    os.makedirs(outdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, outdir)
    wl.open()
    try:
        if args.record:
            return record(wl, args)
        env = environment(args, wl)
        print("env " + json.dumps(env))
        reference = load_reference(args.workload, args.seed)
        if args.trace:
            attempted, failures, metrics = traced_run(wl, reference, outdir, env)
        else:
            setup_times = [import_seconds() + set_up(wl) for _ in range(SETUP_ROUNDS)]
            stats = run_cycles(wl, seconds=args.seconds, reference=reference)
            attempted, failures = stats.attempted, stats.failures
            metrics = end_to_end(stats, setup_times)
    finally:
        wl.close()
    for line in failures[:10]:
        print("FAILED " + line, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def record(wl, args):
    if args.seed != DEFAULT_SEED:
        raise SystemExit(f"references are recorded at the default seed {DEFAULT_SEED}")
    stats = run_cycles(wl, cycles=wl.reference_cycles, keep=True)
    if stats.failures:
        raise SystemExit("refusing to record a reference with failed ops:\n" + "\n".join(stats.failures))
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    path = os.path.join(REFERENCE_DIR, f"{wl.name}.jsonl")
    with open(path, "w") as handle:
        for op, _, _, outcome in stats.results:
            handle.write(json.dumps([op.index, outcome]) + "\n")
    print(f"recorded {len(stats.results)} ops to {path}")
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "fairpay", "__init__.py")):
        print(f"fairpay sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
