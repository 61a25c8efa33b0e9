"""The benchmark's tracer binds every name it wraps, and one cycle of each
workload matches its recorded reference."""

import importlib
from pathlib import Path

import pytest

from fairpay import solvers

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_tracer_installs_and_uninstalls(bench):
    # the tracer replaces functions by the name each module holds them
    # under, so a name moved out of a module fails here with a KeyError
    tracing = bench("tracing")
    original = solvers.brute_force
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert solvers.brute_force is not original
    finally:
        tracer.uninstall()
    assert solvers.brute_force is original


@pytest.mark.parametrize("name", ["dense-exact", "large-n", "paper-small"])
def test_one_cycle_matches_the_reference(bench, name, tmp_path):
    """Cycle 0 at the default seed, checked as a benchmark run checks it:
    no op fails or differs from the reference, and only large-n's known
    infeasible-base defect may keep an op from succeeding."""
    run = bench("run")
    wl = bench("workloads").WORKLOADS[name](run.DEFAULT_SEED, str(tmp_path))
    wl.open()
    try:
        stats = run.run_cycles(wl, cycles=1,
                               reference=run.load_reference(name, run.DEFAULT_SEED))
    finally:
        wl.close()
    assert stats.failures == []
    assert stats.status["ok"] > 0
    assert set(stats.status) <= ({"ok", "defect"} if name == "large-n" else {"ok"})
