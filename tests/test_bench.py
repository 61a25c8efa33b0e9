"""The benchmark's tracer binds every name it wraps."""

import importlib
from pathlib import Path

from fairpay import solvers

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    # the tracer replaces functions by the name each module holds them
    # under, so a name moved out of a module fails here with a KeyError
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    original = solvers.brute_force
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert solvers.brute_force is not original
    finally:
        tracer.uninstall()
    assert solvers.brute_force is original
