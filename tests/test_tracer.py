"""The benchmark's span tracer patches library functions by name, so a
renamed boundary would break ``benchmarks/run.py --trace 1``.  Load the
tracer by file path and check that it replaces every boundary and puts the
originals back."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_replaces_every_boundary_and_restores_it():
    tracing = load_tracing()
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in tracing.BOUNDARIES]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.restore()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
