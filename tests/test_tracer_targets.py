"""The benchmark tracer finds every library function it wraps.

``benchmarks/tracer.py`` patches functions by module and name; a rename or
a move in the library makes it raise ``TraceTargetMissing``.  Loading it
here puts that check in the default test run.
"""

import importlib.util
from pathlib import Path

import asymx.harness as harness

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = harness.mnomp_transfer
    with tracer.Tracer().installed():
        assert harness.mnomp_transfer is not original
    assert harness.mnomp_transfer is original
