"""The benchmark's view of the package: every name bench/ reads exists.

bench/ is run on each side of a change, so a rename there shows up as a
benchmark failure rather than a test failure; this guards those names.
"""

import importlib.util
import pathlib

import pytest

import jumplm

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    # tracer.py uses only the standard library
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist(tracer):
    for layer, names in tracer.TRACED.items():
        module = getattr(jumplm, layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize("dotted", [
    "measure._cached_table_sampler.cache_clear",
    "measure.tail_intensity.cache_clear",
    "simulate.EXPLODED",
    "simulate.evaluate",
    "simulate.Path",
    "simulate.EngineConfig",
])
def test_names_bench_run_reads_exist(dotted):
    obj = jumplm
    for part in dotted.split("."):
        assert hasattr(obj, part), dotted
        obj = getattr(obj, part)
