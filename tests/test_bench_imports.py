"""The benchmark's view of the package: every name bench/ reads exists.

bench/ is run on each side of a change, so a rename there shows up as a
benchmark failure rather than a test failure; this guards those names.
"""

import dataclasses
import importlib.util
import inspect
import pathlib
import sys

import pytest

import jumplm
from jumplm import measure, montecarlo, simulate

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    """bench/<name>.py, loaded on its own: it uses only the standard
    library.  Its dataclasses need it in sys.modules as it runs."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _bench_module("tracer")


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


def test_jump_samplers_bench_draws_from_have_sample():
    # a traced run times sampler.sample(next_u) on the reference at eps
    # 1e-4 (Pareto rejection) and on the benchmark's table at TABLE_EPS
    workloads = _bench_module("workloads")
    table = measure.spec_from_json(workloads.tabulated_json())
    for spec, eps, kind in (
            (measure.reference_spec(), 1e-4, measure._RejectionSampler),
            (table, workloads.TABLE_EPS, measure._TableSampler)):
        sampler = measure.make_jump_sampler(spec, eps)
        assert isinstance(sampler, kind)
        assert callable(getattr(sampler, "sample", None))


@pytest.mark.parametrize("name", ["simulate_path", "simulate_explosive_path"])
def test_one_path_runs_bench_reads_take_record(name):
    # a traced run records single paths with record=True
    inspect.signature(getattr(simulate, name)).bind(
        measure.reference_spec(), 1.0, 1.0, simulate.EngineConfig(eps=1e-2),
        3, record=True)


def test_estimates_bench_run_calls_take_its_arguments():
    # bench/run.py calls the estimates positionally and reads these fields
    # of what they return
    spec, cfg = measure.reference_spec(), simulate.EngineConfig(eps=1e-2)
    inspect.signature(montecarlo.estimate_mgf).bind(spec, 1.0, 1.0, 0.5, 100,
                                                    cfg)
    inspect.signature(montecarlo.estimate_survival).bind(spec, 1.0, 1.0, 100,
                                                         cfg)
    fields = {f.name for f in dataclasses.fields(montecarlo.McEstimate)}
    assert {"mean", "stderr", "theory", "n_paths"} <= fields
