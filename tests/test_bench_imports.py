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
from jumplm import measure, montecarlo, riccati, simulate

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


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


def test_traced_names_exist(tracer):
    for layer, names in tracer.TRACED.items():
        module = getattr(jumplm, layer)
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


@pytest.mark.parametrize("dotted", [
    "measure._cached_table_sampler.cache_clear",
    "measure._cached_table_sampler.__wrapped__",
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


@pytest.mark.parametrize("name", ["mgf-conservative", "survival-explosive",
                                  "export-explosive"])
def test_workload_set_up_runs(workloads, name):
    # every benchmark run first loads the workload's spec as the CLI reads
    # it and fills its caches with warm, jump law included
    wl = workloads.WORKLOADS[name]
    spec = measure.spec_from_json(workloads.spec_json(wl, measure))
    workloads.warm(wl, spec, measure, riccati)


def test_jump_samplers_bench_draws_from_have_sample(workloads):
    # a traced run times law.sample(next_u) on the reference at eps 1e-4
    # (Pareto rejection) and on the benchmark's table at TABLE_EPS
    table = measure.spec_from_json(workloads.tabulated_json())
    for spec, eps, tabled in ((measure.reference_spec(), 1e-4, False),
                              (table, workloads.TABLE_EPS, True)):
        law = measure.make_jump_sampler(spec, eps)
        assert (law.inv is not None) == tabled
        assert callable(getattr(law, "sample", None))
        assert law.sample(lambda: 0.5) >= eps


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
