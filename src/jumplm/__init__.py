"""Pure-jump strict local martingales: measures, Riccati flows, simulation.

The package studies S = exp(X) - 1 for a self-exciting affine jump
process X.  Submodules: measure (jump measures and their moments),
riccati (the scalar Riccati flow and the strict/true classification),
simulate (event-driven exact path simulation), montecarlo (verification
experiments), cli (command-line front end).  simulate and montecarlo,
with the kernel's ctypes and subprocess, load on first use (PEP 562).
"""

from . import errors, measure, riccati
from .measure import LevyMeasureSpec, reference_spec, spec_from_json, spec_to_json
from .riccati import classify, martingale_defect, minimal_solution, solve

__version__ = "0.1.0"

# the names __getattr__ loads, each with the submodule that defines it
_LAZY = {"simulate": "simulate", "montecarlo": "montecarlo",
         **dict.fromkeys(("EngineConfig", "Path", "simulate_path",
                          "simulate_explosive_path"), "simulate")}


def __getattr__(name):
    import importlib
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


__all__ = ["errors", "measure", "riccati", "simulate", "montecarlo",
           "LevyMeasureSpec", "reference_spec", "spec_from_json",
           "spec_to_json", "classify", "solve", "minimal_solution",
           "martingale_defect", "EngineConfig", "Path", "simulate_path",
           "simulate_explosive_path", "__version__"]
