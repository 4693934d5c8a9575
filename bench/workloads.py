"""The three benchmark workloads and the one-time set-up each one pays.

Every workload uses the reference measure (alpha = 3/2, beta = 1,
c = C(3/2)) or its untilted dual.  The 60-point table of the density
5 * xi**(-1/2) * exp(-2 xi) is not a workload (see bench/README.md); the
traced run of `mgf-conservative` times quadrature R and the table sampler
on it.  This module imports only the standard library, so `probe.py` can
load it before it starts timing `import jumplm.cli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str       # "mgf", "survival" (montecarlo API) or "export" (cli)
    spec: str       # which spec file the workload loads, see spec_json
    eps: float
    t: float
    paths: int      # paths per operation: one experiment or one export
    x0: float = 1.0
    u: float = 0.5
    cap: float = 1e12


T_HALF = 2.0 * math.log(2.0)
TABLE_EPS = 1e-3    # eps at which the tabulated spec's table sampler is built

# why each workload is here: BENCHMARK.json and bench/README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        name="mgf-conservative", kind="mgf", spec="reference", eps=1e-4,
        t=1.0, paths=500),
    Workload(
        name="survival-explosive", kind="survival", spec="reference",
        eps=1e-2, t=T_HALF, cap=1e5, paths=200),
    Workload(
        name="export-explosive", kind="export", spec="untilted-reference",
        eps=1e-2, t=T_HALF, cap=1e5, paths=50),
)}


def tabulated_json() -> dict:
    """60 geometric points of 5 * xi**(-1/2) * exp(-2 xi) on [1e-3, 30]."""
    # pure Python so the bits are fixed
    n, lo, hi = 60, 1e-3, 30.0
    xs = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    return {"kind": "tabulated",
            "points": [[x, 5.0 * x ** -0.5 * math.exp(-2.0 * x)] for x in xs],
            "left_exponent": 0.5, "tilt_rate": 2.0}


def spec_json(wl: Workload, measure) -> dict:
    """The spec file content the workload loads, as the CLI would read it."""
    ref = measure.reference_spec()
    if wl.spec == "untilted-reference":
        ref = measure.untilted_spec(ref)
    return measure.spec_to_json(ref)


def engine_spec(wl: Workload, spec, measure):
    """The spec the simulation engine runs on: the dual for `verify survival`."""
    return measure.untilted_spec(spec) if wl.kind == "survival" else spec


def validated_spec(wl: Workload, spec):
    """The spec the workload passes to measure.validate, or None.

    `jumplm simulate` never validates, and the untilted dual it runs on
    would fail validation (beta = 0 has no exponential moment).
    """
    return None if wl.kind == "export" else spec


def warm(wl: Workload, spec, measure, riccati) -> None:
    """Fill every per-(spec, eps) cache the workload's operations hit."""
    checked = validated_spec(wl, spec)
    if checked is not None:
        measure.validate(checked)
    eng = engine_spec(wl, spec, measure)
    if wl.kind == "survival":
        riccati.classify(measure.tilted_spec(eng))
    measure.tail_intensity(eng, wl.eps)
    measure.small_jump_mean(eng, wl.eps)
    measure.make_jump_sampler(eng, wl.eps)
