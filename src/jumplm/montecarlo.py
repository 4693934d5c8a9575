"""Monte Carlo verification experiments against the analytic theory.

Each experiment is its theory (_theory, or the minimal Riccati branch for
the explosive dual), one engine call over counter-based RNG streams, and
one score: the sample mean and variance of terminal values (numpy,
imported there), or a count of surviving paths.  Only this module builds
reports; they serialize to JSON and a CSV mirror, one pass flag per row.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from . import measure, riccati, simulate
from .errors import DomainError, InvalidConfig
from .measure import LevyMeasureSpec
from .simulate import EngineConfig

__all__ = [
    "McEstimate",
    "ReportRow",
    "ExperimentReport",
    "estimate_mgf",
    "estimate_mean",
    "estimate_survival",
    "supermartingale_sweep",
    "bias_sweep",
    "single_report",
]

Z_THRESHOLD = 3.0
DEFAULT_PATHS = 100_000
U_MAX_ACCEPTED = 0.5

_CONFIG = EngineConfig(eps=1e-4, seed=0)     # of a call that passes none

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its normal-approximation standard error."""

    mean: float
    stderr: float
    n_paths: int
    theory: float
    z_score: float
    variance_warning: bool = False


@dataclass(frozen=True)
class ReportRow:
    """One (t, u) cell of an experiment, with theory provenance."""

    t: float
    u: Optional[float]
    estimate: McEstimate
    theory_source: str
    passed: bool
    eps: Optional[float] = None
    delta_prev: Optional[float] = None


@dataclass(frozen=True)
class ExperimentReport:
    """A batch of estimates plus everything needed to reproduce them; a
    row with a variance warning does not count toward all_pass."""

    experiment: str
    spec: LevyMeasureSpec
    config: EngineConfig
    rows: Tuple[ReportRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows
                   if not r.estimate.variance_warning)

    def to_json(self) -> str:
        rows = []
        for r in self.rows:
            e = r.estimate
            d = {"t": r.t, "u": r.u, "mean": e.mean, "stderr": e.stderr,
                 "theory": e.theory, "z": e.z_score, "pass": r.passed,
                 "theory_source": r.theory_source}
            if e.variance_warning:
                d.update(variance_warning=True, counted=False)
            if r.eps is not None:
                d["eps"] = r.eps
            if r.delta_prev is not None:
                d["delta_prev"] = r.delta_prev
            rows.append(d)
        obj = {
            "experiment": self.experiment,
            "rows": rows,
            "seed": self.config.seed,
            "spec": measure.spec_to_json(self.spec),
            "config": {"eps": self.config.eps, "cap": self.config.cap,
                       "max_events": self.config.max_events},
            "n_paths": self.rows[0].estimate.n_paths if self.rows else 0,
            "z_threshold": Z_THRESHOLD,
        }
        return json.dumps(obj, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        extra = any(r.eps is not None for r in self.rows)
        header = "t,u,mean,stderr,theory,z,pass"
        if extra:
            header += ",eps,delta_prev"
        lines = [header]
        for r in self.rows:
            e = r.estimate
            u_str = "" if r.u is None else f"{r.u:.17g}"
            line = (f"{r.t:.17g},{u_str},{e.mean:.17g},{e.stderr:.17g},"
                    f"{e.theory:.17g},{e.z_score:.17g},{str(r.passed).lower()}")
            if extra:
                eps_str = "" if r.eps is None else f"{r.eps:.17g}"
                dp_str = "" if r.delta_prev is None else f"{r.delta_prev:.17g}"
                line += f",{eps_str},{dp_str}"
            lines.append(line)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Path fan-out
# ---------------------------------------------------------------------------

def _collect(spec: LevyMeasureSpec, x0: float, t_end: float,
             config: EngineConfig, n_paths: int, explosive: bool,
             n_workers: Optional[int] = None) -> simulate.PathEnds:
    """The ends of paths 0 .. n_paths-1, as one block of simulate.fan_out
    on n_workers threads: the same bits on any number of them."""
    if n_paths < 2:
        raise InvalidConfig(f"need at least 2 paths, got {n_paths}")
    return simulate.fan_out(spec, x0, t_end, config, 0, n_paths, explosive,
                            n_workers)


def _estimate(mean: float, stderr: float, n: int, theory: float,
              variance_warning: bool = False) -> McEstimate:
    """mean +- stderr over n paths, with its z-score against theory."""
    if stderr > 0.0:
        z = (mean - theory) / stderr
    else:
        z = 0.0 if mean == theory else math.copysign(math.inf, mean - theory)
    return McEstimate(mean=mean, stderr=stderr, n_paths=n, theory=theory,
                      z_score=z, variance_warning=variance_warning)


def _theory(spec: LevyMeasureSpec, x0: float, t: float,
            u: Optional[float]) -> Tuple[float, str]:
    """E[X_t] at u None, else E[exp(u X_t)], with its theory_source."""
    if u is not None and u > 1.0:
        raise DomainError(f"exponential moment undefined for u > 1, got {u}")
    mom = measure.validate(spec)
    if u is None:
        return x0 * math.exp(-mom.b * t), "closed form x0*exp(-b*t)"
    return riccati.expected_value(spec, x0, t, u), "riccati.expected_value"


def _terminal_estimate(spec: LevyMeasureSpec, x0: float, t: float,
                       u: Optional[float], theory: float, n_paths: int,
                       config: Optional[EngineConfig],
                       n_workers: Optional[int]) -> McEstimate:
    """The mean of X_t at u None, else of exp(u X_t), over the terminal
    values of n_paths conservative paths, with its sample standard error;
    a u above 1/2 sets variance_warning."""
    import numpy as np
    terminals = np.frombuffer(_collect(spec, x0, t, config or _CONFIG,
                                       n_paths, False, n_workers).terminal)
    samples = terminals if u is None else np.exp(u * terminals)
    n = samples.size
    mean = float(np.sum(samples) / n)
    var = float(np.sum((samples - mean) ** 2) / (n - 1))
    return _estimate(mean, math.sqrt(var / n), n, theory,
                     u is not None and u > U_MAX_ACCEPTED)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def estimate_mgf(spec: LevyMeasureSpec, x0: float, t: float, u: float,
                 n_paths: int = DEFAULT_PATHS,
                 config: Optional[EngineConfig] = None,
                 n_workers: Optional[int] = None) -> McEstimate:
    """Estimate E[exp(u X_t)] and compare to the Riccati flow.

    The sample variance of e^{uX} needs the 2u-exponential moment, which
    exists only up to u = 1/2; estimates with u > 1/2 are flagged with
    variance_warning and excluded from pass/fail accounting downstream.
    At u = 0 every sample is 1 and the estimate is exact, but the paths
    still run, so its inputs are checked as at any other u.
    """
    return _terminal_estimate(spec, x0, t, u, _theory(spec, x0, t, u)[0],
                              n_paths, config, n_workers)


def estimate_mean(spec: LevyMeasureSpec, x0: float, t: float,
                  n_paths: int = DEFAULT_PATHS,
                  config: Optional[EngineConfig] = None,
                  n_workers: Optional[int] = None) -> McEstimate:
    """Estimate E[X_t]; the theory value is x0 * exp(-b t)."""
    return _terminal_estimate(spec, x0, t, None, _theory(spec, x0, t, None)[0],
                              n_paths, config, n_workers)


def estimate_survival(untilted: LevyMeasureSpec, x0: float, t: float,
                      n_paths: int = DEFAULT_PATHS,
                      config: Optional[EngineConfig] = None,
                      n_workers: Optional[int] = None) -> McEstimate:
    """Estimate the explosive dual's survival probability P(tau > t).

    Theory is exp(x0 * (g_-(t,1) - 1)) computed from the minimal Riccati
    branch of the tilted companion measure; the duality turns the
    infinite-variance e^{X_t} statistic into a bounded indicator.
    """
    config = config or _CONFIG
    g_minus = riccati.minimal_solution(measure.tilted_spec(untilted), t)
    theory = math.exp(x0 * (g_minus - 1.0))
    ends = _collect(untilted, x0, t, config, n_paths, True, n_workers).end
    stopped = ends.count(simulate.END_MAX_EVENTS)
    if stopped:
        _log.warning("%d of %d explosive paths reached max_events=%d and "
                     "were counted as explosions without crossing cap=%g",
                     stopped, n_paths, config.max_events, config.cap)
    mean = ends.count(simulate.END_HORIZON) / n_paths
    return _estimate(mean, math.sqrt(max(mean * (1.0 - mean), 0.0) / n_paths),
                     n_paths, theory)


def single_report(experiment: str, spec: LevyMeasureSpec, x0: float,
                  t: float, u: Optional[float],
                  n_paths: int = DEFAULT_PATHS,
                  config: Optional[EngineConfig] = None,
                  n_workers: Optional[int] = None) -> ExperimentReport:
    """One estimate as a one-row report, which passes at |z| <= 3.

    experiment is "mgf" (E[exp(u X_t)]), "mean" (E[X_t]; u is ignored and
    the row's u is None) or "survival" (P(tau > t) for the explosive dual
    of spec; the row's u is 1).
    """
    config = config or _CONFIG
    if experiment == "survival":
        u, source = 1.0, "riccati.minimal_solution"
        est = estimate_survival(measure.untilted_spec(spec), x0, t, n_paths,
                                config, n_workers)
    elif experiment in ("mgf", "mean"):
        u = u if experiment == "mgf" else None
        theory, source = _theory(spec, x0, t, u)
        est = _terminal_estimate(spec, x0, t, u, theory, n_paths, config,
                                 n_workers)
    else:
        raise InvalidConfig(f"unknown experiment {experiment!r}")
    row = ReportRow(t=t, u=u, estimate=est, theory_source=source,
                    passed=abs(est.z_score) <= Z_THRESHOLD)
    return ExperimentReport(experiment=experiment, spec=spec, config=config,
                            rows=(row,))


def supermartingale_sweep(spec: LevyMeasureSpec, x0: float,
                          t_grid: Sequence[float],
                          n_paths: int = DEFAULT_PATHS,
                          config: Optional[EngineConfig] = None,
                          n_workers: Optional[int] = None) -> ExperimentReport:
    """Check E[e^{X_t}] <= e^{x0} and its strict decay in the strict regime.

    Each grid point is estimated through the bounded survival-duality
    route: E[e^{X_t}] = e^{x0} * P(tau > t) for the explosive companion.
    Rows after the first also require the decrease to exceed the combined
    3-sigma noise when the measure is classified Strict.
    """
    t_grid = sorted(t_grid)
    if not t_grid:
        raise InvalidConfig("empty t_grid")
    config = config or _CONFIG
    measure.validate(spec)
    strict = measure._closed_form(spec) is not None     # as classify decides
    untilted = measure.untilted_spec(spec)
    cap_e = math.exp(x0)
    rows = []
    for t in t_grid:
        surv = estimate_survival(untilted, x0, t, n_paths, config, n_workers)
        est = replace(surv, mean=cap_e * surv.mean,
                      stderr=cap_e * surv.stderr, theory=cap_e * surv.theory)
        passed = abs(est.z_score) <= Z_THRESHOLD and est.mean <= cap_e * (
            1.0 + Z_THRESHOLD * (est.stderr / est.mean if est.mean > 0
                                 else 0.0))
        if strict and rows and t > rows[-1].t:
            prev = rows[-1].estimate
            noise = Z_THRESHOLD * math.hypot(prev.stderr, est.stderr)
            passed = passed and prev.mean - est.mean > noise
        rows.append(ReportRow(t=t, u=1.0, estimate=est,
                              theory_source="riccati.minimal_solution",
                              passed=passed))
    return ExperimentReport(experiment="supermartingale", spec=spec,
                            config=config, rows=tuple(rows))


def bias_sweep(spec: LevyMeasureSpec, x0: float, t: float, u: float,
               eps_list: Sequence[float],
               n_paths: int = DEFAULT_PATHS,
               config: Optional[EngineConfig] = None,
               n_workers: Optional[int] = None) -> ExperimentReport:
    """Truncation-bias diagnostic: the same estimate across decreasing eps.

    u = 0 requests the plain mean of X_t, anything else the exponential
    moment.  The theory value is shared across rows; the report carries
    the successive differences, which should shrink as eps does.  A row
    fails when its difference exceeds the previous one beyond the combined
    3-sigma noise of the three estimates involved.
    """
    eps_list = list(eps_list)
    if not eps_list:
        raise InvalidConfig("empty eps_list")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidConfig(f"eps_list must be strictly decreasing, got {eps_list}")
    config = config or _CONFIG
    moment = None if u == 0.0 else u
    theory, source = _theory(spec, x0, t, moment)
    rows = []
    for eps in eps_list:
        est = _terminal_estimate(spec, x0, t, moment, theory, n_paths,
                                 replace(config, eps=eps), n_workers)
        delta = abs(est.mean - rows[-1].estimate.mean) if rows else None
        passed = True
        if len(rows) >= 2:
            noise = Z_THRESHOLD * math.sqrt(
                rows[-2].estimate.stderr ** 2
                + 2.0 * rows[-1].estimate.stderr ** 2 + est.stderr ** 2)
            passed = delta <= rows[-1].delta_prev + noise
        rows.append(ReportRow(t=t, u=u, estimate=est, theory_source=source,
                              passed=passed, eps=eps, delta_prev=delta))
    return ExperimentReport(experiment="bias", spec=spec, config=config,
                            rows=tuple(rows))
