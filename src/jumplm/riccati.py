"""Generalized Riccati equation dg/dt = R(g) and the strict/true classification.

The scalar autonomous ODE governs the exponential moments of the jump
process.  Initial values u < 1 have a unique solution; at u = 1 the
equation can lose uniqueness, and the non-constant ("minimal") branch
through 1 carries the true expectation of the exponential process.

By the paper's integral criterion the process is a strict local
martingale exactly when 1/R is integrable at 1.  Among validated specs
that is the tilted power with beta = 1 and 1 < alpha < 2 (see classify),
the specs for which measure._closed_form is not None: classify,
time_map and minimal_solution decide Strict by that test on a validated
spec.  There R(1 - z) = s (z - z^(alpha-1)) and w = (1 - g)^(2-alpha)
solves a linear ODE, so the verdict's T(1/2) and the whole flow
(expected_value and the minimal branch) are closed forms.  solve stays
the Runge-Kutta integration on every spec, and time_map the quadrature
of the integral itself: each is an independent check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
# numpy and scipy are imported where they are used, as in measure

from . import measure
from .errors import (DivergentIntegral, DomainError, QuadratureFailure,
                     StepSizeUnderflow)
from .measure import LevyMeasureSpec

__all__ = [
    "RiccatiSolution",
    "Classification",
    "solve",
    "time_map",
    "minimal_solution",
    "classify",
    "expected_value",
    "martingale_defect",
]

STRICT = "Strict"
TRUE_MARTINGALE = "TrueMartingale"

# relative tolerance of the Runge-Kutta integration in solve
_TOL = 1e-10


@dataclass(frozen=True)
class RiccatiSolution:
    """Solution record for one initial value u0 on [0, t_end].

    max_residual is computed on its first read and kept: it costs 200
    more evaluations of R, which no caller of g needs.
    """

    u0: float
    steps_taken: int
    _dense: object = None
    _residual: object = None

    def __call__(self, t):
        """Evaluate g(t, u0) from the dense interpolant."""
        return self._dense(t)

    @cached_property
    def max_residual(self) -> float:
        """Largest |dg/dt - R(g)| over 200 midpoints of [0, t_end]."""
        return self._residual()


@dataclass(frozen=True)
class Classification:
    """Verdict on the martingale property plus the evidence behind it."""

    verdict: str
    osgood_value: float
    exponent_estimate: float
    exponent_stderr: float


def _check_flow(u0, t_end):
    """The flow from u0 is unique for u0 < 1, on a finite t_end >= 0."""
    if not (u0 < 1.0):
        raise DomainError(f"solve requires u0 < 1 strictly, got {u0}")
    if not (0.0 <= t_end < math.inf):
        raise DomainError(f"t_end must be finite and nonnegative, got {t_end}")


def _closed_flow(closed, u0: float, t: float) -> float:
    """g(t, u0) on the Strict family, for u0 <= 1 and t >= 0.

    closed is measure._closed_form(spec), (s, alpha - 1).  With q = 2 - alpha,
    w = (1 - g)^q solves w' = q s (1 - w), so w = 1 + a e^(-q s t) with
    a = (1 - u0)^q - 1, and g = -expm1(log1p(a e^(-q s t)) / q), written so
    that neither 1 - g near 0 nor g near 0 cancels.  At u0 = 1, a = -1 gives
    the minimal branch; there e^(-q s t) rounds to 1 for q s t below 2^-53,
    and g is 1 to an ulp.
    """
    s, am1 = closed
    q = 1.0 - am1
    a = -1.0 if u0 == 1.0 else math.expm1(q * math.log1p(-u0))
    z = a * math.exp(-q * s * t)
    return 1.0 if z == -1.0 else -math.expm1(math.log1p(z) / q)


def solve(spec: LevyMeasureSpec, u0: float, t_end: float) -> RiccatiSolution:
    """Integrate dg/dt = R(g), g(0) = u0, over [0, t_end].

    Only u0 < 1 is accepted; that is the uniqueness regime.  Uses an
    adaptive embedded Runge-Kutta pair.  The record's max_residual, a
    finite-difference residual of the dense output, is computed when it
    is first read.
    """
    import numpy as np
    _check_flow(u0, t_end)
    if t_end == 0.0:
        return RiccatiSolution(u0, 0,
                               _dense=lambda t: np.full_like(np.asarray(t, float), u0),
                               _residual=lambda: 0.0)
    from scipy import integrate
    r, _ = measure.r_callables(spec)
    sol = integrate.solve_ivp(
        lambda t, y: [r(y[0])], (0.0, t_end), [u0],
        method="RK45", rtol=_TOL, atol=_TOL * 1e-2, dense_output=True)
    if not sol.success:
        raise StepSizeUnderflow(f"ODE integration failed: {sol.message}")
    dense = sol.sol

    def residual():
        # central-difference residual at interior midpoints
        grid = np.linspace(0.0, t_end, 201)
        # where t_end / 1000 underflows, the smallest positive step: the
        # dense output is then constant to rounding, and the residual is
        # max |R(g)|
        h = max(min(1e-4, t_end / 1000.0), math.ulp(0.0))
        mids = 0.5 * (grid[:-1] + grid[1:])
        deriv = (dense(mids + h)[0] - dense(mids - h)[0]) / (2.0 * h)
        return float(np.max(np.abs(deriv - [r(g) for g in dense(mids)[0]])))

    return RiccatiSolution(u0, sol.t.size - 1,
                           _dense=lambda t: dense(np.asarray(t, float))[0],
                           _residual=residual)


# np.geomspace(1e-6, 1e-2, 9), written out so that the fit needs no numpy
_FIT_GRID = (1e-06, 3.162277660168379e-06, 9.999999999999999e-06,
             3.1622776601683795e-05, 0.0001, 0.00031622776601683794, 0.001,
             0.0031622776601683794, 0.01)


def _sum9(v):
    """numpy's pairwise sum of nine floats: a tree of eight, then v[8]."""
    return (((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]))
            + v[8])


def _fit_exponent(r):
    """Log-log fit of |R(1-z)| ~ C * z^p on z in [1e-6, 1e-2].

    Returns (p, stderr).  Raises QuadratureFailure where R(1-z) does not
    come out negative, as a validated measure's R is: the quadrature R
    has cancelled, as near alpha = 2, where b grows like Gamma(2 - alpha).
    numpy's fit, operation for operation, but with libm's logs: numpy's
    AVX-512 log is an ulp off them on about 1 argument in 1,000.
    """
    vals = [-r(1.0 - z) for z in _FIT_GRID]
    if any(v <= 0 for v in vals):
        raise QuadratureFailure("R(1-z) is not negative near 1 to rounding")
    x, y = ([math.log(v) for v in w] for w in (_FIT_GRID, vals))
    xb, yb = _sum9(x) / 9, _sum9(y) / 9
    sxx = _sum9([(xi - xb) * (xi - xb) for xi in x])
    p = _sum9([(xi - xb) * (yi - yb) for xi, yi in zip(x, y)]) / sxx
    resid = [yi - (p * xi + (yb - p * xb)) for xi, yi in zip(x, y)]
    return p, math.sqrt(_sum9([e * e for e in resid]) / 7 / sxx)


@lru_cache(maxsize=128)
def classify(spec: LevyMeasureSpec) -> Classification:
    """Decide Strict vs TrueMartingale by the integral criterion.

    The exponential process is a strict local martingale exactly when 1/R
    is integrable at 1.  Among validated specs that holds exactly for the
    tilted power with beta = 1 and 1 < alpha < 2, the specs with
    measure's closed form R(1 - z) = s (z - z^(alpha-1)), s = c/C(alpha):
    every other validated spec has int xi (e^xi - 1) mu(dxi) < inf (a
    tilted power with beta > 1, or a table with tilt_rate > 1), so R'(1-)
    is finite, and positive since R is convex with R < 0 on (0, 1) and
    R(1) = 0, and 1/R is not integrable.  So the verdict is read off the
    spec, and osgood_value is the closed-form time map T(1/2), with q =
    2 - alpha: T(x) = -log1p(-(1 - x)^q) / (s q); it is inf for a true
    martingale.

    The log-log fit of |R(1-z)| ~ C z^p on z in [1e-6, 1e-2] is reported
    as evidence: p = alpha - 1 on the Strict family and p ~ 1 elsewhere,
    except near beta = 1, where the power law crosses over to the linear
    slope only near z ~ beta - 1 and the fit reads about 0.11-0.41 for a
    true martingale.  Where quadrature cannot evaluate R near 1 to
    tolerance the exponent fields are NaN; the verdict stands.  The fit
    is numpy's, with the grid written out and sums in numpy's pairwise
    order, so that classify imports no numpy.
    """
    measure.validate(spec)
    try:
        p, stderr = _fit_exponent(measure.r_callables(spec)[0])
    except QuadratureFailure:
        p = stderr = math.nan
    closed = measure._closed_form(spec)
    if closed is None:
        return Classification(TRUE_MARTINGALE, math.inf, p, stderr)
    s, am1 = closed
    q = 1.0 - am1
    return Classification(STRICT, -math.log1p(-0.5 ** q) / (s * q), p, stderr)


def time_map(spec: LevyMeasureSpec, x: float) -> float:
    """T(x) = -int_x^1 du / R(u), the time the minimal branch takes to reach x.

    Only finite in the strict regime; raises DivergentIntegral otherwise.
    This is the quadrature of the paper's integral, independent of the
    closed forms classify and minimal_solution use.  1 - u = s^(1/(1-p))
    bounds the integrand at s = 0 for |R(1-z)| ~ C z^p, with p estimated
    at z ~ 1e-8, where the power law is cleaner than on classify's fit
    grid.  Below z = 1e-250 the integrand is not evaluated: raises
    QuadratureFailure where the local power law there puts 1e-9 or more
    of the result (alpha near 2).
    """
    if not (0.0 < x < 1.0):
        raise DomainError(f"time_map needs x in (0, 1), got {x}")
    measure.validate(spec)
    if measure._closed_form(spec) is None:
        raise DivergentIntegral(
            f"time map diverges: measure classified {TRUE_MARTINGALE}")
    rz = measure.r_callables(spec)[1]
    v7, v9 = -rz(1e-7), -rz(1e-9)
    if v7 <= 0 or v9 <= 0:
        raise DomainError("R must be negative just below 1")
    p = math.log(v7 / v9) / math.log(1e2)
    if p >= 1.0 - 1e-3:
        raise DivergentIntegral(f"local exponent {p} leaves 1/R non-integrable")
    k = 1.0 / (1.0 - p)
    limit0 = -k * 1e-8 ** p / rz(1e-8)
    floor = 1e-250
    v0, v1 = -rz(floor), -rz(10.0 * floor)
    p0 = math.log(v1 / v0) / math.log(10.0) if min(v0, v1) > 0 else 1.0
    tail = floor / ((1.0 - p0) * v0) if p0 < 1.0 else math.inf

    def integrand(s):
        z = s ** k
        if z < floor:
            return limit0
        return k * s ** (k - 1.0) / (-rz(z))

    value = measure._quad(integrand, 0.0, (1.0 - x) ** (1.0 - p),
                          epsrel=1e-11, epsabs=1e-14, tolerate=1e-8)
    if not tail <= 1e-9 * value:
        raise QuadratureFailure(
            f"an estimated {tail / value:.2g} of the time map at {x} "
            f"lies below 1 - u = {floor}, beyond the quadrature")
    return value


def minimal_solution(spec: LevyMeasureSpec, t: float) -> float:
    """The non-constant branch g_-(t, 1) through the initial value 1.

    On the Strict family it is the closed-form flow from u0 = 1, where
    w = (1 - g)^q, q = 2 - alpha, starts at w(0) = 0:
    g_-(t) = -expm1(log1p(-e^(-q s t)) / q).  For true-martingale measures
    returns 1.0 (the only branch).
    """
    if not (t >= 0):
        raise DomainError(f"t must be nonnegative, got {t}")
    measure.validate(spec)
    closed = measure._closed_form(spec)
    return 1.0 if closed is None else _closed_flow(closed, 1.0, t)


def expected_value(spec: LevyMeasureSpec, x0: float, t: float, u: float) -> float:
    """E[exp(u * X_t)] = exp(x0 * g(t, u)), with the minimal branch at u = 1.

    On the Strict family g is the closed-form flow; on every other spec
    solve integrates it.
    """
    if not (u <= 1.0):
        raise DomainError(f"exponential moment undefined for u > 1, got {u}")
    if not math.isfinite(x0):
        raise DomainError(f"x0 must be finite, got {x0}")
    closed = measure._closed_form(spec)
    if u == 1.0:
        g = minimal_solution(spec, t)
    elif t == 0.0:
        g = u
    elif closed is None:
        g = float(solve(spec, u, t)(t))
    else:
        _check_flow(u, t)
        g = _closed_flow(closed, u, t)
    return math.exp(x0 * g)


def martingale_defect(spec: LevyMeasureSpec, x0: float, t: float) -> float:
    """e^{x0} - E[e^{X_t}]; strictly positive exactly in the strict regime."""
    return math.exp(x0) - expected_value(spec, x0, t, 1.0)
