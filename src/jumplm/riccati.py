"""Generalized Riccati equation dg/dt = R(g) and the strict/true classification.

The scalar autonomous ODE governs the exponential moments of the jump
process.  Initial values u < 1 have a unique solution; at u = 1 the
equation can lose uniqueness, and the non-constant ("minimal") branch
through 1 carries the true expectation of the exponential process.

By the paper's integral criterion the process is a strict local
martingale exactly when 1/R is integrable at 1.  Among validated specs
that is the tilted power with beta = 1 and 1 < alpha < 2 (see classify),
where R(1 - z) = s (z - z^(alpha-1)) and w = (1 - g)^(2-alpha) solves a
linear ODE: the verdict, the minimal branch and its time map are closed
forms there.  time_map keeps the quadrature of the integral itself, an
independent check of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
import numpy as np
# scipy is imported where it is used, as in measure

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


def solve(spec: LevyMeasureSpec, u0: float, t_end: float) -> RiccatiSolution:
    """Integrate dg/dt = R(g), g(0) = u0, over [0, t_end].

    Only u0 < 1 is accepted; that is the uniqueness regime.  Uses an
    adaptive embedded Runge-Kutta pair.  The record's max_residual, a
    finite-difference residual of the dense output, is computed when it
    is first read.
    """
    if not (u0 < 1.0):
        raise DomainError(f"solve requires u0 < 1 strictly, got {u0}")
    if not (0.0 <= t_end < math.inf):
        raise DomainError(f"t_end must be finite and nonnegative, got {t_end}")
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
        h = min(1e-4, t_end / 1000.0)
        mids = 0.5 * (grid[:-1] + grid[1:])
        deriv = (dense(mids + h)[0] - dense(mids - h)[0]) / (2.0 * h)
        return float(np.max(np.abs(deriv - [r(g) for g in dense(mids)[0]])))

    return RiccatiSolution(u0, sol.t.size - 1,
                           _dense=lambda t: dense(np.asarray(t, float))[0],
                           _residual=residual)


def _fit_exponent(r):
    """Log-log fit of |R(1-z)| ~ C * z^p on z in [1e-6, 1e-2].

    Returns (p, stderr).  Raises QuadratureFailure where R(1-z) does not
    come out negative, as a validated measure's R is: the quadrature R
    has cancelled, as near alpha = 2, where b grows like Gamma(2 - alpha).
    """
    zs = np.geomspace(1e-6, 1e-2, 9)
    vals = np.array([-r(1.0 - z) for z in zs])
    if np.any(vals <= 0):
        raise QuadratureFailure("R(1-z) is not negative near 1 to rounding")
    x = np.log(zs)
    y = np.log(vals)
    n = len(x)
    xb, yb = x.mean(), y.mean()
    sxx = np.sum((x - xb) ** 2)
    p = float(np.sum((x - xb) * (y - yb)) / sxx)
    resid = y - (p * x + (yb - p * xb))
    stderr = float(math.sqrt(np.sum(resid ** 2) / max(n - 2, 1) / sxx))
    return p, stderr


def _osgood_integral(rz):
    """The map lower -> -int_{lower}^1 du / R(u), with the endpoint
    singularity removed.

    Takes R(1-z) as a function of z.  Substitutes 1 - u = s^(1/(1-p)) so
    that for |R(1-z)| ~ C z^p the integrand is bounded at s = 0; the
    exponent is estimated locally at z ~ 1e-8, where the power law is much
    cleaner than on the fit grid used for classification.  The exponent
    and the integrand are fixed here, once, for every call of the map.
    Below z = 1e-250 the integrand is not evaluated: the map raises
    QuadratureFailure where the integral there, estimated from the local
    power law at 1e-250, exceeds 1e-9 of the result (alpha near 2).
    """
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

    def integral(lower):
        value = measure._quad(integrand, 0.0, (1.0 - lower) ** (1.0 - p),
                              epsrel=1e-11, epsabs=1e-14, tolerate=1e-8)
        if not tail <= 1e-9 * value:
            raise QuadratureFailure(
                f"an estimated {tail / value:.2g} of the time map at {lower} "
                f"lies below 1 - u = {floor}, beyond the quadrature")
        return value

    return integral


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
    tolerance the exponent fields are NaN; the verdict stands.
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
    closed forms classify and minimal_solution use.
    """
    if not (0.0 < x < 1.0):
        raise DomainError(f"time_map needs x in (0, 1), got {x}")
    cls = classify(spec)
    if cls.verdict != STRICT:
        raise DivergentIntegral(
            f"time map diverges: measure classified {cls.verdict}")
    return _osgood_integral(measure.r_callables(spec)[1])(x)


def minimal_solution(spec: LevyMeasureSpec, t: float) -> float:
    """The non-constant branch g_-(t, 1) through the initial value 1.

    On the Strict family w = (1 - g)^q, q = 2 - alpha, solves the linear
    ODE w' = q s (1 - w) from w(0) = 0, so
    g_-(t) = -expm1(log1p(-e^(-q s t)) / q), written so that neither
    1 - g near 0 nor g near 0 cancels.  For true-martingale measures
    returns 1.0 (the only branch).
    """
    if not (t >= 0):
        raise DomainError(f"t must be nonnegative, got {t}")
    if classify(spec).verdict != STRICT or t == 0.0:
        return 1.0
    s, am1 = measure._closed_form(spec)
    q = 1.0 - am1
    return -math.expm1(math.log1p(-math.exp(-q * s * t)) / q)


def expected_value(spec: LevyMeasureSpec, x0: float, t: float, u: float) -> float:
    """E[exp(u * X_t)] = exp(x0 * g(t, u)), with the minimal branch at u = 1."""
    if u > 1.0:
        raise DomainError(f"exponential moment undefined for u > 1, got {u}")
    if u == 1.0:
        g = minimal_solution(spec, t)
    else:
        g = u if t == 0.0 else float(solve(spec, u, t)(t))
    return math.exp(x0 * g)


def martingale_defect(spec: LevyMeasureSpec, x0: float, t: float) -> float:
    """e^{x0} - E[e^{X_t}]; strictly positive exactly in the strict regime."""
    return math.exp(x0) - expected_value(spec, x0, t, 1.0)
