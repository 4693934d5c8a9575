"""Generalized Riccati equation dg/dt = R(g) and the strict/true classification.

The scalar autonomous ODE governs the exponential moments of the jump
process.  Initial values u < 1 have a unique solution; at u = 1 the
equation can lose uniqueness, and the non-constant ("minimal") branch
through 1 carries the true expectation of the exponential process.  The
classifier decides between the two regimes from the behavior of R near 1.

The minimal branch inverts the Osgood time map -int du/R(u) by a root
search of a dozen quadratures.  Where R has measure's closed form, these
integrate a compiled copy of the integrand from simulate's kernel, with
the same bits as the Python one; classify and time_map, one quadrature
each, keep the Python integrand and so load no kernel.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
import numpy as np
# scipy is imported where it is used, as in measure

from . import measure, simulate
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
INCONCLUSIVE = "Inconclusive"

# half-width of the band around exponent 1 that classify leaves to the
# slope test at 1 instead of the fitted exponent
_MARGIN = 0.05
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
    if u0 >= 1.0:
        raise DomainError(f"solve requires u0 < 1 strictly, got {u0}")
    if t_end < 0:
        raise DomainError(f"t_end must be nonnegative, got {t_end}")
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

    Returns (p, stderr).
    """
    zs = np.geomspace(1e-6, 1e-2, 9)
    vals = np.array([-r(1.0 - z) for z in zs])
    if np.any(vals <= 0):
        raise DomainError("R(1-z) must be negative near 1 for a validated measure")
    x = np.log(zs)
    y = np.log(vals)
    n = len(x)
    xb, yb = x.mean(), y.mean()
    sxx = np.sum((x - xb) ** 2)
    p = float(np.sum((x - xb) * (y - yb)) / sxx)
    resid = y - (p * x + (yb - p * xb))
    stderr = float(math.sqrt(np.sum(resid ** 2) / max(n - 2, 1) / sxx))
    return p, stderr


class _OsgoodData(ctypes.Structure):
    """The data block of _kernel.c's jumplm_osgood."""

    _fields_ = [("k", ctypes.c_double), ("limit0", ctypes.c_double),
                ("scale", ctypes.c_double), ("am1", ctypes.c_double),
                ("failed", ctypes.c_int)]


def _osgood_integral(rz, closed=None):
    """The map lower -> -int_{lower}^1 du / R(u), with the endpoint
    singularity removed.

    Takes R(1-z) as a function of z.  Substitutes 1 - u = s^(1/(1-p)) so
    that for |R(1-z)| ~ C z^p the integrand is bounded at s = 0; the
    exponent is estimated locally at z ~ 1e-8, where the power law is much
    cleaner than on the fit grid used for classification.  The exponent
    and the integrand are fixed here, once, for every call of the map.

    With closed, measure._closed_form's (scale, alpha - 1) for rz, and a
    kernel that loads, the map integrates _kernel.c's jumplm_osgood: the
    closure's arithmetic compiled, so the same bits without a Python call
    per point.  Where that quadrature raises, or the integrand met a value
    the closure raises on, the map integrates the closure again, so its
    errors stay the closure's.  Building the compiled integrand imports
    cffi when it is installed.
    """
    v7, v9 = -rz(1e-7), -rz(1e-9)
    if v7 <= 0 or v9 <= 0:
        raise DomainError("R must be negative just below 1")
    p = math.log(v7 / v9) / math.log(1e2)
    if p >= 1.0 - 1e-3:
        raise DivergentIntegral(f"local exponent {p} leaves 1/R non-integrable")
    k = 1.0 / (1.0 - p)
    limit0 = -k * 1e-8 ** p / rz(1e-8)

    def integrand(s):
        z = s ** k
        if z < 1e-250:
            return limit0
        return k * s ** (k - 1.0) / (-rz(z))

    def quad(f, s_hi):
        return measure._quad(f, 0.0, s_hi, epsrel=1e-11, epsabs=1e-14,
                             tolerate=1e-8)

    lib = None if closed is None else simulate._kernel()[0]
    if lib is not None:
        from scipy import LowLevelCallable
        data = _OsgoodData(k, limit0, *closed, 0)
        compiled = LowLevelCallable(lib.jumplm_osgood, ctypes.cast(
            ctypes.pointer(data), ctypes.c_void_p))

    def integral(lower):
        s_hi = (1.0 - lower) ** (1.0 - p)
        if lib is not None:
            data.failed = 0
            try:
                value = quad(compiled, s_hi)
            except QuadratureFailure:
                pass
            else:
                if not data.failed:
                    return value
        return quad(integrand, s_hi)

    return integral


@lru_cache(maxsize=128)
def classify(spec: LevyMeasureSpec) -> Classification:
    """Decide Strict vs TrueMartingale from the local exponent of R at 1.

    |R(1-z)| ~ C z^p: p < 1 (with margin) and a convergent reciprocal
    integral means the exponential process is a strict local martingale;
    a finite nonzero left derivative of R at 1 (p ~ 1) means it is a true
    martingale.  Inside the margin, and when the fit says p < 1 but the
    local exponent at z ~ 1e-8 is ~1, the slope -R(1-z)/z at z = 1e-4..1e-6
    decides: TrueMartingale when it settles, Inconclusive otherwise.
    When quadrature cannot evaluate R near 1 to tolerance the verdict is
    Inconclusive, with NaN for whatever exponent fit was not reached.
    """
    measure.validate(spec)
    r, rz = measure.r_callables(spec)
    p = stderr = math.nan
    try:
        p, stderr = _fit_exponent(r)
        if p < 1.0 - _MARGIN:
            try:
                return Classification(STRICT, _osgood_integral(rz)(0.5), p,
                                      stderr)
            except DivergentIntegral:
                # R turns linear below the fit grid, as for beta just above 1
                # where the crossover sits near z ~ beta - 1
                pass
        elif p >= 1.0 + _MARGIN:
            return Classification(TRUE_MARTINGALE, math.inf, p, stderr)
        # p ~ 1: true martingale iff R'(1-) settles to a finite nonzero slope
        ratios = [-r(1.0 - z) / z for z in (1e-4, 1e-5, 1e-6)]
    except QuadratureFailure:
        return Classification(INCONCLUSIVE, math.inf, p, stderr)
    if ratios[-1] > 0 and abs(ratios[-1] - ratios[-2]) < 0.05 * abs(ratios[-1]):
        return Classification(TRUE_MARTINGALE, math.inf, p, stderr)
    return Classification(INCONCLUSIVE, math.inf, p, stderr)


def time_map(spec: LevyMeasureSpec, x: float) -> float:
    """T(x) = -int_x^1 du / R(u), the time the minimal branch takes to reach x.

    Only finite in the strict regime; raises DivergentIntegral otherwise.
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

    Computed by monotone inversion of the time map, which is well posed
    even though direct integration from 1 would stick to the constant
    branch.  For true-martingale measures returns 1.0 (the only branch).
    The time map is built once for the root search; where R has a closed
    form, it integrates the kernel's compiled integrand, so this may build
    or load simulate's kernel (see _osgood_integral).
    """
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if classify(spec).verdict != STRICT or t == 0.0:
        return 1.0
    time_to = _osgood_integral(measure.r_callables(spec)[1],
                               measure._closed_form(spec))

    def shifted(x):
        return time_to(x) - t

    hi = 1.0 - 1e-13
    if shifted(hi) >= 0.0:
        # g_-(t) lies above the bracket, within 1 - hi (about 1e-13) of hi
        return hi
    # T(x) -> inf as x -> 0 (R also vanishes there), so walk the lower
    # bracket down geometrically instead of starting near zero
    lo = 0.5
    while shifted(lo) < 0.0:
        lo *= 0.5
        if lo < 1e-300:
            raise DomainError(f"minimal solution underflows at t={t}")
    from scipy import optimize
    return float(optimize.brentq(shifted, lo, hi, xtol=1e-13, rtol=1e-14))


def expected_value(spec: LevyMeasureSpec, x0: float, t: float, u: float) -> float:
    """E[exp(u * X_t)] = exp(x0 * g(t, u)), with the minimal branch at u = 1."""
    if u > 1.0:
        raise DomainError(f"exponential moment undefined for u > 1, got {u}")
    if u == 1.0:
        g = minimal_solution(spec, t)
    else:
        g = float(solve(spec, u, t)(t)) if t > 0 else u
    return math.exp(x0 * g)


def martingale_defect(spec: LevyMeasureSpec, x0: float, t: float) -> float:
    """e^{x0} - E[e^{X_t}]; strictly positive exactly in the strict regime."""
    return math.exp(x0) - expected_value(spec, x0, t, 1.0)
