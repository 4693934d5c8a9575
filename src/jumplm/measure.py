"""Jump measures on the positive half-line and the quantities derived from them.

A measure spec is either a tilted power law  c * exp(-beta*xi) * xi**(-alpha)
or a tabulated density with declared endpoint behavior.  From a spec we derive
the mean jump size m1, the drift coefficient b, the convex function R(u) that
drives the generalized Riccati equation, truncated tail intensities, and the
exponentially untilted companion measure used by the explosive construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial

# scipy takes over half a second to import, and numpy over a tenth, so
# each function imports what it uses.  The tilted power's tail intensity
# and small-jump mean are incomplete gammas computed here (_upper_gamma,
# _lower_gamma), so simulating a tilted power whose jumps Pareto rejection
# draws loads neither

from .errors import (
    DomainError,
    InvalidParameter,
    NonIntegrableTail,
    QuadratureFailure,
)

__all__ = [
    "LevyMeasureSpec",
    "MeasureMoments",
    "gamma_constant",
    "validate",
    "r_function",
    "r_callables",
    "lemma_a1_residual",
    "gamma2_residual",
    "tail_intensity",
    "small_jump_mean",
    "make_jump_sampler",
    "untilted_spec",
    "tilted_spec",
    "dual_decay",
    "harmonic_residual",
    "htransform_generator_residual",
    "reference_spec",
    "spec_from_json",
    "spec_to_json",
    "TEST_FUNCTIONS",
]

_QUAD_EPSREL = 1e-11
_QUAD_EPSABS = 1e-13


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyMeasureSpec:
    """Parametric or tabulated description of a jump measure on (0, inf).

    kind "tilted_power" means density c * exp(-beta*xi) * xi**(-alpha);
    kind "tabulated" interpolates log-density through `points` and
    extrapolates with the declared left power exponent and right tilt rate.
    """

    kind: str
    c: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    points: tuple = ()
    left_exponent: float = 0.0
    tilt_rate: float = 0.0

    def __post_init__(self):
        if self.kind == "tilted_power":
            if not (self.c > 0 and math.isfinite(self.c)):
                raise InvalidParameter(f"c must be positive, got {self.c}")
            if not (0.0 < self.alpha < 2.0):
                raise InvalidParameter(f"alpha must lie in (0, 2), got {self.alpha}")
            if not (self.beta >= 0.0 and math.isfinite(self.beta)):
                raise InvalidParameter(f"beta must be >= 0, got {self.beta}")
        elif self.kind == "tabulated":
            pts = tuple((float(x), float(d)) for x, d in self.points)
            if len(pts) < 4:
                raise InvalidParameter("tabulated spec needs at least 4 points")
            xs = [p[0] for p in pts]
            ds = [p[1] for p in pts]
            if xs[0] <= 0 or any(b <= a for a, b in zip(xs, xs[1:])):
                raise InvalidParameter("table abscissae must be positive and strictly increasing")
            if any(d <= 0 or not math.isfinite(d) for d in ds):
                raise InvalidParameter("table densities must be positive and finite")
            if not (self.tilt_rate >= 0.0):
                raise InvalidParameter(f"tilt_rate must be >= 0, got {self.tilt_rate}")
            if not (self.left_exponent < 2.0):
                raise InvalidParameter("left_exponent must be < 2 for an integrable small-jump mean")
            object.__setattr__(self, "points", pts)
        else:
            raise InvalidParameter(f"unknown measure kind {self.kind!r}")

    @classmethod
    def tilted_power(cls, c: float, alpha: float, beta: float = 1.0) -> "LevyMeasureSpec":
        return cls(kind="tilted_power", c=c, alpha=alpha, beta=beta)

    @classmethod
    def tabulated(cls, points, left_exponent: float, tilt_rate: float) -> "LevyMeasureSpec":
        return cls(kind="tabulated", points=tuple(points),
                   left_exponent=left_exponent, tilt_rate=tilt_rate)

    # -- density ------------------------------------------------------------

    def _interp(self):
        interp = getattr(self, "_log_interp", None)
        if interp is None:
            import numpy as np
            from scipy import interpolate
            xs = np.array([p[0] for p in self.points])
            logd = np.log([p[1] for p in self.points])
            interp = interpolate.PchipInterpolator(xs, logd, extrapolate=False)
            object.__setattr__(self, "_log_interp", interp)
        return interp

    def density(self, xi):
        """Pointwise density of the measure; vectorized over xi."""
        import numpy as np
        xi = np.asarray(xi, dtype=float)
        if self.kind == "tilted_power":
            return self.c * np.exp(-self.beta * xi) * xi ** (-self.alpha)
        x0, d0 = self.points[0]
        xn, dn = self.points[-1]
        out = np.empty_like(xi)
        left = xi < x0
        right = xi > xn
        mid = ~(left | right)
        out[mid] = np.exp(self._interp()(xi[mid]))
        out[left] = d0 * (xi[left] / x0) ** (-self.left_exponent)
        out[right] = dn * np.exp(-self.tilt_rate * (xi[right] - xn))
        return out

    def log_density(self, xi: float) -> float:
        """Scalar log-density; safe in the far tail where density underflows."""
        if self.kind == "tilted_power":
            return math.log(self.c) - self.beta * xi - self.alpha * math.log(xi)
        x0, d0 = self.points[0]
        xn, dn = self.points[-1]
        if xi < x0:
            return math.log(d0) - self.left_exponent * math.log(xi / x0)
        if xi > xn:
            return math.log(dn) - self.tilt_rate * (xi - xn)
        return float(self._interp()(xi))

    def scaled(self, factor: float) -> "LevyMeasureSpec":
        """Multiply the measure by a positive constant."""
        if self.kind == "tilted_power":
            return LevyMeasureSpec.tilted_power(self.c * factor, self.alpha, self.beta)
        return LevyMeasureSpec.tabulated(
            [(x, d * factor) for x, d in self.points], self.left_exponent, self.tilt_rate)


@dataclass(frozen=True)
class MeasureMoments:
    """Scalar moments of a validated measure."""

    m1: float
    b: float


# ---------------------------------------------------------------------------
# Quadrature helpers
# ---------------------------------------------------------------------------

def _quad(f, a, b, *, epsrel=_QUAD_EPSREL, epsabs=_QUAD_EPSABS, points=None,
          tolerate=1e-9):
    from scipy import integrate
    res = integrate.quad(f, a, b, epsrel=epsrel, epsabs=epsabs,
                         limit=500, points=points, full_output=True)
    val, err = res[0], res[1]
    if len(res) > 3 and err > tolerate * (abs(val) + 1.0):
        # tolerate roundoff-limited warnings when the error estimate is tiny
        raise QuadratureFailure(f"quadrature on [{a}, {b}] did not converge: {res[3]}")
    if not math.isfinite(val):
        raise QuadratureFailure(f"quadrature on [{a}, {b}] returned {val}")
    return val


def integrate_against(spec: LevyMeasureSpec, f, lower: float = 0.0,
                      upper: float = math.inf, tail_terms=None) -> float:
    """Integrate f(xi) against the measure density.

    On [lower, 1] the product f(xi)*density(xi) is evaluated directly, which
    keeps compensated integrands accurate near the power singularity at zero.
    Beyond 1 an exponentially growing f overflows before the density damps
    it, so callers with such integrands pass `tail_terms`, a list of
    (coefficient, rate) pairs with f(xi) = sum coef(xi) * exp(rate*xi) and
    each rate at most the tilt rate; the tail is then computed in log space.
    A scalar coefficient stands for a constant function.
    """
    def g(xi):
        return f(xi) * float(spec.density(xi))

    if tail_terms is None:
        g_tail = g
    else:
        terms = [(c if callable(c) else (lambda xi, _c=c: _c), r) for c, r in tail_terms]

        def g_tail(xi):
            ld = spec.log_density(xi)
            return sum(c(xi) * math.exp(r * xi + ld) for c, r in terms)

    epsrel = _QUAD_EPSREL
    pts = None
    if spec.kind == "tabulated":
        # PCHIP evaluation noise caps the attainable accuracy, and the
        # extrapolation seam at the first table point needs a split
        epsrel = 1e-9
        edge = spec.points[0][0]
        if lower < edge < min(1.0, upper):
            pts = [edge]
    total = 0.0
    if lower < 1.0:
        total += _quad(g, lower, min(1.0, upper), epsrel=epsrel, points=pts)
    if upper > 1.0:
        a = max(lower, 1.0)
        # split once more so quad's infinite-interval map behaves on the tail
        if upper == math.inf and a < 30.0:
            total += _quad(g_tail, a, 30.0, epsrel=epsrel)
            a = 30.0
        # from lower = 30 on the whole integral can lie far below the
        # absolute tolerance, so only the relative one applies
        total += _quad(g_tail, a, upper, epsrel=epsrel,
                       epsabs=0.0 if lower >= 30.0 else _QUAD_EPSABS)
    return total


# ---------------------------------------------------------------------------
# Appendix closed forms
# ---------------------------------------------------------------------------

def gamma_constant(alpha: float) -> float:
    """The normalizing constant sin((alpha-1)*pi) * Gamma(alpha) / pi."""
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"alpha must lie in (1, 2), got {alpha}")
    return math.sin((alpha - 1.0) * math.pi) * math.gamma(alpha) / math.pi


def lemma_a1_residual(alpha: float, u: float) -> float:
    """|C(alpha) * quadrature - closed form| for the exponential-tilt identity.

    The identity: C(alpha) * int (e^{u xi} - 1) e^{-xi} xi^{-alpha} dxi
    equals 1 - (1-u)^(alpha-1) for u <= 1.
    """
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"alpha must lie in (1, 2), got {alpha}")
    if u > 1.0:
        raise DomainError(f"u must be <= 1, got {u}")
    spec = LevyMeasureSpec.tilted_power(gamma_constant(alpha), alpha, 1.0)
    quad_val = integrate_against(spec, lambda xi: math.expm1(u * xi),
                                 tail_terms=[(1.0, u), (-1.0, 0.0)])
    closed = 1.0 - (1.0 - u) ** (alpha - 1.0)
    return abs(quad_val - closed)


def gamma2_residual(alpha: float) -> float:
    """|C(alpha) * int e^{-xi} xi^{1-alpha} dxi - (alpha - 1)| by quadrature."""
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"alpha must lie in (1, 2), got {alpha}")
    c = gamma_constant(alpha)
    val = _quad(lambda xi: math.exp(-xi) * xi ** (1.0 - alpha), 0.0, 60.0)
    return abs(c * val - (alpha - 1.0))


# ---------------------------------------------------------------------------
# Moments and validation
# ---------------------------------------------------------------------------

def _check_exponential_moment(spec: LevyMeasureSpec) -> None:
    if spec.kind == "tilted_power":
        if spec.beta < 1.0:
            raise NonIntegrableTail(
                f"int_1^inf e^xi mu(dxi) diverges for beta={spec.beta} < 1")
        if spec.beta == 1.0 and spec.alpha <= 1.0:
            raise NonIntegrableTail(
                f"beta=1 requires alpha > 1 for the exponential moment, got alpha={spec.alpha}")
    else:
        # extrapolated tail is a pure exponential, so the moment needs tilt > 1
        if spec.tilt_rate <= 1.0:
            raise NonIntegrableTail(
                f"tabulated tilt_rate={spec.tilt_rate} <= 1 makes int_1^inf e^xi mu(dxi) diverge")


@lru_cache(maxsize=256)
def validate(spec: LevyMeasureSpec) -> MeasureMoments:
    """Check integrability conditions and return the derived moments.

    m1 = int xi mu(dxi) and b = int (e^xi - 1 - xi) mu(dxi); both must be
    finite and positive for the conservative construction.
    """
    _check_exponential_moment(spec)
    if spec.kind == "tilted_power":
        a, bta, c = spec.alpha, spec.beta, spec.c
        g2 = math.gamma(2.0 - a)
        m1 = c * bta ** (a - 2.0) * g2
        # b = c*Gamma(2-a) * [ (beta^(a-1) - (beta-1)^(a-1)) / (a-1) - beta^(a-2) ]
        if a == 1.0:
            # the a -> 1 limit of the difference quotient; beta > 1 here
            lead = math.log(bta / (bta - 1.0))
        else:
            bm1 = (bta - 1.0) ** (a - 1.0) if bta > 1.0 else 0.0
            lead = (bta ** (a - 1.0) - bm1) / (a - 1.0)
        b = c * g2 * (lead - bta ** (a - 2.0))
    else:
        m1 = integrate_against(spec, lambda xi: xi)
        b = integrate_against(spec, lambda xi: math.expm1(xi) - xi,
                              tail_terms=[(1.0, 1.0), (lambda xi: -1.0 - xi, 0.0)])
    if not (m1 > 0 and math.isfinite(m1)):
        raise InvalidParameter(f"mean jump size m1={m1} is not positive finite")
    if not (b > 0 and math.isfinite(b)):
        raise InvalidParameter(f"drift coefficient b={b} is not positive finite")
    return MeasureMoments(m1=m1, b=b)


def _closed_form(spec: LevyMeasureSpec):
    """(scale, alpha - 1) of R's closed form, or None when the spec has none.

    Only the tilted power at beta = 1, 1 < alpha < 2 has one:
    R(1 - z) = scale * (z - z^(alpha-1)) with scale = c/C(alpha).
    """
    if not (spec.kind == "tilted_power" and spec.beta == 1.0
            and 1.0 < spec.alpha < 2.0):
        return None
    return spec.c / gamma_constant(spec.alpha), spec.alpha - 1.0


def _closed_rz(closed, z: float) -> float:
    """R(1 - z) = scale * (z - z^(alpha-1)), closed = _closed_form(spec),
    in z: forming 1 - z would corrupt the power law for z below ~1e-9."""
    scale, am1 = closed
    return scale * (z - z ** am1)


def r_function(spec: LevyMeasureSpec, u: float, method: str = "auto") -> float:
    """The convex function R(u) = int (e^{u xi} - 1 - u xi) mu(dxi) - b*u.

    R(0) = R(1) = 0 and R < 0 on (0, 1).  For the tilted power family at
    beta = 1 the closed form (c/C(alpha)) * ((1-u) - (1-u)^(alpha-1)) is
    used unless quadrature is requested explicitly.
    """
    if u > 1.0:
        raise DomainError(f"R(u) is only defined for u <= 1, got u={u}")
    if method not in ("auto", "closed", "quad"):
        raise InvalidParameter(f"unknown method {method!r}")
    closed = _closed_form(spec)
    if method == "closed" and closed is None:
        raise InvalidParameter("closed form available only for tilted power with beta=1")
    if closed is not None and method != "quad":
        return _closed_rz(closed, 1.0 - u)
    b = validate(spec).b
    integral = integrate_against(
        spec, lambda xi: math.expm1(u * xi) - u * xi,
        tail_terms=[(1.0, u), (lambda xi: -1.0 - u * xi, 0.0)])
    return integral - b * u


def r_callables(spec: LevyMeasureSpec):
    """R and z -> R(1 - z) as plain callables, for the Riccati layer.

    With a closed form both evaluate it in z.  Otherwise every call of R
    goes through r_function by quadrature, and R(1 - z) forms 1 - z.
    """
    closed = _closed_form(spec)
    if closed is not None:
        rz = partial(_closed_rz, closed)
        return (lambda u: rz(1.0 - u)), rz

    def r(u):
        return r_function(spec, u)

    return r, (lambda z: r(1.0 - z))


# stands in for a zero denominator in the modified Lentz method
_LENTZ_TINY = 1e-300
# terms of the series below x = 1: the k-th is at most e/k! of the sum,
# and e/20! < 1e-18
_SERIES_TERMS = 20


def _upper_gamma(s: float, x: float) -> float:
    """Gamma(s, x) = int_x^inf t^(s-1) e^-t dt for -1 < s < 2 and x > 0.

    From x = 1 on, Legendre's continued fraction (DLMF 8.9) by the
    modified Lentz method, until a step leaves it unchanged: within about
    150 steps there.  Below 1, Gamma(s, 1) from it plus
    int_x^1 t^(s-1) e^-t dt, expanded in e^-t as
    sum_k (-1)^k / k! * (1 - x^(s+k)) / (s+k) (the series of DLMF 8.7,
    taken from x to 1).  Each (1 - x^p) / p is an expm1, and -log(x) at
    p = 0, so nothing cancels for s at or near 0, where Gamma(0, x) is
    E_1(x), or near -1.
    """
    if x >= 1.0:
        scale = math.exp(-x)
        if scale == 0.0:        # and Gamma(s, x) ~ x^(s-1) e^-x < 1e-320
            return 0.0
        b = f = x + 1.0 - s      # > 0, as x >= 1 and s < 2
        c, d, delta, i = f, 0.0, 0.0, 0
        while delta != 1.0:
            i += 1
            a = -i * (i - s)
            b += 2.0
            d = b + a * d
            d = 1.0 / (d if d != 0.0 else _LENTZ_TINY)
            c = b + a / c
            if c == 0.0:
                c = _LENTZ_TINY
            delta = c * d
            f *= delta
        return x ** s * scale / f
    log_x = math.log(x)
    total, term = 0.0, 1.0
    for k in range(_SERIES_TERMS):
        p = s + k
        total += term * (-log_x if p == 0.0 else -math.expm1(p * log_x) / p)
        term = -term / (k + 1)
    return _upper_gamma(s, 1.0) + total


def _lower_gamma(s: float, x: float) -> float:
    """gamma(s, x) = int_0^x t^(s-1) e^-t dt for 0 < s < 2 and x > 0.

    Below x = 1, the series x^s e^-x sum_k x^k / (s (s+1) ... (s+k)) of
    DLMF 8.7, whose terms are all positive; from 1 on,
    Gamma(s) - Gamma(s, x), which loses at most two bits there.
    """
    if x >= 1.0:
        return math.gamma(s) - _upper_gamma(s, x)
    total, term = 0.0, 1.0 / s
    for k in range(1, _SERIES_TERMS + 1):
        total += term
        term *= x / (s + k)
    return x ** s * math.exp(-x) * total


@lru_cache(maxsize=1024)
def tail_intensity(spec: LevyMeasureSpec, eps: float) -> float:
    """Lambda(eps) = mu([eps, inf)), the truncated jump intensity.

    For a tilted power with beta > 0 this is c beta^(alpha-1)
    Gamma(1-alpha, beta eps).  Gamma(1-alpha, x) comes from Gamma(2-alpha, x)
    by the recurrence (Gamma(2-alpha, x) - x^(1-alpha) e^-x) / (1-alpha)
    where that difference keeps at least half of its larger term, which
    holds at small x unless alpha is near 1; elsewhere (alpha at or near 1,
    and large x, where the two terms cancel) _upper_gamma gives it directly.
    """
    if not (eps > 0):
        raise DomainError(f"eps must be positive, got {eps}")
    if spec.kind == "tilted_power":
        a, bta, c = spec.alpha, spec.beta, spec.c
        if bta == 0.0:
            if a <= 1.0:
                raise DomainError("untilted power tail diverges for alpha <= 1")
            return c * eps ** (1.0 - a) / (a - 1.0)
        x = bta * eps
        g_upper = _upper_gamma(2.0 - a, x)
        head = x ** (1.0 - a) * math.exp(-x)
        if abs(g_upper - head) > 0.5 * max(g_upper, head):
            g_1ma = (g_upper - head) / (1.0 - a)
        else:
            g_1ma = _upper_gamma(1.0 - a, x)
        return c * bta ** (a - 1.0) * g_1ma
    if spec.tilt_rate <= 0.0:
        raise DomainError("tabulated measure without tilt has divergent tail mass")
    return integrate_against(spec, lambda xi: 1.0, lower=eps)


@lru_cache(maxsize=1024)
def small_jump_mean(spec: LevyMeasureSpec, eps: float) -> float:
    """m(eps) = int_0^eps xi mu(dxi), the mean drift of truncated jumps.

    For a tilted power with beta > 0 this is
    c beta^(alpha-2) gamma(2-alpha, beta eps), by _lower_gamma.
    """
    if not (eps > 0):
        raise DomainError(f"eps must be positive, got {eps}")
    if spec.kind == "tilted_power":
        a, bta, c = spec.alpha, spec.beta, spec.c
        if bta == 0.0:
            return c * eps ** (2.0 - a) / (2.0 - a)
        return c * bta ** (a - 2.0) * _lower_gamma(2.0 - a, bta * eps)
    return integrate_against(spec, lambda xi: xi, upper=eps)


# ---------------------------------------------------------------------------
# Jump sampling (_kernel.c repeats both sample() methods step for step)
# ---------------------------------------------------------------------------

class _TableSampler:
    """Inverse-CDF sampler on a cached numeric tail table."""

    def __init__(self, spec: LevyMeasureSpec, eps: float):
        lam = tail_intensity(spec, eps)
        if not lam > 0:
            raise DomainError(f"tail intensity vanishes at eps={eps}")
        import numpy as np
        from scipy import interpolate
        # resolve the tail out to where only ~1e-12 of the mass remains
        hi = eps
        while tail_intensity(spec, hi) > 1e-12 * lam:
            hi *= 2.0
        grid = np.geomspace(eps, hi, 4096)
        dens = spec.density(grid)
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        cdf /= cdf[-1]
        keep = np.concatenate([[True], np.diff(cdf) > 0])
        self._inv = interpolate.PchipInterpolator(cdf[keep], grid[keep])

    def sample(self, next_u) -> float:
        return float(self._inv(next_u()))


class _RejectionSampler:
    """Pareto-proposal rejection sampler for tilted power tails.

    Proposal xi = eps * U**(-1/(alpha-1)), accepted with probability
    exp(-beta*(xi-eps)); at beta = 0 every proposal is accepted without
    drawing the acceptance uniform.
    """

    def __init__(self, spec: LevyMeasureSpec, eps: float):
        self.eps = eps
        self._inv_pow = -1.0 / (spec.alpha - 1.0)
        self._beta = spec.beta

    def sample(self, next_u) -> float:
        eps, beta, p = self.eps, self._beta, self._inv_pow
        while True:
            try:
                xi = eps * next_u() ** p
            except (OverflowError, ZeroDivisionError):
                # u ** p past the float range, or u == 0: an infinite
                # proposal, rejected when beta > 0 and an explosion otherwise
                xi = math.inf
            if beta == 0.0 or next_u() < math.exp(-beta * (xi - eps)):
                return xi


# below 1% acceptance rejection spends over 100 proposals on each jump
_MIN_ACCEPTANCE = 0.01


def make_jump_sampler(spec: LevyMeasureSpec, eps: float):
    """Sampler for the normalized restriction of the measure to [eps, inf).

    The returned object has sample(next_u) where next_u() yields uniforms.
    The choice is made once per (spec, eps): a tilted power with alpha > 1
    gets Pareto rejection when its mean acceptance
    exp(beta*eps) * Lambda_beta(eps) / Lambda_0(eps) is at least 1%, where
    Lambda_0 is the tail intensity of the untilted power; every other
    measure gets the cached inverse-CDF table.
    """
    if not (eps > 0):
        raise DomainError(f"eps must be positive, got {eps}")
    if spec.kind == "tilted_power" and spec.alpha > 1.0:
        a = spec.alpha
        lambda_0 = spec.c * eps ** (1.0 - a) / (a - 1.0)
        # exp(-beta*eps) on the right underflows to 0 where exp(beta*eps)
        # on the left would overflow
        if (tail_intensity(spec, eps) >= _MIN_ACCEPTANCE
                * math.exp(-spec.beta * eps) * lambda_0):
            return _RejectionSampler(spec, eps)
    return _cached_table_sampler(spec, eps)


@lru_cache(maxsize=64)
def _cached_table_sampler(spec: LevyMeasureSpec, eps: float) -> _TableSampler:
    # table construction is expensive; the sampler is read-only once built
    return _TableSampler(spec, eps)


# ---------------------------------------------------------------------------
# Exponential tilting
# ---------------------------------------------------------------------------

def untilted_spec(spec: LevyMeasureSpec) -> LevyMeasureSpec:
    """Divide out one factor e^{-xi}: returns the measure with tilt reduced by 1."""
    if spec.kind == "tilted_power":
        if spec.beta < 1.0:
            raise DomainError(f"cannot untilt beta={spec.beta} < 1")
        return LevyMeasureSpec.tilted_power(spec.c, spec.alpha, spec.beta - 1.0)
    if spec.tilt_rate < 1.0:
        raise DomainError(f"cannot untilt tabulated tilt_rate={spec.tilt_rate} < 1")
    pts = [(x, d * math.exp(x)) for x, d in spec.points]
    return LevyMeasureSpec.tabulated(pts, spec.left_exponent, spec.tilt_rate - 1.0)


def tilted_spec(spec: LevyMeasureSpec) -> LevyMeasureSpec:
    """Multiply the density by e^{-xi}: inverse of untilted_spec."""
    if spec.kind == "tilted_power":
        return LevyMeasureSpec.tilted_power(spec.c, spec.alpha, spec.beta + 1.0)
    pts = [(x, d * math.exp(-x)) for x, d in spec.points]
    return LevyMeasureSpec.tabulated(pts, spec.left_exponent, spec.tilt_rate + 1.0)


# ---------------------------------------------------------------------------
# Harmonicity and h-transform diagnostics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def dual_decay(spec_untilted: LevyMeasureSpec) -> float:
    """H = int (1 - e^{-xi}) mu~(dxi), the explosive dual's decay: c/C(alpha)
    on the Strict family's dual (an untilted power, 1 < alpha < 2), exactly
    1.0 on the reference; c Gamma(1-a) (beta^(a-1) - (beta+1)^(a-1)) on a
    tilted power with beta > 0; quadrature, as harmonic_residual, on a table."""
    s = spec_untilted
    if s.kind == "tabulated":
        return integrate_against(s, lambda xi: -math.expm1(-xi))
    if s.beta == 0.0 and 1.0 < s.alpha < 2.0:
        return s.c / gamma_constant(s.alpha)
    if s.beta == 0.0:
        raise DomainError(f"H diverges for beta=0 and alpha={s.alpha} <= 1")
    # the difference as c Gamma(2-a) beta^(a-1) L expm1(x)/x, x = (a-1) L,
    # L = log1p(1/beta): no cancellation near a = 1, and c L at a = 1
    lg = math.log1p(1.0 / s.beta)
    x = (s.alpha - 1.0) * lg
    return (s.c * math.gamma(2.0 - s.alpha) * s.beta ** (s.alpha - 1.0) * lg
            * (math.expm1(x) / x if x else 1.0))


def harmonic_residual(spec_untilted: LevyMeasureSpec) -> float:
    """|int (1 - e^{-xi}) mu~(dxi) - 1|.

    Zero exactly when e^{-x} is harmonic for the explosive process driven
    by mu~ (unit linear decay, uncompensated jumps).
    """
    val = integrate_against(spec_untilted, lambda xi: -math.expm1(-xi))
    return abs(val - 1.0)


def _bump(center: float, width: float):
    def f(y):
        s = (y - center) / width
        if abs(s) >= 1.0:
            return 0.0
        return math.exp(1.0 - 1.0 / (1.0 - s * s))

    def fprime(y):
        s = (y - center) / width
        if abs(s) >= 1.0:
            return 0.0
        q = 1.0 - s * s
        return f(y) * (-2.0 * s / (q * q)) / width

    return f, fprime


# smooth compactly supported test functions for generator identities
TEST_FUNCTIONS = {
    "bump_1_1": _bump(1.0, 1.0),
    "bump_2_15": _bump(2.0, 1.5),
    "bump_05_04": _bump(0.5, 0.4),
}


def reference_spec() -> LevyMeasureSpec:
    """The canonical strict-local-martingale measure: alpha=3/2, beta=1, c=C(3/2)."""
    return LevyMeasureSpec.tilted_power(gamma_constant(1.5), 1.5, 1.0)


def htransform_generator_residual(x: float, f_name: str) -> float:
    """Difference between the e^{-x}-transformed explosive generator and the
    conservative generator, both evaluated by independent quadratures.

    Uses the canonical alpha=3/2 measure pair.  The transformed side is
    e^x * A~(f * e^{-.})(x); the direct side is the compensated-jump
    generator with drift coefficient 1/2.
    """
    if f_name not in TEST_FUNCTIONS:
        raise InvalidParameter(f"unknown test function {f_name!r}")
    f, fp = TEST_FUNCTIONS[f_name]
    mu = reference_spec()
    mu_t = untilted_spec(mu)

    fx, fpx = f(x), fp(x)
    lhs = -x * (fpx - fx) + x * integrate_against(
        mu_t, lambda xi: f(x + xi) * math.exp(-xi) - fx)
    rhs = -0.5 * x * fpx + x * integrate_against(
        mu, lambda xi: f(x + xi) - fx - fpx * xi)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _finite_number(obj, key):
    val = obj[key]
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
        raise InvalidParameter(f"field {key!r} must be a finite number, got {val!r}")
    return float(val)


def spec_from_json(source) -> LevyMeasureSpec:
    """Parse a measure spec from a JSON string, dict, or file path."""
    if isinstance(source, dict):
        obj = source
    else:
        text = source
        if hasattr(source, "read"):
            text = source.read()
        elif isinstance(text, str) and not text.lstrip().startswith(("{", "[")):
            try:
                with open(text) as fh:
                    text = fh.read()
            except OSError as exc:
                raise InvalidParameter(f"cannot read spec file {text!r}: {exc}") from exc
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParameter(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InvalidParameter("spec must be a JSON object with a 'kind' field")
    kind = obj["kind"]
    if kind == "tilted_power":
        for key in ("c", "alpha", "beta"):
            if key not in obj:
                raise InvalidParameter(f"tilted_power spec is missing field {key!r}")
        return LevyMeasureSpec.tilted_power(
            _finite_number(obj, "c"), _finite_number(obj, "alpha"),
            _finite_number(obj, "beta"))
    if kind == "tabulated":
        for key in ("points", "left_exponent", "tilt_rate"):
            if key not in obj:
                raise InvalidParameter(f"tabulated spec is missing field {key!r}")
        pts = obj["points"]
        if (not isinstance(pts, list)
                or any(not isinstance(p, list) or len(p) != 2 for p in pts)):
            raise InvalidParameter("field 'points' must be a list of [xi, density] pairs")
        for xi, d in pts:
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and math.isfinite(v) for v in (xi, d)):
                raise InvalidParameter(f"field 'points' contains a non-finite entry [{xi}, {d}]")
        return LevyMeasureSpec.tabulated(
            [(float(xi), float(d)) for xi, d in pts],
            _finite_number(obj, "left_exponent"), _finite_number(obj, "tilt_rate"))
    raise InvalidParameter(f"field 'kind' must be 'tilted_power' or 'tabulated', got {kind!r}")


def spec_to_json(spec: LevyMeasureSpec) -> dict:
    """Serialize a spec to the JSON schema used by the CLI."""
    if spec.kind == "tilted_power":
        return {"kind": "tilted_power", "c": spec.c, "alpha": spec.alpha, "beta": spec.beta}
    return {"kind": "tabulated",
            "points": [[x, d] for x, d in spec.points],
            "left_exponent": spec.left_exponent,
            "tilt_rate": spec.tilt_rate}
