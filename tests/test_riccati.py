import math
import struct
import sys
import time
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate

import oracle
from jumplm import measure, riccati, simulate
from jumplm.errors import (DivergentIntegral, DomainError, JumplmError,
                           NonIntegrableTail, QuadratureFailure)


def closed_g(t, u):
    """Closed-form flow for the reference alpha = 3/2 measure."""
    w = 1.0 - math.sqrt(1.0 - u)
    return 1.0 - (w * math.exp(-t / 2.0) - 1.0) ** 2


def closed_minimal(alpha, t):
    return 1.0 - (1.0 - math.exp((alpha - 2.0) * t)) ** (1.0 / (2.0 - alpha))


def test_solver_matches_closed_form(ref_spec):
    for u in (-1.0, 0.0, 0.5, 0.9):
        sol = riccati.solve(ref_spec, u, 10.0)
        for t in np.linspace(0.0, 10.0, 31):
            assert abs(float(sol(t)) - closed_g(float(t), u)) <= 1e-8
        assert sol.max_residual <= 1e-6


def test_solver_trivial_cases(ref_spec):
    sol = riccati.solve(ref_spec, 0.0, 5.0)
    assert float(sol(3.0)) == pytest.approx(0.0, abs=1e-12)
    sol0 = riccati.solve(ref_spec, 0.7, 0.0)
    assert float(sol0(0.0)) == 0.7


def test_solver_rejects_bad_inputs(ref_spec):
    with pytest.raises(DomainError):
        riccati.solve(ref_spec, 1.0, 1.0)
    with pytest.raises(DomainError):
        riccati.solve(ref_spec, 0.5, -1.0)


def test_semigroup_property(ref_spec):
    s, t, u = 0.7, 1.9, 0.4
    whole = riccati.solve(ref_spec, u, s + t)
    first = riccati.solve(ref_spec, u, s)
    second = riccati.solve(ref_spec, float(first(s)), t)
    assert float(whole(s + t)) == pytest.approx(float(second(t)), abs=1e-9)


def test_minimal_solution_closed_form():
    for alpha in (1.25, 1.5, 1.75):
        spec = measure.LevyMeasureSpec.tilted_power(
            measure.gamma_constant(alpha), alpha, 1.0)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            got = riccati.minimal_solution(spec, t)
            assert abs(got - closed_minimal(alpha, t)) <= 1e-6


def test_minimal_solution_special_values(ref_spec):
    assert riccati.minimal_solution(ref_spec, 0.0) == 1.0
    t = 2.0 * math.log(2.0)
    assert riccati.minimal_solution(ref_spec, t) == pytest.approx(0.75, abs=1e-9)


def test_minimal_solution_above_bracket():
    # g_-(t) above 1 - 1e-13 keeps its own value to the last bits
    gap = 1e-15
    for alpha, ts in ((1.9, (0.1, 0.3)),
                      (1.95, (0.3, 1.0, 2.0 * math.log(2.0), 3.0, 5.0))):
        spec = measure.LevyMeasureSpec.tilted_power(
            measure.gamma_constant(alpha), alpha, 1.0)
        for t in ts:
            got = riccati.minimal_solution(spec, t)
            assert abs(got - closed_minimal(alpha, t)) <= gap


def test_time_map_inverts_minimal(ref_spec):
    for t in (0.3, 1.0, 2.5):
        g = riccati.minimal_solution(ref_spec, t)
        assert riccati.time_map(ref_spec, g) == pytest.approx(t, abs=1e-9)


def test_time_map_diverges_for_true_martingale(tabulated_spec):
    with pytest.raises(DivergentIntegral):
        riccati.time_map(tabulated_spec, 0.5)


def test_classifier_strict_family():
    for alpha in (1.1, 1.25, 1.5, 1.75, 1.9):
        spec = measure.LevyMeasureSpec.tilted_power(
            measure.gamma_constant(alpha), alpha, 1.0)
        cls = riccati.classify(spec)
        assert cls.verdict == riccati.STRICT
        assert math.isfinite(cls.osgood_value)


def test_classifier_true_martingale(tabulated_spec):
    cls = riccati.classify(tabulated_spec)
    assert cls.verdict == riccati.TRUE_MARTINGALE
    assert cls.exponent_estimate == pytest.approx(1.0, abs=0.02)


def test_classifier_total_near_beta_one():
    # just above beta = 1 the fit grid sees p < 1 but R is linear at 1:
    # the verdict is still TrueMartingale, and nothing raises
    for alpha in (0.5, 1.0001, 1.2, 1.5, 1.9):
        for beta in (1.0001, 1.001, 1.003):
            spec = measure.LevyMeasureSpec.tilted_power(1.0, alpha, beta)
            assert riccati.classify(spec).verdict == riccati.TRUE_MARTINGALE
    for c, beta in ((0.7, 1.5), (0.3, 1.01)):
        spec = measure.LevyMeasureSpec.tilted_power(c, 1.0, beta)
        assert riccati.classify(spec).verdict == riccati.TRUE_MARTINGALE


def test_classifier_quadrature_failure_keeps_verdict():
    # R(1 - z) does not converge on the fit grid for this validated spec:
    # the exponent fields are NaN, and the verdict is the theorem's
    spec = measure.LevyMeasureSpec.tilted_power(1.0, 0.1, 1.0 + 1e-6)
    cls = riccati.classify(spec)
    assert cls.verdict == riccati.TRUE_MARTINGALE
    assert cls.osgood_value == math.inf
    assert math.isnan(cls.exponent_estimate)
    assert math.isnan(cls.exponent_stderr)


def _valid(spec):
    try:
        measure.validate(spec)
    except JumplmError:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(c=st.floats(min_value=1e-2, max_value=1e2),
       alpha=st.floats(min_value=0.0, max_value=2.0, exclude_min=True,
                       exclude_max=True),
       beta=st.just(1.0) | st.floats(min_value=1.0, max_value=3.0,
                                     exclude_min=True))
@example(c=1.0, alpha=0.5, beta=1.0 + 1e-6)
@example(c=1.0, alpha=0.9, beta=1.0 + 1e-5)
@example(c=1.0, alpha=0.1, beta=1.0 + 1e-6)
def test_classifier_is_the_theorem_property(c, alpha, beta):
    # Strict exactly when beta = 1 and 1 < alpha < 2, with no exception
    # and in well under the tens of seconds an Osgood quadrature over a
    # quadrature R once took near beta = 1
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, beta)
    assume(_valid(spec))
    started = time.perf_counter()
    verdict = riccati.classify.__wrapped__(spec).verdict
    assert time.perf_counter() - started < 2.0
    strict = beta == 1.0 and 1.0 < alpha < 2.0
    assert verdict == (riccati.STRICT if strict else riccati.TRUE_MARTINGALE)


def _both_fits(spec, log=None):
    """(p, stderr) of the numpy oracle's fit and of riccati's, as bytes, on
    the same values of R; "QuadratureFailure" for a fit that raises it.
    With log, riccati's fit takes its logarithms from it."""
    r = measure.r_callables(spec)[0]
    memo = {}

    def once(u):
        # the oracle hands R a numpy float: each 1 - z is evaluated once
        u = float(u)
        if u not in memo:
            memo[u] = r(u)
        return memo[u]

    own = types.SimpleNamespace(**{**vars(math), "log": log or math.log})
    out = []
    with mock.patch.object(riccati, "math", own):
        for fit in (oracle._fit_exponent, riccati._fit_exponent):
            try:
                out.append(struct.pack("<2d", *fit(once)))
            except QuadratureFailure:
                out.append("QuadratureFailure")
    return out


@settings(max_examples=60, deadline=None)
@given(c=st.floats(min_value=1e-2, max_value=1e2),
       alpha=st.floats(min_value=1.0, max_value=2.0, exclude_min=True,
                       exclude_max=True),
       beta=st.just(1.0) | st.floats(min_value=1.0, max_value=3.0))
@example(c=1.0, alpha=2.0 - 4e-16, beta=2.0)
@example(c=2.375, alpha=1.0000000000000002, beta=2.5)
def test_fit_exponent_is_numpys_property(c, alpha, beta):
    # the plain-Python fit is numpy's least squares operation for
    # operation: given numpy's logarithms it returns the numpy fit's bits,
    # or raises where that raises.  Its own logarithms are libm's, which
    # numpy's SIMD log on an AVX-512 host differs from by an ulp on about
    # 1 argument in 1,000: there p or stderr can move in its last digits
    # (c = 2.375, alpha = 1 + 2^-52, beta = 2.5 is such a spec)
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, beta)
    assume(_valid(spec))
    old, new = _both_fits(spec, log=lambda v: float(np.log(v)))
    assert new == old


def test_fit_exponent_is_numpys_on_the_fixtures(ref_spec, tabulated_spec):
    # with its own logarithms, on the pinned specs
    for spec in (ref_spec, tabulated_spec):
        old, new = _both_fits(spec)
        assert isinstance(new, bytes) and new == old
    # the quadrature R cancels near alpha = 2: both fits raise
    near_two = measure.LevyMeasureSpec.tilted_power(1.0, 2.0 - 4e-16, 2.0)
    assert _both_fits(near_two) == ["QuadratureFailure"] * 2


def test_classify_needs_no_numpy(ref_spec, monkeypatch):
    # with numpy unimportable, classify still gives the pinned bits
    monkeypatch.setitem(sys.modules, "numpy", None)
    cls = riccati.classify.__wrapped__(ref_spec)
    assert (cls.verdict, cls.osgood_value, cls.exponent_estimate,
            cls.exponent_stderr) == GOLDEN_CLASSIFY["ref"]


def test_minimal_branch_vs_near_one_initial(ref_spec):
    # solutions started just below 1 collapse onto the minimal branch
    sol = riccati.solve(ref_spec, 1.0 - 1e-8, 1.0)
    assert abs(float(sol(1.0)) - riccati.minimal_solution(ref_spec, 1.0)) <= 1e-4


def test_expected_value_and_defect(ref_spec):
    t = 2.0 * math.log(2.0)
    ev = riccati.expected_value(ref_spec, 1.0, t, 1.0)
    assert ev == pytest.approx(math.exp(0.75), rel=1e-9)
    defect = riccati.martingale_defect(ref_spec, 1.0, t)
    assert defect == pytest.approx(math.e - math.exp(0.75), rel=1e-9)
    assert defect > 0.0


def test_defect_vanishes_for_true_martingale(tabulated_spec):
    assert riccati.martingale_defect(tabulated_spec, 1.0, 2.0) == 0.0


def test_expected_value_rejects_u_above_one(ref_spec):
    with pytest.raises(DomainError):
        riccati.expected_value(ref_spec, 1.0, 1.0, 1.5)


@pytest.mark.parametrize("u", [0.0, 0.5, 1.0])
def test_expected_value_rejects_infinite_x0(ref_spec, u):
    # exp(x0 g) at x0 = inf is NaN at u = 0, where g = 0, and inf or 0
    # elsewhere
    with pytest.raises(DomainError, match="^x0 must be finite, got inf$"):
        riccati.expected_value(ref_spec, math.inf, 1.0, u)


@settings(max_examples=20, deadline=None)
@given(u=st.floats(min_value=-2.0, max_value=0.95),
       t=st.floats(min_value=0.01, max_value=8.0))
def test_solution_matches_closed_form_property(u, t):
    spec = measure.reference_spec()
    sol = riccati.solve(spec, u, t)
    assert abs(float(sol(t)) - closed_g(t, u)) <= 1e-7


STRICT_SPEC = dict(
    c=st.floats(min_value=1e-2, max_value=50.0),
    alpha=st.floats(min_value=1.01, max_value=1.99, exclude_min=True,
                    exclude_max=True),
    u0=st.floats(min_value=-50.0, max_value=0.999),
    t=st.floats(min_value=0.0, max_value=10.0))


@settings(max_examples=40, deadline=None)
@given(**STRICT_SPEC)
@example(c=50.0, alpha=1.989, u0=-50.0, t=10.0)
@example(c=1e-2, alpha=1.011, u0=0.999, t=1e-300)
def test_closed_flow_matches_solve_property(c, alpha, u0, t):
    # expected_value's closed-form flow on a random Strict spec against
    # the Runge-Kutta solve (rtol 1e-10 per step), within 1e-8 relative;
    # from u0 = 1 the same formula is the minimal branch, to the bit
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, 1.0)
    want = math.exp(float(riccati.solve(spec, u0, t)(t)))
    assert riccati.expected_value(spec, 1.0, t, u0) == pytest.approx(
        want, rel=1e-8)
    closed = measure._closed_form(spec)
    assert (riccati._closed_flow(closed, 1.0, t)
            == riccati.minimal_solution(spec, t))


@settings(max_examples=60, deadline=None)
@given(k=st.floats(min_value=1e-3, max_value=1e6), **STRICT_SPEC)
@example(k=1e6, c=50.0, alpha=1.989, u0=-50.0, t=10.0)
def test_scaling_identity_property(k, c, alpha, u0, t):
    # R is linear in the measure, so the flow on k mu at t is the flow on
    # mu at k t: the closed forms agree to 1e-12 relative, and scaling
    # leaves the verdict alone
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, 1.0)
    scaled = spec.scaled(k)
    assert riccati.classify(scaled).verdict == riccati.STRICT
    assert riccati.expected_value(scaled, 1.0, t, u0) == pytest.approx(
        riccati.expected_value(spec, 1.0, k * t, u0), rel=1e-12)


@pytest.mark.parametrize("u", [-50.0, 0.999999])
def test_expected_value_on_stiff_spec(u):
    # R of this spec is 1e6 times that of a unit one: the Runge-Kutta solve
    # takes minutes and millions of steps here, the closed form neither
    spec = measure.LevyMeasureSpec.tilted_power(1e6, 1.99, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        started = time.perf_counter()
        value = riccati.expected_value(spec, 1.0, 5.0, u)
        assert time.perf_counter() - started < 0.1
    assert math.isfinite(value)


@settings(max_examples=15, deadline=None)
@given(t1=st.floats(min_value=0.1, max_value=3.0),
       t2=st.floats(min_value=0.1, max_value=3.0))
def test_minimal_solution_monotone_property(t1, t2):
    spec = measure.reference_spec()
    lo, hi = sorted((t1, t2))
    if hi - lo > 1e-6:
        assert riccati.minimal_solution(spec, hi) < riccati.minimal_solution(spec, lo)


# 17-digit outputs of the analytic layer, pinned exactly: a refactor of how
# R is evaluated must not move a single bit
GOLDEN_CLASSIFY = {
    "ref": ("Strict", 2.4558943545990317, 0.4905038896308364, 0.0021805482164464827),
    "tab": ("TrueMartingale", math.inf, 0.9985019933371406, 0.0005541457486091136),
}
# solve(spec, 0.5, 1.0): g(1), g(1/4), max_residual, steps_taken
GOLDEN_SOLVE = {
    "ref": (0.32373836773305836, 0.45014417194686096, 4.151290866616364e-09, 12),
    "tab": (0.41955714146735223, 0.47932112952251493, 8.39035674271571e-10, 5),
}
GOLDEN_MINIMAL = {0.5: 0.9510709064301763, 1.0: 0.8451818782538245,
                  2.0 * math.log(2.0): 0.75, 3.0: 0.3964732519289957}


def test_golden_analytic_outputs(ref_spec, tabulated_spec):
    specs = {"ref": ref_spec, "tab": tabulated_spec}
    for name, spec in specs.items():
        cls = riccati.classify.__wrapped__(spec)
        assert (cls.verdict, cls.osgood_value, cls.exponent_estimate,
                cls.exponent_stderr) == GOLDEN_CLASSIFY[name]
        sol = riccati.solve(spec, 0.5, 1.0)
        assert (float(sol(1.0)), float(sol(0.25)), sol.max_residual,
                sol.steps_taken) == GOLDEN_SOLVE[name]
    for t, g in GOLDEN_MINIMAL.items():
        assert riccati.minimal_solution(ref_spec, t) == g
    assert riccati.minimal_solution(tabulated_spec, 1.0) == 1.0


def test_residual_is_computed_on_first_read(tabulated_spec, monkeypatch):
    # every R of a tabulated spec is a quadrature: the ODE makes a few dozen
    # calls, the residual diagnostic 200 more, and only a read of
    # max_residual pays for those
    calls = []
    r_function = measure.r_function

    def counting(*args, **kwargs):
        calls.append(args)
        return r_function(*args, **kwargs)

    monkeypatch.setattr(measure, "r_function", counting)
    ode = integrate.solve_ivp(
        lambda t, y: [measure.r_function(tabulated_spec, y[0])], (0.0, 1.0),
        [0.5], method="RK45", rtol=riccati._TOL, atol=riccati._TOL * 1e-2)
    calls.clear()
    riccati.expected_value(tabulated_spec, 1.0, 1.0, 0.5)
    assert 0 < len(calls) <= ode.nfev < 200
    sol = riccati.solve(tabulated_spec, 0.5, 1.0)
    before = len(calls)
    assert sol.max_residual == GOLDEN_SOLVE["tab"][2]
    assert len(calls) == before + 200
    assert sol.max_residual == GOLDEN_SOLVE["tab"][2]
    assert len(calls) == before + 200


@settings(max_examples=25, deadline=None)
@given(u0=st.floats(min_value=-2.0, max_value=1.0, exclude_max=True),
       t_end=st.floats(min_value=0.0, max_value=5.0, exclude_min=True))
@example(u0=-2.0, t_end=5e-324)
@example(u0=0.5, t_end=2e-321)
def test_lazy_residual_matches_eager_formula(u0, t_end):
    # the eager residual solve used to compute, written out: the lazy one
    # must give the same bits, and a finite value with no warning where
    # t_end / 1000 underflows to 0 and the step is the smallest float
    spec = measure.reference_spec()
    sol = riccati.solve(spec, u0, t_end)
    r, _ = measure.r_callables(spec)
    grid = np.linspace(0.0, t_end, 201)
    h = min(1e-4, t_end / 1000.0) or math.ulp(0.0)
    mids = 0.5 * (grid[:-1] + grid[1:])
    deriv = (sol(mids + h) - sol(mids - h)) / (2.0 * h)
    want = float(np.max(np.abs(deriv - [r(g) for g in sol(mids)])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sol.max_residual
    assert math.isfinite(got)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def stable_minimal(spec, t):
    """g_-(t) of a Strict tilted power, s = c/C(alpha):
    1 - g_-(t) = (1 - e^(-(2-alpha) s t))^(1/(2-alpha)), written without
    the cancellation of forming 1 - (...) near 0."""
    a = spec.alpha
    s = spec.c / measure.gamma_constant(a)
    return -math.expm1(math.log1p(-math.exp(-(2.0 - a) * s * t)) / (2.0 - a))


# g_-(t) below about 1e-10, where R(1 - z) cancels for z near 1
TINY_G = [(measure.reference_spec(), 50.0),
          (measure.LevyMeasureSpec.tilted_power(10.0, 1.5, 1.0),
           2.0 * math.log(2.0)),
          (measure.LevyMeasureSpec.tilted_power(20.0, 1.75, 1.0), 1.0)]


def test_stable_minimal_is_the_oracle(ref_spec):
    got = riccati.minimal_solution(ref_spec, 20.0)
    assert abs(got - stable_minimal(ref_spec, 20.0)) <= 1e-6 * got


@pytest.mark.parametrize("spec, t", TINY_G)
def test_minimal_solution_below_1e_10(spec, t):
    want = stable_minimal(spec, t)
    assert abs(riccati.minimal_solution(spec, t) - want) <= 1e-6 * want


def test_minimal_solution_at_the_ends(ref_spec):
    # g_- within an ulp of 1, and past the underflow of e^(-q s t); below
    # t ~ 1e-16, e^(-q s t) rounds to 1, and g_- is 1 with no ValueError
    assert riccati.minimal_solution(ref_spec, 1e-12) == 1.0
    assert riccati.minimal_solution(ref_spec, 1e-300) == 1.0
    assert riccati.minimal_solution(ref_spec, 1e4) == 0.0


@settings(max_examples=40, deadline=None)
@given(c=st.floats(min_value=1e-2, max_value=1e2),
       alpha=st.floats(min_value=1.05, max_value=1.95),
       g=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
@example(c=measure.gamma_constant(1.5), alpha=1.5, g=0.75)
def test_time_map_inverts_closed_form_property(c, alpha, g):
    # the quadrature of -int du/R(u) against the closed-form g_-: t is
    # chosen so that g_-(t) is g, then g_-(t) is mapped back to t
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, 1.0)
    q, s = 2.0 - alpha, c / measure.gamma_constant(alpha)
    t = -math.log1p(-(1.0 - g) ** q) / (s * q)
    back = riccati.time_map(spec, riccati.minimal_solution(spec, t))
    assert back == pytest.approx(t, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=1.95, max_value=2.0, exclude_max=True))
@example(alpha=1.999)
@example(alpha=1.9995)
@example(alpha=1.9999)
def test_time_map_agrees_or_raises_near_alpha_2(alpha):
    # the mass of -int du/R(u) moves below 1 - u = 1e-250 as alpha -> 2;
    # the quadrature either resolves it or says it cannot, judged by the
    # integrand alone, never by the closed form it is checked against here
    spec = measure.LevyMeasureSpec.tilted_power(1.0, alpha, 1.0)
    try:
        got = riccati.time_map(spec, 0.5)
    except QuadratureFailure:
        return
    assert got == pytest.approx(riccati.classify(spec).osgood_value,
                                rel=1e-8)


@pytest.mark.parametrize("call", [
    lambda spec: riccati.solve(spec, 0.5, math.nan),
    lambda spec: riccati.solve(spec, 0.5, math.inf),
    lambda spec: riccati.solve(spec, math.nan, 1.0),
    lambda spec: riccati.minimal_solution(spec, math.nan),
    lambda spec: riccati.expected_value(spec, 1.0, math.nan, 0.5),
    lambda spec: riccati.expected_value(spec, 1.0, math.nan, 1.0),
    lambda spec: riccati.expected_value(spec, 1.0, 0.0, math.nan),
], ids=["solve-nan", "solve-inf", "solve-u0-nan", "minimal-nan",
        "expected-nan", "expected-nan-at-1", "expected-u-nan-at-0"])
def test_non_finite_horizons_raise_domain_error(ref_spec, call):
    # a NaN horizon, and an infinite one for the ODE, is no time to
    # integrate to, and a NaN u no moment to take, even at t = 0; it
    # neither hangs nor gives a number
    with pytest.raises(DomainError):
        call(ref_spec)


def test_one_quadrature_callers_load_no_kernel(ref_spec, tabulated_spec,
                                               monkeypatch):
    # classify and minimal_solution are closed forms, time_map one
    # quadrature in Python: none of them builds or loads the kernel
    def forbidden(*args, **kwargs):
        raise AssertionError("kernel used")

    monkeypatch.setattr(simulate, "_kernel", forbidden)
    true_power = measure.LevyMeasureSpec.tilted_power(1.0, 1.5, 2.0)
    for spec in (tabulated_spec, true_power):
        assert riccati.minimal_solution(spec, 1.0) == 1.0
    assert riccati.minimal_solution(ref_spec, 0.0) == 1.0
    assert riccati.minimal_solution(ref_spec, 1.0) == GOLDEN_MINIMAL[1.0]
    assert (riccati.classify.__wrapped__(ref_spec).osgood_value
            == GOLDEN_CLASSIFY["ref"][1])
    assert riccati.time_map(ref_spec, 0.75) == pytest.approx(2.0 * math.log(2.0),
                                                             rel=1e-9)


# time_map(ref_spec, x) at x = 1/4, 1/2 and 3/4, to the bit
GOLDEN_TIME_MAP = {0.25: 4.020210154969527, 0.5: 2.455894354599031,
                   0.75: 1.3862943611198904}


def test_strict_is_decided_without_classify(ref_spec, tabulated_spec,
                                            monkeypatch):
    # minimal_solution and time_map read Strict off measure._closed_form of
    # the validated spec: classify and its exponent fit are not consulted
    def forbidden(spec):
        raise AssertionError("classify called")

    monkeypatch.setattr(riccati, "classify", forbidden)
    for t, g in GOLDEN_MINIMAL.items():
        assert riccati.minimal_solution(ref_spec, t) == g
    for x, t in GOLDEN_TIME_MAP.items():
        assert riccati.time_map(ref_spec, x) == t
    assert riccati.minimal_solution(tabulated_spec, 1.0) == 1.0
    with pytest.raises(DivergentIntegral, match="^time map diverges: "
                       "measure classified TrueMartingale$"):
        riccati.time_map(tabulated_spec, 0.5)
    not_valid = measure.LevyMeasureSpec.tilted_power(1.0, 1.5, 0.5)
    for call in (riccati.minimal_solution, riccati.time_map):
        with pytest.raises(NonIntegrableTail) as raised:
            call(not_valid, 0.5)
        assert str(raised.value) == ("int_1^inf e^xi mu(dxi) diverges for "
                                     "beta=0.5 < 1")


def test_time_zero_still_validates_the_spec(ref_spec):
    # at t = 0 the flow is its initial value, yet a spec with no
    # exponential moment is refused there as at t > 0; argument errors
    # still come first
    bad = measure.LevyMeasureSpec.tilted_power(1.0, 0.5, 0.5)
    why = "int_1^inf e^xi mu(dxi) diverges for beta=0.5 < 1"
    for t in (0.0, 0.1):
        for call in (lambda: riccati.expected_value(bad, 1.0, t, 0.5),
                     lambda: riccati.solve(bad, 0.5, t)):
            with pytest.raises(NonIntegrableTail) as raised:
                call()
            assert str(raised.value) == why
    with pytest.raises(DomainError, match="exponential moment undefined"):
        riccati.expected_value(bad, 1.0, 0.0, 2.0)
    with pytest.raises(DomainError, match="solve requires u0 < 1"):
        riccati.solve(bad, 1.5, 0.0)
    assert riccati.expected_value(ref_spec, 1.0, 0.0, 0.5) == math.exp(0.5)
    assert riccati.solve(ref_spec, 0.5, 0.0)(0.0) == 0.5
