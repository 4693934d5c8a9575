import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, special, stats

from jumplm import measure
from jumplm.errors import (
    DomainError,
    InvalidParameter,
    NonIntegrableTail,
)

SQRT_PI = math.sqrt(math.pi)


def test_gamma_constant_half():
    assert measure.gamma_constant(1.5) == pytest.approx(1.0 / (2.0 * SQRT_PI),
                                                        rel=1e-14)


def test_gamma_constant_rejects_out_of_range():
    with pytest.raises(DomainError):
        measure.gamma_constant(2.0)
    with pytest.raises(DomainError):
        measure.gamma_constant(0.9)


def test_reference_moments(ref_spec):
    mom = measure.validate(ref_spec)
    assert mom.m1 == pytest.approx(0.5, rel=1e-12)
    assert mom.b == pytest.approx(0.5, rel=1e-12)


def test_closed_form_b_matches_quadrature():
    # beta = 2 exercises the general (beta - 1)^{alpha-1} term
    spec = measure.LevyMeasureSpec.tilted_power(0.7, 1.4, 2.0)
    mom = measure.validate(spec)
    quad_b = measure.integrate_against(
        spec, lambda xi: math.expm1(xi) - xi,
        tail_terms=[(1.0, 1.0), (lambda xi: -1.0 - xi, 0.0)])
    quad_m1 = measure.integrate_against(spec, lambda xi: xi)
    assert mom.b == pytest.approx(quad_b, rel=1e-9)
    assert mom.m1 == pytest.approx(quad_m1, rel=1e-9)


def test_alpha_one_limits_match_quadrature():
    # alpha = 1: m1 = c/beta, b = c*(ln(beta/(beta-1)) - 1/beta) and
    # Lambda(eps) = c*E1(beta*eps), the limits of the alpha != 1 forms
    for c, beta in ((0.7, 1.5), (0.3, 1.01)):
        spec = measure.LevyMeasureSpec.tilted_power(c, 1.0, beta)
        mom = measure.validate(spec)
        assert mom.m1 == c / beta
        quad_b = measure.integrate_against(
            spec, lambda xi: math.expm1(xi) - xi,
            tail_terms=[(1.0, 1.0), (lambda xi: -1.0 - xi, 0.0)])
        assert mom.b == pytest.approx(quad_b, rel=1e-12)
        assert mom.m1 == pytest.approx(
            measure.integrate_against(spec, lambda xi: xi), rel=1e-12)
    # the explosive side runs on beta < 1, where validate does not apply
    for beta in (0.5, 1.5):
        spec = measure.LevyMeasureSpec.tilted_power(0.3, 1.0, beta)
        for eps in (1e-3, 0.1, 2.0):
            quad = measure.integrate_against(spec, lambda xi: 1.0, lower=eps)
            assert measure.tail_intensity(spec, eps) == pytest.approx(quad, rel=1e-12)


def test_nonintegrable_tails_rejected():
    with pytest.raises(NonIntegrableTail):
        measure.validate(measure.LevyMeasureSpec.tilted_power(1.0, 1.5, 0.5))
    with pytest.raises(NonIntegrableTail):
        measure.validate(measure.LevyMeasureSpec.tilted_power(1.0, 0.8, 1.0))


def test_r_closed_form_values(ref_spec):
    # R(u) = (1-u) - sqrt(1-u) for the reference normalization
    assert measure.r_function(ref_spec, 0.75) == pytest.approx(-0.25, abs=1e-14)
    assert measure.r_function(ref_spec, 0.0) == 0.0
    assert measure.r_function(ref_spec, 1.0) == 0.0


def test_r_quad_agrees_with_closed(ref_spec):
    for u in np.linspace(-3.0, 0.999, 41):
        closed = measure.r_function(ref_spec, float(u), method="closed")
        quad = measure.r_function(ref_spec, float(u), method="quad")
        assert abs(closed - quad) <= 1e-8


def test_r_negative_between_roots(ref_spec):
    for u in np.linspace(0.01, 0.99, 25):
        assert measure.r_function(ref_spec, float(u)) < 0.0


def test_r_convexity_and_slope(ref_spec):
    us = np.linspace(-3.0, 1.0 - 1e-3, 100)
    vals = np.array([measure.r_function(ref_spec, float(u)) for u in us])
    second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
    assert np.min(second) >= -1e-8
    b = measure.validate(ref_spec).b
    h = 1e-6
    slope0 = (measure.r_function(ref_spec, h)
              - measure.r_function(ref_spec, -h)) / (2.0 * h)
    assert slope0 == pytest.approx(-b, rel=1e-6)


def test_r_rejects_u_above_one(ref_spec):
    with pytest.raises(DomainError):
        measure.r_function(ref_spec, 1.1)


def test_tail_intensity_reference(ref_spec):
    # Lambda(1) = C(3/2) * Gamma(-1/2, 1)
    g_upper = math.gamma(0.5) * (1.0 - math.erf(1.0))
    gm_half = (g_upper - math.exp(-1.0)) / (-0.5)
    expect = (1.0 / (2.0 * SQRT_PI)) * gm_half
    assert measure.tail_intensity(ref_spec, 1.0) == pytest.approx(expect, rel=1e-12)


def test_small_jump_mean_reference(ref_spec):
    assert measure.small_jump_mean(ref_spec, 1.0) == pytest.approx(
        math.erf(1.0) / 2.0, rel=1e-12)


@settings(max_examples=300, deadline=None)
@example(s=0.0, x=1e-12)
@example(s=2.0 ** -52, x=700.0)
@example(s=0.5, x=1.0)
@example(s=2.0 - 2.0 ** -52, x=1e-12)
@given(s=st.one_of(st.just(0.0), st.floats(2.0 ** -52, 2.0, exclude_max=True)),
       x=st.floats(1e-12, 700.0))
def test_incomplete_gamma_matches_scipy(s, x):
    # 1e-12 relative wherever scipy's regularized value is a normal float;
    # at x = 700 scipy's own exp(s ln x - x - lgamma(s)) is good to ~1e-13
    if s == 0.0:
        assert measure._upper_gamma(0.0, x) == pytest.approx(
            special.exp1(x), rel=1e-12, abs=0.0)
        return
    g = math.gamma(s)
    q, p = special.gammaincc(s, x), special.gammainc(s, x)
    if q >= 1e-300:
        assert measure._upper_gamma(s, x) == pytest.approx(g * q, rel=1e-12,
                                                           abs=0.0)
    if p >= 1e-300:
        assert measure._lower_gamma(s, x) == pytest.approx(g * p, rel=1e-12,
                                                           abs=0.0)


# beta eps = 500 and 600: (1.2, 100, 6) evaluates the Gamma(-0.2, 600) of
# (1.2, 1, 600), whose eps lies past integrate_against's split at 30
@settings(max_examples=60, deadline=None)
@example(alpha=0.5, beta=100.0, eps=5.0)
@example(alpha=1.2, beta=100.0, eps=6.0)
@example(alpha=1.999, beta=0.1, eps=1e-4)
@example(alpha=1.0 + 1e-8, beta=6.7, eps=5.2)
@example(alpha=1.0, beta=100.0, eps=7.0)
@given(alpha=st.one_of(st.just(1.0), st.floats(0.01, 1.999),
                       st.floats(1.99, 1.999)),
       beta=st.floats(-1.0, 2.0).map(lambda v: 10.0 ** v),
       eps=st.floats(-4.0, math.log10(7.0)).map(lambda v: 10.0 ** v))
def test_truncation_functions_match_quadrature(alpha, beta, eps):
    # beta eps reaches 700, where the recurrence from Gamma(2 - alpha, x)
    # to Gamma(1 - alpha, x) would cancel.  Lambda is scaled to 1 (by c)
    # so that integrate_against's absolute tolerance does not set its
    # error.  m is checked against QUADPACK's rule for the weight
    # xi^(1-alpha) (QAWS), which takes the power at 0 exactly:
    # integrate_against, asked for 1e-11, resolves it only to about 1e-12
    # (3e-11 at the alpha = 1 + 1e-8 example)
    spec = measure.LevyMeasureSpec.tilted_power(1.0, alpha, beta)
    scaled = spec.scaled(1.0 / measure.tail_intensity(spec, eps))
    assert measure.tail_intensity(scaled, eps) == pytest.approx(
        measure.integrate_against(scaled, lambda xi: 1.0, lower=eps),
        rel=1e-12, abs=0.0)
    quad = integrate.quad(lambda xi: math.exp(-beta * xi), 0.0, eps,
                          weight="alg", wvar=(1.0 - alpha, 0.0), epsabs=0.0,
                          epsrel=1e-13, full_output=True)[0]
    assert measure.small_jump_mean(spec, eps) == pytest.approx(
        quad, rel=1e-12, abs=0.0)


# the first two used to cancel between [30, lower] and [30, inf): 3.27e-20
# for Lambda(40) = 4.93e-20, and -1.8e-17 at 600
@settings(max_examples=60, deadline=None)
@example(c=1.0, alpha=1.2, beta=1.0, lower=40.0)
@example(c=1.0, alpha=1.2, beta=1.0, lower=600.0)
@example(c=1.0, alpha=1.5, beta=1.0, lower=30.0)
@example(c=2.6, alpha=1.68, beta=0.079, lower=632.6)
@given(c=st.floats(-1.0, 1.0).map(lambda v: 10.0 ** v),
       alpha=st.floats(0.01, 1.999),
       beta=st.floats(0.05, 1.0),
       lower=st.floats(30.0, 700.0))
def test_far_tail_quadrature_matches_closed_form(c, alpha, beta, lower):
    # from lower = 30 on, integrate_against takes [lower, inf) in one piece
    # to its relative tolerance, 1e-11: Lambda, unscaled, lies far below
    # the absolute one, 1e-13, there.  Lambda past the normal doubles is
    # not checked
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, beta)
    lam = measure.tail_intensity(spec, lower)
    assume(lam > 1e-290)
    assert measure.integrate_against(spec, lambda xi: 1.0, lower=lower) == \
        pytest.approx(lam, rel=1e-11, abs=0.0)


def test_tabulated_tail_intensity_past_30():
    # past its last point, 8, the table's density is 2^-8 e^(-2 (xi - 8)),
    # so Lambda(40) = 2^-9 e^-64; it used to come out as -9.0e-29
    spec = measure.LevyMeasureSpec.tabulated(
        [(x, 2.0 ** -x) for x in (0.5, 1.0, 2.0, 4.0, 8.0)], 0.0, 2.0)
    lam = measure.tail_intensity(spec, 40.0)
    assert lam > 0.0
    assert lam == pytest.approx(2.0 ** -9 * math.exp(-64.0), rel=1e-9, abs=0.0)


def test_untilted_truncation_functions():
    untilted = measure.untilted_spec(measure.reference_spec())
    assert untilted.beta == 0.0
    assert measure.tail_intensity(untilted, 1e-4) == pytest.approx(
        100.0 / SQRT_PI, rel=1e-12)
    assert measure.small_jump_mean(untilted, 1e-4) == pytest.approx(
        0.01 / SQRT_PI, rel=1e-12)
    # m(eps) hits 1 exactly at eps = pi
    assert measure.small_jump_mean(untilted, math.pi) == pytest.approx(1.0, rel=1e-12)


def test_lemma_residuals_small():
    for alpha in (1.2, 1.5, 1.8):
        for u in (-1.0, 0.5, 1.0):
            assert measure.lemma_a1_residual(alpha, u) <= 1e-8
        assert measure.gamma2_residual(alpha) <= 1e-8


def test_tilt_round_trip(ref_spec):
    assert measure.tilted_spec(measure.untilted_spec(ref_spec)) == ref_spec


def test_harmonic_residual():
    untilted = measure.untilted_spec(measure.reference_spec())
    assert measure.harmonic_residual(untilted) <= 1e-10
    # doubling the measure breaks the harmonicity normalization
    assert measure.harmonic_residual(untilted.scaled(2.0)) == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("c,alpha", [(10.0, 1.5), (0.05, 1.2), (3.0, 1.3),
                                     (1.0, 1.9)])
def test_dual_decay_matches_quadrature(c, alpha):
    # H = int (1 - e^-xi) mu~(dxi) on the dual of tilted_power(c, alpha, 1)
    # is c/C(alpha); on a tilted power it is c Gamma(1-a) (b^(a-1) -
    # (b+1)^(a-1)), which the quadrature meets to its own accuracy
    dual = measure.LevyMeasureSpec.tilted_power(c, alpha, 0.0)
    quad = measure.integrate_against(dual, lambda xi: -math.expm1(-xi))
    assert measure.dual_decay(dual) == c / measure.gamma_constant(alpha)
    assert measure.dual_decay(dual) == pytest.approx(quad, rel=1e-9)
    tilted = measure.LevyMeasureSpec.tilted_power(c, alpha, 0.5)
    assert measure.dual_decay(tilted) == pytest.approx(
        measure.integrate_against(tilted, lambda xi: -math.expm1(-xi)),
        rel=1e-12)
    assert measure.dual_decay(tilted) == pytest.approx(
        c * math.gamma(1.0 - alpha) * (0.5 ** (alpha - 1.0) - 1.5 ** (alpha - 1.0)),
        rel=1e-13)


@pytest.mark.parametrize("c,alpha,beta", [(1.0, 1.3, 200.0), (1.0, 0.5, 3.0),
                                          (1.0, 1.0, 2.0), (2.0, 1.9, 0.01),
                                          (5.0, 1.99, 1e-3), (0.7, 1.3, 1.0)])
def test_dual_decay_closed_form_on_tilted_powers(c, alpha, beta):
    # the closed form needs no scipy, so an explosive run on a tilted
    # power's dual loads none; it meets the quadrature, c log1p(1/beta) at
    # alpha = 1
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, beta)
    assert measure.dual_decay(spec) == pytest.approx(
        measure.integrate_against(spec, lambda xi: -math.expm1(-xi)),
        rel=1e-12)
    if alpha == 1.0:
        assert measure.dual_decay(spec) == c * math.log1p(1.0 / beta)


def test_dual_decay_has_no_cancellation_near_alpha_one():
    # the naive difference of powers loses about 8 digits at 1 +- 1e-8;
    # the values are mpmath's at 50 digits
    for alpha, beta, want in ((1.0 + 1e-8, 1.0, 0.6931471869631646),
                              (1.0 - 1e-8, 0.3, 1.4663370672330776)):
        spec = measure.LevyMeasureSpec.tilted_power(1.0, alpha, beta)
        assert measure.dual_decay(spec) == pytest.approx(want, rel=4e-16)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_dual_decay_diverges_on_an_untilted_power_below_one(alpha):
    with pytest.raises(DomainError, match="diverges"):
        measure.dual_decay(measure.LevyMeasureSpec.tilted_power(1.0, alpha, 0.0))


def test_dual_decay_is_one_on_the_reference_dual():
    # so the reference's dual keeps its decay 1 - m(eps) to the bit
    untilted = measure.untilted_spec(measure.reference_spec())
    assert measure.dual_decay(untilted) == 1.0


def test_htransform_generator_residuals():
    for name in measure.TEST_FUNCTIONS:
        for x in (0.3, 0.7, 1.2, 2.0, 3.5):
            assert measure.htransform_generator_residual(x, name) <= 1e-6


def test_jump_sampler_distribution(ref_spec):
    eps = 0.5
    lam = measure.tail_intensity(ref_spec, eps)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for i, xi in enumerate(x.ravel()):
            out.ravel()[i] = 1.0 - measure.tail_intensity(ref_spec, max(xi, eps)) / lam
        return out

    rng = np.random.Generator(np.random.Philox(key=[99, 0]))
    sampler = measure.make_jump_sampler(ref_spec, eps)
    draws = np.array([sampler.sample(lambda: rng.random()) for _ in range(20000)])
    assert draws.min() >= eps
    res = stats.kstest(draws, cdf)
    assert res.pvalue > 0.01


def test_jump_sampler_mean(ref_spec):
    eps = 1.0
    mom = measure.validate(ref_spec)
    lam = measure.tail_intensity(ref_spec, eps)
    expect = (mom.m1 - measure.small_jump_mean(ref_spec, eps)) / lam
    rng = np.random.Generator(np.random.Philox(key=[7, 1]))
    sampler = measure.make_jump_sampler(ref_spec, eps)
    draws = np.array([sampler.sample(lambda: rng.random()) for _ in range(40000)])
    se = draws.std() / math.sqrt(draws.size)
    assert abs(draws.mean() - expect) <= 3.0 * se


def test_table_sampler_distribution(tabulated_spec):
    eps = 0.05
    lam = measure.tail_intensity(tabulated_spec, eps)
    rng = np.random.Generator(np.random.Philox(key=[5, 5]))
    sampler = measure.make_jump_sampler(tabulated_spec, eps)
    draws = np.array([sampler.sample(lambda: rng.random()) for _ in range(5000)])
    # the tail mass above each sorted draw: one tail quadrature from the
    # largest draw, plus the masses between consecutive draws summed from
    # the top down
    xs = np.sort(draws)
    gaps = [measure.integrate_against(tabulated_spec, lambda xi: 1.0,
                                      lower=a, upper=b)
            for a, b in zip(xs[:-1], xs[1:])]
    tail = measure.tail_intensity(tabulated_spec, xs[-1]) + np.append(
        np.cumsum(gaps[::-1])[::-1], 0.0)
    # the KS distance of draws from the CDF is that of their CDF values
    # from the uniform
    res = stats.kstest(1.0 - tail / lam, "uniform")
    assert res.pvalue > 0.01


def test_tabulated_moments(tabulated_spec):
    mom = measure.validate(tabulated_spec)
    assert mom.m1 == pytest.approx(0.25, abs=1e-6)
    assert mom.b == pytest.approx(0.25, abs=1e-6)
    assert measure.r_function(tabulated_spec, 0.5) == pytest.approx(-1.0 / 12.0,
                                                                    abs=1e-6)


def test_spec_json_round_trip(ref_spec, tabulated_spec):
    for spec in (ref_spec, tabulated_spec):
        again = measure.spec_from_json(json.dumps(measure.spec_to_json(spec)))
        assert again == spec


def test_spec_json_errors_name_offending_key():
    with pytest.raises(InvalidParameter, match="'beta'"):
        measure.spec_from_json({"kind": "tilted_power", "c": 1.0, "alpha": 1.5})
    with pytest.raises(InvalidParameter, match="'points'"):
        measure.spec_from_json({"kind": "tabulated", "points": [[1.0]],
                                "left_exponent": 0.0, "tilt_rate": 2.0})
    with pytest.raises(InvalidParameter, match="kind"):
        measure.spec_from_json({"kind": "gaussian"})
    with pytest.raises(InvalidParameter, match="invalid JSON"):
        measure.spec_from_json("{not json")


def test_spec_validation_errors():
    with pytest.raises(InvalidParameter):
        measure.LevyMeasureSpec.tilted_power(-1.0, 1.5, 1.0)
    with pytest.raises(InvalidParameter):
        measure.LevyMeasureSpec.tilted_power(1.0, 2.5, 1.0)
    with pytest.raises(InvalidParameter):
        measure.LevyMeasureSpec.tabulated([(1.0, 1.0), (0.5, 1.0), (2.0, 1.0),
                                           (3.0, 1.0)], 0.0, 2.0)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(min_value=-3.0, max_value=0.9),
       alpha=st.floats(min_value=1.1, max_value=1.9))
def test_r_closed_vs_quad_property(u, alpha):
    spec = measure.LevyMeasureSpec.tilted_power(
        measure.gamma_constant(alpha), alpha, 1.0)
    closed = measure.r_function(spec, u, method="closed")
    quad = measure.r_function(spec, u, method="quad")
    assert abs(closed - quad) <= 1e-7 * (1.0 + abs(closed))


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=0.1, max_value=5.0),
       alpha=st.floats(min_value=1.05, max_value=1.95),
       beta=st.floats(min_value=1.0, max_value=4.0))
def test_spec_round_trip_property(c, alpha, beta):
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, beta)
    assert measure.spec_from_json(measure.spec_to_json(spec)) == spec


def test_jump_sampler_decision(ref_spec):
    assert measure.make_jump_sampler(ref_spec, 1e-3).inv is None
    # mean acceptance exp(beta*eps) * Lambda_beta(eps) / Lambda_0(eps) is
    # 4.4% here although Lambda_beta / Lambda_0 alone is 2e-6
    moderate = measure.LevyMeasureSpec.tilted_power(1.0, 1.5, 200.0)
    assert measure.make_jump_sampler(moderate, 0.05).inv is None
    low = measure.LevyMeasureSpec.tilted_power(1.0, 1.05, 200.0)  # 0.46%
    assert (measure.make_jump_sampler(low, 0.05)
            is measure._cached_table_sampler(low, 0.05))


def test_low_acceptance_table_distribution():
    spec = measure.LevyMeasureSpec.tilted_power(1.0, 1.05, 200.0)
    eps = 0.05
    lam = measure.tail_intensity(spec, eps)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        flat = np.array([
            1.0 - measure.tail_intensity(spec, max(v, eps)) / lam
            for v in x.ravel()])
        return flat.reshape(x.shape)

    rng = np.random.Generator(np.random.Philox(key=[3, 1]))
    sampler = measure.make_jump_sampler(spec, eps)
    draws = np.array([sampler.sample(rng.random) for _ in range(5000)])
    assert draws.min() >= eps
    res = stats.kstest(draws, cdf)
    assert res.pvalue > 0.01


def test_rejection_sampler_infinite_proposals():
    # alpha = 1.01 at eps = 1e-2: u ** -100 leaves the float range below
    # u ~ 8e-4, and 0.0 ** -100 has no float value at all
    untilted = measure.LevyMeasureSpec.tilted_power(1.0, 1.01, 0.0)
    sampler = measure.make_jump_sampler(untilted, 1e-2)
    assert sampler.sample(iter([0.0]).__next__) == math.inf
    assert sampler.sample(iter([1e-5]).__next__) == math.inf
    tilted = measure.LevyMeasureSpec.tilted_power(1.0, 1.01, 1.0)
    sampler = measure.make_jump_sampler(tilted, 1e-2)
    assert sampler.inv is None
    # both infinite proposals are rejected, even with acceptance uniform 0
    next_u = iter([0.0, 0.5, 1e-5, 0.0, 0.999, 0.0]).__next__
    assert sampler.sample(next_u) == 1e-2 * 0.999 ** -100
