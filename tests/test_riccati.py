import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumplm import measure, riccati
from jumplm.errors import DivergentIntegral, DomainError


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
    # g_-(t) within 1e-13 of 1 lies above the bracket end 1 - 1e-13,
    # which is then the answer to within its distance from 1
    gap = 1.0 - (1.0 - 1e-13)
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
    # the slope test decides, and nothing raises
    for alpha in (0.5, 1.0001, 1.2, 1.5, 1.9):
        for beta in (1.0001, 1.001, 1.003):
            spec = measure.LevyMeasureSpec.tilted_power(1.0, alpha, beta)
            verdict = riccati.classify(spec).verdict
            assert verdict in (riccati.TRUE_MARTINGALE, riccati.INCONCLUSIVE)
            if beta == 1.003:
                assert verdict == riccati.TRUE_MARTINGALE
    for c, beta in ((0.7, 1.5), (0.3, 1.01)):
        spec = measure.LevyMeasureSpec.tilted_power(c, 1.0, beta)
        assert riccati.classify(spec).verdict == riccati.TRUE_MARTINGALE


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


@settings(max_examples=20, deadline=None)
@given(u=st.floats(min_value=-2.0, max_value=0.95),
       t=st.floats(min_value=0.01, max_value=8.0))
def test_solution_matches_closed_form_property(u, t):
    spec = measure.reference_spec()
    sol = riccati.solve(spec, u, t)
    assert abs(float(sol(t)) - closed_g(t, u)) <= 1e-7


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
    "ref": ("Strict", 2.455894354599031, 0.4905038896308364, 0.0021805482164464827),
    "tab": ("TrueMartingale", math.inf, 0.9985019933371406, 0.0005541457486091136),
}
# solve(spec, 0.5, 1.0): g(1), g(1/4), max_residual, steps_taken
GOLDEN_SOLVE = {
    "ref": (0.32373836773305836, 0.45014417194686096, 4.151290866616364e-09, 12),
    "tab": (0.41955714146735223, 0.47932112952251493, 8.39035674271571e-10, 5),
}
GOLDEN_MINIMAL = {0.5: 0.9510709064301762, 1.0: 0.8451818782538504,
                  2.0 * math.log(2.0): 0.7499999999999997,
                  3.0: 0.3964732519289957}


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
