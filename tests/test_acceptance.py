"""Acceptance suite: the twelve numbered criteria, one test and one
summary line each.  The summary lines are echoed in the terminal summary
by the hook in conftest.py."""

import contextlib
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from jumplm import measure, montecarlo, riccati
from jumplm.cli import main as cli_main
from jumplm.simulate import EngineConfig

SEED = 42
T_HALF = 2.0 * math.log(2.0)


@contextlib.contextmanager
def criterion(log, number, description, budget):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        log.append(f"criterion {number:2d} FAIL       {description}")
        raise
    elapsed = time.monotonic() - start
    if elapsed >= budget:
        log.append(f"criterion {number:2d} FAIL       {description} "
                   f"(over budget: {elapsed:.1f}s >= {budget:.0f}s)")
        raise AssertionError(
            f"criterion {number} exceeded runtime budget: {elapsed:.1f}s")
    log.append(f"criterion {number:2d} PASS {elapsed:6.1f}s {description}")


def test_criterion_01_lemma_oracle(acceptance_log):
    with criterion(acceptance_log, 1, "tilted-integral identities <= 1e-8", 5.0):
        worst = 0.0
        for alpha in np.arange(1.1, 1.95, 0.1):
            worst = max(worst, measure.gamma2_residual(float(alpha)))
            for u in (-2.0, -1.0, 0.0, 0.5, 0.9, 1.0):
                worst = max(worst, measure.lemma_a1_residual(float(alpha), u))
        assert worst <= 1e-8, f"max residual {worst}"


def test_criterion_02_closed_form_r(acceptance_log, ref_spec):
    with criterion(acceptance_log, 2, "quadrature R vs closed form <= 1e-8", 5.0):
        worst = 0.0
        for u in np.linspace(-3.0, 0.999, 100):
            closed = (1.0 - u) - math.sqrt(1.0 - u)
            quad = measure.r_function(ref_spec, float(u), method="quad")
            worst = max(worst, abs(closed - quad))
        assert worst <= 1e-8, f"max error {worst}"


def test_criterion_03_riccati_solver(acceptance_log, ref_spec):
    with criterion(acceptance_log, 3, "ODE solver vs closed-form flow <= 1e-8", 5.0):
        worst = 0.0
        for u in (-1.0, 0.0, 0.5, 0.9):
            w = 1.0 - math.sqrt(1.0 - u)
            sol = riccati.solve(ref_spec, u, 10.0)
            for t in np.linspace(0.0, 10.0, 41):
                closed = 1.0 - (w * math.exp(-t / 2.0) - 1.0) ** 2
                worst = max(worst, abs(float(sol(float(t))) - closed))
        assert worst <= 1e-8, f"max error {worst}"


def test_criterion_04_minimal_solution(acceptance_log):
    with criterion(acceptance_log, 4, "minimal branch vs closed form <= 1e-6", 10.0):
        worst = 0.0
        for alpha in (1.25, 1.5, 1.75):
            spec = measure.LevyMeasureSpec.tilted_power(
                measure.gamma_constant(alpha), alpha, 1.0)
            for t in (0.1, 0.5, 1.0, 2.0, 5.0):
                closed = 1.0 - (1.0 - math.exp((alpha - 2.0) * t)) ** (
                    1.0 / (2.0 - alpha))
                worst = max(worst, abs(riccati.minimal_solution(spec, t) - closed))
        assert worst <= 1e-6, f"max error {worst}"


def test_criterion_05_classifier(acceptance_log, tabulated_spec):
    with criterion(acceptance_log, 5, "classifier ground truth, no Inconclusive", 10.0):
        for alpha in (1.1, 1.25, 1.5, 1.75, 1.9):
            spec = measure.LevyMeasureSpec.tilted_power(
                measure.gamma_constant(alpha), alpha, 1.0)
            verdict = riccati.classify(spec).verdict
            assert verdict == riccati.STRICT, f"alpha={alpha}: {verdict}"
        verdict = riccati.classify(tabulated_spec).verdict
        assert verdict == riccati.TRUE_MARTINGALE, verdict


def test_criterion_06_nonuniqueness_witness(acceptance_log, ref_spec):
    with criterion(acceptance_log, 6, "two branches through u=1 at t=5", 5.0):
        h = 1e-5
        g5 = riccati.minimal_solution(ref_spec, 5.0)
        deriv = (riccati.minimal_solution(ref_spec, 5.0 + h)
                 - riccati.minimal_solution(ref_spec, 5.0 - h)) / (2.0 * h)
        residual_minimal = abs(deriv - measure.r_function(ref_spec, g5))
        # the constant branch g = 1 has derivative 0 and R(1) = 0 exactly
        residual_constant = abs(0.0 - measure.r_function(ref_spec, 1.0))
        assert residual_minimal <= 1e-6, f"minimal branch residual {residual_minimal}"
        assert residual_constant <= 1e-6
        assert 1.0 - g5 >= 0.01, f"branches too close: {1.0 - g5}"


@pytest.mark.usefixtures("kernel")
def test_criterion_07_monte_carlo_mean(acceptance_log, ref_spec):
    with criterion(acceptance_log, 7, "mean X(1), n=1e5, eps=1e-4, |z| <= 3", 180.0):
        cfg = EngineConfig(eps=1e-4, seed=SEED)
        est = montecarlo.estimate_mean(ref_spec, 1.0, 1.0, n_paths=100_000,
                                       config=cfg)
        assert abs(est.theory - math.exp(-0.5)) < 1e-12
        assert abs(est.z_score) <= 3.0, f"z = {est.z_score}"


@pytest.mark.usefixtures("kernel")
def test_criterion_08_monte_carlo_mgf(acceptance_log, ref_spec):
    with criterion(acceptance_log, 8, "mgf at u=0.5, n=1e5, |z| <= 3", 180.0):
        cfg = EngineConfig(eps=1e-4, seed=SEED + 1)
        est = montecarlo.estimate_mgf(ref_spec, 1.0, 1.0, 0.5, n_paths=100_000,
                                      config=cfg)
        w = 1.0 - math.sqrt(0.5)
        g = 1.0 - (w * math.exp(-0.5) - 1.0) ** 2
        assert abs(est.theory - math.exp(g)) <= 1e-10
        assert not est.variance_warning
        assert abs(est.z_score) <= 3.0, f"z = {est.z_score}"


@pytest.mark.usefixtures("kernel")
def test_criterion_09_survival_duality(acceptance_log, ref_spec):
    with criterion(acceptance_log, 9,
                   "strict-LM defect via survival duality, |z| <= 3", 300.0):
        untilted = measure.untilted_spec(ref_spec)
        # eps = 1e-2 keeps the exploding paths tractable; the residual
        # truncation bias was measured well inside the Monte Carlo noise
        cfg = EngineConfig(eps=1e-2, seed=SEED, cap=1e5)
        est = montecarlo.estimate_survival(untilted, 1.0, T_HALF,
                                           n_paths=100_000, config=cfg)
        assert abs(est.theory - math.exp(-0.25)) <= 1e-8
        assert abs(est.z_score) <= 3.0, f"z = {est.z_score}"


def test_criterion_10_htransform_residuals(acceptance_log, ref_spec):
    with criterion(acceptance_log, 10, "harmonicity and h-transform residuals", 30.0):
        untilted = measure.untilted_spec(ref_spec)
        assert measure.harmonic_residual(untilted) <= 1e-8
        for name in sorted(measure.TEST_FUNCTIONS):
            for x in (0.3, 0.7, 1.2, 2.0, 3.5):
                res = measure.htransform_generator_residual(x, name)
                assert res <= 1e-6, f"{name} at x={x}: {res}"


@pytest.mark.usefixtures("kernel")
def test_criterion_11_truncation_bias(acceptance_log, ref_spec):
    with criterion(acceptance_log, 11, "truncation-bias sweep nonincreasing", 600.0):
        cfg = EngineConfig(eps=1e-4, seed=SEED)
        report = montecarlo.bias_sweep(ref_spec, 1.0, 1.0, 0.0,
                                       [1e-2, 1e-3, 1e-4],
                                       n_paths=100_000, config=cfg)
        assert report.all_pass, report.to_csv()


@pytest.mark.usefixtures("kernel")
def test_criterion_12_determinism(acceptance_log, ref_spec, tmp_path):
    with criterion(acceptance_log, 12,
                   "byte-identical outputs across runs and workers", 120.0):
        runner = CliRunner()
        spec_file = tmp_path / "ref.json"
        spec_file.write_text(json.dumps(measure.spec_to_json(ref_spec)))
        sim_args = ["simulate", str(spec_file), "--x0", "1", "--t-end", "1",
                    "--eps", "1e-2", "--seed", str(SEED), "--paths", "3"]
        assert runner.invoke(cli_main, sim_args + [
            "--out-dir", str(tmp_path / "s1")]).exit_code == 0
        assert runner.invoke(cli_main, sim_args + [
            "--out-dir", str(tmp_path / "s2")]).exit_code == 0
        for i in range(3):
            name = f"path_{i:05d}.csv"
            assert (tmp_path / "s1" / name).read_bytes() == \
                (tmp_path / "s2" / name).read_bytes()

        cfg = EngineConfig(eps=1e-3, seed=SEED)
        serial = montecarlo.bias_sweep(ref_spec, 1.0, 1.0, 0.0, [1e-2, 1e-3],
                                       n_paths=8192, config=cfg)
        parallel = montecarlo.bias_sweep(ref_spec, 1.0, 1.0, 0.0, [1e-2, 1e-3],
                                         n_paths=8192, config=cfg, n_workers=4)
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()

        ver_args = ["verify", "mean", str(spec_file), "--t", "1",
                    "--paths", "3000", "--eps", "1e-3", "--seed", str(SEED)]
        out1 = runner.invoke(cli_main, ver_args + ["--out", str(tmp_path / "v1")])
        out2 = runner.invoke(cli_main, ver_args + ["--out", str(tmp_path / "v2")])
        assert out1.exit_code == 0 and out2.exit_code == 0
        assert (tmp_path / "v1" / "mean_report.json").read_bytes() == \
            (tmp_path / "v2" / "mean_report.json").read_bytes()
