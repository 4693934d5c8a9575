import array
import dataclasses
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from jumplm import measure, montecarlo, riccati, simulate
from jumplm.errors import DomainError, InvalidConfig
from jumplm.simulate import EngineConfig

# the estimates simulate on the kernel
pytestmark = pytest.mark.usefixtures("kernel")

T_HALF = 2.0 * math.log(2.0)


@pytest.fixture(scope="module")
def cfg():
    return EngineConfig(eps=1e-3, seed=101)


def test_estimate_mean(ref_spec, cfg):
    est = montecarlo.estimate_mean(ref_spec, 1.0, 1.0, n_paths=8000, config=cfg)
    assert est.theory == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert abs(est.z_score) <= 4.0
    assert est.n_paths == 8000
    assert est.stderr > 0


def test_estimate_mean_t0(ref_spec, cfg):
    est = montecarlo.estimate_mean(ref_spec, 1.5, 0.0, n_paths=100, config=cfg)
    assert est.mean == 1.5 and est.theory == 1.5
    assert est.stderr == 0.0 and est.z_score == 0.0


def test_estimate_mgf(ref_spec, cfg):
    est = montecarlo.estimate_mgf(ref_spec, 1.0, 1.0, 0.5, n_paths=8000,
                                  config=cfg)
    w = 1.0 - math.sqrt(0.5)
    g = 1.0 - (w * math.exp(-0.5) - 1.0) ** 2
    assert est.theory == pytest.approx(math.exp(g), rel=1e-8)
    assert abs(est.z_score) <= 4.0
    assert not est.variance_warning


def test_estimate_mgf_quarter_closed_form(ref_spec, cfg):
    est = montecarlo.estimate_mgf(ref_spec, 1.0, T_HALF, 0.25, n_paths=4000,
                                  config=cfg)
    w = 1.0 - math.sqrt(0.75)
    expect = math.exp(1.0 - (w / 2.0 - 1.0) ** 2)
    assert est.theory == pytest.approx(expect, rel=1e-8)
    assert abs(est.z_score) <= 4.0


def test_estimate_mgf_u0_is_exact(ref_spec, cfg):
    est = montecarlo.estimate_mgf(ref_spec, 1.0, 1.0, 0.0, n_paths=100,
                                  config=cfg)
    assert est.mean == 1.0 and est.stderr == 0.0 and est.z_score == 0.0


@pytest.mark.parametrize("u", [0.0, 0.5])
@pytest.mark.parametrize("x0,n_paths,n_workers,error,message", [
    (math.inf, 1, 0, DomainError, "x0 must be finite, got inf"),
    (1.0, 1, 0, InvalidConfig, "need at least 2 paths, got 1"),
    (1.0, 100, 0, InvalidConfig, "workers must be >= 1, got 0"),
])
def test_estimate_mgf_checks_inputs_at_every_u(ref_spec, cfg, u, x0, n_paths,
                                               n_workers, error, message):
    # u = 0 has an exact answer, yet raises what any other u raises, in the
    # same order: each case is also bad in every check after its own
    with pytest.raises(error, match=f"^{message}$"):
        montecarlo.estimate_mgf(ref_spec, x0, 1.0, u, n_paths, cfg, n_workers)


def test_estimate_mgf_variance_warning(ref_spec, cfg):
    est = montecarlo.estimate_mgf(ref_spec, 1.0, 0.5, 0.9, n_paths=500,
                                  config=cfg)
    assert est.variance_warning


@pytest.mark.parametrize("estimate", ["estimate_mean", "estimate_mgf",
                                      "estimate_survival"])
def test_estimates_reject_a_nan_horizon(ref_spec, cfg, estimate):
    args = (0.5,) if estimate == "estimate_mgf" else ()
    spec = (measure.untilted_spec(ref_spec) if estimate == "estimate_survival"
            else ref_spec)
    with pytest.raises(DomainError):
        getattr(montecarlo, estimate)(spec, 1.0, math.nan, *args,
                                      n_paths=10, config=cfg)


def test_estimate_mgf_rejects_u_above_one(ref_spec, cfg):
    with pytest.raises(DomainError):
        montecarlo.estimate_mgf(ref_spec, 1.0, 1.0, 1.2, n_paths=100, config=cfg)


def test_estimate_survival(ref_spec):
    untilted = measure.untilted_spec(ref_spec)
    cfg = EngineConfig(eps=1e-2, seed=44, cap=1e5)
    est = montecarlo.estimate_survival(untilted, 1.0, T_HALF, n_paths=4000,
                                       config=cfg)
    assert est.theory == pytest.approx(math.exp(-0.25), abs=1e-8)
    assert abs(est.z_score) <= 4.0
    # Bernoulli standard error
    assert est.stderr == pytest.approx(
        math.sqrt(est.mean * (1.0 - est.mean) / est.n_paths), rel=1e-12)


def test_estimate_survival_tiny_g_minus():
    # g_-(2 ln 2) of tilted_power(10, 1.5, 1) is below 1e-10, where the
    # theory is still the closed form, exp(g_- - 1)
    spec = measure.LevyMeasureSpec.tilted_power(10.0, 1.5, 1.0)
    s = 10.0 / measure.gamma_constant(1.5)
    g_minus = -math.expm1(math.log1p(-math.exp(-0.5 * s * T_HALF)) / 0.5)
    cfg = EngineConfig(eps=1e-3, seed=46, cap=1e5)
    est = montecarlo.estimate_survival(measure.untilted_spec(spec), 1.0,
                                       T_HALF, n_paths=200, config=cfg)
    assert est.theory == math.exp(g_minus - 1.0)


@pytest.mark.parametrize("c,alpha,t", [(3.0, 1.3, 0.16), (0.05, 1.2, 5.9),
                                       (1.0, 1.4, 0.73)])
def test_survival_duality_off_the_reference(c, alpha, t):
    # the dual of a Strict spec with c != C(alpha) decays at H - m(eps),
    # H = c/C(alpha), so its survival estimate meets the theory there too;
    # each t puts the theory near 1/2, and over seeds 0-19 these z's had
    # means within 0.2 and spreads 0.9-1.1 of N(0, 1)
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, 1.0)
    cfg = EngineConfig(eps=1e-2, seed=0, cap=1e4)
    est = montecarlo.estimate_survival(measure.untilted_spec(spec), 1.0, t,
                                       n_paths=4000, config=cfg)
    assert 0.2 <= est.theory <= 0.9
    assert abs(est.z_score) <= 3.0, est


@settings(max_examples=10, deadline=None, derandomize=True)
@example(c=1e-2, alpha=1.05, p=0.4)
@example(c=1e2, alpha=1.95, p=0.85)
@given(c=st.floats(-2.0, 2.0).map(lambda v: 10.0 ** v),
       alpha=st.floats(1.05, 1.95), p=st.floats(0.4, 0.85))
def test_survival_duality_over_the_strict_family(c, alpha, p):
    # the dual of tilted_power(c, alpha, 1) decays at H - m(eps) with
    # H = c/C(alpha) over the whole family.  t is where the theory
    # exp(g_-(t) - 1) is p: w = (1 - g_-)^(2-alpha) = 1 - e^(-(2-alpha) s t).
    # A path stopped at the cap at time sigma in state x survives with
    # probability h = exp(x (g_-(t - sigma) - 1)), and it is scored by h
    # (conditional Monte Carlo): the indicator's cap bias falls only like
    # cap^(alpha-2), so near alpha = 2 it is many standard errors at any
    # cap a test can afford (z -13.6 at cap 1e4 and -8.1 at cap 1e6, at
    # c = 1, alpha = 1.9, p = 0.85, 2000 paths)
    spec = measure.LevyMeasureSpec.tilted_power(c, alpha, 1.0)
    s = c / measure.gamma_constant(alpha)
    t = -math.log1p(-(-math.log(p)) ** (2.0 - alpha)) / ((2.0 - alpha) * s)
    theory = math.exp(riccati.minimal_solution(spec, t) - 1.0)
    assert 0.2 <= theory <= 0.9
    n = 2000
    ends = simulate.fan_out(measure.untilted_spec(spec), 1.0, t,
                            EngineConfig(eps=1e-2, seed=0, cap=1e3), 0, n,
                            explosive=True)
    scores = [1.0 if end == simulate.END_HORIZON else
              math.exp(x * (riccati.minimal_solution(spec, t - sigma) - 1.0))
              for end, sigma, x in zip(ends.end, ends.t, ends.x)]
    mean = math.fsum(scores) / n
    stderr = math.sqrt(math.fsum((v - mean) ** 2 for v in scores) / (n - 1) / n)
    assert abs(mean - theory) <= montecarlo.Z_THRESHOLD * stderr, \
        (mean, theory, stderr)


def test_survival_theory_loads_no_scipy():
    # classify, minimal_solution and the survival experiment on the
    # reference are closed forms and the kernel: scipy and cffi stay
    # unloaded, and with them the half second of their import
    code = ("import math, sys\n"
            "import jumplm.cli\n"
            "from jumplm import measure, montecarlo, riccati\n"
            "from jumplm.simulate import EngineConfig\n"
            "ref = measure.reference_spec()\n"
            "riccati.classify(ref)\n"
            "riccati.minimal_solution(ref, 2.0 * math.log(2.0))\n"
            "montecarlo.estimate_survival(\n"
            "    measure.untilted_spec(ref), 1.0, 2.0 * math.log(2.0), 200,\n"
            "    EngineConfig(eps=1e-2, seed=1, cap=1e5))\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith(('scipy', 'cffi')))\n"
            "assert loaded == [], loaded[:5]\n")
    src = os.path.dirname(os.path.dirname(measure.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_mgf_theory_loads_no_ode_solver():
    # the theory of estimate_mgf on the reference is the closed-form flow,
    # and the sampler's tail intensity and small-jump mean are incomplete
    # gammas computed in measure: no scipy module loads, and no cffi
    code = ("import sys\n"
            "from jumplm import measure, montecarlo\n"
            "from jumplm.simulate import EngineConfig\n"
            "montecarlo.estimate_mgf(measure.reference_spec(), 1.0, 1.0, 0.5,\n"
            "                        500, EngineConfig(eps=1e-4, seed=1))\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith(('scipy', 'cffi')))\n"
            "assert loaded == [], loaded[:5]\n")
    src = os.path.dirname(os.path.dirname(measure.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_estimate_survival_t0(ref_spec):
    untilted = measure.untilted_spec(ref_spec)
    cfg = EngineConfig(eps=1e-2, seed=44, cap=1e5)
    est = montecarlo.estimate_survival(untilted, 1.0, 0.0, n_paths=100,
                                       config=cfg)
    assert est.mean == 1.0 and est.theory == 1.0


def test_estimate_survival_x0_two(ref_spec):
    untilted = measure.untilted_spec(ref_spec)
    cfg = EngineConfig(eps=1e-2, seed=45, cap=1e5)
    est = montecarlo.estimate_survival(untilted, 2.0, T_HALF, n_paths=4000,
                                       config=cfg)
    assert est.theory == pytest.approx(math.exp(-0.5), abs=1e-8)
    assert abs(est.z_score) <= 4.0


def test_worker_determinism(ref_spec):
    cfg = EngineConfig(eps=1e-3, seed=7)
    serial = montecarlo.estimate_mean(ref_spec, 1.0, 1.0, n_paths=6000,
                                      config=cfg)
    parallel = montecarlo.estimate_mean(ref_spec, 1.0, 1.0, n_paths=6000,
                                        config=cfg, n_workers=3)
    assert serial == parallel


def test_fan_out_runs_on_kernel_threads_or_in_process(ref_spec, monkeypatch,
                                                     caplog):
    # the fan-out runs in this process, on kernel threads: n_workers counts
    # the threads of the kernel's calls, and no process pool starts
    import concurrent.futures

    cfg = EngineConfig(eps=1e-2, seed=7)

    def collect(n_paths, n_workers):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="jumplm.simulate"):
            got = montecarlo._collect(ref_spec, 1.0, 1.0, cfg, n_paths,
                                      False, n_workers).terminal
        return got, [r.getMessage() for r in caplog.records
                     if r.name == "jumplm.simulate"]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    threaded, log = collect(4500, 3)
    assert log == ["fan-out: 4500 conservative paths on 3 kernel threads"]
    assert collect(4500, 1)[0].tobytes() == threaded.tobytes()
    assert collect(2, 8)[1] == ["fan-out: 2 conservative paths on 2 kernel "
                                "threads"]


@pytest.mark.parametrize("n_workers", [0, -3])
def test_collect_rejects_non_positive_workers(ref_spec, n_workers):
    with pytest.raises(InvalidConfig,
                       match=f"^workers must be >= 1, got {n_workers}$"):
        montecarlo.estimate_mean(ref_spec, 1.0, 1.0, 100,
                                 EngineConfig(eps=1e-2, seed=1), n_workers)


@pytest.mark.parametrize("call", [
    lambda spec, cfg: simulate.simulate_path(spec, math.inf, 1.0, cfg),
    lambda spec, cfg: simulate.simulate_explosive_path(
        measure.untilted_spec(spec), math.inf, 1.0, cfg),
    lambda spec, cfg: simulate.fan_out(spec, math.inf, 1.0, cfg, 0, 2, False),
    lambda spec, cfg: simulate.fan_out(measure.untilted_spec(spec), math.inf,
                                       1.0, cfg, 0, 2, True),
    lambda spec, cfg: montecarlo.estimate_mean(spec, math.inf, 1.0, 2, cfg),
], ids=["path", "explosive-path", "fan-out", "explosive-fan-out", "mean"])
def test_infinite_x0_raises_domain_error(ref_spec, call):
    # a conservative path from x0 = inf would run to max_events, and an
    # explosive one explode at t = 0: neither starts
    with pytest.raises(DomainError, match="^x0 must be finite, got inf$"):
        call(ref_spec, EngineConfig(eps=1e-2, seed=1))


@st.composite
def _split(draw):
    """n_paths and the sorted starts of the later blocks of a split of
    0 .. n_paths-1 into consecutive blocks."""
    n_paths = draw(st.integers(2, 9000))
    cuts = draw(st.lists(st.integers(1, n_paths - 1), max_size=5,
                         unique=True))
    return n_paths, sorted(cuts)


@pytest.mark.parametrize("on_kernel", [True, False])
@pytest.mark.parametrize("kind", ["conservative", "explosive",
                                  "explosive_all_ends"])
@settings(max_examples=6, deadline=None)
@example(split=(9000, [4096, 8192]), seed=42, n_workers=None, threads=1)
@given(split=_split(), seed=st.integers(-2 ** 63, 2 ** 63 - 1),
       n_workers=st.sampled_from([None, 1, 3]), threads=st.integers(1, 3))
def test_collect_equals_any_split(ref_spec, kind, on_kernel, split, seed,
                                  n_workers, threads):
    # every path draws from its own stream, so each column of the one
    # block of _collect (end codes, last t, x and jump counts, terminals)
    # is the bytes of consecutive blocks over any split of its paths: blocks
    # of fan_out on any thread counts, or (on_kernel False) of the oracle;
    # max_events = 50 stops some explosive paths, and cap = 2 with
    # max_events = 5 ends about a third of them each way
    n_paths, cuts = split
    explosive = kind != "conservative"
    if not explosive:
        spec, t_end = ref_spec, 1.0
        cfg = EngineConfig(eps=1e-2, seed=seed)
    else:
        spec, t_end = measure.untilted_spec(ref_spec), T_HALF
        cap, max_events = (1e5, 50) if kind == "explosive" else (2.0, 5)
        cfg = EngineConfig(eps=1e-2, seed=seed, cap=cap,
                           max_events=max_events)
    bounds = [0, *cuts, n_paths]
    got = montecarlo._collect(spec, 1.0, t_end, cfg, n_paths, explosive,
                              n_workers)
    blocks = [simulate.fan_out(spec, 1.0, t_end, cfg, a, b - a, explosive,
                               threads) if on_kernel
              else oracle.fan_out(spec, 1.0, t_end, cfg, a, b - a, explosive)
              for a, b in zip(bounds, bounds[1:])]
    for column in ("end", "t", "x", "n", "terminal"):
        have = np.asarray(getattr(got, column))
        want = np.concatenate([getattr(out, column) for out in blocks])
        assert have.dtype == want.dtype, column
        assert have.tobytes() == want.tobytes(), column


def test_collect_table_sampler_matches_paths():
    # mean Pareto acceptance 0.46%: the fan-out inverts the table on whole
    # arrays, the single-path view one uniform at a time
    spec = measure.LevyMeasureSpec.tilted_power(1.0, 1.05, 200.0)
    cfg = EngineConfig(eps=0.05, seed=3)
    got = montecarlo._collect(spec, 7e6, 1.0, cfg, 200, False).terminal
    want = [simulate.simulate_path(spec, 7e6, 1.0, cfg, i,
                                   record=False).terminal
            for i in range(200)]
    assert np.array_equal(got, want)


def test_supermartingale_sweep(ref_spec):
    cfg = EngineConfig(eps=1e-2, seed=52, cap=1e5)
    report = montecarlo.supermartingale_sweep(ref_spec, 1.0, [0.0, 0.5, 1.0, 2.0],
                                              n_paths=3000, config=cfg)
    assert report.all_pass
    means = [r.estimate.mean for r in report.rows]
    assert means[0] == math.exp(1.0)
    assert all(b < a for a, b in zip(means, means[1:]))
    assert all(r.estimate.mean <= math.exp(1.0) * (1.0 + 3.0 * r.estimate.stderr)
               for r in report.rows)


def test_supermartingale_sweep_true_martingale(tabulated_spec):
    cfg = EngineConfig(eps=1e-2, seed=52)
    report = montecarlo.supermartingale_sweep(tabulated_spec, 1.0, [0.0, 1.0],
                                              n_paths=500, config=cfg)
    for row in report.rows:
        assert row.estimate.theory == pytest.approx(math.exp(1.0), rel=1e-12)


def test_bias_sweep_single_eps(ref_spec):
    cfg = EngineConfig(eps=1e-3, seed=61)
    report = montecarlo.bias_sweep(ref_spec, 1.0, 1.0, 0.0, [1e-2],
                                   n_paths=2000, config=cfg)
    assert len(report.rows) == 1
    assert report.rows[0].delta_prev is None
    assert report.rows[0].passed


def test_bias_sweep_rejects_nondecreasing(ref_spec):
    with pytest.raises(InvalidConfig):
        montecarlo.bias_sweep(ref_spec, 1.0, 1.0, 0.0, [1e-3, 1e-2],
                              n_paths=100)


@pytest.mark.parametrize("build,message", [
    (lambda spec: montecarlo.supermartingale_sweep(spec, 1.0, [], 100),
     "empty t_grid"),
    (lambda spec: montecarlo.bias_sweep(spec, 1.0, 1.0, 0.0, [], 100),
     "empty eps_list"),
    (lambda spec: montecarlo.single_report("median", spec, 1.0, 1.0, 0.5, 100),
     "unknown experiment 'median'"),
], ids=["supermartingale", "bias", "single"])
def test_reports_with_no_rows_are_errors(ref_spec, build, message):
    # a report with no rows would pass vacuously, with "n_paths": 0
    with pytest.raises(InvalidConfig, match=f"^{message}$"):
        build(ref_spec)


def test_bias_sweep_report_shape(ref_spec):
    cfg = EngineConfig(eps=1e-3, seed=62)
    report = montecarlo.bias_sweep(ref_spec, 1.0, 1.0, 0.0, [1e-2, 1e-3],
                                   n_paths=3000, config=cfg)
    assert [r.eps for r in report.rows] == [1e-2, 1e-3]
    assert report.rows[1].delta_prev is not None
    # shared theory value across rows
    assert len({r.estimate.theory for r in report.rows}) == 1


def test_report_serialization(ref_spec):
    cfg = EngineConfig(eps=1e-3, seed=63)
    report = montecarlo.bias_sweep(ref_spec, 1.0, 0.5, 0.25, [1e-2, 1e-3],
                                   n_paths=1000, config=cfg)
    obj = json.loads(report.to_json())
    assert obj["experiment"] == "bias"
    assert obj["seed"] == 63
    assert obj["spec"]["kind"] == "tilted_power"
    assert len(obj["rows"]) == 2
    for key in ("t", "u", "mean", "stderr", "theory", "z", "pass"):
        assert key in obj["rows"][0]
    csv = report.to_csv().splitlines()
    assert csv[0] == "t,u,mean,stderr,theory,z,pass,eps,delta_prev"
    assert len(csv) == 3


def test_golden_reports(ref_spec):
    # the SHA-256 of each report's JSON and CSV, recorded before the
    # reports were built in one place: any change to an estimate, a
    # theory, a pass rule or the serialization moves them
    cfg = EngineConfig(eps=1e-2, seed=20261021, cap=1e5)
    eps_list = [1e-1, 3e-2, 1e-2]
    reports = {
        "mgf": montecarlo.single_report("mgf", ref_spec, 1.0, 1.0, 0.5, 300,
                                        cfg),
        "mgf-warn": montecarlo.single_report("mgf", ref_spec, 1.0, 1.0, 0.9,
                                             300, cfg),
        "mean": montecarlo.single_report("mean", ref_spec, 1.0, 1.0, 0.5,
                                         300, cfg),
        "survival": montecarlo.single_report("survival", ref_spec, 1.0,
                                             T_HALF, 0.5, 300, cfg),
        "supermartingale": montecarlo.supermartingale_sweep(
            ref_spec, 1.0, [1.0, 0.5, 1.0, 0.0], 300, cfg),
        "bias-mean": montecarlo.bias_sweep(ref_spec, 1.0, 1.0, 0.0, eps_list,
                                           300, cfg),
        "bias-mgf": montecarlo.bias_sweep(ref_spec, 1.0, 1.0, 0.25, eps_list,
                                          300, cfg),
    }
    want = {
        "mgf": ("d9ea107a7bbb4b654a0b6c35d4921a5840df705dc76e301474f1a1ff02bcb9af",
                "d6f9394aa1596840baea49aada16d6086c8c9f2ce265893d362e0c5501cf0b88"),
        "mgf-warn": ("9357a162d8d2396d0005fa41ddfdf8ea4ddd725fe22ef55e392fa38a439684e2",
                     "f02915f20f12bca154b20fbf784cc26dfcf6d6bb9630638086a9e963dc604668"),
        "mean": ("f2806c3217c0ba278a5dd726e9f39c13fb4e4fa8a7f9083f3da1ced2a369231d",
                 "1b4f24e3b228991c2fdc0eb5a64459db6fd300766fea9bed2cea7483b6d50b71"),
        "survival": ("03b0a50545a642da5e5ad6822e2c79252d748b54b0877606979fab6d13747627",
                     "5cd0f688746441c4fa58c4207a0c954259dcfe6d39e8363ae6d3a87efd920c96"),
        "supermartingale": (
            "3fc0eb992913c0683323739a4faba630c19fb9d54e729945a4ae380646730b42",
            "30be416906093f421fa7df398890a68bbe97e3b377f6a69a25cd8f439e299aed"),
        "bias-mean": ("64eb463c3deece41cae9bd6a2ca4a915f7ebb8bb096432c07498834728c96a82",
                      "8a6f069d08cd090897508fdf271f0855a002f7daea1a3777493d8cb486d110ad"),
        "bias-mgf": ("d6cdae63ebcbb265240c07406c0003440fde068f8e3989b5ea37f4336871f489",
                     "28549b2d7f87e84869d3bc62f90e36f55271ffbbfbd0a57329b8982cd17b96f5"),
    }
    assert json.loads(reports["mgf-warn"].to_json())["rows"][0]["counted"] \
        is False
    for name, report in reports.items():
        got = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (report.to_json(), report.to_csv()))
        assert got == want[name], name


def test_report_is_reproducible(ref_spec):
    cfg = EngineConfig(eps=1e-3, seed=64)
    a = montecarlo.bias_sweep(ref_spec, 1.0, 0.5, 0.0, [1e-2, 1e-3],
                              n_paths=1000, config=cfg)
    b = montecarlo.bias_sweep(ref_spec, 1.0, 0.5, 0.0, [1e-2, 1e-3],
                              n_paths=1000, config=cfg, n_workers=2)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_survival_needs_classified_companion():
    # every validated companion has a verdict; the reference's is Strict
    untilted = measure.untilted_spec(measure.reference_spec())
    tilted = measure.tilted_spec(untilted)
    assert riccati.classify(tilted).verdict == riccati.STRICT


def test_survival_counts_max_events_stops(ref_spec, caplog):
    untilted = measure.untilted_spec(ref_spec)
    cfg = EngineConfig(eps=1e-2, seed=46, cap=1e5, max_events=5)
    with caplog.at_level(logging.WARNING, logger="jumplm.montecarlo"):
        est = montecarlo.estimate_survival(untilted, 1.0, T_HALF,
                                           n_paths=2000, config=cfg)
    lam, delta = simulate._rates(untilted, 1.0, T_HALF, cfg.eps, True)
    ends = [oracle._run_engine(untilted, 1.0, T_HALF, cfg, i, False, lam,
                                 delta, True)[2:5] for i in range(2000)]
    # a path whose fifth jump crosses the cap counts as a crossing
    stopped = sum(n == 5 and x <= cfg.cap for x, n, _ in ends)
    assert est.mean == sum(not exploded for _, _, exploded in ends) / 2000
    assert 0 < stopped < sum(n == 5 for _, n, _ in ends)
    assert [r.getMessage() for r in caplog.records] == [
        f"{stopped} of 2000 explosive paths reached max_events=5 and were "
        "counted as explosions without crossing cap=100000"]
    caplog.clear()
    loose = dataclasses.replace(cfg, max_events=10 ** 7)
    with caplog.at_level(logging.WARNING, logger="jumplm.montecarlo"):
        montecarlo.estimate_survival(untilted, 1.0, T_HALF, n_paths=2000,
                                     config=loose)
    assert caplog.records == []


def _indicator_estimate(indicators, theory):
    """The survival estimate as the numpy mean of the 0/1 floats
    indicators, with their Bernoulli standard error: how estimate_survival
    scored its paths before it counted the horizon ends."""
    samples = np.array(indicators, float)
    n = samples.size
    mean = float(np.sum(samples) / n)
    stderr = math.sqrt(max(mean * (1.0 - mean), 0.0) / n)
    if stderr > 0.0:
        z = (mean - theory) / stderr
    else:
        z = 0.0 if mean == theory else math.copysign(math.inf, mean - theory)
    return montecarlo.McEstimate(mean=mean, stderr=stderr, n_paths=n,
                                 theory=theory, z_score=z)


_END_CODES = [simulate.END_HORIZON, simulate.END_CAP, simulate.END_MAX_EVENTS]


@settings(max_examples=200, deadline=None)
@example(ends=[simulate.END_HORIZON] * 2, t=T_HALF)
@example(ends=[simulate.END_CAP, simulate.END_MAX_EVENTS], t=T_HALF)
@example(ends=[simulate.END_HORIZON] * 100_000, t=0.0)
@example(ends=[simulate.END_CAP] * 99_999 + [simulate.END_HORIZON], t=5.0)
@given(ends=st.one_of(
    st.lists(st.sampled_from(_END_CODES), min_size=2, max_size=5000),
    st.builds(lambda code, n: [code] * n, st.sampled_from(_END_CODES),
              st.integers(2, 5000))),
    t=st.floats(0.0, 5.0))
def test_survival_count_equals_indicator_mean(ends, t):
    # estimate_survival counts the END_HORIZON ends: the count over n is
    # the bits of the 0/1 floats' pairwise sum over n, and so is every
    # field computed from it
    ends = array.array("b", ends)
    untilted = measure.untilted_spec(measure.reference_spec())
    with mock.patch.object(montecarlo, "_collect", lambda *args:
                           simulate.PathEnds(ends, *[None] * 6)):
        got = montecarlo.estimate_survival(untilted, 1.0, t, len(ends),
                                           EngineConfig(eps=1e-2))
    want = _indicator_estimate([e == simulate.END_HORIZON for e in ends],
                               got.theory)
    for field in dataclasses.fields(montecarlo.McEstimate):
        assert getattr(got, field.name) == getattr(want, field.name), field
