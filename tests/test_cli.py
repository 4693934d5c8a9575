import json
import math
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from click.testing import CliRunner

from jumplm import measure, montecarlo, simulate
from jumplm.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def ref_json(tmp_path, ref_spec):
    p = tmp_path / "ref.json"
    p.write_text(json.dumps(measure.spec_to_json(ref_spec)))
    return str(p)


@pytest.fixture()
def untilted_json(tmp_path, ref_spec):
    p = tmp_path / "untilted.json"
    p.write_text(json.dumps(measure.spec_to_json(measure.untilted_spec(ref_spec))))
    return str(p)


@pytest.fixture()
def tab_json(tmp_path, tabulated_spec):
    p = tmp_path / "tab.json"
    p.write_text(json.dumps(measure.spec_to_json(tabulated_spec)))
    return str(p)


def test_classify_strict(runner, ref_json):
    res = runner.invoke(main, ["classify", ref_json])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["verdict"] == "Strict"
    assert out["osgood_value"] > 0


def test_classify_true_martingale(runner, tab_json):
    res = runner.invoke(main, ["classify", tab_json])
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "TrueMartingale"


def test_classify_quadrature_failure(runner, tmp_path):
    p = tmp_path / "near_one.json"
    p.write_text(json.dumps(measure.spec_to_json(
        measure.LevyMeasureSpec.tilted_power(1.0, 0.1, 1.0 + 1e-6))))
    res = runner.invoke(main, ["classify", str(p)])
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "verdict": "TrueMartingale", "osgood_value": None,
        "exponent_estimate": None, "exponent_stderr": None}


def test_classify_malformed_names_key(runner, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "tilted_power", "c": 1.0, "alpha": 1.5}')
    res = runner.invoke(main, ["classify", str(p)])
    assert res.exit_code == 1
    assert "beta" in res.output


def test_classify_invalid_json(runner, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{oops")
    res = runner.invoke(main, ["classify", str(p)])
    assert res.exit_code == 1


def test_riccati_curve(runner, ref_json):
    res = runner.invoke(main, ["riccati", ref_json, "--u0", "0.5",
                               "--t-end", "2", "--steps", "10"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "t,g"
    assert len(lines) == 12
    t0, g0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(g0) == 0.5


def test_riccati_at_t_zero_refuses_what_classify_refuses(runner, tmp_path):
    # the curve at t-end 0 is its initial value alone, yet a spec with no
    # exponential moment ends the command as it ends classify
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(measure.spec_to_json(
        measure.LevyMeasureSpec.tilted_power(1.0, 0.5, 0.5))))
    why = "error: int_1^inf e^xi mu(dxi) diverges for beta=0.5 < 1\n"
    for args in (["classify", str(p)],
                 ["riccati", str(p), "--t-end", "0"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 1 and res.output == why


def test_defect_curve(runner, ref_json):
    t_half = 2.0 * math.log(2.0)
    res = runner.invoke(main, ["defect-curve", ref_json, "--x0", "1",
                               "--t-max", str(t_half), "--steps", "2"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "t,g_minus,expected_S,defect"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, math.e - 1.0, 0.0]
    last = [float(v) for v in lines[-1].split(",")]
    assert last[1] == pytest.approx(0.75, abs=1e-9)
    assert last[2] == pytest.approx(math.exp(0.75) - 1.0, abs=1e-8)


def test_defect_curve_near_one(runner, tmp_path):
    # alpha = 1.9 puts g_-(t) within 1e-13 of 1 for small t
    spec = measure.LevyMeasureSpec.tilted_power(
        measure.gamma_constant(1.9), 1.9, 1.0)
    p = tmp_path / "a19.json"
    p.write_text(json.dumps(measure.spec_to_json(spec)))
    res = runner.invoke(main, ["defect-curve", str(p), "--t-max", "1",
                               "--steps", "10"])
    assert res.exit_code == 0
    g = [float(line.split(",")[1]) for line in res.output.strip().splitlines()[1:]]
    assert g[0] == 1.0 and all(b <= a for a, b in zip(g, g[1:])) and g[-1] < g[1]


@pytest.mark.usefixtures("kernel")
def test_alpha_one_commands(runner, tmp_path):
    p = tmp_path / "a1.json"
    p.write_text(json.dumps(measure.spec_to_json(
        measure.LevyMeasureSpec.tilted_power(0.7, 1.0, 1.5))))
    res = runner.invoke(main, ["classify", str(p)])
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] == "TrueMartingale"
    q = tmp_path / "a1u.json"
    q.write_text(json.dumps(measure.spec_to_json(
        measure.LevyMeasureSpec.tilted_power(0.3, 1.0, 0.5))))
    res = runner.invoke(main, ["simulate", str(q), "--explosive", "--eps", "1e-2",
                               "--seed", "1", "--paths", "3",
                               "--out-dir", str(tmp_path / "x")])
    assert res.exit_code == 0
    assert (tmp_path / "x" / "path_00002.csv").exists()


def test_verify_invalid_config_is_an_error_line(runner, ref_json):
    res = runner.invoke(main, ["verify", "mean", ref_json, "--eps", "-1",
                               "--paths", "10"])
    assert res.exit_code == 1
    assert res.output.startswith("error: ")


@pytest.mark.parametrize("args,line", [
    (["riccati", "--steps", "-2"], "error: --steps must be nonnegative, got -2"),
    (["defect-curve", "--steps", "-1"],
     "error: --steps must be nonnegative, got -1"),
    (["defect-curve", "--t-max", "-1"],
     "error: --t-max must be finite and >= 0, got -1.0"),
    (["defect-curve", "--t-max", "inf"],
     "error: --t-max must be finite and >= 0, got inf"),
    (["defect-curve", "--t-max", "nan"],
     "error: --t-max must be finite and >= 0, got nan"),
])
def test_curve_grid_error_lines(runner, ref_json, args, line):
    # the grid options are checked before any curve is computed, and named
    res = runner.invoke(main, [args[0], ref_json, *args[1:]])
    assert res.exit_code == 1
    assert res.output == line + "\n"


def test_defect_curve_true_martingale_exits_2(runner, tab_json):
    res = runner.invoke(main, ["defect-curve", tab_json])
    assert res.exit_code == 2
    assert "defect identically zero" in res.output


@pytest.mark.usefixtures("kernel")
def test_simulate_deterministic(runner, ref_json, tmp_path):
    args = ["simulate", ref_json, "--x0", "1", "--t-end", "1", "--eps", "1e-2",
            "--seed", "7", "--paths", "2"]
    res1 = runner.invoke(main, args + ["--out-dir", str(tmp_path / "a")])
    res2 = runner.invoke(main, args + ["--out-dir", str(tmp_path / "b")])
    assert res1.exit_code == 0 and res2.exit_code == 0
    for name in ("path_00000.csv", "path_00001.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["command"] == "simulate"


def test_simulate_seed_out_of_range(runner, ref_json, tmp_path):
    for seed in (2 ** 63, 2 ** 64, -2 ** 63 - 1):
        res = runner.invoke(main, [
            "simulate", ref_json, "--t-end", "1", "--eps", "1e-2",
            "--seed", str(seed), "--paths", "1",
            "--out-dir", str(tmp_path / "s")])
        assert res.exit_code == 1
        assert res.output == (
            f"error: seed must lie in [-2**63, 2**63), got {seed}\n")


@pytest.mark.usefixtures("kernel")
def test_simulate_t_end_zero(runner, ref_json, tmp_path):
    res = runner.invoke(main, ["simulate", ref_json, "--t-end", "0",
                               "--seed", "1", "--out-dir", str(tmp_path / "z")])
    assert res.exit_code == 0
    lines = (tmp_path / "z" / "path_00000.csv").read_text().splitlines()
    assert lines[-1] == "time,size"


@pytest.mark.usefixtures("kernel")
def test_simulate_seed_drawn_when_omitted(runner, ref_json, tmp_path):
    res = runner.invoke(main, ["simulate", ref_json, "--t-end", "0.1",
                               "--out-dir", str(tmp_path / "e")])
    assert res.exit_code == 0
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert isinstance(manifest["seed"], int) and manifest["seed"] >= 0


def test_simulate_needs_a_path(runner, ref_json, tmp_path):
    # fewer than one path is refused before the output directory is made,
    # and so before x0, which only a path checks, is read
    for paths in ("0", "-3"):
        out = tmp_path / f"paths{paths}"
        res = runner.invoke(main, ["simulate", ref_json, "--paths", paths,
                                   "--x0", "-1", "--out-dir", str(out)])
        assert res.exit_code == 1
        assert res.output == f"error: --paths must be >= 1, got {paths}\n"
        assert not out.exists()


def test_simulate_explosive_invalid_eps(runner, untilted_json, tmp_path):
    res = runner.invoke(main, ["simulate", untilted_json, "--explosive",
                               "--eps", str(math.pi + 0.1),
                               "--out-dir", str(tmp_path / "x")])
    assert res.exit_code == 1


@pytest.mark.usefixtures("kernel")
def test_verify_mean_t0_exact(runner, ref_json):
    res = runner.invoke(main, ["verify", "mean", ref_json, "--t", "0",
                               "--paths", "100", "--seed", "1"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    row = report["rows"][0]
    assert row["mean"] == row["theory"] == 1.0
    assert row["z"] == 0.0 and row["pass"]


@pytest.mark.usefixtures("kernel")
def test_verify_mean_small(runner, ref_json, tmp_path):
    out = tmp_path / "rep"
    res = runner.invoke(main, ["verify", "mean", ref_json, "--t", "1",
                               "--paths", "3000", "--eps", "1e-3",
                               "--seed", "5", "--out", str(out)])
    assert res.exit_code == 0
    assert (out / "mean_report.json").exists()
    csv = (out / "mean_report.csv").read_text().splitlines()
    assert csv[0] == "t,u,mean,stderr,theory,z,pass"
    manifest = json.loads((out / "mean_manifest.json").read_text())
    assert manifest["seed"] == 5


@pytest.mark.usefixtures("kernel")
def test_verify_mgf_variance_warning_excluded(runner, ref_json):
    res = runner.invoke(main, ["verify", "mgf", ref_json, "--u", "0.9",
                               "--t", "0.5", "--paths", "500", "--eps", "1e-2",
                               "--seed", "5"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["rows"][0]["variance_warning"] is True
    assert report["rows"][0]["counted"] is False


@pytest.mark.usefixtures("kernel")
def test_verify_survival_small(runner, ref_json):
    res = runner.invoke(main, ["verify", "survival", ref_json,
                               "--t", str(2.0 * math.log(2.0)),
                               "--paths", "2000", "--eps", "1e-2",
                               "--cap", "1e5", "--seed", "9"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["rows"][0]["theory"] == pytest.approx(math.exp(-0.25), abs=1e-8)


@pytest.mark.usefixtures("kernel")
def test_verify_survival_on_a_scaled_strict_spec(runner, tmp_path):
    # the explosive dual of tilted_power(10, 1.5, 1) decays at
    # H - m(eps), H = c/C(alpha) = 35.4; at decay 1 - m(eps) the same
    # command read a survival of 0.459 against 0.708, z = -70.5
    p = tmp_path / "scaled.json"
    p.write_text(json.dumps(measure.spec_to_json(
        measure.LevyMeasureSpec.tilted_power(10.0, 1.5, 1.0))))
    res = runner.invoke(main, ["verify", "survival", str(p), "--t", "0.05",
                               "--paths", "20000", "--eps", "1e-3",
                               "--cap", "1e5", "--seed", "3"])
    assert res.exit_code == 0, res.output
    row = json.loads(res.output)["rows"][0]
    assert row["theory"] == pytest.approx(0.7079, abs=1e-4)
    assert row["pass"] and abs(row["z"]) <= 3.0


@pytest.mark.usefixtures("kernel")
def test_verify_survival_reports_do_not_depend_on_workers(runner, ref_json,
                                                          tmp_path):
    # --workers 1 runs each kernel call on one thread, the default on every
    # usable CPU; every path draws from its own stream, so the reports of
    # the two runs are the same bytes
    args = ["verify", "survival", ref_json, "--t", str(2.0 * math.log(2.0)),
            "--paths", "5000", "--eps", "1e-2", "--cap", "1e5", "--seed", "9"]
    for name, workers in (("one", ["--workers", "1"]), ("default", [])):
        res = runner.invoke(main, args + workers + ["--out",
                                                    str(tmp_path / name)])
        assert res.exit_code == 0, res.output
    for name in ("survival_report.json", "survival_report.csv"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "default" / name).read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_rejects_non_positive_workers(runner, ref_json, workers):
    res = runner.invoke(main, ["verify", "mean", ref_json, "--paths", "100",
                               "--eps", "1e-2", "--seed", "1",
                               "--workers", workers])
    assert res.exit_code == 1
    assert res.output == f"error: workers must be >= 1, got {workers}\n"


def test_lemma_check_small_grid(runner):
    res = runner.invoke(main, ["lemma-check", "--alpha-grid", "1.3,1.7",
                               "--u-grid", "0,0.5,1"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "alpha,u,gamma1_residual,gamma2_residual"
    assert len(lines) == 7
    vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert vals[:, 2:].max() <= 1e-8


def test_lemma_check_rejects_bad_grid(runner):
    res = runner.invoke(main, ["lemma-check", "--alpha-grid", "2.5"])
    assert res.exit_code == 1


@pytest.mark.parametrize("args,line", [
    (["--alpha-grid", "x"], "error: cannot parse grid 'x'"),
    (["--u-grid", ","], "error: empty grid"),
    (["--alpha-grid", "1.5,2.5"], "error: alpha grid must lie in (1, 2)"),
    (["--u-grid", "0,1.5"], "error: u grid must lie in (-inf, 1]"),
])
def test_lemma_check_grid_error_lines(runner, args, line):
    res = runner.invoke(main, ["lemma-check", *args])
    assert res.exit_code == 1
    assert res.output == line + "\n"


# the simulation stack: the kernel's loader and montecarlo, and the
# standard modules they and the run manifest import
SIMULATION_STACK = ("jumplm.simulate", "jumplm.montecarlo", "ctypes",
                    "hashlib", "subprocess", "logging")


def _run_loading_no_scipy(tmp_path, *commands, numpy=False, simulation=True):
    """Run each command line through jumplm.cli.main in one fresh process,
    checking that it exits 0 and that no scipy or numpy module or process
    pool has been imported after the import of jumplm and after each
    command; with numpy, the commands may import numpy.  The import loads
    no module of SIMULATION_STACK either; without simulation, neither do
    the commands."""
    code = ("import sys\n"
            "import jumplm, jumplm.cli\n"
            f"STACK = {SIMULATION_STACK!r}\n"
            "def loaded(numpy=False, simulation=False):\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy')\n"
            "                  or m == 'concurrent.futures.process'\n"
            "                  or not numpy and m.split('.')[0] == 'numpy'\n"
            "                  or not simulation and m in STACK)\n"
            "assert loaded() == [], loaded()[:5]\n"
            "for args in sys.argv[1:]:\n"
            "    try:\n"
            "        jumplm.cli.main(args.split())\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, (args, exc.code)\n"
            f"    assert loaded({numpy}, {simulation}) == [], "
            f"(args, loaded({numpy}, {simulation})[:5])\n")
    src = os.path.dirname(os.path.dirname(measure.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"), PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code, *commands], env=env,
                   check=True, stdout=subprocess.DEVNULL)


@pytest.mark.usefixtures("kernel")
def test_help_and_explosive_simulate_load_no_scipy(tmp_path, untilted_json):
    # scipy, numpy and the process pool are imported on first use: the
    # import, --help and an explosive simulation of an untilted power or
    # of a tilted one (H in closed form, measure.dual_decay) reach none
    simulate = (f"simulate {untilted_json} --explosive --eps 1e-2 --cap 1e5 "
                f"--seed 1 --paths 3 --out-dir {tmp_path / 'out'}")
    tilted = tmp_path / "tilted.json"
    tilted.write_text(json.dumps(measure.spec_to_json(
        measure.LevyMeasureSpec.tilted_power(0.7, 1.3, 2.0))))
    simulate_tilted = (f"simulate {tilted} --explosive --eps 1e-2 --cap 1e5 "
                       f"--seed 1 --paths 3 --out-dir {tmp_path / 'tilted'}")
    _run_loading_no_scipy(tmp_path, "--help", simulate, simulate_tilted)
    assert (tmp_path / "out" / "path_00002.csv").exists()
    assert (tmp_path / "tilted" / "path_00002.csv").exists()


def test_import_and_analytic_commands_load_no_simulation_stack(tmp_path,
                                                               ref_json):
    # simulate and montecarlo load on first use (jumplm.__getattr__), so
    # the import, --help, --version, classify and defect-curve load neither
    # them nor the ctypes, hashlib, subprocess and logging they import
    _run_loading_no_scipy(tmp_path, "--help", "--version",
                          f"classify {ref_json}", f"defect-curve {ref_json}",
                          simulation=False)


def test_public_names_are_the_submodules_objects(tmp_path):
    # every name of jumplm.__all__ resolves, by attribute and by star
    # import, to the object its defining module holds, also when the first
    # access is what loads that module; an unknown name stays an error
    code = ("import sys\n"
            "import jumplm\n"
            "assert 'jumplm.simulate' not in sys.modules\n"
            "star = {}\n"
            "exec('from jumplm import *', star)\n"
            "for name in jumplm.__all__:\n"
            "    obj = getattr(jumplm, name)\n"
            "    assert star[name] is obj, name\n"
            "    if f'jumplm.{name}' in sys.modules:\n"
            "        assert obj is sys.modules[f'jumplm.{name}'], name\n"
            "    elif name != '__version__':\n"
            "        home = sys.modules[obj.__module__]\n"
            "        assert obj is getattr(home, name), name\n"
            "assert jumplm.EngineConfig is jumplm.simulate.EngineConfig\n"
            "try:\n"
            "    jumplm.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('jumplm.no_such_name resolved')\n")
    src = os.path.dirname(os.path.dirname(measure.__file__))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))
    with pytest.raises(ImportError):
        from jumplm import no_such_name  # noqa: F401


def test_paths_default_is_montecarlos(runner):
    # --paths shows montecarlo's default without importing montecarlo
    from jumplm import cli
    assert cli.DEFAULT_PATHS == montecarlo.DEFAULT_PATHS
    res = runner.invoke(main, ["verify", "--help"])
    assert res.exit_code == 0
    assert f"[default: {montecarlo.DEFAULT_PATHS}]" in res.output


@pytest.mark.usefixtures("kernel")
def test_tilted_simulate_and_verify_mean_load_no_scipy(tmp_path, ref_json):
    # the reference's Lambda(eps) and m(eps) (beta = 1) are incomplete
    # gammas computed in measure, so simulating it loads neither scipy nor
    # numpy; verify mean's theory is x0 e^(-b t), and its estimate sums
    # the terminal values with numpy
    simulate = (f"simulate {ref_json} --eps 1e-3 --seed 1 --paths 3 "
                f"--out-dir {tmp_path / 'out'}")
    mean = f"verify mean {ref_json} --eps 1e-3 --paths 2000 --seed 1"
    _run_loading_no_scipy(tmp_path, simulate)
    _run_loading_no_scipy(tmp_path, mean, numpy=True)
    assert (tmp_path / "out" / "path_00002.csv").exists()


@pytest.mark.usefixtures("kernel")
def test_verify_survival_loads_no_numpy(tmp_path, ref_json):
    # the survival theory on the reference is the closed-form minimal
    # branch, and the estimate counts the paths' end codes; the
    # supermartingale sweep is survival estimates, and decides Strict
    # without classify's exponent fit; classify's fit and defect-curve's
    # grid are plain floats
    survival = (f"verify survival {ref_json} --eps 1e-2 --cap 1e5 "
                f"--t {2.0 * math.log(2.0)!r} --paths 300 --seed 3")
    sweep = (f"verify supermartingale {ref_json} --eps 1e-2 --cap 1e5 "
             f"--t-grid 0.5,1,2 --paths 300 --seed 3")
    _run_loading_no_scipy(tmp_path, survival, sweep, f"classify {ref_json}",
                          f"defect-curve {ref_json}")


@pytest.mark.usefixtures("kernel")
def test_block_csvs_and_survival_need_no_numpy(ref_spec):
    # with numpy unimportable, a recorded block and a survival estimate on
    # the reference and its dual run, on the kernel, to the same outputs
    t_half = 2.0 * math.log(2.0)
    cfg = simulate.EngineConfig(eps=1e-2, seed=3, cap=1e5)
    want = (simulate.block_csvs(ref_spec, 1.0, 1.0, cfg, 5, 40, False),
            montecarlo.estimate_survival(measure.untilted_spec(ref_spec), 1.0,
                                         t_half, 500, cfg))
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from jumplm import measure, montecarlo, simulate\n"
            "ref = measure.reference_spec()\n"
            "cfg = simulate.EngineConfig(eps=1e-2, seed=3, cap=1e5)\n"
            "print(repr((simulate.block_csvs(ref, 1.0, 1.0, cfg, 5, 40, False),\n"
            "            montecarlo.estimate_survival(\n"
            f"                measure.untilted_spec(ref), 1.0, {t_half!r}, 500,\n"
            "                cfg))))\n")
    src = os.path.dirname(os.path.dirname(measure.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out == repr(want) + "\n"


@pytest.mark.usefixtures("kernel")
def test_simulate_writes_no_file_when_a_path_stops(runner, ref_json,
                                                  tmp_path, monkeypatch):
    # a path the kernel stops on an error (here a decay rate of 0, which no
    # validated spec gives) ends the command with an error line that names
    # it, before any CSV or the manifest is written
    rates = simulate._rates
    monkeypatch.setattr(simulate, "_rates", lambda *a: (rates(*a)[0], 0.0))
    out = tmp_path / "out"
    res = runner.invoke(main, ["simulate", ref_json, "--eps", "1e-2",
                               "--seed", "1", "--paths", "5", "--out-dir",
                               str(out)])
    assert res.exit_code == 1
    assert res.output == "error: path 0 stopped: a division by zero\n"
    assert list(out.iterdir()) == []


def test_no_compiler_no_simulation(tmp_path, ref_json):
    # with no cc on PATH and an empty cache, fan_out and simulate_path
    # raise KernelUnavailable with the reason, decided once per process;
    # jumplm simulate and verify survival exit 1 with it, and classify,
    # which simulates nothing, still runs
    src = os.path.dirname(os.path.dirname(measure.__file__))
    env = dict(os.environ, PATH=str(tmp_path / "bin"), PYTHONPATH=src,
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    code = ("from jumplm import measure, simulate\n"
            "from jumplm.errors import KernelUnavailable\n"
            "spec = measure.reference_spec()\n"
            "cfg = simulate.EngineConfig(eps=1e-2, seed=1)\n"
            "for run in (lambda: simulate.fan_out(spec, 1.0, 1.0, cfg, 0, 4,\n"
            "                                     False),\n"
            "            lambda: simulate.simulate_path(spec, 1.0, 1.0, cfg)):\n"
            "    try:\n"
            "        run()\n"
            "    except KernelUnavailable as exc:\n"
            "        print(exc)\n"
            "assert simulate._load.cache_info().misses == 1\n")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    why, again = res.stdout.splitlines()
    assert why == again
    assert why.startswith("simulation needs the compiled kernel: ")
    assert "'cc'" in why

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-c",
             "import sys\nfrom jumplm.cli import main\nmain(sys.argv[1:])\n",
             *args], env=env, capture_output=True, text=True)

    for args in (["simulate", ref_json, "--eps", "1e-2", "--seed", "1",
                  "--out-dir", str(tmp_path / "out")],
                 ["verify", "survival", ref_json, "--eps", "1e-2", "--cap",
                  "1e5", "--paths", "300", "--seed", "3"]):
        res = cli(*args)
        assert (res.returncode, res.stderr) == (1, f"error: {why}\n")
    res = cli("classify", ref_json)
    assert res.returncode == 0, res.stderr


def _interrupt_after_kernel_line(args, env, setup=""):
    """Run the CLI with args after the Python code setup, send SIGINT 1 s
    after its kernel DEBUG line; return its exit status, the rest of its
    stderr and the seconds it took to stop."""
    code = ("import logging, sys\n"
            "logging.basicConfig(level=logging.DEBUG, format='%(message)s')\n"
            "from jumplm.cli import main\n"
            f"{setup}main(sys.argv[1:])\n")
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *args], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        for line in proc.stderr:
            if line.startswith("simulation kernel: "):
                break
        time.sleep(1.0)
        assert proc.poll() is None
        proc.send_signal(signal.SIGINT)
        sent = time.monotonic()
        rest = proc.stderr.read()
        status = proc.wait()
        stopped = time.monotonic() - sent
    finally:
        watchdog.cancel()
        proc.kill()
    return status, rest, stopped


@pytest.mark.usefixtures("kernel")
def test_ctrl_c_stops_simulate(tmp_path, untilted_json):
    # at the CLI defaults (eps 1e-4, cap 1e12) a block of explosive paths
    # is seconds of kernel time; SIGINT, sent once the simulation has
    # begun, ends the command within a few seconds, before its block is
    # recorded.  One CPU keeps the block's one recorded pass longer than
    # that second on any machine.
    src = os.path.dirname(os.path.dirname(measure.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=src)
    one_cpu = min(os.sched_getaffinity(0))
    status, rest, stopped = _interrupt_after_kernel_line(
        ["simulate", untilted_json, "--explosive", "--seed", "1", "--paths",
         "1000", "--out-dir", str(tmp_path / "out")], env,
        f"import os\nos.sched_setaffinity(0, {{{one_cpu}}})\n")
    assert status == 1 and rest.endswith("Aborted!\n"), (status, rest[-500:])
    assert stopped < 5.0, stopped
    assert not list((tmp_path / "out").glob("path_*.csv"))


@pytest.mark.usefixtures("kernel")
def test_ctrl_c_stops_the_fan_out(tmp_path, ref_json):
    # at the CLI defaults (eps 1e-4, cap 1e12) one 4,096-path chunk of
    # verify survival is minutes of kernel time; SIGINT, sent once the
    # fan-out has begun, ends the command within a few seconds the way
    # click ends on a KeyboardInterrupt
    src = os.path.dirname(os.path.dirname(measure.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               PYTHONPATH=src)
    status, rest, stopped = _interrupt_after_kernel_line(
        ["verify", "survival", ref_json, "--t", "0.5", "--seed", "1"], env)
    assert status == 1 and rest.endswith("Aborted!\n"), (status, rest[-500:])
    assert stopped < 5.0, stopped
