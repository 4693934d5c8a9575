import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from jumplm import measure
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


def test_defect_curve_true_martingale_exits_2(runner, tab_json):
    res = runner.invoke(main, ["defect-curve", tab_json])
    assert res.exit_code == 2
    assert "defect identically zero" in res.output


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


def test_simulate_t_end_zero(runner, ref_json, tmp_path):
    res = runner.invoke(main, ["simulate", ref_json, "--t-end", "0",
                               "--seed", "1", "--out-dir", str(tmp_path / "z")])
    assert res.exit_code == 0
    lines = (tmp_path / "z" / "path_00000.csv").read_text().splitlines()
    assert lines[-1] == "time,size"


def test_simulate_seed_drawn_when_omitted(runner, ref_json, tmp_path):
    res = runner.invoke(main, ["simulate", ref_json, "--t-end", "0.1",
                               "--out-dir", str(tmp_path / "e")])
    assert res.exit_code == 0
    manifest = json.loads((tmp_path / "e" / "manifest.json").read_text())
    assert isinstance(manifest["seed"], int) and manifest["seed"] >= 0


def test_simulate_explosive_invalid_eps(runner, untilted_json, tmp_path):
    res = runner.invoke(main, ["simulate", untilted_json, "--explosive",
                               "--eps", str(math.pi + 0.1),
                               "--out-dir", str(tmp_path / "x")])
    assert res.exit_code == 1


def test_verify_mean_t0_exact(runner, ref_json):
    res = runner.invoke(main, ["verify", "mean", ref_json, "--t", "0",
                               "--paths", "100", "--seed", "1"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    row = report["rows"][0]
    assert row["mean"] == row["theory"] == 1.0
    assert row["z"] == 0.0 and row["pass"]


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


def test_verify_mgf_variance_warning_excluded(runner, ref_json):
    res = runner.invoke(main, ["verify", "mgf", ref_json, "--u", "0.9",
                               "--t", "0.5", "--paths", "500", "--eps", "1e-2",
                               "--seed", "5"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["rows"][0]["variance_warning"] is True
    assert report["rows"][0]["counted"] is False


def test_verify_survival_small(runner, ref_json):
    res = runner.invoke(main, ["verify", "survival", ref_json,
                               "--t", str(2.0 * math.log(2.0)),
                               "--paths", "2000", "--eps", "1e-2",
                               "--cap", "1e5", "--seed", "9"])
    assert res.exit_code == 0
    report = json.loads(res.output)
    assert report["rows"][0]["theory"] == pytest.approx(math.exp(-0.25), abs=1e-8)


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
