"""Command-line front end: classification, curves, simulation, verification.

Every command reads a measure-spec JSON file, writes plot-ready CSV or
JSON, and is deterministic given its recorded manifest.  Exit codes:
0 success, 2 inconclusive/degenerate verdicts, 1 on schema or validation
failures and failed verification rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import secrets
import sys
import time
from dataclasses import dataclass, asdict

import click
import numpy as np

from . import __version__ as VERSION
from . import measure, montecarlo, riccati, simulate
from .errors import JumplmError
from .simulate import EngineConfig


@dataclass
class RunManifest:
    """Provenance record accompanying every file-producing command."""

    command: str
    parameters: dict
    spec_sha256: str
    seed: int
    version: str
    duration_seconds: float

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _spec_hash(spec) -> str:
    canon = json.dumps(measure.spec_to_json(spec), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _resolve_seed(seed):
    return secrets.randbits(31) if seed is None else seed


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _Group(click.Group):
    """The one error boundary: a JumplmError from any command exits 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except JumplmError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
@click.version_option(VERSION, prog_name="jumplm")
def main():
    """Strict local martingales from self-exciting jump processes."""


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
def classify(config):
    """Classify the measure: Strict, TrueMartingale, or Inconclusive."""
    cls = riccati.classify(measure.spec_from_json(config))
    out = {
        "verdict": cls.verdict,
        "osgood_value": cls.osgood_value if math.isfinite(cls.osgood_value) else None,
        "exponent_estimate": cls.exponent_estimate,
        "exponent_stderr": cls.exponent_stderr,
    }
    click.echo(json.dumps(out, sort_keys=True, indent=2))
    sys.exit(0 if cls.verdict != riccati.INCONCLUSIVE else 2)


@main.command("riccati")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--u0", default=0.5, show_default=True, help="initial value, < 1")
@click.option("--t-end", default=5.0, show_default=True)
@click.option("--steps", default=200, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write CSV here instead of stdout")
def riccati_cmd(config, u0, t_end, steps, out):
    """Solve dg/dt = R(g) and emit the curve as CSV (t, g)."""
    sol = riccati.solve(measure.spec_from_json(config), u0, t_end)
    grid = np.linspace(0.0, t_end, steps + 1)
    lines = ["t,g"]
    for t in grid:
        lines.append(f"{_fmt(t)},{_fmt(float(sol(t)))}")
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command("defect-curve")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--x0", default=1.0, show_default=True)
@click.option("--t-max", default=5.0, show_default=True)
@click.option("--steps", default=50, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def defect_curve(config, x0, t_max, steps, out):
    """CSV of (t, g_minus, expected_S, defect) for a Strict measure."""
    spec = measure.spec_from_json(config)
    if riccati.classify(spec).verdict != riccati.STRICT:
        click.echo("defect identically zero", err=True)
        sys.exit(2)
    lines = ["t,g_minus,expected_S,defect"]
    for t in np.linspace(0.0, t_max, steps + 1):
        g = riccati.minimal_solution(spec, float(t))
        es = math.exp(x0 * g) - 1.0
        defect = (math.exp(x0) - 1.0) - es
        lines.append(f"{_fmt(float(t))},{_fmt(g)},{_fmt(es)},{_fmt(defect)}")
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.command("simulate")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--x0", default=1.0, show_default=True)
@click.option("--t-end", default=1.0, show_default=True)
@click.option("--eps", default=1e-4, show_default=True)
@click.option("--seed", type=int, default=None,
              help="master seed; drawn from entropy when omitted")
@click.option("--paths", default=1, show_default=True)
@click.option("--explosive", is_flag=True,
              help="simulate the uncompensated explosive companion")
@click.option("--cap", default=1e12, show_default=True)
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
def simulate_cmd(config, x0, t_end, eps, seed, paths, explosive, cap, out_dir):
    """Write one CSV per simulated path plus a manifest."""
    import os

    spec = measure.spec_from_json(config)
    seed = _resolve_seed(seed)
    started = time.monotonic()
    cfg = EngineConfig(eps=eps, seed=seed, cap=cap)
    os.makedirs(out_dir, exist_ok=True)
    for i in range(paths):
        if explosive:
            path = simulate.simulate_explosive_path(spec, x0, t_end, cfg, i)
        else:
            path = simulate.simulate_path(spec, x0, t_end, cfg, i)
        with open(os.path.join(out_dir, f"path_{i:05d}.csv"), "w") as fh:
            simulate.export_path_csv(path, fh)
    manifest = RunManifest(
        command="simulate",
        parameters={"x0": x0, "t_end": t_end, "eps": eps, "paths": paths,
                    "explosive": explosive, "cap": cap},
        spec_sha256=_spec_hash(spec), seed=seed, version=VERSION,
        duration_seconds=time.monotonic() - started)
    manifest.write(os.path.join(out_dir, "manifest.json"))


def _parse_grid(text):
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        click.echo(f"error: cannot parse grid {text!r}", err=True)
        sys.exit(1)
    if not vals:
        click.echo("error: empty grid", err=True)
        sys.exit(1)
    return vals


@main.command("verify")
@click.argument("subcommand",
                type=click.Choice(["mgf", "mean", "survival",
                                   "supermartingale", "bias"]))
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--x0", default=1.0, show_default=True)
@click.option("--t", default=1.0, show_default=True)
@click.option("--t-grid", default="0.5,1,2,4", show_default=True,
              help="time grid for the supermartingale sweep")
@click.option("--u", default=0.5, show_default=True)
@click.option("--paths", default=montecarlo.DEFAULT_PATHS, show_default=True)
@click.option("--eps", default=1e-4, show_default=True)
@click.option("--eps-list", default="1e-2,1e-3,1e-4", show_default=True,
              help="truncation grid for the bias sweep")
@click.option("--cap", default=1e12, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=None)
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="directory for report files (default: report to stdout only)")
def verify(subcommand, config, x0, t, t_grid, u, paths, eps, eps_list, cap,
           seed, workers, out):
    """Run one Monte Carlo verification experiment and report z-scores."""
    import os

    spec = measure.spec_from_json(config)
    seed = _resolve_seed(seed)
    cfg = EngineConfig(eps=eps, seed=seed, cap=cap)
    started = time.monotonic()
    if subcommand == "mgf":
        est = montecarlo.estimate_mgf(spec, x0, t, u, paths, cfg, workers)
        report = _single_report("mgf", spec, cfg, t, u, est,
                                "riccati.expected_value")
    elif subcommand == "mean":
        est = montecarlo.estimate_mean(spec, x0, t, paths, cfg, workers)
        report = _single_report("mean", spec, cfg, t, None, est,
                                "closed form x0*exp(-b*t)")
    elif subcommand == "survival":
        untilted = measure.untilted_spec(spec)
        est = montecarlo.estimate_survival(untilted, x0, t, paths, cfg,
                                           workers)
        report = _single_report("survival", spec, cfg, t, 1.0, est,
                                "riccati.minimal_solution")
    elif subcommand == "supermartingale":
        report = montecarlo.supermartingale_sweep(
            spec, x0, _parse_grid(t_grid), paths, cfg, workers)
    else:
        report = montecarlo.bias_sweep(
            spec, x0, t, u, _parse_grid(eps_list), paths, cfg, workers)
    click.echo(report.to_json())
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, f"{subcommand}_report.json"), "w") as fh:
            fh.write(report.to_json() + "\n")
        with open(os.path.join(out, f"{subcommand}_report.csv"), "w") as fh:
            fh.write(report.to_csv())
        manifest = RunManifest(
            command=f"verify {subcommand}",
            parameters={"x0": x0, "t": t, "u": u, "paths": paths, "eps": eps,
                        "cap": cap, "t_grid": t_grid, "eps_list": eps_list},
            spec_sha256=_spec_hash(spec), seed=seed, version=VERSION,
            duration_seconds=time.monotonic() - started)
        manifest.write(os.path.join(out, f"{subcommand}_manifest.json"))
    sys.exit(0 if report.all_pass else 1)


def _single_report(name, spec, cfg, t, u, est, source):
    passed = abs(est.z_score) <= montecarlo.Z_THRESHOLD
    row = montecarlo.ReportRow(t=t, u=u, estimate=est, theory_source=source,
                               passed=passed,
                               counted=not est.variance_warning)
    return montecarlo.ExperimentReport(experiment=name, spec=spec, config=cfg,
                                       rows=(row,), seed=cfg.seed)


@main.command("lemma-check")
@click.option("--alpha-grid", default="1.1,1.2,1.3,1.4,1.5,1.6,1.7,1.8,1.9",
              show_default=True)
@click.option("--u-grid", default="-2,-1,0,0.5,0.9,1", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def lemma_check(alpha_grid, u_grid, out):
    """Quadrature residuals of the tilted-integral identities, as CSV."""
    alphas = _parse_grid(alpha_grid)
    us = _parse_grid(u_grid)
    if any(not (1.0 < a < 2.0) for a in alphas):
        click.echo("error: alpha grid must lie in (1, 2)", err=True)
        sys.exit(1)
    if any(uu > 1.0 for uu in us):
        click.echo("error: u grid must lie in (-inf, 1]", err=True)
        sys.exit(1)
    lines = ["alpha,u,gamma1_residual,gamma2_residual"]
    worst = 0.0
    for a in alphas:
        g2 = measure.gamma2_residual(a)
        for uu in us:
            g1 = measure.lemma_a1_residual(a, uu)
            worst = max(worst, g1, g2)
            lines.append(f"{_fmt(a)},{_fmt(uu)},{_fmt(g1)},{_fmt(g2)}")
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
    sys.exit(0 if worst <= 1e-8 else 1)


if __name__ == "__main__":
    main()
