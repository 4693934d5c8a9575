import array
import contextlib
import ctypes
import dataclasses
import io
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from jumplm import measure, simulate
from jumplm.errors import (DomainError, InvalidConfig, JumplmError,
                           KernelUnavailable, MaxEventsExceeded)

# every test here but the build's own simulates, or reads the kernel
pytestmark = pytest.mark.usefixtures("kernel")


def test_engine_config_validation():
    with pytest.raises(InvalidConfig):
        simulate.EngineConfig(eps=0.0)
    with pytest.raises(InvalidConfig):
        simulate.EngineConfig(eps=1e-3, cap=-1.0)
    with pytest.raises(InvalidConfig):
        simulate.EngineConfig(eps=1e-3, max_events=0)


def test_engine_config_seed_range():
    # Philox keys are 64-bit words: a seed past them used to alias another
    # seed's streams (2**63 + 1 -> 2**63, 2**64 - 1 -> 0) or overflow
    for seed in (2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1, 2 ** 64, -2 ** 63 - 1):
        with pytest.raises(InvalidConfig):
            simulate.EngineConfig(eps=1e-3, seed=seed)
    for seed in (-2 ** 63, -1, 0, 2 ** 63 - 1):
        assert simulate.EngineConfig(eps=1e-3, seed=seed).seed == seed


def test_negative_seed_streams_unchanged():
    # a negative seed keys its streams with seed mod 2**64, as before
    for seed in (-1, -5, -2 ** 63):
        next_u = oracle._uniforms(seed, 3)
        got = np.array([next_u() for _ in range(300)])
        want = np.random.Generator(np.random.Philox(key=[seed, 3])).random(300)
        assert np.array_equal(got, want)


def test_conservative_decay_rate(ref_spec):
    cfg = simulate.EngineConfig(eps=1.0, seed=0)
    path = simulate.simulate_path(ref_spec, 1.0, 0.5, cfg)
    mom = measure.validate(ref_spec)
    expect = mom.b + mom.m1 - measure.small_jump_mean(ref_spec, 1.0)
    assert path.decay_rate == pytest.approx(expect, rel=1e-12)
    assert path.decay_rate == pytest.approx(1.0 - math.erf(1.0) / 2.0, rel=1e-12)


def test_determinism_and_record_flag(ref_spec):
    cfg = simulate.EngineConfig(eps=1e-3, seed=21)
    a = simulate.simulate_path(ref_spec, 1.0, 1.0, cfg, path_index=4)
    b = simulate.simulate_path(ref_spec, 1.0, 1.0, cfg, path_index=4)
    assert a.events == b.events and a.terminal == b.terminal
    c = simulate.simulate_path(ref_spec, 1.0, 1.0, cfg, path_index=4,
                               record=False)
    assert c.events == [] and c.terminal == a.terminal
    d = simulate.simulate_path(ref_spec, 1.0, 1.0, cfg, path_index=5)
    assert d.events != a.events


def test_evaluate_matches_terminal(ref_spec):
    cfg = simulate.EngineConfig(eps=1e-2, seed=3)
    path = simulate.simulate_path(ref_spec, 1.0, 2.0, cfg)
    assert simulate.evaluate(path, 2.0) == pytest.approx(path.terminal, rel=1e-12)
    assert simulate.evaluate(path, 0.0) == 1.0
    with pytest.raises(DomainError):
        simulate.evaluate(path, 2.5)


def test_evaluate_is_cadlag(ref_spec):
    cfg = simulate.EngineConfig(eps=1e-2, seed=11)
    for idx in range(20):
        path = simulate.simulate_path(ref_spec, 1.0, 2.0, cfg, path_index=idx)
        if path.events:
            tj, xi = path.events[0]
            post = simulate.evaluate(path, tj)
            pre = simulate.evaluate(path, tj * (1.0 - 1e-12))
            assert post == pytest.approx(pre + xi, rel=1e-9)
            break
    else:
        pytest.fail("no path with events found")


def test_conservative_mean(ref_spec):
    cfg = simulate.EngineConfig(eps=1e-3, seed=17)
    n = 20000
    vals = np.array([
        simulate.simulate_path(ref_spec, 1.0, 1.0, cfg, i, record=False).terminal
        for i in range(n)])
    theory = math.exp(-0.5)
    se = vals.std() / math.sqrt(n)
    assert abs(vals.mean() - theory) <= 4.0 * se


def test_self_excitation(ref_spec):
    # jump counts should scale with the starting level
    cfg = simulate.EngineConfig(eps=0.05, seed=29)
    counts = {}
    for x0 in (1.0, 4.0):
        counts[x0] = np.mean([
            len(simulate.simulate_path(ref_spec, x0, 1.0, cfg, i).events)
            for i in range(300)])
    assert counts[4.0] > 2.5 * counts[1.0]


def test_max_events_guard(ref_spec):
    cfg = simulate.EngineConfig(eps=1e-4, seed=1, max_events=2)
    with pytest.raises(MaxEventsExceeded):
        for i in range(50):
            simulate.simulate_path(ref_spec, 1.0, 1.0, cfg, i)


def test_input_validation(ref_spec):
    cfg = simulate.EngineConfig(eps=1e-3)
    with pytest.raises(DomainError):
        simulate.simulate_path(ref_spec, -1.0, 1.0, cfg)
    with pytest.raises(DomainError):
        simulate.simulate_path(ref_spec, 1.0, -1.0, cfg)


def test_explosive_requires_subunit_drift():
    untilted = measure.untilted_spec(measure.reference_spec())
    cfg = simulate.EngineConfig(eps=4.0)
    with pytest.raises(InvalidConfig):
        simulate.simulate_explosive_path(untilted, 1.0, 1.0, cfg)


@pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
def test_explosive_reference_rates(eps):
    # the reference's dual decays at 1 - m(eps), to the bit
    untilted = measure.untilted_spec(measure.reference_spec())
    assert simulate._rates(untilted, 1.0, 1.0, eps, True) == (
        measure.tail_intensity(untilted, eps),
        1.0 - measure.small_jump_mean(untilted, eps))


def test_explosive_decay_is_the_htransform():
    # off the reference the dual decays at H - m(eps), H = c/C(alpha),
    # and m(eps) >= H raises
    spec = measure.LevyMeasureSpec.tilted_power(10.0, 1.5, 0.0)
    h = 10.0 / measure.gamma_constant(1.5)
    assert simulate._rates(spec, 1.0, 1.0, 1e-3, True)[1] == \
        h - measure.small_jump_mean(spec, 1e-3)
    with pytest.raises(InvalidConfig, match="H=35.4491"):
        simulate._rates(spec, 1.0, 1.0, 1e4, True)


def test_explosive_paths_explode():
    untilted = measure.untilted_spec(measure.reference_spec())
    cfg = simulate.EngineConfig(eps=1e-2, seed=13, cap=1e4)
    t_end = 2.0 * math.log(2.0)
    exploded = 0
    for i in range(300):
        path = simulate.simulate_explosive_path(untilted, 1.0, t_end, cfg, i)
        if path.exploded:
            exploded += 1
            assert path.terminal is None
            assert 0.0 < path.explosion_time <= t_end
            assert simulate.evaluate(path, t_end) is simulate.EXPLODED
            assert simulate.evaluate(path, 0.0) == 1.0
        else:
            assert path.terminal is not None and path.terminal > 0
    # theory: about 22% of paths explode by t = 2 ln 2
    assert 30 <= exploded <= 110


def test_explosive_max_events_marks_explosion():
    untilted = measure.untilted_spec(measure.reference_spec())
    cfg = simulate.EngineConfig(eps=1e-3, seed=2, max_events=5)
    for i in range(50):
        path = simulate.simulate_explosive_path(untilted, 1.0, 5.0, cfg, i)
        if path.events and len(path.events) >= 5:
            assert path.exploded
            return
    pytest.fail("expected some path to hit the event guard")


def test_export_csv_format(ref_spec):
    cfg = simulate.EngineConfig(eps=1e-2, seed=8)
    path = simulate.simulate_path(ref_spec, 1.0, 2.0, cfg, path_index=1)
    buf = io.StringIO()
    simulate.export_path_csv(path, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# x0=1"
    assert lines[1].startswith("# decay_rate=")
    assert lines[2] == "# eps=0.01"
    assert lines[3] == "# exploded=false"
    assert lines[4] == "# t_end=2"
    assert lines[5] == "time,size"
    assert len(lines) == 6 + len(path.events)
    if path.events:
        t_str, size_str = lines[6].split(",")
        # 17 significant digits round-trip exactly
        assert float(t_str) == path.events[0][0]
        assert float(size_str) == path.events[0][1]


def test_export_csv_explosion_header():
    untilted = measure.untilted_spec(measure.reference_spec())
    cfg = simulate.EngineConfig(eps=1e-2, seed=13, cap=1e3)
    for i in range(100):
        path = simulate.simulate_explosive_path(untilted, 1.0, 3.0, cfg, i)
        if path.exploded:
            buf = io.StringIO()
            simulate.export_path_csv(path, buf)
            text = buf.getvalue()
            assert "# exploded=true" in text
            assert "# explosion_time=" in text
            return
    pytest.fail("no exploding path found")


def test_golden_paths(ref_spec):
    # 17-digit literals: any change to a path's uniform stream, or to the
    # order in which the engine and the samplers consume it, moves them
    cfg = simulate.EngineConfig(eps=1e-3, seed=20261018)
    path = simulate.simulate_path(ref_spec, 1.0, 1.0, cfg, path_index=7)
    assert path.terminal == 0.7021538841247988
    assert len(path.events) == 16

    untilted = measure.untilted_spec(ref_spec)
    cfg = simulate.EngineConfig(eps=1e-2, seed=20261018, cap=1e5)
    t_end = 2.0 * math.log(2.0)
    path = simulate.simulate_explosive_path(untilted, 1.0, t_end, cfg, 25)
    assert not path.exploded
    assert path.terminal == 299.9572507525895
    assert len(path.events) == 411
    path = simulate.simulate_explosive_path(untilted, 1.0, t_end, cfg, 14)
    assert path.exploded
    assert path.explosion_time == 0.4569536432763088
    assert len(path.events) == 518


@pytest.mark.parametrize("eps,rates", [
    (1e-4, (55.42460015658139, 0.9943582922220751)),
    (1e-3, (16.859079429743648, 0.98216470413516)),
    (1e-2, (4.69822094996297, 0.9437685419908575)),
])
def test_reference_rates(eps, rates):
    # (Lambda, delta) to the bit on the reference: the conservative golden
    # paths and the mgf-conservative benchmark operations run on these
    assert simulate._rates(measure.reference_spec(), 1.0, 1.0, eps,
                           False) == rates


def test_uniform_stream_is_philox_per_path():
    # 3000 draws cross the 256-draw first block and two 1024-draw blocks
    next_u = oracle._uniforms(12, 34)
    got = [next_u() for _ in range(3000)]
    assert all(type(u) is float for u in got)
    want = np.random.Generator(np.random.Philox(key=[12, 34])).random(3000)
    assert np.array_equal(np.array(got), want)


def test_interleaved_uniform_streams():
    # each stream draws from its own Philox generator; drawing from one
    # between the other's blocks must not disturb either
    a, b = oracle._uniforms(12, 34), oracle._uniforms(-7, 35)
    got_a, got_b = [], []
    for _ in range(3000):
        got_a.append(a())
        got_b.append(b())
        got_b.append(b())
    for (seed, index), got in (((12, 34), got_a), ((-7, 35), got_b)):
        want = np.random.Generator(
            np.random.Philox(key=[seed, index])).random(len(got))
        assert np.array_equal(np.array(got), want)


def _scalar_terminals(spec, x0, t_end, cfg, start, count):
    return np.array([
        simulate.simulate_path(spec, x0, t_end, cfg, i, record=False).terminal
        for i in range(start, start + count)])


@pytest.mark.parametrize("name", ["reference", "tilted", "tabulated"])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 63 - 1),
       start=st.integers(0, 10 ** 6),
       count=st.integers(1, 64),
       eps=st.sampled_from([1e-2, 1e-3]),
       x0=st.floats(0.05, 3.0),
       t_end=st.floats(0.0, 2.0))
def test_conservative_terminals_match_simulate_path(
        name, ref_spec, tabulated_spec, seed, start, count, eps, x0, t_end):
    # the tabulated spec draws its jumps from the table, the others by
    # Pareto rejection
    spec = {"reference": ref_spec,
            "tilted": measure.LevyMeasureSpec.tilted_power(0.7, 1.3, 2.0),
            "tabulated": tabulated_spec}[name]
    cfg = simulate.EngineConfig(eps=eps, seed=seed)
    got = simulate.fan_out(spec, x0, t_end, cfg, start, count, False).terminal
    assert np.array_equal(
        got, _scalar_terminals(spec, x0, t_end, cfg, start, count))


def test_conservative_terminals_long_streams(ref_spec):
    # eps = 1e-4 at x0 = 4: many paths outrun their first row of uniforms
    cfg = simulate.EngineConfig(eps=1e-4, seed=5)
    got = simulate.fan_out(ref_spec, 4.0, 1.0, cfg, 0, 20, False).terminal
    assert np.array_equal(got,
                          _scalar_terminals(ref_spec, 4.0, 1.0, cfg, 0, 20))


def test_conservative_terminals_infinite_proposals():
    # seed 1, path 1 meets an infinite Pareto proposal (see
    # test_infinite_proposals_complete); the kernel's pow is +inf there, as
    # in the scalar loop, and beta = 1 rejects it
    spec = measure.LevyMeasureSpec.tilted_power(1.0, 1.01, 1.0)
    cfg = simulate.EngineConfig(eps=1e-2, seed=1)
    got = simulate.fan_out(spec, 1000.0, 1.0, cfg, 0, 60, False).terminal
    assert got[1] == 2.207923354359983e-41
    assert np.array_equal(got, _scalar_terminals(spec, 1000.0, 1.0, cfg, 0, 60))


def test_conservative_terminals_max_events(ref_spec):
    cfg = simulate.EngineConfig(eps=1e-2, seed=9)
    most = max(len(simulate.simulate_path(ref_spec, 1.0, 2.0, cfg, i).events)
               for i in range(40))
    tight = dataclasses.replace(cfg, max_events=most)
    with pytest.raises(MaxEventsExceeded,
                       match=f"^conservative path reached {most} events$"):
        simulate.fan_out(ref_spec, 1.0, 2.0, tight, 0, 40, False)
    loose = dataclasses.replace(cfg, max_events=most + 1)
    assert np.array_equal(
        simulate.fan_out(ref_spec, 1.0, 2.0, loose, 0, 40, False).terminal,
        _scalar_terminals(ref_spec, 1.0, 2.0, cfg, 0, 40))


def _first_path_with_events(simulate_fn, spec, t_end, cfg):
    for i in range(200):
        path = simulate_fn(spec, 1.0, t_end, cfg, i)
        if len(path.events) >= 3 and not path.exploded:
            return i, path
    pytest.fail("no path with at least 3 events found")


def test_conservative_max_events_boundary(ref_spec):
    cfg = simulate.EngineConfig(eps=1e-2, seed=9)
    i, path = _first_path_with_events(simulate.simulate_path, ref_spec, 2.0,
                                      cfg)
    k = len(path.events)
    with pytest.raises(MaxEventsExceeded):
        simulate.simulate_path(ref_spec, 1.0, 2.0,
                               dataclasses.replace(cfg, max_events=k), i)
    again = simulate.simulate_path(ref_spec, 1.0, 2.0,
                                   dataclasses.replace(cfg, max_events=k + 1), i)
    assert again == path


def test_explosive_max_events_boundary(ref_spec):
    untilted = measure.untilted_spec(ref_spec)
    cfg = simulate.EngineConfig(eps=1e-2, seed=9, cap=1e5)
    t_end = 2.0 * math.log(2.0)
    i, path = _first_path_with_events(simulate.simulate_explosive_path,
                                      untilted, t_end, cfg)
    k = len(path.events)
    cut = simulate.simulate_explosive_path(
        untilted, 1.0, t_end, dataclasses.replace(cfg, max_events=k), i)
    assert cut.exploded and cut.terminal is None
    assert cut.events == path.events
    assert cut.explosion_time == path.events[-1][0]
    again = simulate.simulate_explosive_path(
        untilted, 1.0, t_end, dataclasses.replace(cfg, max_events=k + 1), i)
    assert again == path


def test_low_acceptance_paths_share_one_cached_table():
    # mean Pareto acceptance 0.46% < 1%: every path draws from one table
    spec = measure.LevyMeasureSpec.tilted_power(1.0, 1.05, 200.0)
    cfg = simulate.EngineConfig(eps=0.05, seed=3)
    measure._cached_table_sampler.cache_clear()
    counts = [len(simulate.simulate_path(spec, 7e6, 1.0, cfg, i).events)
              for i in range(20)]
    info = measure._cached_table_sampler.cache_info()
    assert (info.misses, info.hits) == (1, 19)
    assert sum(counts) > 20 * 20


def test_infinite_proposals_complete():
    # alpha = 1.01 at eps = 1e-2: a proposal uniform below ~8e-4 gives an
    # infinite Pareto proposal
    tilted = measure.LevyMeasureSpec.tilted_power(1.0, 1.01, 1.0)
    untilted = measure.untilted_spec(tilted)
    cfg = simulate.EngineConfig(eps=1e-2, seed=0)
    paths = {i: simulate.simulate_explosive_path(untilted, 1.0, 1.0, cfg, i)
             for i in range(1100, 1400)}
    infinite = {i for i, p in paths.items()
                if any(xi == math.inf for _, xi in p.events)}
    assert infinite == {1176, 1389}
    assert all(paths[i].exploded and paths[i].terminal is None
               for i in infinite)
    # the dual decays at H - m(eps), H = 1/C(1.01) = 100.59
    assert paths[1176].explosion_time == 0.002568919727974774
    # beta > 0 rejects them; this path meets at least one
    cfg = simulate.EngineConfig(eps=1e-2, seed=1)
    path = simulate.simulate_path(tilted, 1000.0, 1.0, cfg, 1)
    assert path.terminal == 2.207923354359983e-41
    assert len(path.events) == 49


# (spec, engine, eps values, x0 or None for a drawn x0); the explosive
# engine runs on the spec as given
_KERNEL_CASES = {
    "reference": (measure.reference_spec(), (False, True), (1e-2, 1e-3), None),
    "tilted": (measure.LevyMeasureSpec.tilted_power(0.7, 1.3, 2.0),
               (False, True), (1e-2, 1e-3), None),
    "tabulated": (None, (False, True), (1e-2, 1e-3), None),
    # mean Pareto acceptance 0.46%: the table
    "low-acceptance": (measure.LevyMeasureSpec.tilted_power(1.0, 1.05, 200.0),
                       (False,), (0.05,), 7e6),
    "untilted": (measure.untilted_spec(measure.reference_spec()), (True,),
                 (1e-2, 1e-3), None),
    # infinite Pareto proposals: rejected at beta = 1, explosions at beta = 0
    "infinite-proposals": (measure.LevyMeasureSpec.tilted_power(1.0, 1.01, 1.0),
                           (False,), (1e-2,), 1000.0),
    "infinite-untilted": (measure.LevyMeasureSpec.tilted_power(1.0, 1.01, 0.0),
                          (True,), (1e-2,), None),
}


@pytest.mark.parametrize("name,explosive", [
    (name, explosive) for name, case in _KERNEL_CASES.items()
    for explosive in case[1]])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 63 - 1),
       start=st.integers(0, 10 ** 6),
       count=st.integers(1, 32),
       eps_index=st.integers(0, 1),
       x0=st.floats(0.05, 3.0),
       t_end=st.floats(0.0, 2.0))
def test_kernel_matches_run_engine(name, explosive, tabulated_spec, seed,
                                   start, count, eps_index, x0, t_end):
    # the kernel's end state of every path is the scalar loop's, bit for bit
    spec, _, eps_values, fixed_x0 = _KERNEL_CASES[name]
    spec = spec or tabulated_spec
    eps = eps_values[eps_index % len(eps_values)]
    x0 = fixed_x0 or x0
    cfg = simulate.EngineConfig(eps=eps, seed=seed, cap=1e5)
    _assert_kernel_matches_run_engine(spec, x0, t_end, cfg, start, count,
                                      explosive)


def _assert_kernel_matches_run_engine(spec, x0, t_end, cfg, start, count,
                                      explosive):
    """The kernel's end state of paths start .. start+count-1 is the
    oracle's scalar loop's, bit for bit."""
    lam, delta = simulate._rates(spec, x0, t_end, cfg.eps, explosive)
    got = simulate._kernel_run(simulate._kernel(), spec, x0, t_end, cfg, start,
                               count, lam, delta, explosive)
    assert np.all(np.asarray(got.end) <= simulate.END_MAX_EVENTS)
    for i in range(count):
        _, t, x, n, exploded, _ = oracle._run_engine(
            spec, x0, t_end, cfg, start + i, False, lam, delta, explosive)
        assert (got.t[i], got.x[i], got.n[i]) == (t, x, n)
        assert (got.end[i] != simulate.END_HORIZON) == exploded
        if not exploded:
            assert got.terminal[i] == x * math.exp(-delta * (t_end - t))


# settings where the kernel's bound tests settle little and it falls back
# to exp: (spec, x0, t_end, eps, cap, max_events)
_FALLBACK_CASES = {
    # a = -beta (xi - eps) below -1/2 on most proposals, and often in the
    # band between the acceptance bounds
    "large-beta": (measure.LevyMeasureSpec.tilted_power(1.0, 1.3, 5.0), 1.0,
                   1.0, 0.1, 1e5, 10 ** 7),
    # z = delta (t_end - t) below 2^-30 on every event, and still about 55
    # events a path
    "tiny-horizon": (measure.reference_spec(), 1e12, 1e-12, 1e-4, 1e5,
                     10 ** 7),
    # z = inf on every event: each path explodes or decays out
    "infinite-horizon": (measure.untilted_spec(measure.reference_spec()),
                         1.0, math.inf, 1e-2, 1e5, 10 ** 5),
    # x lam near 1e302: every event's horizon test is settled by the bound
    "huge-x0": (measure.untilted_spec(measure.reference_spec()), 1e300, 1.0,
                1e-4, math.inf, 64),
}


@pytest.mark.parametrize("name,explosive", [
    ("large-beta", False), ("large-beta", True), ("tiny-horizon", False),
    ("infinite-horizon", True), ("huge-x0", True)])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 63 - 1),
       start=st.integers(0, 10 ** 6))
def test_kernel_fallbacks_match_run_engine(name, explosive, seed, start):
    # where the bound tests leave the comparison to exp, the kernel's end
    # states are still the scalar loop's, bit for bit
    spec, x0, t_end, eps, cap, max_events = _FALLBACK_CASES[name]
    cfg = simulate.EngineConfig(eps=eps, seed=seed, cap=cap,
                                max_events=max_events)
    _assert_kernel_matches_run_engine(spec, x0, t_end, cfg, start, 16,
                                      explosive)


def _scalar_path(spec, x0, t_end, cfg, index, explosive):
    """The Path that the oracle's _run_engine gives, built as both
    engines built it before they ran on the kernel."""
    lam, delta = simulate._rates(spec, x0, t_end, cfg.eps, explosive)
    events, t, x, _, exploded, explosion_time = oracle._run_engine(
        spec, x0, t_end, cfg, index, True, lam, delta, explosive)
    return simulate.Path(
        x0=x0, events=events, decay_rate=delta, t_end=t_end, eps=cfg.eps,
        exploded=exploded, explosion_time=explosion_time,
        terminal=None if exploded else x * math.exp(-delta * (t_end - t)))


def _bits(path):
    """A path's numbers as float.hex strings, equal only bit for bit (the
    scalar conservative loop's times are numpy floats, the kernel's are
    Python floats)."""
    def h(v):
        return None if v is None else float(v).hex()
    return ([(h(t), h(xi)) for t, xi in path.events], h(path.x0),
            h(path.decay_rate), h(path.t_end), h(path.eps), path.exploded,
            h(path.explosion_time), h(path.terminal))


def _recorded(spec, x0, t_end, cfg, index, explosive):
    fn = simulate.simulate_explosive_path if explosive else simulate.simulate_path
    return fn(spec, x0, t_end, cfg, index, record=True)


@pytest.mark.parametrize("name,explosive", [
    (name, explosive) for name, case in _KERNEL_CASES.items()
    for explosive in case[1]])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 63 - 1),
       index=st.integers(0, 10 ** 6),
       eps_index=st.integers(0, 1),
       x0=st.floats(0.05, 3.0),
       t_end=st.floats(0.0, 2.0))
def test_recorded_paths_match_run_engine(name, explosive, tabulated_spec,
                                         seed, index, eps_index, x0, t_end):
    # a recorded path runs on the kernel; its events, explosion and
    # terminal value are the scalar loop's, bit for bit
    spec, _, eps_values, fixed_x0 = _KERNEL_CASES[name]
    spec = spec or tabulated_spec
    eps = eps_values[eps_index % len(eps_values)]
    x0 = fixed_x0 or x0
    cfg = simulate.EngineConfig(eps=eps, seed=seed, cap=1e5)
    got = _recorded(spec, x0, t_end, cfg, index, explosive)
    assert _bits(got) == _bits(_scalar_path(spec, x0, t_end, cfg, index,
                                            explosive))


def test_recorded_paths_outgrow_first_event_room():
    # at cap 1e8 an exploding path makes tens of thousands of jumps; three
    # of these paths make more than 4,096, and their event buffers grow in
    # the kernel as they run
    untilted = measure.untilted_spec(measure.reference_spec())
    cfg = simulate.EngineConfig(eps=1e-2, seed=20261018, cap=1e8)
    t_end = 2.0 * math.log(2.0)
    long = 0
    for i in range(13, 27):
        got = simulate.simulate_explosive_path(untilted, 1.0, t_end, cfg, i)
        assert _bits(got) == _bits(_scalar_path(untilted, 1.0, t_end, cfg, i,
                                                True))
        long += len(got.events) > 4096
    assert long == 3


def test_recorded_conservative_max_events(ref_spec):
    # a recorded path that reaches max_events raises the oracle's error and
    # message
    cfg = simulate.EngineConfig(eps=1e-2, seed=9)
    i, path = _first_path_with_events(simulate.simulate_path, ref_spec, 2.0,
                                      cfg)
    k = len(path.events)
    tight = dataclasses.replace(cfg, max_events=k)
    lam, delta = simulate._rates(ref_spec, 1.0, 2.0, cfg.eps, False)
    for run in (lambda: simulate.simulate_path(ref_spec, 1.0, 2.0, tight, i),
                lambda: oracle._run_engine(ref_spec, 1.0, 2.0, tight, i, True,
                                           lam, delta, False)):
        with pytest.raises(MaxEventsExceeded,
                           match=f"^conservative path reached {k} events$"):
            run()
    assert simulate.simulate_path(ref_spec, 1.0, 2.0, cfg, i) == path


def test_conservative_max_events_raises_from_the_kernel(ref_spec):
    # the kernel's END_MAX_EVENTS raises MaxEventsExceeded, for one path and
    # for a recorded block on threads
    cfg = simulate.EngineConfig(eps=1e-2, seed=9, max_events=5)
    for fn in (simulate.simulate_path, lambda *a: simulate.block_csvs(
            *a, 0, 8, False, 2)):
        with pytest.raises(MaxEventsExceeded,
                           match="^conservative path reached 5 events$"):
            fn(ref_spec, 1e3, 1.0, cfg)


@pytest.mark.parametrize("explosive", [False, True])
def test_nan_horizon_raises_domain_error(ref_spec, explosive):
    fn = simulate.simulate_explosive_path if explosive else \
        simulate.simulate_path
    spec = measure.untilted_spec(ref_spec) if explosive else ref_spec
    cfg = simulate.EngineConfig(eps=1e-2)
    with pytest.raises(DomainError, match="t_end must be nonnegative"):
        fn(spec, 1.0, math.nan, cfg)


class _CountingKernel:
    """A kernel that counts its jumplm_run_paths calls, the paths each
    ran and the jumps of all of them; with most, a call runs at most most
    paths, as one that spent its event budget early would."""

    def __init__(self, lib, most=None):
        self.lib, self.most, self.runs, self.events = lib, most, [], 0

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def jumplm_run_paths(self, job):
        first, count = job.first, job.count
        if self.most is not None:
            job.count = min(count, first + self.most)
        k = self.lib.jumplm_run_paths(job)
        job.count = count
        n = (ctypes.c_int64 * (k - first)).from_address(job.n + 8 * first)
        self.runs.append(k - first)
        self.events += sum(max(v, 0) for v in n)
        return k


def test_kernel_block_spans_calls(ref_spec):
    # about 2^22 events end a kernel call, so Ctrl-C lands between calls;
    # a block of some 6M events takes two calls and ends as its paths do
    # one by one
    lib = _CountingKernel(simulate._kernel())
    cfg = simulate.EngineConfig(eps=1e-2, seed=1)
    lam, delta = simulate._rates(ref_spec, 1e5, 1.0, cfg.eps, False)
    got = simulate._kernel_run(lib, ref_spec, 1e5, 1.0, cfg, 3, 16, lam,
                               delta, False)
    assert len(lib.runs) == 2 and sum(lib.runs) == 16
    assert np.asarray(got.n).sum() > 2 ** 22
    for i in range(16):
        one = simulate._kernel_run(lib, ref_spec, 1e5, 1.0, cfg, 3 + i, 1,
                                   lam, delta, False)
        assert [a[i] for a in got[:5]] == [a[0] for a in one[:5]]
    assert lib.runs[2:] == [1] * 16


def test_recorded_path_takes_one_call_in_its_room(ref_spec, monkeypatch):
    # a recorded path takes one kernel call and runs its jumps once, a
    # long one as a short one: its event buffer grows as it runs
    lib = _CountingKernel(simulate._kernel())
    monkeypatch.setattr(simulate, "_kernel", lambda: lib)
    cfg = simulate.EngineConfig(eps=1e-2, seed=3)
    for x0, n in ((300.0, 1057), (6000.0, 22355)):
        lib.runs.clear()
        lib.events = 0
        path = simulate.simulate_path(ref_spec, x0, 1.0, cfg, 0)
        assert len(path.events) == n
        assert lib.runs == [1] and lib.events == n
        assert _bits(path) == _bits(_scalar_path(ref_spec, x0, 1.0, cfg, 0,
                                                 False))


def _job(cfg, sampler, start, count, x0, t_end, lam, delta, threads, out,
         events):
    """A conservative job on a rejection sampler for paths start ..
    start+count-1, from its first path, writing the columns out (end, t,
    x, n, terminal) and, unless events is None, the event buffers there."""
    columns = dict(zip(("end", "t", "x", "n", "terminal"),
                       (a.ctypes.data for a in out)))
    return simulate._Job(
        key0=cfg.seed, start=start, count=count, x0=x0, t_end=t_end,
        lam=lam, delta=delta, cap=cfg.cap, max_events=cfg.max_events,
        explosive=False, threads=threads, eps=sampler.eps,
        inv_pow=sampler.inv_pow, beta=sampler.beta, events=events,
        **columns)


@pytest.mark.parametrize("threads", [1, 3])
def test_kernel_records_only_in_each_paths_room(ref_spec, threads):
    # path i records all its n_i events in a buffer of its own, and
    # jumplm_take copies them, as (t, xi) pairs, to events[2 offsets[i] ..
    # 2 offsets[i+1]], writes nothing outside the paths' rooms and frees
    # every buffer; a path of 0 jumps holds none
    lib = simulate._kernel()
    cfg = simulate.EngineConfig(eps=1e-2, seed=11)
    x0, count = 40.0, 12
    lam, delta = simulate._rates(ref_spec, x0, 1.0, cfg.eps, False)
    sampler = measure.make_jump_sampler(ref_spec, cfg.eps)
    for t_end in (1.0, 0.0):
        out = [np.empty(count, np.int8), *(np.empty(count) for _ in range(2)),
               np.empty(count, np.int64), np.empty(count)]
        held = np.zeros(count, np.uintp)
        k = lib.jumplm_run_paths(_job(
            cfg, sampler, 5, count, x0, t_end, lam, delta, threads, out,
            held.ctypes.data))
        counts = out[3].tolist()
        assert k == count and (min(counts) > 2 if t_end else
                               counts == [0] * count)
        assert np.all((held != 0) == (out[3] > 0))
        offsets = np.array([7, *(7 + np.cumsum(counts))], np.int64)
        events = np.full(2 * offsets[-1] + 9, -7.5)
        lib.jumplm_take(held.ctypes.data, offsets.ctypes.data, count,
                        events.ctypes.data)
        assert np.all(held == 0)
        assert np.all(events[:14] == -7.5)
        assert np.all(events[2 * offsets[-1]:] == -7.5)
        for i, n in enumerate(counts):
            recorded = events[2 * offsets[i]:2 * offsets[i + 1]]
            scalar, *_ = oracle._run_engine(ref_spec, x0, t_end, cfg, 5 + i,
                                              True, lam, delta, False)
            assert recorded.reshape(n, 2).tolist() == \
                [list(ev) for ev in scalar]


# the jumps a recording path's kernel buffer holds before it first grows,
# and the most it holds before it is mapped on its own
_FIRST_ROOM, _MALLOC_ROOM = (
    int(re.search(rf"#define {name} (\d+)",
                  simulate._KERNEL_SOURCE.read_text()).group(1))
    for name in ("FIRST_ROOM", "MALLOC_ROOM"))


@pytest.mark.parametrize("name,explosive", [
    (name, explosive) for name, case in _KERNEL_CASES.items()
    for explosive in case[1]])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 63 - 1),
       start=st.integers(0, 10 ** 6),
       count=st.integers(1, 10),
       threads=st.sampled_from([1, 2, 3]),
       most=st.sampled_from([None, None, 1, 4]),
       eps_index=st.integers(0, 1),
       x0=st.floats(0.05, 30.0),
       t_end=st.sampled_from([0.0]) | st.floats(0.0, 2.0),
       max_events=st.sampled_from([10_000_000, 1, _FIRST_ROOM - 1,
                                   _FIRST_ROOM, _FIRST_ROOM + 1,
                                   4 * _FIRST_ROOM + 1, _MALLOC_ROOM + 1]),
       stop_delta=st.sampled_from([None] * 4 + [0.0, -1000.0]))
@example(seed=1, start=0, count=10, threads=3, most=4, eps_index=1, x0=30.0,
         t_end=2.0, max_events=_FIRST_ROOM - 1, stop_delta=None)
@example(seed=2, start=0, count=10, threads=2, most=None, eps_index=1,
         x0=30.0, t_end=2.0, max_events=_FIRST_ROOM, stop_delta=None)
@example(seed=3, start=0, count=10, threads=3, most=1, eps_index=1, x0=30.0,
         t_end=2.0, max_events=_FIRST_ROOM + 1, stop_delta=None)
@example(seed=4, start=0, count=10, threads=2, most=4, eps_index=1, x0=30.0,
         t_end=2.0, max_events=4 * _FIRST_ROOM + 1, stop_delta=None)
def test_recorded_blocks_match_run_engine(name, explosive, tabulated_spec,
                                          seed, start, count, threads, most,
                                          eps_index, x0, t_end, max_events,
                                          stop_delta):
    # every path of a recorded block runs in the kernel once and records
    # all its jumps, the scalar loop's bit for bit, in a buffer that grows
    # as it runs: paths of 0 and 1 jumps, paths that end one short of, at
    # and one past the buffer's first room, past two doublings of it and
    # past its last room from malloc, blocks that take several calls, on 1
    # to 3 threads.  A path the kernel stops where the scalar loop raises
    # (a delta of 0, or one whose decay overflows) records none.
    lib = _CountingKernel(simulate._kernel(), most)
    spec, _, eps_values, fixed_x0 = _KERNEL_CASES[name]
    spec = spec or tabulated_spec
    eps = eps_values[eps_index % len(eps_values)]
    x0 = fixed_x0 or x0
    cfg = simulate.EngineConfig(eps=eps, seed=seed, cap=1e5,
                                max_events=max_events)
    lam, delta = simulate._rates(spec, x0, t_end, eps, explosive)
    if stop_delta is not None:
        delta, t_end = stop_delta, 1.0 + t_end
    got = simulate._kernel_run(lib, spec, x0, t_end, cfg, start, count, lam,
                               delta, explosive, record=True, threads=threads)
    assert sum(lib.runs) == count and lib.events == got.offsets[-1]
    assert most is None or len(lib.runs) == -(-count // most)
    # the conservative loop raises at max_events, after the same jumps
    loose = cfg if explosive else dataclasses.replace(cfg,
                                                      max_events=10 ** 7)
    for i in range(count):
        recorded = np.asarray(got.events)[
            2 * got.offsets[i]:2 * got.offsets[i + 1]]
        if got.end[i] > simulate.END_MAX_EVENTS:
            assert got.n[i] == -1 and recorded.size == 0
            with pytest.raises(ArithmeticError):
                oracle._run_engine(spec, x0, t_end, cfg, start + i, True,
                                     lam, delta, explosive)
            continue
        events, *_ = oracle._run_engine(spec, x0, t_end, loose, start + i,
                                          True, lam, delta, explosive)
        events = events[:max_events]
        assert got.n[i] == len(events)
        assert [(t.hex(), xi.hex()) for t, xi in
                recorded.reshape(-1, 2).tolist()] == \
            [(float(t).hex(), float(xi).hex()) for t, xi in events]


def _rss_mb():
    """This process's resident set, in MB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


class _Interrupted(_CountingKernel):
    """A kernel whose jumplm_run_paths calls each end in a Ctrl-C."""

    def jumplm_run_paths(self, *args):
        super().jumplm_run_paths(*args)
        raise KeyboardInterrupt


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="no /proc/self/statm")
def test_recorded_blocks_free_their_event_buffers():
    # 200 recorded 64-path blocks at cap 1e8, some 34,000 jumps and 0.5 MB
    # of events each, leave the resident set within a few MB of where it
    # was, also when a Ctrl-C lands between a block's kernel call and its
    # gather; buffers left behind would hold some 100 MB
    lib = simulate._kernel()
    untilted = measure.untilted_spec(measure.reference_spec())
    cfg = simulate.EngineConfig(eps=1e-2, seed=5, cap=1e8)
    lam, delta = simulate._rates(untilted, 1.0, 0.25, cfg.eps, True)

    def blocks(kernel, count):
        for b in range(count):
            try:
                simulate._kernel_run(kernel, untilted, 1.0, 0.25, cfg,
                                     64 * b, 64, lam, delta, True,
                                     record=True, threads=2)
            except KeyboardInterrupt:
                assert isinstance(kernel, _Interrupted)

    blocks(lib, 50)     # the allocator's arenas grow to their size
    for kernel in (lib, _Interrupted(lib)):
        before = _rss_mb()
        blocks(kernel, 200)
        assert _rss_mb() - before < 8.0, (type(kernel), before, _rss_mb())


@pytest.mark.skipif(shutil.which("cc") is None
                    or not os.path.exists("/proc/self/status"),
                    reason="no C compiler or no /proc/self/status")
def test_path_out_of_memory_raises():
    # a recording path whose event buffer cannot grow, here past an
    # address-space limit 48 MB above the process's size, stops with
    # END_NO_MEMORY; simulate_path and block_csvs raise KernelOutOfMemory,
    # a MemoryError, naming the lowest-index such path
    code = (
        "import resource\n"
        "from jumplm import measure, simulate\n"
        "from jumplm.errors import KernelOutOfMemory\n"
        "lib = simulate._kernel()\n"
        "spec = measure.reference_spec()\n"
        "cfg = simulate.EngineConfig(eps=1e-2, seed=1)\n"
        "lam, delta = simulate._rates(spec, 1e6, 1.0, cfg.eps, False)\n"
        "size = next(int(line.split()[1])\n"
        "            for line in open('/proc/self/status')\n"
        "            if line.startswith('VmSize:'))\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS,\n"
        "                   (1024 * size + (48 << 20), hard))\n"
        "out = simulate._kernel_run(lib, spec, 1e6, 1.0, cfg, 3, 1, lam,\n"
        "                           delta, False, record=True)\n"
        "assert out.end.tolist() == [simulate.END_NO_MEMORY], out.end\n"
        "assert out.n[0] == -1\n"
        "for run in (lambda: simulate.simulate_path(spec, 1e6, 1.0, cfg, 3),\n"
        "            lambda: simulate.block_csvs(spec, 1e6, 1.0, cfg, 3, 2,\n"
        "                                        False, 2)):\n"
        "    try:\n"
        "        run()\n"
        "    except KernelOutOfMemory as exc:\n"
        "        assert isinstance(exc, MemoryError)\n"
        "        assert str(exc) == ('path 3 stopped: no memory to record '\n"
        "                            'its events'), exc\n"
        "    else:\n"
        "        raise AssertionError('no error')\n")
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


# a decay rate and horizon that no validated spec gives, the end code the
# kernel stops every path with there, and what the oracle raises instead
_MATH_STOPS = [(0.0, 1.0, simulate.END_ZERO_DIVISION, ZeroDivisionError),
               (-1000.0, 1.0, simulate.END_EXP_RANGE, OverflowError),
               (math.inf, 0.0, simulate.END_LOG_DOMAIN, ValueError)]


@pytest.mark.parametrize("delta,t_end,code,raw", _MATH_STOPS)
@pytest.mark.parametrize("explosive", [False, True])
def test_math_stops_raise_domain_errors(ref_spec, monkeypatch, delta, t_end,
                                        code, raw, explosive):
    # where the kernel stops a path on a log of a non-positive number, an
    # exp past the float range or a division by zero, the public entry
    # points raise DomainError naming the path, and the oracle raises
    # Python's own error on that same path
    spec = measure.untilted_spec(ref_spec) if explosive else ref_spec
    cfg = simulate.EngineConfig(eps=1e-2, seed=5, cap=1e5)
    lam = simulate._rates(spec, 1.0, 1.0, cfg.eps, explosive)[0]
    ends = simulate._kernel_run(simulate._kernel(), spec, 1.0, t_end, cfg, 7,
                                5, lam, delta, explosive).end
    assert ends.tolist() == [code] * 5
    monkeypatch.setattr(simulate, "_rates", lambda *a: (lam, delta))
    error, what = simulate._STOPS[code]
    assert error is DomainError
    one = simulate.simulate_explosive_path if explosive else \
        simulate.simulate_path
    for run in (lambda: simulate.fan_out(spec, 1.0, t_end, cfg, 7, 5,
                                         explosive, 2),
                lambda: simulate.block_csvs(spec, 1.0, t_end, cfg, 7, 5,
                                            explosive, 2),
                lambda: one(spec, 1.0, t_end, cfg, 7)):
        with pytest.raises(DomainError, match=f"^path 7 stopped: {what}$"):
            run()
    with pytest.raises(raw):
        oracle._run_engine(spec, 1.0, t_end, cfg, 7, True, lam, delta,
                           explosive)


class _StoppingKernel(_CountingKernel):
    """A kernel whose calls then mark the paths at the block indexes in
    stops as stopped with code, as the kernel marks a path it stops on an
    error."""

    def __init__(self, lib, stops, code):
        super().__init__(lib)
        self.stops, self.code = stops, code

    def jumplm_run_paths(self, job):
        first = job.first
        k = super().jumplm_run_paths(job)
        for i in self.stops & set(range(first, k)):
            ctypes.c_int8.from_address(job.end + i).value = self.code
            ctypes.c_int64.from_address(job.n + 8 * i).value = -1
        return k


@pytest.mark.parametrize("code", sorted(simulate._STOPS))
@settings(max_examples=8, deadline=None)
@given(start=st.integers(0, 10 ** 6), count=st.integers(1, 40),
       stops=st.sets(st.integers(0, 39), min_size=1, max_size=4),
       explosive=st.booleans())
def test_lowest_stopped_path_names_the_error(ref_spec, code, start, count,
                                             stops, explosive):
    # every end code above END_MAX_EVENTS, on any paths of a block, raises
    # its JumplmError naming the lowest-index stopped path, in fan_out and
    # in a recorded block (block_csvs), and for one path in simulate_path
    spec = measure.untilted_spec(ref_spec) if explosive else ref_spec
    cfg = simulate.EngineConfig(eps=1e-2, seed=3, cap=1e5)
    stops = {i % count for i in stops}
    error, what = simulate._STOPS[code]
    assert issubclass(error, JumplmError)
    lib = _StoppingKernel(simulate._kernel(), stops, code)
    one = simulate.simulate_explosive_path if explosive else \
        simulate.simulate_path
    with mock.patch.object(simulate, "_kernel", lambda: lib):
        for block in (simulate.fan_out, simulate.block_csvs):
            with pytest.raises(error, match=f"^path {start + min(stops)} "
                                            f"stopped: {what}$"):
                block(spec, 1.0, 0.5, cfg, start, count, explosive, 2)
        lib.stops = {0}
        with pytest.raises(error, match=f"^path {start} stopped: {what}$"):
            one(spec, 1.0, 0.5, cfg, start)


def _outcome(fn):
    """What fn() gives: its array's bytes, or the type and message of what
    it raises."""
    try:
        return fn().tobytes()
    except MaxEventsExceeded as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name,explosive", [
    (name, explosive) for name, case in _KERNEL_CASES.items()
    for explosive in case[1]])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 63 - 1),
       start=st.integers(0, 10 ** 6),
       count=st.integers(1, 64),
       eps_index=st.integers(0, 1),
       x0=st.floats(0.05, 3.0),
       t_end=st.floats(0.0, 2.0),
       max_events=st.sampled_from([10_000_000, 1, 5, 20]),
       stop_delta=st.sampled_from([None, 0.0, -1000.0]))
def test_kernel_threads_match_one_thread(name, explosive, tabulated_spec,
                                         seed, start, count, eps_index, x0,
                                         t_end, max_events, stop_delta):
    # paths are claimed one at a time by whichever thread is free; every
    # output of every path is the one-thread output, bit for bit, also for
    # paths stopped at max_events and, with a delta of 0 or one whose
    # decay overflows on [0, t_end], for paths the kernel stops on an error
    lib = simulate._kernel()
    spec, _, eps_values, fixed_x0 = _KERNEL_CASES[name]
    spec = spec or tabulated_spec
    eps = eps_values[eps_index % len(eps_values)]
    x0 = fixed_x0 or x0
    cfg = simulate.EngineConfig(eps=eps, seed=seed, cap=1e5,
                                max_events=max_events)
    lam, delta = simulate._rates(spec, x0, t_end, eps, explosive)
    if stop_delta is not None:
        delta, t_end = stop_delta, 1.0 + t_end
    one = simulate._kernel_run(lib, spec, x0, t_end, cfg, start, count, lam,
                               delta, explosive)
    if stop_delta is not None:
        assert np.all(np.asarray(one.end) > simulate.END_MAX_EVENTS)
    for threads in (2, 3, 8):
        got = simulate._kernel_run(lib, spec, x0, t_end, cfg, start, count,
                                   lam, delta, explosive, threads=threads)
        assert [a.tobytes() for a in got[:5]] == [a.tobytes() for a in one[:5]]
    if not explosive and stop_delta is None:
        # a path at max_events raises MaxEventsExceeded and its message
        def terminals(threads):
            return lambda: simulate.fan_out(
                spec, x0, t_end, cfg, start, count, False, threads).terminal
        assert _outcome(terminals(3)) == _outcome(terminals(1))


def test_kernel_threads_block_spans_calls(ref_spec):
    # 16 paths of some 370k events each.  A call returns k: paths 0 .. k-1
    # are written, as on one thread, and no later path is; it claimed path
    # k-1 before the 2^22-event budget was spent, when at most one path per
    # thread was unfinished, and stops short of the block only once the
    # budget is spent.  Paths are claimed only while fewer than 12 are
    # finished, so a call on at most 3 threads claims at most 11 + 3 of
    # them and the block takes two calls.  It ends as on one thread.
    lib = _CountingKernel(simulate._kernel())
    cfg = simulate.EngineConfig(eps=1e-2, seed=1)
    lam, delta = simulate._rates(ref_spec, 1e5, 1.0, cfg.eps, False)
    one = simulate._kernel_run(lib, ref_spec, 1e5, 1.0, cfg, 3, 16, lam,
                               delta, False)
    sampler = measure.make_jump_sampler(ref_spec, cfg.eps)
    assert sampler.inv is None
    for threads in (2, 3, 8):
        out = [np.full(16, -9, np.int8), np.full(16, -9.0),
               np.full(16, -9.0), np.full(16, -9, np.int64),
               np.full(16, -9.0)]
        k = lib.jumplm_run_paths(_job(cfg, sampler, 3, 16, 1e5, 1.0, lam,
                                      delta, threads, out, None))
        assert 1 <= k <= 16 and (k < 16 or threads > 3)
        assert [a[:k].tobytes() for a in out] == [a[:k].tobytes()
                                                  for a in one[:5]]
        assert all(np.all(a[k:] == -9) for a in out)
        spent = np.sort(1 + out[3][:k])
        assert spent[:-threads].sum() < 2 ** 22
        assert k == 16 or spent.sum() >= 2 ** 22
        lib.runs.clear()
        got = simulate._kernel_run(lib, ref_spec, 1e5, 1.0, cfg, 3, 16, lam,
                                   delta, False, threads=threads)
        assert sum(lib.runs) == 16 and (len(lib.runs) >= 2 or threads > 3)
        assert [a.tobytes() for a in got[:5]] == [a.tobytes() for a in one[:5]]


def test_path_repr_is_engine_independent(ref_spec, tabulated_spec):
    # the rates are Python floats, so a path's repr is the same from the
    # kernel and from the oracle
    untilted = measure.untilted_spec(ref_spec)
    cfg = simulate.EngineConfig(eps=1e-2, seed=7, cap=1e5)
    for spec, explosive in ((ref_spec, False), (tabulated_spec, False),
                            (untilted, True)):
        got = repr(_recorded(spec, 1.0, 1.0, cfg, 2, explosive))
        assert got == repr(_scalar_path(spec, 1.0, 1.0, cfg, 2, explosive))
        assert "np.float64" not in got


@pytest.fixture(scope="module")
def kernel_harness(tmp_path_factory):
    """kernel_harness.c, which includes _kernel.c, compiled and loaded."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler")
    lib = tmp_path_factory.mktemp("harness") / "harness.so"
    res = subprocess.run(
        [*simulate._CC, "-Wall", "-Wextra", "-Werror", "-I",
         str(simulate._KERNEL_SOURCE.parent), "-o", str(lib),
         os.path.join(os.path.dirname(__file__), "kernel_harness.c"), "-lm"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lib = ctypes.CDLL(str(lib))
    ptr = ctypes.c_void_p
    lib.harness_ppoly.argtypes = [ptr, ptr, ctypes.c_int64, ptr, ptr,
                                  ctypes.c_int64]
    lib.harness_ppoly.restype = None
    lib.harness_below_exp.argtypes = [ptr, ptr, ptr, ctypes.c_int64]
    lib.harness_below_horizon.argtypes = [ptr, ptr, ptr, ptr, ptr,
                                          ctypes.c_int64]
    lib.harness_below_exp.restype = lib.harness_below_horizon.restype = None
    return lib


def test_kernel_job_layout_matches_ctypes(kernel_harness):
    # simulate._Job names every field of _kernel.c's job, in its order, at
    # its offset, and is as large
    lib = kernel_harness
    count = ctypes.c_int64.in_dll(lib, "harness_count").value
    names = (ctypes.c_char_p * count).in_dll(lib, "harness_fields")
    offsets = (ctypes.c_int64 * count).in_dll(lib, "harness_offsets")
    assert [(name.decode(), at) for name, at in zip(names, offsets)] == \
        [(name, getattr(simulate._Job, name).offset)
         for name, _ in simulate._Job._fields_]
    assert ctypes.c_int64.in_dll(lib, "harness_size").value == \
        ctypes.sizeof(simulate._Job)


def test_kernel_ppoly_matches_scipy(tabulated_spec, kernel_harness):
    # the C port of PPoly evaluation against the table sampler's
    # PchipInterpolator: uniforms, every breakpoint and its neighbours
    lib = kernel_harness
    rng = np.random.Generator(np.random.Philox(key=[5, 0]))
    for spec, eps in ((tabulated_spec, 1e-2), (tabulated_spec, 1e-3),
                      (_KERNEL_CASES["low-acceptance"][0], 0.05)):
        inv = measure.make_jump_sampler(spec, eps).inv
        x, c = inv.x, np.ascontiguousarray(inv.c)
        u = np.concatenate([rng.random(100_000), np.nextafter(x, -np.inf), x,
                            np.nextafter(x, np.inf)])
        got = np.empty_like(u)
        lib.harness_ppoly(x.ctypes.data, c.ctypes.data, x.size - 1,
                          u.ctypes.data, got.ctypes.data, u.size)
        assert np.array_equal(got.view(np.int64), inv(u).view(np.int64))


def _harness_call(fn, *columns):
    """fn over equal-length float columns, one int32 result per row."""
    cols = [np.ascontiguousarray(c, dtype=float) for c in columns]
    out = np.empty(cols[0].size, dtype=np.int32)
    fn(*(c.ctypes.data for c in cols), out.ctypes.data, out.size)
    return out


def _neighbours(v, k=3):
    """v and its k float neighbours on each side."""
    out = [v]
    for toward in (-math.inf, math.inf):
        w = v
        for _ in range(k):
            w = math.nextafter(w, toward)
            out.append(w)
    return out


def _check_below_exp(lib, a, vs):
    """below_exp(v, a) for each v: where it settles, the answer is
    v < math.exp(a), libm's exp as the kernel calls it."""
    got = _harness_call(lib.harness_below_exp, vs, [a] * len(vs))
    for v, g in zip(vs, got):
        assert g in (-1, 0, 1)
        if g >= 0:
            assert g == (v < math.exp(a)), (v.hex(), a.hex(), g)
    return got


# the edges of [-1/2, 0], and small a where 1 + a + a^2/2, as it rounds,
# lies below exp(a): the upper bound needs its guard there
_EDGE_A = [-0.5, math.nextafter(-0.5, -1.0), math.nextafter(-0.5, 0.0),
           -0.0, 0.0, -5e-324, -2.0 ** -53, -0.25, -1.0, -math.inf,
           float.fromhex("-0x1.e39441d367660p-28"),
           float.fromhex("-0x1.09e7bb5df25b0p-19")]


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(st.floats(-0.6, 0.0), st.sampled_from(_EDGE_A)),
       v=st.floats(0.0, 1.0, exclude_max=True))
def test_below_exp_never_disagrees_with_exp(kernel_harness, a, v):
    # the acceptance test's squeeze: v, and the float neighbours of both
    # bounds and of exp(a), against v < exp(a)
    lo = (1.0 + a) - 2.0 ** -49
    hi = (1.0 + a + a * a / 2.0) + 2.0 ** -49
    vs = [v, 0.0, 1.0 - 2.0 ** -53] + [w for edge in (lo, hi, math.exp(a))
                                       for w in _neighbours(edge)]
    _check_below_exp(kernel_harness, a, vs)


def test_below_exp_settles_inside_its_range(kernel_harness):
    # it settles inside [-1/2, 0] and leaves every a outside to exp
    lib = kernel_harness
    assert list(_check_below_exp(lib, -0.1, [0.5, 0.95, 0.9048])) == \
        [1, 0, -1]
    assert list(_check_below_exp(lib, -0.0, [0.5, 1.0 - 2.0 ** -53])) == \
        [1, -1]
    for a in (math.nextafter(-0.5, -1.0), -1.0, -math.inf, math.nan, 1e-300):
        assert list(_check_below_exp(lib, a, [0.0, 0.5])) == [-1, -1]


def _check_below_horizon(lib, cases):
    """below_horizon over (e_draw, xl, z, delta) rows: it returns 0 or 1,
    and 1 only where e_draw < xl (1 - exp(-z)) / delta as run_path rounds
    it."""
    got = _harness_call(lib.harness_below_horizon, *zip(*cases))
    for (e, xl, z, delta), g in zip(cases, got):
        assert g in (0, 1)
        if g:
            assert e < xl * (1.0 - math.exp(-z)) / delta, \
                (e.hex(), xl.hex(), z.hex(), delta.hex())
    return got


_TINY = 2.0 ** -1022
# the edges of (2^-30, 1e300), and z above 2^-30 where 1/(1+z), as it
# rounds, lies below exp(-z): the bound needs its guard there
_EDGE_Z = [2.0 ** -30, *_neighbours(2.0 ** -30, 1)[1:], 1e300,
           *_neighbours(1e300, 1)[1:], 1e-3, 1.0, 700.0, 0.0, -1.0,
           math.inf, math.nan, float.fromhex("0x1.0f0c8a9799336p-28"),
           float.fromhex("0x1.34accd725926ap-29")]
_EDGE_XL = [_TINY, *_neighbours(_TINY, 1)[1:], 5e-324, sys.float_info.max,
            1e300, 1.0, 0.0, -1.0, math.inf, math.nan]
_EDGE_DELTA = [1.0, 0.98, 2.0 ** -60, 1e-300, 1e300, 5e-324, 0.0, -1.0,
               math.inf, math.nan]


def _horizon_rows(xl, z, delta, e_draws=()):
    """Rows at e_draw 0, the given ones, and the float neighbours of the
    bound and of the horizon mass."""
    edges = [0.0, *e_draws]
    with np.errstate(all="ignore"):
        bound = float(np.float64(xl) * (1.0 - (1.0 / (1.0 + np.float64(z))
                                              + 2.0 ** -49)) / delta)
        mass = float(np.float64(xl) * (1.0 - np.exp(-np.float64(z)))
                     / delta)
    for edge in (bound, mass):
        if math.isfinite(edge):
            edges += _neighbours(edge, 2)
    return [(e, xl, z, delta) for e in edges]


def test_below_horizon_edges(kernel_harness):
    # every combination of edge values: z at 2^-30 and 1e300 and their
    # neighbours, x lam at the smallest normal float and its neighbours,
    # zero, non-positive and non-finite inputs
    rows = [row for z in _EDGE_Z for xl in _EDGE_XL for delta in _EDGE_DELTA
            for row in _horizon_rows(xl, z, delta)]
    got = _check_below_horizon(kernel_harness, rows)
    settled = {(xl, z, delta) for (e, xl, z, delta), g in zip(rows, got) if g}
    # the range edges are where the bound starts to decide
    assert (1.0, math.nextafter(2.0 ** -30, 1.0), 1.0) in settled
    assert not any(z == 2.0 ** -30 or z >= 1e300 for _, z, _ in settled)
    assert (_TINY, 1.0, 2.0 ** -60) in settled
    assert all(xl >= _TINY for xl, _, _ in settled)
    assert all(delta > 0.0 for _, _, delta in settled)


@settings(max_examples=300, deadline=None)
@given(xl=st.one_of(st.floats(1e-300, 1e300), st.sampled_from(_EDGE_XL)),
       z=st.one_of(st.floats(1e-12, 1e3), st.sampled_from(_EDGE_Z)),
       delta=st.one_of(st.floats(1e-3, 1e3), st.sampled_from(_EDGE_DELTA)),
       e_draw=st.floats(0.0, 40.0))
def test_below_horizon_never_disagrees_with_exp(kernel_harness, xl, z, delta,
                                                e_draw):
    # the horizon test's squeeze against the full comparison, at a drawn
    # e_draw and at the float neighbours of the bound and of the mass
    _check_below_horizon(kernel_harness, _horizon_rows(xl, z, delta,
                                                       [e_draw]))


def _python_rows(events):
    return "".join(["%.17g,%.17g\n" % ev for ev in events])


def _csv(path):
    buf = io.StringIO()
    simulate.export_path_csv(path, buf)
    return buf.getvalue()


def _kernel_rows(events):
    """The rows the kernel's formatter gives for (t, xi) pairs, held as a
    block's events, as block_csvs has them formatted; None where it leaves
    them to Python."""
    rows = simulate._format_block(array.array("d", [v for ev in events
                                                    for v in ev]),
                                  array.array("q", [0, len(events)]))[0]
    return None if rows is None else rows.decode("ascii")


def _kernel_csv_rows(events):
    """The rows export_path_csv writes for events, and what the kernel's
    formatter gave for them (None when it left them to Python)."""
    path = simulate.Path(x0=1.0, events=events, decay_rate=1.0, t_end=1.0,
                         eps=1e-2)
    rows = _csv(path).split("time,size\n", 1)[1]
    return rows, _kernel_rows(events)


def _in_kernel_range(v):
    # the double 1e-16 lies below 10^-16, one decade too far down
    return 1e-16 < abs(v) < 1e17


# the signed zeros and infinities, a NaN with the sign bit set, the
# smallest subnormal, the smallest normal and the largest double, one ulp
# either side of 1e-16 and 1e17, and two values whose decade is only
# right when it comes from the truncated digits: 9.9999999999999998e-13
# (not 1e-12) and 9.9999999999999998e-17 (p = 33 overflows 128 bits)
_FORMAT_EDGES = [0.0, -0.0, math.inf, -math.inf, -math.nan, 5e-324,
                 2.2250738585072014e-308, 1.7976931348623157e308,
                 *(math.nextafter(v, d) for v in (1e-16, 1e17)
                   for d in (-math.inf, math.inf)),
                 9.9999999999999998e-13, 9.9999999999999998e-17]


@settings(max_examples=500, deadline=None)
@given(t=st.floats(allow_nan=True, allow_infinity=True),
       xi=st.floats(allow_nan=True, allow_infinity=True))
def test_kernel_rows_match_python_percent(t, xi):
    # byte for byte "%.17g,%.17g\n" % event; the kernel formats every
    # event with 1e-16 < |v| < 1e17 and leaves the rest to Python
    for ev in [(t, xi), *((v, xi) for v in _FORMAT_EDGES),
               *((t, -v) for v in _FORMAT_EDGES)]:
        rows, by_kernel = _kernel_csv_rows([ev])
        assert rows == _python_rows([ev])
        assert (by_kernel is not None) == all(map(_in_kernel_range, ev))
        if by_kernel is not None:
            assert by_kernel == rows


def test_kernel_rows_match_python_on_a_sweep():
    # some 80,000 doubles in one call: log-uniform on +-(1e-16, 1e17),
    # scaled integers, dyadic rationals, 50 ulps either side of 10^k and
    # values halfway between two 17-digit decimals
    rng = np.random.default_rng(14)
    near = []
    for k in range(-15, 17):
        near.append(float(f"1e{k}"))
        for d in (-math.inf, math.inf):
            v = near[-1]
            for _ in range(50):
                v = math.nextafter(v, d)
                near.append(v)
    # exact ties at the 17th digit, 18 digits ending in 5: i + odd / 2^j
    # with 18 - j digits in i
    ties = [float(i) + (2 * r + 1) / 2 ** j for j in range(2, 18)
            for i, r in zip(rng.integers(10 ** (17 - j),
                                         min(10 ** (18 - j), 2 ** (53 - j)),
                                         200).tolist(),
                            rng.integers(0, 2 ** (j - 1), 200).tolist())]
    values = np.concatenate([
        rng.choice([-1.0, 1.0], 30_000) * 10 ** rng.uniform(-16, 17, 30_000),
        rng.integers(-10 ** 16, 10 ** 16, 20_000)
        * 10.0 ** rng.integers(-16, 1, 20_000),
        rng.integers(1, 2 ** 53, 20_000) * 2.0 ** rng.integers(-105, 4, 20_000),
        near, ties, np.negative(ties)])
    values = values[np.vectorize(_in_kernel_range)(values)]
    events = list(zip(values[0::2].tolist(), values[1::2].tolist()))
    rows, by_kernel = _kernel_csv_rows(events)
    assert by_kernel == rows == _python_rows(events)


def test_recorded_path_outside_kernel_range_is_formatted_by_python():
    # path 1176 jumps to +inf: its rows come from Python's %, as they did
    # before the kernel formatted any
    untilted = measure.untilted_spec(
        measure.LevyMeasureSpec.tilted_power(1.0, 1.01, 1.0))
    cfg = simulate.EngineConfig(eps=1e-2, seed=0)
    path = simulate.simulate_explosive_path(untilted, 1.0, 1.0, cfg, 1176)
    assert path.events[-1][1] == math.inf
    assert _kernel_rows(path.events) is None
    assert _csv(path).endswith("time,size\n" + _python_rows(path.events))
    csvs = simulate.block_csvs(untilted, 1.0, 1.0, cfg, 1170, 10, True, 2)
    assert csvs[6] == _csv(path).encode()


def test_hand_built_path_writes_the_same_csv(ref_spec):
    # a Path built from the same fields holds nothing more, and its CSV,
    # formatted by Python, is the kernel's byte for byte
    untilted = measure.untilted_spec(ref_spec)
    cfg = simulate.EngineConfig(eps=1e-2, seed=20261018, cap=1e5)
    t_end = 2.0 * math.log(2.0)
    for i in (14, 25):      # 518 events up to an explosion; 411 events
        path = simulate.simulate_explosive_path(untilted, 1.0, t_end, cfg, i)
        by_hand = simulate.Path(**{f.name: getattr(path, f.name)
                                   for f in dataclasses.fields(path)
                                   if f.init})
        assert all(f.init for f in dataclasses.fields(path))
        assert dataclasses.replace(path) == path
        assert by_hand == path and repr(by_hand) == repr(path)
        assert _kernel_rows(path.events) is not None
        assert _csv(by_hand) == _csv(path)
        assert simulate.block_csvs(untilted, 1.0, t_end, cfg, i, 1, True) \
            == [_csv(by_hand).encode()]


def _export_outcome(fn):
    """What fn() gives, or the type and message of what it raises."""
    try:
        return fn()
    except JumplmError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name,explosive", [
    (name, explosive) for name, case in _KERNEL_CASES.items()
    for explosive in case[1]])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(-2 ** 63, 2 ** 63 - 1),
       start=st.integers(0, 10 ** 6),
       count=st.integers(1, 130),
       threads=st.sampled_from([1, 2, 3, 8]),
       eps_index=st.integers(0, 1),
       x0=st.floats(0.05, 3.0),
       t_end=st.floats(0.0, 2.0),
       max_events=st.sampled_from([10_000_000] * 4 + [1, 5]),
       zero_delta=st.sampled_from([False] * 5 + [True]))
def test_block_csvs_match_one_path_exports(name, explosive, tabulated_spec,
                                           seed, start, count, threads,
                                           eps_index, x0, t_end, max_events,
                                           zero_delta):
    # each path's CSV from the block is export_path_csv's for the path run
    # alone, byte for byte, on any number of threads; a block raises what
    # its first raising path raises alone: DomainError naming the path
    # where the kernel stops it (a delta of 0), and MaxEventsExceeded for a
    # conservative path at max_events
    spec, _, eps_values, fixed_x0 = _KERNEL_CASES[name]
    spec = spec or tabulated_spec
    eps = eps_values[eps_index % len(eps_values)]
    x0 = fixed_x0 or x0
    cfg = simulate.EngineConfig(eps=eps, seed=seed, cap=1e5,
                                max_events=max_events)
    one = simulate.simulate_explosive_path if explosive else \
        simulate.simulate_path
    rates = simulate._rates
    with (mock.patch.object(simulate, "_rates",
                            lambda *a: (rates(*a)[0], 0.0))
          if zero_delta else contextlib.nullcontext()):
        got = _export_outcome(lambda: simulate.block_csvs(
            spec, x0, t_end, cfg, start, count, explosive, threads))
        want = []
        for i in range(start, start + count):
            alone = _export_outcome(
                lambda: _csv(one(spec, x0, t_end, cfg, i)).encode())
            if isinstance(alone, tuple):
                want = alone
                break
            want.append(alone)
    assert got == want


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_compiles_without_warnings(tmp_path):
    res = subprocess.run(
        [*simulate._CC, "-Wall", "-Wextra", "-Werror", "-o",
         str(tmp_path / "kernel.so"), str(simulate._KERNEL_SOURCE), "-lm"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_kernel_build_and_unavailable(ref_spec, tmp_path, monkeypatch,
                                     caplog):
    # the kernel is built into the cache and loaded; where it cannot be (a
    # cache that cannot be a directory, no compiler on PATH), _load gives
    # the reason, and every simulation raises KernelUnavailable with it
    load = simulate._load.__wrapped__
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    with caplog.at_level(logging.DEBUG, logger="jumplm.simulate"):
        lib = load()
    (built,) = (tmp_path / "cache" / "jumplm").iterdir()
    assert lib._name == str(built)
    assert built.name.startswith("kernel-") and built.suffix == ".so"
    assert [r.getMessage() for r in caplog.records] == [
        f"simulation kernel: {built}"]
    (tmp_path / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    assert load().startswith("simulation needs the compiled kernel: ")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
    monkeypatch.setenv("PATH", str(tmp_path))
    why = load()
    assert why.startswith("simulation needs the compiled kernel: ")
    assert "'cc'" in why
    monkeypatch.setattr(simulate, "_load", lambda: why)
    cfg = simulate.EngineConfig(eps=1e-2, seed=1)
    for run in (simulate._kernel,
                lambda: simulate.fan_out(ref_spec, 1.0, 1.0, cfg, 0, 4, False),
                lambda: simulate.block_csvs(ref_spec, 1.0, 1.0, cfg, 0, 4,
                                            False),
                lambda: simulate.simulate_path(ref_spec, 1.0, 1.0, cfg)):
        with pytest.raises(KernelUnavailable, match=f"^{re.escape(why)}$"):
            run()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_build_removes_stale_kernels(tmp_path, monkeypatch):
    # a build removes the kernels of other sources or flags; a load does not
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    stale = tmp_path / "jumplm" / "kernel-deadbeef.so"
    stale.parent.mkdir()
    stale.write_bytes(b"")
    lib = simulate._build_kernel()
    assert list(stale.parent.iterdir()) == [lib]
    stale.write_bytes(b"")
    assert simulate._build_kernel() == lib
    assert sorted(stale.parent.iterdir()) == sorted([lib, stale])


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_removed_before_its_load_is_built_again(tmp_path,
                                                       monkeypatch):
    # a build in another checkout sharing the cache removes this source's
    # kernel; when that lands between naming the kernel and loading it,
    # the kernel is built once more and loaded
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    build, names = simulate._build_kernel, []

    def build_then_lose():
        names.append(build())
        if len(names) == 1:
            names[0].unlink()
        return names[-1]

    monkeypatch.setattr(simulate, "_build_kernel", build_then_lose)
    lib = simulate._load.__wrapped__()
    assert len(names) == 2 and names[1].exists()
    assert lib._name == str(names[1])


def test_import_and_sampling_do_not_build(tmp_path):
    code = ("from jumplm import cli, measure, montecarlo, simulate\n"
            "spec = measure.reference_spec()\n"
            "measure.validate(spec)\n"
            "measure.make_jump_sampler(spec, 1e-2)\n"
            "assert simulate._load.cache_info().currsize == 0\n")
    src = os.path.dirname(os.path.dirname(simulate.__file__))
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert list(tmp_path.iterdir()) == []
