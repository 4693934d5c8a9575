import dataclasses
import io
import math

import numpy as np
import pytest

from jumplm import measure, simulate
from jumplm.errors import DomainError, InvalidConfig, MaxEventsExceeded


def test_engine_config_validation():
    with pytest.raises(InvalidConfig):
        simulate.EngineConfig(eps=0.0)
    with pytest.raises(InvalidConfig):
        simulate.EngineConfig(eps=1e-3, cap=-1.0)
    with pytest.raises(InvalidConfig):
        simulate.EngineConfig(eps=1e-3, max_events=0)


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


def test_uniform_stream_is_philox_per_path():
    # 3000 draws cross the 256-draw first block and two 1024-draw blocks
    next_u = simulate._uniforms(12, 34)
    got = [next_u() for _ in range(3000)]
    assert all(type(u) is float for u in got)
    want = np.random.Generator(np.random.Philox(key=[12, 34])).random(3000)
    assert np.array_equal(np.array(got), want)


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
    assert paths[1176].explosion_time == 0.002266416242774056
    # beta > 0 rejects them; this path meets at least one
    cfg = simulate.EngineConfig(eps=1e-2, seed=1)
    path = simulate.simulate_path(tilted, 1000.0, 1.0, cfg, 1)
    assert path.terminal == 2.2079233543599667e-41
    assert len(path.events) == 49
