"""Event-driven exact simulation of the self-exciting jump processes.

Between jumps the state decays exponentially and the jump intensity is
state * Lambda(eps), so jump times come from closed-form inversion of the
integrated intensity: no time stepping and no thinning rejections.  Jumps
below the truncation eps are folded into the decay rate as their mean
drift, which is exact to first order for these finite-variation measures.

Two engines share the loop: the conservative process (compensated jumps,
decay rate b + tail mean) and the explosive one (uncompensated jumps,
unit decay minus the small-jump mean), which can hit +infinity in finite
time and is flagged exploded once it crosses the configured cap.  Jump
sizes come from measure.make_jump_sampler, which picks the sampler once
per (spec, eps).  Path i of seed s draws its uniforms, in order, from
Philox(key=[s, i]), so every path is reproducible on its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import measure
from .errors import DomainError, InvalidConfig, MaxEventsExceeded
from .measure import LevyMeasureSpec

__all__ = [
    "EngineConfig",
    "Path",
    "ExplodedMarker",
    "EXPLODED",
    "simulate_path",
    "simulate_explosive_path",
    "evaluate",
    "export_path_csv",
]


class ExplodedMarker:
    """Sentinel returned when evaluating a path at or past its explosion."""

    def __repr__(self):
        return "EXPLODED"


EXPLODED = ExplodedMarker()


@dataclass(frozen=True)
class EngineConfig:
    """Simulation controls: truncation, seeding, and runaway guards.

    Both engines stop a path when its jump count reaches max_events: the
    conservative engine raises MaxEventsExceeded, the explosive engine
    marks the path exploded at that jump.
    """

    eps: float
    seed: int = 0
    cap: float = 1e12
    max_events: int = 10_000_000

    def __post_init__(self):
        if not (self.eps > 0):
            raise InvalidConfig(f"eps must be positive, got {self.eps}")
        if not (self.cap > 0):
            raise InvalidConfig(f"cap must be positive, got {self.cap}")
        if self.max_events < 1:
            raise InvalidConfig(f"max_events must be >= 1, got {self.max_events}")


@dataclass
class Path:
    """One realized trajectory: jump events plus inter-jump decay."""

    x0: float
    events: List[Tuple[float, float]]
    decay_rate: float
    t_end: float
    eps: float
    exploded: bool = False
    explosion_time: Optional[float] = None
    terminal: Optional[float] = None


def _uniforms(seed: int, index: int):
    """next() over one path's uniforms: Philox(key=[seed, index]), drawn
    256 at a time first and 1024 at a time after that."""
    gen = np.random.Generator(np.random.Philox(key=[seed, index]))
    first = gen.random(256).tolist()
    blocks = iter(lambda: gen.random(1024).tolist(), None)
    return itertools.chain(
        first, itertools.chain.from_iterable(blocks)).__next__


def _run_engine(spec, x0, t_end, config, path_index, record,
                lam, delta, explosive):
    """Shared event loop for both engines.

    Returns (events, t_last, x_last, n_events, exploded, explosion_time).
    Each event draws one uniform for its waiting time, then the jump size
    from the sampler measure.make_jump_sampler picked for (spec, eps).
    """
    uni = _uniforms(config.seed, path_index)
    sampler = measure.make_jump_sampler(spec, config.eps)
    cap = config.cap
    max_events = config.max_events
    log, exp, isfinite = math.log, math.exp, math.isfinite

    t, x = 0.0, x0
    events: List[Tuple[float, float]] = []
    exploded = False
    explosion_time = None
    n = 0
    while True:
        horizon_mass = x * lam * (1.0 - exp(-delta * (t_end - t))) / delta
        e_draw = -log(1.0 - uni())
        if e_draw >= horizon_mass:
            break
        dt = -log(1.0 - e_draw * delta / (x * lam)) / delta
        t += dt
        x *= exp(-delta * dt)
        xi = sampler.sample(uni)
        x += xi
        n += 1
        if record:
            events.append((t, xi))
        if explosive:
            if x > cap or not isfinite(x) or n >= max_events:
                exploded = True
                explosion_time = t
                break
        elif n >= max_events:
            raise MaxEventsExceeded(
                f"conservative path reached {max_events} events")
    return events, t, x, n, exploded, explosion_time


def simulate_path(spec: LevyMeasureSpec, x0: float, t_end: float,
                  config: EngineConfig, path_index: int = 0,
                  record: bool = True) -> Path:
    """Simulate the conservative process on [0, t_end].

    Inter-jump decay rate is b + (m1 - m(eps)): the compensator of all
    jumps minus the mean drift of the ones below eps that were dropped.
    With record=False the event list is left empty (terminal value only),
    consuming the identical random stream.
    """
    if not (x0 > 0):
        raise DomainError(f"x0 must be positive, got {x0}")
    if t_end < 0:
        raise DomainError(f"t_end must be nonnegative, got {t_end}")
    mom = measure.validate(spec)
    eps = config.eps
    lam = measure.tail_intensity(spec, eps)
    delta = mom.b + (mom.m1 - measure.small_jump_mean(spec, eps))
    events, t, x, _, _, _ = _run_engine(
        spec, x0, t_end, config, path_index, record, lam, delta,
        explosive=False)
    terminal = x * math.exp(-delta * (t_end - t))
    return Path(x0=x0, events=events, decay_rate=delta, t_end=t_end, eps=eps,
                terminal=terminal)


def simulate_explosive_path(untilted: LevyMeasureSpec, x0: float, t_end: float,
                            config: EngineConfig, path_index: int = 0,
                            record: bool = True) -> Path:
    """Simulate the explosive companion process on [0, t_end].

    Jumps are uncompensated; decay rate is 1 - m(eps), which must stay
    positive.  Crossing config.cap marks the path exploded at the crossing
    jump (the residual time to the true explosion is negligible at any
    reasonable cap, and treating it as zero biases survival estimates
    downward).  Exhausting max_events also marks the path exploded.
    """
    if not (x0 > 0):
        raise DomainError(f"x0 must be positive, got {x0}")
    if t_end < 0:
        raise DomainError(f"t_end must be nonnegative, got {t_end}")
    eps = config.eps
    m_eps = measure.small_jump_mean(untilted, eps)
    if m_eps >= 1.0:
        raise InvalidConfig(
            f"small-jump mean drift m(eps)={m_eps:.6g} >= 1 at eps={eps}: "
            "the truncated process would not decay between jumps")
    delta = 1.0 - m_eps
    lam = measure.tail_intensity(untilted, eps)
    events, t, x, _, exploded, explosion_time = _run_engine(
        untilted, x0, t_end, config, path_index, record, lam, delta,
        explosive=True)
    terminal = None if exploded else x * math.exp(-delta * (t_end - t))
    return Path(x0=x0, events=events, decay_rate=delta, t_end=t_end, eps=eps,
                exploded=exploded, explosion_time=explosion_time,
                terminal=terminal)


def evaluate(path: Path, t: float):
    """Reconstruct the state at time t from the recorded events.

    Right-continuous: at a jump time the post-jump value is returned.
    Returns the EXPLODED sentinel at or beyond the explosion time.
    """
    if t < 0 or t > path.t_end:
        raise DomainError(f"t={t} outside the path horizon [0, {path.t_end}]")
    if path.exploded and path.explosion_time is not None and t >= path.explosion_time:
        return EXPLODED
    x = path.x0
    t_prev = 0.0
    d = path.decay_rate
    for (tj, xi) in path.events:
        if tj > t:
            break
        x = x * math.exp(-d * (tj - t_prev)) + xi
        t_prev = tj
    return x * math.exp(-d * (t - t_prev))


def export_path_csv(path: Path, stream) -> None:
    """Write one path in the interchange format: commented header + events."""
    stream.write(f"# x0={path.x0:.17g}\n")
    stream.write(f"# decay_rate={path.decay_rate:.17g}\n")
    stream.write(f"# eps={path.eps:.17g}\n")
    stream.write(f"# exploded={str(path.exploded).lower()}\n")
    stream.write(f"# t_end={path.t_end:.17g}\n")
    if path.exploded and path.explosion_time is not None:
        stream.write(f"# explosion_time={path.explosion_time:.17g}\n")
    stream.write("time,size\n")
    for (tj, xi) in path.events:
        stream.write(f"{tj:.17g},{xi:.17g}\n")
