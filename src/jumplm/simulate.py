"""Event-driven exact simulation of the self-exciting jump processes.

Between jumps the state decays exponentially and the jump intensity is
state * Lambda(eps), so jump times come from closed-form inversion of the
integrated intensity: no time stepping and no thinning rejections.  Jumps
below the truncation eps are folded into the decay rate as their mean
drift, which is exact to first order for these finite-variation measures.

Two engines share the scalar loop _run_engine: the conservative process
(compensated jumps, decay rate b + tail mean) and the explosive one
(uncompensated jumps, unit decay minus the small-jump mean), which can hit
+infinity in finite time and is flagged exploded once it crosses the
configured cap.  Jump sizes come from measure.make_jump_sampler, which
picks the sampler once per (spec, eps).  Path i of seed s draws its
uniforms, in order, from Philox(key=[s, i]), so every path is
reproducible on its own.

conservative_terminals runs a block of conservative paths together as
numpy arrays, dropping each path as it finishes.  Every path performs the
scalar loop's operations in the same order on the same uniforms: +, -, *
and / are correctly rounded in numpy as in Python, and every exp, log and
power goes through the same math-library call as the scalar loop, so the
terminals are bit-identical to simulate_path's.  The explosive engine stays
scalar: its heavy-tailed event counts leave only a few paths active for
most of a block's steps.
"""

from __future__ import annotations

import itertools
import math
import threading
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
    "conservative_terminals",
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

    The seed must lie in [-2**63, 2**63); a negative seed keys the same
    Philox streams as seed + 2**64.  Both engines stop a path when its jump
    count reaches max_events: the conservative engine raises
    MaxEventsExceeded, the explosive engine marks the path exploded at that
    jump.
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
        if not -2 ** 63 <= self.seed < 2 ** 63:
            raise InvalidConfig(
                f"seed must lie in [-2**63, 2**63), got {self.seed}")
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


# one Philox, re-keyed for every block of draws: assigning its state costs
# about a tenth of building a Generator(Philox(key)) per path
_PHILOX = np.random.Philox(0)
_GENERATOR = np.random.Generator(_PHILOX)
_PHILOX_LOCK = threading.Lock()


def _draw(seed: int, index: int, first: int, n: int, out=None) -> np.ndarray:
    """Uniforms first .. first+n-1 of Philox(key=[seed, index]).

    Uniform k is word k % 4 of the Philox block at counter k // 4 + 1, so
    first must be a multiple of 4.
    """
    with _PHILOX_LOCK:
        _PHILOX.state = {
            "bit_generator": "Philox",
            "state": {"counter": [first // 4, 0, 0, 0],
                      "key": [seed % 2 ** 64, index]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return _GENERATOR.random(n, out=out)


def _uniforms(seed: int, index: int):
    """next() over one path's uniforms: Philox(key=[seed, index]), drawn
    256 at a time first and 1024 at a time after that."""
    firsts = itertools.chain([0], itertools.count(256, 1024))
    blocks = (_draw(seed, index, k, 1024 if k else 256).tolist()
              for k in firsts)
    return itertools.chain.from_iterable(blocks).__next__


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


def _conservative_rates(spec: LevyMeasureSpec, x0: float, t_end: float,
                        eps: float) -> Tuple[float, float]:
    """Check the inputs of the conservative engine; return (lam, delta).

    The inter-jump decay rate delta is b + (m1 - m(eps)): the compensator
    of all jumps minus the mean drift of the ones below eps that were
    dropped.
    """
    if not (x0 > 0):
        raise DomainError(f"x0 must be positive, got {x0}")
    if t_end < 0:
        raise DomainError(f"t_end must be nonnegative, got {t_end}")
    mom = measure.validate(spec)
    lam = measure.tail_intensity(spec, eps)
    return lam, mom.b + (mom.m1 - measure.small_jump_mean(spec, eps))


def simulate_path(spec: LevyMeasureSpec, x0: float, t_end: float,
                  config: EngineConfig, path_index: int = 0,
                  record: bool = True) -> Path:
    """Simulate the conservative process on [0, t_end].

    With record=False the event list is left empty (terminal value only),
    consuming the identical random stream.
    """
    eps = config.eps
    lam, delta = _conservative_rates(spec, x0, t_end, eps)
    events, t, x, _, _, _ = _run_engine(
        spec, x0, t_end, config, path_index, record, lam, delta,
        explosive=False)
    terminal = x * math.exp(-delta * (t_end - t))
    return Path(x0=x0, events=events, decay_rate=delta, t_end=t_end, eps=eps,
                terminal=terminal)


class _PathStreams:
    """The uniform streams of paths start .. start+count-1, side by side.

    Each path holds a row of _ROW uniforms of its Philox stream and redraws
    the row from its current position when the row runs short, so uniform
    k of a path is the same number however its draws are grouped.
    """

    _ROW = 256

    def __init__(self, seed: int, start: int, count: int):
        self._seed, self._start = seed, start
        self._rows = np.empty((count, self._ROW))
        for j in range(count):
            _draw(seed, start + j, 0, self._ROW, out=self._rows[j])
        self._flat = self._rows.reshape(-1)
        self._row_first = [0] * count    # stream position of each row
        self._used = np.zeros(count, dtype=np.int64)

    def take(self, paths: np.ndarray, k: int = 1) -> np.ndarray:
        """The next k uniforms of each of paths, block-local numbers in
        0 .. count-1: an array over paths for k = 1, else k such rows."""
        used = self._used[paths]
        short = used > self._ROW - k
        if np.count_nonzero(short):
            for j, u in zip(paths[short].tolist(), used[short].tolist()):
                # restart the row at the Philox block holding position u
                self._row_first[j] += u - u % 4
                _draw(self._seed, self._start + j, self._row_first[j],
                      self._ROW, out=self._rows[j])
                self._used[j] = u % 4
            used = self._used[paths]
        at = paths * self._ROW + used
        self._used[paths] = used + k
        if k == 1:
            return self._flat[at]
        return self._flat[at + np.arange(k)[:, None]]

    def give_back(self, paths: np.ndarray, counts: np.ndarray) -> None:
        """Return the last counts[i] uniforms taken by paths[i] unused."""
        self._used[paths] -= counts


def conservative_terminals(spec: LevyMeasureSpec, x0: float, t_end: float,
                           config: EngineConfig, start: int,
                           count: int) -> np.ndarray:
    """Terminal values of conservative paths start .. start+count-1.

    Equal bit for bit to simulate_path(spec, x0, t_end, config, i,
    record=False).terminal for each i, and raises MaxEventsExceeded, with
    the same message, when any of the paths reaches config.max_events.
    All paths still running take each step together; at a step every one
    of them has made the same number of jumps.
    """
    lam, delta = _conservative_rates(spec, x0, t_end, config.eps)
    sampler = measure.make_jump_sampler(spec, config.eps)
    streams = _PathStreams(config.seed, start, count)
    out = np.empty(count)
    paths = np.arange(count)
    t = np.zeros(count)
    x = np.full(count, x0, dtype=float)
    n = 0    # jumps made by every path still running
    while paths.size:
        if n >= config.max_events:
            raise MaxEventsExceeded(
                f"conservative path reached {config.max_events} events")
        decay = measure._libm(math.exp, -delta * (t_end - t))
        horizon_mass = x * lam * (1.0 - decay) / delta
        e_draw = -measure._libm(math.log, 1.0 - streams.take(paths))
        done = e_draw >= horizon_mass
        if np.count_nonzero(done):
            # the scalar loop's terminal x * exp(-delta * (t_end - t))
            out[paths[done]] = x[done] * decay[done]
            go = ~done
            paths, t, x, e_draw = paths[go], t[go], x[go], e_draw[go]
        dt = -measure._libm(math.log, 1.0 - e_draw * delta / (x * lam)) / delta
        t += dt
        x *= measure._libm(math.exp, -delta * dt)
        x += sampler.sample_array(streams, paths)
        n += 1
    return out


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
