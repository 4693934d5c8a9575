"""Event-driven exact simulation of the self-exciting jump processes.

Between jumps the state decays exponentially and the jump intensity is
state * Lambda(eps), so jump times come from closed-form inversion of the
integrated intensity: no time stepping and no thinning rejections.  Jumps
below the truncation eps are folded into the decay rate as their mean
drift, which is exact to first order for these finite-variation measures.

Two engines share one event loop: the conservative process (compensated
jumps, decay rate b + tail mean) and the explosive one (uncompensated
jumps, decay rate H = int (1 - e^-xi) mu(dxi) minus the small-jump mean,
the h-transform's decay), which can hit +infinity in finite time and is
flagged exploded once it crosses the configured cap.
Jump sizes come from the JumpLaw that measure.make_jump_sampler picks
once per (spec, eps).  Path i of seed s draws its uniforms, in order,
from Philox(key=[s, i]), so every path is reproducible on its own.

The loop is _kernel.c, compiled with cc on first use into
${XDG_CACHE_HOME:-~/.cache}/jumplm; without it no path runs, and every
simulation raises KernelUnavailable with cc's own message.  The Monte
Carlo fan-out, fan_out, runs a block of paths per call, on as many
threads as it is given, each claiming the next path, and returns the
whole per-path record, PathEnds: each path's end code, last t, x and
jump count, and terminal value, in array.array columns.  Every path has
its own stream, so the results are the same bits on any number of
threads.  simulate_path and simulate_explosive_path run a block of one,
on one thread; block_csvs, behind `jumplm simulate`, runs a block of many
on threads and records every path's events, (t, xi) pairs.  A recording
path grows its own event buffer in the kernel as it runs, so every path
runs once, whatever its length.  A kernel call takes one job record,
_Job, which copies the jump law's fields.  A path the kernel stops on an
error (a log of a non-positive number, an exp past the float range, a
division by zero, or an event buffer that cannot grow) raises a
JumplmError that names it.  The kernel formats a recorded block's rows,
the bytes "%.17g" gives, on threads; block_csvs formats in Python the
rows the kernel's formatter does not reach, and export_path_csv formats
every row in Python.
"""

from __future__ import annotations

import array
import collections
import ctypes
import functools
import hashlib
import itertools
import logging
import math
import os
import pathlib
import subprocess
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import measure
from .errors import (DomainError, InvalidConfig, KernelOutOfMemory,
                     KernelUnavailable, MaxEventsExceeded)
from .measure import LevyMeasureSpec

__all__ = [
    "EngineConfig",
    "Path",
    "ExplodedMarker",
    "EXPLODED",
    "simulate_path",
    "simulate_explosive_path",
    "fan_out",
    "PathEnds",
    "END_HORIZON", "END_CAP", "END_MAX_EVENTS",
    "evaluate",
    "export_path_csv",
    "block_csvs",
]


class ExplodedMarker:
    """Sentinel returned when evaluating a path at or past its explosion."""

    def __repr__(self):
        return "EXPLODED"


EXPLODED = ExplodedMarker()

_log = logging.getLogger(__name__)


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


def _rates(spec: LevyMeasureSpec, x0: float, t_end: float, eps: float,
           explosive: bool) -> Tuple[float, float]:
    """Check an engine's inputs; return its (lam, delta).

    The conservative decay rate delta is b + (m1 - m(eps)): the compensator
    of all jumps minus the mean drift of the ones below eps that were
    dropped.  The explosive one is H - m(eps), with H = int (1 - e^-xi)
    mu(dxi) (measure.dual_decay), the decay that makes it the h-transform
    of the conservative process by e^x; it must stay positive.
    """
    if not (x0 > 0):
        raise DomainError(f"x0 must be positive, got {x0}")
    if x0 == math.inf:
        raise DomainError(f"x0 must be finite, got {x0}")
    if not (t_end >= 0):
        raise DomainError(f"t_end must be nonnegative, got {t_end}")
    if not explosive:
        mom = measure.validate(spec)
        lam = measure.tail_intensity(spec, eps)
        return lam, mom.b + (mom.m1 - measure.small_jump_mean(spec, eps))
    # Lambda(eps) raises first where the tail diverges, and H with it
    lam = measure.tail_intensity(spec, eps)
    m_eps, h = measure.small_jump_mean(spec, eps), measure.dual_decay(spec)
    if m_eps >= h:
        raise InvalidConfig(
            f"small-jump mean drift m(eps)={m_eps:.6g} >= H={h:.6g} at "
            f"eps={eps}: the truncated process would not decay between jumps")
    return lam, h - m_eps


def simulate_path(spec: LevyMeasureSpec, x0: float, t_end: float,
                  config: EngineConfig, path_index: int = 0,
                  record: bool = True) -> Path:
    """Simulate the conservative process on [0, t_end].

    With record=False the event list is left empty (terminal value only),
    consuming the identical random stream.
    """
    return _path(spec, x0, t_end, config, path_index, record,
                 explosive=False)


# How a path of the fan-out ended: it reached t_end, crossed the cap (or
# left the floats), or made max_events jumps; or the kernel stopped it on
# an error.  _kernel.c uses the same codes.
END_HORIZON, END_CAP, END_MAX_EVENTS = 0, 1, 2
END_LOG_DOMAIN, END_EXP_RANGE, END_ZERO_DIVISION, END_NO_MEMORY = 3, 4, 5, 6

# what a path the kernel stops on an error raises, by its end code
_STOPS = {END_LOG_DOMAIN: (DomainError, "a log of a non-positive number"),
          END_EXP_RANGE: (DomainError, "an exp past the float range"),
          END_ZERO_DIVISION: (DomainError, "a division by zero"),
          END_NO_MEMORY: (KernelOutOfMemory,
                          "no memory to record its events")}

# the most threads a kernel call runs a block on, as in _kernel.c
MAX_THREADS = 64


class _Job(ctypes.Structure):
    """The job record jumplm_run_paths takes, field for field as _kernel.c
    lays it out: the block, the engine's inputs, the jump law's fields and
    the addresses of the columns the kernel writes."""

    _fields_ = [
        ("key0", ctypes.c_uint64),
        *((name, ctypes.c_int64) for name in ("start", "first", "count")),
        *((name, ctypes.c_double)
          for name in ("x0", "t_end", "lam", "delta", "cap")),
        ("max_events", ctypes.c_int64),
        ("explosive", ctypes.c_int32), ("threads", ctypes.c_int32),
        ("breaks", ctypes.c_void_p), ("coefs", ctypes.c_void_p),
        ("m", ctypes.c_int64),
        *((name, ctypes.c_double) for name in ("eps", "inv_pow", "beta")),
        *((name, ctypes.c_void_p)
          for name in ("end", "t", "x", "n", "terminal", "events")),
    ]


_KERNEL_SOURCE = pathlib.Path(__file__).with_name("_kernel.c")
# no -ffast-math, and no a*b + c contracted into an FMA: see _kernel.c
_CC = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")


def _build_kernel() -> pathlib.Path:
    """The compiled kernel in the user cache, compiled there when missing.

    Its name carries the SHA-256 of the source and the compiler command.
    cc writes to a temporary file that is renamed into place, so processes
    building at once never load a partial library.  A build then removes
    the other kernel-*.so files there, built from an older source or
    command; loading an existing kernel removes nothing.
    """
    digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes()
                            + " ".join(_CC).encode()).hexdigest()
    cache = pathlib.Path(os.environ.get("XDG_CACHE_HOME")
                         or pathlib.Path.home() / ".cache") / "jumplm"
    lib = cache / f"kernel-{digest}.so"
    if not lib.exists():
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run([*_CC, "-o", tmp, str(_KERNEL_SOURCE), "-lm"],
                           check=True, capture_output=True, text=True)
            os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for stale in cache.glob("kernel-*.so"):
            if stale != lib:
                try:
                    stale.unlink()
                except OSError:
                    pass
    return lib


@functools.lru_cache(maxsize=None)
def _load():
    """The loaded kernel, or why it cannot be built or loaded, with cc's
    own message: decided once per process."""
    try:
        path = _build_kernel()
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            # a build in another checkout sharing the cache removed it
            # after _build_kernel found it: build it again
            path = _build_kernel()
            lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError, subprocess.CalledProcessError) as exc:
        reason = getattr(exc, "stderr", None) or exc    # cc's own message
        return f"simulation needs the compiled kernel: {str(reason).strip()}"
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.jumplm_run_paths.argtypes = [ctypes.POINTER(_Job)]
    lib.jumplm_take.argtypes = [ptr, ptr, i64, ptr]
    lib.jumplm_format_block.argtypes = [ptr, ptr, i64, ptr, ptr,
                                        ctypes.c_int]
    lib.jumplm_run_paths.restype = i64
    lib.jumplm_take.restype = None
    lib.jumplm_format_block.restype = None
    _log.debug("simulation kernel: %s", path)
    return lib


def _kernel():
    """The loaded kernel; the first call builds or loads it.  Raises
    KernelUnavailable, with cc's own message, where it cannot be."""
    lib = _load()
    if isinstance(lib, str):
        raise KernelUnavailable(lib)
    return lib


# per path, as array.array columns: its end code ('b'), the event loop's
# last t, x ('d') and jump count ('q'), and its terminal value ('d', NaN
# unless END_HORIZON); for a recorded block, path i's n_i events as (t, xi)
# pairs at events[2 * offsets[i]:2 * offsets[i + 1]] ('d' and 'q'; both
# None unless recorded; n_i is 0 for a path the kernel stopped on an error)
PathEnds = collections.namedtuple("PathEnds",
                                  "end t x n terminal events offsets")


def _zeros(typecode, count):
    """An array.array of count zeros."""
    return array.array(typecode, [0]) * count


def _address(column):
    """Where an array.array's items start (0 if none), or None for None."""
    return None if column is None else column.buffer_info()[0]


def _kernel_run(lib, spec, x0, t_end, config, start, count, lam, delta,
                explosive, record=False, threads=1) -> PathEnds:
    """Paths start .. start+count-1 on the kernel lib, each call on up to
    threads threads.  With record, also every path's events (see
    PathEnds).

    A kernel call returns after about 2^22 events, so Ctrl-C stops a
    long block between calls.  A recording path grows its own event
    buffer in the kernel, so each path runs once; jumplm_take copies the
    (t, xi) pairs into one array once the block is done, and frees the
    buffers however the calls end.
    """
    out = PathEnds(_zeros("b", count), *(_zeros(code, count)
                                         for code in "ddqd"), None, None)
    job = _Job(key0=config.seed % 2 ** 64, start=start, count=count, x0=x0,
               t_end=t_end, lam=lam, delta=delta, cap=config.cap,
               max_events=config.max_events, explosive=explosive,
               threads=threads)
    law = measure.make_jump_sampler(spec, config.eps)
    job.eps, job.inv_pow, job.beta = law.eps, law.inv_pow, law.beta
    if law.inv is not None:     # C-ordered float64, kept alive by the law
        x, c = law.inv.x, law.inv.c
        assert c.flags.c_contiguous and c.shape == (4, x.size - 1)
        job.breaks, job.coefs, job.m = x.ctypes.data, c.ctypes.data, x.size - 1
    job.end, job.t, job.x, job.n, job.terminal = map(_address, out[:5])
    # with record, the address of each path's event buffer, NULL till it runs
    held = _zeros("Q", count) if record else None
    job.events = _address(held)
    events = offsets = None
    try:
        while job.first < count:
            job.first = lib.jumplm_run_paths(job)
        if record:
            # n is -1 where the kernel stopped on an error
            offsets = array.array("q", itertools.accumulate(
                (max(k, 0) for k in out.n), initial=0))
            events = _zeros("d", 2 * offsets[-1])
    finally:
        if record:      # copies the events, once every path ran, and frees
            lib.jumplm_take(_address(held), _address(offsets), count,
                            _address(events))
    return out._replace(events=events, offsets=offsets)


def _fan_out(spec, x0, t_end, config, start, count, lam, delta, explosive,
             record=False, threads=1) -> PathEnds:
    """The ends of paths start .. start+count-1 on the kernel, for an
    engine whose inputs _rates checked.  The lowest-index path that the
    kernel stopped on an error, or a conservative path at max_events,
    raises: MaxEventsExceeded, or the error _STOPS gives for its end code,
    naming the path."""
    out = _kernel_run(_kernel(), spec, x0, t_end, config, start, count, lam,
                      delta, explosive, record, threads)
    # max_events ends an explosive path and stops a conservative one
    last = END_MAX_EVENTS if explosive else END_CAP
    if max(out.end, default=0) > last:
        i, end = next((i, end) for i, end in enumerate(out.end) if end > last)
        if end == END_MAX_EVENTS:
            raise MaxEventsExceeded(
                f"conservative path reached {config.max_events} events")
        error, what = _STOPS[end]
        raise error(f"path {start + i} stopped: {what}")
    return out


def _path(spec, x0, t_end, config, path_index, record, explosive) -> Path:
    """One path of either engine, as a one-path block of the fan-out."""
    lam, delta = _rates(spec, x0, t_end, config.eps, explosive)
    out = _fan_out(spec, x0, t_end, config, path_index, 1, lam, delta,
                   explosive, record)
    events = list(zip(out.events[0::2], out.events[1::2])) if record else []
    exploded = out.end[0] != END_HORIZON
    return Path(x0=x0, events=events, decay_rate=delta, t_end=t_end,
                eps=config.eps, exploded=exploded,
                explosion_time=out.t[0] if exploded else None,
                terminal=None if exploded else out.terminal[0])


def _threads(threads: Optional[int], count: int) -> int:
    """The fan-out's thread count: by default one per CPU this process may
    run on; at most MAX_THREADS and count."""
    if threads is None:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:      # no affinity call on this platform
            threads = os.cpu_count() or 1
    elif threads < 1:
        raise InvalidConfig(f"workers must be >= 1, got {threads}")
    return min(threads, MAX_THREADS, count)


def fan_out(spec: LevyMeasureSpec, x0: float, t_end: float,
            config: EngineConfig, start: int, count: int, explosive: bool,
            threads: Optional[int] = None) -> PathEnds:
    """The ends of conservative (with explosive, explosive) paths
    start .. start+count-1, on up to threads kernel threads: by default
    one per CPU this process may run on, at most MAX_THREADS and count.

    Equal bit for bit, on any number of threads, to simulate_path (or
    simulate_explosive_path) with record=False for each path, and raises
    what that raises on the first path that raises.  end is END_HORIZON,
    END_CAP or END_MAX_EVENTS as the path ended; terminal is NaN for an
    exploded path.
    """
    threads = _threads(threads, count)
    lam, delta = _rates(spec, x0, t_end, config.eps, explosive)
    _log.debug("fan-out: %d %s paths on %d kernel threads", count,
               "explosive" if explosive else "conservative", threads)
    return _fan_out(spec, x0, t_end, config, start, count, lam, delta,
                    explosive, threads=threads)


def simulate_explosive_path(untilted: LevyMeasureSpec, x0: float, t_end: float,
                            config: EngineConfig, path_index: int = 0,
                            record: bool = True) -> Path:
    """Simulate the explosive companion process on [0, t_end].

    Jumps are uncompensated; decay rate is H - m(eps), with H from
    measure.dual_decay, which must stay positive.  Crossing config.cap
    marks the path exploded at the crossing jump (the residual time to the
    true explosion is negligible at any reasonable cap, and treating it as
    zero biases survival estimates downward).  Exhausting max_events also
    marks the path exploded.
    """
    return _path(untilted, x0, t_end, config, path_index, record,
                 explosive=True)


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


def _format_block(events, offsets, threads=1) -> List[Optional[bytes]]:
    """The rows "%.17g,%.17g\\n" % event of each path of a recorded block
    (see PathEnds), formatted by the kernel on up to threads threads, as
    ASCII; None for a path whose values the kernel's formatter does not
    reach."""
    lib = _kernel()
    count = len(offsets) - 1
    text = bytearray(48 * offsets[-1])
    lengths = _zeros("q", count)
    lib.jumplm_format_block(_address(events), _address(offsets), count,
                            (ctypes.c_char * len(text)).from_buffer(text),
                            _address(lengths), threads)
    text = memoryview(text)
    return [None if k < 0 else bytes(text[48 * at:48 * at + k])
            for at, k in zip(offsets, lengths)]


def _python_rows(events) -> str:
    """The rows of (t, xi) pairs as Python's % formats them."""
    return "".join(["%.17g,%.17g\n" % ev for ev in events])


def _csv_head(x0, decay_rate, eps, exploded, t_end, explosion_time) -> str:
    """A path's CSV header: its fields, then the column names."""
    head = (f"# x0={x0:.17g}\n"
            f"# decay_rate={decay_rate:.17g}\n"
            f"# eps={eps:.17g}\n"
            f"# exploded={str(exploded).lower()}\n"
            f"# t_end={t_end:.17g}\n")
    if exploded and explosion_time is not None:
        head += f"# explosion_time={explosion_time:.17g}\n"
    return head + "time,size\n"


def export_path_csv(path: Path, stream) -> None:
    """Write one path in the interchange format, commented header and
    events, in one write."""
    stream.write(_csv_head(path.x0, path.decay_rate, path.eps, path.exploded,
                           path.t_end, path.explosion_time)
                 + _python_rows(path.events))


def block_csvs(spec: LevyMeasureSpec, x0: float, t_end: float,
               config: EngineConfig, start: int, count: int,
               explosive: bool,
               threads: Optional[int] = None) -> List[bytes]:
    """The CSVs export_path_csv writes for simulate_explosive_path (or,
    without explosive, simulate_path) of paths start .. start+count-1, as
    ASCII bytes.

    The block is simulated, recorded and formatted by the kernel on up to
    threads threads (_threads), with the same bytes; rows the kernel's
    formatter does not reach are formatted by Python.  Raises what the
    first path to raise raises, before any CSV is made.
    """
    threads = _threads(threads, count)
    lam, delta = _rates(spec, x0, t_end, config.eps, explosive)
    out = _fan_out(spec, x0, t_end, config, start, count, lam, delta,
                   explosive, record=True, threads=threads)
    at = out.offsets
    csvs = []
    for i, (rows, end, t) in enumerate(zip(
            _format_block(out.events, at, threads), out.end, out.t)):
        if rows is None:
            path = out.events[2 * at[i]:2 * at[i + 1]]
            rows = _python_rows(zip(path[0::2], path[1::2])).encode("ascii")
        exploded = end != END_HORIZON
        csvs.append(_csv_head(x0, delta, config.eps, exploded, t_end,
                              t if exploded else None).encode("ascii") + rows)
    return csvs
