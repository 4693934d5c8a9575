"""The reference event loop, in Python: the oracle the kernel is checked
against.

_kernel.c runs every path of jumplm's simulation.  This is the scalar
loop it repeats operation for operation, with Python's math functions in
place of libm's and the samplers' own sample methods in place of the
kernel's, so every bit-identity test compares the kernel's paths with
_run_engine's, and fan_out here is what simulate.fan_out gives, path by
path, from it.  Where the kernel stops a path on an error, _run_engine
raises Python's own: ValueError for a log of a non-positive number,
OverflowError for an exp past the float range, ZeroDivisionError for a
division by zero.

It also keeps riccati's exponent fit as it was written with numpy:
riccati._fit_exponent repeats it in plain Python, and must return its
bits.
"""

import array
import itertools
import math
from typing import List, Tuple

from jumplm import measure, simulate
from jumplm.errors import MaxEventsExceeded, QuadratureFailure


def _uniforms(seed: int, index: int):
    """next() over one path's uniforms: Philox(key=[seed, index]), drawn
    256 at a time first and 1024 at a time after that."""
    import numpy as np
    # a uint64 key array: numpy reads a list holding an int >= 2**63 as
    # floats
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed % 2 ** 64, index], dtype=np.uint64)))
    sizes = itertools.chain([256], itertools.repeat(1024))
    return itertools.chain.from_iterable(
        gen.random(k).tolist() for k in sizes).__next__


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



def fan_out(spec, x0, t_end, config, start, count, explosive):
    """What simulate.fan_out gives for paths start .. start+count-1, as
    _run_engine runs them one by one; raises what the first path to raise
    raises."""
    lam, delta = simulate._rates(spec, x0, t_end, config.eps, explosive)
    out = simulate.PathEnds(*map(array.array, "bddqd"), None, None)
    for i in range(start, start + count):
        _, t, x, n, exploded, _ = _run_engine(spec, x0, t_end, config, i,
                                              False, lam, delta, explosive)
        out.end.append(simulate.END_HORIZON if not exploded
                       else simulate.END_CAP
                       if x > config.cap or not math.isfinite(x)
                       else simulate.END_MAX_EVENTS)
        out.t.append(t)
        out.x.append(x)
        out.n.append(n)
        out.terminal.append(math.nan if exploded
                            else x * math.exp(-delta * (t_end - t)))
    return out


def _fit_exponent(r):
    """Log-log fit of |R(1-z)| ~ C * z^p on z in [1e-6, 1e-2].

    Returns (p, stderr).  Raises QuadratureFailure where R(1-z) does not
    come out negative, as a validated measure's R is: the quadrature R
    has cancelled, as near alpha = 2, where b grows like Gamma(2 - alpha).
    """
    import numpy as np
    zs = np.geomspace(1e-6, 1e-2, 9)
    vals = np.array([-r(1.0 - z) for z in zs])
    if np.any(vals <= 0):
        raise QuadratureFailure("R(1-z) is not negative near 1 to rounding")
    x = np.log(zs)
    y = np.log(vals)
    n = len(x)
    xb, yb = x.mean(), y.mean()
    sxx = np.sum((x - xb) ** 2)
    p = float(np.sum((x - xb) * (y - yb)) / sxx)
    resid = y - (p * x + (yb - p * xb))
    stderr = float(math.sqrt(np.sum(resid ** 2) / max(n - 2, 1) / sxx))
    return p, stderr
