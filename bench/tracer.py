"""In-memory span tracer that wraps jumplm's public module attributes.

Each traced name is replaced on its module by a wrapper that records a
span (name, parent span, start, end).  Module globals are module
attributes, so calls made inside a module (riccati.expected_value ->
riccati.solve, montecarlo -> simulate.simulate_path) are caught as well.
Nothing inside jumplm changes; leaving installed() restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import time

# layer -> public attributes the other layers call through
TRACED = {
    "riccati": ("classify", "minimal_solution", "solve", "expected_value"),
    "measure": ("validate", "r_function", "tail_intensity", "make_jump_sampler"),
    "simulate": ("simulate_path", "simulate_explosive_path", "export_path_csv"),
    "montecarlo": ("estimate_mgf", "estimate_mean", "estimate_survival"),
}
LAYERS = ("cli", "montecarlo", "riccati", "measure", "simulate")

# counts read off a span's return value, where the work happens
_NOTES = {"riccati.solve": lambda sol: sol.steps_taken}


class Tracer:
    def __init__(self, modules):
        self._modules = modules      # layer name -> imported jumplm module
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.notes = {}              # span index -> count from _NOTES
        self._stack = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around a call made from the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.notes[idx] = note(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED attribute for the duration of the block."""
        saved = []
        try:
            for layer, attrs in TRACED.items():
                mod = self._modules[layer]
                for attr in attrs:
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(f"{layer}.{attr}", fn))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    # -- analysis -----------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        """Each span's duration minus the part its direct children cover."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self):
        """Count, total and self time (ns) per span name."""
        out = {}
        for name, d, own in zip(self.names, self.durations(), self.self_times()):
            row = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            row["count"] += 1
            row["total_ns"] += d
            row["self_ns"] += own
        return out

    def dump(self):
        """Spans as plain JSON: a name table and [name, parent, start, dur]."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0
        return {"names": table,
                "fields": ["name", "parent", "start_ns", "dur_ns"],
                "spans": [[code[n], p, s - t0, e - s] for n, p, s, e in
                          zip(self.names, self.parents, self.starts, self.ends)],
                "notes": {str(k): v for k, v in self.notes.items()}}
