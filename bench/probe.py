"""Time one cold set-up in a fresh process and print it as JSON.

    python3 bench/probe.py <src-dir> <workload> <spec.json>

Set-up is `import jumplm.cli`, loading the spec file, validation and the
per-(spec, eps) caches the workload fills (see workloads.warm).  run.py
starts this several times, one process after another, and reports the
median; a fresh process is the only way to time the import and to miss
every lru cache.
"""

import json
import sys
import time


def main(argv):
    src, name, spec_path = argv
    import workloads  # stdlib only, so it does not disturb the timing

    wl = workloads.WORKLOADS[name]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import jumplm.cli  # noqa: F401  (the import is what is being timed)
    from jumplm import measure, riccati
    t1 = time.perf_counter()
    spec = measure.spec_from_json(spec_path)
    workloads.warm(wl, spec, measure, riccati)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


if __name__ == "__main__":
    main(sys.argv[1:])
