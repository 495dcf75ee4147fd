"""One benchmark process: set up, run the timed calls, print one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED SIZE SECONDS TRACE OUT_DIR FIRST_CALL

Set-up time runs from the top of this file, before ``jpegns`` is
imported, to the end of the workload's set-up; input synthesis and the
reference the checks use are subtracted.  ``run.py`` starts several of
these in turn and reduces their results.
"""

import time

_STARTED = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


REFERENCE_EVERY_S = 1.0


class SpeedReference:
    """A fixed kernel in two parts, independent of jpegns, timed between
    calls: LAPACK Cholesky on matrices of the joint-covariance sizes, and
    scalar Python math as in the sampling chain.  ``run.py`` scales times
    by it (see there).
    """

    def __init__(self):
        import numpy as np

        gen = np.random.default_rng(0)
        self.mats = []
        for n in (64, 128, 256, 320, 576):
            a = gen.standard_normal((n, n))
            self.mats.append(a @ a.T + n * np.eye(n))
        self.samples = []
        self._last = -math.inf

    def sample(self, force=False):
        """Time the kernel when REFERENCE_EVERY_S passed since the last time."""
        import numpy as np

        if not force and time.perf_counter() - self._last < REFERENCE_EVERY_S:
            return
        t0 = time.perf_counter()
        for _ in range(4):
            for a in self.mats:
                np.linalg.cholesky(a)
        t1 = time.perf_counter()
        x = 0.0
        for i in range(100000):
            x += math.erf(i * 1e-5) * math.log2(i + 1.0)
        self._last = time.perf_counter()
        self.samples.append((t1 - t0, self._last - t1))


def timed_call(wl, i, tracer=None):
    """Run call ``i``; return (seconds, output or None, problems)."""
    t0 = time.perf_counter()
    try:
        out = (wl.call(i) if tracer is None
               else tracer.root(wl.call, i))
        seconds = time.perf_counter() - t0
        return seconds, out, wl.check(out)
    except Exception as exc:  # a failing call is counted, not fatal
        traceback.print_exc()
        return (time.perf_counter() - t0, None,
                [f"call {i} raised {type(exc).__name__}: {exc}"])


def measure(wl, seconds, trace, first_call=0):
    """Timed calls for ``seconds`` (at least one), with speed samples.

    With ``trace`` every call runs twice with the same key, untraced then
    traced, and the two outputs must be bit-identical.
    """
    import layertrace

    tracer = layertrace.Tracer() if trace else None
    speed = SpeedReference()
    speed.sample(force=True)
    times = {"untraced_s": [], "traced_s": []}
    attempted = failed = 0
    problems = []

    def count(secs, bucket, found):
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)
            secs = float("inf")  # a failed call misses any latency limit
        times[bucket].append(secs)

    start = time.perf_counter()
    i = first_call
    while i == first_call or time.perf_counter() - start < seconds:
        speed.sample()
        secs, out, found = timed_call(wl, i)
        count(secs, "untraced_s", found)
        if trace:
            t_secs, t_out, t_found = timed_call(wl, i, tracer)
            if out is not None and t_out is not None and (
                    wl.fingerprint(out) != wl.fingerprint(t_out)):
                t_found = t_found + ["traced output differs from untraced"]
            count(t_secs, "traced_s", t_found)
        i += 1
    speed.sample(force=True)
    result = {**times, "reference_s": speed.samples,
              "python_share": wl.python_share, "attempted": attempted,
              "failed": failed, "problems": problems[:5]}
    if trace:
        result["totals"] = layertrace.layer_totals(tracer.spans)
        result["absent"] = tracer.absent
        result["spans"] = tracer.spans
    return result


def _openblas_threads():
    """Thread count of each loaded OpenBLAS, by library file name."""
    threads = {}
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return threads
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(lib)] = fn()
                break
    return threads


def environment(wl):
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
            "blas_threads": _openblas_threads(),
            "input": wl.describe()}


def main(argv):
    name, seed, size, seconds, trace, out_dir, first_call = argv
    import jpegns  # noqa: F401  (import time is part of set-up)
    import workloads

    wl = workloads.WORKLOADS[name](int(seed), int(size), out_dir)
    t0 = time.perf_counter()
    wl.prepare()
    excluded = time.perf_counter() - t0
    wl.setup()
    setup_s = time.perf_counter() - _STARTED - excluded

    try:
        result = measure(wl, float(seconds), trace == "1", int(first_call))
    finally:
        wl.close()
    spans = result.pop("spans", None)
    if spans is not None:
        path = os.path.join(out_dir, f"spans-{name}-{first_call}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "counts"],
                       "spans": spans}, fh)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["env"] = environment(wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
