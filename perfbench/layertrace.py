"""Outside-in layer tracing for the benchmark.

The program is not changed: each layer's public function is replaced, at
the module attribute through which ``jpegns.embedder`` looks it up, by a
wrapper that records a span (name, parent, start, end and a few computed
counts).  Spans stay in memory and are written out when the run ends.

A function that a later refactor renamed or removed is reported as absent
and its metrics read 0 calls; the run goes on.
"""

import functools
import importlib
import os
import time
import types


def _cholesky_work(args, kwargs, result):
    n = args[0].shape[0]
    return {"gflop": n**3 / 3e9}


def _gain_solve_work(args, kwargs, result):
    a, b = args[0], args[1]
    rhs = b.shape[1] if b.ndim == 2 else 1
    return {"gflop": a.shape[0] ** 2 * rhs / 1e9}


def _written_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _report_counts(args, kwargs, result):
    report = result.report
    return {"dead_blocks": report.zero_variance_blocks,
            "failed_blocks": len(report.failed_blocks),
            "jitter_blocks": len(report.jitter_events)}


# (module, attribute path inside it, span name, counts taken from the call).
# Operation counts are computed from the matrix sizes at the call.
LAYERS = (
    ("jpegns.covariance", "cholesky", "covariance.cholesky", _cholesky_work),
    ("jpegns.embedder", "sla.solve_triangular", "embedder.gain_solve",
     _gain_solve_work),
    ("jpegns.embedder", "SimulatedEmbedder.run", "embedder.run",
     _report_counts),
    ("jpegns.embedder", "write_costs", "embedder.write_costs", _written_bytes),
    ("jpegns.sampler", "run_block_chain", "sampler.run_block_chain", None),
    ("jpegns.rng", "block_stream", "rng.block_stream", None),
    ("jpegns.lattice", "neighborhood", "lattice.neighborhood", None),
    ("jpegns.lattice", "tile", "lattice.tile", None),
    ("jpegns.jpeg_model", "develop_cover", "jpeg_model.develop_cover", None),
    ("jpegns.pipeline", "block_support_tensor",
     "pipeline.block_support_tensor", None),
    ("jpegns.covariance", "photon_variance", "covariance.photon_variance",
     None),
)


# Span of the timed library call itself.
ROOT = "call"


class _ModuleProxy:
    """Stands in for a shared module (``scipy.linalg``) in one caller's
    namespace, so a wrapped attribute does not reach its other users."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)


class Tracer:
    """Records spans around the wrapped layer functions while installed.

    A span is ``[name, parent index, start, end, counts]``; times come from
    ``time.perf_counter``.
    """

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans = []
        self.absent = []
        self._stack = []
        self._patches = []

    def install(self):
        self.absent = []
        for module_name, path, name, measure in self.layers:
            try:
                owner = importlib.import_module(module_name)
                *hops, attr = path.split(".")
                for hop in hops:
                    child = getattr(owner, hop)
                    if isinstance(child, types.ModuleType):
                        proxy = _ModuleProxy(child)
                        self._patch(owner, hop, proxy)
                        child = proxy
                    owner = child
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._patch(owner, attr, self._wrap(name, original, measure))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _open(self, name):
        span = [name, self._stack[-1] if self._stack else None,
                time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if measure is not None:
                span[4] = measure(args, kwargs, result)
            return result

        return traced

    def root(self, fn, *args):
        """Call ``fn`` inside a ROOT span with the layer wrappers installed."""
        self.install()
        try:
            span = self._open(ROOT)
            try:
                return fn(*args)
            finally:
                self._close(span)
        finally:
            self.uninstall()


def layer_totals(spans):
    """Per span name: calls, busy seconds, self seconds and summed counts.

    Self time is a span's duration minus its child spans.  Children of one
    span run one after another on the same thread, so the sum of their
    durations is the part of the parent's interval they cover.
    """
    child_s = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    totals = {}
    for i, (name, _, start, end, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += end - start
        t["self_s"] += end - start - child_s[i]
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


def merge_totals(parts):
    merged = {}
    for totals in parts:
        for name, t in totals.items():
            m = merged.setdefault(name, {})
            for key, value in t.items():
                m[key] = m.get(key, 0) + value
    return merged


def layer_metrics(totals, calls):
    """Per-layer metrics, each a mean per traced call unless it is a rate."""

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    def per_call(name, key):
        return total(name, key) / calls

    def rate(num, den):
        return num / den if den else 0.0

    chol = "covariance.cholesky"
    chain = "sampler.run_block_chain"
    run = "embedder.run"
    metrics = {
        f"{chol}.busy_s": per_call(chol, "busy_s"),
        f"{chol}.calls": per_call(chol, "calls"),
        f"{chol}.gflop": per_call(chol, "gflop"),
        f"{chol}.gflop_per_s": rate(total(chol, "gflop"),
                                    total(chol, "busy_s")),
        "covariance.jitter_blocks": per_call(run, "jitter_blocks"),
        "covariance.jitter_ratio": rate(total(run, "jitter_blocks"),
                                        total(chol, "calls")),
        "embedder.gain_solve.busy_s": per_call("embedder.gain_solve",
                                               "busy_s"),
        "embedder.gain_solve.calls": per_call("embedder.gain_solve", "calls"),
        "embedder.gain_solve.gflop": per_call("embedder.gain_solve", "gflop"),
        # The timed call and SimulatedEmbedder.run minus every layer below
        # them: covariance assembly (private, so not wrapped) and glue.
        "embedder.self_s": per_call(ROOT, "self_s") + per_call(run, "self_s"),
        "embedder.dead_blocks": per_call(run, "dead_blocks"),
        "embedder.failed_blocks": per_call(run, "failed_blocks"),
        "embedder.write_costs.busy_s": per_call("embedder.write_costs",
                                                "busy_s"),
        "embedder.write_costs.bytes": per_call("embedder.write_costs",
                                               "bytes"),
        f"{chain}.busy_s": per_call(chain, "busy_s"),
        f"{chain}.calls": per_call(chain, "calls"),
        "sampler.coeffs_per_s": rate(64 * total(chain, "calls"),
                                     total(chain, "busy_s")),
    }
    for name in ("rng.block_stream", "lattice.neighborhood"):
        metrics[f"{name}.busy_s"] = per_call(name, "busy_s")
        metrics[f"{name}.calls"] = per_call(name, "calls")
    for name in ("lattice.tile", "jpeg_model.develop_cover",
                 "pipeline.block_support_tensor",
                 "covariance.photon_variance"):
        metrics[f"{name}.busy_s"] = per_call(name, "busy_s")
    return metrics
