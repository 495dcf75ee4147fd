"""Benchmark workloads: seeded inputs, the timed library call, output checks.

Every workload uses the paper's sensor pair (gain 1.15, offset -1150),
QF 95, K 5 and one worker.  ``run.py`` uses 128x128 images (256 blocks):
per-block work does not depend on image size, so this keeps the layer mix
of larger images while a run still holds about ten of the slowest calls.

Timed call ``i`` of a run with seed ``s`` uses the key ``(s << 20) | i``;
the iid images are synthesized from ``s`` as well.
"""

import os

import numpy as np

import jpegns
from jpegns.embedder import read_costs

SENSOR = {"a1": 0.0, "b1": 0.0, "a2": 1.15, "b2": -1150.0}
QF = 95
K = 5


class Workload:
    """One set of inputs and the library call the benchmark times on them.

    ``prepare`` builds the inputs and the reference the checks compare
    against (not part of set-up time); ``setup`` is the user-visible
    set-up that precedes the first call; ``call`` is the timed call.
    """

    name = ""
    # Share of a call spent in interpreted Python (the sampling chain, block
    # streams, glue) rather than in LAPACK, from a traced run made when the
    # benchmark was added; it weights the two parts of the speed reference in run.py.
    python_share = 0.25

    def __init__(self, seed, size, out_dir):
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.params = jpegns.SensorParams(**SENSOR)

    def key(self, i):
        return (self.seed << 20) | i

    def config(self, key):
        return jpegns.EmbedConfig(qf=QF, K=K, key=key, workers=1)

    def describe(self):
        return {"workload": self.name, "seed": self.seed, "width": self.size,
                "height": self.size, "sensor": SENSOR, "qf": QF, "K": K,
                "workers": 1, "key": "(seed << 20) | call index"}

    def prepare(self):
        raise NotImplementedError

    def setup(self):
        # The first construction fills the pipeline's operator caches.
        jpegns.SimulatedEmbedder(self.raw, self.config(0))

    def call(self, i):
        raise NotImplementedError

    def check(self, out):
        """List of problems with a call's output; empty when it is correct."""
        raise NotImplementedError

    def fingerprint(self, out):
        """Bytes that two bit-identical outputs share."""
        raise NotImplementedError

    def close(self):
        """Remove the files the calls wrote."""


class _IidEmbed(Workload):
    def describe(self):
        return {**super().describe(), "input": "iid_gaussian", "mu": 2000.0,
                "sigma": 100.0, "synth_seed": self.seed}

    def prepare(self):
        spec = jpegns.SynthSpec("iid_gaussian", mu=2000.0, sigma=100.0,
                                width=self.size, height=self.size,
                                seed=self.seed)
        self.raw = jpegns.synthesize_raw(spec, self.params)
        self.cover = jpegns.develop_cover(self.raw, QF)[1]

    def check(self, out):
        return check_embed(out[0], out[1], self.cover, K)

    def fingerprint(self, out):
        stego, report = out
        payload = report.to_json_dict()
        payload.pop("runtime_s")
        return (stego.coeffs.tobytes() + report.entropy_plane.tobytes()
                + repr(payload).encode())


class IidEmbed(_IidEmbed):
    """Full ``embed_simulated``: every block live, factored without jitter."""

    name = "iid128-embed"

    def call(self, i):
        return jpegns.embed_simulated(self.raw, self.config(self.key(i)))


class IidRekey(_IidEmbed):
    """``SimulatedEmbedder.run`` with cached factors and a fresh key."""

    name = "iid128-rekey"
    python_share = 0.95

    def setup(self):
        # Set-up includes the first run, which fills the factor cache.
        self.embedder = jpegns.SimulatedEmbedder(
            self.raw, self.config(4), cache_factors=True)
        self.embedder.run()

    def call(self, i):
        result = self.embedder.run(key=self.key(i))
        return result.stego, result.report


class RampCosts(Workload):
    """``export_costs`` on a ramp across the variance clamp: dead blocks,
    jitter retries, PMF collection and the cost-file write."""

    name = "ramp128-costs"
    python_share = 0.3

    def describe(self):
        return {**super().describe(), "input": "horizontal ramp",
                "from": 600.0, "to": 1600.0}

    def prepare(self):
        row = np.linspace(600.0, 1600.0, self.size)
        self.raw = jpegns.RawImage(
            data=np.tile(row, (self.size, 1)), cfa="RGGB", bit_depth=12,
            params=self.params)
        self.path = os.path.join(self.out_dir, f"costs-{os.getpid()}.bin")

    def close(self):
        if os.path.exists(self.path):
            os.remove(self.path)

    def call(self, i):
        return jpegns.export_costs(self.raw, self.config(self.key(i)),
                                   self.path)

    def check(self, plane):
        return check_costs(plane, self.path, self.size // 8, K)

    def fingerprint(self, plane):
        return plane.costs.tobytes() + plane.pi_zero.tobytes()


WORKLOADS = {w.name: w for w in (IidEmbed, RampCosts, IidRekey)}


def check_embed(stego, report, cover, k_range):
    """Output checks of one embed: stego shape and changes, report sanity."""
    problems = []
    blocks = cover.coeffs.shape[:2]
    if stego.coeffs.shape != cover.coeffs.shape:
        problems.append(f"stego blocks {stego.coeffs.shape[:2]} != {blocks}")
        return problems
    change = np.abs(stego.coeffs.astype(np.int64) - cover.coeffs)
    if change.max() > k_range:
        problems.append(f"change of {change.max()} exceeds K = {k_range}")
    if int(np.sum(report.lattice_blocks)) != blocks[0] * blocks[1]:
        problems.append("lattice_blocks does not sum to the block count")
    ent = report.entropy_plane
    if ent.shape != (8 * blocks[0], 8 * blocks[1]):
        problems.append(f"entropy plane shape {ent.shape}")
    elif not np.all(np.isfinite(ent)) or ent.min() < 0.0:
        problems.append("entropy plane not finite and >= 0")
    return problems


def check_costs(plane, path, blocks, k_range):
    """Output checks of one cost export, including the file round trip."""
    problems = []
    shape = (blocks, blocks, 64, 2 * k_range + 1)
    if plane.costs.shape != shape or plane.pi_zero.shape != shape[:3]:
        return [f"cost plane shape {plane.costs.shape} != {shape}"]
    pi0 = plane.pi_zero
    if np.any(np.isnan(plane.costs)) or not np.all((pi0 >= 0) & (pi0 <= 1)):
        problems.append("NaN cost or pi(0) outside [0, 1]")
    # pi(k) = pi(0) exp(-cost(k)) must sum to one on every live coefficient;
    # a dead block has no mass and only +inf costs.
    live = pi0 > 0
    with np.errstate(invalid="ignore"):
        mass = (pi0[..., np.newaxis] * np.exp(-plane.costs)).sum(axis=-1)
    if not np.allclose(mass[live], 1.0, rtol=0.0, atol=1e-9):
        problems.append("change PMF does not sum to one")
    if not np.all(np.isposinf(plane.costs[~live])):
        problems.append("zero-mass coefficient with a finite cost")
    back = read_costs(path)
    if (back.qf, back.K) != (plane.qf, plane.K) or not (
            np.array_equal(back.costs, plane.costs)
            and np.array_equal(back.pi_zero, plane.pi_zero)):
        problems.append("read_costs does not round-trip the written file")
    return problems
