"""End-to-end simulated embedding, capacity reporting and cost export.

Embedding walks the four macro-lattices in order.  For every block it
assembles the joint DCT covariance of the block and its not-yet-used
neighbors directly from the per-block pipeline weight tensor and the
photo-site variance map, conditions on the continuous stego values already
drawn for neighboring blocks (``condition``: the Schur complement read off
one Cholesky factor), and runs the 64-coefficient sampling chain.  Stego
coefficients are the cover coefficients plus the sampled changes.

Everything is a pure function of (raw image, config): per-block random
streams are derived from the secret key, the lattice index and the block
coordinates, so results are bit-identical for any worker count.
"""

import contextlib
import functools
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import covariance as cov_mod
from . import jpeg_model, lattice, pipeline, rng, sampler
from .raw_io import DimensionError, RawImage

log = logging.getLogger(__name__)

_COSTS_MAGIC = b"JCST"


class ConfigError(ValueError):
    """Invalid embedding parameters."""


def _check_key(key):
    """``key`` if it is an int (not a bool) in 0..2**64-1, else ConfigError."""
    if (not isinstance(key, int) or isinstance(key, bool)
            or not 0 <= key < 1 << 64):
        raise ConfigError(f"key must be an integer in 0..2**64-1, got {key!r}")
    return key


@dataclass(frozen=True)
class EmbedConfig:
    """Embedding parameters; ``key`` seeds all per-block random streams."""

    qf: int
    K: int = 5
    key: int = 0
    green_kernel: str = "cross"
    workers: int = 1

    def __post_init__(self):
        for name in ("qf", "K", "workers"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        _check_key(self.key)
        if self.K < 1:
            raise ConfigError("alphabet half-width K must be >= 1")
        if not (1 <= self.qf <= 100):
            raise ConfigError("quality factor must be in 1..100")
        if self.green_kernel not in ("cross", "corner"):
            raise ConfigError(f"unknown green kernel {self.green_kernel!r}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass
class CapacityReport:
    """Per-coefficient entropy plane plus aggregate capacity statistics."""

    entropy_plane: np.ndarray
    nzac: int
    per_lattice_mode: np.ndarray  # (4, 64) mean bits per coefficient
    lattice_blocks: np.ndarray  # number of blocks per lattice
    jitter_events: list = field(default_factory=list)
    failed_blocks: list = field(default_factory=list)
    zero_variance_blocks: int = 0
    runtime_s: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def total_bits(self):
        return float(self.entropy_plane.sum())

    @property
    def bits_per_pixel(self):
        return self.total_bits / self.entropy_plane.size

    @property
    def bits_per_nzac(self):
        if self.total_bits == 0.0:
            return 0.0
        return self.total_bits / self.nzac if self.nzac else float("inf")

    @property
    def per_lattice_mean(self):
        """Mean bits per coefficient for each macro-lattice."""
        return self.per_lattice_mode.mean(axis=1)

    def to_json_dict(self):
        per_nzac = self.bits_per_nzac
        return {
            "totals": {
                "H_bits": self.total_bits,
                "H_bits_per_pixel": self.bits_per_pixel,
                # None when the cover has no nonzero AC coefficients at all.
                "H_bits_per_nzAC": per_nzac if math.isfinite(per_nzac) else None,
                "nzAC": self.nzac,
            },
            "per_lattice_mean_bits": self.per_lattice_mean.tolist(),
            "per_lattice_mode_bits": self.per_lattice_mode.tolist(),
            "lattice_blocks": self.lattice_blocks.tolist(),
            "jitter_events": self.jitter_events,
            "failed_blocks": self.failed_blocks,
            "zero_variance_blocks": self.zero_variance_blocks,
            "runtime_s": self.runtime_s,
            "config": self.config,
        }


@dataclass
class EmbedResult:
    stego: jpeg_model.JpegCoefficients
    report: CapacityReport
    continuous: np.ndarray  # (H, W) continuous stego DCT candidates
    probs: np.ndarray = None  # (bh, bw, 64, 2K+1) folded PMFs, if collected


def condition(joint, n_known, context=""):
    """Conditional law of the last 64 coordinates given the first ``n_known``.

    ``joint`` is the joint covariance with the known blocks first and the
    center block last.  Its Cholesky factor splits as [[L_k, 0], [C, L_c]]:
    L_c is exactly the Cholesky factor of the Schur-complement conditional
    covariance, and the conditional mean gain S12 S22^-1 is C L_k^-1 (one
    triangular solve).  No matrix is ever inverted explicitly.

    Returns (gain, chol, jitter): the conditional mean is ``gain @ known``
    (``gain`` is None when nothing is known), ``chol`` factors the
    conditional covariance and ``jitter`` is the shift the factorization
    needed.
    """
    joint = np.asarray(joint, dtype=np.float64)
    m = n_known
    if m < 0 or m % 64 or joint.shape != (m + 64, m + 64):
        raise cov_mod.CovarianceError(
            f"joint covariance of shape {joint.shape} does not hold "
            f"{n_known} known coordinates and one block of 64")
    chol_joint, jitter = cov_mod.cholesky(joint, context=context)
    chol = np.ascontiguousarray(chol_joint[m:, m:])
    if m:
        gain = sla.solve_triangular(
            chol_joint[:m, :m].T, chol_joint[m:, :m].T,
            lower=False, check_finite=False).T
    else:
        gain = None
    return gain, chol, jitter


@dataclass(frozen=True)
class _BlockFactors:
    """Draw-independent conditioning factors of one block.

    ``mean_gain`` maps the concatenated neighbor samples to the conditional
    mean; ``chol`` is the Cholesky factor of the conditional covariance.
    """

    neighbors: tuple
    mean_gain: np.ndarray
    chol: np.ndarray
    jitter: float
    dead: bool
    failed: bool


class SimulatedEmbedder:
    """Reusable embedding engine for one RAW image.

    Precomputes the cover, the photo-site variance map and the pipeline
    weight tensor once; ``run`` then produces a stego plane for any key.
    ``cache_factors`` additionally keeps each block's Schur/Cholesky
    factors across runs, which pays off when embedding the same image many
    times (the factors do not depend on the drawn samples).
    """

    def __init__(self, raw, cfg, cache_factors=False):
        if raw.height % 8 or raw.width % 8:
            raise DimensionError("image dimensions must be multiples of 8")
        self.raw = raw
        self.cfg = cfg
        self.blocks_h = raw.height // 8
        self.blocks_w = raw.width // 8
        self.table = jpeg_model.quant_table(cfg.qf)
        self.q_flat = self.table.flat.astype(np.float64)
        _, self.cover = jpeg_model.develop_cover(raw, cfg.qf, cfg.green_kernel)
        var = cov_mod.photon_variance(raw.data, raw.params)
        self.var_pad = np.pad(var, 1, mode="edge")
        self.weights = pipeline.block_support_tensor(raw.cfa, cfg.green_kernel)
        self.weight_sq = np.sum(self.weights**2, axis=0)  # (10, 10)
        # Contiguous weight slices per relative block offset, so cross
        # covariances reduce to one scaled matmul over the support overlap.
        self._overlap = {}
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                u0, u1 = max(-1, 8 * di - 1), min(8, 8 * di + 8)
                v0, v1 = max(-1, 8 * dj - 1), min(8, 8 * dj + 8)
                wa = np.ascontiguousarray(
                    self.weights[:, u0 + 1 : u1 + 2, v0 + 1 : v1 + 2]
                    .reshape(64, -1))
                wb = np.ascontiguousarray(
                    self.weights[:, u0 - 8 * di + 1 : u1 - 8 * di + 2,
                                 v0 - 8 * dj + 1 : v1 - 8 * dj + 2]
                    .reshape(64, -1).T)
                self._overlap[(di, dj)] = (u0, u1, v0, v1, wa, wb)
        self.assign = lattice.tile(self.blocks_w, self.blocks_h)
        self._factor_cache = {} if cache_factors else None

    # -- covariance assembly ------------------------------------------------

    def _var_window(self, bi, bj, u0, u1, v0, v1):
        """Variance values on support offsets [u0, u1] x [v0, v1] of a block."""
        r0, c0 = 8 * bi, 8 * bj
        return self.var_pad[r0 + u0 + 1 : r0 + u1 + 2, c0 + v0 + 1 : c0 + v1 + 2]

    def _support_trace(self, bi, bj):
        """Trace of the block's own 64x64 covariance (cheap dead-block test)."""
        win = self._var_window(bi, bj, -1, 8, -1, 8)
        return float(np.sum(self.weight_sq * win))

    def _cross_cov(self, block_a, block_b):
        """64x64 covariance between two blocks at most one block apart."""
        (ra, ca), (rb, cb) = block_a, block_b
        u0, u1, v0, v1, wa, wb = self._overlap[(rb - ra, cb - ca)]
        var = self._var_window(ra, ca, u0, u1, v0, v1).reshape(-1)
        return (wa * var) @ wb

    def joint_covariance(self, blocks):
        """Joint covariance over ``blocks`` (64 coefficients each), symmetric."""
        n = len(blocks)
        joint = np.zeros((64 * n, 64 * n))
        for i, (ri, ci) in enumerate(blocks):
            for j in range(i, n):
                rj, cj = blocks[j]
                # Blocks that are not 8-connected share no photo-site
                # support, so their cross-covariance is exactly zero.
                if max(abs(rj - ri), abs(cj - ci)) > 1:
                    continue
                sub = self._cross_cov(blocks[i], blocks[j])
                if i == j:
                    sub = (sub + sub.T) / 2.0
                joint[i * 64 : (i + 1) * 64, j * 64 : (j + 1) * 64] = sub
                if i != j:
                    joint[j * 64 : (j + 1) * 64, i * 64 : (i + 1) * 64] = sub.T
        return joint

    # -- factors -------------------------------------------------------------

    def _block_factors(self, bi, bj):
        if self._factor_cache is not None and (bi, bj) in self._factor_cache:
            return self._factor_cache[(bi, bj)]
        nb = lattice.neighborhood(self.assign, (bi, bj))
        if self._support_trace(bi, bj) == 0.0:
            factors = _BlockFactors((), None, None, 0.0, True, False)
        else:
            # Neighbors whose whole stego signal is identically zero carry
            # no information and only make the conditioning singular.
            neighbors = tuple(blk for blk in nb.neighbors
                              if self._support_trace(*blk) > 0.0)
            try:
                gain, chol, jitter = condition(
                    self.joint_covariance(neighbors + (nb.center,)),
                    64 * len(neighbors),
                    context=f"lattice {nb.lattice} block {nb.center}")
            except cov_mod.SingularCovarianceError:
                log.warning("block (%d,%d) singular after max jitter; "
                            "embedding skipped", bi, bj)
                factors = _BlockFactors((), None, None, 0.0, False, True)
            else:
                factors = _BlockFactors(neighbors, gain, chol, jitter,
                                        False, False)
        if self._factor_cache is not None:
            self._factor_cache[(bi, bj)] = factors
        return factors

    # -- embedding -----------------------------------------------------------

    def _visit(self, block, lat, key, continuous):
        """Factors and chain outputs ``(factors, chain)`` of one block.

        ``chain`` is None for a dead block (stego signal identically zero:
        no changes, no capacity) or one that could not be factored.  Only
        the neighbors' draws are read from ``continuous``, and those belong
        to earlier lattices, so the blocks of one lattice can be visited in
        any order and on any thread.
        """
        bi, bj = block
        factors = self._block_factors(bi, bj)
        if factors.dead or factors.failed:
            return factors, None
        if factors.neighbors:
            known = np.concatenate(
                [continuous[8 * ni : 8 * ni + 8, 8 * nj : 8 * nj + 8].ravel()
                 for ni, nj in factors.neighbors])
            base_mean = factors.mean_gain @ known
        else:
            base_mean = np.zeros(64)
        gen = rng.block_stream(key, lat, bi, bj)
        return factors, sampler.run_block_chain(
            factors.chol, base_mean, self.q_flat, self.cfg.K, gen)

    def run(self, key=None, collect_probs=False):
        """Embed with the given key (default: the config key).

        ``collect_probs`` also returns every folded PMF in
        ``EmbedResult.probs``, a plane too large to keep by default.
        """
        t0 = time.monotonic()
        key = self.cfg.key if key is None else _check_key(key)
        h, w = self.raw.height, self.raw.width
        changes = np.zeros((h, w), dtype=np.int64)
        continuous = np.zeros((h, w))
        entropy = np.zeros((h, w))
        probs = (np.zeros((self.blocks_h, self.blocks_w, 64, 2 * self.cfg.K + 1))
                 if collect_probs else None)
        per_mode = np.zeros((4, 64))
        counts = np.array([len(b) for b in self.assign.block_lists],
                          dtype=np.int64)
        jitter_events = []
        failed = []
        zero_blocks = 0
        workers = self.cfg.workers
        with (ThreadPoolExecutor(workers) if workers > 1
              else contextlib.nullcontext()) as pool:
            visit_all = map if pool is None else pool.map
            for lat, blocks in enumerate(self.assign.block_lists, start=1):
                visits = list(visit_all(functools.partial(
                    self._visit, lat=lat, key=key, continuous=continuous),
                    blocks))
                # Write-back in block order; the lattice's visits are freed
                # before the next lattice is visited.
                ent = np.zeros((len(blocks), 64))
                for n, ((bi, bj), (factors, chain)) in enumerate(
                        zip(blocks, visits)):
                    if chain is None:
                        if factors.dead:
                            zero_blocks += 1
                        else:
                            failed.append({"lattice": lat, "block": [bi, bj]})
                        continue
                    if factors.jitter:
                        jitter_events.append(
                            {"lattice": lat, "block": [bi, bj],
                             "epsilon": factors.jitter})
                    rows = slice(8 * bi, 8 * bi + 8)
                    cols = slice(8 * bj, 8 * bj + 8)
                    changes[rows, cols] = chain["changes"].reshape(8, 8)
                    continuous[rows, cols] = chain["samples"].reshape(8, 8)
                    entropy[rows, cols] = chain["entropy_bits"].reshape(8, 8)
                    ent[n] = chain["entropy_bits"]
                    if probs is not None:
                        probs[bi, bj] = chain["probs"]
                del visits
                if blocks:
                    per_mode[lat - 1] = ent.mean(axis=0)

        stego_plane = self.cover.plane() + changes
        stego = jpeg_model.JpegCoefficients.from_plane(
            stego_plane, self.table, role="stego")
        report = CapacityReport(
            entropy_plane=entropy,
            nzac=jpeg_model.nzac_count(self.cover),
            per_lattice_mode=per_mode,
            lattice_blocks=counts,
            jitter_events=jitter_events,
            failed_blocks=failed,
            zero_variance_blocks=zero_blocks,
            runtime_s=time.monotonic() - t0,
            config={
                "qf": self.cfg.qf, "K": self.cfg.K, "key": f"{key:016x}",
                "green_kernel": self.cfg.green_kernel,
                "width": w, "height": h,
            },
        )
        return EmbedResult(stego=stego, report=report, continuous=continuous,
                           probs=probs)

    def run_first_lattice_block(self, key, block):
        """Chain outputs of one unconditioned (lattice 1) block for ``key``.

        Lattice-1 blocks are embedded first and condition on nothing, so
        their chain is independent of the rest of the image; the result is
        bit-identical to the same block's slice of a full ``run``.  Useful
        for repeated distributional experiments.
        """
        if self.assign.lattice_of(*block) != 1:
            raise ValueError("block is not in the first macro-lattice")
        _, chain = self._visit(block, 1, _check_key(key), None)
        if chain is None:
            raise ValueError("block has no stego signal")
        return chain


def embed_simulated(raw, cfg):
    """Simulated embedding; returns (stego coefficients, capacity report)."""
    result = SimulatedEmbedder(raw, cfg).run()
    return result.stego, result.report


def capacity_map(raw, cfg):
    """Capacity report of the embedding chain (sampling included)."""
    return SimulatedEmbedder(raw, cfg).run().report


def pseudo_embed(raw, seed):
    """Add the photo-site stego noise directly to the RAW image.

    Draws independent zero-mean Gaussians with the per-site sensor noise
    variance (inverse-CDF from the seeded stream), clamps to the dynamic
    range and returns a new RawImage.  A distributional reference, not a
    message channel.
    """
    var = cov_mod.photon_variance(raw.data, raw.params)
    gen = rng.make_stream(seed, rng.DOMAIN_PSEUDO)
    z = rng.standard_normal_icdf(gen, raw.data.shape)
    noisy = raw.data + np.sqrt(var) * z
    limit = float(2**raw.bit_depth - 1)
    return RawImage(data=np.clip(noisy, 0.0, limit), cfa=raw.cfa,
                    bit_depth=raw.bit_depth, params=raw.params)


@dataclass
class CostPlane:
    """Per-coefficient embedding costs and zero-change probabilities."""

    costs: np.ndarray  # (bh, bw, 64, 2K+1), natural log, +inf for zero mass
    pi_zero: np.ndarray  # (bh, bw, 64)
    qf: int
    K: int


def export_costs(raw, cfg, path=None):
    """Costs rho(k) = ln(pi(0)/pi(k)) for every coefficient and change.

    Runs the same sampling chain as embedding (later PMFs depend on earlier
    draws).  Writes the binary container to ``path`` when given.
    """
    probs = SimulatedEmbedder(raw, cfg).run(collect_probs=True).probs
    plane = CostPlane(costs=sampler.costs_from_pmf(probs),
                      pi_zero=probs[..., cfg.K], qf=cfg.qf, K=cfg.K)
    if path is not None:
        write_costs(plane, path)
    return plane


def write_costs(plane, path):
    """Binary cost container: magic "JCST", dims, qf, K, float64 payload, CRC32."""
    bh, bw = plane.pi_zero.shape[:2]
    jpeg_model._write_container(
        path, _COSTS_MAGIC, ">IIBB", (bh, bw, plane.qf, plane.K),
        plane.costs.astype(">f8").tobytes() + plane.pi_zero.astype(">f8").tobytes())


def read_costs(path):
    """Read a JCST container back into a CostPlane."""
    (bh, bw, qf, k_range), body = jpeg_model._read_container(
        path, _COSTS_MAGIC, ">IIBB",
        # 2K+1 costs and pi(0) per coefficient, float64 each.
        lambda bh, bw, qf, k: 8 * bh * bw * 64 * (2 * k + 2), "cost-file")
    n_costs = bh * bw * 64 * (2 * k_range + 1)
    costs = np.frombuffer(body[: 8 * n_costs], dtype=">f8").reshape(
        bh, bw, 64, 2 * k_range + 1)
    pi0 = np.frombuffer(body[8 * n_costs :], dtype=">f8").reshape(bh, bw, 64)
    return CostPlane(costs=costs.astype(np.float64),
                     pi_zero=pi0.astype(np.float64), qf=qf, K=k_range)
