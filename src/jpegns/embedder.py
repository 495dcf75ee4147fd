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
from .raw_io import RawImage

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
    """Draw-independent conditioning factors of one live block.

    ``mean_gain`` maps the concatenated samples of ``neighbors`` (block
    coordinates) to the conditional mean; ``chol`` is the Cholesky factor
    of the conditional covariance.
    """

    neighbors: tuple
    mean_gain: np.ndarray
    chol: np.ndarray
    jitter: float


class SimulatedEmbedder:
    """Reusable embedding engine for one RAW image.

    Precomputes the cover, the photo-site variance windows of every block
    and the map of live blocks once; ``run`` then produces a stego plane
    for any key.  ``cache_factors`` additionally keeps each block's
    Schur/Cholesky factors across runs, which pays off when embedding the
    same image many times (the factors do not depend on the drawn samples).
    """

    def __init__(self, raw, cfg, cache_factors=False):
        self.raw = raw
        self.cfg = cfg
        self.table = jpeg_model.quant_table(cfg.qf)
        self.q_flat = self.table.flat.astype(np.float64)
        _, self.cover = jpeg_model.develop_cover(raw, cfg.qf, cfg.green_kernel)
        self.blocks_h, self.blocks_w = self.cover.coeffs.shape[:2]
        var = cov_mod.photon_variance(raw.data, raw.params)
        self.var_win = pipeline.block_windows(var)  # (bh, bw, 10, 10)
        weights = pipeline.block_support_tensor(raw.cfa, cfg.green_kernel)
        # A block is dead when its stego signal is identically zero: the
        # trace of its own covariance vanishes.
        self.live = np.einsum("kuv,ijuv->ij", weights**2, self.var_win) > 0
        # Contiguous weight slices per relative block offset, so cross
        # covariances reduce to one scaled matmul over the support overlap:
        # rows r0..r1-1 (columns c0..c1-1) of block a's window are rows
        # r0-8di.. (columns c0-8dj..) of block b's.
        self._overlap = {}
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                r0, r1 = max(0, 8 * di), min(10, 10 + 8 * di)
                c0, c1 = max(0, 8 * dj), min(10, 10 + 8 * dj)
                wa = np.ascontiguousarray(
                    weights[:, r0:r1, c0:c1].reshape(64, -1))
                wb = np.ascontiguousarray(
                    weights[:, r0 - 8 * di : r1 - 8 * di,
                            c0 - 8 * dj : c1 - 8 * dj].reshape(64, -1).T)
                self._overlap[(di, dj)] = (slice(r0, r1), slice(c0, c1),
                                           wa, wb)
        self.assign = lattice.tile(self.blocks_w, self.blocks_h)
        self._factor_cache = {} if cache_factors else None

    # -- covariance assembly ------------------------------------------------

    def _cross_cov(self, block_a, block_b):
        """64x64 covariance between two blocks at most one block apart."""
        (ra, ca), (rb, cb) = block_a, block_b
        rows, cols, wa, wb = self._overlap[(rb - ra, cb - ca)]
        var = self.var_win[ra, ca, rows, cols].reshape(-1)
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
        """Factors of a live block; None if it stays singular after jitter."""
        cache = self._factor_cache
        if cache is not None and (bi, bj) in cache:
            return cache[(bi, bj)]
        nb = lattice.neighborhood(self.assign, (bi, bj))
        # Dead neighbors carry no information and only make the
        # conditioning singular.
        neighbors = tuple(blk for blk in nb.neighbors if self.live[blk])
        try:
            gain, chol, jitter = condition(
                self.joint_covariance(neighbors + (nb.center,)),
                64 * len(neighbors),
                context=f"lattice {nb.lattice} block {nb.center}")
        except cov_mod.SingularCovarianceError:
            log.warning("block (%d,%d) singular after max jitter; "
                        "embedding skipped", bi, bj)
            factors = None
        else:
            factors = _BlockFactors(neighbors, gain, chol, jitter)
        if cache is not None:
            cache[(bi, bj)] = factors
        return factors

    # -- embedding -----------------------------------------------------------

    def _visit(self, block, lat, key, continuous):
        """Factors and chain outputs ``(factors, chain)`` of one block.

        Both are None for a dead block (stego signal identically zero: no
        changes, no capacity) or one that could not be factored.  Only the
        neighbors' draws are read from ``continuous``, and those belong to
        earlier lattices, so the blocks of one lattice can be visited in
        any order and on any thread.
        """
        if not self.live[block]:
            return None, None
        factors = self._block_factors(*block)
        if factors is None:
            return None, None
        if factors.neighbors:
            known = continuous[tuple(zip(*factors.neighbors))].ravel()
            base_mean = factors.mean_gain @ known
        else:
            base_mean = np.zeros(64)
        gen = rng.block_stream(key, lat, *block)
        return factors, sampler.run_block_chain(
            factors.chol, base_mean, self.q_flat, self.cfg.K, gen)

    def run(self, key=None, collect_probs=False):
        """Embed with the given key (default: the config key).

        ``collect_probs`` also returns every folded PMF in
        ``EmbedResult.probs``, a plane too large to keep by default.
        """
        t0 = time.monotonic()
        key = self.cfg.key if key is None else _check_key(key)
        bh, bw = self.blocks_h, self.blocks_w
        # Working planes in block layout: [bi, bj] holds one block's 64
        # coefficients in row-major frequency order.
        changes = np.zeros((bh, bw, 64), dtype=np.int64)
        continuous = np.zeros((bh, bw, 64))
        entropy = np.zeros((bh, bw, 64))
        probs = (np.zeros((bh, bw, 64, 2 * self.cfg.K + 1))
                 if collect_probs else None)
        per_mode = np.zeros((4, 64))
        counts = np.array([len(b) for b in self.assign.block_lists],
                          dtype=np.int64)
        jitter_events = []
        failed = []
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
                for block, (factors, chain) in zip(blocks, visits):
                    if chain is None:
                        if self.live[block]:
                            failed.append({"lattice": lat,
                                           "block": list(block)})
                        continue
                    if factors.jitter:
                        jitter_events.append(
                            {"lattice": lat, "block": list(block),
                             "epsilon": factors.jitter})
                    changes[block] = chain["changes"]
                    continuous[block] = chain["samples"]
                    entropy[block] = chain["entropy_bits"]
                    if probs is not None:
                        probs[block] = chain["probs"]
                del visits
                if blocks:
                    per_mode[lat - 1] = entropy[tuple(zip(*blocks))].mean(axis=0)

        stego = jpeg_model.JpegCoefficients(
            self.cover.coeffs + changes.reshape(bh, bw, 8, 8), self.table,
            role="stego")
        report = CapacityReport(
            entropy_plane=jpeg_model.to_plane(entropy),
            nzac=jpeg_model.nzac_count(self.cover),
            per_lattice_mode=per_mode,
            lattice_blocks=counts,
            jitter_events=jitter_events,
            failed_blocks=failed,
            zero_variance_blocks=int(np.count_nonzero(~self.live)),
            runtime_s=time.monotonic() - t0,
            config={
                "qf": self.cfg.qf, "K": self.cfg.K, "key": f"{key:016x}",
                "green_kernel": self.cfg.green_kernel,
                "width": self.raw.width, "height": self.raw.height,
            },
        )
        return EmbedResult(stego=stego, report=report,
                           continuous=jpeg_model.to_plane(continuous),
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
