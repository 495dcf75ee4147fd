"""End-to-end simulated embedding, capacity reporting and cost export.

Embedding walks the four macro-lattices in order.  The normals of a
lattice's live blocks are drawn first, into one array (``_normals``).
Then, for every block, it assembles the joint DCT covariance of the block
and its not-yet-used neighbors directly from the per-block pipeline
weight tensor and the photo-site variance map, conditions on the
continuous stego values already drawn for neighboring blocks
(``covariance.condition``: the Schur complement read off one Cholesky
factor, in the chain's form), and forms the block's conditional means
(``sampler.run_block_chain``), the one step that needs its own factor.
The rest is elementwise, so it runs on up to ``_TABULATE_BLOCKS``
consecutive visited blocks at a time (``_tabulate``): their continuous
signals are formed and written back for the later lattices to condition
on, their draws are discretized into changes and bin edges
(``sampler.discretize``), and the folded PMFs and the entropies read
from them are tabulated from those edges.  Stego coefficients are the
cover coefficients plus the sampled changes.

Everything is a pure function of (raw image, config): per-block random
streams are derived from the secret key, the lattice index and the block
coordinates, and ``run`` holds OpenBLAS on one thread
(``covariance.one_blas_thread``), so results are bit-identical for any
worker count and any BLAS thread count.
"""

import collections
import contextlib
import functools
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
# Not used here: kept only because perfbench's layer map and its test
# still name ``embedder.sla`` (ROADMAP item 5).
import scipy.linalg as sla  # noqa: F401

from . import covariance as cov_mod
from . import jpeg_model, lattice, pipeline, rng, sampler
from .raw_io import RawImage

log = logging.getLogger(__name__)

_COSTS_MAGIC = b"JCST"
# Consecutive visited blocks that ``run`` writes back, discretizes and
# tabulates in one pass.  A lattice's live blocks hold their normals,
# conditional means and deviations (1.5 KB a block) until its last pass;
# a pass gathers its blocks' rows (1.5 KB a block again), and its traced
# memory peaks in ``discretize`` at K = 5: 0.26 MB for 16 blocks, 0.40 MB
# for 32.  On a 128² iid image with cached factors (2-vCPU x86_64, one
# BLAS thread), a ``run`` took 14.4-14.8 ms with 16 blocks, 13.5-13.7 ms
# with 32 and 13.1-13.3 ms with 64 (medians of 60 alternated calls, two
# processes).  ``run``'s traced peak memory grew from a 64² to a 128² iid
# image by 0.84 MB with 16 blocks and 0.83 MB with 64, which tabulate
# once the lattice's self tiles are freed, and by 0.91 MB with 32, whose
# first pass of a lattice runs beside them.
_TABULATE_BLOCKS = 32


class ConfigError(ValueError):
    """Invalid embedding parameters."""


@dataclass(frozen=True)
class EmbedConfig:
    """Embedding parameters, integers stored as ints (``rng.check_int``);
    ``key`` seeds all per-block random streams."""

    qf: int
    K: int = 5
    key: int = 0
    green_kernel: str = "cross"
    workers: int = 1

    def __post_init__(self):
        def store(name, value):
            object.__setattr__(self, name, value)

        store("qf", rng.check_int(self.qf, "qf", ConfigError, 1, 100))
        # The JCST cost file stores K in one byte.
        store("K", rng.check_int(self.K, "alphabet half-width K", ConfigError,
                                 1, sampler.MAX_K))
        store("workers", rng.check_int(self.workers, "workers", ConfigError, 1))
        store("key", rng.check_seed(self.key, "key", ConfigError))
        if self.green_kernel not in ("cross", "corner"):
            raise ConfigError(f"unknown green kernel {self.green_kernel!r}")


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


class _Workspace(threading.local):
    """One thread's reused joint-covariance buffer.

    The buffer is sized for one block's joint (64², all a thread that
    factors only lattice-1 blocks needs) until a larger joint comes, and
    then for the largest (576², a block and its eight neighbors).  It is
    cut into a column-major view per block, so no block allocates its
    own joint.  Without it, every freed joint goes back to the kernel and
    is faulted in again for the next block.  Each block writes only the
    lower tiles of its joint that the factorization reads (its nonzero
    tiles and the zero tiles its elimination fills), and its Cholesky
    factor and mean gain overwrite them in place; the other zero tiles and
    the upper triangle are never written and hold whatever earlier blocks,
    or the allocation, left there.
    """

    SIDE = 9 * 64  # the largest joint: a block and its eight neighbors
    flat = None  # per thread, allocated by its first ``view`` call

    def view(self, n):
        """An (n, n) column-major array over the buffer.

        The buffer holds one block's joint until a larger one is asked
        for, and then the largest joint at once: each buffer given up
        above glibc malloc's mmap threshold raises that threshold, and
        growing through 192², 320² and 576² left a 512² embed's peak RSS
        1.1 MB higher.
        """
        if self.flat is None or self.flat.size < n * n:
            self.flat = np.empty(n * n if n == 64 else self.SIDE**2)
        return self.flat[: n * n].reshape((n, n), order="F")


class _Band:
    """The joints of one lattice pass and the self tiles they share.

    A block's own 64 x 64 covariance is the same tile in every joint that
    holds it: its own, and those of the later-lattice neighbors it
    conditions, up to four per pass.  ``joints`` maps each block the pass factors to its
    ``joint_blocks``, and ``uses`` counts, per block, the joints still to
    be assembled that hold it.  A tile is computed at its first use and
    kept in ``tiles`` until its last, so the band is empty when the pass
    ends and holds about two block rows of tiles meanwhile.  The worker
    threads share it: ``uses`` and ``tiles`` change under a lock, and the
    product runs outside it, so two threads may compute one tile at once;
    their results are bit-equal, and either may stay.
    """

    def __init__(self, joints):
        self.joints = joints
        self.uses = collections.Counter(
            blk for joint in joints.values() for blk in joint)
        self.tiles = {}
        self.lock = threading.Lock()

    def fill(self, block, dest, compute):
        """Write ``block``'s self tile into ``dest``: a copy of the kept
        tile, or else ``compute(dest)``'s, kept while later joints use it."""
        with self.lock:
            tile = self.tiles.get(block)
        if tile is None:
            compute(dest)
        else:
            np.copyto(dest, tile)
        with self.lock:
            self.uses[block] -= 1
            if not self.uses[block]:
                del self.uses[block]
                self.tiles.pop(block, None)
            elif block not in self.tiles:
                self.tiles[block] = dest.copy()


@dataclass(frozen=True)
class _BlockFactors:
    """Draw-independent conditioning factors of one live block.

    ``rows`` holds the live conditioning neighbors as row indices of the
    (blocks_h * blocks_w, 64) block plane, in the joint's order, and
    ``mean_gain``, column-major (64, 64 * len(rows)), maps their
    concatenated samples to the conditional mean.  A lattice-1 block has
    no rows and a (64, 0) gain.  The Cholesky factor of the conditional
    covariance is kept in the chain's form: ``lower``, its strictly lower
    part (zero on and above the diagonal), which
    ``sampler.run_block_chain`` takes, and ``sigmas``, its deviations
    |diag|, which ``sampler.discretize`` takes.
    """

    rows: np.ndarray
    mean_gain: np.ndarray
    lower: np.ndarray
    sigmas: np.ndarray
    jitter: float


class SimulatedEmbedder:
    """Reusable embedding engine for one RAW image.

    Precomputes the cover, the photo-site variance windows of every block
    (one contiguous (bh, bw, 10, 10) array) and the map of live blocks
    once; ``run`` then produces a stego plane for any key.  Joints are
    assembled from tile plans, memoized per block layout (the blocks'
    offsets from the last one), so each tile is one scaled matmul written
    into place, and only the zero tiles the factor fills are written.
    Within one lattice pass of ``run``, each block's self tile is computed
    once and copied into every joint that holds it (``_Band``).
    ``cache_factors`` additionally keeps each block's
    Schur/Cholesky factors across runs, which pays off when embedding the
    same image many times (the factors do not depend on the drawn samples).

    Raises ``CoefficientsError`` when a live block's cover coefficient is
    within K of the int16 limit, since its stego might not fit.
    """

    def __init__(self, raw, cfg, cache_factors=False):
        self.raw = raw
        self.cfg = cfg
        self.table = jpeg_model.quant_table(cfg.qf)
        self.q_flat = self.table.flat.astype(np.float64)
        _, self.cover = jpeg_model.develop_cover(raw, cfg.qf, cfg.green_kernel)
        self.blocks_h, self.blocks_w = self.cover.coeffs.shape[:2]
        var = cov_mod.photon_variance(raw.data, raw.params)
        # (bh, bw, 10, 10), copied out of the strided window view.
        self.var_win = np.ascontiguousarray(pipeline.block_windows(var))
        weights = pipeline.block_support_tensor(raw.cfa, cfg.green_kernel)
        # A block is dead when its stego signal is identically zero: the
        # trace of its own covariance vanishes.
        self.live = np.einsum("kuv,ijuv->ij", weights**2, self.var_win) > 0
        # A live block's changes reach +-K, so its stego fits the int16
        # container only if its cover stays K inside it.
        reach = np.abs(self.cover.coeffs).max(axis=(2, 3)) + cfg.K
        over = np.argwhere(self.live & (reach > 32767))
        if len(over):
            raise jpeg_model.CoefficientsError(
                f"block ({over[0][0]}, {over[0][1]}): coefficient magnitude "
                f"plus K = {cfg.K} exceeds int16 range")
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
        # Tile plans by block layout (``_tile_plan``).  Threads may build
        # the same plan at once; the plans are equal, so either may stay.
        self._plans = {}
        self.assign = lattice.tile(self.blocks_w, self.blocks_h)
        self._factor_cache = {} if cache_factors else None

    # -- covariance assembly ------------------------------------------------

    def _tile_plan(self, blocks):
        """Lower tiles of the joint over ``blocks``: (tiles, zeros, filled).

        ``tiles`` holds (rows, cols, a, r, c, wa, wb) for each pair of
        8-connected blocks a <= b: the joint's (rows, cols) tile, block b
        against block a, is ``((wa * var) @ wb).T`` with ``var`` the (r, c)
        overlap of block a's variance window.  ``zeros`` holds the (b, a)
        block pairs, b > a, of the other tiles, which share no photo-site
        support and are exactly zero: the pattern ``covariance.cholesky``
        factors around.  ``filled`` holds the pairs of ``zeros`` that the
        factor reads, those its elimination fills (``covariance.fill_in``).
        Memoized by the blocks' offsets from the last one; an image has a
        few dozen such layouts whatever its size.
        """
        ri, ci = blocks[-1]
        layout = tuple((r - ri, c - ci) for r, c in blocks)
        plan = self._plans.get(layout)
        if plan is None:
            tiles, zeros = [], []
            for a, (ra, ca) in enumerate(layout):
                cols = slice(64 * a, 64 * (a + 1))
                for b in range(a, len(layout)):
                    rb, cb = layout[b]
                    if max(abs(rb - ra), abs(cb - ca)) > 1:
                        zeros.append((b, a))
                    else:
                        tiles.append((slice(64 * b, 64 * (b + 1)), cols, a)
                                     + self._overlap[(rb - ra, cb - ca)])
            zeros = tuple(zeros)
            plan = self._plans[layout] = (
                tuple(tiles), zeros, cov_mod.fill_in(64 * len(layout), zeros))
        return plan

    def _fill_lower(self, blocks, out, band=None):
        """Write the lower tiles of the joint over ``blocks`` that the
        factor reads into ``out`` (column-major, 64 rows and columns per
        block): the nonzero tiles and the plan's ``filled`` zero tiles.
        Return the plan's ``zeros``, for the factor step.  With a ``band``
        (a ``_Band``), self tiles are taken from it."""
        tiles, zeros, filled = self._tile_plan(blocks)
        for b, a in filled:
            out[64 * b : 64 * (b + 1), 64 * a : 64 * (a + 1)] = 0.0
        for rows, cols, a, r, c, wa, wb in tiles:
            ra, ca = blocks[a]
            var = self.var_win[ra, ca, r, c].reshape(-1)
            if band is not None and rows == cols:
                band.fill(blocks[a], out[rows, cols].T,
                          lambda dest: np.matmul(wa * var, wb, out=dest))
            else:
                np.matmul(wa * var, wb, out=out[rows, cols].T)
        return zeros

    def joint_covariance(self, blocks):
        """Joint covariance over ``blocks`` (64 coefficients each).

        The lower triangle is the one the embedder factors; the upper one
        mirrors it, so the result is exactly symmetric, and every tile of
        the plan's ``zeros`` is exactly zero.  Assembled column-major, the
        layout LAPACK factors in place.
        """
        n = 64 * len(blocks)
        joint = np.zeros((n, n), order="F")
        self._fill_lower(blocks, joint)
        upper = np.triu_indices(n, 1)
        joint[upper] = joint.T[upper]
        return joint

    # -- factors -------------------------------------------------------------

    def joint_blocks(self, block):
        """The blocks of ``block``'s joint in the order it is factored: the
        live neighbors in ``lattice.neighborhood``'s order (latest lattice
        first), then ``block`` itself.

        Dead neighbors carry no information and only make the conditioning
        singular.  The order puts a run of mutually unconnected blocks
        first: the four lattice-1 corners of a lattice-2 block, the
        lattice-2 N and S of a lattice-3 block and the four lattice-3
        corners of a lattice-4 block, each of which touches only two of
        the lattice-4 block's W, E, N and S.  W and E, next, stay
        unconnected once the corners are factored, so a lattice-4 joint
        has a second such level.  ``_tile_plan``'s ``zeros`` give
        ``covariance.cholesky`` the whole pattern.
        """
        return tuple(blk for blk in lattice.neighborhood(self.assign, block)
                     if self.live[blk]) + (block,)

    def _block_factors(self, bi, bj, workspace, band=None):
        """Factors of a live block; None if it stays singular after jitter.

        The joint is assembled in ``workspace``'s buffer (a ``_Workspace``)
        and factored there in place; a jitter retry assembles it again,
        every tile computed anew.  With a ``band`` (a ``_Band``), the joint's
        blocks and its self tiles are taken from it.
        """
        cache = self._factor_cache
        if cache is not None and (bi, bj) in cache:
            return cache[(bi, bj)]
        blocks = (self.joint_blocks((bi, bj)) if band is None
                  else band.joints[bi, bj])
        joint = workspace.view(64 * len(blocks))
        zeros = self._fill_lower(blocks, joint, band)
        try:
            gain, lower, sigmas, jitter = cov_mod.condition(
                joint, zeros=zeros,
                refill=functools.partial(self._fill_lower, blocks, joint))
        except cov_mod.SingularCovarianceError:
            log.warning("lattice %d block (%d,%d) singular after max jitter; "
                        "embedding skipped", self.assign.lattice_of(bi, bj),
                        bi, bj)
            factors = None
        else:
            rows = np.array([ni * self.blocks_w + nj
                             for ni, nj in blocks[:-1]], dtype=np.intp)
            factors = _BlockFactors(rows, gain, lower, sigmas, jitter)
        if cache is not None:
            cache[(bi, bj)] = factors
        return factors

    # -- embedding -----------------------------------------------------------

    def _normals(self, key, lat, blocks, gen=None):
        """The normals of ``blocks`` of lattice ``lat`` for ``key``, one
        (64,) row per block.

        Row i holds block i's 64 uniforms, drawn from its own stream
        (``rng.block_stream``, which re-keys ``gen`` in place, or builds a
        generator without it); one ``rng.normals_from_uniforms`` then
        converts every row at once, each to the values a draw of the block
        alone gives.
        """
        u = np.empty((len(blocks), 64))
        for row, block in zip(u, blocks):
            rng.block_stream(key, lat, *block, gen=gen).random(out=row)
        return rng.normals_from_uniforms(u)

    def _visit(self, block, z, means, sigmas, continuous, workspace,
               band=None):
        """Factor one live block and form its conditional means.

        ``z``, ``means`` and ``sigmas`` are the block's (64,) rows of its
        lattice's arrays: from its normals ``z``, the visit writes its
        conditional means (``sampler.run_block_chain``) into ``means`` and
        its factor's deviations |diag| into ``sigmas``.  Returns the
        factorization jitter, or None, writing nothing, for a block that
        could not be factored; ``run`` visits no dead block.  Only the
        neighbors' draws are read from ``continuous``, the continuous plane
        as (blocks_h * blocks_w, 64) rows, and those belong to earlier
        lattices, so the blocks of one lattice can be visited in any order
        and on any thread.  The block is factored in ``workspace`` (a
        ``_Workspace``) with the pass's ``band``.  Its factors are dropped
        on return unless ``cache_factors`` keeps them.
        """
        factors = self._block_factors(*block, workspace, band)
        if factors is None:
            return None
        base_mean = factors.mean_gain @ continuous[factors.rows].ravel()
        means[:] = sampler.run_block_chain(factors.lower, base_mean, z)
        sigmas[:] = factors.sigmas
        return factors.jitter

    @cov_mod.one_blas_thread
    def run(self, key=None, collect_probs=False):
        """Embed with the given key (default: the config key), visiting
        only live blocks; dead ones keep zero changes, entropy and PMFs.

        ``collect_probs`` also returns every folded PMF in
        ``EmbedResult.probs``, a plane too large to keep by default.

        OpenBLAS runs on one thread meanwhile, process-wide
        (``covariance.one_blas_thread``): other threads of the process
        that call BLAS during a run get one thread too.
        """
        t0 = time.monotonic()
        key = (self.cfg.key if key is None
               else rng.check_seed(key, "key", ConfigError))
        bh, bw = self.blocks_h, self.blocks_w
        # Working planes in block layout: [bi, bj] holds one block's 64
        # coefficients in row-major frequency order.  Changes lie in -K..K,
        # K <= 255, and the stego adds them to the int32 cover.
        changes = np.zeros((bh, bw, 64), dtype=np.int16)
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
        # Dropped on return, so an embedder holds no buffers between runs.
        workspace = _Workspace()
        # Re-keyed for every block's stream: it draws what a fresh
        # generator per block would, without building a Philox per block.
        gen = np.random.Generator(np.random.Philox(seed=0))
        cache = self._factor_cache
        with (ThreadPoolExecutor(workers) if workers > 1
              else contextlib.nullcontext()) as pool:
            visit_all = map if pool is None else pool.map
            for lat, blocks in enumerate(self.assign.block_lists, start=1):
                live = [block for block in blocks if self.live[block]]
                # Cached blocks assemble nothing.
                band = _Band({block: self.joint_blocks(block) for block in live
                              if cache is None or block not in cache})
                # One row per live block: its normals, drawn before the
                # visits, and the conditional means and deviations its
                # visit writes.
                z = self._normals(key, lat, live, gen)
                means, sigmas = np.empty_like(z), np.empty_like(z)
                visits = visit_all(functools.partial(
                    self._visit, continuous=continuous.reshape(bh * bw, 64),
                    workspace=workspace, band=band), live, z, means, sigmas)
                # Visits end in block order.  Each chunk of _TABULATE_BLOCKS
                # of them is written back and tabulated as its last one
                # ends: its ``rows`` are those of the blocks that could be
                # factored.
                start, rows = 0, []
                for i, (block, jitter) in enumerate(zip(live, visits)):
                    if jitter is None:
                        failed.append({"lattice": lat, "block": list(block)})
                    else:
                        rows.append(i)
                        if jitter:
                            jitter_events.append(
                                {"lattice": lat, "block": list(block),
                                 "epsilon": jitter})
                    if i + 1 - start == _TABULATE_BLOCKS or i + 1 == len(live):
                        if rows:
                            self._tabulate(
                                [live[r] for r in rows], z[rows], means[rows],
                                sigmas[rows], continuous, changes, entropy,
                                probs)
                        start, rows = i + 1, []
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

    @cov_mod.one_blas_thread
    def run_first_lattice_block(self, key, block):
        """Chain outputs of one unconditioned (lattice 1) block for ``key``.

        Lattice-1 blocks are embedded first and condition on nothing, so
        their chain is independent of the rest of the image; the result is
        bit-identical to the same block's slice of a full ``run``.  Useful
        for repeated distributional experiments.  Returns the block's
        discrete ``changes`` (64), continuous ``samples`` (64), ``params``
        (64, 2) and ``edges`` (64, 2K): its draw, discretized alone.
        """
        bi, bj = block
        if not (0 <= bi < self.blocks_h and 0 <= bj < self.blocks_w):
            raise ValueError(f"block {block} is outside the "
                             f"{self.blocks_h} x {self.blocks_w} block grid")
        if self.assign.lattice_of(bi, bj) != 1:
            raise ValueError("block is not in the first macro-lattice")
        key = rng.check_seed(key, "key", ConfigError)
        if not self.live[bi, bj]:
            raise ValueError("block has no stego signal")
        z = self._normals(key, 1, [block])[0]
        means, sigmas = np.empty(64), np.empty(64)
        if self._visit(block, z, means, sigmas, np.empty((0, 64)),
                       _Workspace()) is None:
            raise ValueError("block could not be factored")
        drawn = sampler.discretize(z, means, sigmas, self.q_flat, self.cfg.K)
        return {"changes": drawn["changes"], "samples": means + sigmas * z,
                "params": drawn["params"], "edges": drawn["edges"]}

    def _tabulate(self, blocks, z, means, sigmas, continuous, changes,
                  entropy, probs):
        """Write back and tabulate the draws of ``blocks``: (n, 64) normals
        ``z``, conditional ``means`` and deviations ``sigmas``, one row per
        block.

        Their continuous candidates means + sigmas * z go into
        ``continuous``, and their changes, entropies and, unless ``probs``
        is None, folded PMFs into the other block-layout planes.  One
        ``sampler.discretize``, one ``pmf_table`` and one ``entropy`` serve
        all the blocks: each works on one coefficient's row alone, so every
        value is the one a pass per block gives.
        """
        index = tuple(zip(*blocks))
        continuous[index] = means + sigmas * z
        drawn = sampler.discretize(z, means, sigmas, self.q_flat, self.cfg.K)
        changes[index] = drawn["changes"]
        # The edges die once the table is built and the rest of the draw
        # with them, so the entropies hold the table and one array its size:
        # kept alive, the edges would add 0.17 MB and the rest 0.05 MB to a
        # 128² embed's traced peak.
        table = sampler.pmf_table(drawn.pop("edges"))
        del drawn
        entropy[index] = sampler.entropy(table).reshape(len(blocks), 64)
        if probs is not None:
            probs[index] = table.reshape(len(blocks), 64, -1)


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
    message channel.  ``seed`` is an integer in 0..2**64-1, as a key is.
    """
    seed = rng.check_seed(seed, "seed", ConfigError)
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
    """Binary cost container: magic "JCST", dims, qf, K, float64 payload, CRC32.

    Raises ``FormatError``, before ``path`` is opened, for a plane that
    ``read_costs`` could not read back: K outside 1..255 (one header byte),
    a qf or block grid that ``jpeg_model._check_header`` refuses, or
    shapes other than (bh, bw, 64, 2K+1) costs over (bh, bw, 64) pi_zero.
    """
    k_range = rng.check_int(plane.K, "cost-file alphabet half-width K",
                            jpeg_model.FormatError, 1, sampler.MAX_K)
    grid = np.shape(plane.pi_zero)
    if len(grid) != 3 or grid[2] != 64:
        raise jpeg_model.FormatError(
            f"cost-file pi_zero of shape {grid} is not (bh, bw, 64)")
    if np.shape(plane.costs) != grid + (2 * k_range + 1,):
        raise jpeg_model.FormatError(
            f"cost-file costs of shape {np.shape(plane.costs)} are not "
            f"{grid + (2 * k_range + 1,)} for K = {k_range}")
    bh, bw = grid[:2]
    jpeg_model._check_header(bh, bw, plane.qf, "cost-file")
    jpeg_model._write_container(
        path, _COSTS_MAGIC, ">IIBB", (bh, bw, plane.qf, k_range),
        [np.ascontiguousarray(a, dtype=">f8")
         for a in (plane.costs, plane.pi_zero)])


def read_costs(path):
    """Read a JCST container back into a CostPlane."""
    (bh, bw, qf, k_range), body = jpeg_model._read_container(
        path, _COSTS_MAGIC, ">IIBB",
        # 2K+1 costs and pi(0) per coefficient, float64 each.
        lambda bh, bw, qf, k: 8 * bh * bw * 64 * (2 * k + 2), "cost-file")
    jpeg_model._check_header(bh, bw, qf, "cost-file")
    if k_range < 1:
        raise jpeg_model.FormatError(f"cost-file alphabet half-width K = "
                                     f"{k_range} is below 1")
    n_costs = bh * bw * 64 * (2 * k_range + 1)
    costs = np.frombuffer(body[: 8 * n_costs], dtype=">f8").reshape(
        bh, bw, 64, 2 * k_range + 1)
    pi0 = np.frombuffer(body[8 * n_costs :], dtype=">f8").reshape(bh, bw, 64)
    return CostPlane(costs=costs.astype(np.float64),
                     pi_zero=pi0.astype(np.float64), qf=qf, K=k_range)
