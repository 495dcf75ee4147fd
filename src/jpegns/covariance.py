"""Stego-signal covariance in the DCT domain and Gaussian conditioning.

The photo-site stego signal is independent heteroscedastic Gaussian noise,
so its DCT-domain image under the pipeline operator M has covariance
M diag(v) M^t.  Conditioning a block on already-sampled neighbors uses the
standard Schur complement, solved through Cholesky factors rather than
explicit inverses.
"""

import logging
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import pipeline
from .raw_io import SensorParams  # noqa: F401  (re-exported type for callers)

log = logging.getLogger(__name__)

# Escalating relative jitter applied when a covariance factorization fails;
# clamped zero variances make dark blocks genuinely singular.
JITTER_LADDER = (1e-12, 1e-10, 1e-8)


class CovarianceError(Exception):
    """Covariance construction or factorization failure."""


class SingularCovarianceError(CovarianceError):
    """Not positive semidefinite even after the maximum jitter."""


@dataclass(frozen=True)
class DiagonalCovariance:
    """Per-photo-site stego variances for one vectorized patch."""

    variances: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.variances, dtype=np.float64)
        if v.ndim != 1:
            raise CovarianceError("variances must be a vector")
        if np.any(v < 0):
            raise CovarianceError("negative variance")
        object.__setattr__(self, "variances", v)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Dense symmetric PSD covariance over n x 64 DCT coefficients."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise CovarianceError("covariance must be square")
        scale = np.abs(a).max()
        if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
            raise CovarianceError("covariance not symmetric")
        object.__setattr__(self, "values", a)

    @property
    def dim(self):
        return self.values.shape[0]

    def check_psd(self):
        """Raise unless the smallest eigenvalue is above -1e-8 * trace / dim."""
        w = np.linalg.eigvalsh(self.values)
        floor = -1e-8 * max(np.trace(self.values), 0.0) / self.dim
        if w[0] < floor:
            raise CovarianceError(
                f"covariance not PSD: min eigenvalue {w[0]:.3e} < {floor:.3e}")
        return self


@dataclass(frozen=True)
class ConditionalGaussian:
    """Mean, covariance and Cholesky factor of one conditioned block."""

    mean: np.ndarray
    cov: CovarianceMatrix
    chol: np.ndarray
    jitter: float = 0.0

    def __post_init__(self):
        recon = self.chol @ self.chol.T
        scale = max(np.abs(self.cov.values).max(), 1e-300)
        err = np.abs(recon - self.cov.values).max()
        # Reconstruction tolerance widens with applied jitter.
        if err > 1e-8 * scale + 10.0 * self.jitter * scale + 1e-300:
            raise CovarianceError("Cholesky factor does not reconstruct covariance")


def photon_variance(x, params):
    """Stego-signal variance max(0, (a2-a1)*x + (b2-b1)); works elementwise."""
    gain = params.a2 - params.a1
    offset = params.b2 - params.b1
    return np.maximum(0.0, gain * np.asarray(x, dtype=np.float64) + offset)


def sigma_p(patch, params):
    """Diagonal photo-site covariance of a 26x26 patch (row-major order)."""
    patch = np.asarray(patch, dtype=np.float64)
    if patch.shape != (pipeline.PATCH_SIDE, pipeline.PATCH_SIDE):
        raise CovarianceError(
            f"patch must be {pipeline.PATCH_SIDE}x{pipeline.PATCH_SIDE}")
    return DiagonalCovariance(photon_variance(patch.ravel(), params))


def sigma_d(pm, sp):
    """DCT-domain covariance M diag(v) M^t, symmetrized against round-off."""
    v = sp.variances
    if v.shape[0] != pm.m.cols:
        raise CovarianceError("variance vector does not match operator width")
    m = pm.m.matrix
    scaled = m.multiply(v[np.newaxis, :])
    dense = (scaled @ m.T).toarray()
    return CovarianceMatrix((dense + dense.T) / 2.0)


def _potrf(a):
    """LAPACK Cholesky of a copy of ``a``, strict upper triangle zeroed."""
    chol, info = lapack.dpotrf(a, lower=1, clean=1, overwrite_a=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpotrf failed with info {info}")
    return chol


def cholesky(cov, context=""):
    """Lower-triangular L with L L^t = cov, adding escalating jitter if needed.

    Returns (L, jitter_applied).  Raises SingularCovarianceError when the
    matrix stays indefinite after the maximum jitter.  The input is never
    modified.
    """
    a = cov.values if isinstance(cov, CovarianceMatrix) else np.asarray(cov, float)
    try:
        return _potrf(a), 0.0
    except np.linalg.LinAlgError:
        pass
    mean_diag = float(np.mean(np.diag(a)))
    eye = np.eye(a.shape[0])
    for eps in JITTER_LADDER:
        shift = eps * mean_diag
        try:
            chol = _potrf(a + shift * eye)
        except np.linalg.LinAlgError:
            continue
        log.debug("cholesky%s applied jitter %.1e",
                  f" ({context})" if context else "", shift)
        return chol, shift
    raise SingularCovarianceError(
        f"covariance{' for ' + context if context else ''} not PSD after max jitter")


def _schur_factors(values, context=""):
    """Split a joint covariance into conditional-gaussian building blocks.

    Returns (gain, cond_cov, jitter22) where gain = S12 S22^-1 so that the
    conditional mean is gain @ known and the conditional covariance is
    S11 - gain @ S21.
    """
    s11 = values[:64, :64]
    s12 = values[:64, 64:]
    s22 = values[64:, 64:]
    chol22, jitter22 = cholesky(CovarianceMatrix(s22), context=context)
    gain = sla.cho_solve((chol22, True), s12.T).T
    cond = s11 - gain @ s12.T
    cond = (cond + cond.T) / 2.0
    return gain, cond, jitter22


def condition(full, known, context=""):
    """Condition the first 64 coordinates on the remaining (n-1)*64.

    ``full`` is the joint covariance with the central block first, ``known``
    the already-sampled continuous stego values of the neighbor blocks.
    """
    values = full.values if isinstance(full, CovarianceMatrix) else np.asarray(full)
    n = values.shape[0]
    known = np.asarray(known, dtype=np.float64).ravel()
    if n < 128 or n % 64:
        raise CovarianceError("joint covariance must cover >= 2 blocks of 64")
    if known.shape[0] != n - 64:
        raise CovarianceError("known vector length does not match neighbors")
    gain, cond, jitter22 = _schur_factors(values, context=context)
    mean = gain @ known
    chol, jitter = cholesky(CovarianceMatrix(cond), context=context)
    return ConditionalGaussian(
        mean=mean, cov=CovarianceMatrix(cond), chol=chol,
        jitter=max(jitter, jitter22))


SUB_BLOCK_LABELS = ("C", "NW", "N", "NE", "W", "E", "SW", "S", "SE")


def analysis_covariance(mode="full", cfa="RGGB", green_kernel="cross"):
    """Stationary DCT covariance for unit i.i.d. photo-site noise.

    mode selects the pipeline variant: "full" is the complete development,
    "demosaic_only" interpolates the red channel only, and "lowpass_only"
    replaces development by the 3x3 low-pass filter.  Returns the 576x576
    covariance over the 9-block neighborhood plus the 9 labeled 64x64
    sub-blocks of the central block against itself and its neighbors.
    """
    side = pipeline.PATCH_SIDE
    if mode == "full":
        front = pipeline.build_luminance(cfa, side, green_kernel)
    elif mode == "demosaic_only":
        front = pipeline.build_demosaic("r", cfa, side, green_kernel)
    elif mode == "lowpass_only":
        front = pipeline.build_lowpass(side)
    else:
        raise CovarianceError(f"unknown analysis mode {mode!r}")
    order = [pipeline.GRID_POS[lbl] for lbl in ("C",) + pipeline.NEIGHBOR_LABELS["L4"]]
    sel = pipeline.build_selection(side, 1)
    perm = pipeline._block_selector(order, grid_n=3)
    dct = pipeline._dct_op(len(order))
    m = dct.compose(perm).compose(sel).compose(front)
    pm = pipeline.PipelineMatrix(
        m=m, n_blocks=9, patch_side=side,
        block_order=("C",) + pipeline.NEIGHBOR_LABELS["L4"])
    cov = sigma_d(pm, DiagonalCovariance(np.ones(side * side)))
    subs = {}
    for idx, lbl in enumerate(pm.block_order):
        subs[lbl] = cov.values[0:64, idx * 64 : (idx + 1) * 64].copy()
    return cov, subs


def write_covariance_csv(path, cov, sub_blocks=None):
    """Write a covariance matrix (and optionally labeled sub-blocks) as CSV.

    Sub-block files are written next to ``path`` with the label appended to
    the stem, each starting with a header line naming the sub-block type.
    """
    values = cov.values if isinstance(cov, CovarianceMatrix) else np.asarray(cov)
    np.savetxt(path, values, delimiter=",", header="full covariance")
    written = [str(path)]
    if sub_blocks:
        stem, ext = os.path.splitext(str(path))
        for lbl, block in sub_blocks.items():
            sub_path = f"{stem}_{lbl}{ext or '.csv'}"
            np.savetxt(sub_path, block, delimiter=",", header=f"sub-block {lbl}")
            written.append(sub_path)
    return written
