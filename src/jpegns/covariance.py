"""Stego-signal covariance in the DCT domain and its Cholesky factor.

The photo-site stego signal is independent heteroscedastic Gaussian noise,
so its DCT-domain image under the pipeline operator M has covariance
M diag(v) M^t.  ``cholesky`` factors such a covariance, with escalating
jitter for the singular blocks that clamped variances produce, and
``condition`` reads a block's conditional law off that factor.
"""

import functools
import operator
import os

import numpy as np

from . import blas, pipeline

# Escalating relative jitter applied when a covariance factorization fails;
# clamped zero variances make dark blocks genuinely singular.
JITTER_LADDER = (1e-12, 1e-10, 1e-8)

# The lower triangle, diagonal included, of a 64x64 block.
_LOWER = np.tri(64, dtype=bool)


class CovarianceError(Exception):
    """Covariance construction or factorization failure."""


class SingularCovarianceError(CovarianceError):
    """Not positive semidefinite even after the maximum jitter."""


def photon_variance(x, params):
    """Stego-signal variance max(0, (a2-a1)*x + (b2-b1)); works elementwise.

    Finite parameters can still overflow float64 on a bright photo-site;
    such a variance raises CovarianceError rather than reaching a joint.
    """
    gain = params.a2 - params.a1
    offset = params.b2 - params.b1
    with np.errstate(over="ignore", invalid="ignore"):
        var = np.maximum(0.0, gain * np.asarray(x, dtype=np.float64) + offset)
    if not np.isfinite(var).all():
        raise CovarianceError("stego-signal variance overflows float64")
    return var


def sigma_p(patch, params):
    """Photo-site stego variances of a 26x26 patch (row-major order)."""
    patch = np.asarray(patch, dtype=np.float64)
    if patch.shape != (pipeline.PATCH_SIDE, pipeline.PATCH_SIDE):
        raise CovarianceError(
            f"patch must be {pipeline.PATCH_SIDE}x{pipeline.PATCH_SIDE}")
    return photon_variance(patch.ravel(), params)


def sigma_d(m, v):
    """DCT-domain covariance M diag(v) M^t, symmetrized against round-off.

    ``m`` is a sparse pipeline operator and ``v`` the non-negative
    photo-site variance vector it acts on.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] != m.shape[1]:
        raise CovarianceError("variance vector does not match operator width")
    if np.any(v < 0):
        raise CovarianceError("negative variance")
    scaled = m.multiply(v[np.newaxis, :])
    dense = (scaled @ m.T).toarray()
    return (dense + dense.T) / 2.0


def cholesky(a, refill=None, lead=0):
    """Lower-triangular L with L L^t = a, adding escalating jitter if needed.

    Only ``a``'s lower triangle is read.  Returns (L, jitter_applied), the
    diagonal shift the factorization needed (0.0 when none); nothing is
    logged, so the caller, which knows what ``a`` is, records the shift.
    Raises SingularCovarianceError when the matrix stays indefinite after
    the maximum jitter.  Without ``refill``, ``a`` is never modified: a
    column-major copy of its lower triangle, which must be finite (LAPACK
    factors a NaN without failing), is factored, so the returned L has a
    zero strict upper triangle.  With ``refill``, ``a`` must be a
    writable column-major float64 array (LAPACK's layout, so nothing is
    copied behind it); it is factored in place and returned as L, and
    ``refill()`` must rewrite its lower triangle before each jitter retry,
    since a failed attempt overwrites it.  The factored array's strict
    upper triangle is never read or written: in place, it keeps whatever
    ``a`` held there.

    ``lead`` declares that the first ``lead`` diagonal 64 x 64 tiles are
    the only nonzero tiles of ``a``'s leading 64 * ``lead`` rows and
    columns, as for blocks no two of which are 8-connected.  Each of those
    tiles is then factored on its own (``dpotrf``) and solves its panel
    below the lead (``dtrsm``); one rank update (``dsyrk``) and one
    ``dpotrf`` of the trailing block finish L.  The zero tiles among the
    lead are neither read nor written, so L holds them as ``a`` did.  Below
    a lead of two the trailing block is the whole matrix.  Any attempt
    that fails, in a lead tile or in the trailing block, goes to the next
    jitter step.  ``lead`` is an integer (``operator.index``).
    """
    lead = operator.index(lead)
    if refill is None:
        src = np.asarray(a, dtype=np.float64)
        # ``tril`` would broadcast a 1-d array to a square one.
        src = np.tril(src) if src.ndim == 2 else src
        if not np.isfinite(src).all():
            raise CovarianceError("cholesky needs a finite matrix")
        a = np.array(src, order="F")
        refill = functools.partial(np.copyto, a, src)
    if (a.ndim != 2 or a.shape[0] != a.shape[1] or a.dtype != np.float64
            or not a.flags.f_contiguous or not a.flags.writeable):
        raise CovarianceError("cholesky needs a square writable column-major "
                              f"float64 array, got {a.dtype} of shape "
                              f"{a.shape}")
    n = a.shape[0]
    if not 0 <= 64 * lead <= n:
        raise CovarianceError(f"a lead of {lead} tiles does not fit a "
                              f"matrix of order {n}")
    shift = 0.0
    for eps in (0.0,) + JITTER_LADDER:
        if eps:
            refill()
            shift = eps * float(np.mean(np.diag(a)))
            a[np.diag_indices(n)] += shift
        if _factor_in_place(a, lead) == 0:
            return a, shift
    raise SingularCovarianceError("covariance not PSD after max jitter")


def _factor_in_place(a, lead):
    """LAPACK's info for the in-place lower factor of ``a`` (see cholesky)."""
    n = a.shape[0]
    base, item = a.ctypes.data, a.itemsize
    # A lone tile stays dense: split off, it would round differently.
    k = 64 * lead if lead > 1 else 0
    rest = n - k
    trailing = base + (k * n + k) * item
    for start in range(0, k, 64):
        tile = base + (start * n + start) * item
        info = blas.dpotrf(64, tile, n)
        if info:
            return info
        # The tile's panel below the lead: rows k.. of its columns.
        blas.dtrsm(b"T", rest, 64, tile, n, tile + (k - start) * item, n)
    blas.dsyrk(rest, k, base + k * item, n, trailing, n)
    return blas.dpotrf(rest, trailing, n)


def _solve_gain(factor, m, lead=0):
    """Mean gain G = C L_k^-1 of a Cholesky factor [[L_k, 0], [C, L_c]]
    whose first ``m`` coordinates are known.

    The solve runs on ``factor`` in place: it reads the lower triangle of
    L_k and overwrites C with G, and nothing else of ``factor`` is
    touched.  ``lead`` is the factor's lead (``cholesky``): L_k splits as
    [[D, 0], [B, L22]] with D block-diagonal over ``lead`` 64 x 64 tiles,
    so G = [G1, G2] comes from one right-side ``dtrsm`` on L22
    (G2 = C2 L22^-1), one ``dgemm`` (C1 - G2 B) and one ``dtrsm`` per tile
    of D (G1); below a lead of two, L22 is all of L_k.  Returns G copied
    out column-major, (n - m, m); with m = 0 it is empty and BLAS returns
    at once.  ``factor`` must be a square, writable, column-major
    float64 array with 0 <= m < n and 0 <= 64 * lead <= m, or
    CovarianceError is raised before BLAS sees its pointer.
    """
    if (factor.ndim != 2 or factor.shape[0] != factor.shape[1]
            or factor.dtype != np.float64 or not factor.flags.f_contiguous
            or not factor.flags.writeable or not 0 <= m < factor.shape[0]
            or not 0 <= 64 * lead <= m):
        raise CovarianceError(
            f"gain solve needs a square writable column-major float64 "
            f"factor with 0 <= m < n and a lead that fits m, got "
            f"{factor.dtype} of shape {factor.shape}, m = {m} and "
            f"lead = {lead}")
    n = factor.shape[0]
    base, item = factor.ctypes.data, factor.itemsize
    k = 64 * lead if lead > 1 else 0  # as ``_factor_in_place`` splits
    # C starts at element (m, 0), and every block has stride n.
    gain = base + m * item
    blas.dtrsm(b"N", n - m, m - k, base + (k * n + k) * item, n,
               gain + k * n * item, n)
    blas.dgemm(n - m, k, m - k, gain + k * n * item, n, base + k * item, n,
               gain, n)
    for start in range(0, k, 64):
        blas.dtrsm(b"N", n - m, 64, base + (start * n + start) * item, n,
                   gain + start * n * item, n)
    return np.array(factor[m:, :m], order="F")


def condition(joint, n_known, refill=None, lead=0):
    """Conditional law of the last 64 coordinates given the first ``n_known``.

    ``joint`` is the joint covariance with the known blocks first and the
    center block last; only its lower triangle is read.  Its Cholesky
    factor splits as [[L_k, 0], [C, L_c]]: L_c is exactly the Cholesky
    factor of the Schur-complement conditional covariance, and the
    conditional mean gain S12 S22^-1 is C L_k^-1, one right-side triangular
    solve (``_solve_gain``).  No matrix is ever inverted explicitly.

    Returns (gain, chol, jitter): the conditional mean is ``gain @ known``
    with ``gain`` a column-major (64, n_known) array, (64, 0) when nothing
    is known, so its product with the empty ``known`` is zero.  ``chol``
    factors the conditional covariance and ``jitter`` is the shift the
    factorization needed.  ``refill`` and ``lead`` are passed to
    ``cholesky``: with ``refill`` the joint is factored in place and its C
    block then holds the gain, and its strict upper triangle is never read
    or written; without it the joint is left unchanged.  ``lead`` (at most
    n_known / 64 blocks) lets the factorization and the solve skip the
    zero tiles among the leading known blocks.  Both counts are integers
    (``operator.index``); ``gain`` and ``chol`` never share memory with
    the joint.
    """
    m, lead = operator.index(n_known), operator.index(lead)
    if m < 0 or m % 64 or np.shape(joint) != (m + 64, m + 64):
        raise CovarianceError(
            f"joint covariance of shape {np.shape(joint)} does not hold "
            f"{m} known coordinates and one block of 64")
    if not 0 <= 64 * lead <= m:
        raise CovarianceError(
            f"a lead of {lead} blocks does not fit {m} known coordinates")
    factor, jitter = cholesky(joint, refill=refill, lead=lead)
    # L_c's strict upper part is whatever the joint's upper triangle held.
    chol = np.zeros((64, 64))
    np.copyto(chol, factor[m:, m:], where=_LOWER)
    return _solve_gain(factor, m, lead), chol, jitter


def analysis_covariance(mode="full", cfa="RGGB", green_kernel="cross"):
    """Stationary DCT covariance for unit i.i.d. photo-site noise.

    mode selects the pipeline variant: "full" is the complete development,
    "demosaic_only" interpolates the red channel only, and "lowpass_only"
    replaces development by the 3x3 low-pass filter.  Returns the 576x576
    covariance over the 9-block neighborhood plus the 9 labeled 64x64
    sub-blocks of the central block against itself and its neighbors,
    keyed in the covariance's block order.
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
    labels = ("C",) + pipeline.NEIGHBOR_LABELS["L4"]
    cov = sigma_d(pipeline.patch_operator(front, labels), np.ones(side * side))
    subs = {lbl: cov[0:64, idx * 64 : (idx + 1) * 64].copy()
            for idx, lbl in enumerate(labels)}
    return cov, subs


def write_covariance_csv(path, cov, sub_blocks=None):
    """Write a covariance matrix (and optionally labeled sub-blocks) as CSV.

    Sub-block files are written next to ``path`` with the label appended to
    the stem, each starting with a header line naming the sub-block type.
    """
    np.savetxt(path, cov, delimiter=",", header="full covariance")
    written = [str(path)]
    if sub_blocks:
        stem, ext = os.path.splitext(str(path))
        for lbl, block in sub_blocks.items():
            sub_path = f"{stem}_{lbl}{ext or '.csv'}"
            np.savetxt(sub_path, block, delimiter=",", header=f"sub-block {lbl}")
            written.append(sub_path)
    return written
