"""Stego-signal covariance in the DCT domain and its Cholesky factor.

The photo-site stego signal is independent heteroscedastic Gaussian noise,
so its DCT-domain image under the pipeline operator M has covariance
M diag(v) M^t.  ``cholesky`` factors such a covariance, with escalating
jitter for the singular blocks that clamped variances produce, and
``condition`` reads a block's conditional law off that factor, in the
form the sampling chain takes; both call ``jpegns.blas``'s LAPACK directly.
"""

import ctypes
import functools
import itertools
import operator
import os

import numpy as np

from . import blas, pipeline

# Escalating relative jitter applied when a covariance factorization fails;
# clamped zero variances make dark blocks genuinely singular.
JITTER_LADDER = (1e-12, 1e-10, 1e-8)

# The strictly lower triangle of a 64x64 block.
_LOWER = np.tri(64, k=-1, dtype=bool)

# ``with one_blas_thread:`` runs its body with OpenBLAS on one thread, in
# the build these factors call and in numpy's (``blas.one_thread``).
one_blas_thread = blas.one_thread


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


def cholesky(a, refill=None, zeros=()):
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

    ``zeros`` lists (row, col) pairs, row > col, of 64 x 64 tiles of
    ``a``'s lower triangle that are exactly zero, as for blocks that are
    not 8-connected.  The factor skips them (``_schedule``): tile columns
    are eliminated in groups of mutually zero columns with the same
    nonzero rows below them, each tile by its own ``dpotrf`` and one
    ``dtrsm`` per run of consecutive nonzero rows, then one ``dsyrk`` or
    ``dgemm`` per pair of runs, until the rest is dense or its first
    column would skip nothing split off; one ``dpotrf`` factors that
    rest.  Without zeros it is the whole matrix: LAPACK's dense factor,
    bit for bit.  Zero tiles that the elimination never fills are neither
    read nor written, so L holds them as ``a`` did.  Any attempt that
    fails, in a tile or in the dense rest, goes to the next jitter step.
    A pair outside the lower triangle of ``a``'s tiles raises
    CovarianceError, and a pair not of integers (``operator.index``)
    TypeError, before BLAS runs.
    """
    zeros = _zero_pairs(zeros)
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
    n, base = a.shape[0], a.ctypes.data
    ops = _factor_ops(n, zeros)
    shift = 0.0
    for eps in (0.0,) + JITTER_LADDER:
        if eps:
            refill()
            shift = eps * float(np.mean(np.diag(a)))
            a[np.diag_indices(n)] += shift
        for op in ops:
            if op(base):  # a dpotrf's nonzero info: the attempt failed
                break
        else:
            return a, shift
    raise SingularCovarianceError("covariance not PSD after max jitter")


def _zero_pairs(zeros):
    """``zeros`` as a tuple of (row, col) pairs of Python ints."""
    return tuple((operator.index(r), operator.index(c)) for r, c in zeros)


def _schedule(n, zeros):
    """Elimination order of an order-``n`` factor whose lower 64 x 64
    tiles ``zeros`` are zero: (groups, start), in matrix coordinates.

    Each group (c0, c1, runs) covers the tile columns c0..c1-1, no two of
    which share a nonzero tile, and all of which have the same nonzero
    rows below c1; ``runs`` lists those rows as maximal ranges [r0, r1).
    Eliminating a group fills every tile between two of its rows, and the
    next group is read off the filled pattern.  The columns from ``start``
    on are left to one dense ``dpotrf``: the rest is dense there, or its
    first column, alone and with every row below nonzero, would skip
    nothing.  Without zeros there are no groups and ``start`` is 0.
    """
    if not zeros:
        return (), 0
    tiles, part = divmod(n, 64)
    if part:
        raise CovarianceError(
            f"zero tiles need a matrix of 64 x 64 tiles, got order {n}")
    nonzero = np.ones((tiles, tiles), dtype=bool)
    for r, c in zeros:
        if not 0 <= c < r < tiles:
            raise CovarianceError(f"zero tile ({r}, {c}) is not below the "
                                  f"diagonal of {tiles} x {tiles} tiles")
        nonzero[r, c] = False
    groups, j = [], 0
    while not nonzero[j:, j:].all():
        end = j + 1
        while (end < tiles and not nonzero[end, j:end].any()
               and np.array_equal(nonzero[end + 1 :, end],
                                  nonzero[end + 1 :, j])):
            end += 1
        rows = (np.flatnonzero(nonzero[end:, j]) + end).tolist()
        if end == j + 1 and len(rows) == tiles - end:
            break
        nonzero[np.ix_(rows, rows)] = True
        runs = []
        for r in rows:
            if runs and runs[-1][1] == 64 * r:
                runs[-1][1] += 64
            else:
                runs.append([64 * r, 64 * (r + 1)])
        groups.append((64 * j, 64 * end, tuple(map(tuple, runs))))
        j = end
    return tuple(groups), 64 * j


@functools.lru_cache(maxsize=256)
def fill_in(n, zeros):
    """The pairs of ``zeros`` whose tiles ``cholesky`` and the gain solve
    read on an order-``n`` matrix: the ones ``_schedule``'s elimination
    fills, each group's nonzero rows against each other, and the ones in
    the dense rest.  The other zero tiles are neither read nor written, so
    they need not hold zeros.  Memoized, so ``zeros`` is a tuple.
    """
    zeros = _zero_pairs(zeros)
    groups, start = _schedule(n, zeros)
    filled = set()
    for _, _, runs in groups:
        rows = [r for r0, r1 in runs for r in range(r0 // 64, r1 // 64)]
        filled.update(itertools.combinations(reversed(rows), 2))
    return tuple((r, c) for r, c in zeros
                 if (r, c) in filled or 64 * c >= start)


# BLAS calls bound to an order-n column-major matrix: each takes the
# matrix's base address and returns LAPACK's info (``dpotrf``) or None.
# Matrix arguments are given by the (row, col) element they start at, and
# every leading dimension is n.  A call with an empty dimension would do
# nothing, and its builder returns None in its place.

_ONE = ctypes.c_double(1.0)
_MINUS_ONE = ctypes.c_double(-1.0)


def _potrf(n, size, d):
    """Factor the lower triangle of the size x size block at (d, d):
    ``dpotrf("L")``, returning the ``info`` made for that call."""
    if size <= 0:
        return None
    size, ld, a = ctypes.c_int(size), ctypes.c_int(n), 8 * (d * n + d)

    def potrf(base):
        info = ctypes.c_int(0)
        blas.dpotrf(b"L", size, base + a, ld, info)
        return info.value
    return potrf


def _trsm(n, trans, rows, size, d, b):
    """B := B op(A)^-1 for the rows x size B at ``b`` and the size x size
    lower triangle A at (d, d), op(A) = A^t when ``trans`` is b"T":
    ``dtrsm("R", "L", trans, "N")`` with alpha 1."""
    if rows > 0 and size > 0:
        rows, size, ld = map(ctypes.c_int, (rows, size, n))
        a, b = 8 * (d * n + d), 8 * (b[1] * n + b[0])
        return lambda base: blas.dtrsm(b"R", b"L", trans, b"N", rows, size,
                                       _ONE, base + a, ld, base + b, ld)
    return None


def _syrk(n, size, k, a, d):
    """C := C - A A^t on the lower triangle of the size x size C at
    (d, d), with A the size x k block at ``a``: ``dsyrk("L", "N")`` with
    alpha -1 and beta 1."""
    if size > 0 and k > 0:
        size, k, ld = map(ctypes.c_int, (size, k, n))
        a, c = 8 * (a[1] * n + a[0]), 8 * (d * n + d)
        return lambda base: blas.dsyrk(b"L", b"N", size, k, _MINUS_ONE,
                                       base + a, ld, _ONE, base + c, ld)
    return None


def _gemm(n, trans, rows, cols, k, a, b, c):
    """C := C - A op(B) for the rows x cols C at ``c`` and the rows x k A
    at ``a``; B at ``b`` is k x cols, or cols x k with op(B) = B^t when
    ``trans`` is b"T": ``dgemm("N", trans)`` with alpha -1 and beta 1."""
    if rows > 0 and cols > 0 and k > 0:
        rows, cols, k, ld = map(ctypes.c_int, (rows, cols, k, n))
        a, b, c = (8 * (col * n + row) for row, col in (a, b, c))
        return lambda base: blas.dgemm(b"N", trans, rows, cols, k,
                                       _MINUS_ONE, base + a, ld, base + b,
                                       ld, _ONE, base + c, ld)
    return None


@functools.lru_cache(maxsize=256)
def _factor_ops(n, zeros):
    """``cholesky``'s calls on an order-``n`` matrix with zero tiles
    ``zeros``, in ``_schedule``'s order."""
    groups, start = _schedule(n, zeros)
    ops = []
    for c0, c1, runs in groups:
        for c in range(c0, c1, 64):
            ops.append(_potrf(n, 64, c))
            ops += [_trsm(n, b"T", r1 - r0, 64, c, (r0, c))
                    for r0, r1 in runs]
        for i, (r0, r1) in enumerate(runs):
            ops.append(_syrk(n, r1 - r0, c1 - c0, (r0, c0), r0))
            ops += [_gemm(n, b"T", r1 - r0, s1 - s0, c1 - c0, (r0, c0),
                          (s0, c0), (r0, s0)) for s0, s1 in runs[:i]]
    ops.append(_potrf(n, n - start, start))
    return tuple(op for op in ops if op)


@functools.lru_cache(maxsize=256)
def _gain_ops(n, zeros):
    """``_solve_gain``'s calls on an order-``n`` factor with zero tiles
    ``zeros``: a solve on the part of the dense rest that lies in L_k, then
    ``_schedule``'s groups backwards, clipped to L_k."""
    groups, start = _schedule(n, zeros)
    m = n - 64
    start = min(start, m)
    ops = [_trsm(n, b"N", 64, m - start, start, (m, start))]
    for c0, c1, runs in reversed(groups):
        c1 = min(c1, m)
        ops += [_gemm(n, b"N", 64, c1 - c0, min(r1, m) - r0, (m, r0),
                      (r0, c0), (m, c0)) for r0, r1 in runs]
        ops += [_trsm(n, b"N", 64, 64, c, (m, c))
                for c in range(c0, c1, 64)]
    return tuple(op for op in ops if op)


def _solve_gain(factor, zeros):
    """Mean gain G = C L_k^-1 of a Cholesky factor [[L_k, 0], [C, L_c]]
    whose last 64 coordinates are the unknown ones.

    The solve runs on ``factor`` in place: it reads the lower triangle of
    L_k and overwrites C with G, and nothing else of ``factor`` is
    touched.  ``zeros`` are the factor's zero tiles (``cholesky``), so
    L_k splits as [[D, 0], [B, L22]], with L22 the part of the dense rest
    that lies in L_k and D holding ``_schedule``'s groups.  G2 = C2 L22^-1
    is one right-side ``dtrsm``; then, group by group from the last, one
    ``dgemm`` per run of nonzero rows below the group subtracts what the
    solved columns contribute, and one ``dtrsm`` per tile solves the
    group's columns.  Without zeros L22 is all of L_k.  Returns G copied
    out column-major, (64, n - 64); with n = 64 it is empty.  ``factor``
    is what ``cholesky`` returned (so its layout is checked), and
    ``zeros`` the normalized pairs it was given.
    """
    n, base = factor.shape[0], factor.ctypes.data
    for op in _gain_ops(n, zeros):
        op(base)
    return np.array(factor[n - 64 :, : n - 64], order="F")


def condition(joint, refill=None, zeros=()):
    """Conditional law of a joint's last 64 coordinates given the others.

    ``joint`` is the joint covariance with the known blocks first and the
    center block last; only its lower triangle is read.  Its order n, a
    positive multiple of 64 (else CovarianceError, before BLAS runs), fixes
    the n - 64 known coordinates.  Its Cholesky factor splits as
    [[L_k, 0], [C, L_c]]: L_c is exactly the Cholesky factor of the
    Schur-complement conditional covariance, and the conditional mean gain
    S12 S22^-1 is C L_k^-1, one right-side triangular solve
    (``_solve_gain``).  No matrix is ever inverted explicitly.

    Returns (gain, lower, sigmas, jitter): the conditional mean is
    ``gain @ known`` with ``gain`` a column-major (64, n - 64) array,
    (64, 0) when nothing is known.  ``lower``, a C-order 64 x 64 array, and
    ``sigmas`` are L_c's strictly lower part and |diagonal|, the form
    ``sampler.run_block_chain`` takes; ``jitter`` is the shift the
    factorization needed.  ``refill`` and ``zeros`` are passed to
    ``cholesky``: with ``refill`` the joint is factored in place and its C
    block then holds the gain, and its strict upper triangle is never read
    or written; without it the joint is left unchanged.  ``zeros``, the
    joint's zero tiles, lets the factorization and the solve skip them.
    No returned array shares memory with the joint.
    """
    shape = np.shape(joint)
    if len(shape) != 2 or not 0 < shape[0] == shape[1] or shape[0] % 64:
        raise CovarianceError(f"joint covariance of shape {shape} is not "
                              "square of a positive multiple of 64")
    zeros = _zero_pairs(zeros)
    factor, jitter = cholesky(joint, refill=refill, zeros=zeros)
    # L_c's strict upper part is whatever the joint's upper triangle held.
    center, lower = factor[-64:, -64:], np.zeros((64, 64))
    np.copyto(lower, center, where=_LOWER)
    return (_solve_gain(factor, zeros), lower, np.abs(center.diagonal()),
            jitter)


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
