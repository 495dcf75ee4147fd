"""Sparse linear operators of the development pipeline.

The pipeline maps a 26x26 patch of photo-sites (a 3x3 grid of 8x8 blocks
plus a one-photo-site border so that interior interpolation kernels never
truncate) to unquantized DCT coefficients of selected blocks:

    dct_coeffs = dct_op . block_select_op . interior_select_op . luminance_op

All vectorization is row-major.  Operators are ``scipy.sparse`` CSR
matrices, densified only for covariance products.  Their integer sizes
(``side``, ``border``, ``n_blocks``, ``grid_n`` and the block labels)
are checked by ``rng.check_int`` and refused with PipelineError.
"""

import functools

import numpy as np
import scipy.sparse as sps
from numpy.lib.stride_tricks import sliding_window_view

from . import rng
from .raw_io import BAYER_PATTERNS, UnknownCfaError

PATCH_SIDE = 26  # 3 * 8 + 2
BLOCK = 8

# BT.709 luminance weights; they sum to exactly 1.0 in float64.
LUMA_WEIGHTS = {"r": 0.2126, "g": 0.7152, "b": 0.0722}

# Position of each named block in the 3x3 grid of 8x8 blocks.
GRID_POS = {
    "C": (1, 1),
    "NW": (0, 0),
    "N": (0, 1),
    "NE": (0, 2),
    "W": (1, 0),
    "E": (1, 2),
    "SW": (2, 0),
    "S": (2, 1),
    "SE": (2, 2),
}

# Conditioning neighbor labels per macro-lattice; the central block always
# comes first in the assembled ordering.
NEIGHBOR_LABELS = {
    "L1": (),
    "L2": ("NW", "NE", "SW", "SE"),
    "L3": ("N", "W", "E", "S"),
    "L4": ("NW", "N", "NE", "W", "E", "SW", "S", "SE"),
}


class PipelineError(Exception):
    """Operator construction failure."""


def _csr(rows, cols, triplets):
    """CSR matrix from (row, col, value) triplets; duplicates are an error."""
    r, c, v = (np.asarray(x) for x in zip(*triplets)) if triplets else (
        np.empty(0, int), np.empty(0, int), np.empty(0, float))
    if len(r) != len(set(zip(r.tolist(), c.tolist()))):
        raise PipelineError("duplicate (row, col) entry in sparse operator")
    return sps.coo_matrix((v.astype(np.float64), (r, c)),
                          shape=(rows, cols)).tocsr()


def _check_selector(m, what):
    """Raise unless ``m`` holds only 0/1 entries, at most one per row."""
    if not np.all(np.isin(m.data, (0.0, 1.0))):
        raise PipelineError(f"{what} entries must be 0/1")
    if np.any(np.diff(m.indptr) > 1):
        raise PipelineError(f"{what} rows must have <= 1 entry")
    return m


def _check_row_sums(m, what, tol):
    """Raise unless every row of ``m`` sums to 1 within ``tol``."""
    sums = np.asarray(m.sum(axis=1)).ravel()
    if not np.all(np.abs(sums - 1.0) <= tol):
        raise PipelineError(f"{what} rows must sum to 1")
    return m


def cfa_grid(cfa, side):
    """(side, side) array of channel characters for the given Bayer layout."""
    if cfa not in BAYER_PATTERNS:
        raise UnknownCfaError(f"unknown CFA pattern {cfa!r}")
    tile = np.array([[cfa[0], cfa[1]], [cfa[2], cfa[3]]])
    reps = (side + 1) // 2
    return np.tile(tile, (reps, reps))[:side, :side]


def shift_cfa(cfa, dy, dx):
    """CFA pattern seen by a grid whose origin sits at offset (dy, dx)."""
    grid = cfa_grid(cfa, 4)
    sub = grid[dy % 2 : dy % 2 + 2, dx % 2 : dx % 2 + 2]
    return "".join(sub.ravel().tolist()).upper()


def _kernel_offsets(kind):
    if kind == "native":
        return [(0, 0)]
    if kind == "cross":
        return [(-1, 0), (1, 0), (0, -1), (0, 1)]
    if kind == "hpair":
        return [(0, -1), (0, 1)]
    if kind == "vpair":
        return [(-1, 0), (1, 0)]
    if kind == "corner":
        return [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    raise PipelineError(f"unknown kernel kind {kind!r}")


def classify_site(grid, r, c, channel, green_kernel="cross"):
    """Interpolation kernel kind used to reconstruct ``channel`` at (r, c).

    The classification assumes the CFA is periodic beyond the grid edges, so
    it depends only on parity, and mirrors the full-image development path.
    """
    ch = channel.upper()
    side = grid.shape[0]

    def at(rr, cc):
        return grid[rr % side, cc % side]

    if at(r, c) == ch:
        return "native"
    if ch == "G" and green_kernel == "corner":
        return "corner"
    if all(at(r + dr, c + dc) == ch for dr, dc in _kernel_offsets("cross")):
        return "cross"
    if at(r, c - 1) == ch and at(r, c + 1) == ch:
        return "hpair"
    if at(r - 1, c) == ch and at(r + 1, c) == ch:
        return "vpair"
    if all(at(r + dr, c + dc) == ch for dr, dc in _kernel_offsets("corner")):
        return "corner"
    raise PipelineError(f"no interpolation rule for channel {ch} at ({r},{c})")


def _kernel_row(taps, r, c, side):
    """(row, col, weight) triplets of one kernel centred on site (r, c).

    ``taps`` lists ((dr, dc), weight) pairs.  Taps outside the grid are
    dropped and the kept weights divided by their sum; the last weight is
    chosen so the kept weights sum to exactly 1.0.
    """
    kept = [((dr, dc), w) for (dr, dc), w in taps
            if 0 <= r + dr < side and 0 <= c + dc < side]
    if not kept:
        raise PipelineError("kernel entirely outside the grid")
    total = sum(w for _, w in kept)
    row = r * side + c
    out = []
    partial = 0.0
    for i, ((dr, dc), w) in enumerate(kept):
        wn = 1.0 - partial if i == len(kept) - 1 else w / total
        out.append((row, (r + dr) * side + (c + dc), wn))
        partial += wn
    return out


def build_demosaic(channel, cfa, side=PATCH_SIDE, green_kernel="cross"):
    """Bilinear demosaicking of one channel as a side^2 x side^2 operator.

    Row i holds the interpolation kernel reconstructing ``channel`` at
    photo-site i (row-major).  Native sites get an identity row; green uses
    the 4-neighbor cross kernel by default (``green_kernel="corner"``
    selects the 4-corner variant); red/blue use horizontal/vertical pairs at
    green sites and the 4-corner kernel at opposite-color sites.  Kernels
    truncated by the grid edge are renormalized to keep unit row sums.
    """
    channel = channel.lower()
    if channel not in ("r", "g", "b"):
        raise PipelineError(f"unknown channel {channel!r}")
    side = rng.check_int(side, "side", PipelineError, 3)
    if green_kernel not in ("cross", "corner"):
        raise PipelineError(f"unknown green kernel {green_kernel!r}")
    grid = cfa_grid(cfa, side)
    triplets = []
    for r in range(side):
        for c in range(side):
            kind = classify_site(grid, r, c, channel, green_kernel)
            taps = [(off, 1.0) for off in _kernel_offsets(kind)]
            triplets += _kernel_row(taps, r, c, side)
    return _check_row_sums(_csr(side**2, side**2, triplets),
                           f"demosaic_{channel}", 0.0)


def build_luminance(cfa, side=PATCH_SIDE, green_kernel="cross"):
    """BT.709 luminance of the demosaicked channels as one operator."""
    parts = [LUMA_WEIGHTS[ch] * build_demosaic(ch, cfa, side, green_kernel)
             for ch in ("r", "g", "b")]
    return parts[0] + parts[1] + parts[2]


def build_lowpass(side=PATCH_SIDE):
    """3x3 low-pass filter (1/12)[[1,1,1],[1,4,1],[1,1,1]] as an operator.

    Used only for covariance structure analysis; edge kernels are truncated
    and renormalized like the demosaicking kernels.
    """
    side = rng.check_int(side, "side", PipelineError, 3)
    taps = [((dr, dc), 4.0 / 12.0 if (dr, dc) == (0, 0) else 1.0 / 12.0)
            for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    triplets = []
    for r in range(side):
        for c in range(side):
            triplets += _kernel_row(taps, r, c, side)
    # Nine-tap rows hit numpy's unordered reduction, so exactness cannot be
    # promised here; the kernel itself is exactly 12/12.
    return _check_row_sums(_csr(side**2, side**2, triplets), "lowpass", 1e-12)


def build_selection(side=PATCH_SIDE, border=1):
    """Discard the outer ``border`` photo-sites: (side-2b)^2 x side^2 selector."""
    side = rng.check_int(side, "side", PipelineError, 1)
    border = rng.check_int(border, "border", PipelineError, 0)
    if side <= 2 * border:
        raise PipelineError("side must exceed twice the border")
    inner = side - 2 * border
    triplets = []
    for r in range(inner):
        for c in range(inner):
            triplets.append((r * inner + c, (r + border) * side + (c + border), 1.0))
    return _check_selector(_csr(inner**2, side**2, triplets), "selection")


def build_permutation(order, grid_n=3):
    """Block extraction/permutation operator over an NxN grid of 8x8 blocks.

    ``order`` lists (i, j) grid positions; the result stacks the row-major
    vectorization of each selected block in that order.
    """
    grid_n = rng.check_int(grid_n, "grid_n", PipelineError, 1)
    order = [tuple(rng.check_int(x, "block label index", PipelineError, 0,
                                 grid_n - 1) for x in label)
             for label in order]
    area_side = grid_n * BLOCK
    seen = set()
    for (i, j) in order:
        if (i, j) in seen:
            raise PipelineError(f"duplicate block label {(i, j)}")
        seen.add((i, j))
    triplets = []
    for b, (i, j) in enumerate(order):
        for u in range(BLOCK):
            for v in range(BLOCK):
                row = b * 64 + u * BLOCK + v
                col = (i * BLOCK + u) * area_side + (j * BLOCK + v)
                triplets.append((row, col, 1.0))
    return _check_selector(_csr(len(order) * 64, area_side**2, triplets),
                           "permutation")


def dct_matrix():
    """The orthonormal 8-point DCT-II matrix (rows indexed by frequency)."""
    k = np.arange(BLOCK)
    x = np.arange(BLOCK)
    a = np.cos(np.pi * np.outer(k, 2 * x + 1) / (2 * BLOCK)) / 2.0
    a[0, :] /= np.sqrt(2.0)
    return a


def _dct_op(n_blocks):
    a = dct_matrix()
    tb = sps.csr_matrix(np.kron(a, a))
    return sps.block_diag([tb] * n_blocks, format="csr")


def build_dct(n_blocks):
    """Blockwise 2-D DCT on n row-major-vectorized 8x8 blocks (n in 1/5/9)."""
    n_blocks = rng.check_int(n_blocks, "n_blocks", PipelineError, 1, 9)
    if n_blocks not in (1, 5, 9):
        raise PipelineError("n_blocks must be one of 1, 5, 9")
    return _dct_op(n_blocks)


def patch_operator(front, labels):
    """DCT . block selector . interior selection . ``front`` on a 26x26 patch.

    ``front`` maps the patch photo-sites to one image plane (luminance for
    the development); ``labels`` names the blocks of the 3x3 grid to stack,
    in order.
    """
    order = [GRID_POS[lbl] for lbl in labels]
    return (_dct_op(len(order)) @ build_permutation(order)
            @ build_selection(PATCH_SIDE, 1) @ front)


def assemble(neighborhood, cfa, green_kernel="cross"):
    """Assemble the full patch-to-DCT operator for one conditioning neighborhood.

    ``neighborhood`` is "L1".."L4"; the block order is the central block
    followed by the lattice's conditioning neighbors.  ``cfa`` is the layout
    of the 26x26 patch grid itself.
    """
    if neighborhood not in NEIGHBOR_LABELS:
        raise PipelineError(f"unknown neighborhood {neighborhood!r}")
    return patch_operator(build_luminance(cfa, PATCH_SIDE, green_kernel),
                          ("C",) + NEIGHBOR_LABELS[neighborhood])


def patch_cfa_for_image(image_cfa):
    """CFA of a block-neighborhood patch cut from an image with this layout.

    Patches start one photo-site before a block boundary, i.e. at odd image
    coordinates, so the patch grid sees the image CFA shifted by (1, 1).
    """
    return shift_cfa(image_cfa, 1, 1)


@functools.lru_cache(maxsize=None)
def block_support_tensor(image_cfa, green_kernel="cross"):
    """(64, 10, 10) pipeline weights of one 8x8 block on its own photo-sites.

    Entry [coeff, u, v] weighs the photo-site at [u, v] of the block's
    ``block_windows`` window in DCT coefficient ``coeff`` (row-major
    frequency order).  The tensor is identical for every block of the
    image because blocks start at even coordinates.  It is cached and
    read-only.
    """
    m = assemble("L1", patch_cfa_for_image(image_cfa), green_kernel)
    dense = m.toarray().reshape(64, PATCH_SIDE, PATCH_SIDE)
    support = dense[:, 8:18, 8:18].copy()
    rest = dense.copy()
    rest[:, 8:18, 8:18] = 0.0
    if np.any(rest != 0.0):
        raise PipelineError("block support wider than 10x10 photo-sites")
    support.flags.writeable = False
    return support


def block_windows(plane):
    """(bh, bw, 10, 10) view of every 8x8 block's photo-site support.

    Window [i, j] covers image rows 8i-1..8i+8 and columns 8j-1..8j+8 of
    ``plane`` padded by one site, so edge blocks get a window of the same
    shape as interior ones.  The padding repeats the border site
    (``mode="edge"``); it does not continue the CFA.  A padded site holds
    a copy of the adjacent border site's value, whose CFA color differs
    from the padded position's, not a photo site of its own.
    """
    pad = np.pad(plane, 1, mode="edge")
    return sliding_window_view(pad, (10, 10))[::BLOCK, ::BLOCK]
