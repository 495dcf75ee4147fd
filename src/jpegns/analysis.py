"""Machine-readable exports of the covariance structure analyses.

These reproduce the structural decompositions of the DCT-domain covariance
as CSV data: the split of intra-block correlations into demosaicking
artifacts and low-pass filtering, and the ranking of cross-block
correlations that shows continuity between neighboring blocks.
"""

import os

import numpy as np

from . import rng
from .covariance import analysis_covariance


def intra_block_decomposition(cfa="RGGB", green_kernel="cross", out_dir=None):
    """Intra-block covariance and its demosaicking/low-pass superposition.

    Returns a dict with the three 64x64 intra-block matrices (full
    pipeline, red-channel demosaicking only, low-pass only), the
    least-squares superposition weights (alpha, beta) and the relative
    Frobenius residual of full ~ alpha*demosaic + beta*lowpass.  When
    ``out_dir`` is given the matrices are written there as CSV.
    """
    full = analysis_covariance("full", cfa, green_kernel)[1]["C"]
    demo = analysis_covariance("demosaic_only", cfa, green_kernel)[1]["C"]
    lp = analysis_covariance("lowpass_only", cfa, green_kernel)[1]["C"]
    basis = np.stack([demo.ravel(), lp.ravel()], axis=1)
    coef, *_ = np.linalg.lstsq(basis, full.ravel(), rcond=None)
    alpha, beta = (float(c) for c in coef)
    residual = float(
        np.linalg.norm(full - alpha * demo - beta * lp) / np.linalg.norm(full))
    result = {
        "full": full,
        "demosaic_only": demo,
        "lowpass_only": lp,
        "alpha": alpha,
        "beta": beta,
        "residual": residual,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name in ("full", "demosaic_only", "lowpass_only"):
            np.savetxt(os.path.join(out_dir, f"intra_{name}.csv"), result[name],
                       delimiter=",", header=f"intra-block covariance ({name})")
        with open(os.path.join(out_dir, "superposition.csv"), "w") as fh:
            fh.write("alpha,beta,residual\n")
            fh.write(f"{alpha!r},{beta!r},{residual!r}\n")
    return result


def mode_correlation_ranking(mode, cfa="RGGB", green_kernel="cross"):
    """Cross-block covariance partners of one DCT mode, ranked by magnitude.

    ``mode`` is the (u, v) frequency pair of the central block, two
    integers in 0..7 (``rng.check_int``, ValueError).  Returns a
    list of (direction, (u, v), covariance) sorted by decreasing absolute
    covariance over all 8 neighbor directions and 64 modes, computed from
    the stationary unit-variance covariance.  Exactly-zero entries (from
    non-8-connected photo-site support) are omitted.
    """
    u, v = (rng.check_int(index, "mode index", ValueError, 0, 7)
            for index in mode)
    _, subs = analysis_covariance("full", cfa, green_kernel)
    row = 8 * u + v
    ranked = []
    for direction in ("N", "S", "E", "W", "NE", "NW", "SE", "SW"):
        block = subs[direction]
        for j in range(64):
            value = float(block[row, j])
            if value != 0.0:
                ranked.append((direction, (j // 8, j % 8), value))
    ranked.sort(key=lambda item: abs(item[2]), reverse=True)
    return ranked


def write_mode_ranking_csv(path, mode, ranked):
    with open(path, "w") as fh:
        fh.write(f"# cross-block covariance ranking for mode {mode}\n")
        fh.write("direction,mode_u,mode_v,covariance\n")
        for direction, (mu, mv), value in ranked:
            fh.write(f"{direction},{mu},{mv},{value!r}\n")
