"""Explore the DCT-domain covariance of the photo-site stego signal.

Computes the stationary covariance for unit-variance noise, decomposes the
intra-block part into demosaicking and low-pass contributions, and ranks
the cross-block mode couplings that express continuity between blocks.
"""

import numpy as np

from jpegns import intra_block_decomposition, mode_correlation_ranking
from jpegns.covariance import analysis_covariance

cov, subs = analysis_covariance("full", "RGGB")
print("== stationary covariance (unit photo-site variance) ==")
print(f"9-block joint: {cov.shape[0]}x{cov.shape[1]}")
diag = np.diag(subs["C"]).reshape(8, 8)
print("per-mode variances (row scan, first two rows):")
print(np.round(diag[:2], 3))

print("\nFrobenius norm of cross-block coupling with the central block:")
for lbl in ("N", "S", "E", "W", "NE", "NW", "SE", "SW"):
    print(f"  {lbl:3s}: {np.linalg.norm(subs[lbl]):.3f}")

print("\n== intra-block decomposition ==")
result = intra_block_decomposition("RGGB")
print(f"full ~ {result['alpha']:+.3f} * demosaic_red "
      f"{result['beta']:+.3f} * lowpass")
print(f"relative Frobenius residual: {result['residual']:.3f}")

print("\n== strongest cross-block partners ==")
for mode in ((0, 0), (0, 1), (1, 0), (1, 1)):
    ranked = mode_correlation_ranking(mode, cfa="RGGB")
    top = ", ".join(f"{d}:{m}={v:+.3f}" for d, m, v in ranked[:3])
    print(f"mode {mode}: {top}")
print("\nContinuity shows up as partners sharing the frequency along the")
print("shared edge, with signs that stitch the waveforms together.")
