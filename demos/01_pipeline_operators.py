"""Walk through the development pipeline as explicit linear operators.

Builds the demosaicking, luminance, selection, block-extraction and DCT
operators for a 26x26 photo-site patch, shows their shapes and structural
properties, and verifies that the assembled patch-to-DCT matrix maps a
constant patch to DC-only coefficients.
"""

import numpy as np

from jpegns import pipeline as pl

side = pl.PATCH_SIDE

print("== factor operators on a %dx%d patch ==" % (side, side))
for ch in "rgb":
    op = pl.build_demosaic(ch, "RGGB", side)
    rows, cols = op.shape
    print(f"demosaic {ch}: {rows}x{cols}, {op.nnz} nonzeros "
          f"({op.nnz / (rows * cols):.2%} dense)")

lum = pl.build_luminance("RGGB", side)
sel = pl.build_selection(side, 1)
perm = pl.build_permutation([pl.GRID_POS[lbl] for lbl in
                             ("C", "NW", "N", "NE", "W", "E", "SW", "S", "SE")])
dct = pl.build_dct(9)
for name, op in (("luminance", lum), ("selection", sel),
                 ("block extraction", perm), ("blockwise DCT", dct)):
    print(f"{name}: {op.shape[0]}x{op.shape[1]}")

print("\n== kernels at work ==")
grid = pl.cfa_grid("RGGB", 6)
print("CFA layout (6x6):")
for row in grid:
    print("  " + " ".join(row))
op = pl.build_demosaic("g", "RGGB", 6).toarray()
row = op[1 * 6 + 1]  # green estimated at a blue site
print("green kernel at the blue site (1,1):")
print(row.reshape(6, 6)[:3, :3])

print("\n== assembled pipeline ==")
for nb in ("L1", "L2", "L3", "L4"):
    m = pl.assemble(nb, "RGGB")
    out = (m @ np.ones(side * side)).reshape(-1, 64)
    print(f"{nb}: M is {m.shape[0]}x{m.shape[1]}; constant patch -> "
          f"DC {out[0, 0]:.6f}, max |AC| {np.abs(out[:, 1:]).max():.2e}")

print("\n== structural independence ==")
dense = pl.assemble("L4", "RGGB").toarray()
sup = {lbl: set(np.nonzero(dense[i * 64:(i + 1) * 64].any(axis=0))[0])
       for i, lbl in enumerate(("C",) + pl.NEIGHBOR_LABELS["L4"])}
print("photo-sites shared by C and N:", len(sup["C"] & sup["N"]))
print("photo-sites shared by C and NE:", len(sup["C"] & sup["NE"]))
print("photo-sites shared by NW and NE (not 8-connected):",
      len(sup["NW"] & sup["NE"]))
