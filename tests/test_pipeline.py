import numpy as np
import pytest
from scipy.fft import dctn

from jpegns import pipeline as pl
from jpegns.pipeline import PipelineError


def dct2_reference(block):
    """Independent separable 2-D DCT oracle (same scaling as JPEG)."""
    return dctn(block, type=2, norm="ortho")


# -- demosaicking -------------------------------------------------------------


def test_green_native_sites_identity_rows():
    op = pl.build_demosaic("g", "RGGB", side=8).toarray()
    grid = pl.cfa_grid("RGGB", 8)
    for r in range(8):
        for c in range(8):
            i = r * 8 + c
            if grid[r, c] == "G":
                expected = np.zeros(64)
                expected[i] = 1.0
                assert np.array_equal(op[i], expected)


def test_red_at_blue_site_is_corner_kernel():
    op = pl.build_demosaic("r", "RGGB", side=8).toarray()
    # (1, 1) is a blue site on RGGB; red comes from the four diagonals.
    row = op[1 * 8 + 1]
    nz = {int(i): row[i] for i in np.nonzero(row)[0]}
    assert nz == {0 * 8 + 0: 0.25, 0 * 8 + 2: 0.25,
                  2 * 8 + 0: 0.25, 2 * 8 + 2: 0.25}


def test_red_at_green_sites_pair_kernels():
    op = pl.build_demosaic("r", "RGGB", side=8).toarray()
    # (0, 1): green in a red row -> horizontal red pair.
    row = op[0 * 8 + 1]
    nz = {int(i): row[i] for i in np.nonzero(row)[0]}
    assert nz == {0 * 8 + 0: 0.5, 0 * 8 + 2: 0.5}
    # (1, 0): green in a blue row -> vertical red pair.
    row = op[1 * 8 + 0]
    nz = {int(i): row[i] for i in np.nonzero(row)[0]}
    assert nz == {0 * 8 + 0: 0.5, 2 * 8 + 0: 0.5}


@pytest.mark.parametrize("cfa", ("RGGB", "BGGR", "GRBG", "GBRG"))
@pytest.mark.parametrize("channel", ("r", "g", "b"))
@pytest.mark.parametrize("green_kernel", ("cross", "corner"))
def test_demosaic_rows_sum_to_one_exactly(cfa, channel, green_kernel):
    op = pl.build_demosaic(channel, cfa, side=10, green_kernel=green_kernel)
    sums = np.asarray(op.sum(axis=1)).ravel()
    assert np.all(sums == 1.0)


def test_green_interior_uses_cross_kernel_by_default():
    op = pl.build_demosaic("g", "RGGB", side=8).toarray()
    # (1, 1) is blue; green interpolates from the 4-connected neighbors.
    row = op[1 * 8 + 1]
    nz = {int(i): row[i] for i in np.nonzero(row)[0]}
    assert nz == {0 * 8 + 1: 0.25, 1 * 8 + 0: 0.25,
                  1 * 8 + 2: 0.25, 2 * 8 + 1: 0.25}


def test_green_corner_variant_reproduces_printed_kernel():
    op = pl.build_demosaic("g", "RGGB", side=8, green_kernel="corner").toarray()
    row = op[1 * 8 + 1]
    nz = {int(i): row[i] for i in np.nonzero(row)[0]}
    assert nz == {0: 0.25, 2: 0.25, 16: 0.25, 18: 0.25}


def test_border_kernels_renormalized():
    op = pl.build_demosaic("g", "RGGB", side=8).toarray()
    # (0, 0) is red; at the corner only the east and south green neighbors
    # remain of the cross kernel, renormalized to sum exactly 1.
    row = op[0]
    nz = {int(i): row[i] for i in np.nonzero(row)[0]}
    assert set(nz) == {0 * 8 + 1, 1 * 8 + 0}
    assert sum(nz.values()) == 1.0


def test_demosaic_side_too_small():
    with pytest.raises(PipelineError):
        pl.build_demosaic("g", "RGGB", side=2)


# -- luminance ----------------------------------------------------------------


def test_luminance_preserves_constants():
    op = pl.build_luminance("RGGB", side=26)
    out = op @ np.ones(26 * 26)
    assert np.abs(out - 1.0).max() <= 1e-14


def test_luminance_green_weight():
    # A native green site takes its own value only through the green plane,
    # so its diagonal entry is exactly the BT.709 green weight.
    op = pl.build_luminance("RGGB", side=8).toarray()
    grid = pl.cfa_grid("RGGB", 8)
    for r in range(1, 7):
        for c in range(1, 7):
            if grid[r, c] == "G":
                assert op[r * 8 + c, r * 8 + c] == 0.7152


def test_luminance_is_weighted_sum_of_channels():
    ops = {ch: pl.build_demosaic(ch, "GRBG", side=10).toarray()
           for ch in ("r", "g", "b")}
    lum = pl.build_luminance("GRBG", side=10).toarray()
    combined = 0.2126 * ops["r"] + 0.7152 * ops["g"] + 0.0722 * ops["b"]
    assert np.abs(lum - combined).max() <= 1e-16


# -- selection ----------------------------------------------------------------


def test_selection_shape():
    op = pl.build_selection(26, 1)
    assert op.shape == (576, 676)


def test_selection_extracts_interior():
    grid = np.arange(26 * 26, dtype=float).reshape(26, 26)
    out = pl.build_selection(26, 1) @ grid.ravel()
    assert np.array_equal(out.reshape(24, 24), grid[1:-1, 1:-1])


def test_selection_structure():
    m = pl.build_selection(26, 1)
    assert np.all(np.diff(m.indptr) == 1)  # exactly one 1 per row
    col_sums = np.asarray(m.sum(axis=0)).ravel()
    assert set(np.unique(col_sums)) <= {0.0, 1.0}


def test_selection_invalid_sizes():
    with pytest.raises(PipelineError):
        pl.build_selection(2, 1)


# -- block permutation --------------------------------------------------------


def test_permutation_extracts_central_block():
    grid = np.arange(24 * 24, dtype=float).reshape(24, 24)
    out = pl.build_permutation([(1, 1)]) @ grid.ravel()
    assert np.array_equal(out.reshape(8, 8), grid[8:16, 8:16])


def test_permutation_five_block_concatenation():
    grid = np.arange(24 * 24, dtype=float).reshape(24, 24)
    order = [(1, 1), (0, 0), (0, 2), (2, 0), (2, 2)]
    out = pl.build_permutation(order) @ grid.ravel()
    expected = np.concatenate(
        [grid[8 * i : 8 * i + 8, 8 * j : 8 * j + 8].ravel() for i, j in order])
    assert np.array_equal(out, expected)


def test_full_nine_block_permutation_is_orthogonal():
    order = [(i, j) for i in range(3) for j in range(3)]
    p = pl.build_permutation(order).toarray()
    assert p.shape == (576, 576)
    assert np.array_equal(p @ p.T, np.eye(576))


def test_permutation_rejects_duplicates_and_out_of_range():
    with pytest.raises(PipelineError):
        pl.build_permutation([(1, 1), (1, 1)])
    with pytest.raises(PipelineError):
        pl.build_permutation([(3, 0)])


# -- DCT ----------------------------------------------------------------------


def test_dct_matrix_coefficients():
    a = pl.dct_matrix()
    coeffs = 0.5 * np.cos(np.array([4, 1, 2, 3, 5, 6, 7]) * np.pi / 16.0)
    # First row is the DC row cos(pi/4)/2; second row starts with cos(pi/16)/2.
    assert np.allclose(a[0], coeffs[0], atol=1e-15)
    assert abs(a[1, 0] - coeffs[1]) <= 1e-15
    assert abs(a[2, 0] - coeffs[2]) <= 1e-15


def test_dct_matrix_orthogonal():
    a = pl.dct_matrix()
    assert np.abs(a @ a.T - np.eye(8)).max() <= 1e-12


def test_block_dct_constant_goes_to_dc():
    op = pl.build_dct(1)
    out = op @ np.full(64, 3.0)
    assert abs(out[0] - 24.0) <= 1e-12
    assert np.abs(out[1:]).max() <= 1e-12


def test_block_dct_matches_separable_oracle():
    op = pl.build_dct(1)
    rng = np.random.default_rng(7)
    for _ in range(50):
        block = rng.normal(size=(8, 8))
        ours = (op @ block.ravel()).reshape(8, 8)
        assert np.abs(ours - dct2_reference(block)).max() <= 1e-10


def test_dct_invalid_block_count():
    with pytest.raises(PipelineError):
        pl.build_dct(4)


# -- assembly -----------------------------------------------------------------


def test_assemble_shapes():
    m1 = pl.assemble("L1", "RGGB")
    m4 = pl.assemble("L4", "RGGB")
    assert m1.shape == (64, 676)
    assert m4.shape == (576, 676)
    # Block order: the central block, then the lattice's neighbors.
    assert ("C",) + pl.NEIGHBOR_LABELS["L4"] == (
        "C", "NW", "N", "NE", "W", "E", "SW", "S", "SE")
    lum = pl.build_luminance("RGGB")
    for i, lbl in enumerate(("C",) + pl.NEIGHBOR_LABELS["L4"]):
        one = pl.patch_operator(lum, (lbl,))
        assert (m4[i * 64 : (i + 1) * 64] != one).nnz == 0


def test_assemble_constant_input_dc_only():
    for nb in ("L1", "L2", "L3", "L4"):
        m = pl.assemble(nb, "BGGR")
        out = (m @ np.ones(676)).reshape(-1, 64)
        assert np.abs(out[:, 0] - 8.0).max() <= 1e-12
        assert np.abs(out[:, 1:]).max() <= 1e-12


def test_assemble_linearity():
    m = pl.assemble("L2", "RGGB")
    rng = np.random.default_rng(3)
    u, v = rng.normal(size=676), rng.normal(size=676)
    a, b = 1.7, -0.4
    lhs = m @ (a * u + b * v)
    rhs = a * (m @ u) + b * (m @ v)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_selection_luminance_chain_preserves_ones():
    lum = pl.build_luminance("RGGB", 26)
    sel = pl.build_selection(26, 1)
    out = sel @ (lum @ np.ones(676))
    assert np.abs(out - 1.0).max() <= 1e-14


def test_non_connected_blocks_have_disjoint_support():
    dense = pl.assemble("L4", "RGGB").toarray()
    order = ("C",) + pl.NEIGHBOR_LABELS["L4"]
    support = {lbl: set(np.nonzero(dense[i * 64 : (i + 1) * 64].any(axis=0))[0])
               for i, lbl in enumerate(order)}
    # NW and NE are two blocks apart horizontally: not 8-connected.
    assert not (support["NW"] & support["NE"])
    assert not (support["NW"] & support["SE"])
    assert not (support["N"] & support["S"])
    # Adjacent blocks do share photo-sites.
    assert support["C"] & support["N"]


def test_unknown_neighborhood_or_cfa():
    with pytest.raises(PipelineError):
        pl.assemble("L5", "RGGB")
    with pytest.raises(Exception):
        pl.build_demosaic("g", "RGBG", side=8)


# -- cfa helpers & support tensor ---------------------------------------------


def test_cfa_grid_layouts():
    g = pl.cfa_grid("GRBG", 4)
    assert "".join(g[0]) == "GRGR"
    assert "".join(g[1]) == "BGBG"


def test_patch_cfa_shift():
    assert pl.patch_cfa_for_image("RGGB") == "BGGR"
    assert pl.patch_cfa_for_image("BGGR") == "RGGB"
    assert pl.patch_cfa_for_image("GRBG") == "GBRG"
    assert pl.patch_cfa_for_image("GBRG") == "GRBG"


def test_block_support_tensor_shape_and_fit():
    w = pl.block_support_tensor("RGGB")
    assert w.shape == (64, 10, 10)
    # Constant input: only the DC row responds, with total weight 8.
    total = w.sum(axis=(1, 2))
    assert abs(total[0] - 8.0) <= 1e-12
    assert np.abs(total[1:]).max() <= 1e-12


def test_operator_entries_round_trip():
    op = pl.build_selection(10, 1)
    coo = op.tocoo()
    triplets = list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    rebuilt = pl._csr(*op.shape, triplets)
    assert (rebuilt != op).nnz == 0
    with pytest.raises(PipelineError, match="duplicate"):
        pl._csr(*op.shape, triplets + triplets[:1])
