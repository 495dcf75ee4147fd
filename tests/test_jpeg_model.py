import numpy as np
import pytest

from jpegns import (
    ChecksumError,
    FormatError,
    JpegCoefficients,
    RawImage,
    TruncationError,
    develop_cover,
    nzac_count,
    quant_table,
    read_coeffs,
    write_coeffs,
)
from jpegns import jpeg_model as jm
from jpegns import pipeline as pl
from jpegns.embedder import CostPlane, read_costs, write_costs
from jpegns.covariance import sigma_p
from jpegns.jpeg_model import CoefficientsError
from jpegns.raw_io import DimensionError


# -- quantization tables --------------------------------------------------------


def test_qf100_all_ones():
    assert np.all(quant_table(100).steps == 1)


def test_qf50_is_reference_table():
    t = quant_table(50)
    assert np.array_equal(t.steps, jm.STANDARD_LUMINANCE_TABLE)
    assert t.steps[0, 0] == 16


def test_qf75_dc_step():
    # floor((16 * 50 + 50) / 100) = 8.
    assert quant_table(75).steps[0, 0] == 8


def test_qf_bounds():
    for qf in (0, 101, -3):
        with pytest.raises(CoefficientsError):
            quant_table(qf)
    assert quant_table(1).steps.min() >= 1


# -- development ------------------------------------------------------------------


def make_raw(data, params, cfa="RGGB"):
    return RawImage(data=np.asarray(data, float), cfa=cfa, bit_depth=12,
                    params=params)


def test_develop_constant_image(paper_params):
    raw = make_raw(np.full((24, 24), 1000.0), paper_params)
    dct_plane, cover = develop_cover(raw, 75)
    # DC = round(8 * (1000 - 2048) / 8) = -1048, all AC zero.
    assert np.all(cover.coeffs[:, :, 0, 0] == -1048)
    ac = cover.coeffs.reshape(3, 3, 64)[:, :, 1:]
    assert np.all(ac == 0)
    assert cover.role == "cover"


def test_develop_quantization_bound(paper_params):
    rng = np.random.default_rng(0)
    raw = make_raw(np.floor(rng.uniform(0, 4095, size=(32, 32))), paper_params)
    dct_plane, cover = develop_cover(raw, 85)
    steps = np.tile(cover.table.steps, (4, 4))
    dequant = cover.plane() * steps
    assert np.all(np.abs(dequant - dct_plane) <= 0.5 * steps + 1e-9)
    # The blockwise DCT is orthonormal up to the x8 DC scaling convention,
    # so the spatial reconstruction error is bounded by the coefficient
    # error norm: |pixel err| <= sqrt(64) * max step / 2.
    a = pl.dct_matrix()
    blocks = dequant.reshape(4, 8, 4, 8).transpose(0, 2, 1, 3)
    spatial = np.einsum("ji,bcjk,kl->bcil", a, blocks, a, optimize=True)
    pad = np.pad(raw.data, 1, mode="edge")
    lum = pl.build_luminance(pl.shift_cfa(raw.cfa, -1, -1), side=34)
    luma = lum.apply(pad.ravel()).reshape(34, 34)[1:-1, 1:-1] - 2048.0
    luma_blocks = luma.reshape(4, 8, 4, 8).transpose(0, 2, 1, 3)
    bound = 8.0 * 0.5 * cover.table.steps.max()
    assert np.abs(spatial - luma_blocks).max() <= bound


def test_develop_matches_patch_operator(paper_params):
    # Every block, edge blocks included, develops to the patch operator
    # applied to its 26x26 patch of the replicate-padded mosaic, for all
    # four CFAs and both green kernels.
    rng = np.random.default_rng(1)
    data = np.floor(rng.uniform(500, 3500, size=(48, 48)))
    # Replicate padding by 9 sites puts every patch inside the array; only
    # the first ring of padding reaches a central block's support.
    padded = np.pad(data, 9, mode="edge")
    shift = 2048.0
    for cfa in ("RGGB", "BGGR", "GRBG", "GBRG"):
        raw = make_raw(data, paper_params, cfa)
        for kernel in ("cross", "corner"):
            dct_plane, _ = develop_cover(raw, 95, kernel)
            pm = pl.assemble("L1", pl.patch_cfa_for_image(cfa), kernel)
            for bi in range(6):
                for bj in range(6):
                    patch = padded[8 * bi : 8 * bi + 26, 8 * bj : 8 * bj + 26]
                    ours = pm.apply(patch.ravel() - shift).reshape(8, 8)
                    ref = dct_plane[8 * bi : 8 * bi + 8, 8 * bj : 8 * bj + 8]
                    assert np.abs(ours - ref).max() <= 1e-8


@pytest.mark.parametrize("cfa", ("RGGB", "BGGR", "GRBG", "GBRG"))
def test_demosaic_image_matches_operators(cfa, paper_params):
    # Developing the full image agrees with the sparse demosaicking
    # operators applied to the whole replicate-padded mosaic, followed by
    # the BT.709 luminance and the blockwise DCT.
    rng = np.random.default_rng(2)
    data = np.floor(rng.uniform(0, 4095, size=(16, 16)))
    dct_plane, _ = develop_cover(make_raw(data, paper_params, cfa), 95)
    padded = np.pad(data - 2048.0, 1, mode="edge")
    patch_cfa = pl.shift_cfa(cfa, -1, -1)
    luma = np.zeros((16, 16))
    for ch in "rgb":
        op = pl.build_demosaic(ch, patch_cfa, side=18)
        plane = op.apply(padded.ravel()).reshape(18, 18)[1:-1, 1:-1]
        luma += pl.LUMA_WEIGHTS[ch] * plane
    a = pl.dct_matrix()
    blocks = luma.reshape(2, 8, 2, 8).transpose(0, 2, 1, 3)
    ref = np.einsum("ij,bcjk,lk->bcil", a, blocks, a)
    ours = dct_plane.reshape(2, 8, 2, 8).transpose(0, 2, 1, 3)
    assert np.abs(ours - ref).max() <= 1e-8


def test_develop_rejects_bad_dims(paper_params):
    raw = RawImage(data=np.zeros((20, 24)), cfa="RGGB", bit_depth=12,
                   params=paper_params)
    with pytest.raises(DimensionError):
        develop_cover(raw, 75)


# -- container I/O ------------------------------------------------------------------


def random_coeffs(seed, bh=3, bw=5, role="cover"):
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-1500, 1500, size=(bh, bw, 8, 8))
    return JpegCoefficients(coeffs=coeffs, table=quant_table(85), role=role)


def test_round_trip(tmp_path):
    c = random_coeffs(3, role="stego")
    path = tmp_path / "plane.jcns"
    write_coeffs(c, path)
    back = read_coeffs(path)
    assert np.array_equal(back.coeffs, c.coeffs)
    assert back.table.qf == 85
    assert back.role == "stego"


def test_truncated_file(tmp_path):
    c = random_coeffs(4)
    path = tmp_path / "plane.jcns"
    write_coeffs(c, path)
    data = path.read_bytes()
    path.write_bytes(data[:-40])
    with pytest.raises(TruncationError):
        read_coeffs(path)


def test_bad_magic(tmp_path):
    c = random_coeffs(5)
    path = tmp_path / "plane.jcns"
    write_coeffs(c, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_coeffs(path)


def test_checksum_mismatch(tmp_path):
    c = random_coeffs(6)
    path = tmp_path / "plane.jcns"
    write_coeffs(c, path)
    data = bytearray(path.read_bytes())
    data[40] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        read_coeffs(path)


def write_random_costs(seed, path):
    rng = np.random.default_rng(seed)
    write_costs(CostPlane(costs=rng.random((2, 3, 64, 5)),
                          pi_zero=rng.random((2, 3, 64)), qf=90, K=2), path)


@pytest.mark.parametrize("write, read", [
    (lambda path: write_coeffs(random_coeffs(8), path), read_coeffs),
    (lambda path: write_random_costs(8, path), read_costs),
], ids=["coeffs", "costs"])
@pytest.mark.parametrize("damage, error", [
    (lambda data: data[:10], TruncationError),
    (lambda data: b"XXXX" + data[4:], FormatError),
    (lambda data: data[:-1], TruncationError),
    (lambda data: data + b"\0", FormatError),
], ids=["short-header", "bad-magic", "cut-body", "trailing-byte"])
def test_damaged_container_errors(tmp_path, write, read, damage, error):
    path = tmp_path / "container.bin"
    write(path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(error):
        read(path)


def test_plane_block_round_trip():
    c = random_coeffs(7)
    rebuilt = JpegCoefficients.from_plane(c.plane(), c.table, role=c.role)
    assert np.array_equal(rebuilt.coeffs, c.coeffs)


# -- nzAC ---------------------------------------------------------------------------


def test_nzac_zero_plane():
    c = JpegCoefficients(coeffs=np.zeros((2, 2, 8, 8), dtype=int),
                         table=quant_table(75))
    assert nzac_count(c) == 0


def test_nzac_single_coefficient():
    coeffs = np.zeros((1, 1, 8, 8), dtype=int)
    coeffs[0, 0, 0, 1] = 3
    c = JpegCoefficients(coeffs=coeffs, table=quant_table(75))
    assert nzac_count(c) == 1
    coeffs[0, 0, 0, 0] = 9  # DC never counts
    assert nzac_count(JpegCoefficients(coeffs=coeffs,
                                       table=quant_table(75))) == 1


def test_nzac_matches_brute_force():
    c = random_coeffs(8)
    count = 0
    for bi in range(c.blocks_h):
        for bj in range(c.blocks_w):
            for u in range(8):
                for v in range(8):
                    if (u, v) != (0, 0) and c.coeffs[bi, bj, u, v] != 0:
                        count += 1
    assert nzac_count(c) == count
