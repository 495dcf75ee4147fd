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


@pytest.mark.parametrize("qf", [95.5, 95.0, np.float64(95), True, "95"],
                         ids=repr)
def test_qf_must_be_an_integer(qf):
    # 95.5 would build scale 9's table (first row 1 1 1 1, where qf 95's
    # is 2 1 1 2) labelled qf 95, and True would pass for qf 1.
    with pytest.raises(CoefficientsError, match="must be an integer"):
        quant_table(qf)


def test_qf_accepts_numpy_integers():
    t = quant_table(np.int64(95))
    assert np.array_equal(t.steps, quant_table(95).steps)
    assert type(t.qf) is int and t.qf == 95


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
    luma = (lum @ pad.ravel()).reshape(34, 34)[1:-1, 1:-1] - 2048.0
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
            m = pl.assemble("L1", pl.patch_cfa_for_image(cfa), kernel)
            for bi in range(6):
                for bj in range(6):
                    patch = padded[8 * bi : 8 * bi + 26, 8 * bj : 8 * bj + 26]
                    ours = (m @ (patch.ravel() - shift)).reshape(8, 8)
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
        plane = (op @ padded.ravel()).reshape(18, 18)[1:-1, 1:-1]
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


@pytest.mark.parametrize("qf, k_range, message", [
    (0, 2, "quality factor must be an integer in 1..100, got 0"),
    (200, 2, "quality factor must be an integer in 1..100, got 200"),
    (90, 0, "K = 0 is below 1"),
], ids=["qf-0", "qf-200", "K-0"])
def test_cost_file_header_fields_are_checked(tmp_path, qf, k_range, message):
    # A well-formed container whose header no cost plane can have.
    path = tmp_path / "costs.jcst"
    jm._write_container(path, b"JCST", ">IIBB", (1, 1, qf, k_range),
                        [bytes(8 * 64 * (2 * k_range + 2))])
    with pytest.raises(FormatError, match=message):
        read_costs(path)


@pytest.mark.parametrize("header, message", [
    ((0, 0, 3, 90), "grid 0 x 3 is empty"),
    ((0, 2, 0, 90), "grid 2 x 0 is empty"),
    ((1, 1, 1, 0), "quality factor must be an integer in 1..100, got 0"),
    ((0, 1, 1, 101), "quality factor must be an integer in 1..100, got 101"),
], ids=["no-rows", "no-cols", "qf-0", "qf-101"])
def test_coefficient_file_header_fields_are_checked(tmp_path, header,
                                                    message):
    # A well-formed container whose header no coefficient plane can have.
    path = tmp_path / "plane.jcns"
    _, bh, bw, _ = header
    jm._write_container(path, b"JCNS", ">BIIB", header,
                        [bytes(bh * bw * 64 * 2)])
    with pytest.raises(FormatError, match=message):
        read_coeffs(path)


@pytest.mark.parametrize("bh, bw", [(0, 3), (3, 0)])
def test_cost_file_with_an_empty_grid_is_refused(tmp_path, bh, bw):
    path = tmp_path / "costs.jcst"
    jm._write_container(path, b"JCST", ">IIBB", (bh, bw, 90, 2), [])
    with pytest.raises(FormatError, match="is empty"):
        read_costs(path)


def cost_plane(bh=2, bw=3, qf=90, k_range=2, pi_grid=None, symbols=None):
    """A CostPlane of zeros; ``pi_grid`` and ``symbols`` override the
    pi_zero grid and the costs' last axis."""
    pi_grid = (bh, bw) if pi_grid is None else pi_grid
    symbols = 2 * k_range + 1 if symbols is None else symbols
    return CostPlane(costs=np.zeros((bh, bw, 64, symbols)),
                     pi_zero=np.zeros(pi_grid + (64,)), qf=qf, K=k_range)


@pytest.mark.parametrize("plane, message", [
    (cost_plane(k_range=300), "K must be an integer in 1..255, got 300"),
    (cost_plane(k_range=0), "K must be an integer in 1..255, got 0"),
    (cost_plane(k_range=2.0, symbols=5), "K must be an integer"),
    (cost_plane(qf=0), "quality factor must be an integer in 1..100, got 0"),
    (cost_plane(qf=101),
     "quality factor must be an integer in 1..100, got 101"),
    (cost_plane(qf=90.5), "quality factor must be an integer"),
    (cost_plane(pi_grid=(3, 2)), r"costs of shape \(2, 3, 64, 5\) are not "
                                 r"\(3, 2, 64, 5\)"),
    (cost_plane(symbols=4), r"costs of shape \(2, 3, 64, 4\) are not "
                            r"\(2, 3, 64, 5\)"),
    (cost_plane(bh=0), "grid 0 x 3 is empty"),
    (CostPlane(costs=np.zeros((2, 64, 5)), pi_zero=np.zeros((2, 64)),
               qf=90, K=2), r"pi_zero of shape \(2, 64\) is not"),
], ids=["K-300", "K-0", "K-float", "qf-0", "qf-101", "qf-float",
        "pi-zero-grid", "costs-symbols", "empty-grid", "pi-zero-2d"])
def test_write_costs_refuses_planes_read_costs_cannot_read(tmp_path, plane,
                                                           message):
    # Each of these used to write a file that read_costs refused, or to
    # fail inside struct; now nothing is written.
    path = tmp_path / "costs.jcst"
    with pytest.raises(FormatError, match=message):
        write_costs(plane, path)
    assert not path.exists()


def coefficient_plane(qf=90, grid=(1, 1), steps=None):
    """A zero JpegCoefficients plane whose table is labelled ``qf``;
    ``steps`` default to quant_table(90)'s."""
    steps = quant_table(90).steps if steps is None else steps
    return JpegCoefficients(coeffs=np.zeros(grid + (8, 8), dtype=int),
                            table=jm.QuantTable(steps=steps, qf=qf))


@pytest.mark.parametrize("plane, message", [
    (coefficient_plane(qf=0),
     "quality factor must be an integer in 1..100, got 0"),
    (coefficient_plane(qf=101),
     "quality factor must be an integer in 1..100, got 101"),
    (coefficient_plane(qf=300),
     "quality factor must be an integer in 1..100, got 300"),
    (coefficient_plane(qf=95.5), "quality factor must be an integer in "
                                 "1..100, got 95.5"),
    (coefficient_plane(qf=True), "quality factor must be an integer in "
                                 "1..100, got True"),
    (coefficient_plane(grid=(0, 2)), "grid 0 x 2 is empty"),
    (coefficient_plane(qf=95, steps=np.full((8, 8), 7)),
     "not the standard table of quality factor 95"),
], ids=["qf-0", "qf-101", "qf-300", "qf-float", "qf-bool", "empty-grid",
        "foreign-table"])
def test_write_coeffs_refuses_planes_read_coeffs_cannot_read(tmp_path, plane,
                                                             message):
    # Each of these used to write a file that read_coeffs refused or read
    # back with another table, or to fail inside struct; now nothing is
    # written.
    path = tmp_path / "plane.jcns"
    with pytest.raises(FormatError, match=message):
        write_coeffs(plane, path)
    assert not path.exists()


def test_write_costs_round_trips_the_widest_alphabet(tmp_path):
    plane = cost_plane(bh=1, bw=1, qf=100, k_range=255)
    plane.costs[...] = np.arange(511)
    path = tmp_path / "costs.jcst"
    write_costs(plane, path)
    back = read_costs(path)
    assert (back.qf, back.K) == (100, 255)
    assert np.array_equal(back.costs, plane.costs)


@pytest.mark.parametrize("shape", [(8,), (8, 8, 1), (1, 8, 8)])
def test_plane_that_is_not_2d_is_refused(shape):
    with pytest.raises(DimensionError, match="must be 2-D"):
        JpegCoefficients.from_plane(np.zeros(shape, dtype=int),
                                    quant_table(90))


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
