import numpy as np

from jpegns import intra_block_decomposition, mode_correlation_ranking
from jpegns import pipeline as pl
from jpegns.analysis import write_mode_ranking_csv
from jpegns.covariance import analysis_covariance


def test_decomposition_outputs(tmp_path):
    result = intra_block_decomposition("RGGB", out_dir=tmp_path)
    for name in ("full", "demosaic_only", "lowpass_only"):
        assert result[name].shape == (64, 64)
        reloaded = np.loadtxt(tmp_path / f"intra_{name}.csv", delimiter=",")
        assert np.allclose(reloaded, result[name], atol=1e-12)
    # The superposition explains most of the energy (qualitative: the fit
    # residual stays below the trivial all-zero fit).
    assert 0.0 < result["residual"] < 1.0
    assert result["beta"] > 0.0
    with open(tmp_path / "superposition.csv") as fh:
        assert fh.readline().startswith("alpha")


def test_exported_blocks_match_reslicing():
    result = intra_block_decomposition("RGGB")
    _, subs = analysis_covariance("full", "RGGB")
    assert np.array_equal(result["full"], subs["C"])


def test_identity_front_gives_diagonal_intra_covariance():
    # With native-only interpolation (identity front operator) the DCT of
    # independent noise stays independent: the intra-block covariance is
    # diagonal.
    side = pl.PATCH_SIDE
    ident = pl.build_selection(side, 0)
    sel = pl.build_selection(side, 1)
    perm = pl.build_permutation([(1, 1)])
    m = (pl._dct_op(1) @ perm @ sel @ ident).toarray()
    cov = m @ m.T.copy()
    off_diag = cov - np.diag(np.diag(cov))
    assert np.abs(off_diag).max() <= 1e-12
    assert np.allclose(np.diag(cov), 1.0, atol=1e-12)


def test_lowpass_dc_variance_dominates():
    result = intra_block_decomposition("RGGB")
    diag = np.diag(result["lowpass_only"])
    assert np.argmax(diag) == 0


def test_mode_ranking_horizontal_partner_preserves_vertical_frequency():
    ranked = mode_correlation_ranking((0, 1), cfa="RGGB")
    top_horizontal = next(item for item in ranked if item[0] in ("E", "W"))
    assert top_horizontal[1][0] == 0  # same vertical frequency


def test_mode_ranking_dc_partners_share_frequency_axis():
    # Derived from the computed covariance: the DC mode's strongest
    # vertical-neighbor partner keeps horizontal frequency 0 and the
    # strongest horizontal-neighbor partner keeps vertical frequency 0.
    # (The top partner is mode (1,0)/(0,1), not DC itself: the first AC
    # basis has larger amplitude than the flat DC basis on the one-pixel
    # strip shared by adjacent blocks.)
    ranked = mode_correlation_ranking((0, 0), cfa="RGGB")
    top_vertical = next(item for item in ranked if item[0] in ("N", "S"))
    assert top_vertical[1][1] == 0
    assert top_vertical[1] == (1, 0)
    top_horizontal = next(item for item in ranked if item[0] in ("E", "W"))
    assert top_horizontal[1] == (0, 1)
    # DC-to-DC coupling across axial neighbors is itself positive.
    dc_dc = next(v for d, m, v in ranked if d in ("N", "S", "E", "W")
                 and m == (0, 0))
    assert dc_dc > 0.0


def test_mode_ranking_excludes_exact_zeros():
    ranked = mode_correlation_ranking((3, 4), cfa="RGGB")
    assert all(value != 0.0 for _, _, value in ranked)
    # Magnitudes are sorted.
    mags = [abs(v) for _, _, v in ranked]
    assert mags == sorted(mags, reverse=True)


def test_axial_partners_outrank_diagonal():
    ranked = mode_correlation_ranking((0, 1), cfa="RGGB")
    first_axial = next(i for i, item in enumerate(ranked)
                       if item[0] in ("N", "S", "E", "W"))
    first_diag = next(i for i, item in enumerate(ranked)
                      if item[0] in ("NE", "NW", "SE", "SW"))
    assert first_axial < first_diag


def test_ranking_csv(tmp_path):
    ranked = mode_correlation_ranking((0, 1))
    path = tmp_path / "mode01.csv"
    write_mode_ranking_csv(path, (0, 1), ranked)
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "direction,mode_u,mode_v,covariance"
    assert len(lines) == 2 + len(ranked)
