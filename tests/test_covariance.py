import numpy as np
import pytest
from scipy.linalg import blas

from jpegns import covariance as cm
from jpegns import pipeline as pl
from jpegns.covariance import (
    CovarianceError,
    CovarianceMatrix,
    DiagonalCovariance,
    SingularCovarianceError,
    analysis_covariance,
    cholesky,
    condition,
    photon_variance,
    sigma_d,
    sigma_p,
)

from conftest import cov_standard_error


# -- photon variance ----------------------------------------------------------


def test_photon_variance_clamps_to_zero(paper_params):
    assert photon_variance(1000.0, paper_params) == 0.0


def test_photon_variance_linear_region(paper_params):
    # 1.15 * 2000 - 1150, plain arithmetic.
    assert photon_variance(2000.0, paper_params) == pytest.approx(1150.0)


def test_photon_variance_zero_params():
    from jpegns import SensorParams

    assert photon_variance(0.0, SensorParams(0, 0, 0, 0)) == 0.0


def test_photon_variance_vectorized(paper_params):
    xs = np.array([0.0, 500.0, 1000.0, 2000.0, 3000.0])
    vec = photon_variance(xs, paper_params)
    scalar = np.array([photon_variance(float(x), paper_params) for x in xs])
    assert np.array_equal(vec, scalar)


# -- sigma_p ------------------------------------------------------------------


def test_sigma_p_constant_patch(paper_params):
    sp = sigma_p(np.full((26, 26), 2000.0), paper_params)
    assert sp.variances.shape == (676,)
    assert np.all(sp.variances == pytest.approx(1150.0))


def test_sigma_p_zero_patch(paper_params):
    sp = sigma_p(np.zeros((26, 26)), paper_params)
    assert np.all(sp.variances == 0.0)


def test_sigma_p_matches_elementwise(paper_params):
    rng = np.random.default_rng(0)
    patch = rng.uniform(0, 4000, size=(26, 26))
    sp = sigma_p(patch, paper_params)
    expected = np.array([photon_variance(float(x), paper_params)
                         for x in patch.ravel()])
    assert np.array_equal(sp.variances, expected)


def test_sigma_p_rejects_wrong_shape(paper_params):
    with pytest.raises(CovarianceError):
        sigma_p(np.zeros((24, 24)), paper_params)


# -- sigma_d ------------------------------------------------------------------


def test_sigma_d_unit_variances_is_gram():
    pm = pl.assemble("L1", "RGGB")
    sd = sigma_d(pm, DiagonalCovariance(np.ones(676)))
    m = pm.m.to_dense()
    gram = m @ m.T.copy()
    assert np.abs(sd.values - gram).max() <= 1e-12 * np.abs(gram).max()


def test_sigma_d_zero_variances():
    pm = pl.assemble("L1", "RGGB")
    sd = sigma_d(pm, DiagonalCovariance(np.zeros(676)))
    assert np.all(sd.values == 0.0)


def test_sigma_d_symmetric_psd(paper_params):
    pm = pl.assemble("L3", "BGGR")
    rng = np.random.default_rng(1)
    patch = rng.uniform(1500, 3500, size=(26, 26))
    sd = sigma_d(pm, sigma_p(patch, paper_params))
    assert np.array_equal(sd.values, sd.values.T)
    sd.check_psd()


def test_sigma_d_monte_carlo_sanity(paper_params):
    # Light version of the full 1e6-draw acceptance check.
    pm = pl.assemble("L1", "RGGB")
    rng = np.random.default_rng(2)
    patch = rng.uniform(1500, 3500, size=(26, 26))
    sp = sigma_p(patch, paper_params)
    sd = sigma_d(pm, sp)
    m = pm.m.to_dense()
    n_draws, chunk = 200_000, 20_000
    acc = np.zeros((64, 64))
    std = np.sqrt(sp.variances)
    for _ in range(n_draws // chunk):
        y = (rng.standard_normal((chunk, 676)) * std) @ m.T
        acc += blas.dgemm(1.0, y, y, trans_a=1)
    emp = acc / n_draws
    se = cov_standard_error(sd.values, n_draws)
    assert np.all(np.abs(emp - sd.values) <= 7.0 * se)


# -- conditioning -------------------------------------------------------------


def block_cov(rng, n):
    a = rng.normal(size=(n, n + 16))
    return a @ a.T.copy()


def test_condition_zero_known_gives_schur():
    rng = np.random.default_rng(3)
    full = block_cov(rng, 128)
    cg = condition(CovarianceMatrix(full), np.zeros(64))
    assert np.all(cg.mean == 0.0)
    s11, s12, s22 = full[:64, :64], full[:64, 64:], full[64:, 64:]
    schur = s11 - s12 @ np.linalg.solve(s22, s12.T)
    assert np.abs(cg.cov.values - schur).max() <= 1e-8 * np.abs(schur).max()


def test_condition_block_diagonal_unchanged():
    rng = np.random.default_rng(4)
    full = np.zeros((128, 128))
    full[:64, :64] = block_cov(rng, 64)
    full[64:, 64:] = block_cov(rng, 64)
    known = rng.normal(size=64)
    cg = condition(CovarianceMatrix(full), known)
    assert np.all(cg.mean == 0.0)
    assert np.abs(cg.cov.values - full[:64, :64]).max() <= 1e-10


def test_condition_toy_matches_closed_form():
    # 3x3 covariance, condition dim 1 on dims 2..3 with known (1, -1):
    # S22 = [[3,1],[1,2]], inv = [[2,-1],[-1,3]]/5, S12 = [2,1]
    # gain = [0.6, 0.2], mean = 0.4, var = 4 - 1.4 = 2.6.
    full = np.array([[4.0, 2.0, 1.0], [2.0, 3.0, 1.0], [1.0, 1.0, 2.0]])
    gain = np.array([2.0, 1.0]) @ np.linalg.inv(full[1:, 1:])
    mean = gain @ np.array([1.0, -1.0])
    var = 4.0 - gain @ np.array([2.0, 1.0])
    assert mean == pytest.approx(0.4, abs=1e-12)
    assert var == pytest.approx(2.6, abs=1e-12)
    # The library operates on 64-sized blocks; embed the toy in a padded
    # identity (center coordinate 0, conditioning coordinates 64 and 65) so
    # the same numbers fall out of the public operation.
    big = np.eye(192)
    big[0, 0] = 4.0
    big[0, 64], big[64, 0] = 2.0, 2.0
    big[0, 65], big[65, 0] = 1.0, 1.0
    big[64, 64], big[65, 65] = 3.0, 2.0
    big[64, 65], big[65, 64] = 1.0, 1.0
    known = np.zeros(128)
    known[0], known[1] = 1.0, -1.0
    cg = condition(CovarianceMatrix(big), known)
    assert cg.mean[0] == pytest.approx(0.4, abs=1e-10)
    assert cg.cov.values[0, 0] == pytest.approx(2.6, abs=1e-10)
    assert np.abs(cg.mean[1:]).max() == 0.0


def test_condition_rejects_bad_shapes():
    with pytest.raises(CovarianceError):
        condition(CovarianceMatrix(np.eye(64)), np.zeros(0))
    with pytest.raises(CovarianceError):
        condition(CovarianceMatrix(np.eye(128)), np.zeros(32))


# -- cholesky -----------------------------------------------------------------


def test_cholesky_identity():
    chol, eps = cholesky(CovarianceMatrix(np.eye(5)))
    assert eps == 0.0
    assert np.array_equal(chol, np.eye(5))


def test_cholesky_hand_example():
    chol, eps = cholesky(CovarianceMatrix(np.array([[4.0, 2.0], [2.0, 5.0]])))
    assert eps == 0.0
    assert np.allclose(chol, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)


def test_cholesky_rank_deficient_uses_jitter():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    chol, eps = cholesky(CovarianceMatrix(cov))
    assert eps > 0.0
    recon = chol @ chol.T.copy()
    assert np.abs(recon - cov).max() <= 10.0 * eps + 1e-15


def test_cholesky_fails_on_indefinite():
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(SingularCovarianceError):
        cholesky(bad)


@pytest.mark.parametrize("n", (16, 64, 65, 128, 320, 576))
def test_blocked_cholesky_matches_lapack(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n + 32))
    # Fortran order is the layout LAPACK would factor in place.
    s = np.asfortranarray(a @ a.T)
    before = s.copy()
    ours, jitter = cholesky(s)
    ref = np.linalg.cholesky(s)
    scale = np.abs(ref).max()
    assert np.abs(ours - ref).max() <= 1e-10 * scale
    assert np.array_equal(np.triu(ours, 1), np.zeros((n, n)))
    assert jitter == 0.0
    # Callers reuse the joint covariance after factoring it.
    assert np.array_equal(s, before)


# -- chain versus direct sampling (light version) -------------------------------


def test_schur_chain_equivalence_small():
    rng = np.random.default_rng(9)
    full = block_cov(rng, 192)
    full_cm = CovarianceMatrix(full)
    n_draws = 40_000
    chol_full, _ = cholesky(full_cm)
    z = rng.standard_normal((n_draws, 192))
    direct = z @ chol_full.T.copy()

    chol_outer, _ = cholesky(full[64:, 64:])
    outer = rng.standard_normal((n_draws, 128)) @ chol_outer.T.copy()
    gain_t = np.linalg.solve(full[64:, 64:], full[64:, :64])
    cond = full[:64, :64] - full[:64, 64:] @ gain_t
    chol_cond, _ = cholesky((cond + cond.T) / 2.0)
    center = outer @ gain_t + rng.standard_normal((n_draws, 64)) @ chol_cond.T.copy()
    chained = np.concatenate([center, outer], axis=1)

    cov_direct = blas.dgemm(1.0, direct, direct, trans_a=1) / n_draws
    cov_chained = blas.dgemm(1.0, chained, chained, trans_a=1) / n_draws
    se = cov_standard_error(full, n_draws) * np.sqrt(2.0)
    assert np.all(np.abs(cov_direct - cov_chained) <= 7.0 * se)


# -- analysis covariance --------------------------------------------------------


def test_analysis_full_proportional_to_gram():
    cov, subs = analysis_covariance("full", "RGGB")
    pm = pl.assemble("L4", "RGGB")
    m = pm.m.to_dense()
    gram = m @ m.T.copy()
    assert np.abs(cov.values - gram).max() <= 1e-12 * np.abs(gram).max()
    assert set(subs) == {"C", "N", "S", "E", "W", "NE", "NW", "SE", "SW"}


def test_analysis_lowpass_dc_dominates():
    _, subs = analysis_covariance("lowpass_only", "RGGB")
    diag = np.diag(subs["C"])
    assert np.argmax(diag) == 0


def test_analysis_diagonal_weaker_than_axial():
    _, subs = analysis_covariance("full", "RGGB")
    axial = min(np.linalg.norm(subs[d]) for d in ("N", "S", "E", "W"))
    diagonal = max(np.linalg.norm(subs[d]) for d in ("NE", "NW", "SE", "SW"))
    assert diagonal < axial


def test_non_connected_cross_covariance_exactly_zero(paper_params):
    # Built on a 5x5-block patch (42x42 photo-sites): blocks (2,2) and
    # (2,4) are two blocks apart, so their photo-site supports are disjoint
    # and the cross-covariance vanishes exactly.
    side = 42
    lum = pl.build_luminance("RGGB", side)
    sel = pl.build_selection(side, 1)
    perm = pl._block_selector([(2, 2), (2, 4)], grid_n=5)
    dct = pl._dct_op(2)
    op = dct.compose(perm).compose(sel).compose(lum)
    rng = np.random.default_rng(11)
    variances = rng.uniform(0.5, 2.0, size=side * side)
    m = op.matrix
    scaled = m.multiply(variances[np.newaxis, :])
    joint = (scaled @ m.T).toarray()
    cross = joint[:64, 64:]
    assert np.all(cross == 0.0)


def test_csv_export_files(tmp_path):
    cov, subs = analysis_covariance("full", "RGGB")
    out = tmp_path / "cov.csv"
    written = cm.write_covariance_csv(out, cov, subs)
    assert len(written) == 10
    reloaded = np.loadtxt(out, delimiter=",")
    assert np.allclose(reloaded, cov.values, atol=1e-12)
    sub_c = np.loadtxt(tmp_path / "cov_C.csv", delimiter=",")
    assert np.allclose(sub_c, subs["C"], atol=1e-12)
    with open(tmp_path / "cov_NE.csv") as fh:
        assert "NE" in fh.readline()


# -- validation ---------------------------------------------------------------


def test_covariance_matrix_rejects_asymmetric():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(CovarianceError):
        CovarianceMatrix(bad)


def test_check_psd_rejects_indefinite():
    bad = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(CovarianceError):
        CovarianceMatrix(bad).check_psd()
