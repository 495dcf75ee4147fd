import numpy as np
import pytest
from scipy.linalg import blas, lapack

from jpegns import SensorParams, condition
from jpegns import covariance as cm
from jpegns import pipeline as pl
from jpegns.covariance import (
    CovarianceError,
    SingularCovarianceError,
    analysis_covariance,
    cholesky,
    photon_variance,
    sigma_d,
    sigma_p,
)

from conftest import (
    LATTICE4_LAYOUT,
    chain_form,
    cov_standard_error,
    layout_joint,
    lead_joint,
    lead_zeros,
    never_filled,
)


# -- photon variance ----------------------------------------------------------


def test_photon_variance_clamps_to_zero(paper_params):
    assert photon_variance(1000.0, paper_params) == 0.0


def test_photon_variance_linear_region(paper_params):
    # 1.15 * 2000 - 1150, plain arithmetic.
    assert photon_variance(2000.0, paper_params) == pytest.approx(1150.0)


def test_photon_variance_zero_params():
    assert photon_variance(0.0, SensorParams(0, 0, 0, 0)) == 0.0


def test_photon_variance_vectorized(paper_params):
    xs = np.array([0.0, 500.0, 1000.0, 2000.0, 3000.0])
    vec = photon_variance(xs, paper_params)
    scalar = np.array([photon_variance(float(x), paper_params) for x in xs])
    assert np.array_equal(vec, scalar)


def test_photon_variance_overflow_is_refused():
    # Finite parameters whose variance overflows float64: refused, with no
    # RuntimeWarning on the way, rather than passed on as inf.  The second
    # gain overflows itself, and inf * 0 is NaN.
    for params, level in ((SensorParams(0.0, 0.0, 1e306, 0.0), 2000.0),
                          (SensorParams(-1e308, 0.0, 1e308, 0.0), 0.0)):
        with pytest.raises(CovarianceError, match="overflows"):
            photon_variance(np.full(4, level), params)
        with pytest.raises(CovarianceError, match="overflows"):
            sigma_p(np.full((26, 26), level), params)


# -- sigma_p ------------------------------------------------------------------


def test_sigma_p_constant_patch(paper_params):
    sp = sigma_p(np.full((26, 26), 2000.0), paper_params)
    assert sp.shape == (676,)
    assert np.all(sp == pytest.approx(1150.0))


def test_sigma_p_zero_patch(paper_params):
    sp = sigma_p(np.zeros((26, 26)), paper_params)
    assert np.all(sp == 0.0)


def test_sigma_p_matches_elementwise(paper_params):
    rng = np.random.default_rng(0)
    patch = rng.uniform(0, 4000, size=(26, 26))
    sp = sigma_p(patch, paper_params)
    expected = np.array([photon_variance(float(x), paper_params)
                         for x in patch.ravel()])
    assert np.array_equal(sp, expected)


def test_sigma_p_rejects_wrong_shape(paper_params):
    with pytest.raises(CovarianceError):
        sigma_p(np.zeros((24, 24)), paper_params)


# -- sigma_d ------------------------------------------------------------------


def test_sigma_d_unit_variances_is_gram():
    op = pl.assemble("L1", "RGGB")
    sd = sigma_d(op, np.ones(676))
    m = op.toarray()
    gram = m @ m.T.copy()
    assert np.abs(sd - gram).max() <= 1e-12 * np.abs(gram).max()


def test_sigma_d_zero_variances():
    sd = sigma_d(pl.assemble("L1", "RGGB"), np.zeros(676))
    assert np.all(sd == 0.0)


def test_sigma_d_symmetric_psd(paper_params):
    op = pl.assemble("L3", "BGGR")
    rng = np.random.default_rng(1)
    patch = rng.uniform(1500, 3500, size=(26, 26))
    sd = sigma_d(op, sigma_p(patch, paper_params))
    assert np.array_equal(sd, sd.T)
    # Smallest eigenvalue above -1e-8 * trace / dim.
    floor = -1e-8 * max(np.trace(sd), 0.0) / sd.shape[0]
    assert np.linalg.eigvalsh(sd)[0] >= floor


def test_sigma_d_monte_carlo_sanity(paper_params):
    # Light version of the full 1e6-draw acceptance check.
    op = pl.assemble("L1", "RGGB")
    rng = np.random.default_rng(2)
    patch = rng.uniform(1500, 3500, size=(26, 26))
    sp = sigma_p(patch, paper_params)
    sd = sigma_d(op, sp)
    m = op.toarray()
    n_draws, chunk = 200_000, 20_000
    acc = np.zeros((64, 64))
    std = np.sqrt(sp)
    for _ in range(n_draws // chunk):
        y = (rng.standard_normal((chunk, 676)) * std) @ m.T
        acc += blas.dgemm(1.0, y, y, trans_a=1)
    emp = acc / n_draws
    se = cov_standard_error(sd, n_draws)
    assert np.all(np.abs(emp - sd) <= 7.0 * se)


# -- conditioning -------------------------------------------------------------


def block_cov(rng, n):
    a = rng.normal(size=(n, n + 16))
    return a @ a.T.copy()


def test_condition_zero_known_gives_schur():
    rng = np.random.default_rng(3)
    full = block_cov(rng, 128)
    gain, lower, sigmas, jitter = condition(full)
    assert jitter == 0.0
    assert np.all(gain @ np.zeros(64) == 0.0)
    s22, s21, s11 = full[:64, :64], full[64:, :64], full[64:, 64:]
    schur = s11 - s21 @ np.linalg.solve(s22, s21.T)
    chol = lower + np.diag(sigmas)
    recon = chol @ chol.T.copy()
    assert np.abs(recon - schur).max() <= 1e-8 * np.abs(schur).max()


def test_condition_with_nothing_known_is_the_block_factor():
    # Lattice-1 blocks condition on nothing: the gain is an empty
    # column-major (64, 0) array, whose product with the empty known
    # vector is the zero mean, and the factor is cholesky's own, in the
    # chain's form: a fresh C-order strictly lower part and |diagonal|.
    full = block_cov(np.random.default_rng(5), 64)
    gain, lower, sigmas, jitter = condition(full)
    assert gain.shape == (64, 0) and gain.flags.f_contiguous
    assert np.all((gain @ np.zeros(0)) == 0.0)
    ref, ref_jitter = cholesky(full)
    ref_lower, ref_sigmas = chain_form(ref)
    assert lower.flags.c_contiguous and lower.flags.owndata
    assert lower.tobytes() == ref_lower.tobytes()
    assert sigmas.tobytes() == ref_sigmas.tobytes()
    assert jitter == ref_jitter == 0.0


def test_condition_block_diagonal_unchanged():
    rng = np.random.default_rng(4)
    full = np.zeros((128, 128))
    full[64:, 64:] = block_cov(rng, 64)
    full[:64, :64] = block_cov(rng, 64)
    gain, lower, sigmas, _ = condition(full)
    assert np.all(gain == 0.0)
    chol = lower + np.diag(sigmas)
    assert np.abs(chol @ chol.T.copy() - full[64:, 64:]).max() <= 1e-10


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
    # The library operates on 64-sized blocks; embed the toy known-first in
    # a padded identity (conditioning coordinates 0 and 1, center
    # coordinate 128) so the same numbers fall out of the public operation.
    big = np.eye(192)
    big[128, 128] = 4.0
    big[128, 0], big[0, 128] = 2.0, 2.0
    big[128, 1], big[1, 128] = 1.0, 1.0
    big[0, 0], big[1, 1] = 3.0, 2.0
    big[0, 1], big[1, 0] = 1.0, 1.0
    known = np.zeros(128)
    known[0], known[1] = 1.0, -1.0
    gain, _, sigmas, _ = condition(big)
    mean = gain @ known
    assert mean[0] == pytest.approx(0.4, abs=1e-10)
    assert sigmas[0] ** 2 == pytest.approx(2.6, abs=1e-10)
    assert np.abs(mean[1:]).max() == 0.0


def test_condition_rejects_bad_shapes(monkeypatch):
    # The joint's order fixes the known count, n - 64: a joint that is not
    # square, or of an order that is no positive multiple of 64, is refused
    # before LAPACK sees it.
    calls = []
    monkeypatch.setattr(cm.blas, "dpotrf", lambda *args: calls.append(args))
    for shape in ((0, 0), (100, 100), (128, 64), (2, 64, 64)):
        with pytest.raises(CovarianceError, match="joint covariance"):
            condition(np.ones(shape))
    assert calls == []


def test_condition_when_the_center_joins_a_group():
    # Three blocks that share no tile are one group, the center's column
    # included: the gain solve clips the group to L_k, so it neither
    # writes L_c nor reads past C.
    rng = np.random.default_rng(6)
    full = np.zeros((192, 192))
    for i in range(3):
        full[64 * i : 64 * (i + 1), 64 * i : 64 * (i + 1)] = block_cov(rng, 64)
    gain, lower, sigmas, jitter = condition(
        full, zeros=((1, 0), (2, 0), (2, 1)))
    ref_lower, ref_sigmas = chain_form(cholesky(full[128:, 128:])[0])
    assert gain.shape == (64, 128) and not gain.any() and jitter == 0.0
    assert lower.tobytes() == ref_lower.tobytes()
    assert sigmas.tobytes() == ref_sigmas.tobytes()


def test_counts_accept_numpy_integers():
    # Block counts often come out of numpy arithmetic: they give the bytes
    # Python ints give, and no BLAS call sees a numpy scalar.
    full = lead_joint(np.random.default_rng(3), 3, 2)
    np_zeros = [(np.int64(i), np.int32(j)) for i, j in lead_zeros(3)]
    chol, _ = cholesky(full, zeros=lead_zeros(3))
    assert cholesky(full, zeros=np_zeros)[0].tobytes() == chol.tobytes()
    gain, lower, sigmas, _ = condition(full, zeros=lead_zeros(3))
    np_gain, np_lower, np_sigmas, _ = condition(full, zeros=np_zeros)
    assert np_gain.tobytes() == gain.tobytes()
    assert np_lower.tobytes() == lower.tobytes()
    assert np_sigmas.tobytes() == sigmas.tobytes()


@pytest.mark.parametrize("call", (
    lambda: cholesky(np.eye(128, order="F"), zeros=((1.5, 0),)),
    lambda: condition(np.eye(128), zeros=((1, 0.0),)),
), ids=["cholesky-zeros", "condition-zeros"])
def test_float_counts_raise_before_blas(monkeypatch, call):
    calls = []
    monkeypatch.setattr(cm.blas, "dpotrf", lambda *args: calls.append(args))
    with pytest.raises(TypeError):
        call()
    assert calls == []


# -- cholesky -----------------------------------------------------------------


def test_cholesky_identity():
    chol, eps = cholesky(np.eye(5))
    assert eps == 0.0
    assert np.array_equal(chol, np.eye(5))


def test_cholesky_hand_example():
    chol, eps = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
    assert eps == 0.0
    assert np.allclose(chol, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)


def test_cholesky_rank_deficient_uses_jitter():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    chol, eps = cholesky(cov)
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


@pytest.mark.parametrize("rank", (96, 48), ids=["definite", "singular"])
def test_cholesky_in_place_matches_copy_path(rank):
    rng = np.random.default_rng(rank)
    b = rng.normal(size=(96, rank))
    full = b @ b.T
    # Only the lower triangle is read, on every attempt.
    src = np.asfortranarray(np.where(np.tri(96, dtype=bool), full, np.nan))
    a = src.copy(order="F")
    refills = []

    def refill():
        refills.append(1)
        np.copyto(a, src)

    chol, jitter = cholesky(a, refill=refill)
    copied, copied_jitter = cholesky(full)
    assert np.shares_memory(chol, a)
    assert np.tril(chol).tobytes() == copied.tobytes()
    assert jitter == copied_jitter
    # The strict upper triangle is never written: it keeps src's NaNs.
    assert np.isnan(a[np.triu_indices(96, 1)]).all()
    # Only the singular matrix needs the jitter path, and each retry
    # refills what the failed attempt overwrote.
    assert (jitter > 0.0) == (rank < 96)
    assert (len(refills) > 0) == (rank < 96)


@pytest.mark.parametrize("lead, trailing", [
    (lead, trailing) for lead in range(5) for trailing in range(6)
    if lead + trailing])
def test_cholesky_with_lead_matches_dense_factor(lead, trailing):
    n = 64 * (lead + trailing)
    full = lead_joint(np.random.default_rng(10 * lead + trailing), lead,
                      trailing)
    for i in range(lead):
        for j in range(i):
            assert not full[64 * i : 64 * (i + 1), 64 * j : 64 * (j + 1)].any()
    dense, dense_jitter = cholesky(full)
    # In place over a NaN upper triangle: it is never read or written.
    src = np.asfortranarray(np.where(np.tri(n, dtype=bool), full, np.nan))
    a = src.copy(order="F")
    chol, jitter = cholesky(a, refill=lambda: np.copyto(a, src),
                            zeros=lead_zeros(lead))
    assert jitter == dense_jitter == 0.0
    assert np.shares_memory(chol, a)
    assert np.isnan(a[np.triu_indices(n, 1)]).all()
    lower = np.tril(chol)
    assert np.abs(lower - dense).max() <= 1e-12 * np.abs(dense).max()
    if lead < 2:  # one tile has no structure: the dense dpotrf, bit for bit
        assert lower.tobytes() == dense.tobytes()
    # The copy path factors the same way.
    copied, _ = cholesky(full, zeros=lead_zeros(lead))
    assert copied.tobytes() == lower.tobytes()


def test_cholesky_with_lattice4_zeros_matches_dense_factor():
    # An interior lattice-4 joint has a second unconnected level (W | E)
    # after its four corners; its factor skips both, and every zero tile
    # that no elimination step fills, upper triangle included, is neither
    # read nor written.
    full, zeros = layout_joint(np.random.default_rng(4), LATTICE4_LAYOUT)
    n = full.shape[0]
    dense, _ = cholesky(full)
    marked = np.where(np.tri(n, dtype=bool), full, np.nan)
    kept = never_filled(zeros, 9)
    # Of the 16 zero tiles only S against N fills, from W.
    assert len(zeros) == 16 and set(zeros) - set(kept) == {(7, 6)}
    for i, j in kept:
        marked[64 * i : 64 * (i + 1), 64 * j : 64 * (j + 1)] = np.nan
    src = np.asfortranarray(marked)
    a = src.copy(order="F")
    chol, jitter = cholesky(a, refill=lambda: np.copyto(a, src), zeros=zeros)
    assert jitter == 0.0
    assert np.array_equal(np.isnan(chol), np.isnan(src))
    lower = np.where(np.isnan(src), 0.0, chol)
    assert np.abs(lower - dense).max() <= 1e-12 * np.abs(dense).max()
    copied, _ = cholesky(full, zeros=zeros)
    assert copied.tobytes() == lower.tobytes()


@pytest.mark.parametrize("lead", (0, 1))
def test_cholesky_dense_lead_is_lapack_dpotrf(lead):
    # The ctypes dpotrf is LAPACK's own: the f2py wrapper's factor, bit for
    # bit, so no lattice-1 block and no joint without a lead moves.
    full = lead_joint(np.random.default_rng(lead), 1, 4)
    chol, _ = cholesky(full, zeros=lead_zeros(lead))
    ref, info = lapack.dpotrf(full, lower=1, clean=1)
    assert info == 0
    assert chol.tobytes() == ref.tobytes()


def test_cholesky_rank_deficient_lead_tile_uses_jitter():
    # A singular lead tile fails its own dpotrf; the retry with jitter
    # happens inside the same call and refills the matrix first.
    full = lead_joint(np.random.default_rng(7), 3, 2)
    # Sixteen coordinates of the second lead block without variance, as a
    # dark block's are: still semidefinite, but its tile is singular.
    full[64:80, :] = 0.0
    full[:, 64:80] = 0.0
    src = np.asfortranarray(np.tril(full))
    a = src.copy(order="F")
    refills = []

    def refill():
        refills.append(1)
        np.copyto(a, src)

    chol, jitter = cholesky(a, refill=refill, zeros=lead_zeros(3))
    assert jitter > 0.0 and refills
    shifted = np.tril(full + jitter * np.eye(full.shape[0]))
    recon = np.tril(np.tril(chol) @ np.tril(chol).T)
    assert np.abs(recon - shifted).max() <= 1e-12 * np.abs(full).max()


@pytest.mark.parametrize("pair", ((3, 0), (1, -1), (0, 1), (1, 1)),
                         ids=["outside", "negative", "upper", "diagonal"])
def test_cholesky_rejects_zeros_that_do_not_fit(monkeypatch, pair):
    calls = []
    monkeypatch.setattr(cm.blas, "dpotrf", lambda *args: calls.append(args))
    a = np.eye(128, order="F")
    with pytest.raises(CovarianceError, match="zero tile"):
        cholesky(a, refill=lambda: None, zeros=(pair,))
    with pytest.raises(CovarianceError, match="zero tile"):
        cholesky(a, zeros=(pair,))
    with pytest.raises(CovarianceError, match="zero tile"):
        condition(np.eye(192), zeros=(pair,))
    assert calls == []


def test_cholesky_rejects_zeros_in_a_matrix_not_of_tiles(monkeypatch):
    calls = []
    monkeypatch.setattr(cm.blas, "dpotrf", lambda *args: calls.append(args))
    with pytest.raises(CovarianceError, match="64 x 64 tiles"):
        cholesky(np.eye(160), zeros=((1, 0),))
    assert calls == []


def test_cholesky_copy_path_refuses_non_finite():
    # LAPACK's dpotrf reports success on a NaN pivot and returns a NaN
    # factor, so the copy path checks the lower triangle it reads.
    for bad in (np.full((64, 64), np.nan), np.diag([1.0, np.inf])):
        with pytest.raises(CovarianceError, match="finite"):
            cholesky(bad)
    # The strict upper triangle is never read.
    upper = np.eye(64)
    upper[3, 40] = np.nan
    assert cholesky(upper)[0].tobytes() == np.eye(64).tobytes()


@pytest.mark.parametrize("a", (np.ones(3), np.ones((2, 3))),
                         ids=["1-d", "2x3"])
def test_cholesky_copy_path_rejects_non_square(a):
    with pytest.raises(CovarianceError):
        cholesky(a)


@pytest.mark.parametrize("a", (
    np.eye(3, 4, order="F"),
    np.eye(3, dtype=np.float32, order="F"),
    np.eye(3),
), ids=["shape", "dtype", "row-major"])
def test_cholesky_rejects_array_it_cannot_factor_in(a):
    # LAPACK would silently work on a copy, and ``a`` would not hold L.
    with pytest.raises(CovarianceError):
        cholesky(a, refill=lambda: None)


# -- chain versus direct sampling (light version) -------------------------------


def test_schur_chain_equivalence_small():
    rng = np.random.default_rng(9)
    full = block_cov(rng, 192)
    n_draws = 40_000
    chol_full, _ = cholesky(full)
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
    m = pl.assemble("L4", "RGGB").toarray()
    gram = m @ m.T.copy()
    assert np.abs(cov - gram).max() <= 1e-12 * np.abs(gram).max()
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
    perm = pl.build_permutation([(2, 2), (2, 4)], grid_n=5)
    m = pl._dct_op(2) @ perm @ sel @ lum
    rng = np.random.default_rng(11)
    variances = rng.uniform(0.5, 2.0, size=side * side)
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
    assert np.allclose(reloaded, cov, atol=1e-12)
    sub_c = np.loadtxt(tmp_path / "cov_C.csv", delimiter=",")
    assert np.allclose(sub_c, subs["C"], atol=1e-12)
    with open(tmp_path / "cov_NE.csv") as fh:
        assert "NE" in fh.readline()


# -- validation ---------------------------------------------------------------


def test_sigma_d_rejects_bad_variances():
    op = pl.assemble("L1", "RGGB")
    v = np.ones(676)
    v[5] = -1e-9
    with pytest.raises(CovarianceError, match="negative variance"):
        sigma_d(op, v)
    with pytest.raises(CovarianceError, match="operator width"):
        sigma_d(op, np.ones(675))
