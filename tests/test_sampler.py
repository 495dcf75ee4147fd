import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from jpegns import rng as streams
from jpegns import sampler
from jpegns.jpeg_model import round_half_away_array
from jpegns.sampler import (
    SamplerError,
    costs_from_pmf,
    discretize,
    entropy,
    pmf,
    pmf_table,
    run_block_chain,
)


from conftest import chain_form
from conftest import quadrature_change_pmf as quadrature_pmf
from conftest import reference_block_chain, reference_pmf_table


def gen(seed=0):
    return streams.make_stream(seed, 7)


class FixedUniforms:
    """Stand-in block stream whose 64 uniforms, one per coefficient, are given."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)
        assert self.uniforms.shape == (64,)

    def random(self, n):
        assert n == 64
        return self.uniforms.copy()


def chain(chol, base_mean, q_steps, k_range, g):
    """The block's normals from ``g``, ``run_block_chain``'s means, the
    samples and ``discretize`` of the draw alone, on a full Cholesky
    factor: the outputs ``reference_block_chain`` gives."""
    lower, sigmas = chain_form(chol)
    z = streams.standard_normal_icdf(g, 64)
    means = run_block_chain(lower, base_mean, z)
    drawn = discretize(z, means, sigmas, q_steps, k_range)
    return {"changes": drawn["changes"], "samples": means + sigmas * z,
            "params": drawn["params"], "edges": drawn["edges"]}


def reference_chain(chol, base_mean, q_steps, k_range, g):
    """``reference_block_chain`` on a full Cholesky factor."""
    return reference_block_chain(*chain_form(chol), base_mean, q_steps,
                                 k_range, g)


def random_chol(seed, n=64):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n + 8))
    return np.linalg.cholesky(a @ a.T.copy() / (n + 8))


def iid_chain(sigma, mean, q, k_range, g):
    """Chain with equal (m', sigma', q) on every coefficient: 64 iid draws."""
    return chain(np.diag(np.full(64, float(sigma))), np.full(64, float(mean)),
                 np.full(64, float(q)), k_range, g)


def reference_scan_blocks(n, seed):
    """Chain inputs over the whole parameter range the chain must handle.

    Correlated factors with some zero rows and some zero diagonal entries
    under nonzero rows, float or integer steps, K = 1..6, sigma_hat from
    about 1e-6 to 1e6 and |m_hat| far beyond K.
    """
    rng = np.random.default_rng(seed)
    for b in range(n):
        chol = random_chol(1000 + b) * 10.0 ** rng.uniform(-5.0, 7.0)
        chol[rng.random(64) < 0.1] = 0.0
        dead = np.flatnonzero(rng.random(64) < 0.1)
        chol[dead, dead] = 0.0
        if b % 2:
            steps = rng.integers(1, 60, size=64).astype(np.float64)
        else:
            steps = rng.uniform(0.3, 40.0, size=64)
        mean = rng.normal(size=64) * steps * 10.0 ** rng.uniform(-1.0, 3.0)
        yield chol, mean, steps, 1 + b % 6


def assert_chains_equal(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def assert_samples_in_drawn_bins(out, q_steps, k_range):
    """Every live sample lies in its drawn bin.

    samples[i]/q lies in (c - 0.5 + k, c + 0.5 + k] with c = round(m_hat);
    the end symbols' bins are the folded tails, open below -K and above K.
    A point mass (sigma_hat = 0) is its own mean and is not checked.
    """
    k = out["changes"]
    c = round_half_away_array(out["params"][:, 0])
    scaled = out["samples"] / q_steps
    lo = np.where(k == -k_range, -np.inf, c - 0.5 + k)
    hi = np.where(k == k_range, np.inf, c + 0.5 + k)
    live = out["params"][:, 1] > 0.0
    outside = live & ~((lo < scaled) & (scaled <= hi))
    assert not outside.any(), np.flatnonzero(outside)


# -- pmf ----------------------------------------------------------------------


def test_pmf_point_mass_at_zero():
    p = pmf(0.0, 0.0, 4.0, 3)
    assert type(p) is np.ndarray and p.dtype == np.float64 and p.shape == (7,)
    assert p[0 + 3] == 1.0
    assert p.sum() == 1.0
    assert entropy(p) == 0.0


def test_pmf_point_mass_at_rounded_mean():
    # sigma' = 0 collapses to round(m_hat) clamped into the alphabet.
    p = pmf(9.0, 0.0, 4.0, 3)  # m_hat = 2.25 -> atom at 2
    assert p[2 + 3] == 1.0
    p = pmf(100.0, 0.0, 4.0, 3)  # m_hat = 25 -> clamped to K
    assert p[3 + 3] == 1.0
    p = pmf(-100.0, 0.0, 4.0, 3)
    assert p[-3 + 3] == 1.0


def test_pmf_unit_sigma_hat_values():
    # m' = 0, sigma' = Q: pi(0) = erf(0.5 / sqrt 2), tails split evenly.
    p = pmf(0.0, 3.0, 3.0, 1)
    expected0 = math.erf(0.5 / math.sqrt(2.0))
    assert p[0 + 1] == pytest.approx(expected0, abs=1e-14)
    assert p[1 + 1] == pytest.approx((1.0 - expected0) / 2.0, abs=1e-14)
    assert p[-1 + 1] == pytest.approx((1.0 - expected0) / 2.0, abs=1e-14)


def test_pmf_symmetry():
    for sigma in (0.3, 1.0, 7.0):
        p = pmf(0.0, sigma, 2.0, 5)
        assert np.allclose(p, p[::-1], atol=1e-15)


@pytest.mark.parametrize("m_hat", (2.0**53, -(2.0**53), 1e17))
def test_pmf_of_a_large_integral_mean_is_centered(m_hat):
    # round(m_hat) - 0.5 is not a float beyond 2**52; the bins must still
    # be centered on the mean, as they are at zero.
    assert np.array_equal(pmf(m_hat, 1.0, 1.0, 2), pmf(0.0, 1.0, 1.0, 2))


def test_pmf_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = rng.uniform(-30, 30)
        s = rng.uniform(0.05, 20)
        q = rng.integers(1, 100)
        k = int(rng.integers(1, 6))
        p = pmf(m, s, q, k)
        oracle = quadrature_pmf(m, s, q, k)
        assert np.abs(p - oracle).max() <= 1e-10


def test_pmf_folding_matches_tail_mass():
    p = pmf(1.5, 2.0, 1.0, 2)
    m_hat, sigma_hat = 1.5, 2.0
    center = 2  # round(1.5) half away from zero
    lo_edge = center - 0.5 + (-2 + 1)
    hi_edge = center - 0.5 + 2
    assert p[-2 + 2] == pytest.approx(norm.cdf((lo_edge - m_hat) / sigma_hat),
                                      abs=1e-14)
    assert p[2 + 2] == pytest.approx(norm.sf((hi_edge - m_hat) / sigma_hat),
                                     abs=1e-14)


@settings(max_examples=80, deadline=None)
@given(
    m=st.floats(-1e4, 1e4),
    sigma=st.floats(0.0, 1e3),
    q=st.integers(1, 121),
    k=st.integers(1, 8),
)
def test_pmf_normalization_property(m, sigma, q, k):
    p = pmf(m, sigma, q, k)
    assert abs(float(p.sum()) - 1.0) <= 1e-9
    assert np.all(p >= 0.0)
    assert entropy(p) <= math.log2(2 * k + 1) + 1e-12


def test_pmf_and_chain_split_mean_on_edge_with_subnormal_sigma():
    # 1 / 5e-324 overflows; the bin edge through m_hat = 1.5 must still have
    # CDF 0.5, not erf(0 * inf) = NaN, in the PMF and in the chain's draw.
    p = pmf(1.5, 5e-324, 1.0, 1)
    assert p.tolist() == [0.5, 0.5, 0.0]
    out = iid_chain(5e-324, 1.5, 1.0, 1, gen(3))
    assert np.all(pmf_table(out["edges"]) == [0.5, 0.5, 0.0])
    assert set(out["changes"].tolist()) == {-1, 0}
    assert np.all(out["samples"] == 1.5)


def test_pmf_rejects_bad_arguments():
    with pytest.raises(SamplerError):
        pmf(0.0, -1.0, 1.0, 3)
    with pytest.raises(SamplerError):
        pmf(0.0, 1.0, 0.0, 3)
    with pytest.raises(SamplerError):
        pmf(0.0, 1.0, 1.0, 0)


# (m', sigma', q, K) sets that pmf, and discretize with them, must refuse.
BAD_ARGS = [
    (0.0, math.nan, 1.0, 2),
    (0.0, math.inf, 1.0, 2),
    (math.nan, 1.0, 1.0, 2),
    (math.inf, 1.0, 1.0, 2),
    (0.0, 1.0, math.nan, 2),
    (0.0, 1.0, math.inf, 2),
    (1e308, 1.0, 1e-10, 2),
    (0.0, 1.0, 1.0, 2.5),
    (0.0, 1.0, 1.0, 2.0),
    (0.0, 1.0, 1.0, True),
]
BAD_ARG_IDS = ["sigma-nan", "sigma-inf", "mean-nan", "mean-inf", "step-nan",
               "step-inf", "scaled-mean-overflows", "K-fractional", "K-float",
               "K-bool"]


@pytest.mark.parametrize("args", BAD_ARGS, ids=BAD_ARG_IDS)
def test_pmf_rejects_non_finite_or_non_integer_arguments(args):
    with pytest.raises(SamplerError):
        pmf(*args)


@pytest.mark.parametrize(
    "args", [(0.0,) + args for args in BAD_ARGS]
    + [(0.0, 0.0, -1.0, 1.0, 2), (math.nan, 0.0, 1.0, 1.0, 2),
       (0.0, 0.0, 1.0, 0.0, 2)],
    ids=BAD_ARG_IDS + ["sigma-negative", "z-nan", "step-zero"])
def test_discretize_rejects_what_pmf_rejects(args):
    # One bad coefficient among three blocks' rows refuses them all, and
    # an overflow on scaling is refused, not warned about.
    z, m, s, q, k = args
    arrays = [np.zeros((3, 64)), np.zeros((3, 64)), np.ones((3, 64)),
              np.ones(64)]
    for a, value in zip(arrays, (z, m, s, q)):
        a[..., 7] = value
    with pytest.raises(SamplerError):
        discretize(*arrays, k)


@pytest.mark.parametrize("args", [
    (0.7, 1.8, 2.0, 2),
    (9.0, 0.0, 4.0, 3),
    (-100.0, 0.0, 4.0, 3),
    (1.5, 5e-324, 1.0, 1),
    (3.0, 1e-300, 1.0, 5),
    (2.0**53, 1.0, 1.0, 2),
])
def test_pmf_is_one_row_of_discretize(monkeypatch, args):
    # pmf reaches the bin grid only through discretize, and its values are
    # those of the chain's own table, bit for bit.
    m, s, q, k = args
    rows = discretize(np.zeros(64), np.full(64, m), np.full(64, s),
                      np.full(64, q), k)
    routed = []
    inner = sampler.discretize

    def counted(*a):
        routed.append(a)
        return inner(*a)

    monkeypatch.setattr(sampler, "discretize", counted)
    p = pmf(*args)
    assert len(routed) == 1
    assert p.tobytes() == pmf_table(rows["edges"])[0].tobytes()


@pytest.mark.parametrize("k_range", [256, 2**40, 10**30])
def test_alphabet_beyond_the_cost_file_is_refused(k_range):
    # The cost file stores K in one byte; a wider alphabet is refused
    # before any table is allocated (2**40 would ask for 16 TiB).
    with pytest.raises(SamplerError, match=r"in 1\.\.255"):
        pmf(0.0, 1.0, 1.0, k_range)
    with pytest.raises(SamplerError, match=r"in 1\.\.255"):
        discretize(np.zeros(64), np.zeros(64), np.ones(64), np.ones(64),
                   k_range)


def test_pmf_accepts_numpy_arguments():
    assert np.array_equal(pmf(np.float64(0.7), np.float64(1.8), np.int64(2),
                              np.int64(2)), pmf(0.7, 1.8, 2.0, 2))


# -- entropy and costs ----------------------------------------------------------


def test_entropy_known_values():
    assert entropy(np.array([1.0])) == 0.0
    assert entropy(np.ones(3) / 3.0) == pytest.approx(math.log2(3.0), abs=1e-12)
    assert entropy(np.array([0.25, 0.5, 0.25])) == pytest.approx(1.5, abs=1e-15)


def test_costs_values():
    rho = costs_from_pmf(np.array([0.25, 0.5, 0.25]))
    assert rho[1] == 0.0
    assert rho[0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert rho[2] == pytest.approx(math.log(2.0), abs=1e-15)


def test_costs_infinite_for_zero_mass():
    p = pmf(0.0, 0.0, 1.0, 2)  # point mass at 0
    rho = costs_from_pmf(p)
    assert rho[2] == 0.0
    assert np.all(np.isinf(rho[[0, 1, 3, 4]]))


def test_costs_of_pmf_array():
    # An array of PMFs gets the per-PMF costs; a coefficient without any
    # mass (0/0) costs +inf everywhere.
    pmfs = [pmf(0.7, 1.8, 2.0, 2), pmf(9.0, 0.0, 4.0, 2),
            pmf(-3.0, 5.0, 1.0, 2)]
    probs = np.zeros((2, 2, 5))
    probs[0, 0], probs[0, 1], probs[1, 0] = pmfs
    rho = costs_from_pmf(probs)
    assert rho.shape == probs.shape
    for idx, p in zip(((0, 0), (0, 1), (1, 0)), pmfs):
        assert np.array_equal(rho[idx], costs_from_pmf(p))
    assert np.all(np.isposinf(rho[1, 1]))


# -- discrete draws of the chain -------------------------------------------


def test_chain_point_mass_draws_clamped_atom():
    # sigma' = 0: the change is round(m_hat) clamped into the alphabet,
    # whatever the uniforms, and the candidate is the mean itself.
    mean = np.tile([9.0, 100.0, -100.0, 0.0], 16)  # m_hat 2.25, 25, -25, 0
    for seed in (1, 2):
        out = chain(np.zeros((64, 64)), mean, np.full(64, 4.0), 3, gen(seed))
        assert np.array_equal(out["changes"], np.tile([2, 3, -3, 0], 16))
        assert np.array_equal(out["samples"], mean)
        assert np.all(entropy(pmf_table(out["edges"])) == 0.0)


def test_sample_discrete_deterministic():
    # The chain's discrete draws are a function of the stream alone.
    a = iid_chain(2.0, 0.3, 1.0, 3, gen(9))
    b = iid_chain(2.0, 0.3, 1.0, 3, gen(9))
    assert np.array_equal(a["changes"], b["changes"])


def test_chain_discrete_frequencies():
    p = pmf(0.7, 1.8, 2.0, 2)
    g = gen(2)
    draws = np.concatenate(
        [iid_chain(1.8, 0.7, 2.0, 2, g)["changes"] for _ in range(4000)])
    n = draws.size
    for k in range(-2, 3):
        freq = np.mean(draws == k)
        se = math.sqrt(p[k + 2] * (1.0 - p[k + 2]) / n)
        assert abs(freq - p[k + 2]) <= 5.0 * se


def test_chain_never_draws_zero_mass_bin():
    # m_hat = 0.45, sigma_hat = 0.02: only changes 0 and +1 carry mass.
    g = gen(3)
    drawn = set()
    for _ in range(300):
        out = iid_chain(0.02, 0.45, 1.0, 5, g)
        probs = pmf_table(out["edges"])
        for i, k in enumerate(out["changes"]):
            assert probs[i][k + 5] > 0.0
            drawn.add(int(k))
        assert np.count_nonzero(probs[0]) == 2
    assert drawn == {0, 1}


# -- continuous candidates of the chain -----------------------------------


def test_continuous_degenerate_returns_mean():
    out = chain(np.zeros((64, 64)), np.full(64, 9.0), np.full(64, 4.0), 3,
                gen(0))
    assert np.all(out["samples"] == 9.0)
    assert np.all(out["changes"] == 2)


def test_continuous_zero_bin_containment():
    q = 3.0
    g = gen(4)
    for _ in range(10):
        out = iid_chain(q, 0.0, q, 5, g)
        assert_samples_in_drawn_bins(out, np.full(64, q), 5)
        zero = out["changes"] == 0
        assert np.all(np.abs(out["samples"][zero]) <= 0.5 * q)


def test_continuous_bin_containment_offset_mean():
    # m_hat = 1.4 -> center 1; k = -1 covers (-0.5, 0.5] in scaled units.
    q, m = 2.0, 2.8
    g = gen(5)
    for _ in range(10):
        out = iid_chain(1.0, m, q, 3, g)
        assert_samples_in_drawn_bins(out, np.full(64, q), 3)
        low = out["changes"] == -1
        assert np.all((out["samples"][low] > -0.5 * q)
                      & (out["samples"][low] <= 0.5 * q))
    # Correlated coefficients with varying steps: each one has its own
    # conditional mean and bin grid.
    steps = np.linspace(0.5, 3.0, 64)
    mean = np.linspace(-3.0, 3.0, 64)
    for seed in range(20):
        out = chain(random_chol(seed) * 2.0, mean, steps, 3, g)
        assert_samples_in_drawn_bins(out, steps, 3)


def test_continuous_matches_truncated_normal_moments():
    m, sigma, q, k = 1.0, 2.0, 1.0, 1
    g = gen(6)
    out = [iid_chain(sigma, m, q, 5, g) for _ in range(2000)]
    changes = np.concatenate([o["changes"] for o in out])
    draws = np.concatenate([o["samples"] for o in out])[changes == k]
    n = draws.size
    center = 1.0  # round(1.0)
    lo, hi = center - 0.5 + k, center + 0.5 + k
    a, b = (lo - m) / sigma, (hi - m) / sigma
    z = norm.cdf(b) - norm.cdf(a)
    mean_tn = m + sigma * (norm.pdf(a) - norm.pdf(b)) / z
    var_tn = sigma**2 * (
        1.0 + (a * norm.pdf(a) - b * norm.pdf(b)) / z
        - ((norm.pdf(a) - norm.pdf(b)) / z) ** 2)
    se = math.sqrt(var_tn / n)
    assert abs(draws.mean() - mean_tn) <= 5.0 * se
    assert np.all((draws > lo * q) & (draws <= hi * q))


def test_low_mass_bin_holds_its_sample():
    # A uniform inside the ~3e-6 bin (4.5, 5.5] of N(0, 1) draws change 5,
    # and the one uniform gives a sample inside that bin; u = 0.5 gives
    # z = 0, change 0 and the mean.
    u = np.full(64, 0.5)
    u[0] = 0.5 * (norm.cdf(4.5) + norm.cdf(5.5))
    out = chain(np.eye(64), np.zeros(64), np.ones(64), 6, FixedUniforms(u))
    assert out["changes"][0] == 5
    assert pmf_table(out["edges"])[0][5 + 6] < 1e-5
    assert 4.5 < out["samples"][0] <= 5.5
    assert np.all(out["changes"][1:] == 0)
    assert np.all(out["samples"][1:] == 0.0)


# -- the chain -------------------------------------------------------------------


def test_chain_first_step_params():
    chol = random_chol(0)
    mean = np.linspace(-2, 2, 64)
    q = 2.0
    out = chain(chol, mean, np.full(64, q), 5, gen(11))
    # First coefficient: m' = mean[0], sigma' = chol[0, 0].
    assert np.array_equal(out["params"][0], [mean[0] / q, chol[0, 0] / q])
    ref = pmf(mean[0], abs(chol[0, 0]), q, 5)
    assert np.array_equal(pmf_table(out["edges"])[0], ref)


def test_chain_diagonal_chol_matches_standalone_pmfs():
    sigmas = np.linspace(0.2, 3.0, 64)
    chol = np.diag(sigmas)
    mean = np.linspace(-1.5, 1.5, 64)
    out = chain(chol, mean, np.full(64, 2.0), 4, gen(12))
    for i in range(64):
        ref = pmf(mean[i], sigmas[i], 2.0, 4)
        assert np.array_equal(pmf_table(out["edges"])[i], ref)


def test_chain_determinism():
    chol = random_chol(15)
    mean = np.zeros(64)
    q = np.full(64, 1.0)
    a = chain(chol, mean, q, 5, gen(16))
    b = chain(chol, mean, q, 5, gen(16))
    assert np.array_equal(a["changes"], b["changes"])
    assert np.array_equal(a["samples"], b["samples"])


def test_chain_changes_bounded_by_alphabet():
    chol = random_chol(17) * 5.0
    out = chain(chol, np.zeros(64), np.full(64, 1.0), 3, gen(18))
    assert np.abs(out["changes"]).max() <= 3


def test_chain_entropy_monotone_in_alphabet_at_matched_params():
    # Folding can only merge mass: at identical (m_hat, sigma_hat) the
    # folded entropy is non-decreasing in K.
    chol = random_chol(19)
    mean = np.linspace(-2, 2, 64)
    q = np.full(64, 2.0)
    out = chain(chol, mean, q, 5, gen(20))
    for m_hat, sigma_hat in out["params"]:
        h = [entropy(pmf(m_hat * 2.0, sigma_hat * 2.0, 2.0, k))
             for k in (1, 2, 3, 5)]
        assert h[0] <= h[1] + 1e-12
        assert h[1] <= h[2] + 1e-12
        assert h[2] <= h[3] + 1e-12


def test_chain_reproduces_joint_covariance():
    # 1e5 runs of the 64-step chain on a fixed covariance: the continuous
    # outputs must reproduce it entrywise within Monte-Carlo error.
    chol = random_chol(21)
    cov = chol @ chol.T.copy()
    q = np.full(64, 1.0)
    n = 100_000
    acc = np.zeros((64, 64))
    mean = np.zeros(64)
    for i in range(n):
        out = chain(chol, mean, q, 5, streams.make_stream(i, 7, payload=1))
        acc += np.outer(out["samples"], out["samples"])
    emp = acc / n
    from conftest import cov_standard_error

    se = cov_standard_error(cov, n)
    assert np.all(np.abs(emp - cov) <= 5.0 * se)


def test_chain_zero_sigma_coordinate():
    # A zero Cholesky diagonal makes the coefficient deterministic.
    chol = np.zeros((64, 64))
    chol[0, 0] = 1.0
    mean = np.zeros(64)
    out = chain(chol, mean, np.full(64, 1.0), 5, gen(22))
    assert np.all(out["changes"][1:] == 0)
    assert np.all(out["samples"][1:] == 0.0)
    assert np.all(entropy(pmf_table(out["edges"]))[1:] == 0.0)


def test_chain_matches_reference_scan():
    # The vectorized draw and PMF table reproduce the per-coefficient
    # linear scan over the bin edges exactly, on all four outputs and on
    # the table built from the edges.
    sigma_hats, far_means = [], 0
    for b, (chol, mean, steps, k) in enumerate(reference_scan_blocks(320, 23)):
        out = chain(chol, mean, steps, k, gen(b))
        ref = reference_chain(chol, mean, steps, k, gen(b))
        assert_chains_equal(out, ref)
        assert np.array_equal(pmf_table(out["edges"]),
                              reference_pmf_table(ref["edges"]))
        sigma_hats.append(out["params"][:, 1])
        far_means += np.count_nonzero(np.abs(out["params"][:, 0]) > 10 * k)
    sigma_hats = np.concatenate(sigma_hats)
    live = sigma_hats[sigma_hats > 0]
    assert live.min() < 1e-6 and live.max() > 1e6
    assert live.size < sigma_hats.size
    assert far_means > 1000


def test_pmf_table_leaves_its_edges_and_matches_the_reference():
    # The table is differenced in its own buffer: the edges stay as they
    # were, and the table is the reference's over the whole scan range.
    for b, (chol, mean, steps, k) in enumerate(reference_scan_blocks(80, 29)):
        edges = chain(chol, mean, steps, k, gen(b))["edges"]
        kept = edges.copy()
        table = pmf_table(edges)
        assert np.array_equal(edges, kept)
        assert np.array_equal(table, reference_pmf_table(kept))


def test_live_samples_lie_in_drawn_bins_over_scan_range():
    # Containment holds for every live coefficient of every scan block,
    # not only at moderate parameters: sigma_hat from 1e-6 to 1e6, means
    # far beyond K, zero rows and end symbols included.
    for b, (chol, mean, steps, k) in enumerate(reference_scan_blocks(320, 23)):
        assert_samples_in_drawn_bins(chain(chol, mean, steps, k, gen(b)),
                                     steps, k)


@pytest.mark.parametrize("u_disc", [0.0, math.nextafter(1.0, 0.0)])
def test_chain_matches_reference_scan_at_extreme_uniforms(u_disc):
    # u = 0 is read as 2**-53, so both extremes give z = -+8.21: the drawn
    # symbol carries positive mass, and the sample lies in its bin.
    u = np.full(64, u_disc)
    for chol, mean, steps, k in reference_scan_blocks(320, 24):
        out = chain(chol, mean, steps, k, FixedUniforms(u))
        ref = reference_chain(chol, mean, steps, k, FixedUniforms(u))
        assert_chains_equal(out, ref)
        table = pmf_table(out["edges"])
        assert np.array_equal(table, reference_pmf_table(ref["edges"]))
        drawn = out["changes"] + k
        assert np.all(table[np.arange(64), drawn] > 0.0)
        assert_samples_in_drawn_bins(out, steps, k)
        if u_disc == 0.0:
            assert_chains_equal(out, chain(
                chol, mean, steps, k, FixedUniforms(np.full(64, 2.0**-53))))


def test_chain_returns_the_draw_alone():
    # The per-block step is the product with the block's own factor;
    # drawing and discretizing are left to ``rng`` and ``discretize``.
    lower, _ = chain_form(random_chol(26))
    base_mean = np.linspace(-1.0, 1.0, 64)
    z = streams.standard_normal_icdf(gen(26), 64)
    before = z.copy()
    out = run_block_chain(lower, base_mean, z)
    assert out.shape == (64,)
    assert np.array_equal(out, base_mean + lower @ z)
    assert np.array_equal(z, before)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_stacked_chain_rows_match_single_block_calls(n):
    # Stacked (n, 64, 64) factors with (n, 64) means and normals give, row
    # by row, the means of n single-block calls, bit for bit; the stack
    # may be empty.  The inputs are left unchanged.
    rng = np.random.default_rng(28)
    lower = np.tril(rng.normal(size=(n, 64, 64)), -1)
    base_mean = rng.normal(size=(n, 64))
    z = rng.normal(size=(n, 64))
    inputs = [a.copy() for a in (lower, base_mean, z)]
    out = run_block_chain(lower, base_mean, z)
    assert out.shape == (n, 64)
    for i in range(n):
        assert np.array_equal(out[i],
                              run_block_chain(lower[i], base_mean[i], z[i]))
    for a, before in zip((lower, base_mean, z), inputs):
        assert np.array_equal(a, before)


def test_mixed_chunk_rows_match_blocks_discretized_alone():
    # ``_grid`` picks its path once per call: a chunk with a zero or a
    # subnormal deviation anywhere takes the careful path for every row.
    # Each block's rows must still be those of discretizing it alone, where
    # the ordinary block takes the fast path.
    rng = np.random.default_rng(27)
    steps = rng.uniform(0.5, 20.0, size=64)
    sigmas = rng.uniform(0.1, 30.0, size=(4, 64))
    sigmas[1, ::3] = 0.0  # point masses
    sigmas[2, 1::4] = 5e-324  # capped reciprocals
    sigmas[3, :32], sigmas[3, 40:48] = 0.0, 5e-324
    means = rng.normal(size=(4, 64)) * steps * 4.0
    means[2, 1::4] = 1.5 * steps[1::4]  # bin edge exactly at the mean
    z = rng.normal(size=(4, 64))
    z[2, 1::4] = 0.0
    for k_range in (1, 5):
        chunk = discretize(z, means, sigmas, steps, k_range)
        assert chunk["changes"].shape == (4, 64)
        assert chunk["edges"].shape == (4 * 64, 2 * k_range)
        for b in range(4):
            alone = discretize(z[b], means[b], sigmas[b], steps, k_range)
            rows = slice(64 * b, 64 * (b + 1))
            assert np.array_equal(chunk["changes"][b], alone["changes"])
            assert np.array_equal(chunk["params"][b], alone["params"])
            assert np.array_equal(chunk["edges"][rows], alone["edges"])
            assert np.array_equal(pmf_table(chunk["edges"][rows]),
                                  pmf_table(alone["edges"]))
    assert (sigmas[0] >= 2.0**-960).all()


def test_chain_z_on_edge_draws_lower_bin():
    # u = 0.5 gives z = 0 exactly.  A half-integer m_hat puts a bin edge
    # exactly at the mean, so z = 0 lies on that edge and draws the bin
    # below it; the next uniform up draws the bin above.  Means and steps
    # are exact binary fractions, so m_hat is the half-integer itself.
    rng = np.random.default_rng(25)
    for k in range(1, 7):
        m_hat = rng.integers(-3 * k, 3 * k, size=64) + 0.5
        steps = 2.0 ** rng.integers(-2, 4, size=64)
        chol = np.diag(rng.uniform(0.1, 5.0, size=64))
        mean = m_hat * steps
        # The edge at m_hat is the lower edge of symbol m_hat - round(m_hat)
        # + 0.5 (0 or 1), so the tie draws the symbol below it.
        below = m_hat - round_half_away_array(m_hat) - 0.5
        for u0, expected in ((0.5, below), (math.nextafter(0.5, 1.0), below + 1)):
            u = np.full(64, u0)
            out = chain(chol, mean, steps, k, FixedUniforms(u))
            assert np.array_equal(out["changes"], expected)
            assert_chains_equal(out, reference_chain(
                chol, mean, steps, k, FixedUniforms(u)))
