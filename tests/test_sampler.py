import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from jpegns import rng as streams
from jpegns import sampler
from jpegns.sampler import (
    Pmf,
    SamplerError,
    costs_from_pmf,
    entropy,
    pmf,
    round_half_away,
    run_block_chain,
)


from conftest import quadrature_change_pmf as quadrature_pmf
from conftest import reference_block_chain


def gen(seed=0):
    return streams.make_stream(seed, 7)


class FixedUniforms:
    """Stand-in block stream whose 128 uniforms are given."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)

    def random(self, n):
        assert n == self.uniforms.size
        return self.uniforms


def random_chol(seed, n=64):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n + 8))
    return np.linalg.cholesky(a @ a.T.copy() / (n + 8))


def iid_chain(sigma, mean, q, k_range, g):
    """Chain with equal (m', sigma', q) on every coefficient: 64 iid draws."""
    return run_block_chain(np.diag(np.full(64, float(sigma))),
                           np.full(64, float(mean)), np.full(64, float(q)),
                           k_range, g)


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
    """samples[i]/q lies in (c - 0.5 + k, c + 0.5 + k] for |k| < K."""
    for i in range(64):
        k = int(out["changes"][i])
        if abs(k) == k_range:
            continue  # end symbols carry the folded tails
        c = round_half_away(out["params"][i, 0])
        assert c - 0.5 + k < out["samples"][i] / q_steps[i] <= c + 0.5 + k


# -- pmf ----------------------------------------------------------------------


def test_pmf_point_mass_at_zero():
    p = pmf(0.0, 0.0, 4.0, 3)
    assert p.prob(0) == 1.0
    assert p.probs.sum() == 1.0
    assert entropy(p.probs) == 0.0


def test_pmf_point_mass_at_rounded_mean():
    # sigma' = 0 collapses to round(m_hat) clamped into the alphabet.
    p = pmf(9.0, 0.0, 4.0, 3)  # m_hat = 2.25 -> atom at 2
    assert p.prob(2) == 1.0
    p = pmf(100.0, 0.0, 4.0, 3)  # m_hat = 25 -> clamped to K
    assert p.prob(3) == 1.0
    p = pmf(-100.0, 0.0, 4.0, 3)
    assert p.prob(-3) == 1.0


def test_pmf_unit_sigma_hat_values():
    # m' = 0, sigma' = Q: pi(0) = erf(0.5 / sqrt 2), tails split evenly.
    p = pmf(0.0, 3.0, 3.0, 1)
    expected0 = math.erf(0.5 / math.sqrt(2.0))
    assert p.prob(0) == pytest.approx(expected0, abs=1e-14)
    assert p.prob(1) == pytest.approx((1.0 - expected0) / 2.0, abs=1e-14)
    assert p.prob(-1) == pytest.approx((1.0 - expected0) / 2.0, abs=1e-14)


def test_pmf_symmetry():
    for sigma in (0.3, 1.0, 7.0):
        p = pmf(0.0, sigma, 2.0, 5)
        assert np.allclose(p.probs, p.probs[::-1], atol=1e-15)


def test_pmf_matches_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = rng.uniform(-30, 30)
        s = rng.uniform(0.05, 20)
        q = rng.integers(1, 100)
        k = int(rng.integers(1, 6))
        p = pmf(m, s, q, k)
        oracle = quadrature_pmf(m, s, q, k)
        assert np.abs(p.probs - oracle).max() <= 1e-10


def test_pmf_folding_matches_tail_mass():
    p = pmf(1.5, 2.0, 1.0, 2)
    m_hat, sigma_hat = 1.5, 2.0
    center = 2  # round(1.5) half away from zero
    lo_edge = center - 0.5 + (-2 + 1)
    hi_edge = center - 0.5 + 2
    assert p.prob(-2) == pytest.approx(norm.cdf((lo_edge - m_hat) / sigma_hat),
                                       abs=1e-14)
    assert p.prob(2) == pytest.approx(norm.sf((hi_edge - m_hat) / sigma_hat),
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
    assert abs(float(p.probs.sum()) - 1.0) <= 1e-9
    assert np.all(p.probs >= 0.0)
    assert entropy(p.probs) <= math.log2(2 * k + 1) + 1e-12


def test_pmf_rejects_bad_arguments():
    with pytest.raises(SamplerError):
        pmf(0.0, -1.0, 1.0, 3)
    with pytest.raises(SamplerError):
        pmf(0.0, 1.0, 0.0, 3)
    with pytest.raises(SamplerError):
        pmf(0.0, 1.0, 1.0, 0)


# -- entropy and costs ----------------------------------------------------------


def test_entropy_known_values():
    assert entropy(np.array([1.0])) == 0.0
    assert entropy(np.ones(3) / 3.0) == pytest.approx(math.log2(3.0), abs=1e-12)
    assert entropy(np.array([0.25, 0.5, 0.25])) == pytest.approx(1.5, abs=1e-15)


def test_costs_values():
    p = Pmf(k_min=-1, k_max=1, probs=np.array([0.25, 0.5, 0.25]),
            center_round=0)
    rho = costs_from_pmf(p.probs)
    assert rho[1] == 0.0
    assert rho[0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert rho[2] == pytest.approx(math.log(2.0), abs=1e-15)


def test_costs_infinite_for_zero_mass():
    p = pmf(0.0, 0.0, 1.0, 2)  # point mass at 0
    rho = costs_from_pmf(p.probs)
    assert rho[2] == 0.0
    assert np.all(np.isinf(rho[[0, 1, 3, 4]]))


def test_costs_of_pmf_array():
    # An array of PMFs gets the per-PMF costs; a coefficient without any
    # mass (0/0) costs +inf everywhere.
    pmfs = [pmf(0.7, 1.8, 2.0, 2), pmf(9.0, 0.0, 4.0, 2),
            pmf(-3.0, 5.0, 1.0, 2)]
    probs = np.zeros((2, 2, 5))
    probs[0, 0], probs[0, 1], probs[1, 0] = (p.probs for p in pmfs)
    rho = costs_from_pmf(probs)
    assert rho.shape == probs.shape
    for idx, p in zip(((0, 0), (0, 1), (1, 0)), pmfs):
        assert np.array_equal(rho[idx], costs_from_pmf(p.probs))
    assert np.all(np.isposinf(rho[1, 1]))


# -- discrete draws of the chain -------------------------------------------


def test_chain_point_mass_draws_clamped_atom():
    # sigma' = 0: the change is round(m_hat) clamped into the alphabet,
    # whatever the uniforms, and the candidate is the mean itself.
    mean = np.tile([9.0, 100.0, -100.0, 0.0], 16)  # m_hat 2.25, 25, -25, 0
    for seed in (1, 2):
        out = run_block_chain(np.zeros((64, 64)), mean, np.full(64, 4.0), 3,
                              gen(seed))
        assert np.array_equal(out["changes"], np.tile([2, 3, -3, 0], 16))
        assert np.array_equal(out["samples"], mean)
        assert np.all(out["entropy_bits"] == 0.0)


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
        se = math.sqrt(p.prob(k) * (1.0 - p.prob(k)) / n)
        assert abs(freq - p.prob(k)) <= 5.0 * se


def test_chain_never_draws_zero_mass_bin():
    # m_hat = 0.45, sigma_hat = 0.02: only changes 0 and +1 carry mass.
    g = gen(3)
    drawn = set()
    for _ in range(300):
        out = iid_chain(0.02, 0.45, 1.0, 5, g)
        for i, k in enumerate(out["changes"]):
            assert out["probs"][i][k + 5] > 0.0
            drawn.add(int(k))
        assert np.count_nonzero(out["probs"][0]) == 2
    assert drawn == {0, 1}


# -- continuous candidates of the chain -----------------------------------


def test_continuous_degenerate_returns_mean():
    out = run_block_chain(np.zeros((64, 64)), np.full(64, 9.0),
                          np.full(64, 4.0), 3, gen(0))
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
        out = run_block_chain(random_chol(seed) * 2.0, mean, steps, 3, g)
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


def test_low_acceptance_bin_uses_bounded_path():
    # A discrete uniform inside the ~3e-6 bin (4.5, 5.5] of N(0, 1): the
    # candidate comes from the truncated inverse CDF in one draw.
    u = np.full(128, 0.5)
    u[0] = 0.5 * (norm.cdf(4.5) + norm.cdf(5.5))
    out = run_block_chain(np.eye(64), np.zeros(64), np.ones(64), 6,
                          FixedUniforms(u))
    assert out["changes"][0] == 5
    assert out["probs"][0][5 + 6] < 1e-5
    assert 4.5 < out["samples"][0] <= 5.5
    assert np.all(out["changes"][1:] == 0)


# -- the chain -------------------------------------------------------------------


def test_chain_first_step_params():
    chol = random_chol(0)
    mean = np.linspace(-2, 2, 64)
    q = 2.0
    out = run_block_chain(chol, mean, np.full(64, q), 5, gen(11))
    # First coefficient: m' = mean[0], sigma' = chol[0, 0].
    assert np.array_equal(out["params"][0], [mean[0] / q, chol[0, 0] / q])
    ref = pmf(mean[0], abs(chol[0, 0]), q, 5)
    assert np.array_equal(out["probs"][0], ref.probs)


def test_chain_diagonal_chol_matches_standalone_pmfs():
    sigmas = np.linspace(0.2, 3.0, 64)
    chol = np.diag(sigmas)
    mean = np.linspace(-1.5, 1.5, 64)
    out = run_block_chain(chol, mean, np.full(64, 2.0), 4, gen(12))
    for i in range(64):
        ref = pmf(mean[i], sigmas[i], 2.0, 4)
        assert np.array_equal(out["probs"][i], ref.probs)


def test_chain_determinism():
    chol = random_chol(15)
    mean = np.zeros(64)
    q = np.full(64, 1.0)
    a = run_block_chain(chol, mean, q, 5, gen(16))
    b = run_block_chain(chol, mean, q, 5, gen(16))
    assert np.array_equal(a["changes"], b["changes"])
    assert np.array_equal(a["samples"], b["samples"])


def test_chain_changes_bounded_by_alphabet():
    chol = random_chol(17) * 5.0
    out = run_block_chain(chol, np.zeros(64), np.full(64, 1.0), 3, gen(18))
    assert np.abs(out["changes"]).max() <= 3


def test_chain_entropy_monotone_in_alphabet_at_matched_params():
    # Folding can only merge mass: at identical (m_hat, sigma_hat) the
    # folded entropy is non-decreasing in K.
    chol = random_chol(19)
    mean = np.linspace(-2, 2, 64)
    q = np.full(64, 2.0)
    out = run_block_chain(chol, mean, q, 5, gen(20))
    for m_hat, sigma_hat in out["params"]:
        h = [entropy(pmf(m_hat * 2.0, sigma_hat * 2.0, 2.0, k).probs)
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
        out = run_block_chain(chol, mean, q, 5,
                              streams.make_stream(i, 7, payload=1))
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
    out = run_block_chain(chol, mean, np.full(64, 1.0), 5, gen(22))
    assert np.all(out["changes"][1:] == 0)
    assert np.all(out["samples"][1:] == 0.0)
    assert np.all(out["entropy_bits"][1:] == 0.0)


def test_chain_matches_reference_scan():
    # The bracketed draw and the PMF table built after the loop reproduce
    # the full-CDF linear scan exactly, on all five outputs.
    sigma_hats, far_means = [], 0
    for b, (chol, mean, steps, k) in enumerate(reference_scan_blocks(320, 23)):
        out = run_block_chain(chol, mean, steps, k, gen(b))
        assert_chains_equal(out, reference_block_chain(chol, mean, steps, k,
                                                       gen(b)))
        sigma_hats.append(out["params"][:, 1])
        far_means += np.count_nonzero(np.abs(out["params"][:, 0]) > 10 * k)
    sigma_hats = np.concatenate(sigma_hats)
    live = sigma_hats[sigma_hats > 0]
    assert live.min() < 1e-6 and live.max() > 1e6
    assert live.size < sigma_hats.size
    assert far_means > 1000


@pytest.mark.parametrize("u_disc", [0.0, math.nextafter(1.0, 0.0)])
def test_chain_matches_reference_scan_at_extreme_uniforms(u_disc):
    u = np.full(128, 0.5)
    u[0::2] = u_disc
    for chol, mean, steps, k in reference_scan_blocks(12, 24):
        out = run_block_chain(chol, mean, steps, k, FixedUniforms(u))
        assert_chains_equal(out, reference_block_chain(chol, mean, steps, k,
                                                       FixedUniforms(u)))
        # u = 0 draws the first symbol with mass, u -> 1 the last one.
        drawn = out["changes"] + k
        assert np.all(out["probs"][np.arange(64), drawn] > 0.0)
        cols = np.arange(2 * k + 1)
        passed = (cols < drawn[:, None]) if u_disc == 0.0 else (
            cols > drawn[:, None])
        assert np.all(out["probs"][passed] == 0.0)


def test_chain_tie_at_cdf_value_draws_next_symbol():
    # The CDF of -K is pmf().probs[0] exactly.  A uniform equal to it is not
    # below it, so the next symbol is drawn; one ulp less draws -K.  The
    # inverse-CDF start of the draw lands on either side of such an edge,
    # so both directions of the settling are exercised.
    rng = np.random.default_rng(25)
    ties = 0
    while ties < 60:
        m, sigma = rng.uniform(-5.0, 5.0), rng.uniform(0.1, 5.0)
        q, k = float(rng.integers(1, 4)), int(rng.integers(1, 6))
        cdf = pmf(m, sigma, q, k).probs[0]
        if not 0.0 < cdf < 1.0:
            continue
        ties += 1
        chol = np.diag(np.full(64, sigma))
        for u0, expected in ((cdf, -k + 1), (math.nextafter(cdf, 0.0), -k)):
            u = np.full(128, 0.5)
            u[0] = u0
            out = run_block_chain(chol, np.full(64, m), np.full(64, q), k,
                                  FixedUniforms(u))
            assert out["changes"][0] == expected
            assert_chains_equal(out, reference_block_chain(
                chol, np.full(64, m), np.full(64, q), k, FixedUniforms(u)))
