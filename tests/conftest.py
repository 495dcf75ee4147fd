import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from jpegns import RawImage, SensorParams
from jpegns.sampler import (
    _truncated_standard_normal,
    entropy,
    round_half_away,
)


def quadrature_change_pmf(m_prime, sigma_prime, q_step, k_range):
    """Independent adaptive-quadrature oracle for the folded change PMF.

    Integrates the scaled Gaussian density over each bin, clipping to
    +-12 sigma around the mean so the integrator never has to find an
    isolated spike on an infinite interval (the clipped tail mass is below
    1e-30, far inside the comparison tolerance).
    """
    m_hat = m_prime / q_step
    sigma_hat = sigma_prime / q_step
    center = int(np.floor(abs(m_hat) + 0.5) * (1 if m_hat >= 0 else -1))
    density = norm(loc=m_hat, scale=sigma_hat).pdf
    lo_mass, hi_mass = m_hat - 12.0 * sigma_hat, m_hat + 12.0 * sigma_hat
    probs = []
    for k in range(-k_range, k_range + 1):
        lo = lo_mass if k == -k_range else center - 0.5 + k
        hi = hi_mass if k == k_range else center + 0.5 + k
        lo, hi = max(lo, lo_mass), min(hi, hi_mass)
        if hi <= lo:
            probs.append(0.0)
            continue
        val, _ = quad(density, lo, hi, epsabs=1e-13, limit=200)
        probs.append(val)
    return np.array(probs)


def reference_block_chain(chol, base_mean, q_steps, k_range, gen):
    """Scan oracle for ``sampler.run_block_chain``: same outputs, plain loops.

    Every coefficient builds its full folded CDF, cdf[j] = P(change <= -K + j)
    with the last entry exactly 1, and draws the first symbol whose CDF
    exceeds its discrete uniform by a linear scan.  A zero deviation gives
    the step CDF of round(m_hat) clamped into the alphabet.  The continuous
    candidate and the chain's conditioning are those of the production
    chain.
    """
    uniforms = gen.random(128).tolist()
    steps = np.asarray(q_steps, dtype=np.float64)
    changes = np.zeros(64, dtype=np.int64)
    samples = np.zeros(64)
    noise = np.zeros(64)
    means = np.zeros(64)
    probs = []
    sqrt_half = math.sqrt(0.5)
    for i in range(64):
        sigma_prime = abs(float(chol[i, i]))
        m_prime = float(base_mean[i])
        if i:
            m_prime += float(np.dot(chol[i, :i], noise[:i]))
        q = float(steps[i])
        m_hat, sigma_hat = m_prime / q, sigma_prime / q
        center = round_half_away(m_hat)
        base = center - 0.5 - m_hat
        if sigma_hat == 0.0:
            atom = min(max(center, -k_range), k_range)
            cdf = [0.0] * (atom + k_range) + [1.0] * (k_range + 1 - atom)
        else:
            inv = 1.0 / sigma_hat
            cdf = [0.5 * (1.0 + math.erf((base + k) * inv * sqrt_half))
                   for k in range(-k_range + 1, k_range + 1)]
            cdf.append(1.0)
        probs.extend(hi - lo if hi > lo else 0.0
                     for lo, hi in zip([0.0] + cdf, cdf))
        j = 0
        while cdf[j] <= uniforms[2 * i]:
            j += 1
        k = j - k_range
        if sigma_hat == 0.0:
            s, z = m_prime, 0.0
        else:
            lo_z = -math.inf if k == -k_range else (base + k) * inv
            hi_z = math.inf if k == k_range else (base + k + 1.0) * inv
            z = _truncated_standard_normal(lo_z, hi_z, uniforms[2 * i + 1])
            s = m_prime + sigma_prime * z
        changes[i] = k
        samples[i] = s
        noise[i] = z
        means[i] = m_prime
    probs = np.array(probs).reshape(64, -1)
    params = np.column_stack((means, np.abs(np.diagonal(chol)))) / steps[:, None]
    return {"changes": changes, "samples": samples, "probs": probs,
            "params": params, "entropy_bits": entropy(probs)}


@pytest.fixture
def paper_params():
    """Noise parameters of the reference sensor pair: gain 1.15, offset -1150."""
    return SensorParams(a1=0.0, b1=0.0, a2=1.15, b2=-1150.0)


@pytest.fixture
def small_params():
    """Sub-quantization-step stego variance (about 0.5 around x = 2000)."""
    return SensorParams(a1=0.0, b1=0.0, a2=5e-4, b2=-0.5)


@pytest.fixture
def bright_raw(paper_params):
    """48x48 RAW with values in [1500, 3500]: positive variance everywhere."""
    rng = np.random.default_rng(1234)
    data = np.floor(rng.uniform(1500.0, 3500.0, size=(48, 48)))
    return RawImage(data=data, cfa="RGGB", bit_depth=12, params=paper_params)


def cov_standard_error(sigma, n_draws):
    """Entrywise standard error of an empirical covariance of Gaussians."""
    d = np.diag(sigma)
    return np.sqrt((np.outer(d, d) + sigma**2) / n_draws)
