"""Per-coefficient change PMFs, the sampling chain and entropy.

Each DCT coefficient of a block is visited in row-scan order.  Given the
Cholesky factor of the block's conditional covariance and the innovations
of earlier coefficients, the coefficient's stego signal is Gaussian with
mean m' and deviation sigma'.  Scaled by the quantization step, the signal
is binned around the rounded scaled mean into the change alphabet
-K..K (tails beyond the alphabet fold into the end symbols), one change is
drawn from the folded PMF, and a continuous candidate consistent with the
drawn bin is recovered by truncated-Gaussian inverse-CDF sampling so the
chain can continue exactly.  End-symbol candidates are drawn from the full
folded tail, which keeps the continuous output an exact draw of the
Gaussian joint.

Conventions: rounding is half-away-from-zero; bins are half-open on the
left, (u_k, u_{k+1}]; the chain consumes exactly two uniforms per
coefficient (one discrete, one continuous), so streams are positionally
reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

_SQRT_HALF = math.sqrt(0.5)
_BELOW_ONE = math.nextafter(1.0, 0.0)
_TINY = 5e-324


class SamplerError(Exception):
    """Invalid sampling parameters."""


def round_half_away(x):
    """Round to the nearest integer, halves away from zero."""
    return int(math.floor(abs(x) + 0.5) * (1 if x >= 0 else -1))


def _phi(z):
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z * _SQRT_HALF))


def _phi_bar(z):
    """Standard normal upper tail probability, accurate for large z."""
    return 0.5 * math.erfc(z * _SQRT_HALF)


def _inv_phi(p):
    return float(ndtri(p))


@dataclass(frozen=True)
class Pmf:
    """Folded change PMF over the alphabet k_min..k_max.

    ``center_round`` is the rounded scaled mean used for the bin edges:
    u_k = center_round - 0.5 + k.
    """

    k_min: int
    k_max: int
    probs: np.ndarray
    center_round: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (self.k_max - self.k_min + 1,):
            raise SamplerError("probability vector does not match alphabet")
        if np.any(p < 0):
            raise SamplerError("negative probability")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise SamplerError("probabilities do not sum to 1")
        object.__setattr__(self, "probs", p)

    def prob(self, k):
        if not (self.k_min <= k <= self.k_max):
            return 0.0
        return float(self.probs[k - self.k_min])


def _folded_pmf(m_hat, sigma_hat, k_range):
    """(center_round, cdf, probs) of the folded PMF in scaled units.

    cdf[j] = P(change <= -K + j) and its final entry is exactly 1, so both
    tails fold into the end symbols; probs[j] is the mass of change -K + j.
    sigma_hat = 0 (including underflow of a subnormal sigma') gives the
    step CDF of a point mass at round(m_hat) clamped into the alphabet.
    """
    center = round_half_away(m_hat)
    if sigma_hat == 0.0:
        atom = min(max(center, -k_range), k_range)
        cdf = [0.0] * (atom + k_range) + [1.0] * (k_range + 1 - atom)
    else:
        base = center - 0.5 - m_hat
        inv = 1.0 / sigma_hat
        cdf = [_phi((base + k) * inv)
               for k in range(-k_range + 1, k_range + 1)]
        cdf.append(1.0)
    probs = [hi - lo if hi > lo else 0.0 for lo, hi in zip([0.0] + cdf, cdf)]
    return center, cdf, probs


def pmf(m_prime, sigma_prime, q_step, k_range):
    """Folded change PMF for a Gaussian stego signal N(m', sigma'^2).

    The signal scaled by the quantization step has mean m_hat = m'/q and
    deviation sigma_hat = sigma'/q; bin k covers (u_k, u_{k+1}] with
    u_k = [m_hat] - 0.5 + k, each with probability
    (erf((u_{k+1}-m_hat)/(sqrt2 sigma_hat)) - erf((u_k-m_hat)/...)) / 2,
    and mass beyond +-k_range folds into the end symbols.  sigma' = 0
    degenerates to a point mass at round(m_hat) clamped into the alphabet.
    """
    if sigma_prime < 0:
        raise SamplerError("sigma_prime must be >= 0")
    if q_step <= 0:
        raise SamplerError("q_step must be positive")
    if k_range < 1:
        raise SamplerError("alphabet half-width must be >= 1")
    center, _, probs = _folded_pmf(m_prime / q_step, sigma_prime / q_step,
                                   k_range)
    return Pmf(k_min=-k_range, k_max=k_range, probs=np.array(probs),
               center_round=center)


def entropy(p):
    """Shannon entropy in bits along the last axis of a PMF array (0 log 0 = 0).

    A 1-D probability vector gives a scalar.
    """
    p = np.asarray(p, dtype=np.float64)
    logs = np.zeros_like(p)
    np.log2(p, out=logs, where=p > 0.0)
    return -np.sum(p * logs, axis=-1)


def costs_from_pmf(p):
    """Embedding costs rho(k) = ln(pi(0) / pi(k)) along the last axis.

    ``p`` is an array of folded PMFs over -K..K, shape (..., 2K+1).  Zero
    mass maps to +inf, and so does 0/0 (a coefficient without any mass,
    such as one of a dead block).
    """
    probs = np.asarray(p, dtype=np.float64)
    zero = probs.shape[-1] // 2
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = np.log(probs[..., zero : zero + 1]) - np.log(probs)
    return np.where(np.isnan(costs), np.inf, costs)


def _truncated_standard_normal(lo_z, hi_z, u):
    """Inverse-CDF draw of a standard normal conditioned on (lo_z, hi_z].

    Uses whichever tail has better floating-point resolution, so draws stay
    accurate for bins far from the mean.
    """
    if lo_z == -math.inf and hi_z == math.inf:
        return _inv_phi(min(max(u, _TINY), _BELOW_ONE))
    if hi_z <= -lo_z:  # bin mass concentrated on the lower half-line
        p_lo = _phi(lo_z)
        p_hi = _phi(hi_z)
        p = p_lo + u * (p_hi - p_lo)
        z = _inv_phi(min(max(p, _TINY), _BELOW_ONE))
    else:
        q_hi = _phi_bar(hi_z)
        q_lo = _phi_bar(lo_z)
        p = q_hi + (1.0 - u) * (q_lo - q_hi)
        z = -_inv_phi(min(max(p, _TINY), _BELOW_ONE))
    return min(max(z, lo_z), hi_z)


def _step_params(chol, base_mean, noise, i):
    """Conditional (m', sigma') of coefficient i given earlier innovations."""
    sigma = abs(float(chol[i, i]))
    if i:
        m = float(base_mean[i]) + float(np.dot(chol[i, :i], noise[:i]))
    else:
        m = float(base_mean[0])
    return m, sigma


def _draw_coefficient(m_prime, sigma_prime, q_step, k_range, u_disc, u_cont):
    """One chain draw from two uniforms: (probs, k, s, z).

    The discrete change is the first symbol whose CDF exceeds ``u_disc``,
    so a zero-mass symbol is never drawn.  A zero-deviation signal is its
    own continuous candidate.  The candidate for the end symbols -K/+K is
    drawn from the full folded tail so the chain reproduces the exact
    Gaussian joint.
    """
    m_hat = m_prime / q_step
    sigma_hat = sigma_prime / q_step
    center, cdf, probs = _folded_pmf(m_hat, sigma_hat, k_range)
    j = 0
    while cdf[j] <= u_disc:
        j += 1
    k = j - k_range
    if sigma_hat == 0.0:
        return probs, k, m_prime, 0.0
    base = center - 0.5 - m_hat
    inv = 1.0 / sigma_hat
    lo_z = -math.inf if k == -k_range else (base + k) * inv
    hi_z = math.inf if k == k_range else (base + k + 1.0) * inv
    z = _truncated_standard_normal(lo_z, hi_z, u_cont)
    return probs, k, m_prime + sigma_prime * z, z


def run_block_chain(chol, base_mean, q_steps, k_range, gen):
    """Run the full 64-coefficient chain for one block.

    Returns a dict with the discrete ``changes`` (64), the continuous
    candidates ``samples`` (64), the folded PMFs ``probs`` (64, 2K+1), the
    conditional ``params`` (m_hat, sigma_hat) in quantization steps (64, 2)
    and the per-coefficient ``entropy_bits`` (64) of ``probs``.  Draws the
    block's 128 uniforms up front: uniforms 2i and 2i+1 drive the discrete
    and the continuous draw of coefficient i.
    """
    uniforms = gen.random(128).tolist()
    steps = np.asarray(q_steps, dtype=np.float64)
    changes = np.zeros(64, dtype=np.int64)
    samples = np.zeros(64)
    noise = np.zeros(64)
    means = np.zeros(64)
    probs = []
    for i in range(64):
        m_prime, sigma_prime = _step_params(chol, base_mean, noise, i)
        p, k, s, z = _draw_coefficient(
            m_prime, sigma_prime, float(steps[i]), k_range,
            uniforms[2 * i], uniforms[2 * i + 1])
        changes[i] = k
        samples[i] = s
        noise[i] = z
        means[i] = m_prime
        probs.extend(p)
    probs = np.array(probs).reshape(64, -1)
    # sigma' is |chol[i, i]| whatever the earlier draws (_step_params).
    params = np.column_stack((means, np.abs(np.diagonal(chol)))) / steps[:, None]
    return {"changes": changes, "samples": samples, "probs": probs,
            "params": params, "entropy_bits": entropy(probs)}
