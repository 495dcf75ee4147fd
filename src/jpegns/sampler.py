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

The draw is bracketed: the inverse normal CDF of the discrete uniform
guesses the bin, and the CDF values at that bin's two edges settle it, so a
coefficient usually costs two erf evaluations instead of the full CDF.  The
chain keeps each coefficient's bin grid, and the block's folded-PMF table
is built from the grids in one array pass after the loop, with the same
erf arguments the draws compare against; ``pmf`` is one row of that table.

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
    r = math.floor(abs(x) + 0.5)
    return r if x >= 0 else -r


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


def _grid(m_hat, sigma_hat, k_range):
    """(center_round, base, inv) of the bin grid of N(m_hat, sigma_hat^2).

    The lower edge of symbol k has CDF 0.5 * (1 + erf((base + k) * inv /
    sqrt 2)).  A zero deviation (including underflow of a subnormal sigma')
    is a point mass at round(m_hat) clamped into the alphabet: its grid is
    centered on that atom with inv = inf, so every edge CDF is exactly 0 or 1.
    """
    center = round_half_away(m_hat)
    if sigma_hat == 0.0:
        return center, -min(max(center, -k_range), k_range) - 0.5, math.inf
    return center, center - 0.5 - m_hat, 1.0 / sigma_hat


def _pmf_table(base, inv, k_range):
    """Folded PMFs (n, 2K+1) of n coefficients from their bin grids.

    cdf[:, j] = P(change <= -K + j) and its final column is exactly 1, so
    both tails fold into the end symbols.  The edge CDFs map ``math.erf``
    over the same arguments the chain's draw evaluates, so the table agrees
    bit for bit with the CDF values a draw compares its uniform against.
    """
    edges = np.arange(-k_range + 1, k_range + 1, dtype=np.float64)
    args = (base[:, None] + edges) * inv[:, None] * _SQRT_HALF
    erfs = np.fromiter(map(math.erf, args.ravel().tolist()), np.float64,
                       args.size).reshape(args.shape)
    cdf = np.ones((base.size, 2 * k_range + 1))
    cdf[:, :-1] = 0.5 * (1.0 + erfs)
    lo = np.zeros_like(cdf)
    lo[:, 1:] = cdf[:, :-1]
    return np.where(cdf > lo, cdf - lo, 0.0)


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
    center, base, inv = _grid(m_prime / q_step, sigma_prime / q_step, k_range)
    probs = _pmf_table(np.array([base]), np.array([inv]), k_range)[0]
    return Pmf(k_min=-k_range, k_max=k_range, probs=probs, center_round=center)


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
        return float(ndtri(min(max(u, _TINY), _BELOW_ONE)))
    if hi_z <= -lo_z:  # bin mass concentrated on the lower half-line
        p_lo = 0.5 * (1.0 + math.erf(lo_z * _SQRT_HALF))
        p_hi = 0.5 * (1.0 + math.erf(hi_z * _SQRT_HALF))
        p = p_lo + u * (p_hi - p_lo)
        z = float(ndtri(min(max(p, _TINY), _BELOW_ONE)))
    else:  # upper tails, accurate for large z
        q_hi = 0.5 * math.erfc(hi_z * _SQRT_HALF)
        q_lo = 0.5 * math.erfc(lo_z * _SQRT_HALF)
        p = q_hi + (1.0 - u) * (q_lo - q_hi)
        z = -float(ndtri(min(max(p, _TINY), _BELOW_ONE)))
    return min(max(z, lo_z), hi_z)


def run_block_chain(chol, base_mean, q_steps, k_range, gen):
    """Run the full 64-coefficient chain for one block.

    Returns a dict with the discrete ``changes`` (64), the continuous
    candidates ``samples`` (64), the folded PMFs ``probs`` (64, 2K+1), the
    conditional ``params`` (m_hat, sigma_hat) in quantization steps (64, 2)
    and the per-coefficient ``entropy_bits`` (64) of ``probs``.  Draws the
    block's 128 uniforms up front: uniforms 2i and 2i+1 drive the discrete
    and the continuous draw of coefficient i.  The loop stores each
    coefficient's bin grid; the PMF table is built from the grids after it.

    A zero-deviation coefficient draws its clamped atom and is its own
    continuous candidate.  The candidate for the end symbols -K/+K is drawn
    from the full folded tail so the chain reproduces the exact Gaussian
    joint.
    """
    uniforms = gen.random(128)
    u_disc = uniforms[0::2].tolist()
    u_cont = uniforms[1::2].tolist()
    z_guess = ndtri(uniforms[0::2]).tolist()
    steps = np.asarray(q_steps, dtype=np.float64)
    # sigma' is |chol[i, i]| whatever the earlier draws.
    sigmas = np.abs(np.diagonal(chol))
    mean_list = np.asarray(base_mean, dtype=np.float64).tolist()
    erf, floor = math.erf, math.floor
    noise = np.zeros(64)
    changes, samples, means, bases, invs = [], [], [], [], []
    for i, (q, sigma_prime) in enumerate(zip(steps.tolist(), sigmas.tolist())):
        m_prime = mean_list[i]
        if i:
            m_prime += float(chol[i, :i].dot(noise[:i]))
        sigma_hat = sigma_prime / q
        _, base, inv = _grid(m_prime / q, sigma_hat, k_range)
        if sigma_hat == 0.0:
            # The point mass draws its atom, -0.5 - base (see _grid).
            k = int(-0.5 - base)
            s = m_prime
            z = 0.0
        else:
            # The change is the first symbol whose CDF exceeds u.  Start at
            # the bin of the untruncated value ndtri(u), clamped into -K..K
            # as a float so that u = 0 (-inf) and huge deviations cannot
            # overflow, and settle with the CDF at the bin's two edges; any
            # start settles to the same symbol, usually after two erf values.
            u = u_disc[i]
            g = z_guess[i] / inv - base
            k = floor(g) if -k_range < g < k_range else (
                k_range if g >= k_range else -k_range)
            while k > -k_range and 0.5 * (1.0 + erf(
                    (base + k) * inv * _SQRT_HALF)) > u:
                k -= 1
            while k < k_range and 0.5 * (1.0 + erf(
                    (base + (k + 1)) * inv * _SQRT_HALF)) <= u:
                k += 1
            lo_z = -math.inf if k == -k_range else (base + k) * inv
            hi_z = math.inf if k == k_range else (base + k + 1.0) * inv
            z = _truncated_standard_normal(lo_z, hi_z, u_cont[i])
            s = m_prime + sigma_prime * z
        noise[i] = z
        changes.append(k)
        samples.append(s)
        means.append(m_prime)
        bases.append(base)
        invs.append(inv)
    probs = _pmf_table(np.array(bases), np.array(invs), k_range)
    params = np.column_stack((means, sigmas)) / steps[:, None]
    return {"changes": np.array(changes, dtype=np.int64),
            "samples": np.array(samples), "probs": probs,
            "params": params, "entropy_bits": entropy(probs)}
