"""Per-coefficient change PMFs, the sampling chain and entropy.

A block's stego signal is Gaussian: s = m + L z with z iid N(0, 1), where
m is the block's conditional mean and L the Cholesky factor of its
conditional covariance.  In row-scan order, coefficient i given the earlier
ones is N(m'_i, sigma'_i^2) with m'_i = m_i + sum_{j<i} L_ij z_j and
sigma'_i = |L_ii|.  Scaled by the quantization step, that law is binned
around the rounded scaled mean into the change alphabet -K..K, and the tails
beyond the alphabet fold into the end symbols.

Drawing the change from the folded PMF and then the signal from the
Gaussian truncated to the change's bin gives the same joint law of
(change, signal) as drawing the signal and reading off its bin.  So the
chain draws the whole block at once, and in two steps.  The draw,
``run_block_chain``, runs block by block: one product with the strictly
lower part of L gives every m'_i, and it returns z, the means and the
signal.  Everything after it is elementwise: ``discretize`` takes the
draws of any number of blocks as stacked (n, 64) rows, forms each
coefficient's standardized bin edges, and reads its change off as the bin
whose edges hold z_i.  ``pmf_table`` turns edges into folded PMFs and
``entropy`` reduces them.  All three act on each coefficient's row alone,
so the embedder discretizes and tabulates several blocks in one pass,
with the values of one pass per block.  ``pmf`` returns one row of such a
table as a plain (2K+1,) array.

The alphabet half-width K is an integer in 1..255, the range the cost
file stores in one byte.

Conventions: rounding is half-away-from-zero; bins are half-open on the
left, (u_k, u_{k+1}], so a z exactly on an edge draws the lower bin; the
chain consumes exactly one uniform per coefficient, so streams are
positionally reproducible.
"""

import math
import sys

import numpy as np
from scipy.special import ndtr

from . import rng
from .jpeg_model import round_half_away_array

_MAX_FLOAT = sys.float_info.max
# Below this deviation an edge's standardization can overflow (see _grid).
_SAFE_SIGMA = 2.0**-960
# The largest alphabet half-width: the cost file stores K in one byte.
MAX_K = 255


class SamplerError(Exception):
    """Invalid sampling parameters."""


def _grid(m_hat, sigma_hat, k_range):
    """Standardized bin edges (n, 2K) of N(m_hat, sigma_hat^2).

    Row i holds the lower edges of the symbols -K+1..K of coefficient i,
    standardized: (base + k) * inv with base = round(m_hat) - 0.5 - m_hat
    and inv = 1 / sigma_hat.  ``base`` is formed as
    (round(m_hat) - m_hat) - 0.5: the difference is exact (Sterbenz), so
    the one rounding is the final one, also where round(m_hat) - 0.5 is
    not representable (|m_hat| >= 2**52).  When every sigma_hat is at least
    ``_SAFE_SIGMA`` (the common case), that is all: |base + k| <= K + 1 and
    inv <= 2**960, so no edge overflows.  Otherwise two kinds of row need
    care:

    - A zero deviation (including underflow of a subnormal sigma') is a
      point mass at round(m_hat) clamped into the alphabet: its grid is
      centered on that atom with inv = inf, so every edge is -inf or +inf.
    - A nonzero deviation whose reciprocal overflows keeps its grid with
      inv capped at the largest float: an edge exactly at m_hat then
      standardizes to 0 rather than 0 * inf = NaN, and every other edge to
      a huge value or +-inf.
    """
    center = round_half_away_array(m_hat)
    base = (center - m_hat) - 0.5
    offsets = np.arange(-k_range + 1, k_range + 1, dtype=np.float64)
    if sigma_hat.min() >= _SAFE_SIGMA:
        edges = np.add.outer(base, offsets)
        edges *= (1.0 / sigma_hat)[:, None]
        return edges
    point = sigma_hat == 0.0
    base[point] = -np.clip(center[point], -k_range, k_range) - 0.5
    with np.errstate(divide="ignore", over="ignore"):
        inv = np.minimum(1.0 / sigma_hat, _MAX_FLOAT)
        inv[point] = np.inf
        return np.add.outer(base, offsets) * inv[:, None]


def _check_k(k_range):
    return rng.check_int(k_range, "alphabet half-width", SamplerError, 1,
                         MAX_K)


def pmf_table(edges):
    """Folded PMFs (n, 2K+1) from the standardized edges of ``_grid``.

    cdf[:, j] = P(change <= -K + j) and its final column is exactly 1, so
    both tails fold into the end symbols.
    """
    cdf = ndtr(edges)
    probs = np.empty((edges.shape[0], edges.shape[1] + 1))
    probs[:, :-1] = cdf
    probs[:, -1] = 1.0
    probs[:, 1:] -= cdf
    return np.maximum(probs, 0.0, out=probs)


def pmf(m_prime, sigma_prime, q_step, k_range):
    """Folded change PMF of a Gaussian stego signal N(m', sigma'^2).

    One row of the chain's own table: a float64 (2K+1,) array over the
    changes -K..K.  The signal scaled by the quantization step has mean
    m_hat = m'/q and deviation sigma_hat = sigma'/q; bin k covers
    (u_k, u_{k+1}] with u_k = round(m_hat) - 0.5 + k, each with probability
    Phi((u_{k+1}-m_hat)/sigma_hat) - Phi((u_k-m_hat)/sigma_hat), and mass
    beyond +-k_range folds into the end symbols.  sigma' = 0 degenerates to
    a point mass at round(m_hat) clamped into the alphabet.
    """
    k_range = _check_k(k_range)
    if not (math.isfinite(q_step) and q_step > 0):
        raise SamplerError("q_step must be positive and finite")
    if sigma_prime < 0:
        raise SamplerError("sigma_prime must be >= 0")
    m_hat, sigma_hat = m_prime / q_step, sigma_prime / q_step
    if not (math.isfinite(m_hat) and math.isfinite(sigma_hat)):
        raise SamplerError("m_prime / q_step and sigma_prime / q_step must "
                           "be finite")
    return pmf_table(_grid(np.array([m_hat]), np.array([sigma_hat]),
                           k_range))[0]


def entropy(p):
    """Shannon entropy in bits along the last axis of a PMF array (0 log 0 = 0).

    A 1-D probability vector gives a scalar.  A point mass has entropy
    +0.0: subtracting from zero, unlike negating, keeps a zero sum positive.
    """
    p = np.asarray(p, dtype=np.float64)
    terms = np.zeros(p.shape)
    np.log2(p, out=terms, where=p > 0.0)
    terms *= p
    return 0.0 - terms.sum(axis=-1)


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


def run_block_chain(lower, sigmas, base_mean, gen):
    """Draw one block's continuous stego signal: the chain's per-block step.

    The conditional factor L comes in the chain's form: ``lower`` (64, 64)
    holds its strictly lower part, zero on and above the diagonal, and
    ``sigmas`` (64) its deviations |diag(L)|.  Draws the block's 64 normals
    ``z`` up front, one uniform per coefficient through
    ``rng.standard_normal_icdf``, and returns a dict with ``z``, the
    conditional ``means`` base_mean + lower @ z and the continuous
    candidates ``samples`` means + sigmas * z, each (64,).  A
    zero-deviation coefficient is its own mean.  ``discretize`` reads the
    changes off z and the means.
    """
    z = rng.standard_normal_icdf(gen, 64)
    means = base_mean + lower @ z
    return {"z": z, "means": means, "samples": means + sigmas * z}


def discretize(z, means, sigmas, q_steps, k_range):
    """Changes and bin edges of drawn blocks, stacked as (n, 64) rows.

    ``z``, ``means`` and ``sigmas`` are ``run_block_chain``'s z and means
    and the factor's deviations, for one block (64,) or stacked (n, 64);
    ``q_steps`` (64) are the quantization steps.  Returns a dict with the
    discrete ``changes`` (int64, shaped as ``z``), the conditional
    ``params`` (m_hat, sigma_hat) in quantization steps (shape of ``z``
    plus 2) and the standardized bin ``edges`` of ``_grid``, one row of 2K
    per coefficient in row order ((64, 2K) for one block), from which
    ``pmf_table`` builds the folded PMFs.  Change i is the number of
    coefficient i's edges below z_i, minus K; a zero-deviation coefficient
    draws its clamped atom, since its edges are all infinite.  Each step
    acts on one coefficient alone, so a row's outputs do not depend on
    the rows stacked with it.
    """
    k_range = _check_k(k_range)
    params = np.empty(np.shape(z) + (2,))
    m_hat, sigma_hat = params[..., 0], params[..., 1]
    np.divide(means, q_steps, out=m_hat)
    np.divide(sigmas, q_steps, out=sigma_hat)
    edges = _grid(m_hat.ravel(), sigma_hat.ravel(), k_range)
    changes = (edges < np.reshape(z, (-1, 1))).sum(axis=1)
    changes -= k_range
    return {"changes": changes.reshape(np.shape(z)), "params": params,
            "edges": edges}
