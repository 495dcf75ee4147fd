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
chain draws the whole block at once, and in steps.  The block's normals
z come first, from its stream's uniforms through the inverse CDF, and are
elementwise, so the embedder draws a whole lattice's at once.  The one
step that needs the block's own factor, ``run_block_chain``, runs block
by block: one product with the strictly lower part of L gives every
m'_i.  Everything after it is elementwise: the signal m'_i + sigma'_i z_i,
and ``discretize``, which takes the draws of any number of blocks as
stacked (n, 64) rows, forms each coefficient's standardized bin edges, and
reads its change off as the bin whose edges hold z_i.  ``pmf_table`` turns
edges into folded PMFs and ``entropy`` reduces them.  All of these act on
each coefficient's row alone, so the embedder discretizes and tabulates
several blocks in one pass, with the values of one pass per block.
``discretize`` is the one route to the bin edges and checks its inputs;
``pmf`` returns one coefficient's row of its table as a plain (2K+1,)
array.

The alphabet half-width K is an integer in 1..255, the range the cost
file stores in one byte.

Conventions: rounding is half-away-from-zero; bins are half-open on the
left, (u_k, u_{k+1}], so a z exactly on an edge draws the lower bin; the
chain consumes exactly one uniform per coefficient, so streams are
positionally reproducible.
"""

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


def pmf_table(edges):
    """Folded PMFs (n, 2K+1) from the standardized edges of ``_grid``.

    cdf[:, j] = P(change <= -K + j), and the CDF's final column is exactly
    1, so both tails fold into the end symbols.  The CDF is written into
    the table's own buffer and differenced there, right to left, so a call
    holds the edges and the table and nothing of their size besides.
    """
    n, width = edges.shape
    probs = np.empty((n, width + 1))
    # Column by column: numpy 2.4 runs a 2-D ufunc over these strided
    # views through 64 KB buffers, which a 32-block embed's memory peak
    # would carry (tracemalloc measures 64 KB more for one 2-D ndtr).
    for j in range(width):
        ndtr(edges[:, j], out=probs[:, j])
    np.subtract(1.0, probs[:, -2], out=probs[:, -1])
    for j in range(width - 1, 0, -1):
        np.subtract(probs[:, j], probs[:, j - 1], out=probs[:, j])
    return np.maximum(probs, 0.0, out=probs)


def pmf(m_prime, sigma_prime, q_step, k_range):
    """Folded change PMF of a Gaussian stego signal N(m', sigma'^2).

    One coefficient through ``discretize``, with its checks: the float64
    (2K+1,) row of ``pmf_table`` over the changes -K..K.  Scaled by the
    step q, the signal is binned around round(m'/q) in unit bins, and the
    tails fold into +-K.  sigma' = 0 is a point mass at round(m'/q)
    clamped into the alphabet.
    """
    return pmf_table(discretize(0.0, m_prime, sigma_prime, q_step,
                                k_range)["edges"])[0]


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


def run_block_chain(lower, base_mean, z):
    """One block's conditional means: the chain's per-block step.

    The conditional factor L comes in the chain's form: ``lower`` (64, 64)
    holds its strictly lower part, zero on and above the diagonal (its
    deviations |diag(L)| go to ``discretize``).  ``z`` (64) are the block's
    normals, one uniform per coefficient through the inverse CDF
    (``rng.normals_from_uniforms``).  Returns the conditional means
    m' = base_mean + lower @ z (64,): the only step that needs the block's
    own factor.  The continuous candidates are m' + sigmas * z, so a
    zero-deviation coefficient is its own mean, and ``discretize`` reads
    the changes off z and m'.
    """
    return base_mean + lower @ z


def discretize(z, means, sigmas, q_steps, k_range):
    """Changes and bin edges of drawn coefficients, stacked as rows.

    ``z``, ``means`` and ``sigmas`` are the normals, ``run_block_chain``'s
    means and the factor's deviations, for one block (64,) or stacked (n, 64),
    or for one coefficient as scalars (``pmf``); ``q_steps`` (64) are the
    quantization steps.  Returns a dict with the discrete ``changes``
    (int64, shaped as ``z``), the conditional ``params`` (m_hat,
    sigma_hat) in quantization steps (shape of ``z`` plus 2) and the
    standardized bin ``edges`` of ``_grid``, one row of 2K per coefficient
    in row order ((64, 2K) for one block), from which ``pmf_table`` builds
    the folded PMFs.  Change i is the number of coefficient i's edges
    below z_i, minus K; a zero-deviation coefficient draws its clamped
    atom, since its edges are all infinite.  Each step acts on one
    coefficient alone, so a row's outputs do not depend on the rows
    stacked with it.

    The only route to ``_grid``.  Raises SamplerError for K outside
    1..MAX_K, a step that is not positive and finite, a negative or NaN
    deviation, a z that is not finite, and a mean or deviation that is not
    finite before or after scaling (an overflow is refused, not warned).
    """
    k_range = rng.check_int(k_range, "alphabet half-width", SamplerError, 1,
                            MAX_K)
    if not np.all((0.0 < q_steps) & (q_steps < np.inf)):
        raise SamplerError("quantization steps must be positive and finite")
    if not (np.all(sigmas >= 0.0) and np.isfinite(z).all()):
        raise SamplerError("deviations must be >= 0 and z finite")
    params = np.empty(np.shape(z) + (2,))
    m_hat, sigma_hat = params[..., 0], params[..., 1]
    with np.errstate(over="ignore"):
        np.divide(means, q_steps, out=m_hat)
        np.divide(sigmas, q_steps, out=sigma_hat)
    if not np.isfinite(params).all():
        raise SamplerError("means / q and deviations / q must be finite")
    edges = _grid(m_hat.ravel(), sigma_hat.ravel(), k_range)
    changes = (edges < np.reshape(z, (-1, 1))).sum(axis=1)
    changes -= k_range
    return {"changes": changes.reshape(np.shape(z)), "params": params,
            "edges": edges}
