import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from jpegns import RawImage, SensorParams
from jpegns.jpeg_model import round_half_away_array


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


def chain_form(chol):
    """A Cholesky factor in the chain's form: (strictly lower part, which
    ``sampler.run_block_chain`` takes, |diagonal|)."""
    return np.tril(chol, -1), np.abs(np.diagonal(chol))


def reference_block_chain(lower, sigmas, base_mean, q_steps, k_range, gen):
    """Scan oracle for one block's chain: the normals of
    ``rng.normals_from_uniforms``, the means of ``sampler.run_block_chain``,
    the samples and ``sampler.discretize``: same outputs, plain loops.

    Takes the block's 64 uniforms (u = 0 read as 2**-53) and z = ndtri(u).
    The conditional means use the kernel's arithmetic, base_mean + lower @ z:
    one BLAS product, whose summation order a scalar loop would not
    reproduce bit for bit.  Every coefficient then lists the standardized
    lower edges (u_k - m_hat) / sigma_hat of the symbols -K+1..K, with
    u_k = round(m_hat) - 0.5 + k, and its change is -K plus the number of
    edges a linear scan passes below z.  A zero deviation draws round(m_hat)
    clamped into the alphabet: the edges of the symbols up to that atom are
    -inf and the others +inf.
    """
    uniforms = [u if u > 0.0 else 2.0**-53 for u in gen.random(64).tolist()]
    z = ndtri(np.array(uniforms))
    means = base_mean + lower @ z
    steps = np.asarray(q_steps, dtype=np.float64)
    changes = np.zeros(64, dtype=np.int64)
    samples = np.zeros(64)
    edges = []
    symbols = range(-k_range + 1, k_range + 1)
    for i in range(64):
        sigma_prime, z_i, q = float(sigmas[i]), float(z[i]), float(steps[i])
        m_hat, sigma_hat = float(means[i]) / q, sigma_prime / q
        center = float(round_half_away_array(m_hat))
        if sigma_hat == 0.0:
            atom = min(max(center, -k_range), k_range)
            row = [-math.inf if j <= atom else math.inf for j in symbols]
        else:
            inv = min(1.0 / sigma_hat, sys.float_info.max)
            base = center - 0.5 - m_hat
            row = [(base + j) * inv for j in symbols]
        k = -k_range
        for edge in row:
            if not edge < z_i:
                break
            k += 1
        edges.append(row)
        changes[i] = k
        samples[i] = means[i] + sigma_prime * z_i
    params = np.column_stack((means, sigmas)) / steps[:, None]
    return {"changes": changes, "samples": samples, "params": params,
            "edges": np.array(edges)}


def reference_pmf_table(edges):
    """Scan oracle for ``sampler.pmf_table``: each row's folded CDF is ndtr
    of its edges with a final 1, and each symbol's mass the CDF step up to
    it, floored at 0."""
    probs = []
    for row in edges.tolist():
        cdf = [float(ndtr(edge)) for edge in row] + [1.0]
        probs.append([hi - lo if hi > lo else 0.0
                      for lo, hi in zip([0.0] + cdf, cdf)])
    return np.array(probs).reshape(len(edges), -1)


def propagated_covariance(emb):
    """Covariance of a whole ``SimulatedEmbedder`` run's continuous draw,
    propagated exactly, without sampling.

    The chain is linear Gaussian: block b draws s_b = G_b s_N(b) + L_b z_b
    with G_b its factors' ``mean_gain``, s_N(b) its conditioning
    neighbours' draws in the factors' ``rows`` order, L_b = ``lower`` +
    diag(``sigmas``), the factor in the chain's form, and z_b iid N(0, 1),
    independent of every earlier draw.  Visiting the blocks in the run's
    order, the covariance of s_b with every block drawn before is G_b times
    its neighbours' rows, and its own is G_b Cov(s_N(b)) G_bᵀ + L_b L_bᵀ.
    Returns an (n, n) array over the blocks in row-major order, 64
    coefficients each, n = 64 * blocks_h * blocks_w; a dead block's rows
    stay zero.
    """
    from jpegns.embedder import _Workspace

    cov = np.zeros((64 * emb.live.size,) * 2)
    workspace = _Workspace()
    for bi, bj in (blk for blocks in emb.assign.block_lists for blk in blocks):
        if not emb.live[bi, bj]:
            continue
        factors = emb._block_factors(bi, bj, workspace)
        own = 64 * (bi * emb.blocks_w + bj) + np.arange(64)
        known = (64 * factors.rows[:, None] + np.arange(64)).ravel()
        gain = factors.mean_gain
        chol = factors.lower + np.diag(factors.sigmas)
        # Zero in the columns of blocks not drawn yet, this one included.
        cross = gain @ cov[known]
        cov[own] = cross
        cov[:, own] = cross.T
        cov[np.ix_(own, own)] = (gain @ cov[np.ix_(known, known)] @ gain.T
                                 + chol @ chol.T)
    return cov


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


def lead_joint(rng, lead, trailing):
    """Well-conditioned random SPD matrix, column-major, over ``lead`` +
    ``trailing`` blocks of 64 whose lead cross tiles are exactly zero, as
    for blocks no two of which are 8-connected."""
    n = 64 * (lead + trailing)
    b = rng.normal(size=(n, 2 * n))
    for i in range(lead):
        # Lead block i draws on its own 128 columns only.
        rows = slice(64 * i, 64 * (i + 1))
        b[rows, : 128 * i] = 0.0
        b[rows, 128 * (i + 1) :] = 0.0
    return np.asfortranarray(b @ b.T)


def lead_zeros(lead):
    """The zero tiles of a ``lead_joint``'s lead, as ``cholesky``'s
    ``zeros``: every pair of its first ``lead`` blocks."""
    return tuple((i, j) for i in range(lead) for j in range(i))


# An interior lattice-4 block's joint in factor order, as (row, col)
# offsets from the block: NW, NE, SW, SE, W, E, N, S, then the block.
LATTICE4_LAYOUT = ((-1, -1), (-1, 1), (1, -1), (1, 1), (0, -1), (0, 1),
                   (-1, 0), (1, 0), (0, 0))


def layout_joint(rng, layout):
    """Well-conditioned random SPD matrix, column-major, over blocks of 64
    at the grid positions ``layout``, and its zero tiles as ``cholesky``'s
    ``zeros``: as in an image, two blocks share a nonzero tile exactly
    when they are 8-connected.  Returns (joint, zeros)."""
    rows = np.array(layout)
    windows = [(r, c) for r in range(rows[:, 0].min() - 1, rows[:, 0].max() + 1)
               for c in range(rows[:, 1].min() - 1, rows[:, 1].max() + 1)]
    # Each block draws on 64 columns of its own and 64 per 2x2 window of
    # the grid it lies in; 8-connected blocks share such a window.
    b = np.zeros((64 * len(layout), 64 * (len(layout) + len(windows))))
    for i, (r, c) in enumerate(layout):
        block = slice(64 * i, 64 * (i + 1))
        b[block, 64 * i : 64 * (i + 1)] = rng.normal(size=(64, 64))
        for w, (wr, wc) in enumerate(windows, start=len(layout)):
            if 0 <= r - wr <= 1 and 0 <= c - wc <= 1:
                b[block, 64 * w : 64 * (w + 1)] = rng.normal(size=(64, 64))
    zeros = tuple((i, j) for i in range(len(layout)) for j in range(i)
                  if max(abs(rows[i] - rows[j])) > 1)
    return np.asfortranarray(b @ b.T), zeros


def never_filled(zeros, tiles):
    """The pairs of ``zeros`` whose tiles stay zero through the Cholesky
    factor of a matrix of ``tiles`` x ``tiles`` tiles: eliminating a
    column fills every tile between two of its nonzero rows."""
    nonzero = np.ones((tiles, tiles), dtype=bool)
    for i, j in zeros:
        nonzero[i, j] = False
    for j in range(tiles):
        rows = np.flatnonzero(nonzero[j + 1 :, j]) + j + 1
        nonzero[np.ix_(rows, rows)] = True
    return [(i, j) for i, j in zeros if not nonzero[i, j]]
