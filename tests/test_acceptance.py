"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a pytest FAILED report is the corresponding fail line.  The heavy
Monte-Carlo criteria take a few minutes in total.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import blas
from scipy.stats import norm

from jpegns import (
    EmbedConfig,
    RawImage,
    SensorParams,
    SimulatedEmbedder,
    SynthSpec,
    capacity_map,
    condition,
    develop_cover,
    embed_simulated,
    pseudo_embed,
    synthesize_raw,
)
from jpegns import covariance as cm
from jpegns import pipeline as pl
from jpegns import sampler

from conftest import cov_standard_error

PAPER_PARAMS = SensorParams(a1=0.0, b1=0.0, a2=1.15, b2=-1150.0)
# Sub-quantization-step variance (around 0.5 at x = 2000) for the capacity
# profile criteria; the reference gain/offset pair produces a stego signal
# tens of steps wide at QF 100, which buries the conditioning effect under
# alphabet folding.
SMALL_PARAMS = SensorParams(a1=0.0, b1=0.0, a2=5e-4, b2=-0.5)


def passline(n, text):
    print(f"\nACCEPTANCE {n:2d}: PASS - {text}")


def random_bright_patch(rng):
    return np.floor(rng.uniform(1500.0, 3500.0, size=(26, 26)))


def iid_raw(width, height, params, seed=42):
    spec = SynthSpec(kind="iid_gaussian", mu=2000.0, sigma=100.0,
                     width=width, height=height, seed=seed)
    return synthesize_raw(spec, params)


def test_criterion_01_pipeline_exactness():
    t0 = time.monotonic()
    m1 = pl.assemble("L1", "GRBG")
    m4 = pl.assemble("L4", "GRBG")
    elapsed = time.monotonic() - t0
    assert m1.shape == (64, 676)
    assert m4.shape == (576, 676)
    for m in (m1, m4):
        out = (m @ np.ones(676)).reshape(-1, 64)
        assert np.abs(out[:, 0] - 8.0).max() <= 1e-12
        assert np.abs(out[:, 1:]).max() <= 1e-12
    assert elapsed < 1.0
    passline(1, f"assembled operators exact, built in {elapsed:.2f}s")


def test_criterion_02_dct_correctness():
    from scipy.fft import dctn

    a = pl.dct_matrix()
    ortho_err = np.abs(a @ a.T.copy() - np.eye(8)).max()
    assert ortho_err <= 1e-12
    op = pl.build_dct(1)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        block = rng.normal(scale=100.0, size=(8, 8))
        ours = (op @ block.ravel()).reshape(8, 8)
        ref = dctn(block, type=2, norm="ortho")
        worst = max(worst, float(np.abs(ours - ref).max()))
    assert worst <= 1e-10
    passline(2, f"orthogonality {ortho_err:.1e}, oracle gap {worst:.1e} "
                "over 1000 blocks")


def test_criterion_03_covariance_monte_carlo_oracle():
    # Draws are generated in float32 with the per-site deviation folded
    # into the projection matrix: the float32 rounding (~1e-5 relative) is
    # three orders of magnitude below the 5-SE Monte-Carlo band, and the
    # draw budget of 1e6 per patch stays inside the runtime budget.  Only
    # the photo sites the block's DCT reads (98 of the 676 columns of M)
    # get a draw: the others add nothing to the block.
    t0 = time.monotonic()
    op = pl.assemble("L1", "BGGR")
    m = op.toarray()
    sites = np.flatnonzero(np.any(m != 0.0, axis=0))
    rng = np.random.default_rng(7)
    n_draws, chunk = 1_000_000, 50_000
    for trial in range(5):
        patch = random_bright_patch(rng)
        sp = cm.sigma_p(patch, PAPER_PARAMS)
        sd = cm.sigma_d(op, sp)
        proj = (m * np.sqrt(sp)[np.newaxis, :]).T[sites].astype(np.float32)
        acc = np.zeros((64, 64))
        for _ in range(n_draws // chunk):
            y = (rng.standard_normal((chunk, sites.size), dtype=np.float32)
                 @ proj)
            acc += blas.sgemm(1.0, y, y, trans_a=1).astype(np.float64)
        emp = acc / n_draws
        se = cov_standard_error(sd, n_draws)
        assert np.all(np.abs(emp - sd) <= 5.0 * se), f"patch {trial}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    passline(3, f"5 patches x 1e6 draws within 5 SE in {elapsed:.1f}s")


def test_criterion_04_structural_zeros():
    op = pl.assemble("L4", "BGGR")
    rng = np.random.default_rng(11)
    patch = random_bright_patch(rng)
    sd = cm.sigma_d(op, cm.sigma_p(patch, PAPER_PARAMS))
    order = ("C",) + pl.NEIGHBOR_LABELS["L4"]
    idx = {lbl: i for i, lbl in enumerate(order)}

    def sub(a, b):
        ia, ib = idx[a], idx[b]
        return sd[64 * ia : 64 * ia + 64, 64 * ib : 64 * ib + 64]

    # Non-8-connected pairs: exactly zero.
    for a, b in (("NW", "NE"), ("NW", "SE"), ("N", "S"), ("W", "E"),
                 ("SW", "SE"), ("NE", "SW")):
        assert np.all(sub(a, b) == 0.0), (a, b)
    # Diagonal neighbors couple more weakly than horizontal/vertical ones.
    axial = min(np.linalg.norm(sub("C", d)) for d in ("N", "S", "E", "W"))
    diagonal = max(np.linalg.norm(sub("C", d)) for d in ("NE", "NW", "SE", "SW"))
    assert diagonal < axial
    passline(4, f"cross-covariances exactly zero; diag {diagonal:.2f} < "
                f"axial {axial:.2f} Frobenius")


def test_criterion_05_schur_chain_equivalence():
    t0 = time.monotonic()
    op = pl.assemble("L3", "BGGR")
    rng = np.random.default_rng(13)
    patch = random_bright_patch(rng)
    full = cm.sigma_d(op, cm.sigma_p(patch, PAPER_PARAMS))
    n_draws = 100_000

    chol_full, _ = cm.cholesky(full)
    direct = rng.standard_normal((n_draws, 320)) @ chol_full.T.copy()

    # Lattice-ordered path: outer blocks first, center conditioned on them
    # through the embedder's conditioning kernel on the known-first joint.
    outer_cov = full[64:, 64:]
    chol_outer, _ = cm.cholesky(outer_cov)
    outer = rng.standard_normal((n_draws, 256)) @ chol_outer.T.copy()
    known_first = np.r_[64:320, 0:64]
    gain, lower, sigmas, _ = condition(full[np.ix_(known_first, known_first)])
    chol = lower + np.diag(sigmas)
    centers = outer @ gain.T + rng.standard_normal((n_draws, 64)) @ chol.T.copy()
    chained = np.concatenate([centers, outer], axis=1)

    cov_direct = blas.dgemm(1.0, direct, direct, trans_a=1) / n_draws
    cov_chained = blas.dgemm(1.0, chained, chained, trans_a=1) / n_draws
    se = cov_standard_error(full, n_draws) * math.sqrt(2.0)
    gap = np.abs(cov_direct - cov_chained) / np.maximum(se, 1e-300)
    assert gap.max() <= 5.0
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    passline(5, f"direct vs chained sampling within 5 SE "
                f"(max {gap.max():.2f} SE) in {elapsed:.1f}s")


def test_criterion_06_pmf_fidelity():
    from conftest import quadrature_change_pmf

    rng = np.random.default_rng(17)
    worst = 0.0
    worst_sum = 0.0
    for _ in range(1000):
        m = float(rng.uniform(-30, 30))
        s = float(rng.uniform(0.05, 20))
        q = int(rng.integers(1, 101))
        k = int(rng.integers(1, 6))
        p = sampler.pmf(m, s, q, k)
        worst_sum = max(worst_sum, abs(float(p.sum()) - 1.0))
        oracle = quadrature_change_pmf(m, s, q, k)
        worst = max(worst, float(np.abs(p - oracle).max()))
    assert worst <= 1e-10
    assert worst_sum <= 1e-9
    passline(6, f"1000-point sweep: max quadrature gap {worst:.1e}, "
                f"max sum defect {worst_sum:.1e}")


def test_criterion_07_end_to_end_distribution():
    t0 = time.monotonic()
    raw = RawImage(data=np.full((48, 48), 2000.0), cfa="RGGB", bit_depth=12,
                   params=PAPER_PARAMS)
    qf = 95
    cfg = EmbedConfig(qf=qf, K=5, key=0)
    emb = SimulatedEmbedder(raw, cfg, cache_factors=True)
    block = (2, 2)  # interior first-lattice block
    n_runs = 10_000

    # The single-block chain is bit-identical to the full embedding's
    # central block (checked for one key), so the repeated runs below are
    # honest full-embedding statistics.
    full = emb.run(key=123)
    single = emb.run_first_lattice_block(123, block)
    assert np.array_equal(single["samples"],
                          full.continuous[16:24, 16:24].ravel())

    emb_draws = np.empty((n_runs, 64))
    for key in range(n_runs):
        emb_draws[key] = emb.run_first_lattice_block(key, block)["samples"]

    base_plane, _ = develop_cover(raw, qf)
    pseudo_draws = np.empty((n_runs, 64))
    for seed in range(n_runs):
        noisy = pseudo_embed(raw, seed)
        plane, _ = develop_cover(noisy, qf)
        pseudo_draws[seed] = (plane - base_plane)[16:24, 16:24].ravel()

    sd = emb.joint_covariance([block])
    cov_embed = blas.dgemm(1.0, emb_draws, emb_draws, trans_a=1) / n_runs
    cov_pseudo = blas.dgemm(1.0, pseudo_draws, pseudo_draws, trans_a=1) / n_runs
    se = cov_standard_error(sd, n_runs)
    gap_e = (np.abs(cov_embed - sd) / se).max()
    gap_p = (np.abs(cov_pseudo - sd) / se).max()
    gap_x = (np.abs(cov_embed - cov_pseudo) / (se * math.sqrt(2.0))).max()
    assert gap_e <= 5.0
    assert gap_p <= 5.0
    assert gap_x <= 5.0
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    passline(7, f"embed/pseudo/analytic covariances agree "
                f"(max {max(gap_e, gap_p, gap_x):.2f} SE) in {elapsed:.0f}s")


def test_criterion_08_clamp_behavior():
    raw = RawImage(data=np.full((64, 64), 1000.0), cfa="RGGB", bit_depth=12,
                   params=PAPER_PARAMS)
    cfg = EmbedConfig(qf=95, K=5, key=9)
    stego, report = embed_simulated(raw, cfg)
    _, cover = develop_cover(raw, 95)
    assert report.total_bits == 0.0
    assert np.array_equal(stego.coeffs, cover.coeffs)
    passline(8, "variance clamp yields zero capacity and stego == cover")


def test_criterion_09_capacity_profile():
    raw = iid_raw(512, 512, SMALL_PARAMS)
    r100 = capacity_map(raw, EmbedConfig(qf=100, K=5, key=1))
    p = r100.per_lattice_mean
    assert p[0] > p[1] >= p[2] > p[3], p

    r95 = capacity_map(raw, EmbedConfig(qf=95, K=5, key=1))
    bands = [[8 * u + v for u in range(8) for v in range(8) if u + v == b]
             for b in range(15)]
    for lat in range(4):
        prof = r95.per_lattice_mode[lat]
        band_means = np.array([prof[idx].mean() for idx in bands])
        # AC frequencies: non-increasing averages.  The DC band obeys the
        # table's larger DC step rather than the frequency trend, so it is
        # compared against the high-frequency tail instead.
        assert np.all(np.diff(band_means[1:]) <= 1e-9), (lat, band_means)
        assert band_means[0] >= band_means[8:].mean()
    passline(9, f"QF100 lattice profile {np.round(p, 3).tolist()} strictly "
                "decreasing; QF95 per-mode averages non-increasing in "
                "AC frequency")


def test_criterion_10_alphabet_monotonicity():
    raw = iid_raw(128, 128, SMALL_PARAMS, seed=5)
    totals = {}
    for k_range in (1, 2, 3, 5):
        cfg = EmbedConfig(qf=100, K=k_range, key=77)
        stego, report = embed_simulated(raw, cfg)
        _, cover = develop_cover(raw, 100)
        assert np.abs(stego.coeffs - cover.coeffs).max() <= k_range
        totals[k_range] = report.total_bits
    assert totals[1] <= totals[2] + 1e-6
    assert totals[2] <= totals[3] + 1e-6
    assert totals[3] <= totals[5] + 1e-6
    passline(10, "total entropy non-decreasing in K "
                 f"{[round(totals[k], 1) for k in (1, 2, 3, 5)]}; "
                 "changes bounded by K")


def test_criterion_11_determinism():
    raw = iid_raw(64, 64, PAPER_PARAMS, seed=3)
    reference = None
    for workers in (1, 1, 4, 8):  # first two: repeatability at one worker
        cfg = EmbedConfig(qf=90, K=5, key=0xC0FFEE, workers=workers)
        stego, report = embed_simulated(raw, cfg)
        payload = report.to_json_dict()
        payload.pop("runtime_s")
        bundle = (stego.coeffs.tobytes(), report.entropy_plane.tobytes(),
                  repr(payload))
        if reference is None:
            reference = bundle
        else:
            assert bundle == reference
    passline(11, "bit-identical stego and reports across runs and "
                 "1/4/8 workers")


def test_criterion_12_performance():
    raw = iid_raw(512, 512, PAPER_PARAMS, seed=9)
    cfg = EmbedConfig(qf=95, K=5, key=4, workers=1)
    t0 = time.monotonic()
    stego, report = embed_simulated(raw, cfg)
    elapsed = time.monotonic() - t0
    assert stego.blocks_h == stego.blocks_w == 64
    assert elapsed <= 60.0
    passline(12, f"512x512 embed in {elapsed:.1f}s (budget 60s)")
