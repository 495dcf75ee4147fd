import json
import math
import sys

import numpy as np
import pytest

from jpegns import (
    ConfigError,
    EmbedConfig,
    RawImage,
    SensorParams,
    SimulatedEmbedder,
    SynthSpec,
    capacity_map,
    develop_cover,
    embed_simulated,
    export_costs,
    nzac_count,
    pseudo_embed,
    synthesize_raw,
)
from jpegns import embedder as emb_mod
from jpegns import pipeline as pl
from jpegns.covariance import photon_variance, sigma_d, sigma_p
from jpegns.sampler import costs_from_pmf, entropy


def small_raw(params, size=48, seed=11, mu=2000.0, sigma=80.0):
    spec = SynthSpec(kind="iid_gaussian", mu=mu, sigma=sigma,
                     width=size, height=size, seed=seed)
    return synthesize_raw(spec, params)


# -- clamp behavior -------------------------------------------------------------


def test_zero_variance_means_no_embedding(paper_params):
    # 1.15 * 1000 - 1150 = 0 everywhere: stego == cover, capacity 0.
    raw = RawImage(data=np.full((32, 32), 1000.0), cfa="RGGB", bit_depth=12,
                   params=paper_params)
    cfg = EmbedConfig(qf=95, K=5, key=77)
    stego, report = embed_simulated(raw, cfg)
    _, cover = develop_cover(raw, 95)
    assert np.array_equal(stego.coeffs, cover.coeffs)
    assert report.total_bits == 0.0
    assert report.bits_per_nzac == 0.0
    assert report.zero_variance_blocks == 16


def test_isolated_dead_block(bright_raw):
    # Zero variance (x = 1000) on exactly the 10x10 support window of block
    # (2, 2): every neighbor still sees bright photo-sites.
    data = bright_raw.data.copy()
    data[15:25, 15:25] = 1000.0
    raw = RawImage(data=data, cfa="RGGB", bit_depth=12,
                   params=bright_raw.params)
    emb = SimulatedEmbedder(raw, EmbedConfig(qf=95, K=5, key=3))
    result = emb.run()
    assert result.report.zero_variance_blocks == 1
    assert not emb.live[2, 2] and np.count_nonzero(emb.live) == 35
    assert np.array_equal(result.stego.coeffs[2, 2], emb.cover.coeffs[2, 2])
    assert not result.report.entropy_plane[16:24, 16:24].any()
    assert result.report.entropy_plane[8:16, 16:24].sum() > 0.0
    # (3, 2) is a lattice-4 block: it conditions on all eight neighbors
    # except the dead one.
    neighbors = emb._block_factors(3, 2).neighbors
    assert len(neighbors) == 7 and (2, 2) not in neighbors


def test_pseudo_embed_zero_variance_identity(paper_params):
    raw = RawImage(data=np.full((16, 16), 1000.0), cfa="RGGB", bit_depth=12,
                   params=paper_params)
    out = pseudo_embed(raw, seed=3)
    assert np.array_equal(out.data, raw.data)


# -- determinism ------------------------------------------------------------------


def test_embed_deterministic(bright_raw):
    cfg = EmbedConfig(qf=95, K=5, key=0xABCDEF)
    s1, r1 = embed_simulated(bright_raw, cfg)
    s2, r2 = embed_simulated(bright_raw, cfg)
    assert np.array_equal(s1.coeffs, s2.coeffs)
    assert np.array_equal(r1.entropy_plane, r2.entropy_plane)
    d1, d2 = r1.to_json_dict(), r2.to_json_dict()
    d1.pop("runtime_s"), d2.pop("runtime_s")
    assert d1 == d2


def test_embed_workers_bit_identical(bright_raw):
    results = []
    for workers in (1, 4, 8):
        cfg = EmbedConfig(qf=95, K=5, key=0xABCDEF, workers=workers)
        s, r = embed_simulated(bright_raw, cfg)
        results.append((s.coeffs, r.entropy_plane))
    for coeffs, plane in results[1:]:
        assert np.array_equal(coeffs, results[0][0])
        assert np.array_equal(plane, results[0][1])


def test_workers_write_back_identical_with_dead_and_jitter_blocks(paper_params):
    # A ramp across the variance clamp has dead and jitter blocks, which the
    # iid inputs of the other worker tests lack.
    raw = RawImage(data=np.tile(np.linspace(600.0, 1600.0, 64), (64, 1)),
                   cfa="RGGB", bit_depth=12, params=paper_params)
    serial = SimulatedEmbedder(raw, EmbedConfig(qf=95, K=5, key=0x5EED)).run(
        collect_probs=True)
    # More threads than cores, switching often, to expose a lost write.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threaded = SimulatedEmbedder(
            raw, EmbedConfig(qf=95, K=5, key=0x5EED, workers=3)).run(
                collect_probs=True)
    finally:
        sys.setswitchinterval(interval)
    assert serial.report.zero_variance_blocks > 0
    assert serial.report.jitter_events
    assert np.array_equal(serial.stego.coeffs, threaded.stego.coeffs)
    assert np.array_equal(serial.continuous, threaded.continuous)
    assert np.array_equal(serial.report.entropy_plane,
                          threaded.report.entropy_plane)
    assert np.array_equal(serial.probs, threaded.probs)
    dicts = [r.report.to_json_dict() for r in (serial, threaded)]
    for d in dicts:
        d.pop("runtime_s")
    assert dicts[0] == dicts[1]


def test_single_worker_run_uses_no_executor(bright_raw, monkeypatch):
    calls = []

    class RecordingExecutor(emb_mod.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            calls.append("submit")
            return super().submit(*args, **kwargs)

        def map(self, *args, **kwargs):
            calls.append("map")
            return super().map(*args, **kwargs)

    monkeypatch.setattr(emb_mod, "ThreadPoolExecutor", RecordingExecutor)
    SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1)).run()
    assert calls == []
    # The patched executor is the one a threaded run uses.
    SimulatedEmbedder(bright_raw,
                      EmbedConfig(qf=95, K=5, key=1, workers=2)).run()
    assert "map" in calls


def test_cached_factors_match_uncached(bright_raw):
    cfg = EmbedConfig(qf=90, K=4, key=99)
    plain = SimulatedEmbedder(bright_raw, cfg).run()
    cached = SimulatedEmbedder(bright_raw, cfg, cache_factors=True)
    first = cached.run()
    second = cached.run()
    assert np.array_equal(plain.stego.coeffs, first.stego.coeffs)
    assert np.array_equal(first.stego.coeffs, second.stego.coeffs)


def test_different_keys_differ(bright_raw):
    cfg1 = EmbedConfig(qf=95, K=5, key=1)
    cfg2 = EmbedConfig(qf=95, K=5, key=2)
    s1, _ = embed_simulated(bright_raw, cfg1)
    s2, _ = embed_simulated(bright_raw, cfg2)
    assert not np.array_equal(s1.coeffs, s2.coeffs)


# -- structural properties ---------------------------------------------------------


def test_changes_bounded_by_alphabet(bright_raw):
    for k_range in (1, 3):
        cfg = EmbedConfig(qf=100, K=k_range, key=5)
        stego, _ = embed_simulated(bright_raw, cfg)
        _, cover = develop_cover(bright_raw, 100)
        assert np.abs(stego.coeffs - cover.coeffs).max() <= k_range


def test_stego_role_and_shape(bright_raw):
    cfg = EmbedConfig(qf=95, K=5, key=5)
    stego, report = embed_simulated(bright_raw, cfg)
    assert stego.role == "stego"
    assert stego.blocks_h == stego.blocks_w == 6
    assert report.entropy_plane.shape == (48, 48)


def test_report_totals_recompute(bright_raw):
    cfg = EmbedConfig(qf=95, K=5, key=13)
    report = capacity_map(bright_raw, cfg)
    plane = report.entropy_plane
    assert report.total_bits == plane.sum()
    assert report.bits_per_pixel == pytest.approx(plane.sum() / plane.size)
    _, cover = develop_cover(bright_raw, 95)
    assert report.nzac == nzac_count(cover)
    assert report.bits_per_nzac == pytest.approx(plane.sum() / report.nzac)
    d = report.to_json_dict()
    json.dumps(d)
    assert d["totals"]["H_bits"] == plane.sum()


def test_conditioning_reduces_lattice_entropy(small_params):
    # On a homogeneous input the average per-coefficient entropy cannot
    # grow with the lattice index.
    raw = RawImage(data=np.full((64, 64), 2000.0), cfa="RGGB", bit_depth=12,
                   params=small_params)
    cfg = EmbedConfig(qf=100, K=5, key=21)
    report = capacity_map(raw, cfg)
    p = report.per_lattice_mean
    assert p[0] >= p[1] >= p[2] >= p[3]


def test_total_entropy_monotone_in_alphabet(small_params):
    raw = small_raw(small_params, size=64, seed=2)
    totals = []
    for k_range in (1, 2, 3, 5):
        cfg = EmbedConfig(qf=100, K=k_range, key=31)
        totals.append(capacity_map(raw, cfg).total_bits)
    assert totals[0] <= totals[1] + 1e-6
    assert totals[1] <= totals[2] + 1e-6
    assert totals[2] <= totals[3] + 1e-6


def test_fast_covariance_matches_operator_path(bright_raw, paper_params):
    cfg = EmbedConfig(qf=95, K=5, key=1)
    emb = SimulatedEmbedder(bright_raw, cfg)
    patch_cfa = pl.patch_cfa_for_image("RGGB")
    m = pl.assemble("L4", patch_cfa)
    bi, bj = 3, 2  # interior lattice-4 block
    joint = emb.joint_covariance(
        [(bi, bj), (bi - 1, bj - 1), (bi - 1, bj), (bi - 1, bj + 1),
         (bi, bj - 1), (bi, bj + 1), (bi + 1, bj - 1),
         (bi + 1, bj), (bi + 1, bj + 1)])
    patch = bright_raw.data[8 * bi - 9 : 8 * bi + 17, 8 * bj - 9 : 8 * bj + 17]
    ref = sigma_d(m, sigma_p(patch, paper_params))
    assert np.abs(joint - ref).max() <= 1e-10 * np.abs(ref).max()


def test_block_factors_match_public_conditioning(bright_raw):
    # The embedder factors one joint covariance with the center last; the
    # literal Schur formulas with the center first give the same
    # conditional law.
    cfg = EmbedConfig(qf=95, K=5, key=1)
    emb = SimulatedEmbedder(bright_raw, cfg)
    bi, bj = 2, 3  # interior lattice-3 block
    nb_labels = [("N", (1, 3)), ("W", (2, 2)), ("E", (2, 4)), ("S", (3, 3))]
    neighbors = [blk for _, blk in nb_labels]
    factors = emb._block_factors(bi, bj)
    assert factors.neighbors == tuple(neighbors)

    joint = emb.joint_covariance([(bi, bj)] + neighbors)
    s11, s12, s22 = joint[:64, :64], joint[:64, 64:], joint[64:, 64:]
    rng = np.random.default_rng(0)
    known = rng.normal(scale=5.0, size=256)
    mean = s12 @ np.linalg.solve(s22, known)
    cond = s11 - s12 @ np.linalg.solve(s22, s12.T)
    mean_embedder = factors.mean_gain @ known
    scale = np.abs(cond).max()
    assert np.abs(mean_embedder - mean).max() <= 1e-8 * np.abs(mean).max()
    recon = factors.chol @ factors.chol.T.copy()
    assert np.abs(recon - cond).max() <= 1e-8 * scale


def test_first_lattice_block_matches_full_run(bright_raw):
    cfg = EmbedConfig(qf=95, K=5, key=0xFEED)
    emb = SimulatedEmbedder(bright_raw, cfg, cache_factors=True)
    full = emb.run()
    single = emb.run_first_lattice_block(0xFEED, (2, 2))
    block = full.continuous[16:24, 16:24].ravel()
    assert np.array_equal(single["samples"], block)
    _, cover = develop_cover(bright_raw, 95)
    changes = (full.stego.coeffs - cover.coeffs)[2, 2].ravel()
    assert np.array_equal(single["changes"], changes)


def test_first_lattice_block_rejects_later_and_dead_blocks(bright_raw,
                                                           paper_params):
    cfg = EmbedConfig(qf=95, K=5, key=1)
    emb = SimulatedEmbedder(bright_raw, cfg)
    with pytest.raises(ValueError, match="first macro-lattice"):
        emb.run_first_lattice_block(1, emb.assign.block_lists[1][0])
    dark = RawImage(data=np.full((16, 16), 1000.0), cfa="RGGB", bit_depth=12,
                    params=paper_params)
    with pytest.raises(ValueError, match="no stego signal"):
        SimulatedEmbedder(dark, cfg).run_first_lattice_block(1, (0, 0))


# -- pseudo embedding ----------------------------------------------------------------


def test_pseudo_embed_deterministic(bright_raw):
    a = pseudo_embed(bright_raw, seed=5)
    b = pseudo_embed(bright_raw, seed=5)
    assert np.array_equal(a.data, b.data)
    c = pseudo_embed(bright_raw, seed=6)
    assert not np.array_equal(a.data, c.data)


def test_pseudo_embed_variance(paper_params):
    # Constant 2000 with the reference sensor pair: variance 1150; the
    # chi-square standard error of the sample variance is var*sqrt(2/n).
    n_side = 1024
    raw = RawImage(data=np.full((n_side, n_side), 2000.0), cfa="RGGB",
                   bit_depth=12, params=paper_params)
    noisy = pseudo_embed(raw, seed=9)
    diff = noisy.data - raw.data
    n = diff.size
    sample_var = diff.var()
    se = 1150.0 * math.sqrt(2.0 / n)
    assert abs(sample_var - 1150.0) <= 5.0 * se
    assert abs(diff.mean()) <= 5.0 * math.sqrt(1150.0 / n)


def test_constant_cover_reports_json_safe_nzac(small_params):
    # Constant cover: zero nzAC but positive capacity; the JSON report
    # stores None instead of the non-serializable infinity.
    raw = RawImage(data=np.full((32, 32), 2000.0), cfa="RGGB", bit_depth=12,
                   params=small_params)
    report = capacity_map(raw, EmbedConfig(qf=100, K=5, key=2))
    assert report.total_bits > 0.0
    assert report.nzac == 0
    assert math.isinf(report.bits_per_nzac)
    payload = report.to_json_dict()
    json.dumps(payload)
    assert payload["totals"]["H_bits_per_nzAC"] is None


def test_pseudo_embed_clamps_to_dynamic_range(paper_params):
    raw = RawImage(data=np.full((16, 16), 4095.0), cfa="RGGB", bit_depth=12,
                   params=paper_params)
    out = pseudo_embed(raw, seed=1)
    assert out.data.max() <= 4095.0
    assert out.data.min() >= 0.0


# -- costs ---------------------------------------------------------------------------


def test_costs_zero_change_is_free(bright_raw, tmp_path):
    cfg = EmbedConfig(qf=95, K=2, key=41)
    plane = export_costs(bright_raw, cfg)
    assert plane.costs.shape == (6, 6, 64, 5)
    live = plane.pi_zero > 0
    assert np.all(plane.costs[..., 2][live] == 0.0)
    path = tmp_path / "costs.bin"
    emb_mod.write_costs(plane, path)
    back = emb_mod.read_costs(path)
    assert np.array_equal(back.costs, plane.costs)
    assert np.array_equal(back.pi_zero, plane.pi_zero)
    assert (back.qf, back.K) == (95, 2)


def test_costs_point_mass_blocks_infinite(paper_params):
    raw = RawImage(data=np.full((16, 16), 1000.0), cfa="RGGB", bit_depth=12,
                   params=paper_params)
    cfg = EmbedConfig(qf=95, K=2, key=1)
    plane = export_costs(raw, cfg)
    # Dead blocks export zero pi(0) and +inf costs for every change.
    assert np.all(plane.pi_zero == 0.0)
    assert np.all(np.isinf(plane.costs))


def test_capacity_and_costs_read_one_pmf(paper_params):
    # A ramp across the variance clamp (600 -> 1600) has dead blocks, jitter
    # blocks and live blocks; capacity and costs both come from the chain's
    # folded PMFs, and collecting them changes nothing else.
    raw = RawImage(data=np.tile(np.linspace(600.0, 1600.0, 64), (64, 1)),
                   cfa="RGGB", bit_depth=12, params=paper_params)
    cfg = EmbedConfig(qf=95, K=5, key=0x5EED)
    emb = SimulatedEmbedder(raw, cfg)
    plain = emb.run(cfg.key)
    full = emb.run(cfg.key, collect_probs=True)
    assert full.report.zero_variance_blocks > 0
    assert full.report.jitter_events
    ent = full.report.entropy_plane.reshape(8, 8, 8, 8).transpose(0, 2, 1, 3)
    assert np.array_equal(ent.reshape(8, 8, 64), entropy(full.probs))
    assert np.array_equal(export_costs(raw, cfg).costs,
                          costs_from_pmf(full.probs))
    assert np.array_equal(plain.stego.coeffs, full.stego.coeffs)
    assert plain.probs is None
    dicts = [r.report.to_json_dict() for r in (plain, full)]
    for d in dicts:
        d.pop("runtime_s")
    assert dicts[0] == dicts[1]


# -- key separation -------------------------------------------------------------------


def test_key_separation_agreement_rate(small_params):
    # Conditional on both runs' PMFs, two keys agree at a coefficient with
    # probability sum_k pi1(k) pi2(k); the observed agreement count must
    # sit within 5 standard errors of the plug-in expectation.
    raw = small_raw(small_params, size=64, seed=8)
    cfg1 = EmbedConfig(qf=100, K=5, key=1001)
    cfg2 = EmbedConfig(qf=100, K=5, key=2002)
    emb1 = SimulatedEmbedder(raw, cfg1)
    r1 = emb1.run(collect_probs=True)
    emb2 = SimulatedEmbedder(raw, cfg2)
    r2 = emb2.run(collect_probs=True)
    _, cover = develop_cover(raw, 100)
    k1 = (r1.stego.coeffs - cover.coeffs).reshape(-1, 64)
    k2 = (r2.stego.coeffs - cover.coeffs).reshape(-1, 64)
    p_agree = np.sum(r1.probs * r2.probs, axis=-1).reshape(-1, 64)
    observed = float(np.sum(k1 == k2))
    expected = float(np.sum(p_agree))
    se = math.sqrt(float(np.sum(p_agree * (1.0 - p_agree))))
    assert abs(observed - expected) <= 5.0 * se


# -- config validation -----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        EmbedConfig(qf=95, K=0)
    with pytest.raises(ValueError):
        EmbedConfig(qf=0)
    with pytest.raises(ValueError):
        EmbedConfig(qf=95, green_kernel="diag")
    with pytest.raises(ValueError):
        EmbedConfig(qf=95, workers=0)


BAD_KEYS = [-1, 2**64, 1.5, True, "7"]


@pytest.mark.parametrize("name, value", [
    ("qf", 95.5), ("qf", True), ("qf", "95"), ("K", 2.5), ("K", True),
    ("workers", 1.5), ("workers", True),
    # The key must also lie in 0..2**64-1.
    *(("key", key) for key in BAD_KEYS),
])
def test_config_rejects_non_integer(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        EmbedConfig(**{"qf": 95, name: value})


@pytest.mark.parametrize("key", BAD_KEYS, ids=repr)
def test_run_rejects_bad_key(bright_raw, key):
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))
    with pytest.raises(ConfigError, match="key must be an integer"):
        emb.run(key=key)


def test_largest_key_accepted(bright_raw):
    report = capacity_map(bright_raw, EmbedConfig(qf=95, K=5, key=2**64 - 1))
    assert report.config["key"] == "ffffffffffffffff"


def test_green_kernel_variant_changes_output(bright_raw):
    a, _ = embed_simulated(bright_raw, EmbedConfig(qf=95, K=5, key=3))
    b, _ = embed_simulated(bright_raw,
                           EmbedConfig(qf=95, K=5, key=3,
                                       green_kernel="corner"))
    assert not np.array_equal(a.coeffs, b.coeffs)
