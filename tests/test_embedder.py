import dataclasses
import functools
import json
import logging
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

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
    load_raw,
    nzac_count,
    pseudo_embed,
    synthesize_raw,
    write_raw,
)
from jpegns import blas
from jpegns import embedder as emb_mod
from jpegns import lattice
from jpegns import pipeline as pl
from jpegns.covariance import photon_variance, sigma_d, sigma_p
from jpegns.jpeg_model import CoefficientsError, round_half_away_array
from jpegns import rng as streams
from jpegns import sampler
from jpegns.sampler import costs_from_pmf, discretize, entropy, pmf_table

from conftest import (
    LATTICE4_LAYOUT,
    chain_form,
    layout_joint,
    lead_joint,
    lead_zeros,
    never_filled,
    propagated_covariance,
)


def small_raw(params, size=48, seed=11, mu=2000.0, sigma=80.0):
    spec = SynthSpec(kind="iid_gaussian", mu=mu, sigma=sigma,
                     width=size, height=size, seed=seed)
    return synthesize_raw(spec, params)


def clamp_ramp(params, size=64):
    """Horizontal ramp 600 -> 1600 across the variance clamp at x = 1000,
    which gives dead and jitter blocks."""
    return RawImage(data=np.tile(np.linspace(600.0, 1600.0, size), (size, 1)),
                    cfa="RGGB", bit_depth=12, params=params)


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
    rows = emb._block_factors(3, 2, emb_mod._Workspace()).rows
    assert len(rows) == 7 and 2 * emb.blocks_w + 2 not in rows


def test_singular_blocks_are_skipped_and_reported(bright_raw, monkeypatch,
                                                  caplog):
    # A block still singular after the maximum jitter embeds nothing: the
    # report lists it, and the warning names its lattice and block.
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))

    def singular(*args, **kwargs):
        raise emb_mod.cov_mod.SingularCovarianceError(
            "covariance not PSD after max jitter")

    monkeypatch.setattr(emb_mod.cov_mod, "condition", singular)
    with caplog.at_level("WARNING", logger="jpegns.embedder"):
        result = emb.run()
    lat = emb.assign.lattice_of(0, 0)
    assert len(result.report.failed_blocks) == np.count_nonzero(emb.live)
    assert {"lattice": lat, "block": [0, 0]} in result.report.failed_blocks
    assert np.array_equal(result.stego.coeffs, emb.cover.coeffs)
    assert (f"lattice {lat} block (0,0) singular after max jitter"
            in caplog.text)


def test_overflowing_variance_is_refused():
    # Finite sensor parameters whose variance overflows float64 at the
    # image's level: refused, not embedded as zero capacity.
    raw = RawImage(data=np.full((16, 16), 2000.0), cfa="RGGB", bit_depth=12,
                   params=SensorParams(a1=0.0, b1=0.0, a2=1e306, b2=0.0))
    with pytest.raises(emb_mod.cov_mod.CovarianceError, match="overflows"):
        embed_simulated(raw, EmbedConfig(qf=95, K=5, key=1))
    with pytest.raises(emb_mod.cov_mod.CovarianceError, match="overflows"):
        pseudo_embed(raw, seed=1)


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


# Prints the sha256 of a 64x64 embed's continuous plane and of its report
# without the run time.
BLAS_THREADS_PROBE = """
import hashlib, json
from jpegns import (EmbedConfig, SensorParams, SimulatedEmbedder, SynthSpec,
                    synthesize_raw)
raw = synthesize_raw(
    SynthSpec(kind="iid_gaussian", mu=2000.0, sigma=80.0, width=64,
              height=64, seed=11),
    SensorParams(a1=0.0, b1=0.0, a2=1.15, b2=-1150.0))
result = SimulatedEmbedder(raw, EmbedConfig(qf=95, K=5, key=3)).run()
report = result.report.to_json_dict()
del report["runtime_s"]
print(hashlib.sha256(result.continuous.tobytes()).hexdigest(),
      hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
"""


def test_embed_bit_identical_at_any_blas_thread_count():
    # OpenBLAS sums in an order that depends on its thread count; a run
    # holds it on one thread, so the environment's count changes no bit.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 2 and hashes[0] == hashes[1]


def test_run_holds_blas_on_one_thread(bright_raw, monkeypatch):
    # Every build the embedder calls runs on one thread inside ``run``,
    # and gets its own count back afterwards.
    controls = blas.one_thread.controls
    assert controls
    during = []
    condition = emb_mod.cov_mod.condition

    def spy(*args, **kwargs):
        during.append([get() for get, _ in controls])
        return condition(*args, **kwargs)

    monkeypatch.setattr(emb_mod.cov_mod, "condition", spy)
    saved = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        SimulatedEmbedder(bright_raw,
                          EmbedConfig(qf=95, K=5, key=1, workers=2)).run()
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)
    assert during and all(counts == [1] * len(controls) for counts in during)


def test_blas_without_thread_control_is_logged_once(bright_raw, monkeypatch,
                                                    caplog):
    monkeypatch.setattr(blas.one_thread, "controls", ())
    monkeypatch.setattr(blas.one_thread, "missing", ("libother",))
    monkeypatch.setattr(blas.one_thread, "logged", False)
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))
    with caplog.at_level(logging.WARNING, logger="jpegns.blas"):
        first = emb.run()
        second = emb.run()
    assert [r.getMessage() for r in caplog.records] == [
        "no OpenBLAS thread control in libother; its BLAS keeps its thread "
        "count, and results may differ between thread counts"]
    assert first.continuous.tobytes() == second.continuous.tobytes()


def record_bands(monkeypatch):
    """The list to which every ``_Band`` made from now on is appended."""
    bands = []
    band_init = emb_mod._Band.__init__

    def init(self, joints):
        band_init(self, joints)
        bands.append(self)

    monkeypatch.setattr(emb_mod._Band, "__init__", init)
    return bands


def test_workers_write_back_identical_with_dead_and_jitter_blocks(
        paper_params, monkeypatch):
    # A ramp across the variance clamp has dead and jitter blocks, which the
    # iid inputs of the other worker tests lack.
    raw = clamp_ramp(paper_params)
    serial = SimulatedEmbedder(raw, EmbedConfig(qf=95, K=5, key=0x5EED)).run(
        collect_probs=True)
    bands = record_bands(monkeypatch)
    # More threads than cores, switching often, to expose a lost write or
    # a lost update to the bands the threads share.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threaded = SimulatedEmbedder(
            raw, EmbedConfig(qf=95, K=5, key=0x5EED, workers=3)).run(
                collect_probs=True)
    finally:
        sys.setswitchinterval(interval)
    assert len(bands) == 4
    assert not any(band.tiles or band.uses for band in bands)
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


@pytest.mark.parametrize("ramp, workers", [(False, 1), (True, 3)],
                         ids=["iid", "ramp-workers3"])
def test_cached_factors_match_uncached(bright_raw, paper_params, ramp,
                                       workers):
    # Every thread reuses one workspace for the joints it factors, so a
    # cached factor that aliased it would be overwritten by later blocks.
    # The first cached run visits every block and fills the stacks; the
    # second serves every lattice from them, with the same report.
    raw = clamp_ramp(paper_params) if ramp else bright_raw
    cfg = EmbedConfig(qf=90, K=4, key=99)
    plain = SimulatedEmbedder(raw, cfg).run()
    cached = SimulatedEmbedder(raw, dataclasses.replace(cfg, workers=workers),
                               cache_factors=True)
    expected = plain.report.to_json_dict()
    expected.pop("runtime_s")
    assert bool(expected["jitter_events"]) == ramp
    for result in (cached.run(), cached.run()):
        assert np.array_equal(plain.stego.coeffs, result.stego.coeffs)
        assert np.array_equal(plain.continuous, result.continuous)
        assert np.array_equal(plain.report.entropy_plane,
                              result.report.entropy_plane)
        report = result.report.to_json_dict()
        report.pop("runtime_s")
        assert report == expected


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("chunk", [16, 5])
def test_chunked_tabulation_matches_per_block_tables(paper_params, monkeypatch,
                                                     chunk, workers):
    # ``run`` writes back and discretizes the draws of up to
    # _TABULATE_BLOCKS visited blocks and builds their PMF tables and
    # entropies in one pass; each block's changes, samples and rows must be
    # those of discretizing and tabulating its own draw, bit for bit.  The
    # ramp's lattices hold 8 or 12 live blocks among dead ones, so chunks of
    # 16 end only at a lattice's end and chunks of 5 also within it.
    monkeypatch.setattr(emb_mod, "_TABULATE_BLOCKS", chunk)
    drawn = {}
    visit = SimulatedEmbedder._visit

    def recording_visit(self, block, z, means, sigmas, *args, **kwargs):
        jitter = visit(self, block, z, means, sigmas, *args, **kwargs)
        if jitter is not None:
            drawn[block] = discretize(z, means, sigmas, self.q_flat,
                                      self.cfg.K)
            drawn[block]["samples"] = means + sigmas * z
        return jitter

    monkeypatch.setattr(SimulatedEmbedder, "_visit", recording_visit)
    emb = SimulatedEmbedder(clamp_ramp(paper_params),
                            EmbedConfig(qf=95, K=5, key=0x5EED,
                                        workers=workers))
    result = emb.run(collect_probs=True)
    assert [sum(emb.live[blk] for blk in blocks)
            for blocks in emb.assign.block_lists] == [8, 12, 12, 8]
    assert sorted(drawn) == sorted(map(tuple, np.argwhere(emb.live)))
    ent = result.report.entropy_plane.reshape(8, 8, 8, 8).transpose(
        0, 2, 1, 3).reshape(8, 8, 64)
    changes = (result.stego.coeffs - emb.cover.coeffs).reshape(8, 8, 64)
    continuous = result.continuous.reshape(8, 8, 8, 8).transpose(
        0, 2, 1, 3).reshape(8, 8, 64)
    for block in np.ndindex(8, 8):
        if block in drawn:
            table = pmf_table(drawn[block]["edges"])
            assert np.array_equal(result.probs[block], table), block
            assert np.array_equal(ent[block], entropy(table)), block
            assert np.array_equal(changes[block], drawn[block]["changes"])
            assert np.array_equal(continuous[block], drawn[block]["samples"])
        else:
            assert not result.probs[block].any() and not ent[block].any()
            assert not changes[block].any() and not continuous[block].any()


def test_lattice_normals_are_each_blocks_own_stream(bright_raw):
    # A lattice's normals are drawn into one array, each row from its
    # block's stream re-keyed on one generator: the normals a fresh stream
    # per block gives.
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))
    gen = np.random.Generator(np.random.Philox(seed=0))
    for lat, blocks in enumerate(emb.assign.block_lists, start=1):
        z = emb._normals(0xC0FFEE, lat, blocks, gen)
        assert z.shape == (len(blocks), 64)
        for row, block in zip(z, blocks):
            alone = streams.standard_normal_icdf(
                streams.block_stream(0xC0FFEE, lat, *block), 64)
            assert np.array_equal(row, alone)
        assert np.array_equal(emb._normals(0xC0FFEE, lat, blocks), z)
    assert emb._normals(1, 1, [], gen).shape == (0, 64)


def test_failed_blocks_inside_a_chunk(bright_raw, monkeypatch):
    # A block that cannot be factored is left out of its chunk's write-back
    # and tables: the others of the chunk get the values of chunks of one
    # block, and the failed ones keep zero samples, changes and PMFs.  With
    # cached factors, the first run stores the failures and every later run
    # serves them from the stacks, with the same results and report.
    block_factors = SimulatedEmbedder._block_factors

    def failing(self, bi, bj, *args, **kwargs):
        if (bi + 2 * bj) % 5 == 0:
            return None
        return block_factors(self, bi, bj, *args, **kwargs)

    monkeypatch.setattr(SimulatedEmbedder, "_block_factors", failing)
    results = []
    for cache_factors in (False, True):
        emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=8),
                                cache_factors=cache_factors)
        for chunk in (32, 3, 1):
            monkeypatch.setattr(emb_mod, "_TABULATE_BLOCKS", chunk)
            results.append(emb.run(collect_probs=True))
            results.append(emb.run(collect_probs=True))
    assert all(stacks.complete for stacks in emb._factor_cache)
    failed = [tuple(f["block"]) for f in results[0].report.failed_blocks]
    assert 0 < len(failed) < np.count_nonzero(emb.live)
    for result in results[1:]:
        assert result.report.failed_blocks == results[0].report.failed_blocks
        assert np.array_equal(result.stego.coeffs, results[0].stego.coeffs)
        assert np.array_equal(result.continuous, results[0].continuous)
        assert np.array_equal(result.probs, results[0].probs)
        assert np.array_equal(result.report.entropy_plane,
                              results[0].report.entropy_plane)
    for bi, bj in failed:
        assert not results[0].probs[bi, bj].any()
        assert not results[0].continuous[8 * bi : 8 * bi + 8,
                                         8 * bj : 8 * bj + 8].any()
        assert np.array_equal(results[0].stego.coeffs[bi, bj],
                              emb.cover.coeffs[bi, bj])


def test_draw_per_block_discretize_per_chunk(paper_params, monkeypatch):
    # A guard on the chain's structure: one chain step (the product with
    # the block's own factor) per live block, but one bin grid per
    # tabulation chunk, never one per block.
    calls = {"run_block_chain": 0, "_grid": 0}

    def counting(name):
        inner = getattr(sampler, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(sampler, name, counted)

    counting("run_block_chain")
    counting("_grid")
    emb = SimulatedEmbedder(small_raw(paper_params, size=64),
                            EmbedConfig(qf=95, K=5, key=3))
    emb.run()
    live = [sum(emb.live[blk] for blk in blocks)
            for blocks in emb.assign.block_lists]
    assert sum(live) == emb.live.size == 64
    assert calls["run_block_chain"] == sum(live)
    chunks = sum(-(-n // emb_mod._TABULATE_BLOCKS) for n in live)
    assert calls["_grid"] == chunks < sum(live)
    # A run served from cached factors takes one stacked chain step per
    # chunk and known-row count r (the block's live neighbors), still one
    # bin grid per chunk.
    monkeypatch.setattr(emb_mod, "_TABULATE_BLOCKS", 5)
    cached = SimulatedEmbedder(emb.raw, emb.cfg, cache_factors=True)
    cached.run()
    steps = sum(
        len({len(cached.joint_blocks(block)) for block in blocks[i : i + 5]})
        for blocks in cached.assign.block_lists
        for i in range(0, len(blocks), 5))
    calls.update(run_block_chain=0, _grid=0)
    cached.run(key=4)
    assert calls == {"run_block_chain": steps,
                     "_grid": sum(-(-n // 5) for n in live)}
    assert sum(live) // 5 < steps < sum(live)


def test_each_factored_block_reads_its_tile_plan_once(paper_params,
                                                     monkeypatch):
    # Assembly and factor step share one plan read per joint: an uncached
    # run without jitter reads one per block, each for its own joint.
    reads = []
    plan = SimulatedEmbedder._tile_plan

    def counted(self, blocks):
        reads.append(blocks[-1])
        return plan(self, blocks)

    monkeypatch.setattr(SimulatedEmbedder, "_tile_plan", counted)
    emb = SimulatedEmbedder(small_raw(paper_params, size=64),
                            EmbedConfig(qf=95, K=5, key=3))
    result = emb.run()
    assert emb.live.all() and not result.report.jitter_events
    assert sorted(reads) == sorted(np.ndindex(emb.live.shape))


@pytest.mark.parametrize("workers", [1, 2])
def test_only_live_blocks_are_visited(paper_params, monkeypatch, workers):
    # Dead blocks are dropped before the visit, serially and on the pool;
    # the report still counts them and lists no failed block.
    visited = []
    visit = SimulatedEmbedder._visit

    def recording_visit(self, block, *args, **kwargs):
        visited.append(block)
        return visit(self, block, *args, **kwargs)

    monkeypatch.setattr(SimulatedEmbedder, "_visit", recording_visit)
    emb = SimulatedEmbedder(clamp_ramp(paper_params),
                            EmbedConfig(qf=95, K=5, key=1, workers=workers))
    report = emb.run().report
    assert report.zero_variance_blocks == np.count_nonzero(~emb.live) > 0
    assert not report.failed_blocks
    assert sorted(visited) == sorted(map(tuple, np.argwhere(emb.live)))


def traced_peak(call):
    """The peak of the memory traced while ``call()`` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embed_memory_does_not_grow_with_image_area(paper_params):
    # Four times the blocks: only the result planes may grow (about 0.5 MB);
    # per-block factors must be freed as each block is written back.  An
    # untraced embed at each size first fills the one-time caches (tile
    # plans, pipeline operators), which would otherwise count in whichever
    # size ran first in the process.
    embeds = []
    for size in (64, 128):
        raw = small_raw(paper_params, size=size, mu=2000.0, sigma=100.0)
        embeds.append(functools.partial(
            embed_simulated, raw, EmbedConfig(qf=95, K=5, key=9)))
        embeds[-1]()
    peaks = [traced_peak(embed) for embed in embeds]
    assert peaks[1] - peaks[0] < 1_000_000, peaks


def test_cached_run_memory_does_not_grow_with_image_area(paper_params):
    # A run on full stacks gathers, multiplies and tabulates a chunk of
    # blocks at a time, so with both caches filled and warm, only the
    # result planes grow with the image.
    runs = []
    for size in (64, 128):
        raw = small_raw(paper_params, size=size, mu=2000.0, sigma=100.0)
        emb = SimulatedEmbedder(raw, EmbedConfig(qf=95, K=5, key=9),
                                cache_factors=True)
        emb.run()
        emb.run(key=10)
        assert all(stacks.complete for stacks in emb._factor_cache)
        runs.append(functools.partial(emb.run, key=11))
    peaks = [traced_peak(run) for run in runs]
    assert peaks[1] - peaks[0] < 1_000_000, peaks


def test_entropy_holds_no_negative_zero(small_params):
    # -0.0 entropies would make two equal planes differ in bytes and JSON.
    point_masses = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert not np.signbit(entropy(point_masses)).any()
    # Sub-step noise leaves many coefficients with a point-mass PMF.
    report = capacity_map(small_raw(small_params, size=16),
                          EmbedConfig(qf=75, K=5, key=1))
    assert np.count_nonzero(report.entropy_plane == 0.0) > 0
    assert not np.signbit(report.entropy_plane).any()


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
    # On a homogeneous input the expected per-coefficient entropy cannot
    # grow with the lattice index.  One key's lattice means scatter by about
    # the lattice 1-2 gap (0.01 bits; about one key in ten reverses it), so
    # the means are pooled over 64 keys, which puts that gap about 10
    # standard errors above zero.
    raw = RawImage(data=np.full((64, 64), 2000.0), cfa="RGGB", bit_depth=12,
                   params=small_params)
    emb = SimulatedEmbedder(raw, EmbedConfig(qf=100, K=5, key=21),
                            cache_factors=True)
    p = np.mean([emb.run(key=21 + i).report.per_lattice_mean
                 for i in range(64)], axis=0)
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


def level_raw(data):
    """RAW of the paper's sensor pair holding ``data``."""
    return RawImage(data=data, cfa="RGGB", bit_depth=12,
                    params=SensorParams(a1=0.0, b1=0.0, a2=1.15, b2=-1150.0))


@functools.lru_cache(maxsize=None)
def finite_difference_jacobian():
    """J (1024, 1024) of a 32x32 constant RAW at QF 95, by unit
    differences of ``develop_cover``: photo sites to DCT coefficients, 64
    per block in block row-major order.  The level is the development
    shift, so the developed plane is zero and every difference is exact."""
    level = np.full((32, 32), 2048.0)

    def developed(data):
        plane = develop_cover(level_raw(data), 95)[0]
        return plane.reshape(4, 8, 4, 8).transpose(0, 2, 1, 3).ravel()

    assert not developed(level).any()
    jac = np.empty((1024, 1024))
    for site in range(1024):
        data = level.copy()
        data.flat[site] += 1.0
        jac[:, site] = developed(data)
    return jac


@pytest.mark.parametrize("blocks", [
    [(1, 1)],
    pytest.param([(0, 0)], marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="edge padding weights a replicated site twice (7.3 %)")),
    pytest.param([(0, 1)], marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="edge padding weights a replicated site twice (4.0 %)")),
    pytest.param([(0, 0), (0, 1)], marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="edge padding weights a replicated site twice (7.3 %)")),
], ids=["interior", "corner", "edge", "edge-pair"])
def test_joint_covariance_is_the_exact_propagated_law(blocks):
    # The joint covariance of some blocks is J diag(v) J^T over their rows
    # of the development's Jacobian, to rounding: also where an edge block
    # reads a border site twice through the padded window.
    jac = finite_difference_jacobian()
    raw = level_raw(np.full((32, 32), 2048.0))
    var = photon_variance(raw.data, raw.params).ravel()
    emb = SimulatedEmbedder(raw, EmbedConfig(qf=95))
    rows = np.concatenate([np.arange(64) + 64 * (4 * bi + bj)
                           for bi, bj in blocks])
    exact = (jac[rows] * var) @ jac[rows].T
    joint = emb.joint_covariance(blocks)
    assert np.abs(joint - exact).max() <= 1e-10 * np.abs(exact).max()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="changes are binned around the rounded mean of the "
                          "stego signal, not on the absolute grid")
@pytest.mark.parametrize("qf", [95, 100])
def test_changes_lie_on_the_absolute_quantization_grid(small_params, qf):
    # Stego = round((x + s) / q) wherever that stays within K of the cover:
    # x is the unquantized cover plane, s the continuous stego draw.
    raw = small_raw(small_params, size=64, seed=9, mu=2000.0, sigma=100.0)
    cfg = EmbedConfig(qf=qf, K=5, key=3)
    x, cover = develop_cover(raw, qf)
    result = SimulatedEmbedder(raw, cfg).run()
    steps = np.tile(cover.table.steps, (cover.blocks_h, cover.blocks_w))
    target = round_half_away_array((x + result.continuous) / steps)
    target -= cover.plane()
    within = np.abs(target) <= cfg.K
    # The xfail expects an AssertionError, so a failed precondition must
    # fail the test rather than pass for it.
    if not within.mean() > 0.99:
        pytest.fail(f"only {within.mean():.3f} of the targets lie within K")
    changes = result.stego.plane() - cover.plane()
    assert np.array_equal(changes[within], target[within])


def test_block_factors_match_public_conditioning(bright_raw):
    # The embedder keeps ``condition``'s outputs as they are: for one
    # interior block of each lattice, its factors are the bytes the public
    # call gives on the assembled joint and its zero tiles.
    cfg = EmbedConfig(qf=95, K=5, key=1)
    emb = SimulatedEmbedder(bright_raw, cfg)
    for block in ((2, 2), L2, L3, L4):
        blocks = emb.joint_blocks(block)
        gain, lower, sigmas, jitter = emb_mod.cov_mod.condition(
            emb.joint_covariance(blocks), zeros=emb._tile_plan(blocks)[1])
        factors = emb._block_factors(*block, emb_mod._Workspace())
        assert factors.mean_gain.tobytes() == gain.tobytes()
        assert factors.lower.tobytes() == lower.tobytes()
        assert factors.sigmas.tobytes() == sigmas.tobytes()
        assert factors.jitter == jitter

    # The embedder factors one joint covariance with the center last; the
    # literal Schur formulas with the center first give the same
    # conditional law.
    bi, bj = 2, 3  # interior lattice-3 block
    neighbors = list(emb.joint_blocks((bi, bj))[:-1])
    assert sorted(neighbors) == [(1, 3), (2, 2), (2, 4), (3, 3)]
    factors = emb._block_factors(bi, bj, emb_mod._Workspace())
    assert factors.rows.tolist() == [ni * emb.blocks_w + nj
                                     for ni, nj in neighbors]

    joint = emb.joint_covariance([(bi, bj)] + neighbors)
    s11, s12, s22 = joint[:64, :64], joint[:64, 64:], joint[64:, 64:]
    rng = np.random.default_rng(0)
    known = rng.normal(scale=5.0, size=256)
    mean = s12 @ np.linalg.solve(s22, known)
    cond = s11 - s12 @ np.linalg.solve(s22, s12.T)
    mean_embedder = factors.mean_gain @ known
    scale = np.abs(cond).max()
    assert np.abs(mean_embedder - mean).max() <= 1e-8 * np.abs(mean).max()
    chol = factors.lower + np.diag(factors.sigmas)
    recon = chol @ chol.T.copy()
    assert np.abs(recon - cond).max() <= 1e-8 * scale


def test_whole_image_law_matches_joint_covariance(paper_params):
    # The law of every block's draw, propagated through the chain's linear
    # form from ``_block_factors``' gains and chain-form factors, against
    # the exact covariance of the whole image's DCT stego signal.  Lattice-1 blocks condition on
    # nothing, and a lattice-2 or -3 block conditions exactly on its
    # adjacent lattice-1 blocks: those pairs agree to rounding.  The rest
    # differs only because a block conditions on its 3x3 neighbours alone
    # (errors in correlation units, bounds about twice the measured ones).
    emb = SimulatedEmbedder(small_raw(paper_params, size=48, sigma=100.0),
                            EmbedConfig(qf=95, K=5, key=1))
    blocks = [(bi, bj) for bi in range(emb.blocks_h)
              for bj in range(emb.blocks_w)]
    assert emb.live.all()
    truth = emb.joint_covariance(blocks)
    law = propagated_covariance(emb)
    dev = np.sqrt(np.diag(truth))
    corr = (np.abs(law - truth) / np.outer(dev, dev)).reshape(
        len(blocks), 64, len(blocks), 64).max(axis=(1, 3))
    lat = np.array([emb.assign.lattice_of(*blk) for blk in blocks])
    pos = np.array(blocks)
    dist = np.abs(pos[:, None] - pos[None]).max(axis=2)
    first = lat[:, None] == 1
    exact = (first & first.T) | ((dist == 1) & (
        (first & np.isin(lat, (2, 3))) | (first & np.isin(lat, (2, 3))).T))
    # 25 lattice-1 corners of lattice-2 blocks, 15 W or E of lattice-3 ones.
    assert np.count_nonzero(exact & (dist == 1)) == 2 * 40
    assert corr[exact].max() <= 1e-12
    for d, bound in ((1, 1.3e-3), (2, 4.2e-3)):
        assert corr[~exact & (dist == d)].max() <= bound, d
    assert corr[dist >= 3].max() <= 1.2e-4
    for b in range(len(blocks)):
        own = slice(64 * b, 64 * (b + 1))
        scale = np.abs(truth[own, own]).max()
        assert np.abs(law[own, own] - truth[own, own]).max() <= 3.6e-4 * scale
    assert np.linalg.norm(law - truth) <= 3.6e-3 * np.linalg.norm(truth)


# On the 6x6 block grid of ``bright_raw``: an interior lattice-2 block, an
# interior lattice-3 block, an interior and an edge lattice-4 block, and a
# lattice-4 corner (three neighbors).
L2, L3, L4, L4_EDGE, L4_CORNER = (1, 1), (2, 3), (3, 2), (3, 0), (5, 0)


def one_dead_block(raw):
    """Embedder on ``raw`` (6x6 blocks) with block (4, 4) dead."""
    data = raw.data.copy()
    data[31:41, 31:41] = 1000.0  # block (4, 4)'s support: dead
    emb = SimulatedEmbedder(RawImage(data=data, cfa="RGGB", bit_depth=12,
                                     params=raw.params),
                            EmbedConfig(qf=95, K=5, key=1))
    assert not emb.live[4, 4] and np.count_nonzero(emb.live) == 35
    return emb


def mask_tiles(a, pairs):
    """A copy of ``a`` with its 64 x 64 tiles at the (row, col) ``pairs``
    set to zero."""
    a = a.copy()
    for i, j in pairs:
        a[64 * i : 64 * (i + 1), 64 * j : 64 * (j + 1)] = 0.0
    return a


def test_joint_blocks_are_live_neighborhood_then_block(bright_raw):
    # The joint keeps lattice.neighborhood's order and drops dead blocks.
    emb = one_dead_block(bright_raw)
    for bi in range(emb.blocks_h):
        for bj in range(emb.blocks_w):
            nb = lattice.neighborhood(emb.assign, (bi, bj))
            live = tuple(blk for blk in nb if emb.live[blk])
            assert emb.joint_blocks((bi, bj)) == live + ((bi, bj),)
    assert (4, 4) in lattice.neighborhood(emb.assign, (3, 3))
    assert (4, 4) not in emb.joint_blocks((3, 3))


def test_joint_order_leads_with_unconnected_blocks(bright_raw):
    # With one dead block on the 6x6 grid, every block's joint starts with
    # its lead: blocks whose tiles among them are all exactly zero, and the
    # next block has a nonzero tile with one of them.  Interior blocks
    # lead with their latest lattice: four corners (L2, L4) or N and S (L3).
    # The tile plan's zeros are the tiles of blocks that are not
    # 8-connected, and they are exactly zero.
    emb = one_dead_block(bright_raw)
    leads = {}
    for bi in range(emb.blocks_h):
        for bj in range(emb.blocks_w):
            blocks = emb.joint_blocks((bi, bj))
            zeros = emb._tile_plan(blocks)[1]
            lead = min((i for i in range(len(blocks)) for j in range(i)
                        if (i, j) not in zeros), default=len(blocks) - 1)
            leads[bi, bj] = lead
            lats = [emb.assign.lattice_of(*blk) for blk in blocks[:-1]]
            assert lats == sorted(lats, reverse=True)
            joint = emb.joint_covariance(blocks)
            tile = lambda i, j: joint[64 * i : 64 * (i + 1),
                                      64 * j : 64 * (j + 1)]
            assert sorted(zeros) == [
                (i, j) for i in range(len(blocks)) for j in range(i)
                if max(abs(np.subtract(blocks[i], blocks[j]))) > 1]
            assert not any(tile(i, j).any() for i, j in zeros)
            for i in range(lead):
                for j in range(i):
                    assert not tile(i, j).any(), ((bi, bj), i, j)
            if lead < len(blocks) - 1:
                assert any(tile(lead, j).any() for j in range(lead))
    lattice_of = emb.assign.lattice_of
    assert leads[L2] == 4 and leads[L3] == 2 and leads[L4] == 4
    assert leads[L4_EDGE] == 2 and leads[L4_CORNER] == 1
    assert leads[0, 0] == 0 and lattice_of(0, 0) == 1
    # Next to the dead block: a lattice-2 block keeps three corners.
    assert leads[3, 3] == 3 and lattice_of(3, 3) == 2
    # A lattice-4 block's W and E (blocks 4 and 5) share no tile either.
    assert (5, 4) in emb._tile_plan(emb.joint_blocks(L4))[1]


def test_first_lattice_blocks_factor_as_plain_lapack(bright_raw):
    # A lattice-1 joint is one tile with nothing known: its factor is
    # LAPACK's dense dpotrf of the block's covariance, bit for bit, kept
    # in the chain's form.
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))
    for block in emb.assign.block_lists[0]:
        factors = emb._block_factors(*block, emb_mod._Workspace())
        ref, info = sla.lapack.dpotrf(emb.joint_covariance([block]),
                                      lower=1, clean=1)
        assert info == 0 and factors.jitter == 0.0
        lower, sigmas = chain_form(ref)
        assert factors.lower.tobytes() == lower.tobytes()
        assert factors.sigmas.tobytes() == sigmas.tobytes()


def test_stale_workspace_cannot_leak_into_factors(bright_raw, paper_params):
    # Blocks write only the lower tiles of their joint that the factor
    # reads, and a jitter retry writes them again over the failed factor;
    # whatever the buffer held before must not reach the factors.
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))
    ramp = SimulatedEmbedder(clamp_ramp(paper_params),
                             EmbedConfig(qf=95, K=5, key=1))
    jitter_block = next(
        tuple(e["block"]) for e in ramp.run().report.jitter_events)
    workspace = emb_mod._Workspace()
    # Sized for the largest joint, so the NaN fill covers every block's.
    workspace.view(9 * 64)
    cases = [(emb, block) for block in (L2, L3, L4, L4_EDGE)]
    for embedder, block in cases + [(ramp, jitter_block)]:
        workspace.flat.fill(np.nan)
        reused = embedder._block_factors(*block, workspace)
        fresh = embedder._block_factors(*block, emb_mod._Workspace())
        assert np.array_equal(reused.rows, fresh.rows)
        assert np.array_equal(reused.mean_gain, fresh.mean_gain)
        assert np.array_equal(reused.lower, fresh.lower)
        assert np.array_equal(reused.sigmas, fresh.sigmas)
        assert reused.jitter == fresh.jitter
        assert (reused.jitter > 0.0) == (embedder is ramp)
        assert not np.shares_memory(reused.mean_gain, workspace.flat)
        assert not np.shares_memory(reused.lower, workspace.flat)
        assert not np.shares_memory(reused.sigmas, workspace.flat)


def test_jitter_retries_stay_inside_one_cholesky_call(paper_params,
                                                      monkeypatch):
    # One ``cholesky`` call per factored block, retries included, so a
    # trace of the calls counts blocks and their jitter separately.
    emb = SimulatedEmbedder(clamp_ramp(paper_params),
                            EmbedConfig(qf=95, K=5, key=1))
    calls = []
    refills = []
    cholesky = emb_mod.cov_mod.cholesky

    def spy(a, **kwargs):
        calls.append(a.shape)
        refill = kwargs["refill"]
        kwargs["refill"] = lambda: (refills.append(1), refill())
        return cholesky(a, **kwargs)

    monkeypatch.setattr(emb_mod.cov_mod, "cholesky", spy)
    report = emb.run().report
    assert report.jitter_events
    assert len(calls) == np.count_nonzero(emb.live)
    assert len(refills) >= len(report.jitter_events)


@pytest.mark.parametrize("block", [L2, L3, L4, L4_CORNER],
                         ids=["L2", "L3", "L4", "L4-corner"])
def test_joint_assembly_contract(bright_raw, monkeypatch, block):
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))
    blocks = emb.joint_blocks(block)
    joint = emb.joint_covariance(blocks)
    assert np.array_equal(joint, joint.T)

    # The lower triangle is exactly what the embedder factors, outside the
    # zero tiles that the factor never fills and so are never written.
    factored = []
    cholesky = emb_mod.cov_mod.cholesky

    def spy(a, **kwargs):
        factored.append(np.tril(a))
        return cholesky(a, **kwargs)

    monkeypatch.setattr(emb_mod.cov_mod, "cholesky", spy)
    emb._block_factors(*block, emb_mod._Workspace())
    assert len(factored) == 1
    kept = never_filled(emb._tile_plan(blocks)[1], len(blocks))
    assert np.array_equal(mask_tiles(factored[0], kept),
                          mask_tiles(np.tril(joint), kept))
    monkeypatch.undo()

    # The right-side solve gives the gain of the transposed left-side one.
    m = joint.shape[0] - 64
    gain = emb_mod.cov_mod.condition(joint)[0]
    chol, _ = cholesky(joint)
    ref = sla.solve_triangular(chol[:m, :m].T, chol[m:, :m].T,
                               lower=False).T
    assert np.abs(gain - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("m", (64, 192, 256, 320, 512))
def test_gain_solve_works_in_place_on_the_factor(m):
    # The solve reads L_k where it lies in the factor, so neither L_k nor C
    # is copied, and the joint's upper triangle is never read or written.
    n = m + 64
    rng = np.random.default_rng(m)
    b = rng.normal(size=(n, n + 8))
    full = b @ b.T
    src = np.asfortranarray(np.where(np.tri(n, dtype=bool), full, np.nan))
    joint = src.copy(order="F")
    gain, lower, sigmas, _ = emb_mod.cov_mod.condition(
        joint, refill=lambda: np.copyto(joint, src))
    copied = emb_mod.cov_mod.condition(full)
    factor, _ = emb_mod.cov_mod.cholesky(full)
    ref = sla.blas.dtrsm(1.0, np.array(factor[:m, :m]),
                         np.array(factor[m:, :m]), side=1, lower=1)
    ref_lower, ref_sigmas = chain_form(factor[m:, m:])
    assert gain.tobytes() == ref.tobytes() == copied[0].tobytes()
    assert lower.tobytes() == ref_lower.tobytes() == copied[1].tobytes()
    assert sigmas.tobytes() == ref_sigmas.tobytes() == copied[2].tobytes()
    assert np.isnan(joint[np.triu_indices(n, 1)]).all()
    # Column-major, as the f2py solve returned it: ``gain @ known`` then
    # sums in the same order.
    assert gain.flags.f_contiguous


@pytest.mark.parametrize("trailing", range(1, 6))
@pytest.mark.parametrize("lead", range(5))
def test_gain_solve_with_lead_matches_dense_solve(lead, trailing):
    # The split solve (one dtrsm on L22, one dgemm, one dtrsm per lead
    # tile) gives the dense one-dtrsm gain of scipy's f2py solve, works in
    # place on C only, and never reads or writes the upper triangle.
    n, m = 64 * (lead + trailing), 64 * (lead + trailing - 1)
    factor, _ = emb_mod.cov_mod.cholesky(
        lead_joint(np.random.default_rng(10 * lead + trailing), lead,
                   trailing), zeros=lead_zeros(lead))
    dense = sla.blas.dtrsm(1.0, np.tril(factor[:m, :m]), factor[m:, :m],
                           side=1, lower=1)
    split = np.where(np.tri(n, dtype=bool), factor, np.nan).copy(order="F")
    gain = emb_mod.cov_mod._solve_gain(split, lead_zeros(lead))
    scale = np.abs(dense).max(initial=0.0)
    assert np.abs(gain - dense).max(initial=0.0) <= 1e-12 * scale
    assert np.array_equal(split[:m, :m], np.where(
        np.tri(m, dtype=bool), factor[:m, :m], np.nan), equal_nan=True)
    assert np.array_equal(split[m:, m:], np.where(
        np.tri(64, dtype=bool), factor[m:, m:], np.nan), equal_nan=True)
    assert gain.tobytes() == np.array(split[m:, :m], order="F").tobytes()
    if lead < 2:  # nothing is split off: the dense solve, bit for bit
        assert gain.tobytes() == dense.tobytes()


@pytest.mark.parametrize("joint, zeros", (
    (np.eye(128), ()),
    (np.eye(128, dtype=np.float32, order="F"), ()),
    (np.eye(192, order="F"), ((3, 0),)),
    (np.eye(192, order="F"), ((1, -1),)),
), ids=["row-major", "float32", "zeros-outside", "zeros-negative"])
def test_gain_solve_rejects_factor_before_blas(monkeypatch, joint, zeros):
    # The solve runs in place on the factor ``cholesky`` returns, so
    # ``cholesky``'s checks of the layout and of the zeros guard it.
    calls = []
    for name in ("dpotrf", "dtrsm", "dgemm"):
        monkeypatch.setattr(blas, name, lambda *args: calls.append(args))
    with pytest.raises(emb_mod.cov_mod.CovarianceError):
        emb_mod.cov_mod.condition(joint, refill=lambda: None, zeros=zeros)
    assert calls == []
    # Without zeros the solve is one dtrsm on all of L_k; a call with an
    # empty dimension, such as the parent's empty update, is not made.
    emb_mod.cov_mod._solve_gain(np.eye(128, order="F"), ())
    assert len(calls) == 1


def test_gain_solve_with_lattice4_zeros_matches_dense_solve():
    # The solve walks the factor's groups backwards (N and S in the dense
    # rest, then W | E, then each corner) and gives the dense one-dtrsm
    # gain of scipy's f2py solve, in place on C only.
    full, zeros = layout_joint(np.random.default_rng(4), LATTICE4_LAYOUT)
    n, m = full.shape[0], full.shape[0] - 64
    factor, _ = emb_mod.cov_mod.cholesky(full, zeros=zeros)
    dense = sla.blas.dtrsm(1.0, np.tril(factor[:m, :m]), factor[m:, :m],
                           side=1, lower=1)
    split = np.where(np.tri(n, dtype=bool), factor, np.nan).copy(order="F")
    gain = emb_mod.cov_mod._solve_gain(split, zeros)
    assert np.abs(gain - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.array_equal(split[:m, :m], np.where(
        np.tri(m, dtype=bool), factor[:m, :m], np.nan), equal_nan=True)
    assert gain.tobytes() == np.array(split[m:, :m], order="F").tobytes()


def test_structural_zeros_are_neither_read_nor_written(bright_raw):
    # NaN in every zero tile that the factor never fills: every layout of
    # the grid, dead neighbour included, gives the zero-filled run's gain
    # and factor bit for bit, and the NaNs are still there afterwards.
    emb = one_dead_block(bright_raw)
    kept_by_block = {}
    for block in zip(*map(np.ndarray.tolist, np.nonzero(emb.live))):
        blocks = emb.joint_blocks(block)
        zeros = emb._tile_plan(blocks)[1]
        kept = kept_by_block[block] = never_filled(zeros, len(blocks))
        n = 64 * len(blocks)

        def assemble(out, marked):
            emb._fill_lower(blocks, out)
            for i, j in kept if marked else ():
                out[64 * i : 64 * (i + 1), 64 * j : 64 * (j + 1)] = np.nan

        runs = []
        for marked in (False, True):
            joint = np.empty((n, n), order="F")
            refill = functools.partial(assemble, joint, marked)
            refill()
            gain, lower, sigmas, jitter = emb_mod.cov_mod.condition(
                joint, refill=refill, zeros=zeros)
            runs.append((gain.tobytes(), lower.tobytes(), sigmas.tobytes(),
                         jitter))
            for i, j in kept if marked else ():
                assert np.isnan(joint[64 * i : 64 * (i + 1),
                                      64 * j : 64 * (j + 1)]).all()
        assert runs[0] == runs[1], block
    # An interior lattice-4 joint keeps 15 of its 16 zero tiles (W fills
    # S against N); with S dead, block (3, 4)'s joint keeps all 13.
    assert len(kept_by_block[L4]) == 15
    assert len(kept_by_block[3, 4]) == 13 and emb.joint_blocks(
        (3, 4))[-2] == (2, 4)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("image", ["iid", "ramp"])
def test_run_assembles_every_joint_as_joint_covariance(paper_params,
                                                       monkeypatch, image,
                                                       workers):
    # Self tiles shared through the pass's band, on one thread or two, and
    # jitter refills, which compute every tile anew: each joint the factor
    # sees is ``joint_covariance``'s lower triangle bit for bit, outside
    # the zero tiles that the factor never fills.
    raw = (small_raw(paper_params, size=64) if image == "iid"
           else clamp_ramp(paper_params))
    emb = SimulatedEmbedder(raw, EmbedConfig(qf=95, K=5, key=3,
                                             workers=workers))
    seen = []
    condition = emb_mod.cov_mod.condition

    def spy(joint, refill=None, zeros=()):
        blocks = refill.args[0]
        seen.append((blocks, np.tril(joint)))

        def refilled():
            refill()
            seen.append((blocks, np.tril(joint)))
        return condition(joint, refill=refilled, zeros=zeros)

    monkeypatch.setattr(emb_mod.cov_mod, "condition", spy)
    report = emb.run().report
    assert len({blocks[-1] for blocks, _ in seen}) == emb.live.sum()
    if image == "ramp":
        assert report.jitter_events and len(seen) > emb.live.sum()
        assert any(len(blocks) < len(lattice.neighborhood(
            emb.assign, blocks[-1])) + 1 for blocks, _ in seen)
    for blocks, joint in seen:
        kept = never_filled(emb._tile_plan(blocks)[1], len(blocks))
        truth = np.tril(emb.joint_covariance(blocks))
        assert (mask_tiles(joint, kept).tobytes()
                == mask_tiles(truth, kept).tobytes()), blocks


def test_self_tiles_are_computed_once_per_pass(paper_params, monkeypatch):
    # On the 64x64 iid image, the 274 self tiles of the run's joints take
    # 160 products: one per block and lattice pass that uses it, 64 blocks
    # in their own pass, then the blocks of lattices 1, 2 and 3 (16 each)
    # in every later pass.  Each pass's band is empty when it ends.
    bands, products = record_bands(monkeypatch), []
    band_fill = emb_mod._Band.fill

    def fill(self, block, dest, compute):
        def counted(dest):
            products.append(block)
            compute(dest)
        band_fill(self, block, dest, counted)

    monkeypatch.setattr(emb_mod._Band, "fill", fill)
    emb = SimulatedEmbedder(small_raw(paper_params, size=64),
                            EmbedConfig(qf=95, K=5, key=3))
    emb.run()
    assert emb.live.all() and len(bands) == 4
    assert sum(len(joint) for band in bands
               for joint in band.joints.values()) == 274
    assert len(products) == 160 == sum(
        len(set().union(*band.joints.values())) for band in bands)
    for band in bands:
        assert not band.tiles and not band.uses


def test_cached_blocks_count_no_uses(bright_raw, monkeypatch):
    # A run on cached factors assembles nothing: it makes no band, calls
    # ``_fill_lower`` zero times and holds no joint, not even a workspace
    # buffer to put one in.
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1),
                            cache_factors=True)
    emb.run()
    bands, calls = record_bands(monkeypatch), []
    for cls, name in ((SimulatedEmbedder, "_fill_lower"),
                      (SimulatedEmbedder, "_block_factors"),
                      (emb_mod._Workspace, "view")):
        def counted(*args, _name=name, _inner=getattr(cls, name), **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    cached = emb.run(key=2)
    assert bands == [] and calls == []
    fresh = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=2))
    assert cached.continuous.tobytes() == fresh.run().continuous.tobytes()


def test_fill_lower_writes_only_the_filled_zero_tiles(bright_raw):
    # Of the plan's zero tiles, ``_fill_lower`` writes zeros in exactly
    # those the factor fills, and leaves the others as they were (NaN);
    # ``joint_covariance`` holds exact zeros in all of them.
    emb = one_dead_block(bright_raw)
    counts = [0, 0]
    for block in map(tuple, np.argwhere(emb.live).tolist()):
        blocks = emb.joint_blocks(block)
        _, zeros, filled = emb._tile_plan(blocks)
        kept = never_filled(zeros, len(blocks))
        assert sorted(filled) == sorted(set(zeros) - set(kept))
        n = 64 * len(blocks)
        out = np.full((n, n), np.nan, order="F")
        emb._fill_lower(blocks, out)
        joint = emb.joint_covariance(blocks)
        for i, j in zeros:
            tile = (slice(64 * i, 64 * (i + 1)), slice(64 * j, 64 * (j + 1)))
            if (i, j) in filled:
                assert not out[tile].any()
            else:
                assert np.isnan(out[tile]).all()
            assert not joint[tile].any() and not joint[tile[::-1]].any()
        counts[0] += len(filled)
        counts[1] += len(zeros)
    assert counts == [10, 111]


# LAPACK's names for the arguments of each routine ``covariance`` calls,
# and the values it passes for every call of that routine.
BLAS_ARGUMENTS = {
    "dpotrf": ("uplo n a lda info", {"uplo": b"L"}),
    "dtrsm": ("side uplo transa diag m n alpha a lda b ldb",
              {"side": b"R", "uplo": b"L", "diag": b"N", "alpha": 1.0}),
    "dsyrk": ("uplo trans n k alpha a lda beta c ldc",
              {"uplo": b"L", "trans": b"N", "alpha": -1.0, "beta": 1.0}),
    "dgemm": ("transa transb m n k alpha a lda b ldb beta c ldc",
              {"transa": b"N", "alpha": -1.0, "beta": 1.0}),
}


def record_blas(monkeypatch, base):
    """Run covariance's BLAS calls and record each as (routine, op chars,
    sizes, matrix arguments), decoded from the routine's own arguments:
    the op chars are those ``BLAS_ARGUMENTS`` leaves free, and a matrix
    argument is the (row, col) element of the order-n matrix at ``base``
    where it starts.  The fixed arguments are checked on every call."""
    calls = []
    for name, (names, fixed) in BLAS_ARGUMENTS.items():
        def spy(*args, name=name, names=names.split(), fixed=fixed,
                real=getattr(blas, name)):
            arg = dict(zip(names, args, strict=True))
            value = {key: getattr(v, "value", v) for key, v in arg.items()}
            assert {key: value[key] for key in fixed} == fixed
            (ld,) = {value[key] for key in ("lda", "ldb", "ldc")
                     if key in value}
            calls.append(
                (name,)
                + tuple(value[key] for key in names if key not in fixed
                        and type(value[key]) is bytes)
                + tuple(value[key] for key in ("m", "n", "k") if key in value)
                + tuple(divmod((arg[key] - base) // 8, ld)[::-1]
                        for key in ("a", "b", "c") if key in arg))
            return real(*args)

        monkeypatch.setattr(blas, name, spy)
    return calls


def blas_flops(calls):
    """Nominal flops of recorded calls: n^3 / 3, m n^2, n^2 k, 2 m n k."""
    count = {"dpotrf": lambda n, _: n**3 / 3,
             "dtrsm": lambda trans, m, n, _a, _b: m * n * n,
             "dsyrk": lambda n, k, _a, _c: n * n * k,
             "dgemm": lambda trans, m, n, k, _a, _b, _c: 2 * m * n * k}
    return sum(count[call[0]](*call[1:]) for call in calls)


def test_factor_calls_and_flops_per_lattice(bright_raw, monkeypatch):
    # Interior lattice-1, -2 and -3 joints open with a lead and end dense:
    # they make the lead factorization's calls (less its calls with an
    # empty dimension), so their factors and gains keep its bits.  An
    # interior lattice-4 joint also skips W | E and each corner's zero
    # rows: at most 32 Mflop for factor and gain, 56.3 with its lead alone.
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))
    workspace = emb_mod._Workspace()
    workspace.view(9 * 64)
    calls = record_blas(monkeypatch, workspace.flat.ctypes.data)
    lead = {}
    for block in ((2, 2), L2, L3, L4):
        calls.clear()
        emb._block_factors(*block, workspace)
        lead[emb.assign.lattice_of(*block)] = list(calls)
    assert lead[1] == [("dpotrf", 64, (0, 0))]
    assert lead[2] == [
        call for c in range(0, 256, 64)
        for call in (("dpotrf", 64, (c, c)),
                     ("dtrsm", b"T", 64, 64, (c, c), (256, c)))] + [
        ("dsyrk", 64, 256, (256, 0), (256, 256)),
        ("dpotrf", 64, (256, 256))] + [
        ("dtrsm", b"N", 64, 64, (c, c), (256, c)) for c in range(0, 256, 64)]
    assert lead[3] == [
        call for c in (0, 64)
        for call in (("dpotrf", 64, (c, c)),
                     ("dtrsm", b"T", 192, 64, (c, c), (128, c)))] + [
        ("dsyrk", 192, 128, (128, 0), (128, 128)),
        ("dpotrf", 192, (128, 128)),
        ("dtrsm", b"N", 64, 128, (128, 128), (256, 128)),
        ("dgemm", b"N", 64, 128, 128, (256, 128), (128, 0), (256, 0)),
        ("dtrsm", b"N", 64, 64, (0, 0), (256, 0)),
        ("dtrsm", b"N", 64, 64, (64, 64), (256, 64))]
    assert blas_flops(lead[4]) <= 32e6


def test_factored_block_allocates_only_what_it_returns(bright_raw):
    # With a warm workspace, an interior lattice-4 block is factored and
    # solved where it is assembled: beyond the returned gain and factor it
    # allocates only small temporaries (the scaled tile weights), no copy
    # of the joint, of L_k or of C.
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))
    workspace = emb_mod._Workspace()
    emb._block_factors(*L4, workspace)
    tracemalloc.start()
    try:
        factors = emb._block_factors(*L4, workspace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factors.mean_gain.shape == (64, 8 * 64)
    budget = (factors.mean_gain.nbytes + factors.lower.nbytes
              + factors.sigmas.nbytes + 64 * 1024)
    assert peak <= budget, (peak, budget)


def test_first_lattice_block_factors_have_the_common_shape(bright_raw):
    # A lattice-1 block conditions on nothing, yet its factors have the
    # shape of every other block's: no rows and an empty (64, 0) gain.
    emb = SimulatedEmbedder(bright_raw, EmbedConfig(qf=95, K=5, key=1))
    block = emb.assign.block_lists[0][0]
    assert emb.live[block]
    factors = emb._block_factors(*block, emb_mod._Workspace())
    assert factors.rows.shape == (0,) and factors.rows.dtype == np.intp
    assert factors.mean_gain.shape == (64, 0)
    assert factors.mean_gain.flags.f_contiguous


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


def test_first_lattice_block_rejects_blocks_outside_the_grid(paper_params):
    # Refused before any indexing: past the last row, and at negative
    # coordinates, which would otherwise count from the grid's far end.
    raw = RawImage(data=np.full((32, 32), 2000.0), cfa="RGGB", bit_depth=12,
                   params=paper_params)
    emb = SimulatedEmbedder(raw, EmbedConfig(qf=95, K=5, key=1))
    assert (emb.blocks_h, emb.blocks_w) == (4, 4)
    for block in ((4, 0), (-1, 0), (-2, -2)):
        with pytest.raises(ValueError, match="outside the 4 x 4 block grid"):
            emb.run_first_lattice_block(1, block)


# -- pseudo embedding ----------------------------------------------------------------

# Out of range or not an int: rejected as keys and as pseudo-embedding seeds.
BAD_KEYS = [-1, 2**64, 1.5, True, "7"]


def test_pseudo_embed_deterministic(bright_raw):
    a = pseudo_embed(bright_raw, seed=5)
    b = pseudo_embed(bright_raw, seed=5)
    assert np.array_equal(a.data, b.data)
    c = pseudo_embed(bright_raw, seed=6)
    assert not np.array_equal(a.data, c.data)


@pytest.mark.parametrize("seed", BAD_KEYS, ids=repr)
def test_pseudo_embed_rejects_bad_seed(bright_raw, seed):
    # Seeds follow the key rule: 2**64 would otherwise add the seed-0
    # noise and -1 run as 2**64 - 1.
    with pytest.raises(ConfigError, match="seed must be an integer"):
        pseudo_embed(bright_raw, seed)


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


def test_config_rejects_alphabet_wider_than_cost_file(paper_params, tmp_path):
    # JCST stores K in one byte: K = 256 is refused before any work, and
    # K = 255 writes a cost file that reads back.
    with pytest.raises(ConfigError, match=r"K must be an integer in 1\.\.255, "
                                          r"got 256"):
        EmbedConfig(qf=95, K=256)
    path = tmp_path / "costs.bin"
    export_costs(small_raw(paper_params, size=8), EmbedConfig(qf=95, K=255),
                 path)
    assert emb_mod.read_costs(path).costs.shape == (1, 1, 64, 511)


@pytest.mark.parametrize("call", [embed_simulated, capacity_map, export_costs])
def test_int16_overflow_rejected_before_any_factorization(
        paper_params, monkeypatch, call):
    # A constant 16-bit image whose DC is exactly 32767 at QF 100: the cover
    # fits int16, but a change of up to K would not, so the embedder refuses
    # it before factoring any block.
    raw = RawImage(data=np.full((16, 16), 36863.9), cfa="RGGB", bit_depth=16,
                   params=paper_params)
    assert develop_cover(raw, 100)[1].coeffs[..., 0, 0].max() == 32767
    calls = []
    monkeypatch.setattr(emb_mod.cov_mod, "cholesky",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(CoefficientsError, match=r"block \(0, 0\).*int16"):
        call(raw, EmbedConfig(qf=100, K=5, key=1))
    assert calls == []


@pytest.mark.parametrize("name, value", [
    ("qf", 95.5), ("qf", True), ("qf", "95"), ("K", 2.5), ("K", True),
    ("workers", 1.5), ("workers", True),
    # The key must also lie in 0..2**64-1.
    *(("key", key) for key in BAD_KEYS),
])
def test_config_rejects_non_integer(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        EmbedConfig(**{"qf": 95, name: value})


def test_numpy_integer_parameters_round_trip(tmp_path):
    # Numpy integers are stored as ints, so the sidecar and the report's
    # JSON can hold them.
    params = SensorParams(0.0, 0.0, 1.15, -1150.0, iso1=np.int64(100))
    img = RawImage(data=np.floor(small_raw(params, size=16).data), cfa="RGGB",
                   bit_depth=np.int64(12), params=params)
    path = tmp_path / "numpy.pgm"
    write_raw(img, path)
    back = load_raw(path)
    assert back.bit_depth == 12 and back.params == params
    assert np.array_equal(back.data, img.data)
    cfg = EmbedConfig(qf=np.int64(95), K=np.int64(5), key=np.uint64(7))
    report = json.loads(json.dumps(capacity_map(back, cfg).to_json_dict()))
    assert report["config"]["qf"] == 95 and report["config"]["K"] == 5
    assert report["config"]["key"] == f"{7:016x}"


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
