import math

import numpy as np
import pytest
from scipy.special import ndtri

from jpegns import RawImage, SynthSpec, pseudo_embed, rng, synthesize_raw
from jpegns.covariance import photon_variance

SEEDS = [0, 1, 0xDEADBEEF, 2**63 + 5, 2**64 - 1]


def keyed(seed, domain, payload):
    """Independent oracle: numpy's own key constructor for the same key."""
    key = np.array([seed, (domain << 56) | payload], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("domain, payload", [
    (rng.DOMAIN_SYNTH, 0), (rng.DOMAIN_PSEUDO, 0), (7, 1),
    (rng.DOMAIN_BLOCK, (1 << 56) - 1),
])
def test_make_stream_matches_key_constructor(seed, domain, payload):
    ours = rng.make_stream(seed, domain, payload)
    oracle = keyed(seed, domain, payload)
    assert np.array_equal(ours.random(9), oracle.random(9))
    assert np.array_equal(ours.integers(0, 2**32, size=5, dtype=np.uint32),
                          oracle.integers(0, 2**32, size=5, dtype=np.uint32))


@pytest.mark.parametrize("lattice, row, col", [
    (1, 0, 0), (4, 3, 2), (2, (1 << 26) - 1, 0), (3, 0, (1 << 26) - 1),
])
def test_block_stream_payload_layout(lattice, row, col):
    payload = (lattice << 52) | (row << 26) | col
    ours = rng.block_stream(0xABCD, lattice, row, col)
    oracle = keyed(0xABCD, rng.DOMAIN_BLOCK, payload)
    assert np.array_equal(ours.random(64), oracle.random(64))


def test_rekey_mid_buffer_reproduces_fresh_stream():
    # Two doubles and a uint32 spend three of the four buffered words, and
    # the uint32 keeps the other half of its word (has_uint32 set).
    # Re-keying must drop both, so the first draws come from the new key
    # at counter 0.
    gen = rng.make_stream(5, rng.DOMAIN_SYNTH)
    gen.random(2)
    gen.integers(0, 2**32, dtype=np.uint32)
    state = gen.bit_generator.state
    assert (state["buffer_pos"], state["has_uint32"]) == (3, 1)
    same = rng.block_stream(9, 2, 4, 6, gen=gen)
    assert same is gen
    fresh = rng.block_stream(9, 2, 4, 6)
    assert np.array_equal(
        gen.integers(0, 2**32, size=3, dtype=np.uint32),
        fresh.integers(0, 2**32, size=3, dtype=np.uint32))
    assert np.array_equal(gen.random(70), fresh.random(70))


def test_rekey_matches_every_fresh_stream_in_turn():
    # One generator re-keyed block after block draws what a fresh
    # generator per block draws.
    gen = rng.make_stream(0, rng.DOMAIN_BLOCK)
    for lattice, row, col in [(1, 0, 0), (1, 0, 2), (2, 1, 0), (4, 1, 1)]:
        rng.block_stream(77, lattice, row, col, gen=gen)
        assert np.array_equal(gen.random(64),
                              rng.block_stream(77, lattice, row, col).random(64))


@pytest.mark.parametrize("payload", [-1, 1 << 56])
def test_payload_out_of_range_rejected(payload):
    with pytest.raises(ValueError, match="payload out of range"):
        rng.make_stream(1, rng.DOMAIN_BLOCK, payload)


@pytest.mark.parametrize("args, message", [
    ((0, 0, 0), "lattice index must be in 1..4"),
    ((5, 0, 0), "lattice index must be in 1..4"),
    ((1, 1 << 26, 0), "block coordinates too large"),
    ((1, 0, 1 << 26), "block coordinates too large"),
])
def test_block_stream_rejects_bad_coordinates(args, message):
    with pytest.raises(ValueError, match=message):
        rng.block_stream(1, *args)


@pytest.mark.parametrize("value", [-1, 2**64, 1.5, True, "7", None])
def test_check_seed_rejects(value):
    with pytest.raises(KeyError, match="seed must be an integer in"):
        rng.check_seed(value, "seed", KeyError)


@pytest.mark.parametrize("value", [0, 2**64 - 1])
def test_check_seed_accepts_range_ends(value):
    assert rng.check_seed(value, "seed", KeyError) == value


@pytest.mark.parametrize("value, lo, hi", [
    (np.int64(1), 1, 16), (np.uint8(16), 1, 16), (np.uint64(2**64 - 1), 0,
                                                  2**64 - 1),
    (10**30, 1, None), (-(10**30), -math.inf, None),
], ids=repr)
def test_check_int_accepts_python_and_numpy_integers(value, lo, hi):
    out = rng.check_int(value, "n", ValueError, lo, hi)
    assert type(out) is int and out == value


@pytest.mark.parametrize("value, hi, message", [
    (0, 16, "n must be an integer in 1..16, got 0"),
    (17, 16, "n must be an integer in 1..16, got 17"),
    (0, None, "n must be an integer in 1.., got 0"),
    (True, None, "n must be an integer in 1.., got True"),
    (np.True_, 16, "n must be an integer in 1..16, got np.True_"),
    (np.float64(2.0), 16,
     r"n must be an integer in 1..16, got np.float64\(2.0\)"),
    ("2", 16, "n must be an integer in 1..16, got '2'"),
], ids=repr)
def test_check_int_refuses(value, hi, message):
    with pytest.raises(ValueError, match=message):
        rng.check_int(value, "n", ValueError, 1, hi)


class ZeroUniforms:
    """Stand-in stream whose uniforms are all exactly 0."""

    def random(self, size):
        return np.zeros(size)


# u = 0 is read as the smallest positive uniform of the 2**-53 grid.
Z_FLOOR = ndtri(2.0**-53)


def test_zero_uniform_draws_a_finite_normal():
    z = rng.standard_normal_icdf(ZeroUniforms(), (2, 3))
    assert np.isfinite(Z_FLOOR)
    assert np.array_equal(z, np.full((2, 3), Z_FLOOR))


def test_zero_uniform_keeps_photo_sites_finite(monkeypatch, paper_params):
    # Synthesis and pseudo embedding draw through the same inverse CDF: at
    # zero noise a site keeps its level, and a bright site moves by the floor
    # normal instead of being clipped to 0.
    monkeypatch.setattr(rng, "make_stream", lambda *args: ZeroUniforms())
    flat = synthesize_raw(SynthSpec("iid_gaussian", 2000.0, 0.0, 8, 8, 1),
                          paper_params)
    assert np.array_equal(flat.data, np.full((8, 8), 2000.0))
    for level in (500.0, 2000.0):
        raw = RawImage(data=np.full((8, 8), level), cfa="RGGB", bit_depth=12,
                       params=paper_params)
        sd = np.sqrt(photon_variance(raw.data, paper_params))
        noisy = pseudo_embed(raw, 3)
        # The variance clamps to 0 below level 1000 (a2 x + b2 = 0).
        assert np.all(sd > 0) == (level > 1000.0)
        assert np.array_equal(noisy.data, level + sd * Z_FLOOR)
        assert noisy.data.min() > 0
