import json
import math

import numpy as np
import pytest

from jpegns import (
    DimensionError,
    ParameterError,
    PgmError,
    RawImage,
    SensorParams,
    SidecarError,
    SynthSpec,
    UnknownCfaError,
    ValueOutOfRangeError,
    load_raw,
    synthesize_raw,
    write_raw,
)


def write_pgm(path, data, maxval, sidecar=None):
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode())
        dtype = ">u2" if maxval > 255 else "u1"
        fh.write(np.asarray(data).astype(dtype).tobytes())
    if sidecar is not None:
        with open(str(path) + ".json", "w") as fh:
            json.dump(sidecar, fh)


BASE_SIDECAR = {"cfa": "RGGB", "bit_depth": 12, "a1": 0.0, "b1": 0.0,
                "a2": 1.15, "b2": -1150.0, "iso1": 100, "iso2": 200}


def test_constant_image_round_trip(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((26, 26), 512), 4095, BASE_SIDECAR)
    img = load_raw(path)
    assert img.data[0][0] == 512
    assert img.data.shape == (26, 26)
    assert img.cfa == "RGGB"
    assert img.params.a2 == 1.15


def test_unknown_cfa_rejected(tmp_path):
    path = tmp_path / "bad.pgm"
    write_pgm(path, np.zeros((8, 8)), 4095, {**BASE_SIDECAR, "cfa": "XYZW"})
    with pytest.raises(UnknownCfaError):
        load_raw(path)


def test_value_above_bit_depth_rejected(tmp_path):
    path = tmp_path / "hot.pgm"
    data = np.zeros((8, 8))
    data[3, 3] = 4096  # 2**12 - 1 = 4095
    write_pgm(path, data, 65535, BASE_SIDECAR)
    with pytest.raises(ValueOutOfRangeError):
        load_raw(path)


@pytest.mark.parametrize("bit_depth", (0, 17, -3))
def test_bit_depth_out_of_range_rejected(tmp_path, paper_params, bit_depth):
    with pytest.raises(ValueError, match="bit depth"):
        RawImage(data=np.zeros((8, 8)), cfa="RGGB", bit_depth=bit_depth,
                 params=paper_params)
    path = tmp_path / "depth.pgm"
    write_pgm(path, np.zeros((8, 8)), 4095,
              {**BASE_SIDECAR, "bit_depth": bit_depth})
    with pytest.raises(ValueError, match="bit depth"):
        load_raw(path)


def test_bool_bit_depth_rejected(paper_params):
    # True is 1 to arithmetic, but write_raw would store "bit_depth": true,
    # which load_raw refuses.
    with pytest.raises(ParameterError, match="bit depth"):
        RawImage(data=np.zeros((8, 8)), cfa="RGGB", bit_depth=True,
                 params=paper_params)


def test_fractional_bit_depth_rejected(tmp_path):
    path = tmp_path / "frac.pgm"
    write_pgm(path, np.zeros((8, 8)), 4095,
              {**BASE_SIDECAR, "bit_depth": 12.7})
    with pytest.raises(SidecarError, match="bit_depth"):
        load_raw(path)


@pytest.mark.parametrize("field, value", [
    ("a2", "abc"), ("a2", None), ("b1", float("nan")), ("a1", float("inf")),
    ("b2", "-1150"), ("a2", True),
    pytest.param("a1", 10**400, id="a1-int-beyond-float"), ("iso1", 100.5),
    ("iso2", "200"), ("iso1", None), ("iso2", False)])
def test_bad_sensor_field_rejected(tmp_path, field, value):
    # Every sensor field must be a JSON number (finite) or, for the ISO
    # settings, a JSON integer; anything else is a sidecar error.
    path = tmp_path / "sensor.pgm"
    write_pgm(path, np.zeros((8, 8)), 4095, {**BASE_SIDECAR, field: value})
    with pytest.raises(SidecarError, match=field):
        load_raw(path)


def test_sidecar_must_be_an_object(tmp_path):
    path = tmp_path / "list.pgm"
    write_pgm(path, np.zeros((8, 8)), 4095, [BASE_SIDECAR])
    with pytest.raises(SidecarError, match="not a JSON object"):
        load_raw(path)


def test_integer_sensor_coefficients_accepted(tmp_path):
    path = tmp_path / "ints.pgm"
    write_pgm(path, np.zeros((8, 8)), 4095,
              {**BASE_SIDECAR, "a2": 1, "b2": -1150})
    params = load_raw(path).params
    assert (params.a2, params.b2) == (1.0, -1150.0)
    assert isinstance(params.a2, float)


def test_maxval_must_match_bit_depth(tmp_path):
    path = tmp_path / "maxval.pgm"
    write_pgm(path, np.zeros((8, 8)), 255, BASE_SIDECAR)
    with pytest.raises(PgmError, match="maxval 255"):
        load_raw(path)


def test_missing_sidecar(tmp_path):
    path = tmp_path / "orphan.pgm"
    write_pgm(path, np.zeros((8, 8)), 4095)
    with pytest.raises(SidecarError):
        load_raw(path)


def test_truncated_pixel_data(tmp_path):
    path = tmp_path / "short.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n8 8\n4095\n")
        fh.write(b"\x00" * 10)
    with open(str(path) + ".json", "w") as fh:
        json.dump(BASE_SIDECAR, fh)
    with pytest.raises(PgmError):
        load_raw(path)


@pytest.mark.parametrize("dims", [b"-8 -8", b"-8 8", b"8 -8"])
def test_negative_dimensions_rejected(tmp_path, dims):
    # -8 x -8 sizes a body of 128 bytes, which the file holds.
    path = tmp_path / "negative.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n4095\n" + b"\x00" * 128)
    with open(str(path) + ".json", "w") as fh:
        json.dump(BASE_SIDECAR, fh)
    with pytest.raises(PgmError, match="negative PGM dimensions"):
        load_raw(path)


def test_default_cfa_is_rggb(tmp_path, caplog):
    path = tmp_path / "nocfa.pgm"
    sidecar = {k: v for k, v in BASE_SIDECAR.items() if k != "cfa"}
    write_pgm(path, np.zeros((8, 8)), 4095, sidecar)
    with caplog.at_level("WARNING"):
        img = load_raw(path)
    assert img.cfa == "RGGB"
    assert any("defaulting to RGGB" in r.message for r in caplog.records)


def test_write_then_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = np.floor(rng.uniform(0, 4096, size=(16, 24)))
    img = RawImage(data=data, cfa="GBRG", bit_depth=12,
                   params=SensorParams(0.5, 2.0, 1.0, 3.0, iso1=200, iso2=400))
    path = tmp_path / "rt.pgm"
    write_raw(img, path)
    back = load_raw(path)
    assert np.array_equal(back.data, data)
    assert back.cfa == "GBRG"
    assert back.bit_depth == 12
    assert back.params == img.params


def test_float32_sensor_coefficients_round_trip(tmp_path):
    # Stored as floats, so the sidecar can hold them.
    params = SensorParams(*np.float32([0.5, 2.0, 1.15, -1150.0]))
    assert all(type(v) is float for v in (params.a1, params.b1, params.a2,
                                          params.b2))
    img = RawImage(data=np.zeros((8, 8)), cfa="RGGB", bit_depth=12,
                   params=params)
    path = tmp_path / "f32.pgm"
    write_raw(img, path)
    assert load_raw(path).params == params


def test_write_raw_leaves_no_file_when_the_sidecar_fails(tmp_path):
    # A bit depth that JSON cannot hold, set after construction: the
    # sidecar text is built before either file is opened.
    img = RawImage(data=np.zeros((8, 8)), cfa="RGGB", bit_depth=12,
                   params=SensorParams(0.0, 0.0, 1.15, -1150.0))
    img.bit_depth = np.int64(12)
    path = tmp_path / "partial.pgm"
    with pytest.raises(TypeError):
        write_raw(img, path)
    assert not path.exists()
    assert not (tmp_path / "partial.pgm.json").exists()


@pytest.mark.parametrize("bit_depth", [1, 8, 12])
def test_round_trip_at_bit_depth(tmp_path, bit_depth):
    # PGM stores one byte per sample when maxval <= 255, two otherwise.
    data = np.arange(64, dtype=np.float64).reshape(8, 8) * 3 % 2**bit_depth
    img = RawImage(data=data, cfa="RGGB", bit_depth=bit_depth,
                   params=SensorParams(0.0, 0.0, 1.15, -1150.0))
    path = tmp_path / "rt.pgm"
    write_raw(img, path)
    back = load_raw(path)
    assert np.array_equal(back.data, data)
    assert back.bit_depth == bit_depth


def test_synthesize_constant():
    spec = SynthSpec(kind="constant", mu=1000.0, sigma=0.0, width=24, height=24)
    img = synthesize_raw(spec, SensorParams(0, 0, 1, 0))
    assert np.all(img.data == 1000.0)


def test_synthesize_deterministic():
    spec = SynthSpec(kind="iid_gaussian", mu=1000.0, sigma=10.0,
                     width=32, height=32, seed=7)
    params = SensorParams(0, 0, 1, 0)
    a = synthesize_raw(spec, params)
    b = synthesize_raw(spec, params)
    assert np.array_equal(a.data, b.data)


def test_synthesize_clamped_mean_matches_oracle():
    # Draws are max(0, N(0, 1)); the rectified-normal mean is
    # mu * Phi(mu/sigma) + sigma * phi(mu/sigma) = 1/sqrt(2*pi) at mu=0.
    spec = SynthSpec(kind="iid_gaussian", mu=0.0, sigma=1.0,
                     width=512, height=512, seed=1)
    img = synthesize_raw(spec, SensorParams(0, 0, 1, 0))
    oracle = 1.0 / math.sqrt(2.0 * math.pi)
    assert abs(img.data.mean() - oracle) <= 3.0 / 512.0
    assert img.data.min() >= 0.0


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "7"], ids=repr)
def test_synth_spec_rejects_bad_seed(seed):
    # The seed is one 64-bit stream key word: 2**64 would otherwise give
    # the seed-0 image and -1 the image of 2**64 - 1.
    with pytest.raises(ParameterError, match="seed must be an integer"):
        SynthSpec(kind="iid_gaussian", mu=0.0, sigma=1.0, width=8, height=8,
                  seed=seed)


@pytest.mark.parametrize("size", [
    {"width": 16.0}, {"height": np.float64(8.0)}, {"width": True},
    {"height": "8"},
], ids=repr)
def test_synth_spec_rejects_dimensions_that_are_not_integers(size):
    # 16.0 used to pass and fail later inside numpy with a bare TypeError.
    with pytest.raises(DimensionError, match=f"synthetic {next(iter(size))} "
                                             f"must be an integer in 1.."):
        SynthSpec(**{"kind": "constant", "mu": 0.0, "sigma": 0.0,
                     "width": 8, "height": 8, **size})


def test_synth_spec_accepts_numpy_integer_dimensions():
    spec = SynthSpec(kind="constant", mu=1.0, sigma=0.0, width=np.int64(16),
                     height=np.int32(8))
    assert synthesize_raw(spec, SensorParams(0, 0, 1, 0)).data.shape == (8, 16)


def test_synthesize_largest_seed():
    params = SensorParams(0, 0, 1, 0)
    images = [synthesize_raw(SynthSpec(kind="iid_gaussian", mu=100.0,
                                       sigma=1.0, width=8, height=8,
                                       seed=seed), params)
              for seed in (0, 2**64 - 1)]
    assert not np.array_equal(images[0].data, images[1].data)


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        SynthSpec(kind="iid_gaussian", mu=0.0, sigma=-1.0, width=8, height=8)


def test_non_multiple_of_eight_rejected():
    with pytest.raises(DimensionError):
        SynthSpec(kind="constant", mu=0.0, sigma=0.0, width=20, height=8)


@pytest.mark.parametrize("width, height", [(0, 8), (8, 0), (0, 0)])
def test_empty_mosaic_rejected(tmp_path, width, height):
    path = tmp_path / "empty.pgm"
    write_pgm(path, np.zeros((height, width)), 4095, BASE_SIDECAR)
    with pytest.raises(DimensionError, match="image is empty"):
        load_raw(path)


def test_negative_data_rejected(paper_params):
    with pytest.raises(ValueOutOfRangeError):
        RawImage(data=np.full((8, 8), -1.0), cfa="RGGB", bit_depth=12,
                 params=paper_params)


def test_nonfinite_sensor_params_rejected():
    with pytest.raises(ValueError):
        SensorParams(a1=float("nan"), b1=0.0, a2=1.0, b2=0.0)


@pytest.mark.parametrize("field, value", [
    ("a1", "1.5"), ("b2", None), ("iso1", 100.5), ("iso1", 0), ("iso2", -200),
    ("iso2", True), ("iso1", "100"), ("a2", True),
], ids=repr)
def test_sensor_params_refuse_what_the_sidecar_cannot_hold(field, value):
    # 100.5 used to be written and then refused by load_raw; a str
    # coefficient used to raise a bare TypeError.
    with pytest.raises(ParameterError, match=field):
        SensorParams(**{"a1": 0.0, "b1": 0.0, "a2": 1.15, "b2": -1150.0,
                        field: value})


@pytest.mark.parametrize("value", [10**400, -(10**400)],
                         ids=["huge", "minus-huge"])
def test_sensor_coefficient_beyond_the_float_range_is_refused(value):
    # math.isfinite(10**400) raises a bare OverflowError; load_raw already
    # refused the same value in a sidecar.
    with pytest.raises(ParameterError, match="a1 must be finite and real"):
        SensorParams(value, 0.0, 1.0, 0.0)
