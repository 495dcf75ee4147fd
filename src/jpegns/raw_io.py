"""RAW Bayer image ingestion, synthesis and PGM + JSON sidecar I/O.

RAW files are binary PGM (P5) with a JSON sidecar ``<path>.json`` holding
the CFA layout, bit depth and sensor noise parameters.  Samples are 16-bit
big-endian, or single bytes when the bit depth is at most 8 (the PGM rule
for maxval <= 255).  Loaded photo-site values are linear counts; no
black-level or white-balance handling is performed.
"""

import json
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import rng

log = logging.getLogger(__name__)

BAYER_PATTERNS = ("RGGB", "BGGR", "GRBG", "GBRG")


class RawIoError(Exception):
    """Base class for RAW ingestion failures."""


class PgmError(RawIoError):
    """Malformed or unsupported PGM file."""


class SidecarError(RawIoError):
    """Missing or malformed JSON sidecar."""


class UnknownCfaError(RawIoError):
    """CFA string not one of the four Bayer layouts."""


class ValueOutOfRangeError(RawIoError):
    """Photo-site value outside [0, 2**bit_depth - 1]."""


class DimensionError(RawIoError):
    """Image dimensions inconsistent or unusable."""


class ParameterError(RawIoError, ValueError):
    """Invalid sensor, synthesis or image parameter."""


@dataclass(frozen=True)
class SensorParams:
    """Heteroscedastic sensor noise coefficients for two ISO settings.

    The stego-signal variance at a photo-site of value x is
    ``max(0, (a2 - a1) * x + (b2 - b1))`` in squared counts; the
    coefficients are stored as floats.  ``iso1`` and ``iso2`` are
    informational positive integers, stored as ints (``rng.check_int``).
    """

    a1: float
    b1: float
    a2: float
    b2: float
    iso1: int = 100
    iso2: int = 200

    def __post_init__(self):
        for name in ("a1", "b1", "a2", "b2"):
            value = _finite_float(getattr(self, name))
            if value is None:
                raise ParameterError(
                    f"sensor parameter {name} must be finite and real, "
                    f"got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        for name in ("iso1", "iso2"):
            object.__setattr__(self, name, rng.check_int(
                getattr(self, name), name, ParameterError, 1))


@dataclass
class RawImage:
    """A single-channel Bayer mosaic of photo-site counts.

    data is a float64 (height, width) array with every value in
    [0, 2**bit_depth - 1]; cfa names the channel layout of even/odd rows
    and columns.
    """

    data: np.ndarray
    cfa: str
    bit_depth: int
    params: SensorParams

    def __post_init__(self):
        self.bit_depth = rng.check_int(self.bit_depth, "bit depth",
                                       ParameterError, 1, 16)
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DimensionError("photo-site data must be 2-D")
        if 0 in self.data.shape:
            raise DimensionError(
                f"image is empty ({self.width}x{self.height} photo-sites)")
        if self.cfa not in BAYER_PATTERNS:
            raise UnknownCfaError(f"unknown CFA pattern {self.cfa!r}")
        if not np.all(np.isfinite(self.data)):
            raise ValueOutOfRangeError("photo-site values must be finite")
        if np.any(self.data < 0):
            raise ValueOutOfRangeError("negative photo-site value")
        limit = float(2**self.bit_depth - 1)
        if np.any(self.data > limit):
            raise ValueOutOfRangeError(
                f"photo-site value exceeds 2**{self.bit_depth} - 1 = {limit:.0f}"
            )

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class SynthSpec:
    """Specification of a synthetic RAW image.

    kind is "constant" (all photo-sites equal mu) or "iid_gaussian"
    (independent N(mu, sigma^2) draws clamped at 0).  Dimensions are
    positive multiples of 8, so the image can be embedded, and ``seed`` is
    in 0..2**64-1; all three are stored as ints (``rng.check_int``).
    """

    kind: str
    mu: float
    sigma: float
    width: int
    height: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "iid_gaussian"):
            raise ParameterError(f"unknown synthesis kind {self.kind!r}")
        object.__setattr__(self, "seed", rng.check_seed(
            self.seed, "seed", ParameterError))
        if self.sigma < 0:
            raise ParameterError("sigma must be >= 0")
        for name in ("width", "height"):
            object.__setattr__(self, name, rng.check_int(
                getattr(self, name), f"synthetic {name}", DimensionError, 1))
        if self.width % 8 or self.height % 8:
            raise DimensionError("synthetic dimensions must be multiples of 8")


def synthesize_raw(spec, params, bit_depth=12, cfa="RGGB"):
    """Generate a synthetic RawImage deterministically from ``spec.seed``.

    Gaussian values are drawn with the Philox stream keyed by the seed and
    converted by inverse CDF, then clamped at 0 (photo-sites are counts).
    """
    if spec.kind == "constant":
        data = np.full((spec.height, spec.width), float(spec.mu))
    else:
        gen = rng.make_stream(spec.seed, rng.DOMAIN_SYNTH)
        z = rng.standard_normal_icdf(gen, (spec.height, spec.width))
        data = np.maximum(0.0, spec.mu + spec.sigma * z)
    return RawImage(data=data, cfa=cfa, bit_depth=bit_depth, params=params)


def _read_pgm_tokens(buf, count):
    """Read ``count`` whitespace-separated header tokens, skipping comments."""
    tokens = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(buf):
            raise PgmError("truncated PGM header")
        ch = buf[pos : pos + 1]
        if ch == b"#":
            nl = buf.find(b"\n", pos)
            if nl < 0:
                raise PgmError("unterminated comment in PGM header")
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(buf) and not buf[end : end + 1].isspace():
                end += 1
            tokens.append(buf[pos:end])
            pos = end
    return tokens, pos + 1  # header ends with a single whitespace byte


def _finite_float(value):
    """A real number that is not a bool (any JSON number) as a finite
    float; None for anything else, an integer beyond the float range
    included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        return None
    return value if math.isfinite(value) else None


def load_raw(path):
    """Load a binary PGM plus its JSON sidecar into a validated RawImage."""
    path = str(path)
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise PgmError("not a binary PGM (P5) file")
    tokens, offset = _read_pgm_tokens(buf, 4)
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError as exc:
        raise PgmError("non-numeric PGM header field") from exc
    if width < 0 or height < 0:
        raise PgmError(f"negative PGM dimensions {width}x{height}")
    if maxval <= 0 or maxval > 65535:
        raise PgmError(f"unsupported PGM maxval {maxval}")
    nbytes = 2 if maxval > 255 else 1
    body = buf[offset : offset + width * height * nbytes]
    if len(body) != width * height * nbytes:
        raise PgmError("PGM pixel data truncated")
    dtype = ">u2" if nbytes == 2 else "u1"
    data = np.frombuffer(body, dtype=dtype).reshape(height, width).astype(np.float64)

    sidecar_path = path + ".json"
    try:
        with open(sidecar_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError as exc:
        raise SidecarError(f"missing sidecar {sidecar_path}") from exc
    except json.JSONDecodeError as exc:
        raise SidecarError(f"malformed sidecar {sidecar_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise SidecarError(f"sidecar {sidecar_path} is not a JSON object")

    cfa = meta.get("cfa")
    if cfa is None:
        log.warning("sidecar %s omits cfa, defaulting to RGGB", sidecar_path)
        cfa = "RGGB"
    if cfa not in BAYER_PATTERNS:
        raise UnknownCfaError(f"unknown CFA pattern {cfa!r} in {sidecar_path}")
    try:
        bit_depth = meta["bit_depth"]
        coeffs = {name: _finite_float(meta[name])
                  for name in ("a1", "b1", "a2", "b2")}
    except KeyError as exc:
        raise SidecarError(f"sidecar {sidecar_path} missing field {exc}") from exc
    for name, value in coeffs.items():
        if value is None:
            raise SidecarError(
                f"sidecar {sidecar_path} {name} must be a finite number, "
                f"got {meta[name]!r}")
    # Only JSON integers pass; their ranges are RawImage's and SensorParams'.
    bit_depth, iso1, iso2 = (
        rng.check_int(value, f"sidecar {sidecar_path} {name}", SidecarError,
                      -math.inf)
        for name, value in (("bit_depth", bit_depth),
                            ("iso1", meta.get("iso1", 100)),
                            ("iso2", meta.get("iso2", 200))))
    img = RawImage(data=data, cfa=cfa, bit_depth=bit_depth,
                   params=SensorParams(**coeffs, iso1=iso1, iso2=iso2))
    # write_raw stores maxval = 2**bit_depth - 1; checked after RawImage has
    # validated the bit depth and the photo-site range.
    if maxval != 2**bit_depth - 1:
        raise PgmError(
            f"PGM maxval {maxval} does not match the sidecar bit depth "
            f"{bit_depth} (expected {2**bit_depth - 1})")
    return img


def write_raw(img, path):
    """Write a RawImage as binary PGM plus JSON sidecar.

    Samples are single bytes when maxval <= 255 and 16-bit big-endian
    otherwise, as ``load_raw`` (and the PGM format) reads them.

    Values are rounded to the nearest integer; the in-memory image should be
    integer-valued for a bit-exact round trip.
    """
    path = str(path)
    maxval = 2**img.bit_depth - 1
    if maxval > 65535:
        raise PgmError("bit depth too large for 16-bit PGM")
    samples = np.rint(img.data)
    if np.any(samples < 0) or np.any(samples > maxval):
        raise ValueOutOfRangeError("photo-site value out of PGM range")
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    # The sidecar is built first, so a field JSON cannot hold leaves no file.
    sidecar = json.dumps({
        "cfa": img.cfa,
        "bit_depth": img.bit_depth,
        "a1": img.params.a1,
        "b1": img.params.b1,
        "a2": img.params.a2,
        "b2": img.params.b2,
        "iso1": img.params.iso1,
        "iso2": img.params.iso2,
    }, indent=2)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples.astype("u1" if maxval <= 255 else ">u2").tobytes())
    with open(path + ".json", "w", encoding="utf-8") as fh:
        fh.write(sidecar + "\n")
