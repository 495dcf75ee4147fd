"""Quantization tables, cover development and coefficient-plane file I/O.

Covers are developed by the pipeline operator itself (bilinear
demosaicking, BT.709 luminance and the blockwise 2-D DCT, through the
per-block support tensor), level-shifted by half the dynamic range, and
quantized with the standard luminance table scaled by the conventional
quality-factor rule.  Rounding is half-away-from-zero to match the
sampler's bin convention.

Coefficient planes round-trip through a minimal binary container (magic
"JCNS") rather than an entropy-coded JFIF bitstream; the embedder's cost
files (magic "JCST") are written and read by the same container rules.
"""

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import pipeline
from .raw_io import DimensionError

# Standard reference luminance quantization table.
STANDARD_LUMINANCE_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

_MAGIC = b"JCNS"
_VERSION = 1
_ROLES = ("cover", "stego")


class CoefficientsError(Exception):
    """Coefficient plane construction or I/O failure."""


class FormatError(CoefficientsError):
    """Bad magic, version or structural field."""


class TruncationError(CoefficientsError):
    """File shorter than its header promises."""


class ChecksumError(CoefficientsError):
    """CRC32 footer mismatch."""


@dataclass(frozen=True)
class QuantTable:
    """8x8 quantization steps for one quality factor."""

    steps: np.ndarray
    qf: int

    def __post_init__(self):
        s = np.asarray(self.steps, dtype=np.int64)
        if s.shape != (8, 8) or np.any(s < 1):
            raise CoefficientsError("quantization steps must be 8x8 and >= 1")
        object.__setattr__(self, "steps", s)

    @property
    def flat(self):
        """Steps in the row-major coefficient order used by the chain."""
        return self.steps.ravel()


def quant_table(qf):
    """Standard luminance table scaled by the conventional quality rule.

    scale = 5000/qf below 50 else 200 - 2 qf; steps are
    floor((table * scale + 50) / 100) clamped to >= 1, so qf = 100 yields
    the all-ones table and qf = 50 the reference table itself.
    """
    if not (1 <= qf <= 100):
        raise CoefficientsError("quality factor must be in 1..100")
    scale = 5000 // qf if qf < 50 else 200 - 2 * qf
    steps = (STANDARD_LUMINANCE_TABLE * scale + 50) // 100
    return QuantTable(steps=np.maximum(steps, 1), qf=int(qf))


@dataclass
class JpegCoefficients:
    """Quantized 8x8-blocked DCT coefficient plane.

    ``coeffs`` has shape (blocks_h, blocks_w, 8, 8) with integer entries;
    magnitudes must fit the int16 container format.
    """

    coeffs: np.ndarray
    table: QuantTable
    role: str = "cover"

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim != 4 or c.shape[2:] != (8, 8):
            raise CoefficientsError("coefficients must be (bh, bw, 8, 8)")
        if not np.issubdtype(c.dtype, np.integer):
            raise CoefficientsError("coefficients must be integers")
        if np.any(np.abs(c) > 32767):
            raise CoefficientsError("coefficient magnitude exceeds int16 range")
        if self.role not in _ROLES:
            raise CoefficientsError(f"unknown role {self.role!r}")
        self.coeffs = c.astype(np.int32)

    @property
    def blocks_h(self):
        return self.coeffs.shape[0]

    @property
    def blocks_w(self):
        return self.coeffs.shape[1]

    def plane(self):
        """The coefficient plane in image layout (blocks_h*8, blocks_w*8)."""
        return to_plane(self.coeffs)

    @classmethod
    def from_plane(cls, plane, table, role="cover"):
        plane = np.asarray(plane)
        h, w = plane.shape
        if h % 8 or w % 8:
            raise DimensionError("plane dimensions must be multiples of 8")
        blocks = plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
        return cls(coeffs=blocks.copy(), table=table, role=role)


def to_plane(blocks):
    """Image layout (bh*8, bw*8) of per-block values shaped (bh, bw, 64).

    Also takes (bh, bw, 8, 8); each block's 64 values are row-major.
    """
    bh, bw = blocks.shape[:2]
    return blocks.reshape(bh, bw, 8, 8).transpose(0, 2, 1, 3).reshape(
        bh * 8, bw * 8)


def round_half_away_array(x):
    """Elementwise round half away from zero."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def develop_cover(raw, qf, green_kernel="cross"):
    """Develop a RAW image into (unquantized DCT plane, cover coefficients).

    Every block's DCT is the pipeline's block support tensor contracted with
    the block's 10x10 photo-site window (``pipeline.block_windows``) of the
    level-shifted mosaic, so edge blocks are developed by the same operator
    as interior ones.  The level shift is 2**(bit_depth-1); quantization
    divides by the table steps and rounds half away from zero.  The stego
    signal is zero-mean, so the shift affects the cover path only.
    """
    if raw.height % 8 or raw.width % 8:
        raise DimensionError("image dimensions must be multiples of 8")
    shift = float(2 ** (raw.bit_depth - 1))
    windows = pipeline.block_windows(raw.data - shift)
    weights = pipeline.block_support_tensor(raw.cfa, green_kernel)
    coeffs = np.einsum("kuv,ijuv->ijk", weights, windows, optimize=True)
    coeffs = coeffs.reshape(raw.height // 8, raw.width // 8, 8, 8)
    table = quant_table(qf)
    quantized = round_half_away_array(coeffs / table.steps).astype(np.int32)
    cover = JpegCoefficients(coeffs=quantized, table=table, role="cover")
    return to_plane(coeffs), cover


def nzac_count(c):
    """Number of nonzero AC coefficients (63 non-DC positions per block)."""
    ac = c.coeffs.reshape(c.blocks_h, c.blocks_w, 64)[:, :, 1:]
    return int(np.count_nonzero(ac))


def _write_container(path, magic, fmt, fields, body):
    """Write magic, version u8, ``fields`` packed by ``fmt``, body, CRC32.

    The CRC32 footer (big-endian u32) covers everything before it.
    """
    header = magic + struct.pack(">B", _VERSION) + struct.pack(fmt, *fields)
    crc = zlib.crc32(header + body) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)
        fh.write(struct.pack(">I", crc))


def _read_container(path, magic, fmt, body_size, what):
    """Read a file written by ``_write_container``; returns (fields, body).

    ``body_size(*fields)`` gives the body length the header promises.  A file
    shorter than the header or the promised length raises TruncationError; a
    wrong magic or version and trailing bytes raise FormatError.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    n_header = len(magic) + 1 + struct.calcsize(fmt)
    if len(buf) < n_header:
        raise TruncationError("file shorter than the fixed header")
    if buf[: len(magic)] != magic:
        raise FormatError(f"bad {what} magic")
    version = buf[len(magic)]
    if version != _VERSION:
        raise FormatError(f"unsupported {what} version {version}")
    fields = struct.unpack(fmt, buf[len(magic) + 1 : n_header])
    expected = n_header + body_size(*fields) + 4
    if len(buf) < expected:
        raise TruncationError(f"expected {expected} bytes, found {len(buf)}")
    if len(buf) > expected:
        raise FormatError("trailing bytes after checksum")
    if zlib.crc32(buf[:-4]) & 0xFFFFFFFF != struct.unpack(">I", buf[-4:])[0]:
        raise ChecksumError("CRC32 mismatch")
    return fields, buf[n_header:-4]


def write_coeffs(c, path):
    """Write a coefficient plane in the JCNS container.

    Layout: magic "JCNS", version u8, role u8, blocks_h u32, blocks_w u32,
    qf u8 (all big-endian), int16 big-endian coefficients in image-plane
    row-major order, CRC32 footer over everything before it.
    """
    plane = c.plane()
    if np.any(np.abs(plane) > 32767):
        raise FormatError("coefficients exceed int16 range")
    _write_container(
        path, _MAGIC, ">BIIB",
        (_ROLES.index(c.role), c.blocks_h, c.blocks_w, c.table.qf),
        plane.astype(">i2").tobytes())


def read_coeffs(path):
    """Read a JCNS container back into JpegCoefficients."""
    (role_idx, bh, bw, qf), body = _read_container(
        path, _MAGIC, ">BIIB", lambda role, bh, bw, qf: bh * bw * 64 * 2,
        "coefficient")
    if role_idx >= len(_ROLES):
        raise FormatError(f"unknown role byte {role_idx}")
    plane = np.frombuffer(body, dtype=">i2").reshape(bh * 8, bw * 8)
    return JpegCoefficients.from_plane(
        plane.astype(np.int32), quant_table(qf), role=_ROLES[role_idx])
