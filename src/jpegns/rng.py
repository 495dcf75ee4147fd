"""Deterministic random streams.

All randomness in the library flows through Philox-4x64 counter-based
generators (as shipped with numpy), keyed explicitly so that every stream is
a pure function of user-supplied seeds.  Gaussian variates are produced by
the inverse-CDF method only, never by polar or ziggurat rejection, so the
sequence of draws is reproducible from the uniform stream alone and can be
re-derived in any language with a Philox implementation.

Stream key layout (two 64-bit words):

    word 0: the user seed / secret key
    word 1: (domain << 56) | payload

Domains keep unrelated uses of the same seed apart.  Block streams pack the
macro-lattice index and block coordinates into the payload:

    payload = (lattice << 52) | (block_row << 26) | block_col

A stream is a key and a counter, nothing more, so one generator can serve
many streams: given ``gen``, ``make_stream`` and ``block_stream`` re-key it
in place (new key words, counter zero, no buffered output) and return it.
The re-keyed generator draws exactly what a freshly built one would.  A
``run`` of the embedder keeps one such generator and re-keys it for every
block, instead of building a Philox per block; it draws each lattice's
uniforms into one array, which ``normals_from_uniforms`` converts at once.

Every integer parameter of the library (seeds and keys, bit depth, ISO
settings, image size, quality factor, alphabet half-width) is checked where
it enters by ``check_int``: a Python or numpy integer, not a bool, within
its range, stored as a Python int.  Seeds and keys (``check_seed``) span
0..2**64-1; the stream constructors do not repeat the check.
"""

import numpy as np
from scipy.special import ndtri

DOMAIN_SYNTH = 1
DOMAIN_PSEUDO = 2
DOMAIN_BLOCK = 3

_ZEROS4 = (0, 0, 0, 0)
# A uniform u = 0 is read as the smallest positive uniform of the stream's
# 2**-53 grid, so every z = ndtri(u) is finite.
_MIN_UNIFORM = 2.0**-53


def check_int(value, name, error, lo, hi=None):
    """``int(value)`` if ``value`` is a Python or numpy integer, not a bool,
    in ``lo..hi`` (no upper bound when ``hi`` is None); else ``error``."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= int(value) and (hi is None or int(value) <= hi)):
        return int(value)
    raise error(f"{name} must be an integer in "
                f"{lo}..{'' if hi is None else hi}, got {value!r}")


def check_seed(value, name, error):
    """A seed or key as one 64-bit stream key word (``check_int``); out of
    range it would otherwise wrap or fail deep inside numpy."""
    return check_int(value, name, error, 0, (1 << 64) - 1)


def make_stream(seed, domain, payload=0, gen=None):
    """Return a ``numpy.random.Generator`` for the given (seed, domain, payload).

    The stream is the Philox-4x64 sequence for key (seed, domain | payload)
    starting at counter zero.  With ``gen`` (a Philox-backed Generator) that
    generator is re-keyed in place and returned; without it a new one is
    built.  Either way the key is installed through the state property,
    which skips the OS-entropy gathering of the key= constructor while
    producing the identical stream.
    """
    if payload < 0 or payload >= (1 << 56):
        raise ValueError("stream payload out of range")
    if gen is None:
        gen = np.random.Generator(np.random.Philox(seed=0))
    # buffer_pos 4 marks the output buffer as spent and has_uint32 0 drops a
    # held half-word, so the first draw starts from the new key at counter 0.
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4,
                  "key": (seed, ((domain & 0xFF) << 56) | payload)},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen


def block_stream(key, lattice, block_row, block_col, gen=None):
    """Per-block stream for embedding: independent across blocks and lattices.

    ``gen`` is re-keyed in place as in ``make_stream``.
    """
    if not (1 <= lattice <= 4):
        raise ValueError("lattice index must be in 1..4")
    if block_row >= (1 << 26) or block_col >= (1 << 26):
        raise ValueError("block coordinates too large for stream payload")
    payload = (lattice << 52) | (block_row << 26) | block_col
    return make_stream(key, DOMAIN_BLOCK, payload, gen)


def normals_from_uniforms(u):
    """Standard normals z = ndtri(u) of the uniform array ``u``, written
    over it and returned; all finite (see ``_MIN_UNIFORM``).  Elementwise,
    so uniforms drawn from many streams into one array convert at once,
    each to the value it gets alone."""
    np.maximum(u, _MIN_UNIFORM, out=u)
    return ndtri(u, out=u)


def standard_normal_icdf(gen, size):
    """Array of ``size`` standard normal draws via the inverse CDF of
    uniforms from ``gen`` (``normals_from_uniforms``)."""
    return normals_from_uniforms(gen.random(size))
