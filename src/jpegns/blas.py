"""BLAS and LAPACK routines from scipy's Cython capsules, called through ctypes.

scipy's f2py wrappers take no leading dimension, so they copy any block of
a larger array they are given, and their ``dpotrf`` holds the GIL.  These
are LAPACK's own entry points, under its names and with its arguments:
they work on blocks where they lie in a column-major float64 array and
release the GIL for the call.  Every matrix argument is an address and a
leading dimension: callers check shape, dtype, layout and writability
before they pass a pointer, since nothing here can.  Every scalar is
declared a pointer, so ctypes passes a ``c_int`` or ``c_double`` object by
reference: a caller binds sizes once for many calls, and threads may
share all of them but ``dpotrf``'s ``info``, which it writes.
"""

import ctypes

from scipy.linalg import cython_blas, cython_lapack

_CHAR = ctypes.c_char_p
_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_ADDR = ctypes.c_void_p

_get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                 ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _load(module, name, *argtypes):
    """``module``'s routine ``name`` as a ctypes function of ``argtypes``."""
    capsule = module.__pyx_capi__[name]
    address = _get_pointer(capsule, _get_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


# (uplo, n, a, lda, info)
dpotrf = _load(cython_lapack, "dpotrf", _CHAR, _INT, _ADDR, _INT, _INT)
# (side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb)
dtrsm = _load(cython_blas, "dtrsm", *(_CHAR,) * 4, _INT, _INT, _DOUBLE,
              _ADDR, _INT, _ADDR, _INT)
# (uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
dsyrk = _load(cython_blas, "dsyrk", _CHAR, _CHAR, _INT, _INT, _DOUBLE,
              _ADDR, _INT, _DOUBLE, _ADDR, _INT)
# (transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
dgemm = _load(cython_blas, "dgemm", _CHAR, _CHAR, _INT, _INT, _INT,
              _DOUBLE, _ADDR, _INT, _ADDR, _INT, _DOUBLE, _ADDR, _INT)
