"""BLAS and LAPACK routines from scipy's Cython capsules, called through ctypes.

scipy's f2py wrappers take no leading dimension, so they copy any block of
a larger array they are given, and their ``dpotrf`` holds the GIL.  These
entry points work on blocks where they lie in a column-major float64
array and release the GIL for the call.  Every matrix argument is an
address and a leading dimension: callers check shape, dtype, layout and
writability before they pass a pointer, since nothing here can.  Sizes
and leading dimensions are ``ctypes.c_int`` objects, so a caller binds
them once for many calls; the routines only read them, so threads may
share them.
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
_dpotrf = _load(cython_lapack, "dpotrf", _CHAR, _INT, _ADDR, _INT, _INT)
# (side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb)
_dtrsm = _load(cython_blas, "dtrsm", *(_CHAR,) * 4, _INT, _INT, _DOUBLE,
               _ADDR, _INT, _ADDR, _INT)
# (uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
_dsyrk = _load(cython_blas, "dsyrk", _CHAR, _CHAR, _INT, _INT, _DOUBLE,
               _ADDR, _INT, _DOUBLE, _ADDR, _INT)
# (transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
_dgemm = _load(cython_blas, "dgemm", _CHAR, _CHAR, _INT, _INT, _INT,
               _DOUBLE, _ADDR, _INT, _ADDR, _INT, _DOUBLE, _ADDR, _INT)

# ctypes passes a c_int or c_double to a POINTER argument by reference.
_ONE = ctypes.c_double(1.0)
_MINUS_ONE = ctypes.c_double(-1.0)


def dpotrf(n, a, lda):
    """Factor the n x n lower triangle at ``a`` in place; LAPACK's info."""
    info = ctypes.c_int(0)
    _dpotrf(b"L", n, a, lda, info)
    return info.value


def dtrsm(trans, m, n, a, lda, b, ldb):
    """B := B op(A)^-1 for the m x n B at ``b`` and the n x n lower
    triangular A at ``a``, op(A) = A^t when ``trans`` is b"T"."""
    _dtrsm(b"R", b"L", trans, b"N", m, n, _ONE, a, lda, b, ldb)


def dsyrk(n, k, a, lda, c, ldc):
    """C := C - A A^t on the lower triangle of the n x n C at ``c``, with
    A the n x k matrix at ``a``."""
    _dsyrk(b"L", b"N", n, k, _MINUS_ONE, a, lda, _ONE, c, ldc)


def dgemm(trans, m, n, k, a, lda, b, ldb, c, ldc):
    """C := C - A op(B) for the m x n C at ``c`` and the m x k A at ``a``;
    B at ``b`` is k x n, or n x k with op(B) = B^t when ``trans`` is
    b"T"."""
    _dgemm(b"N", trans, m, n, k, _MINUS_ONE, a, lda, b, ldb, _ONE, c, ldc)
