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

``one_thread`` runs a block of code with OpenBLAS on one thread, in
scipy's build (these routines) and in numpy's (``matmul``), since the
order in which OpenBLAS sums depends on its thread count.
"""

import contextlib
import ctypes
import logging
import threading

from scipy.linalg import cython_blas, cython_lapack

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

log = logging.getLogger(__name__)

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


def _thread_controls():
    """(get, set) thread-count functions of the OpenBLAS builds bundled
    with scipy (its BLAS and LAPACK) and with numpy (its ``matmul``), and
    the names of the modules whose build has none.  Each is looked up
    through the extension module that links its build."""
    found, missing = [], []
    for module, suffix in ((cython_blas, ""), (_multiarray_umath, "64_")):
        try:
            lib = ctypes.CDLL(module.__file__)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            missing.append(module.__name__)
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return tuple(found), tuple(missing)


class _OneThread(contextlib.ContextDecorator):
    """Context manager, and decorator, that runs its body with every
    OpenBLAS build of ``_thread_controls`` on one thread and then restores
    their counts.

    The count is process-wide: while any body runs, every thread of the
    process runs those builds on one thread.  Nested and concurrent bodies
    share the setting; the first to enter saves the counts and the last to
    leave restores them.  A build without the functions keeps its own
    count, which is logged once.
    """

    def __init__(self):
        self.controls, self.missing = _thread_controls()
        self.lock = threading.Lock()
        self.depth = 0
        self.saved = ()
        self.logged = False

    def __enter__(self):
        with self.lock:
            if not self.depth:
                if self.missing and not self.logged:
                    log.warning("no OpenBLAS thread control in %s; its BLAS "
                                "keeps its thread count, and results may "
                                "differ between thread counts",
                                ", ".join(self.missing))
                    self.logged = True
                self.saved = tuple(get() for get, _ in self.controls)
                for _, set_ in self.controls:
                    set_(1)
            self.depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            if not self.depth:
                for (_, set_), count in zip(self.controls, self.saved):
                    set_(count)


one_thread = _OneThread()
