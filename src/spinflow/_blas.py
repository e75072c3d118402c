"""One-thread pin for the OpenBLAS build bundled with numpy (ILP64), which runs
every dense product and LAPACK call in spinflow; no spinflow code calls scipy's
BLAS.  The pin binds only a library the process has already loaded."""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager, suppress
from functools import cache
from importlib.util import find_spec


@cache
def _controls() -> tuple:
    """The (get, set) thread-count functions of numpy's bundled library, found
    without importing numpy: none when numpy is not a wheel with one, and
    OSError, which is not cached, while the library is not loaded."""
    root = os.path.dirname(find_spec("numpy").submodule_search_locations[0])
    paths = glob.glob(os.path.join(root, "numpy.libs/libscipy_openblas64_*.so*"))
    if len(paths) != 1:
        return ()
    lib = ctypes.CDLL(paths[0], mode=os.RTLD_NOLOAD)
    get, set_ = (getattr(lib, f"scipy_openblas_{op}_num_threads64_") for op in ("get", "set"))
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return ((get, set_),)


def _thread_controls() -> tuple:
    """``_controls()``, or none when the library cannot be bound."""
    with suppress(OSError, AttributeError):
        return _controls()
    return ()


@contextmanager
def one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS at one thread and restore its
    count after, also when it raises; without that library, do nothing.
    The pin is process-global while it lasts, so spinflow does not support
    concurrent calls from several Python threads."""
    controls = _thread_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)
