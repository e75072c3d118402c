"""One-thread pin for the OpenBLAS builds bundled with numpy (ILP64) and with
scipy (LP64, which SuperLU and GMRES call)."""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import cache

import numpy
import scipy


@cache
def _thread_controls() -> tuple:
    """(get, set) thread-count functions of both libraries, loaded on first
    use; empty when either is missing, so one is never pinned alone."""
    controls = []
    for package, pattern, suffix in ((numpy, "numpy.libs/libscipy_openblas64_*.so*", "64_"),
                                     (scipy, "scipy.libs/libscipy_openblas-*.so*", "")):
        paths = glob.glob(os.path.join(os.path.dirname(package.__path__[0]), pattern))
        if len(paths) != 1:
            return ()
        try:
            lib = ctypes.CDLL(paths[0])
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            return ()
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Run the body with both bundled OpenBLAS libraries at one thread and
    restore their counts after, also when it raises; without both, do nothing.
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
