"""One-thread pin for the OpenBLAS builds bundled with numpy (ILP64) and with
scipy (LP64, which SuperLU calls).  The pin binds only a library the process
has already loaded, so entering it never loads scipy's; code that runs scipy
inside the pin imports it before entering."""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager, suppress
from functools import cache
from importlib.util import find_spec


@cache
def _library_paths() -> tuple:
    """(path, symbol suffix) of both bundled libraries, found without importing
    either package; empty when either is missing, so one is never pinned alone."""
    found = []
    for package, pattern, suffix in (("numpy", "numpy.libs/libscipy_openblas64_*.so*", "64_"),
                                     ("scipy", "scipy.libs/libscipy_openblas-*.so*", "")):
        root = os.path.dirname(find_spec(package).submodule_search_locations[0])
        paths = glob.glob(os.path.join(root, pattern))
        if len(paths) != 1:
            return ()
        found.append((paths[0], suffix))
    return tuple(found)


@cache
def _bind(path: str, suffix: str) -> tuple:
    """(get, set) thread-count functions of a loaded library; OSError if not."""
    lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    get, set_ = (getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}") for op in ("get", "set"))
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _thread_controls() -> tuple:
    """Controls of the bundled libraries already loaded; one not loaded runs no
    BLAS, and a failed bind is not cached."""
    controls = []
    for path, suffix in _library_paths():
        with suppress(OSError, AttributeError):
            controls.append(_bind(path, suffix))
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Run the body with the loaded bundled OpenBLAS libraries at one thread
    and restore their counts after, also when it raises; without both wheels'
    libraries, do nothing.
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
