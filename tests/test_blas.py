import os
import subprocess
import sys

import numpy
import pytest
import scipy.sparse.linalg  # loads scipy's OpenBLAS: the pin binds only loaded libraries

from spinflow import _blas
from spinflow._blas import _library_paths, _thread_controls, one_blas_thread

# the pin only knows the manylinux wheels' layout, where each package bundles
# its OpenBLAS in a sibling `<package>.libs/` directory; elsewhere it does
# nothing, which README documents
wheel_layout = pytest.mark.skipif(
    not all(os.path.isdir(os.path.join(os.path.dirname(p.__path__[0]), f"{p.__name__}.libs"))
            for p in (numpy, scipy)),
    reason="numpy or scipy is not a wheel with a bundled OpenBLAS")


def _counts():
    return [get() for get, _ in _thread_controls()]


@wheel_layout
def test_both_bundled_libraries_found():
    # numpy's ILP64 and scipy's LP64 OpenBLAS: with the wheel layout present,
    # a pin that found neither would pass every other test while doing nothing
    assert len(_thread_controls()) == 2


@wheel_layout
def test_pin_restores_counts_when_body_raises():
    saved = _counts()
    try:
        for (_, set_), count in zip(_thread_controls(), (2, 3)):
            set_(count)
        with pytest.raises(RuntimeError, match="body"):
            with one_blas_thread():
                assert _counts() == [1, 1]
                raise RuntimeError("body")
        assert _counts() == [2, 3]
    finally:
        for (_, set_), count in zip(_thread_controls(), saved):
            set_(count)


@wheel_layout
def test_missing_library_pins_neither(monkeypatch):
    # without numpy's library, scipy's keeps its count inside the pin too
    controls, saved = _thread_controls(), _counts()
    real_glob = _blas.glob.glob
    monkeypatch.setattr(_blas.glob, "glob",
                        lambda p: [] if "numpy.libs" in p else real_glob(p))
    _library_paths.cache_clear()
    try:
        for _, set_ in controls:
            set_(2)
        assert _thread_controls() == ()
        with one_blas_thread():
            assert [get() for get, _ in controls] == [2, 2]
    finally:
        _library_paths.cache_clear()
        for (_, set_), count in zip(controls, saved):
            set_(count)


_PIN_AFTER_IMPORT = """
import ctypes, os, sys
import spinflow
from spinflow._blas import _library_paths, _thread_controls, one_blas_thread
with one_blas_thread():
    pinned = len(_thread_controls())
scipy_blas = _library_paths()[1][0]
try:
    ctypes.CDLL(scipy_blas, mode=os.RTLD_NOLOAD)
    loaded = True
except OSError:
    loaded = False
print(pinned, loaded, any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


@wheel_layout
def test_pin_loads_no_library():
    # entering the pin binds numpy's library, which numpy loaded, and leaves
    # scipy's unloaded: no scipy code ran, so none can run BLAS in the body
    proc = subprocess.run([sys.executable, "-c", _PIN_AFTER_IMPORT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False", "False"]
