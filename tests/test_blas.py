import os
import subprocess
import sys

import numpy
import pytest

from spinflow import _blas
from spinflow._blas import _controls, _thread_controls, one_blas_thread

# the pin only knows the manylinux wheel's layout, where numpy bundles its
# OpenBLAS in a sibling `numpy.libs/` directory; elsewhere it does nothing,
# which README documents
wheel_layout = pytest.mark.skipif(
    not os.path.isdir(os.path.join(os.path.dirname(numpy.__path__[0]), "numpy.libs")),
    reason="numpy is not a wheel with a bundled OpenBLAS")


def _counts():
    return [get() for get, _ in _thread_controls()]


@wheel_layout
def test_numpy_library_found():
    # numpy's ILP64 OpenBLAS: with the wheel layout present, a pin that found
    # no library would pass every other test while doing nothing
    assert len(_thread_controls()) == 1


@wheel_layout
def test_pin_restores_counts_when_body_raises():
    saved = _counts()
    try:
        for _, set_ in _thread_controls():
            set_(2)
        with pytest.raises(RuntimeError, match="body"):
            with one_blas_thread():
                assert _counts() == [1]
                raise RuntimeError("body")
        assert _counts() == [2]
    finally:
        for (_, set_), count in zip(_thread_controls(), saved):
            set_(count)


@wheel_layout
def test_missing_library_pins_nothing(monkeypatch):
    # without numpy's library found, the loaded one keeps its count in the pin
    controls, saved = _thread_controls(), _counts()
    real_glob = _blas.glob.glob
    monkeypatch.setattr(_blas.glob, "glob",
                        lambda p: [] if "numpy.libs" in p else real_glob(p))
    _controls.cache_clear()
    try:
        for _, set_ in controls:
            set_(2)
        assert _thread_controls() == ()
        with one_blas_thread():
            assert [get() for get, _ in controls] == [2]
    finally:
        _controls.cache_clear()
        for (_, set_), count in zip(controls, saved):
            set_(count)


_PIN_AFTER_IMPORT = """
import sys
import spinflow
from spinflow._blas import _thread_controls, one_blas_thread
with one_blas_thread():
    pinned = len(_thread_controls())
print(pinned, any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


@wheel_layout
def test_pin_loads_no_library():
    # entering the pin binds numpy's library, which numpy loaded, and loads
    # nothing else: no scipy module, so no second BLAS can run in the body
    proc = subprocess.run([sys.executable, "-c", _PIN_AFTER_IMPORT],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
