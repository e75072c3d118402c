"""Binary spinor-field files.

Layout (all little-endian):

    bytes 0-4   magic "SPNF1"
    byte  5     endianness tag, 0x4C ('L'); anything else is rejected
    byte  6     domain tag: 0 torus, 1 disk, 2 rect, 3 sphere, 4 cylinder
    byte  7     spin structure: 0 PP, 1 PA, 2 AP, 3 AA on the torus;
                0xFF (none) on every other domain; anything else is rejected
    8-19        nx, ny, n as uint32
    20-23       reserved, zero
    24-55       four float64 domain parameters, zero-padded:
                torus (Lx, Ly, 0, 0); disk (R, 0, 0, 0);
                rect (x0, x1, y0, y1); sphere (extent, 0, 0, 0);
                cylinder (t0, t1, 0, 0)
    56-         payload: nx*ny*n*2 complex128 values (node-major over
                iy*nx + ix, then component-major, then the 2-spinor slot;
                each complex is a float64 (re, im) pair)

A file reads only as a valid field.  Nonzero reserved or padding bytes, a
header the chart constructors refuse, a payload shape that does not fit the
chart, non-finite values and data on outside disk nodes are format errors.
Read then write reproduces the bytes exactly.
"""

from __future__ import annotations

import struct

import numpy as np

from .charts import CYLINDER, DISK, RECT, SPHERE, TORUS, GridChart, SpinorField
from .errors import ConfigurationError, FormatError, PreconditionError

MAGIC = b"SPNF1"
_DOMAIN_TAGS = {TORUS: 0, DISK: 1, RECT: 2, SPHERE: 3, CYLINDER: 4}
_TAG_DOMAINS = {v: k for k, v in _DOMAIN_TAGS.items()}
_SPIN_TAGS = {"PP": 0, "PA": 1, "AP": 2, "AA": 3, None: 0xFF}
_TAG_SPINS = {v: k for k, v in _SPIN_TAGS.items()}
_HEADER = struct.Struct("<5sBBBIIII4d")


def _chart_params(chart: GridChart) -> tuple:
    p = chart.params
    if chart.kind == TORUS:
        return (p[0], p[1], 0.0, 0.0)
    if chart.kind in (DISK, SPHERE):
        return (p[0], 0.0, 0.0, 0.0)
    if chart.kind == RECT:
        return p
    return (p[0], p[1], 0.0, 0.0)


def _chart_from_header(tag, spin, nx, ny, params) -> GridChart:
    kind = _TAG_DOMAINS.get(tag)
    if kind is None:
        raise FormatError(f"unknown domain tag {tag}")
    if spin not in _TAG_SPINS or (_TAG_SPINS[spin] is None) == (kind == TORUS):
        raise FormatError(f"spin structure tag {spin:#04x} is invalid on {kind} charts")
    if kind == TORUS:
        return GridChart.torus(nx, ny, params[0], params[1], spin_structure=_TAG_SPINS[spin])
    if kind == DISK:
        return GridChart.disk(nx, params[0])
    if kind == RECT:
        return GridChart.rect(nx, ny, params)
    if kind == SPHERE:
        return GridChart.sphere(nx, params[0])
    return GridChart.cylinder(ny, nx, params[0], params[1])


def _header(chart: GridChart, n: int) -> bytes:
    return _HEADER.pack(MAGIC, ord("L"), _DOMAIN_TAGS[chart.kind],
                        _SPIN_TAGS[chart.spin_structure],
                        chart.nx, chart.ny, n, 0, *_chart_params(chart))


def write_field(path, psi: SpinorField) -> None:
    payload = np.ascontiguousarray(psi.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(_header(psi.chart, psi.n))
        fh.write(payload)


def read_field(path) -> SpinorField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError("field file truncated before the header ends")
    magic, endian, dom, spin, nx, ny, n, _, *params = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}; expected {MAGIC!r}")
    if endian != ord("L"):
        raise FormatError("only little-endian field files are supported")
    if n < 1:
        raise FormatError("component count must be >= 1")
    expected = nx * ny * n * 2 * 16
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise FormatError(
            f"payload is {len(payload)} bytes; header promises {expected}")
    values = np.frombuffer(payload, dtype="<c16").reshape(ny, nx, n, 2)
    try:
        chart = _chart_from_header(dom, spin, nx, ny, tuple(params))
        psi = SpinorField(chart, values.copy()).validate()
    except (ConfigurationError, PreconditionError) as exc:
        raise FormatError(f"invalid field: {exc}") from exc
    if _header(chart, n) != raw[:_HEADER.size]:
        raise FormatError("reserved bytes and unused domain parameters must be zero")
    return psi
