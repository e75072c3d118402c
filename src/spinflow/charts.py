"""Grid charts and sampled spinor fields.

A chart is a uniform grid over one of five flat domains:

* ``torus``    -- ``[0, Lx) x [0, Ly)``, periodic, carries one of the four
  spin structures ``PP | PA | AP | AA`` (P = periodic, A = antiperiodic,
  x-cycle first).  Antiperiodic sections are stored trivialized on the
  fundamental domain; wrap-around sign flips live in the operators, which
  read the structure only through ``GridChart.spin_shifts``.  Distances on
  the torus are minimum-image distances (``GridChart.min_image_offset``).
* ``disk``     -- nodes of a square grid with ``|x| <= R``; the active set
  splits into inside nodes (the active set eroded by one cross step) and a
  closed ring of boundary nodes.
* ``rect``     -- a rectangle, endpoints included, no periodicity.
* ``sphere``   -- stereographic-plane square ``[-extent, extent]^2``; the
  quadrature weight carries the round conformal factor ``(2/(1+|x|^2))^2``.
* ``cylinder`` -- ``[t0, t1] x [0, 2pi)``, periodic in the angle only.

``GridChart.cells`` marks the full cells, those whose four corner nodes are
all active; the disk solve, the plaquette check and the surface mesh are
built on them.

Arrays are indexed ``[iy, ix]`` (row = y).  Spinor values have shape
``(ny, nx, n, 2)`` complex128: node-major, then the n target components,
then the 2-spinor slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import ndimage

from .errors import ConfigurationError, PreconditionError

TORUS = "torus"
DISK = "disk"
RECT = "rect"
SPHERE = "sphere"
CYLINDER = "cylinder"

OUTSIDE, INSIDE, BOUNDARY = 0, 1, 2

SPIN_STRUCTURES = ("PP", "PA", "AP", "AA")


def _validate_counts(nx, ny):
    if nx < 8 or ny < 8 or nx * ny < 64:
        raise ConfigurationError(
            f"grid too coarse: nx={nx}, ny={ny} (need nx,ny >= 8 and nx*ny >= 64)")


@dataclass(frozen=True)
class GridChart:
    kind: str
    nx: int
    ny: int
    hx: float
    hy: float
    xs: np.ndarray = field(repr=False, compare=False)
    ys: np.ndarray = field(repr=False, compare=False)
    params: tuple
    spin_structure: str | None = None

    # ---- constructors -------------------------------------------------

    @staticmethod
    def torus(nx: int, ny: int | None = None, period_x: float = 1.0,
              period_y: float | None = None, spin_structure: str = "AA") -> "GridChart":
        ny = nx if ny is None else ny
        period_y = period_x if period_y is None else period_y
        _validate_counts(nx, ny)
        if spin_structure not in SPIN_STRUCTURES:
            raise ConfigurationError(f"unknown spin structure {spin_structure!r}")
        if not (0 < period_x < np.inf and 0 < period_y < np.inf):
            raise ConfigurationError("torus periods must be positive and finite")
        hx, hy = period_x / nx, period_y / ny
        xs = np.arange(nx) * hx
        ys = np.arange(ny) * hy
        return GridChart(TORUS, nx, ny, hx, hy, xs, ys,
                         (period_x, period_y), spin_structure)

    @staticmethod
    def disk(nx: int, radius: float = 1.0) -> "GridChart":
        _validate_counts(nx, nx)
        # the mask squares the corner coordinates: 2 R^2 must stay finite
        if not (radius > 0 and 2.0 * float(radius) * float(radius) < np.inf):
            raise ConfigurationError("disk radius must be positive and finite")
        h = 2.0 * radius / (nx - 1)
        xs = -radius + np.arange(nx) * h
        return GridChart(DISK, nx, nx, h, h, xs, xs.copy(), (radius,))

    @staticmethod
    def rect(nx: int, ny: int | None = None,
             bounds: tuple = (0.0, 1.0, 0.0, 1.0)) -> "GridChart":
        ny = nx if ny is None else ny
        _validate_counts(nx, ny)
        x0, x1, y0, y1 = map(float, bounds)
        if not (0 < x1 - x0 < np.inf and 0 < y1 - y0 < np.inf):
            raise ConfigurationError("rect bounds must be finite and increasing")
        hx = (x1 - x0) / (nx - 1)
        hy = (y1 - y0) / (ny - 1)
        xs = x0 + np.arange(nx) * hx
        ys = y0 + np.arange(ny) * hy
        return GridChart(RECT, nx, ny, hx, hy, xs, ys, (x0, x1, y0, y1))

    @staticmethod
    def sphere(nx: int, extent: float = 2.0) -> "GridChart":
        _validate_counts(nx, nx)
        if not (extent > 0 and 2.0 * float(extent) * float(extent) < np.inf):
            raise ConfigurationError("sphere chart extent must be positive and finite")
        h = 2.0 * extent / (nx - 1)
        xs = -extent + np.arange(nx) * h
        return GridChart(SPHERE, nx, nx, h, h, xs, xs.copy(), (extent,))

    @staticmethod
    def cylinder(nt: int, ntheta: int, t0: float, t1: float) -> "GridChart":
        _validate_counts(ntheta, nt)
        if not 0 < t1 - t0 < np.inf:
            raise ConfigurationError("cylinder needs finite t0 < t1")
        ht = (t1 - t0) / (nt - 1)
        htheta = 2.0 * np.pi / ntheta
        xs = np.arange(ntheta) * htheta        # angle axis, periodic
        ys = t0 + np.arange(nt) * ht           # axial coordinate
        return GridChart(CYLINDER, ntheta, nt, htheta, ht, xs, ys, (t0, t1))

    # ---- basic geometry ------------------------------------------------

    def __post_init__(self):
        if (self.spin_structure is not None) != (self.kind == TORUS):
            raise ConfigurationError("spin structure is defined exactly on torus charts")

    @property
    def h(self) -> float:
        """Cell size; for the cylinder the axial spacing."""
        return self.hy if self.kind == CYLINDER else self.hx

    @property
    def periodic_x(self) -> bool:
        return self.kind in (TORUS, CYLINDER)

    @property
    def periodic_y(self) -> bool:
        return self.kind == TORUS

    @property
    def period_x(self) -> float:
        if self.kind == TORUS:
            return self.params[0]
        if self.kind == CYLINDER:
            return 2.0 * np.pi
        raise ConfigurationError("chart has no x period")

    @property
    def period_y(self) -> float:
        if self.kind != TORUS:
            raise ConfigurationError("chart has no y period")
        return self.params[1]

    @property
    def spin_shifts(self) -> tuple:
        """Frequency shifts (sx, sy) in {0, 1/2} of the spin structure.

        An antiperiodic cycle ("A") shifts its frequencies by 1/2, so a section
        picks up the sign exp(2 pi i s) = -1 when wrapping once around it.
        Charts without a spin structure get (0, 0).
        """
        return tuple(0.5 if c == "A" else 0.0 for c in self.spin_structure or "PP")

    def grid(self):
        """Meshgrid coordinates with shape (ny, nx)."""
        return np.meshgrid(self.xs, self.ys)

    def min_image_offset(self, cx: float, cy: float):
        """Offsets (dx, dy) of every node from the point (cx, cy), shape (ny, nx).

        On the torus each offset is the minimum image, in [-L/2, L/2); other
        charts return the plain coordinate differences.
        """
        X, Y = self.grid()
        dx, dy = X - cx, Y - cy
        if self.kind == TORUS:
            Lx, Ly = self.params
            dx = (dx + 0.5 * Lx) % Lx - 0.5 * Lx
            dy = (dy + 0.5 * Ly) % Ly - 0.5 * Ly
        return dx, dy

    @cached_property
    def mask(self) -> np.ndarray:
        m = np.full((self.ny, self.nx), INSIDE, dtype=np.uint8)
        if self.kind == DISK:
            radius = self.params[0]
            X, Y = self.grid()
            active = X * X + Y * Y <= radius * radius * (1.0 + 1e-12)
            m[:] = OUTSIDE
            m[active] = BOUNDARY
            m[ndimage.binary_erosion(active)] = INSIDE
        return m

    @cached_property
    def active(self) -> np.ndarray:
        return self.mask != OUTSIDE

    @cached_property
    def inside(self) -> np.ndarray:
        return self.mask == INSIDE

    @cached_property
    def cells(self) -> np.ndarray:
        """Full cells, shape (ny-1, nx-1): all four corner nodes active."""
        a = self.active
        return a[:-1, :-1] & a[:-1, 1:] & a[1:, :-1] & a[1:, 1:]

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature weights per node.

        Midpoint rule (weight hx*hy) on periodic axes; trapezoid (half weight
        at the two end rows/columns) on non-periodic axes; on the disk the
        boundary ring gets half weight.  Sphere charts additionally carry the
        stereographic area factor (2/(1+|x|^2))^2.
        """
        w = np.full((self.ny, self.nx), self.hx * self.hy)
        if self.kind in (RECT, SPHERE):
            w[0, :] *= 0.5
            w[-1, :] *= 0.5
            w[:, 0] *= 0.5
            w[:, -1] *= 0.5
        elif self.kind == CYLINDER:
            w[0, :] *= 0.5
            w[-1, :] *= 0.5
        elif self.kind == DISK:
            w[self.mask == BOUNDARY] *= 0.5
            w[self.mask == OUTSIDE] = 0.0
        if self.kind == SPHERE:
            X, Y = self.grid()
            rho = 2.0 / (1.0 + X * X + Y * Y)
            w *= rho * rho
        return w

    @cached_property
    def boundary_nodes(self) -> np.ndarray:
        """Disk boundary node indices (iy, ix), ordered by angle.

        The angular order makes the ring a closed discrete curve; ties cannot
        occur on a centered grid.
        """
        if self.kind != DISK:
            raise ConfigurationError("boundary ring is defined on disk charts only")
        jj, ii = np.nonzero(self.mask == BOUNDARY)
        ang = np.arctan2(self.ys[jj], self.xs[ii])
        order = np.lexsort((ii, jj, ang))
        return np.stack([jj[order], ii[order]], axis=1)

    @cached_property
    def boundary_coords(self) -> np.ndarray:
        nodes = self.boundary_nodes
        return np.stack([self.xs[nodes[:, 1]], self.ys[nodes[:, 0]]], axis=1)

    def signature(self) -> tuple:
        return (self.kind, self.nx, self.ny, self.params, self.spin_structure)

    def __eq__(self, other):
        return isinstance(other, GridChart) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())


@dataclass
class SpinorField:
    """Sampled n-component spinor: 2n complex values per active node."""

    chart: GridChart
    values: np.ndarray          # (ny, nx, n, 2) complex128
    tag: str = ""

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.ndim != 4 or v.shape[:2] != (self.chart.ny, self.chart.nx) or v.shape[3] != 2:
            raise ConfigurationError(
                f"spinor values must have shape (ny, nx, n, 2); got {v.shape}")
        if v.shape[2] < 1:
            raise ConfigurationError("component count n must be >= 1")
        self.values = v

    @property
    def n(self) -> int:
        return self.values.shape[2]

    def validate(self):
        if not np.all(np.isfinite(self.values[self.chart.active])):
            raise PreconditionError(f"field {self.tag!r} contains non-finite values")
        out = ~self.chart.active
        if np.any(out) and np.any(self.values[out] != 0):
            raise PreconditionError(f"field {self.tag!r} has data on outside nodes")
        return self

    @staticmethod
    def zeros(chart: GridChart, n: int = 1, tag: str = "") -> "SpinorField":
        return SpinorField(chart, np.zeros((chart.ny, chart.nx, n, 2), np.complex128), tag)

    @staticmethod
    def from_components(chart: GridChart, components, tag: str = "") -> "SpinorField":
        """Build a field from callables or arrays.

        ``components`` is a sequence of (f1, f2) pairs, one pair per target
        component; each entry is either an (ny, nx) array or a callable
        ``f(X, Y) -> array`` evaluated on the chart grid.  Outside-disk nodes
        are zeroed.
        """
        X, Y = chart.grid()
        n = len(components)
        v = np.zeros((chart.ny, chart.nx, n, 2), np.complex128)
        for i, pair in enumerate(components):
            for s, comp in enumerate(pair):
                arr = comp(X, Y) if callable(comp) else comp
                v[:, :, i, s] = np.asarray(arr, dtype=np.complex128)
        v[~chart.active] = 0.0
        return SpinorField(chart, v, tag)

    def copy(self, tag: str | None = None) -> "SpinorField":
        return SpinorField(self.chart, self.values.copy(),
                           self.tag if tag is None else tag)

    def zero_outside(self) -> "SpinorField":
        self.values[~self.chart.active] = 0.0
        return self

    # Arithmetic is pointwise and chart-checked; scalar multiply only.
    def _check(self, other):
        if self.chart != other.chart:
            raise ConfigurationError("spinor fields live on different charts")
        if self.n != other.n:
            raise ConfigurationError("spinor fields have different component counts")

    def __add__(self, other):
        self._check(other)
        return SpinorField(self.chart, self.values + other.values, self.tag)

    def __sub__(self, other):
        self._check(other)
        return SpinorField(self.chart, self.values - other.values, self.tag)

    def __mul__(self, c):
        return SpinorField(self.chart, self.values * c, self.tag)

    __rmul__ = __mul__

    def __neg__(self):
        return SpinorField(self.chart, -self.values, self.tag)
