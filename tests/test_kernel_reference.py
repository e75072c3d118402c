"""The single cubic contraction, linear convolution and plane-wave sum against
the implementations they replaced.

Each reference is the earlier code kept verbatim in spirit: the three-operand
einsums of ``GeneralCubic`` for constant and per-node tensors, the per-node
einsum and batched matmul that ``_contract`` used before its two node products,
the pairing and 2x2 block einsums behind ``pairing`` and ``apply_matrix``, the
FFT linear convolution padded to 3n-2, and the per-mode full-grid exponential
loops of both seeded field builders.  Results must agree to 1e-13 of their maximum;
``lp_norm`` must equal its earlier quadrature bit for bit, and so must
``blowup_set`` and ``extract_bubble`` against the loops that called
``local_energy_grid`` once per field, radius and bisection step, ``ScalarH``
against its elementwise formulas, and ``green_convolve`` against the
per-slot ``numpy.fft`` transform products it made before the kernel transforms
were cached.
``charts.erode`` must equal ``scipy.ndimage.binary_erosion`` bit for bit;
``label_clusters`` must group nodes as ``scipy.ndimage.label`` without
wrapping and, across the torus seams, as ``ndimage.label`` followed by the
``connected_components`` graph of the seam pairs; ``conformal.sample_field``
must match ``scipy.ndimage.map_coordinates`` (order 3; ``grid-wrap`` on the
section modulated to a periodic function, ``mirror`` on bounded charts) to
1e-12; and a ``newton_refine`` step, whose GMRES runs on the float64 view of
the field, must match the step on stacked [re; im] vectors to 1e-12 with
the same number of matvecs.  ``solve._gmres`` must match
``scipy.sparse.linalg.gmres`` to 1e-12 with the same matvec count and
``info``, and the padded length of the bounded-chart convolutions must be
``scipy.fft.next_fast_len``.
"""

import numpy as np
import pytest
import scipy.fft
import scipy.sparse.linalg
from scipy import ndimage

from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from spinflow._blas import one_blas_thread
from spinflow.blowup import (_min_image_dist2, blowup_set, extract_bubble, label_clusters,
                             local_energy_grid)
from spinflow.charts import DISK, TORUS, GridChart, SpinorField, erode
from spinflow.config import parse_config
from spinflow.conformal import rescale, sample_field
from spinflow.dirac import dirac_apply
from spinflow.fields import (DEFAULT_MODES, bubble_profile_energy, planted_bubble,
                             smoothstep7, torus_mode_field)
from spinflow.green import (_fast_len, _free_kernel_ffts, conv_transform, conv_window,
                            dirac_inverse, green_convolve, kernel_offset_grids,
                            windowed_mode_field)
from spinflow.reactions import ChiralUV, CurvatureCubic, GeneralCubic, ScalarH, _contract
from spinflow.rng import SplitMix64
from spinflow.solve import _gmres, newton_refine, picard_solve, residual
from spinflow.spinors import (PROJ_MINUS, PROJ_PLUS, SIGMA1, SIGMA2, _region_mask,
                              chirality_project, clifford_multiply, component_inners,
                              lp_norm, pairing, pointwise_norm)

from conftest import random_field, zero_outside

SPINS = ("PP", "PA", "AP", "AA")
TORI = [(16, 16), (24, 20), (33, 33)]
BOUNDED = [GridChart.disk(nx) for nx in (17, 33, 65)] + \
    [GridChart.rect(nx, ny) for nx, ny in ((17, 17), (33, 25), (40, 65))]


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= 1e-13 * max(np.abs(b).max(), 1e-300)


# ---------------------------------------------------------------------------
# cubic contraction
# ---------------------------------------------------------------------------

def _ref_contract(t, P, v):
    if t.ndim == 4:
        return np.einsum("ijkl,yxjk,yxls->yxis", t, P, v)
    return np.einsum("yxijkl,yxjk,yxls->yxis", t, P, v)


def _ref_rhs(t, psi):
    return _ref_contract(t, component_inners(psi), psi.values)


def _ref_linearize(t, psi, delta):
    v, d = psi.values, delta.values
    dP = (np.einsum("yxjs,yxks->yxjk", d, np.conj(v))
          + np.einsum("yxjs,yxks->yxjk", v, np.conj(d)))
    return _ref_contract(t, dP, v) + _ref_contract(t, component_inners(psi), d)


@pytest.mark.parametrize("spin", SPINS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("size", TORI, ids=lambda s: f"{s[0]}x{s[1]}")
def test_cubic_contraction(spin, n, size):
    nx, ny = size
    chart = GridChart.torus(nx, ny, spin_structure=spin)
    rng = np.random.default_rng(10 * n + nx)
    psi = random_field(chart, n=n, seed=nx + n)
    delta = random_field(chart, n=n, seed=nx + n + 1)
    tensors = [rng.standard_normal((n,) * 4), rng.standard_normal((ny, nx) + (n,) * 4)]
    for t in tensors:
        spec = GeneralCubic(t)
        _close(spec.rhs(psi).values, _ref_rhs(t, psi))
        _close(spec.linearize(psi, delta).values, _ref_linearize(t, psi, delta))
    curv = CurvatureCubic.constant_curvature(n, 1.3)
    _close(curv.rhs(psi).values, _ref_rhs(curv.tensor, psi))
    _close(curv.linearize(psi, delta).values, _ref_linearize(curv.tensor, psi, delta))


def _ref_two_step_contract(t, P, v):
    return np.einsum("...ijkl,...jk->...il", t, P) @ v


@pytest.mark.parametrize("n,per_node", [(1, False), (2, False), (3, False), (2, True),
                                        (1, True), (3, True)],
                         ids=["n1", "n2", "n3", "n2-per-node", "n1-per-node", "n3-per-node"])
def test_contract_against_einsum_matmul(n, per_node):
    # _contract (two node products, one path for constant and per-node
    # tensors) against the per-node einsum and batched matmul it replaced; P as
    # the pairing matrix, as a general complex matrix, and as a non-contiguous
    # view; v contiguous and strided
    chart = GridChart.torus(24, 20, spin_structure="AA")
    rng = np.random.default_rng(n)
    psi = random_field(chart, n=n, seed=n)
    t = rng.standard_normal(((chart.ny, chart.nx) if per_node else ()) + (n,) * 4)
    general = rng.standard_normal((chart.ny, chart.nx, n, n)) \
        + 1j * rng.standard_normal((chart.ny, chart.nx, n, n))
    wide = np.zeros((chart.ny, chart.nx, n, 4), np.complex128)
    wide[..., ::2] = psi.values
    for v in (psi.values, wide[..., ::2]):
        for P in (component_inners(psi), general, np.swapaxes(general, -1, -2)):
            _close(_contract(t, P, v), _ref_two_step_contract(t, P, v))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairing_against_einsum(n):
    # both argument orders, on contiguous arrays and on strided views
    chart = GridChart.torus(24, 20, spin_structure="PA")
    v = random_field(chart, n=n, seed=n).values
    d = random_field(chart, n=n, seed=n + 10).values
    tall = np.zeros((2 * chart.ny, chart.nx, n, 2), np.complex128)
    tall[::2] = d
    for dd, vv in ((d, v), (tall[::2], v), (d[::-1, ::-1], v[::-1, ::-1])):
        for a, b in ((dd, vv), (vv, dd)):
            _close(pairing(a, b), np.einsum("yxjs,yxks->yxjk", a, np.conj(b)))


@pytest.mark.parametrize("nx", [64, 192])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_swapped_pairing_is_conjugate_transpose(n, nx):
    # GeneralCubic.linearize builds pairing(v, d) as the conjugate transpose
    # of pairing(d, v); the two must agree bit for bit, C- and F-ordered
    chart = GridChart.torus(nx, spin_structure="AA")
    v = random_field(chart, n=n, seed=n).values
    d = random_field(chart, n=n, seed=n + 10).values
    for dd, vv in ((d, v), (np.asfortranarray(d), np.asfortranarray(v))):
        swapped = np.conj(np.swapaxes(pairing(dd, vv), -1, -2))
        assert swapped.tobytes() == pairing(vv, dd).tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_clifford_and_chirality_against_einsum(n):
    # the 2x2 blocks hold only 0, +-1 and +-i, so the node product must equal
    # the block einsum exactly (up to the sign of a zero)
    psi = random_field(GridChart.torus(24, 20, spin_structure="AP"), n=n, seed=5 + n)
    for mat, out in ((SIGMA1, clifford_multiply(1, psi)), (SIGMA2, clifford_multiply(2, psi)),
                     (PROJ_PLUS, chirality_project(+1, psi)),
                     (PROJ_MINUS, chirality_project(-1, psi))):
        assert np.array_equal(out.values, np.einsum("ab,yxnb->yxna", mat, psi.values))


def _ref_scalar_rhs(H, psi):
    v = psi.values
    dens = np.sum(v.real ** 2 + v.imag ** 2, axis=(2, 3))
    return (H * dens)[:, :, None, None] * v


def _ref_scalar_linearize(H, psi, delta):
    v, d = psi.values, delta.values
    dens = np.sum(v.real ** 2 + v.imag ** 2, axis=(2, 3))
    ddens = 2.0 * np.sum(d.real * v.real + d.imag * v.imag, axis=(2, 3))
    return (H * dens)[:, :, None, None] * d + (H * ddens)[:, :, None, None] * v


def _wavy(X, Y):
    return 0.5 + 0.3 * np.sin(3.0 * X) * np.cos(2.0 * Y)


@pytest.mark.parametrize("chart", [GridChart.torus(64, spin_structure="AA"),
                                   GridChart.torus(24, 20, spin_structure="PA"),
                                   GridChart.disk(33)], ids=lambda c: f"{c.kind}{c.nx}x{c.ny}")
@pytest.mark.parametrize("kind", ["number", "array", "callable"])
def test_scalar_h_is_general_cubic(chart, kind):
    # ScalarH is GeneralCubic with the per-node tensor H; it must give the
    # elementwise formulas of H |psi|^2 psi bit for bit
    X, Y = chart.grid()
    H = np.full(X.shape, 0.7) if kind == "number" else _wavy(X, Y)
    spec = ScalarH({"number": 0.7, "array": H, "callable": _wavy}[kind])
    psi = random_field(chart, n=1, seed=chart.nx)
    delta = random_field(chart, n=1, seed=chart.nx + 1)
    assert spec.rhs(psi).values.tobytes() == _ref_scalar_rhs(H, psi).tobytes()
    assert (spec.linearize(psi, delta).values.tobytes()
            == _ref_scalar_linearize(H, psi, delta).tobytes())
    assert spec.coefficient_bound(chart) == float(np.abs(H[chart.active]).max())


# ---------------------------------------------------------------------------
# linear grid convolution
# ---------------------------------------------------------------------------

def _ref_linear_conv_fft(kernel_off, src):
    ny, nx = src.shape
    sy = scipy.fft.next_fast_len(3 * ny - 2)
    sx = scipy.fft.next_fast_len(3 * nx - 2)
    full = scipy.fft.ifft2(scipy.fft.fft2(kernel_off, (sy, sx)) * scipy.fft.fft2(src, (sy, sx)))
    return full[ny - 1:2 * ny - 1, nx - 1:2 * nx - 1]


def _ref_local_energy_bounded(psi, radius):
    chart = psi.chart
    dens = pointwise_norm(psi) ** 4 * chart.weights
    dx = (np.arange(-(chart.nx - 1), chart.nx) * chart.hx)[None, :]
    dy = (np.arange(-(chart.ny - 1), chart.ny) * chart.hy)[:, None]
    stamp = (dx * dx + dy * dy <= radius * radius).astype(float)
    sy = scipy.fft.next_fast_len(3 * chart.ny - 2)
    sx = scipy.fft.next_fast_len(3 * chart.nx - 2)
    full = scipy.fft.irfft2(scipy.fft.rfft2(stamp, (sy, sx))
                            * scipy.fft.rfft2(dens, (sy, sx)), (sy, sx))
    out = full[chart.ny - 1:2 * chart.ny - 1, chart.nx - 1:2 * chart.nx - 1]
    return np.maximum(out, 0.0)


def _ref_green_fft(f):
    # one kernel and one source transform per slot, multiplied kernel first
    chart = f.chart
    ny, nx = chart.ny, chart.nx
    shape = (scipy.fft.next_fast_len(2 * ny - 1), scipy.fft.next_fast_len(2 * nx - 1))
    out = np.zeros_like(f.values)
    for i in range(f.n):
        for slot, kernel in enumerate(kernel_offset_grids(chart)):
            full = np.fft.ifft2(np.fft.fft2(kernel, shape)
                                * np.fft.fft2(f.values[:, :, i, 1 - slot], shape))
            out[:, :, i, slot] = full[ny - 1:2 * ny - 1, nx - 1:2 * nx - 1]
    if chart.kind == DISK:
        out[~chart.active] = 0.0
    return out


def _windowed_pair(chart):
    """Two-component source that vanishes near the chart edge."""
    return SpinorField(chart, np.concatenate(
        [windowed_mode_field(chart, SplitMix64(chart.nx + c)).values for c in (0, 1)],
        axis=2))


@pytest.mark.parametrize("chart", BOUNDED, ids=lambda c: f"{c.kind}{c.nx}x{c.ny}")
def test_linear_convolution(chart):
    src = random_field(chart, n=1, seed=chart.nx).values[:, :, 0, 0]
    grids = kernel_offset_grids(chart)
    for kernel_fft, grid in zip(_free_kernel_ffts(chart), grids):
        spectrum = kernel_fft * conv_transform(chart, src)
        _close(conv_window(chart, spectrum), _ref_linear_conv_fft(grid, src))
    psi = random_field(chart, n=2, seed=chart.ny)
    for radius in (0.05, 0.3):
        _close(local_energy_grid(psi, radius), _ref_local_energy_bounded(psi, radius))


@pytest.mark.parametrize("chart", BOUNDED, ids=lambda c: f"{c.kind}{c.nx}x{c.ny}")
def test_green_fft_bits(chart):
    f = _windowed_pair(chart)
    assert green_convolve(f, "fft").values.tobytes() == _ref_green_fft(f).tobytes()


def test_fast_len_matches_next_fast_len():
    # the padded length of the bounded-chart convolutions
    assert [_fast_len(n) for n in range(1, 4097)] == \
        [scipy.fft.next_fast_len(n) for n in range(1, 4097)]


def test_kernel_transforms_cached_per_chart():
    _free_kernel_ffts.cache_clear()
    for chart in (GridChart.disk(33), GridChart.rect(33, 25)):
        f = _windowed_pair(chart)
        for _ in range(3):
            green_convolve(f)
    info = _free_kernel_ffts.cache_info()
    assert (info.misses, info.hits) == (2, 4)


# ---------------------------------------------------------------------------
# seeded plane-wave sums
# ---------------------------------------------------------------------------

def _ref_torus_mode_field(chart, amplitude, n, seed):
    sx, sy = chart.spin_shifts
    Lx, Ly = chart.params
    X, Y = chart.grid()
    stream = SplitMix64(seed)
    v = np.zeros((chart.ny, chart.nx, n, 2), np.complex128)
    for comp in range(n):
        for s in (0, 1):
            acc = np.zeros_like(X, dtype=np.complex128)
            for (kx, ky) in DEFAULT_MODES:
                c = stream.complex_symmetric()
                acc = acc + c * np.exp(2j * np.pi * ((kx + sx) * X / Lx
                                                     + (ky + sy) * Y / Ly))
            v[:, :, comp, s] = acc
    top = np.abs(v).max()
    if top > 0:
        v *= amplitude / top
    return v


def _ref_windowed_mode_field(chart, stream):
    if chart.kind == DISK:
        radius = chart.params[0]
    else:
        radius = 0.5 * min(chart.xs[-1] - chart.xs[0], chart.ys[-1] - chart.ys[0])
    X, Y = chart.grid()
    cx, cy = 0.5 * (chart.xs[0] + chart.xs[-1]), 0.5 * (chart.ys[0] + chart.ys[-1])
    r = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)
    a, b = 0.45 * radius, 0.7 * radius
    window = smoothstep7((r - a) / (b - a))
    v = np.zeros((chart.ny, chart.nx, 1, 2), np.complex128)
    for s in (0, 1):
        acc = np.zeros_like(X, dtype=np.complex128)
        for kx in range(-3, 4):
            for ky in range(-3, 4):
                c = stream.complex_symmetric()
                acc = acc + c * np.exp(1j * np.pi * (kx * (X - cx) + ky * (Y - cy)) / radius)
        v[:, :, 0, s] = acc * window
    v[~chart.active] = 0.0
    return v


@pytest.mark.parametrize("spin", SPINS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("size", TORI, ids=lambda s: f"{s[0]}x{s[1]}")
def test_torus_mode_field(spin, n, size):
    nx, ny = size
    chart = GridChart.torus(nx, ny, period_x=1.0, period_y=1.7, spin_structure=spin)
    for seed in (0, 7):
        _close(torus_mode_field(chart, 0.4, n, seed).values,
               _ref_torus_mode_field(chart, 0.4, n, seed))


@pytest.mark.parametrize("chart", BOUNDED, ids=lambda c: f"{c.kind}{c.nx}x{c.ny}")
def test_windowed_mode_field(chart):
    for seed in (3, 11):
        _close(windowed_mode_field(chart, SplitMix64(seed)).values,
               _ref_windowed_mode_field(chart, SplitMix64(seed)))


# ---------------------------------------------------------------------------
# spinor L^p norm on the scalar quadrature
# ---------------------------------------------------------------------------

def _ref_lp_norm(psi, p, region=None):
    mask = _region_mask(psi.chart, region)
    mags = pointwise_norm(psi)
    if np.isinf(p):
        vals = np.where(mask, mags, 0.0)
        return float(vals.max()) if vals.size else 0.0
    dens = mags ** p * psi.chart.weights
    return float(np.sum(np.where(mask, dens, 0.0)) ** (1.0 / p))


@pytest.mark.parametrize("chart", [GridChart.disk(33), GridChart.torus(24, 20, spin_structure="AP")],
                         ids=["disk", "torus"])
@pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, np.inf])
def test_lp_norm_bit_identical(chart, p):
    psi = random_field(chart, n=2, seed=9)
    half = chart.active & (chart.grid()[0] < np.median(chart.xs))
    for region in (None, half):
        assert lp_norm(psi, p, region) == _ref_lp_norm(psi, p, region)


# ---------------------------------------------------------------------------
# local energies with one density transform per tail member
# ---------------------------------------------------------------------------

def _ref_merge_across_seams(labels, count):
    """Torus clusters from ``ndimage.label``'s: the labels that touch across a
    seam (8-neighbours) merge through a sparse graph of the seam pairs."""
    seams = [(labels[0], np.roll(labels[-1], d)) for d in (-1, 0, 1)]
    seams += [(labels[:, 0], np.roll(labels[:, -1], d)) for d in (-1, 0, 1)]
    a = np.concatenate([s[0] for s in seams])
    b = np.concatenate([s[1] for s in seams])
    touch = (a > 0) & (b > 0)
    graph = coo_matrix((np.ones(int(touch.sum())), (a[touch], b[touch])),
                       shape=(count + 1, count + 1))
    _, component = connected_components(graph, directed=False)
    return np.where(labels > 0, component[labels] + 1, 0)


def _ref_blowup_nodes(seq, eps, radii):
    """``blowup_set`` with one ``local_energy_grid`` call per field and radius."""
    chart = seq[0].chart
    tail = seq[len(seq) // 2:]
    envelope = np.full((chart.ny, chart.nx), np.inf)
    qualifies = chart.active.copy()
    for r in radii:
        env_r = np.min([local_energy_grid(f, r) for f in tail], axis=0)
        qualifies &= env_r >= eps
        envelope = np.minimum(envelope, env_r)
    labels, count = ndimage.label(qualifies, structure=np.ones((3, 3), dtype=int))
    if chart.kind == TORUS:
        labels = _ref_merge_across_seams(labels, count)
    out = []
    for lab in np.unique(labels[labels > 0]):
        nodes = np.argwhere(labels == lab)
        vals = envelope[nodes[:, 0], nodes[:, 1]]
        plateau = nodes[vals >= vals.max() * (1.0 - 1e-12)]
        # the plateau node nearest its centroid, offsets taken (min-image)
        # from its first node; a tie goes to the first in C order
        j0, i0 = plateau[0]
        dx, dy = chart.min_image_offset(chart.xs[i0], chart.ys[j0])
        offs = np.array([(dx[0, i], dy[j, 0]) for j, i in plateau])
        cx, cy = offs[:, 0].mean(), offs[:, 1].mean()
        j, i = plateau[np.argmin([(x - cx) ** 2 + (y - cy) ** 2 for x, y in offs])]
        out.append(((int(j), int(i)), float(envelope[j, i])))
    return sorted(out)


def _ref_extract(seq, point, eps, search_radius):
    """``extract_bubble``'s bisection with one ``local_energy_grid`` call per step."""
    chart = seq[0].chart
    window = _min_image_dist2(chart, *point.location) <= search_radius ** 2
    window &= chart.active
    lambdas, centers = [], []
    for f in seq[len(seq) // 2:]:
        def peak(lam):
            grid = np.where(window, local_energy_grid(f, lam), -np.inf)
            k = int(np.argmax(grid))
            return grid.flat[k], np.unravel_index(k, grid.shape)

        lo, hi = 2.0 * chart.h, search_radius
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            val, node = peak(mid)
            if abs(val - eps / 2) <= eps / 100 or (hi - lo) <= 1e-3 * chart.h:
                break
            lo, hi = (mid, hi) if val < eps / 2 else (lo, mid)
        lambdas.append(float(0.5 * (lo + hi)))
        centers.append((float(chart.xs[node[1]]), float(chart.ys[node[0]])))
    return lambdas, centers


def _bubble_sequence(chart, center, lam0, ratio):
    amp = (1.1 / bubble_profile_energy(1.0)) ** 0.25
    return [zero_outside(SpinorField(chart, planted_bubble(chart, center, lam0 * ratio ** m,
                                                           amp))) for m in range(8)]


@pytest.mark.parametrize("chart, center, lam0, ratio, radii", [
    (GridChart.torus(128, spin_structure="PP"), (0.75, 0.75), 0.2, 0.78, (0.12, 0.1, 0.08)),
    (GridChart.disk(97), (0.1, -0.05), 0.3, 0.88, (0.3, 0.25)),
], ids=["torus", "disk"])
def test_hoisted_local_energies(chart, center, lam0, ratio, radii):
    seq = _bubble_sequence(chart, center, lam0, ratio)
    points = blowup_set(seq, 1.0, radii)
    assert [(p.node, p.liminf_energy) for p in points] == _ref_blowup_nodes(seq, 1.0, radii)
    assert len(points) == 1
    ext = extract_bubble(seq, points[0], 1.0, search_radius=0.2)
    assert (ext.lambdas, ext.centers) == _ref_extract(seq, points[0], 1.0, 0.2)
    limit = rescale(seq[-1], ext.centers[-1], ext.lambdas[-1], ext.limit.chart)
    assert ext.limit.values.tobytes() == limit.values.tobytes()


def _same_grouping(a, b):
    """Whether two label grids split the same nodes into the same clusters."""
    on = a > 0
    if not np.array_equal(on, b > 0):
        return False
    pairs = np.unique(np.stack([a[on], b[on]]), axis=1)
    return pairs.shape[1] == np.unique(a[on]).size == np.unique(b[on]).size


def _diagonal_path(ny, nx, steps):
    """A diagonal path (k mod ny, k mod nx) that wraps both seams; its in-grid
    pieces touch only diagonally across a seam, and their C-order labels do
    not follow the path, so merging takes several rounds."""
    mask = np.zeros((ny, nx), bool)
    k = np.arange(steps)
    mask[k % ny, k % nx] = True
    return mask


def _diagonal_contacts(ny, nx):
    """Single nodes that touch only diagonally: across the bottom seam, across
    the right seam, and across the corner."""
    mask = np.zeros((ny, nx), bool)
    for j, i in ((0, 3), (ny - 1, 4), (3, 0), (4, nx - 1), (0, 0), (ny - 1, nx - 1)):
        mask[j, i] = True
    return mask


@pytest.mark.parametrize("shape", [(16, 16), (13, 21), (2, 7), (1, 9), (9, 1)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("density", [0.2, 0.35, 0.5])
def test_seam_merge_matches_connected_components(shape, density):
    rng = np.random.default_rng([*shape, round(100 * density)])
    for _ in range(20):
        mask = rng.random(shape) < density
        labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
        assert _same_grouping(label_clusters(mask, True),
                              _ref_merge_across_seams(labels, count))
        assert _same_grouping(label_clusters(mask, False), labels)


@pytest.mark.parametrize("mask, clusters", [
    (_diagonal_contacts(9, 11), 3),
    (_diagonal_path(10, 25, 48), 1),
    (_diagonal_path(25, 10, 48), 1),
], ids=["diagonal", "path-10x25", "path-25x10"])
def test_seam_merge_chains(mask, clusters):
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    merged = label_clusters(mask, True)
    assert count >= 4
    assert np.unique(merged[merged > 0]).size == clusters
    assert _same_grouping(merged, _ref_merge_across_seams(labels, count))


def _serpentine(ny, nx):
    """Every other row, joined at alternate ends into one path, whose C-order
    numbering runs against the path on every second row."""
    mask = np.zeros((ny, nx), bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


@pytest.mark.parametrize("shape", [(9, 9), (64, 33), (200, 7)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_labeller_serpentine(shape):
    mask = _serpentine(*shape)
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    assert count == 1
    for wrap in (False, True):
        got = label_clusters(mask, wrap)
        assert _same_grouping(got, labels)
        assert np.unique(got[got > 0]).size == 1


# ---------------------------------------------------------------------------
# bicubic resampling
# ---------------------------------------------------------------------------

def _ref_sample_field(psi, X, Y):
    """``sample_field`` through ``scipy.ndimage.map_coordinates``: on tori the
    section is modulated to a periodic function before the spline and
    demodulated at the sample points."""
    chart = psi.chart
    ix = (X - chart.xs[0]) / chart.hx
    iy = (Y - chart.ys[0]) / chart.hy
    values, mode = psi.values, "grid-wrap"
    if chart.kind == TORUS:
        (sx, sy), (Lx, Ly) = chart.spin_shifts, chart.params
        Xg, Yg = chart.grid()
        values = values * np.exp(-2j * np.pi * (sx * Xg / Lx + sy * Yg / Ly))[:, :, None, None]
    else:
        ix = np.clip(ix, 0.0, chart.nx - 1)
        iy = np.clip(iy, 0.0, chart.ny - 1)
        mode = "mirror"
    out = np.empty(X.shape + (psi.n, 2), np.complex128)
    for i in range(psi.n):
        for s in (0, 1):
            out[..., i, s] = ndimage.map_coordinates(values[:, :, i, s], np.stack([iy, ix]),
                                                     order=3, mode=mode)
    if chart.kind == TORUS:
        out *= np.exp(2j * np.pi * (sx * X / Lx + sy * Y / Ly))[..., None, None]
    return out


@pytest.mark.parametrize("chart", [
    *(GridChart.torus(nx, ny, 1.0, 1.3, spin) for spin in SPINS
      for nx, ny in ((33, 33), (24, 20), (64, 65))),
    *(GridChart.disk(nx, 0.8) for nx in (33, 65)),
    *(GridChart.rect(nx, ny, (-1.0, 0.5, -0.3, 0.9)) for nx, ny in ((17, 17), (40, 65))),
], ids=lambda c: f"{c.kind}-{c.spin_structure or ''}{c.nx}x{c.ny}")
def test_sample_field_matches_map_coordinates(chart):
    rng = np.random.default_rng([chart.nx, chart.ny])
    psi = random_field(chart, n=2, seed=chart.nx)
    if chart.kind == TORUS:     # several periods, both signs: every seam is crossed
        X, Y = (rng.uniform(-2.0, 3.0, (40, 9)) for _ in range(2))
    else:                       # the whole grid, corners and edge nodes included
        X = rng.uniform(chart.xs[0], chart.xs[-1], (40, 9))
        Y = rng.uniform(chart.ys[0], chart.ys[-1], (40, 9))
        X[0, :4] = chart.xs[[0, 0, -1, -1]]
        Y[0, :4] = chart.ys[[0, -1, 0, -1]]
    got, want = sample_field(psi, X, Y), _ref_sample_field(psi, X, Y)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# mask erosion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(17, 23), (8, 8), (1, 9), (9, 1), (1, 1)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("density", [0.5, 0.85, 1.0])
def test_erode_matches_ndimage(shape, density):
    # dense masks touch the array edge on every side; density 1 is all True
    rng = np.random.default_rng([*shape, round(100 * density)])
    for _ in range(25):
        mask = rng.random(shape) < density
        for got, want in [
                (erode(mask), ndimage.binary_erosion(mask)),
                (erode(erode(mask)), ndimage.binary_erosion(mask, iterations=2)),
                (erode(mask, full=True), ndimage.binary_erosion(mask, np.ones((3, 3)))),
                (erode(erode(mask, full=True), full=True),
                 ndimage.binary_erosion(mask, np.ones((3, 3)), iterations=2))]:
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("nx, radius", [(17, 1.0), (33, 0.73), (65, 1.0)])
def test_disk_masks_match_ndimage(nx, radius):
    # the inside nodes, and the interior that mean_curvature keeps
    chart = GridChart.disk(nx, radius)
    act = chart.active
    assert np.array_equal(chart.inside, ndimage.binary_erosion(act))
    assert np.array_equal(erode(act, full=True), ndimage.binary_erosion(act, np.ones((3, 3))))


# ---------------------------------------------------------------------------
# Newton's GMRES vectors
# ---------------------------------------------------------------------------

def _real_flatten(values: np.ndarray) -> np.ndarray:
    return np.stack([values.real, values.imag]).ravel()


def _real_unflatten(vec: np.ndarray, shape) -> np.ndarray:
    half = vec.size // 2
    return vec[:half].reshape(shape) + 1j * vec[half:].reshape(shape)


class _CountingSpec:
    """A reaction that counts its ``linearize`` calls: one per GMRES matvec."""

    def __init__(self, spec):
        self.spec, self.calls = spec, 0

    def rhs(self, psi):
        return self.spec.rhs(psi)

    def linearize(self, psi, delta):
        self.calls += 1
        return self.spec.linearize(psi, delta)


def _ref_newton_step(spec, psi, forcing, tol):
    """One ``newton_refine`` step with GMRES on stacked [re; im] vectors."""
    chart, shape = psi.chart, psi.values.shape
    inverse = dirac_inverse(chart)
    res_field, rnorm = residual(spec, psi, forcing, mode="spectral")

    def matvec(vec):
        lin = spec.linearize(psi, SpinorField(chart, _real_unflatten(vec, shape)))
        return vec - _real_flatten(inverse(lin).values)

    op = scipy.sparse.linalg.LinearOperator(
        (2 * np.prod(shape), 2 * np.prod(shape)), matvec=matvec, dtype=float)
    with one_blas_thread():
        sol, info = scipy.sparse.linalg.gmres(
            op, -_real_flatten(inverse(res_field).values), atol=0.0, restart=40,
            maxiter=50, rtol=min(0.1, max(1e-10, 0.1 * tol / rnorm)))
    assert info == 0
    return SpinorField(chart, psi.values + _real_unflatten(sol, shape))


@pytest.mark.parametrize("spec, n", [
    (ScalarH(1.0), 1),
    (parse_config("reaction.type = general_cubic\nreaction.h = 1.0\n").build_reaction(), 2),
    (ChiralUV("sl2", h=0.7), 1),
], ids=["scalar_h", "general_cubic", "chiral_sl2"])
def test_newton_step_on_float64_view(spec, n):
    chart = GridChart.torus(64, spin_structure="AA")
    target = torus_mode_field(chart, 0.35, n, 11)
    forcing = dirac_apply(target, "spectral") - spec.rhs(target)
    start, _ = picard_solve(spec, SpinorField.zeros(chart, n), forcing=forcing, tol=1e-7)
    ref_spec, new_spec = _CountingSpec(spec), _CountingSpec(spec)
    want = _ref_newton_step(ref_spec, start, forcing, 1e-10)
    got, rep = newton_refine(new_spec, start, forcing=forcing, tol=1e-10, max_steps=1)
    assert rep.steps == 1 and new_spec.calls == ref_spec.calls > 0
    assert np.abs(got.values - want.values).max() <= 1e-12 * np.abs(want.values).max()


def _counted_gmres(A, b, rtol):
    """(x, info, matvecs) of ``_gmres`` and of scipy's ``gmres`` with the same
    restart, cycle limit and tolerance rule."""
    counts = [0, 0]

    def matvec(i):
        def apply(vec):
            counts[i] += 1
            return A @ vec
        return apply

    got = _gmres(matvec(0), b, rtol)
    want = scipy.sparse.linalg.gmres(
        scipy.sparse.linalg.LinearOperator(A.shape, matvec=matvec(1), dtype=float), b,
        rtol=rtol, atol=0.0, restart=40, maxiter=50)
    return (*got, counts[0]), (*want, counts[1])


@pytest.mark.parametrize("beta, rtol, cycles_out", [
    (0.3, 1e-10, False), (0.9, 1e-10, False), (0.5, 3e-14, False), (0.95, 1e-14, True)])
def test_gmres_restarts_as_scipy(beta, rtol, cycles_out):
    # a nonsymmetric convection-diffusion matrix that takes several cycles; at
    # the tight tolerances a cycle's rotated residual passes before the true
    # one does, which drives the inner-tolerance update both ways
    n = 300
    A = 2.0 * np.eye(n) - (1 + beta) * np.eye(n, k=-1) - (1 - beta) * np.eye(n, k=1)
    b = np.sin(0.37 * np.arange(n)) + 1.0
    (x, info, calls), (want, want_info, want_calls) = _counted_gmres(A, b, rtol)
    assert info == want_info == (50 if cycles_out else 0) and calls == want_calls > 40
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_gmres_breakdown_as_scipy():
    # I + u v^T: the Krylov space holds the solution after two steps, and at a
    # tolerance near roundoff the breakdown test decides when a cycle ends
    n = 80
    A = np.eye(n) + np.outer(np.cos(np.arange(n)), np.sin(0.5 * np.arange(n))) / n
    b = np.linspace(1.0, 2.0, n)
    (x, info, calls), (want, want_info, want_calls) = _counted_gmres(A, b, 1e-16)
    assert info == want_info == 0 and calls == want_calls
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_gmres_singular_step_as_scipy():
    # the down shift maps the last unit vector to zero: the first step breaks
    # down on a zero Hessenberg diagonal, which the pseudo-solve leaves at x = 0
    A = np.eye(60, k=-1)
    b = np.zeros(60)
    b[-1] = 1.0
    (x, info, calls), (want, want_info, want_calls) = _counted_gmres(A, b, 1e-8)
    assert info == want_info == 50 and calls == want_calls == 2
    assert np.array_equal(x, want) and not x.any()


def test_gmres_zero_rhs_spends_no_matvec():
    def matvec(vec):
        raise AssertionError("matvec on a zero right-hand side")

    x, info = _gmres(matvec, np.zeros(12), 1e-6)
    assert info == 0 and x.shape == (12,) and not x.any()


class _ShiftSpec:
    """rhs 0; ``linearize`` makes I - S0 o Drhs the cyclic shift of the
    float64 view, on which restarted GMRES makes no progress from a unit
    vector."""

    def rhs(self, psi):
        return SpinorField.zeros(psi.chart, psi.n)

    def linearize(self, psi, delta):
        flat = delta.values.view(np.float64).ravel()
        moved = (flat - np.roll(flat, 1)).view(np.complex128).reshape(delta.values.shape)
        return dirac_apply(SpinorField(delta.chart, moved), "spectral")


def test_gmres_exhausts_maxiter_as_scipy():
    A = np.roll(np.eye(60), 1, axis=0)
    b = np.zeros(60)
    b[0] = 1.0
    (x, info, calls), (want, want_info, want_calls) = _counted_gmres(A, b, 1e-8)
    assert info == want_info == 50 and calls == want_calls == 50 * 41
    assert np.array_equal(x, want)
    # the same stagnation, reported by a Newton step
    chart = GridChart.torus(8, spin_structure="AA")
    unit = SpinorField.zeros(chart, 1)
    unit.values[3, 5, 0, 0] = 1.0
    psi = SpinorField.zeros(chart, 1)
    _, rep = newton_refine(_ShiftSpec(), psi, forcing=dirac_apply(unit, "spectral"))
    assert rep.stagnated and rep.steps == 0
    assert rep.reason == "gmres did not converge (info=50) at step 1"
