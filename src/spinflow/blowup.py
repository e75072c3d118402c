"""Blow-up detection, bubble extraction, neck energies, and the energy ledger.

For a sequence of fields, a node belongs to the blow-up set when the lower
envelope of its local energies stays above the threshold for every radius in
the schedule.  The liminf over an infinite sequence is realized as the min
over the last half of the finite sequence; the limit field is the last
element.  A blow-up point is the node nearest the centroid of its cluster's
top plateau (envelope values that differ only by roundoff tie); other ties
resolve to the lexicographically smallest (iy, ix) node index.

Local energies convolve a field's |psi|^4 density with disk stamps, each
transformed once per tail member, with ``scipy.fft`` on bounded charts only;
clusters are labelled and the bubble limit resampled in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import DISK, TORUS, GridChart, SpinorField
from .conformal import rescale
from .errors import (ConfigurationError, DegenerateFitError, ExtractionError,
                     PreconditionError)
from .green import conv_transform, conv_window, gradient_magnitude, offset_grid
from .spinors import energy, pointwise_norm


def _check_same_chart(fields):
    charts = {f.chart.signature() for f in fields}
    if len(charts) != 1:
        raise ConfigurationError("sequence fields live on different charts")


def _min_image_dist2(chart: GridChart, cx: float, cy: float):
    dx, dy = chart.min_image_offset(cx, cy)
    return dx * dx + dy * dy


def _density_fft(psi: SpinorField) -> np.ndarray:
    return conv_transform(psi.chart, pointwise_norm(psi) ** 4 * psi.chart.weights)


def _stamp_dist2(chart: GridChart) -> np.ndarray:
    """Squared offsets that stamps are cut from: min-image from node (0, 0) on
    the torus, else the ``green.offset_grid`` that ``conv_window`` expects."""
    dx, dy = (chart.min_image_offset(chart.xs[0], chart.ys[0]) if chart.kind == TORUS
              else offset_grid(chart))
    return dx * dx + dy * dy


def _stamp_fft(chart: GridChart, radius: float) -> np.ndarray:
    """``green.conv_transform`` of the indicator of B(0, radius)."""
    return conv_transform(chart, (_stamp_dist2(chart) <= radius * radius).astype(float))


def _disk_energy(chart: GridChart, dens_fft: np.ndarray, stamp_fft: np.ndarray) -> np.ndarray:
    """E(psi; B(x, r)) for every node x from the two transforms.  Each branch
    keeps its operand order, since complex products are not bitwise
    commutative."""
    if chart.kind == TORUS:
        return conv_window(chart, dens_fft * stamp_fft).real
    return np.maximum(conv_window(chart, stamp_fft * dens_fft).real, 0.0)


def local_energy_grid(psi: SpinorField, radius: float) -> np.ndarray:
    """E(psi; B(x, r)) for every node x, via convolution with a disk stamp."""
    return _disk_energy(psi.chart, _density_fft(psi), _stamp_fft(psi.chart, radius))


@dataclass(frozen=True)
class BlowupPoint:
    node: tuple                 # (iy, ix)
    location: tuple             # (x, y)
    liminf_energy: float


def label_clusters(mask: np.ndarray, wrap: bool) -> np.ndarray:
    """8-connected cluster labels of a boolean grid (0 off it), across both
    seams with ``wrap``: min-label propagation with pointer jumping over the
    neighbour pairs.  Numbering need not be consecutive."""
    labels = np.zeros(mask.shape, np.intp)
    labels[mask] = np.arange(1, np.count_nonzero(mask) + 1)
    grid = labels if wrap else np.pad(labels, 1)   # a zero border cuts wrapped pairs
    others = np.stack([np.roll(grid, s, axis=(0, 1)) for s in ((0, 1), (1, -1), (1, 0), (1, 1))])
    touch = (grid > 0) & (others > 0)
    near, far = np.broadcast_to(grid, others.shape)[touch], others[touch]
    a, b = np.r_[near, far], np.r_[far, near]
    root, prev = np.arange(labels.max() + 1), None
    while not np.array_equal(root, prev):
        prev, root = root, root.copy()
        np.minimum.at(root, a, prev[b])
        root = root[root]
    return root[labels]


def _tail(sequence):
    return sequence[len(sequence) // 2:]


def blowup_set(sequence, epsilon: float, radii) -> list:
    """Nodes whose tail-min local energy clears epsilon at every radius.

    Qualifying nodes cluster around each concentration point; each connected
    cluster (8-neighbours, wrapping across the seams on the torus) is reported
    once.  Its top plateau is the nodes whose envelope is within a relative
    1e-12 of the cluster's maximum, and it is represented by the plateau node
    nearest the plateau's centroid (min-image offsets from the plateau's first
    node); a tie goes to the first node in C order, so roundoff picks no node.
    Output is ordered lexicographically by node index.
    """
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    radii = tuple(float(r) for r in radii)
    if not radii or min(radii) <= 0:
        raise PreconditionError("radius schedule must be positive")
    _check_same_chart(sequence)
    chart = sequence[0].chart
    tail = _tail(sequence)
    stamp_ffts = [_stamp_fft(chart, r) for r in radii]
    env = np.full((len(radii), chart.ny, chart.nx), np.inf)
    for dens_fft in map(_density_fft, tail):
        for env_r, stamp_fft in zip(env, stamp_ffts):
            np.minimum(env_r, _disk_energy(chart, dens_fft, stamp_fft), out=env_r)
    qualifies = chart.active & (env >= epsilon).all(axis=0)
    envelope = env.min(axis=0)
    labels = label_clusters(qualifies, chart.kind == TORUS)
    points = []
    for lab in np.unique(labels[labels > 0]):
        nodes = np.argwhere(labels == lab)
        vals = envelope[nodes[:, 0], nodes[:, 1]]
        plateau = nodes[vals >= vals.max() * (1.0 - 1e-12)]
        dx, dy = chart.min_image_offset(chart.xs[plateau[0, 1]], chart.ys[plateau[0, 0]])
        ox, oy = dx[0, plateau[:, 1]], dy[plateau[:, 0], 0]
        d2 = (ox - ox.mean()) ** 2 + (oy - oy.mean()) ** 2
        j, i = (int(k) for k in plateau[np.argmin(d2)])
        points.append(BlowupPoint((j, i), (float(chart.xs[i]), float(chart.ys[j])),
                                  float(envelope[j, i])))
    points.sort(key=lambda p: p.node)
    return points


@dataclass
class BubbleExtraction:
    lambdas: list
    centers: list               # (x, y) per tail member
    limit: SpinorField          # the last tail member, rescaled onto a disk


def extract_bubble(sequence, point: BlowupPoint, epsilon: float,
                   search_radius: float) -> BubbleExtraction:
    """Per tail member: the center within ``search_radius`` of the point that
    maximizes disk energy, and the scale, at most ``search_radius``, at which
    that max equals epsilon/2 (bisection, tolerance epsilon/100), plus
    the finite-sequence limit: the last member rescaled at its center and
    scale onto a radius-4 disk of min(nx, 129) nodes, rounded to odd."""
    _check_same_chart(sequence)
    chart = sequence[0].chart
    window = _min_image_dist2(chart, *point.location) <= search_radius ** 2
    window &= chart.active
    target_half = epsilon / 2.0
    tol = epsilon / 100.0

    tail = _tail(sequence)
    dist2 = _stamp_dist2(chart)
    lambdas, centers = [], []
    for m, f in enumerate(tail):
        dens_fft = _density_fft(f)
        peaks = {}

        def peak(lam):
            # stamps grow with lam, so a stamp's node count identifies it
            stamp = dist2 <= lam * lam
            key = int(np.count_nonzero(stamp))
            if key not in peaks:
                stamp_fft = conv_transform(chart, stamp.astype(float))
                grid = np.where(window, _disk_energy(chart, dens_fft, stamp_fft), -np.inf)
                k = int(np.argmax(grid))
                peaks[key] = grid.flat[k], np.unravel_index(k, grid.shape)
            return peaks[key]

        lo, hi = 2.0 * chart.h, search_radius
        e_lo, _ = peak(lo)
        e_hi, _ = peak(hi)
        if e_hi < target_half:
            raise ExtractionError(
                f"tail member {m}: max local energy {e_hi:.3e} never reaches "
                f"epsilon/2 = {target_half:.3e} within the search radius")
        if e_lo > target_half:
            raise ExtractionError(
                f"tail member {m}: concentration already exceeds epsilon/2 at "
                f"the grid scale (lam = {lo:.3e})")
        # The disk energy is a step function of lam (nodes enter one at a
        # time), so the energy tolerance may be unreachable; the interval
        # collapsing below grid precision is the discrete surrogate.
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            val, node = peak(mid)
            if abs(val - target_half) <= tol or (hi - lo) <= 1e-3 * chart.h:
                break
            if val < target_half:
                lo = mid
            else:
                hi = mid
        j, i = node
        lambdas.append(float(0.5 * (lo + hi)))
        centers.append((float(chart.xs[i]), float(chart.ys[j])))
    target = GridChart.disk(min(chart.nx, 129) // 2 * 2 + 1, radius=4.0)
    return BubbleExtraction(lambdas, centers,
                            rescale(tail[-1], centers[-1], lambdas[-1], target))


def neck_energy(psi: SpinorField, center, delta: float, R: float, lam: float) -> float:
    """Energy over the annulus lam R <= |x - center| <= delta, which must lie
    in the chart: on a disk delta <= radius - |center|, else the nearest edge."""
    if lam * R >= delta:
        raise PreconditionError("annulus is empty: need lam * R < delta")
    chart = psi.chart
    d2 = _min_image_dist2(chart, center[0], center[1])
    inner, outer = (lam * R) ** 2, delta ** 2
    region = (d2 >= inner) & (d2 <= outer) & chart.active
    if chart.kind != TORUS:
        rmax = (chart.params[0] - float(np.hypot(center[0], center[1])) if chart.kind == DISK
                else min(chart.xs[-1] - center[0], center[0] - chart.xs[0],
                         chart.ys[-1] - center[1], center[1] - chart.ys[0]))
        if delta > rmax + 1e-12:
            raise PreconditionError("annulus leaves the chart")
    return energy(psi, region)


# Fitted F(r) exponents below this are too weak for a removable singularity.
DECAY_FLAG_BELOW = 0.05


@dataclass
class DecayProfile:
    radii: tuple
    values: tuple
    exponent: float
    flagged: bool               # decay too weak for a removable singularity


def decay_profile(psi: SpinorField, radii) -> DecayProfile:
    """F(r) = int_{B_r} |psi|^4 + |grad psi|^{4/3} about the origin and its
    log-log slope.

    A clearly positive fitted exponent is consistent with a removable
    singularity at the origin; an exponent below ``DECAY_FLAG_BELOW`` is
    flagged.
    """
    chart = psi.chart
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 2:
        raise PreconditionError("need at least two radii")
    if min(radii) < 4.0 * chart.h:
        raise PreconditionError("smallest radius must be >= 4 h")
    grad = gradient_magnitude(psi)
    dens = (pointwise_norm(psi) ** 4 + grad ** (4.0 / 3.0)) * chart.weights
    d2 = _min_image_dist2(chart, 0.0, 0.0)
    values = []
    for r in radii:
        region = (d2 <= r * r) & chart.active
        values.append(float(np.sum(np.where(region, dens, 0.0))))
    if any(v <= 0.0 for v in values):
        raise DegenerateFitError("F(r) vanishes for some radius; log fit undefined")
    slope = float(np.polyfit(np.log(radii), np.log(values), 1)[0])
    return DecayProfile(tuple(radii), tuple(values), slope, slope < DECAY_FLAG_BELOW)


@dataclass(frozen=True)
class BubbleEntry:
    point: tuple                # blow-up node (iy, ix)
    scale: float
    center: tuple
    energy: float


@dataclass
class EnergyLedger:
    total_limit: float
    background: float
    bubbles: tuple              # BubbleEntry, grouped by point
    defect: float
    energy_bound: float         # max energy over the sequence
    energies: tuple             # energy of each sequence field

    def bubble_total(self) -> float:
        return float(sum(b.energy for b in self.bubbles))


def ledger_assemble(sequence, background: SpinorField, bubbles) -> EnergyLedger:
    """Assemble the energy identity ledger.

    ``bubbles`` is an iterable of (point, scale, center, energy).  The limit
    of the sequence energies is realized by the last element.  The defect is
    reported as computed; it is never zeroed.
    """
    _check_same_chart(sequence)
    entries = []
    for (point, scale, center, e) in bubbles:
        if e < 0:
            raise PreconditionError("bubble energies must be nonnegative")
        entries.append(BubbleEntry(tuple(point), float(scale),
                                   (float(center[0]), float(center[1])), float(e)))
    entries.sort(key=lambda b: b.point)
    energies = tuple(energy(f) for f in sequence)
    background_e = energy(background)
    defect = energies[-1] - background_e - float(sum(b.energy for b in entries))
    return EnergyLedger(energies[-1], background_e, tuple(entries), defect,
                        max(energies), energies)
