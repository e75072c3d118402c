"""Blow-up detection, bubble extraction, neck energies, and the energy ledger.

For a sequence of fields, a node belongs to the blow-up set when the lower
envelope of its local energies stays above the threshold for every radius in
the schedule.  The liminf over an infinite sequence is realized as the min
over the last half of the finite sequence; the limit field is the last
element.  Ties anywhere resolve to the lexicographically smallest (iy, ix)
node index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy import ndimage

from .charts import TORUS, GridChart, SpinorField
from .conformal import rescale
from .errors import (ConfigurationError, DegenerateFitError, ExtractionError,
                     PreconditionError)
from .green import gradient_magnitude
from .spinors import energy, pointwise_norm


def _check_same_chart(fields):
    charts = {f.chart.signature() for f in fields}
    if len(charts) != 1:
        raise ConfigurationError("sequence fields live on different charts")


def _min_image_dist2(chart: GridChart, cx: float, cy: float):
    dx, dy = chart.min_image_offset(cx, cy)
    return dx * dx + dy * dy


def local_energy_grid(psi: SpinorField, radius: float) -> np.ndarray:
    """E(psi; B(x, r)) for every node x, via convolution with a disk stamp."""
    chart = psi.chart
    dens = pointwise_norm(psi) ** 4 * chart.weights
    if chart.kind == TORUS:
        d2 = _min_image_dist2(chart, chart.xs[0], chart.ys[0])
        stamp = (d2 <= radius * radius).astype(float)
        out = np.fft.ifft2(np.fft.fft2(dens) * np.fft.fft2(stamp)).real
        return out
    dx = (np.arange(-(chart.nx - 1), chart.nx) * chart.hx)[None, :]
    dy = (np.arange(-(chart.ny - 1), chart.ny) * chart.hy)[:, None]
    stamp = (dx * dx + dy * dy <= radius * radius).astype(float)
    sy = scipy.fft.next_fast_len(3 * chart.ny - 2)
    sx = scipy.fft.next_fast_len(3 * chart.nx - 2)
    full = scipy.fft.irfft2(scipy.fft.rfft2(stamp, (sy, sx))
                            * scipy.fft.rfft2(dens, (sy, sx)), (sy, sx))
    out = full[chart.ny - 1:2 * chart.ny - 1, chart.nx - 1:2 * chart.nx - 1]
    return np.maximum(out, 0.0)


@dataclass(frozen=True)
class BlowupPoint:
    node: tuple                 # (iy, ix)
    location: tuple             # (x, y)
    radius_schedule: tuple
    liminf_energy: float


def _merge_across_seams(labels: np.ndarray, count: int) -> np.ndarray:
    """Relabel torus clusters so that clusters touching across a seam share a
    label: 8-neighbours, so a diagonal step across the seam counts."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    seams = [(labels[0], np.roll(labels[-1], d)) for d in (-1, 0, 1)]
    seams += [(labels[:, 0], np.roll(labels[:, -1], d)) for d in (-1, 0, 1)]
    a = np.concatenate([s[0] for s in seams])
    b = np.concatenate([s[1] for s in seams])
    touch = (a > 0) & (b > 0)
    graph = coo_matrix((np.ones(int(touch.sum())), (a[touch], b[touch])),
                       shape=(count + 1, count + 1))
    _, component = connected_components(graph, directed=False)
    return np.where(labels > 0, component[labels] + 1, 0)


def _tail(sequence):
    return sequence[len(sequence) // 2:]


def blowup_set(sequence, epsilon: float, radii) -> list:
    """Nodes whose tail-min local energy clears epsilon at every radius.

    Qualifying nodes cluster around each concentration point; each connected
    cluster (8-neighbours, wrapping across the seams on the torus) is reported
    once, represented by its strongest node (ties to the smallest node index).
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
    envelope = np.full((chart.ny, chart.nx), np.inf)
    qualifies = chart.active.copy()
    for r in radii:
        env_r = np.min([local_energy_grid(f, r) for f in tail], axis=0)
        qualifies &= env_r >= epsilon
        envelope = np.minimum(envelope, env_r)
    if not qualifies.any():
        return []
    labels, count = ndimage.label(qualifies, structure=np.ones((3, 3), dtype=int))
    if chart.kind == TORUS:
        labels = _merge_across_seams(labels, count)
    points = []
    for lab in np.unique(labels[labels > 0]):
        nodes = np.argwhere(labels == lab)
        vals = envelope[nodes[:, 0], nodes[:, 1]]
        best = nodes[np.argmax(vals)]          # argmax = first max in C order
        j, i = int(best[0]), int(best[1])
        points.append(BlowupPoint((j, i), (float(chart.xs[i]), float(chart.ys[j])),
                                  radii, float(envelope[j, i])))
    points.sort(key=lambda p: p.node)
    return points


@dataclass
class BubbleExtraction:
    lambdas: list
    centers: list               # (x, y) per tail member
    rescaled: list              # fields on the target chart
    limit: SpinorField
    target_chart: GridChart


def extract_bubble(sequence, point: BlowupPoint, epsilon: float,
                   search_radius: float | None = None,
                   target_chart: GridChart | None = None) -> BubbleExtraction:
    """Per tail member: the center maximizing disk energy and the scale at
    which that max equals epsilon/2 (bisection, tolerance epsilon/100), plus
    the rescaled fields and their finite-sequence limit."""
    _check_same_chart(sequence)
    chart = sequence[0].chart
    if search_radius is None:
        if chart.kind == TORUS:
            search_radius = 0.25 * min(chart.params)
        else:
            search_radius = 0.25 * min(chart.xs[-1] - chart.xs[0],
                                       chart.ys[-1] - chart.ys[0])
    if target_chart is None:
        target_chart = GridChart.disk(min(chart.nx, 129) // 2 * 2 + 1, radius=4.0)
    px, py = point.location
    window = _min_image_dist2(chart, px, py) <= search_radius ** 2
    window &= chart.active
    target_half = epsilon / 2.0
    tol = epsilon / 100.0
    lam_lo_base = 2.0 * chart.h

    lambdas, centers, rescaled = [], [], []
    for m, f in enumerate(_tail(sequence)):
        def peak(lam):
            grid = np.where(window, local_energy_grid(f, lam), -np.inf)
            k = int(np.argmax(grid))
            return grid.flat[k], np.unravel_index(k, grid.shape)

        lo, hi = lam_lo_base, search_radius
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
        val, node = e_lo, None
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            val, node = peak(mid)
            if abs(val - target_half) <= tol or (hi - lo) <= 1e-3 * chart.h:
                break
            if val < target_half:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        if node is None:
            raise ExtractionError(
                f"tail member {m}: bisection could not start at lam={lam:.3e}")
        j, i = node
        cx, cy = float(chart.xs[i]), float(chart.ys[j])
        lambdas.append(float(lam))
        centers.append((cx, cy))
        rescaled.append(rescale(f, (cx, cy), lam, target_chart))
    return BubbleExtraction(lambdas, centers, rescaled, rescaled[-1], target_chart)


def neck_energy(psi: SpinorField, center, delta: float, R: float, lam: float) -> float:
    """Energy over the annulus lam R <= |x - center| <= delta."""
    if lam * R >= delta:
        raise PreconditionError("annulus is empty: need lam * R < delta")
    chart = psi.chart
    d2 = _min_image_dist2(chart, center[0], center[1])
    inner, outer = (lam * R) ** 2, delta ** 2
    region = (d2 >= inner) & (d2 <= outer) & chart.active
    if chart.kind != TORUS:
        rmax = min(chart.xs[-1] - center[0], center[0] - chart.xs[0],
                   chart.ys[-1] - center[1], center[1] - chart.ys[0])
        if delta > rmax + 1e-12:
            raise PreconditionError("annulus leaves the chart")
    return energy(psi, region)


@dataclass
class DecayProfile:
    radii: tuple
    values: tuple
    exponent: float
    flagged: bool               # decay too weak for a removable singularity
    threshold: float


def decay_profile(psi: SpinorField, radii, center=(0.0, 0.0),
                  flag_below: float = 0.05) -> DecayProfile:
    """F(r) = int_{B_r} |psi|^4 + |grad psi|^{4/3} and its log-log slope.

    A clearly positive fitted exponent is consistent with a removable
    singularity at the center; an exponent below ``flag_below`` is flagged.
    """
    chart = psi.chart
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 2:
        raise PreconditionError("need at least two radii")
    if min(radii) < 4.0 * chart.h:
        raise PreconditionError("smallest radius must be >= 4 h")
    grad = gradient_magnitude(psi)
    dens = (pointwise_norm(psi) ** 4 + grad ** (4.0 / 3.0)) * chart.weights
    d2 = _min_image_dist2(chart, center[0], center[1])
    values = []
    for r in radii:
        region = (d2 <= r * r) & chart.active
        values.append(float(np.sum(np.where(region, dens, 0.0))))
    if any(v <= 0.0 for v in values):
        raise DegenerateFitError("F(r) vanishes for some radius; log fit undefined")
    slope = float(np.polyfit(np.log(radii), np.log(values), 1)[0])
    return DecayProfile(tuple(radii), tuple(values), slope,
                        slope < flag_below, flag_below)


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
    guard: float                # h0 * sqrt(energy_bound)
    guard_flagged: bool

    def bubble_total(self) -> float:
        return float(sum(b.energy for b in self.bubbles))

    def recompute_defect(self) -> float:
        return self.total_limit - self.background - self.bubble_total()

    def by_point(self) -> dict:
        groups: dict = {}
        for b in self.bubbles:
            groups.setdefault(b.point, []).append(b)
        return groups


def ledger_assemble(sequence, background: SpinorField, bubbles,
                    h0: float = 0.0, guard: float = 0.5) -> EnergyLedger:
    """Assemble the energy identity ledger.

    ``bubbles`` is an iterable of (point, scale, center, field-or-energy).
    The limit of the sequence energies is realized by the last element.  The
    defect is reported as computed; it is never zeroed.
    """
    _check_same_chart(sequence)
    entries = []
    for (point, scale, center, payload) in bubbles:
        e = energy(payload) if isinstance(payload, SpinorField) else float(payload)
        if e < 0:
            raise PreconditionError("bubble energies must be nonnegative")
        entries.append(BubbleEntry(tuple(point), float(scale),
                                   (float(center[0]), float(center[1])), e))
    entries.sort(key=lambda b: b.point)
    total_limit = energy(sequence[-1])
    background_e = energy(background)
    bubble_sum = float(sum(b.energy for b in entries))
    defect = total_limit - background_e - bubble_sum
    bound = max(energy(f) for f in sequence)
    guard_val = h0 * float(np.sqrt(bound))
    return EnergyLedger(total_limit, background_e, tuple(entries), defect,
                        bound, guard_val, guard_val >= guard)
