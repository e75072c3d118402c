import numpy as np
import pytest

from spinflow.charts import GridChart, SpinorField
from spinflow.blowup import (blowup_set, decay_profile, extract_bubble,
                             ledger_assemble, local_energy_grid, neck_energy,
                             _min_image_dist2)
from spinflow.errors import (DegenerateFitError, ExtractionError,
                             PreconditionError)
from spinflow.fields import (bubble_profile_energy, enneper_field,
                             planted_bubble, shell_bubble,
                             shell_profile_energy, smoothstep7)
from spinflow.spinors import energy

from conftest import bubbles_by_point


def make_background(chart, amp=0.25):
    X, Y = chart.grid()
    vals = np.zeros((chart.ny, chart.nx, 1, 2), complex)
    vals[..., 0, 1] = amp * (1.0 + 0.3 * np.cos(2 * np.pi * X)) * np.exp(2j * np.pi * Y)
    return vals


def single_bubble_sequence(chart, center, target_energy=1.1, length=8,
                           lam0=0.2, ratio=0.78):
    """Gaussian-core bubble concentrating at the center over a decreasing
    scale schedule, on top of a smooth opposite-slot background."""
    amp = (target_energy / bubble_profile_energy(1.0)) ** 0.25
    bg = make_background(chart)
    lams = [lam0 * ratio ** m for m in range(length)]
    seq = [SpinorField(chart, bg + planted_bubble(chart, center, lam, amp))
           for lam in lams]
    return seq, lams, SpinorField(chart, bg)


def shell_sequence(chart, center, target_energy=1.1, length=8,
                   lam0=0.17, ratio=0.85):
    """Shell-profile bubble: the quartic mass sits at radius lam, so the
    epsilon/2 capture radius tracks the planted scale."""
    amp = (target_energy / shell_profile_energy(1.0)) ** 0.25
    lams = [lam0 * ratio ** m for m in range(length)]
    seq = [SpinorField(chart, shell_bubble(chart, center, lam, amp))
           for lam in lams]
    return seq, lams


RADII = (0.12, 0.1, 0.08)          # matches the Gaussian schedule
SHELL_RADII = (0.16, 0.14, 0.125)  # covers the shell support 1.4 lam


@pytest.fixture(scope="module")
def torus128():
    return GridChart.torus(128, spin_structure="PP")


class TestBlowupSet:
    def test_low_energy_sequence_empty(self, torus128):
        bg = SpinorField(torus128, make_background(torus128, amp=0.2))
        assert energy(bg) < 0.01
        seq = [bg.copy() for _ in range(6)]
        assert blowup_set(seq, epsilon=0.05, radii=[0.1, 0.08]) == []

    def test_single_point_detected(self, torus128):
        seq, _, _ = single_bubble_sequence(torus128, (0.75, 0.75))
        pts = blowup_set(seq, 1.0, RADII)
        assert len(pts) == 1
        assert max(abs(pts[0].node[0] - 96), abs(pts[0].node[1] - 96)) <= 1
        assert pts[0].liminf_energy >= 1.0

    def test_two_points_not_merged(self, torus128):
        amp = (1.2 / bubble_profile_energy(1.0)) ** 0.25
        bg = make_background(torus128)
        seq = []
        for m in range(8):
            lam = 0.15 * 0.8 ** m
            v = (bg + planted_bubble(torus128, (0.25, 0.25), lam, amp)
                 + planted_bubble(torus128, (0.75, 0.75), lam, amp))
            seq.append(SpinorField(torus128, v))
        pts = blowup_set(seq, 1.0, [0.1, 0.08])
        assert len(pts) == 2
        for p, expect in zip(pts, ((32, 32), (96, 96))):
            assert max(abs(p.node[0] - expect[0]), abs(p.node[1] - expect[1])) <= 1

    def test_tail_permutation_invariance(self, torus128):
        seq, _, _ = single_bubble_sequence(torus128, (0.5, 0.5))
        pts_a = blowup_set(seq, 1.0, [0.12, 0.08])
        shuffled = seq[:4] + [seq[7], seq[5], seq[4], seq[6]]
        pts_b = blowup_set(shuffled, 1.0, [0.12, 0.08])
        assert [(p.node, p.liminf_energy) for p in pts_a] == \
            [(p.node, p.liminf_energy) for p in pts_b]

    @pytest.mark.parametrize("center", [(0.5, 0.5), (0.0, 0.5), (0.5, 0.0), (0.0, 0.0)])
    def test_seam_crossing_cluster_reported_once(self, torus128, center):
        seq, _, _ = single_bubble_sequence(torus128, center)
        pts = blowup_set(seq, 1.0, RADII)
        assert len(pts) == 1
        d2 = _min_image_dist2(torus128, *center)
        assert d2[pts[0].node] <= (2.0 * torus128.h) ** 2

    def test_plateau_node_moves_with_the_roll(self):
        # A flat-top bump well inside every stamp gives a plateau of equal
        # local energies that the FFT perturbs by roundoff; the reported node
        # must follow a roll of the sequence exactly.
        chart = GridChart.torus(64, spin_structure="PP")
        inside = _min_image_dist2(chart, 0.5, 0.5) <= 0.04 ** 2
        seq = []
        for m in range(6):
            v = np.zeros((chart.ny, chart.nx, 1, 2), complex)
            v[inside, 0, 0] = 3.0 * (1.0 + 0.1 * m)
            seq.append(SpinorField(chart, v))
        eps = 0.5 * energy(seq[3])
        radii = (0.2, 0.17)
        [base] = blowup_set(seq, eps, radii)
        for shift in [(dj, di) for dj in range(-6, 7, 2) for di in (-6, -3, 0, 3, 6)]:
            rolled = [SpinorField(chart, np.roll(f.values, shift, axis=(0, 1))) for f in seq]
            [p] = blowup_set(rolled, eps, radii)
            assert p.node == (base.node[0] + shift[0], base.node[1] + shift[1])

    @pytest.mark.parametrize("radii", [(0.3, 0.25), (0.12, 0.1, 0.08)])
    def test_planted_bubble_reported_at_its_centre(self, radii):
        # With radii that cover the whole bubble, every node near the centre
        # ties on the envelope; the reported node is the plateau's middle,
        # not its first node in C order.
        chart = GridChart.disk(65)
        center = (0.1, -0.05)
        seq = [SpinorField(chart, planted_bubble(chart, center, lam, 2.0))
               for lam in np.geomspace(0.2, 0.06, 6)]
        [p] = blowup_set(seq, 0.5, radii)
        assert np.hypot(p.location[0] - center[0], p.location[1] - center[1]) <= chart.h

    def test_local_energy_grid_matches_direct_sum(self, torus128):
        seq, _, _ = single_bubble_sequence(torus128, (0.5, 0.5), length=4)
        psi = seq[-1]
        grid = local_energy_grid(psi, 0.1)
        d2 = _min_image_dist2(torus128, 0.5, 0.5)
        direct = energy(psi, (d2 <= 0.01) & torus128.active)
        j = int(np.argmin(np.abs(torus128.ys - 0.5)))
        i = int(np.argmin(np.abs(torus128.xs - 0.5)))
        assert grid[j, i] == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("chart", [GridChart.disk(65), GridChart.rect(49, 41)],
                             ids=["disk", "rect"])
    def test_local_energy_grid_bounded_matches_direct_sum(self, chart):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal((chart.ny, chart.nx, 1, 2)) + 0j
        vals[~chart.active] = 0.0
        psi = SpinorField(chart, vals)
        radius = 0.23
        grid = local_energy_grid(psi, radius)
        jj, ii = np.mgrid[0:chart.ny, 0:chart.nx]
        nodes = [(chart.ny // 2, chart.nx // 2), (3, chart.nx // 2), (chart.ny // 3, 2)]
        for j, i in nodes:
            ball = ((ii - i) * chart.hx) ** 2 + ((jj - j) * chart.hy) ** 2 <= radius ** 2
            direct = energy(psi, ball & chart.active)
            assert direct > 0
            assert grid[j, i] == pytest.approx(direct, rel=1e-10)


class TestExtractBubble:
    def test_planted_scale_recovery(self, torus128):
        # the shell profile pins the capture radius to the planted scale;
        # its center is recovered only to within the shell radius, since a
        # slightly off-center disk can capture the same mass
        seq, lams = shell_sequence(torus128, (0.75, 0.75))
        pts = blowup_set(seq, 0.8, SHELL_RADII)
        assert len(pts) == 1
        ext = extract_bubble(seq, pts[0], 0.8, search_radius=0.25)
        for rec, planted in zip(ext.lambdas, lams[4:]):
            assert 0.5 <= rec / planted <= 2.0
        for (cx, cy), planted in zip(ext.centers, lams[4:]):
            assert np.hypot(cx - 0.75, cy - 0.75) <= planted

    def test_gaussian_center_recovery(self, torus128):
        seq, _, _ = single_bubble_sequence(torus128, (0.75, 0.75))
        pts = blowup_set(seq, 1.0, RADII)
        ext = extract_bubble(seq, pts[0], 1.0, search_radius=0.2)
        for (cx, cy) in ext.centers:
            assert abs(cx - 0.75) <= 2 * torus128.h
            assert abs(cy - 0.75) <= 2 * torus128.h

    def test_limit_energy_fills_expanding_balls(self, torus128):
        seq, _, _ = single_bubble_sequence(torus128, (0.75, 0.75))
        pts = blowup_set(seq, 1.0, RADII)
        ext = extract_bubble(seq, pts[0], 1.0, search_radius=0.2)
        tc = ext.limit.chart
        d2 = _min_image_dist2(tc, 0.0, 0.0)
        vals = [energy(ext.limit, (d2 <= R * R) & tc.active) for R in (1.0, 2.0, 3.5)]
        assert vals[0] < vals[1] < vals[2]
        assert vals[2] == pytest.approx(1.1, rel=0.02)

    def test_no_concentration_raises(self, torus128):
        bg = SpinorField(torus128, make_background(torus128))
        seq = [bg.copy() for _ in range(6)]
        from spinflow.blowup import BlowupPoint
        fake = BlowupPoint((96, 96), (0.75, 0.75), 1.0)
        with pytest.raises(ExtractionError):
            extract_bubble(seq, fake, 1.0, search_radius=0.2)


class TestNeckEnergy:
    def test_zero_field(self, torus128):
        psi = SpinorField.zeros(torus128, 1)
        assert neck_energy(psi, (0.5, 0.5), 0.2, 2.0, 0.05) == 0.0

    def test_neck_vanishes_for_planted_bubble(self, torus128):
        # the planted profile is cut beyond 1.8 lam, so the annulus
        # [2 lam, delta] carries only background
        seq, lams, bg = single_bubble_sequence(torus128, (0.75, 0.75))
        necks = [neck_energy(seq[m], (0.75, 0.75), 0.16, 2.0, lams[m])
                 for m in (5, 6, 7)]
        bg_only = neck_energy(bg, (0.75, 0.75), 0.16, 2.0, lams[7])
        assert necks[-1] <= bg_only * 1.05
        assert all(n <= 5e-3 for n in necks)
        # shrinking delta with m shrinks the neck further
        tighter = neck_energy(seq[7], (0.75, 0.75), 0.1, 2.0, lams[7])
        assert tighter <= necks[-1]

    def test_annulus_additivity(self, torus128):
        seq, lams, _ = single_bubble_sequence(torus128, (0.75, 0.75), length=4)
        psi = seq[-1]
        c = (0.75, 0.75)
        d2 = _min_image_dist2(torus128, *c)
        r1, r2, r3 = 0.03, 0.07, 0.12
        inner = (d2 >= r1 ** 2) & (d2 <= r2 ** 2) & torus128.active
        outer = (d2 > r2 ** 2) & (d2 <= r3 ** 2) & torus128.active
        total = (d2 >= r1 ** 2) & (d2 <= r3 ** 2) & torus128.active
        assert energy(psi, inner) + energy(psi, outer) == \
            pytest.approx(energy(psi, total), rel=1e-14)

    def test_empty_annulus_rejected(self, torus128):
        psi = SpinorField.zeros(torus128, 1)
        with pytest.raises(PreconditionError):
            neck_energy(psi, (0.5, 0.5), 0.05, 2.0, 0.1)

    @pytest.mark.parametrize("center, delta", [((0.5, 0.5), 0.45), ((0.5, 0.0), 0.55)])
    def test_annulus_leaving_the_disk_rejected(self, center, delta):
        # off the axis the unit disk's rim is nearer than its bounding square:
        # at (0.5, 0.5) it is 1 - sqrt(0.5) ~ 0.293 away, the square 0.5
        chart = GridChart.disk(65)
        psi = SpinorField(chart, np.where(chart.active[..., None, None], 1.0 + 0j,
                                          np.zeros((65, 65, 1, 2), complex)))
        with pytest.raises(PreconditionError, match="annulus leaves the chart"):
            neck_energy(psi, center, delta, 2.0, 0.01)
        assert neck_energy(psi, center, 0.25, 2.0, 0.01) > 0.0


class TestDecayProfile:
    def test_smooth_solution_positive_exponent(self):
        chart = GridChart.disk(129, 1.0)
        psi = enneper_field(chart)
        prof = decay_profile(psi, [0.8, 0.6, 0.45, 0.33, 0.25, 0.18, 0.12])
        assert prof.exponent >= 0.1
        assert not prof.flagged

    def test_concentrated_spike_flagged(self):
        # r^{-1/4} profile supported below the smallest fit radius: F is
        # nearly constant across the window, the grid signature of a
        # non-removable concentration
        chart = GridChart.disk(129, 1.0)
        X, Y = chart.grid()
        r = np.maximum(np.hypot(X, Y), 1e-9)
        spike = 4.0 * r ** -0.25 * smoothstep7(r / 0.05)
        psi = enneper_field(chart)
        vals = psi.values.copy()
        vals[..., 0, 0] += spike
        prof = decay_profile(SpinorField(chart, vals),
                             [0.8, 0.6, 0.45, 0.33, 0.25, 0.18, 0.12])
        assert prof.exponent <= 0.02
        assert prof.flagged

    def test_monotone_values(self):
        chart = GridChart.disk(65, 1.0)
        psi = enneper_field(chart)
        prof = decay_profile(psi, [0.8, 0.5, 0.3, 0.15])
        vals = list(prof.values)       # stored alongside decreasing radii
        assert vals == sorted(vals, reverse=True)

    def test_zero_field_degenerate(self):
        chart = GridChart.disk(65, 1.0)
        with pytest.raises(DegenerateFitError):
            decay_profile(SpinorField.zeros(chart, 1), [0.8, 0.5, 0.3])

    def test_radius_floor(self):
        chart = GridChart.disk(65, 1.0)
        with pytest.raises(PreconditionError):
            decay_profile(enneper_field(chart), [0.5, chart.h])


class TestLedger:
    def test_no_bubbles_strong_convergence(self, torus128):
        bg = SpinorField(torus128, make_background(torus128))
        seq = [bg.copy() for _ in range(6)]
        led = ledger_assemble(seq, bg, [])
        assert led.defect == 0.0
        assert led.bubble_total() == 0.0

    def test_single_planted_bubble(self, torus128):
        seq, lams, bg = single_bubble_sequence(torus128, (0.75, 0.75))
        led = ledger_assemble(seq, bg, [((96, 96), lams[-1], (0.75, 0.75), 1.1)])
        assert abs(led.defect) <= 0.01 * led.total_limit
        assert led.energy_bound == max(energy(f) for f in seq)
        assert led.energies == tuple(energy(f) for f in seq)
        assert led.total_limit == led.energies[-1]

    def test_three_bubbles_two_points_grouping(self, torus128):
        # two bubbles at p1 with disjoint supports (Gaussian core inside a
        # Gaussian ring at radius 3 lam) and one at p2
        from scipy.integrate import quad

        amp_a = (1.3 / bubble_profile_energy(1.0)) ** 0.25
        sigma = 0.25
        ring_val, _ = quad(lambda u: np.exp(-2 * (u - 3.0) ** 2 / sigma ** 2) * u,
                           1.8, 4.2)
        amp_b = (0.5 / (2 * np.pi * ring_val)) ** 0.25
        e_ring = 0.5

        def ring(chart, center, lam, amp):
            X, Y = chart.grid()
            Lx, Ly = chart.params
            dx = (X - center[0] + Lx / 2) % Lx - Lx / 2
            dy = (Y - center[1] + Ly / 2) % Ly - Ly / 2
            u = np.hypot(dx, dy) / lam
            prof = amp / np.sqrt(lam) * np.exp(-(u - 3.0) ** 2 / (2 * sigma ** 2))
            out = np.zeros((chart.ny, chart.nx, 1, 2), complex)
            out[..., 0, 0] = prof
            return out

        amp_c = (1.1 / bubble_profile_energy(1.0)) ** 0.25
        bg = make_background(torus128)
        p1, p2 = (0.25, 0.25), (0.75, 0.75)
        seq = []
        lams = [0.14 * 0.82 ** m for m in range(8)]
        for lam in lams:
            v = (bg + planted_bubble(torus128, p1, lam, amp_a)
                 + ring(torus128, p1, lam, amp_b)
                 + planted_bubble(torus128, p2, lam, amp_c))
            seq.append(SpinorField(torus128, v))
        pts = blowup_set(seq, 0.9, [0.12, 0.1])
        assert len(pts) == 2
        for p, expect in zip(pts, ((32, 32), (96, 96))):
            assert max(abs(p.node[0] - expect[0]), abs(p.node[1] - expect[1])) <= 4
        bubbles = [(pts[0].node, lams[-1], p1, 1.3),
                   (pts[0].node, lams[-1], p1, e_ring),
                   (pts[1].node, lams[-1], p2, 1.1)]
        led = ledger_assemble(seq, SpinorField(torus128, bg), bubbles)
        groups = bubbles_by_point(led)
        assert sorted(len(v) for v in groups.values()) == [1, 2]
        assert abs(led.defect) <= 0.01 * led.total_limit

    def test_defect_recompute_exact(self, torus128):
        seq, lams, bg = single_bubble_sequence(torus128, (0.5, 0.5), length=4)
        led = ledger_assemble(seq, bg, [((64, 64), lams[-1], (0.5, 0.5), 1.1)])
        assert led.total_limit - led.background - led.bubble_total() == led.defect
