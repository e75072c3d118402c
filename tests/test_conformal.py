import numpy as np
import pytest

from spinflow.charts import GridChart, SpinorField
from spinflow.conformal import (cylinder_segment_energy, rescale,
                                sphere_transfer, to_cylinder)
from spinflow.errors import (ConfigurationError, DecayError, OutOfDomainError,
                             PreconditionError)
from spinflow.fields import compact_bump_field, torus_mode_field
from spinflow.spinors import energy


def torus_bump(nx, center=(0.5, 0.5), width=0.1, seed=0):
    chart = GridChart.torus(nx, spin_structure="PP")
    X, Y = chart.grid()
    r2 = (X - center[0]) ** 2 + (Y - center[1]) ** 2
    g = np.exp(-r2 / (2 * width ** 2))
    z = (X - center[0]) + 1j * (Y - center[1])
    return chart, SpinorField.from_components(chart, [(g, 0.35j * g * z / width)])


class TestRescale:
    def test_identity(self):
        chart = GridChart.torus(64, spin_structure="AA")
        psi = torus_mode_field(chart, 0.5, 1, seed=1)
        out = rescale(psi, (0.0, 0.0), 1.0, chart)
        assert np.abs(out.values - psi.values).max() < 1e-12

    def test_energy_preserved_compact_support(self):
        _, psi = torus_bump(128)
        target = GridChart.rect(145, 145, (-2.0, 2.0, -2.0, 2.0))
        out = rescale(psi, (0.5, 0.5), 0.2, target)
        assert energy(out) == pytest.approx(energy(psi), rel=1e-6)

    def test_region_matched_ball_energy(self):
        chart, psi = torus_bump(128, width=0.04)
        lam = 0.15
        target = GridChart.rect(129, 129, (-1.0, 1.0, -1.0, 1.0))
        out = rescale(psi, (0.5, 0.5), lam, target)
        X, Y = target.grid()
        ball_t = (X ** 2 + Y ** 2 <= 1.0) & target.active
        Xs, Ys = chart.grid()
        ball_s = ((Xs - 0.5) ** 2 + (Ys - 0.5) ** 2 <= lam ** 2) & chart.active
        # bump sits well inside lam, so cut-cell effects are negligible
        assert energy(out, ball_t) == pytest.approx(energy(psi, ball_s), rel=1e-4)

    def test_composition_law(self):
        # rect charts throughout: a torus target would put wrap seams into
        # the intermediate (non-periodic) zoomed field
        chart = GridChart.rect(129, 129, (-1.0, 1.0, -1.0, 1.0))
        X, Y = chart.grid()
        g = np.exp(-(X ** 2 + Y ** 2) / (2 * 0.25 ** 2))
        psi = SpinorField.from_components(chart, [(g, 0.4j * g * (X + 1j * Y))])
        t1 = GridChart.rect(129, 129, (-1.0, 1.0, -1.0, 1.0))
        t2 = GridChart.rect(129, 129, (-1.0, 1.0, -1.0, 1.0))
        x0, lam1 = (0.05, 0.0), 0.6
        x1, lam2 = (0.1, -0.05), 0.7
        a = rescale(rescale(psi, x0, lam1, t1), x1, lam2, t2)
        composed_center = (x0[0] + lam1 * x1[0], x0[1] + lam1 * x1[1])
        b = rescale(psi, composed_center, lam1 * lam2, t2)
        scale = np.abs(b.values).max()
        assert np.abs(a.values - b.values).max() < 2e-4 * scale

    def test_out_of_domain(self):
        chart = GridChart.rect(33, 33, (-1.0, 1.0, -1.0, 1.0))
        psi = compact_bump_field(chart)
        target = GridChart.rect(33, 33, (-1.0, 1.0, -1.0, 1.0))
        with pytest.raises(OutOfDomainError):
            rescale(psi, (0.0, 0.0), 1.5, target)


class TestCylinder:
    def test_radial_inverse_sqrt_maps_to_constant(self):
        chart = GridChart.disk(129, 1.0)
        X, Y = chart.grid()
        r = np.maximum(np.hypot(X, Y), 1e-12)
        psi = SpinorField.from_components(chart, [(r ** -0.5, np.zeros_like(r))])
        cyl = to_cylinder(psi, (0.0, 0.0), 0.37, 0.8)
        mags = np.abs(cyl.values[..., 0, 0])
        assert mags.max() - mags.min() < 2e-3

    def test_annulus_energy_matches_segment(self):
        chart = GridChart.disk(129, 1.0)
        X, Y = chart.grid()
        r = np.hypot(X, Y)
        band = np.exp(-((r - 0.5) / 0.08) ** 2 / 2.0)
        psi = SpinorField.from_components(chart, [(band, 0.5 * band)])
        r_in, r_out = 0.25, 0.8
        cyl = to_cylinder(psi, (0.0, 0.0), r_in, r_out)
        ann = (r >= r_in) & (r <= r_out) & chart.active
        assert energy(cyl) == pytest.approx(energy(psi, ann), rel=2e-4)
        # sub-segment [0, 1] in t maps to the annulus [r_out e^{-1}, r_out]
        t0 = -np.log(r_out)
        seg = cylinder_segment_energy(cyl, t0, t0 + 1.0)
        sub = (r >= r_out / np.e) & (r <= r_out) & chart.active
        assert seg == pytest.approx(energy(psi, sub), rel=2e-3)

    def test_rescale_is_translation_in_t(self):
        chart = GridChart.disk(257, 1.0)
        X, Y = chart.grid()
        r = np.hypot(X, Y)
        band = np.exp(-((r - 0.35) / 0.06) ** 2 / 2.0) * (X + 1j * Y)
        psi = SpinorField.from_components(chart, [(band, 0.3 * band)])
        lam = 0.5
        target = GridChart.disk(257, 2.0)    # zoom covers the full source
        zoom = rescale(psi, (0.0, 0.0), lam, target)
        nt, ntheta = 40, 256
        cyl_a = to_cylinder(psi, (0.0, 0.0), 0.2, 0.6, nt=nt, ntheta=ntheta)
        cyl_b = to_cylinder(zoom, (0.0, 0.0), 0.4, 1.2, nt=nt, ntheta=ntheta)
        # the annulus dilates by 1/lam, so the t-window shifts by log(lam)
        # and the sampled cylinder fields coincide entry by entry
        assert np.abs(cyl_a.values - cyl_b.values).max() < 2e-3 * np.abs(cyl_a.values).max()

    def test_annulus_touching_center_rejected(self):
        chart = GridChart.disk(33, 1.0)
        psi = compact_bump_field(chart)
        with pytest.raises(PreconditionError):
            to_cylinder(psi, (0.0, 0.0), chart.h, 0.8)


class TestSphere:
    def test_roundtrip_identity(self):
        chart = GridChart.rect(65, 65, (-1.5, 1.5, -1.5, 1.5))
        psi = compact_bump_field(chart)
        back = sphere_transfer(sphere_transfer(psi, "toSphere"), "toPlane")
        assert np.abs(back.values - psi.values).max() < 1e-13

    def test_energy_preserved(self):
        chart = GridChart.rect(65, 65, (-1.5, 1.5, -1.5, 1.5))
        psi = compact_bump_field(chart)
        on_sphere = sphere_transfer(psi, "toSphere")
        assert energy(on_sphere) == pytest.approx(energy(psi), rel=1e-12)

    def test_constant_field_rejected(self):
        chart = GridChart.rect(33, 33, (-1.0, 1.0, -1.0, 1.0))
        psi = SpinorField.zeros(chart, 1)
        psi.values[..., 0, 0] = 1.0
        with pytest.raises(DecayError):
            sphere_transfer(psi, "toSphere")

    def test_direction_validation(self):
        chart = GridChart.rect(33, 33, (-1.0, 1.0, -1.0, 1.0))
        with pytest.raises(ConfigurationError):
            sphere_transfer(compact_bump_field(chart), "sideways")


class TestConformalRates:
    def test_transfers_improve_at_least_second_order(self):
        from spinflow.verify import _conformal_errors
        errs = _conformal_errors((33, 65, 129))
        for name in ("rescale", "cylinder", "sphere"):
            seq = errs[name]
            assert seq[-1] <= 5e-4
            for k in range(len(seq) - 1):
                assert seq[k + 1] <= max(seq[k] / 3.0, 1e-9)
