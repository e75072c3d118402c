import numpy as np
import pytest

from spinflow.charts import GridChart, SpinorField
from spinflow.dirac import (_torus_setup, diff2_x, diff2_y, diff_x, diff_y, dirac_apply,
                            dirac_inverse_spectral, laplace_apply, spin_fft2, spin_ifft2,
                            symbol_report, weitzenboeck_residual)
from spinflow.errors import ConfigurationError, DomainError
from spinflow.fields import torus_mode_field
from spinflow.spinors import energy
from spinflow.verify import _broken_dirac

from conftest import block_inner, rel_l2


class TestDiracApply:
    def test_zbar_slot(self, disk33):
        X, Y = disk33.grid()
        psi = SpinorField.from_components(disk33, [(np.zeros_like(X), X - 1j * Y)])
        out = dirac_apply(psi, "fd")
        inside = disk33.inside
        assert np.abs(out.values[inside][:, 0, 0] - 2.0).max() < 1e-12
        assert np.abs(out.values[inside][:, 0, 1]).max() < 1e-12

    def test_z_slot(self, disk33):
        X, Y = disk33.grid()
        psi = SpinorField.from_components(disk33, [(X + 1j * Y, np.zeros_like(X))])
        out = dirac_apply(psi, "fd")
        inside = disk33.inside
        assert np.abs(out.values[inside][:, 0, 0]).max() < 1e-12
        assert np.abs(out.values[inside][:, 0, 1] + 2.0).max() < 1e-12

    def test_fd_vs_spectral_second_order(self):
        errs = []
        for nx in (64, 128):
            chart = GridChart.torus(nx, spin_structure="AA")
            psi = torus_mode_field(chart, 0.5, 1, seed=4)
            d_fd = dirac_apply(psi, "fd")
            d_sp = dirac_apply(psi, "spectral")
            errs.append(rel_l2(chart, d_fd.values, d_sp.values))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_linearity(self, torus64):
        a, b = 0.3 - 0.7j, 1.1 + 0.2j
        psi = torus_mode_field(torus64, 0.5, 2, seed=1)
        phi = torus_mode_field(torus64, 0.5, 2, seed=2)
        for mode in ("fd", "spectral"):
            lhs = dirac_apply(a * psi + b * phi, mode).values
            rhs = a * dirac_apply(psi, mode).values + b * dirac_apply(phi, mode).values
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_spectral_needs_torus(self, disk33):
        with pytest.raises(DomainError):
            dirac_apply(SpinorField.zeros(disk33, 1), "spectral")

    def test_symmetry_on_antiperiodic_torus(self, torus64):
        psi = torus_mode_field(torus64, 0.5, 1, seed=5)
        phi = torus_mode_field(torus64, 0.5, 1, seed=6)
        w = torus64.weights
        lhs = np.sum(block_inner(dirac_apply(psi, "spectral").values[:, :, 0],
                                 phi.values[:, :, 0]) * w)
        rhs = np.sum(block_inner(psi.values[:, :, 0],
                                 dirac_apply(phi, "spectral").values[:, :, 0]) * w)
        assert abs(lhs - rhs) < 1e-10


class TestLaplace:
    def test_constant(self, torus_pp):
        psi = SpinorField.zeros(torus_pp, 1)
        psi.values[..., 0, 0] = 2.0 - 1.0j
        for mode in ("fd", "spectral"):
            assert np.abs(laplace_apply(psi, mode).values).max() < 1e-10

    def test_eigenfunction(self):
        chart = GridChart.torus(64, spin_structure="PP")
        X, _ = chart.grid()
        psi = SpinorField.from_components(chart,
                                          [(np.sin(2 * np.pi * X), np.zeros_like(X))])
        out = laplace_apply(psi, "spectral")
        expect = -4.0 * np.pi ** 2 * np.sin(2 * np.pi * X)
        assert np.abs(out.values[..., 0, 0] - expect).max() < 1e-9

    def test_fd_vs_spectral_rate(self):
        errs = []
        for nx in (64, 128):
            chart = GridChart.torus(nx, spin_structure="AA")
            psi = torus_mode_field(chart, 0.5, 1, seed=7)
            errs.append(rel_l2(chart, laplace_apply(psi, "fd").values,
                               laplace_apply(psi, "spectral").values))
        assert 3.0 <= errs[0] / errs[1] <= 5.0


class TestWeitzenboeck:
    def test_spectral_identity(self, torus64):
        psi = torus_mode_field(torus64, 0.5, 1, seed=8)
        assert weitzenboeck_residual(psi, "spectral") <= 1e-10

    def test_zero_field(self, torus64):
        assert weitzenboeck_residual(SpinorField.zeros(torus64, 1), "spectral") == 0.0

    def test_fd_rate(self):
        res = []
        for nx in (64, 128, 256):
            chart = GridChart.torus(nx, spin_structure="AA")
            res.append(weitzenboeck_residual(torus_mode_field(chart, 0.5, 1, seed=9), "fd"))
        for k in range(len(res) - 1):
            assert 3.0 <= res[k] / res[k + 1] <= 5.0

    def test_broken_stencil_hook_breaks_identity(self, torus64):
        psi = torus_mode_field(torus64, 0.5, 1, seed=10)
        clean = weitzenboeck_residual(psi, "fd")
        broken = weitzenboeck_residual(psi, "fd", op=_broken_dirac)
        assert broken > 5.0 * clean
        assert weitzenboeck_residual(psi, "fd", op=dirac_apply) == clean


class TestTorusSetup:
    @pytest.mark.parametrize("spin", ["PP", "PA", "AP", "AA"])
    def test_arrays_read_only(self, spin):
        setup = _torus_setup(GridChart.torus(16, 24, spin_structure=spin))
        for arr in (setup.a, setup.b, setup.lap, setup.phase, setup.unphase):
            assert arr.shape == (24, 16) and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    @pytest.mark.parametrize("spin", ["PA", "AP", "AA"])
    @pytest.mark.parametrize("nx, ny", [(64, 64), (96, 80)])
    def test_inverse_transform_matches_out_of_place(self, spin, nx, ny):
        # np.fft.ifft2 ignores out=; spin_ifft2 must still give the bytes of
        # an out-of-place inverse transform followed by the phase product
        chart = GridChart.torus(nx, ny, period_x=1.0, period_y=1.3, spin_structure=spin)
        rng = np.random.default_rng(nx + ny)
        vhat = rng.standard_normal((ny, nx, 2, 2)) + 1j * rng.standard_normal((ny, nx, 2, 2))
        sx, sy = chart.spin_shifts
        phase = (np.exp(-2j * np.pi * sy * chart.ys / 1.3)[:, None]
                 * np.exp(-2j * np.pi * sx * chart.xs / 1.0)[None, :])
        ref = np.fft.ifft2(vhat, axes=(0, 1)) * np.conj(phase)[:, :, None, None]
        buf = vhat.copy()
        out = spin_ifft2(buf, chart)
        assert out is buf
        assert out.tobytes() == ref.tobytes()
        fwd = np.fft.fft2(ref * phase[:, :, None, None], axes=(0, 1))
        assert spin_fft2(ref, chart).tobytes() == fwd.tobytes()


class TestKernel:
    def test_antianti_invertible(self):
        rep = symbol_report(GridChart.torus(32, spin_structure="AA"))
        assert rep["invertible"] and rep["min_symbol_modulus"] > 0

    def test_mixed_structures_invertible(self):
        for s in ("PA", "AP"):
            assert symbol_report(GridChart.torus(32, spin_structure=s))["invertible"]

    def test_periodic_has_constants(self):
        rep = symbol_report(GridChart.torus(32, spin_structure="PP"))
        assert not rep["invertible"]
        assert rep["zero_modes"] == 1

    def test_inverse_roundtrip(self, torus64):
        psi = torus_mode_field(torus64, 0.5, 2, seed=11)
        f = dirac_apply(psi, "spectral")
        back = dirac_inverse_spectral(f)
        assert np.abs(back.values - psi.values).max() < 1e-12

    def test_inverse_rejects_pp(self):
        chart = GridChart.torus(32, spin_structure="PP")
        with pytest.raises(ConfigurationError):
            dirac_inverse_spectral(SpinorField.zeros(chart, 1))


class TestSpinStructureSections:
    def test_harmonic_constant_on_pp(self):
        chart = GridChart.torus(32, spin_structure="PP")
        psi = SpinorField.zeros(chart, 1)
        psi.values[..., 0, 0] = 1.0 + 0.5j
        assert np.abs(dirac_apply(psi, "spectral").values).max() < 1e-12
        assert np.abs(dirac_apply(psi, "fd").values).max() < 1e-12

    def test_mode_field_energy_finite(self, torus64):
        psi = torus_mode_field(torus64, 0.5, 1, seed=12)
        assert energy(psi) > 0


def _active_at(chart, axis, d):
    """Whether the node d steps along the array axis is active (False off grid)."""
    pad = np.pad(chart.active, 2)
    sl = [slice(2, -2), slice(2, -2)]
    sl[axis] = slice(2 + d, 2 + d + chart.active.shape[axis])
    return pad[tuple(sl)]


class TestDiskRingStencils:
    """Stencil choice on the boundary ring of coarse disks, where one-sided and
    first-order stencils and the zero fallback are all reached."""

    @pytest.mark.parametrize("nx", [9, 11, 13, 17, 33])
    def test_first_derivative_of_linear_field(self, nx):
        chart = GridChart.disk(nx, 1.0)
        X, Y = chart.grid()
        vals = np.zeros((nx, nx, 1, 2), complex)
        vals[..., 0, 0] = 0.5 + 2.0 * X - 3.0 * Y
        vals[..., 0, 1] = 1j * (1.0 - X + 0.25 * Y)
        vals[~chart.active] = 0.0
        for diff, axis, slope in ((diff_x, 1, (2.0, -1j)), (diff_y, 0, (-3.0, 0.25j))):
            d = diff(vals, chart)[:, :, 0, :]
            some = chart.active & (_active_at(chart, axis, -1) | _active_at(chart, axis, 1))
            none = chart.active & ~some
            np.testing.assert_allclose(d[some], np.broadcast_to(slope, d[some].shape),
                                       rtol=0, atol=1e-11)
            assert np.count_nonzero(none) == 2       # the two extreme ring nodes
            assert np.all(d[none] == 0.0)
            assert np.all(d[~chart.active] == 0.0)

    @pytest.mark.parametrize("nx", [9, 11, 13, 17, 33])
    def test_second_derivative_of_quadratic(self, nx):
        chart = GridChart.disk(nx, 1.0)
        X, Y = chart.grid()
        vals = np.zeros((nx, nx, 1, 2), complex)
        vals[..., 0, 0] = 1.0 + X + 2.0 * Y + 0.5 * X * X - 1.5 * X * Y + 0.75 * Y * Y
        vals[..., 0, 1] = 1j * (X * X - Y * Y)
        vals[~chart.active] = 0.0
        for diff, axis, curv in ((diff2_x, 1, (1.0, 2j)), (diff2_y, 0, (1.5, -2j))):
            d = diff(vals, chart)[:, :, 0, :]
            m2, m1, p1, p2 = (_active_at(chart, axis, k) for k in (-2, -1, 1, 2))
            second = chart.active & ((m1 & p1) | (p1 & p2) | (m1 & m2))
            np.testing.assert_allclose(d[second], np.broadcast_to(curv, d[second].shape),
                                       rtol=0, atol=1e-9)
            assert np.all(d[chart.active & ~second] == 0.0)
            assert np.all(d[~chart.active] == 0.0)
