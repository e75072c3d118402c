import numpy as np
import pytest

from spinflow.charts import GridChart, SpinorField
from spinflow.conformal import rescale
from spinflow.dirac import _torus_setup, dirac_apply, dirac_inverse_spectral
from spinflow.errors import ConfigurationError, DivergenceError, PreconditionError
from spinflow.fields import torus_mode_field
from spinflow.green import _disk_factor, disk_solve, green_convolve
from spinflow.reactions import ChiralUV, CurvatureCubic, GeneralCubic, ScalarH
from spinflow.solve import (newton_refine, picard_solve, residual,
                            smallness_margin)


def manufactured(chart, spec, n=1, amplitude=0.35, seed=11, mode="spectral"):
    psi_star = torus_mode_field(chart, amplitude, n, seed)
    forcing = dirac_apply(psi_star, mode) - spec.rhs(psi_star)
    return psi_star, forcing


class TestResidual:
    def test_zero_field(self, torus64):
        _, r = residual(ScalarH(1.0), SpinorField.zeros(torus64, 1), mode="spectral")
        assert r == 0.0

    def test_constant_harmonic_h0(self):
        chart = GridChart.torus(32, spin_structure="PP")
        psi = SpinorField.zeros(chart, 1)
        psi.values[..., 0, 0] = 0.8 - 0.1j
        _, r = residual(ScalarH(0.0), psi, mode="spectral")
        assert r < 1e-12

    def test_rescale_covariance(self, torus64):
        # residual norm of a near-solution stays small under conformal zoom
        spec = ScalarH(1.0)
        psi_star, forcing = manufactured(torus64, spec)
        psi, _ = picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing,
                              tol=1e-10)
        psi, _ = newton_refine(spec, psi, forcing=forcing, tol=1e-12)
        _, r0 = residual(spec, psi, forcing, mode="fd")
        target = GridChart.rect(129, 129, (-1.0, 1.0, -1.0, 1.0))
        zoomed = rescale(psi, (0.5, 0.5), 0.25, target)
        # the zoomed field solves the H-equation with the rescaled forcing;
        # compare against the zoom of the forcing itself
        zoomed_forcing_vals = rescale(forcing, (0.5, 0.5), 0.25, target).values
        lam32 = 0.25 ** 1.5
        zf = SpinorField(target, zoomed_forcing_vals * lam32 / np.sqrt(0.25))
        _, r1 = residual(spec, zoomed, zf, mode="fd")
        h = target.hx
        assert r1 <= r0 + 60.0 * h ** 2


class TestPicard:
    def test_linear_decay_to_zero(self, torus64):
        psi, rep = picard_solve(ScalarH(0.0),
                                torus_mode_field(torus64, 0.5, 1, seed=3),
                                tol=1e-10)
        assert rep.converged
        assert np.abs(psi.values).max() < 1e-9

    @pytest.mark.parametrize("name,spec,n", [
        ("scalar", ScalarH(1.0), 1),
        ("su2", ChiralUV("su2", h=0.7), 1),
        ("nil", ChiralUV("nil", h=0.7), 1),
        ("sl2", ChiralUV("sl2", h=0.7), 1),
        ("curvature", CurvatureCubic.constant_curvature(2, 1.0), 2),
    ])
    def test_manufactured_recovery(self, torus64, name, spec, n):
        psi_star, forcing = manufactured(torus64, spec, n=n)
        sol, rep = picard_solve(spec, SpinorField.zeros(torus64, n),
                                forcing=forcing, tol=1e-9)
        assert rep.converged
        assert rep.final_residual <= 1e-8
        assert np.abs(sol.values - psi_star.values).max() < 1e-7
        assert smallness_margin(spec, sol) < 0.5

    def test_general_cubic_recovery(self, torus64):
        rng = np.random.default_rng(5)
        spec = GeneralCubic(0.5 * rng.standard_normal((2, 2, 2, 2)))
        psi_star, forcing = manufactured(torus64, spec, n=2, amplitude=0.3)
        sol, rep = picard_solve(spec, SpinorField.zeros(torus64, 2),
                                forcing=forcing, tol=1e-9)
        assert rep.converged
        assert np.abs(sol.values - psi_star.values).max() < 1e-7

    def test_residual_monotone_after_burn_in(self, torus64):
        spec = ScalarH(1.0)
        _, forcing = manufactured(torus64, spec)
        _, rep = picard_solve(spec, SpinorField.zeros(torus64, 1),
                              forcing=forcing, tol=1e-10)
        tail = rep.residual_norms[5:]
        assert all(tail[k + 1] <= tail[k] * (1 + 1e-9) for k in range(len(tail) - 1))

    def test_guard_violation_diverges(self, torus64):
        spec = ScalarH(1.0)
        psi_star, forcing = manufactured(torus64, spec, amplitude=4.0)
        assert smallness_margin(spec, psi_star) >= 1.0
        with pytest.raises(DivergenceError) as err:
            picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing)
        assert len(err.value.history) > 0

    def test_damping_halves_to_floor(self, torus64):
        # undamped, this target diverges; halving theta to the 0.5 floor rescues it
        spec = ScalarH(1.0)
        _, forcing = manufactured(torus64, spec, amplitude=2.0)
        with pytest.raises(DivergenceError):
            picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing, damping=1.0)
        _, rep = picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing)
        assert rep.converged and rep.reason == "converged"
        assert len(rep.damping_history) == rep.iterations
        assert rep.damping_history[0] == 1.0 and rep.damping_history[-1] == 0.5
        assert all(b <= a for a, b in zip(rep.damping_history, rep.damping_history[1:]))

    @pytest.mark.parametrize("damping", [0.0, -0.5, 1.5, np.nan])
    def test_damping_outside_unit_interval_rejected(self, torus64, damping):
        with pytest.raises(ConfigurationError, match=r"damping must lie in \(0, 1\]"):
            picard_solve(_NoSweep(0.5), SpinorField.zeros(torus64, 1), damping=damping)

    def test_reason_names_the_sweep_limit(self, torus64):
        spec = ScalarH(1.0)
        _, forcing = manufactured(torus64, spec)
        _, rep = picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing,
                              max_iter=2)
        assert not rep.converged and rep.reason == "not converged after 2 sweeps"

    def test_one_rhs_per_sweep(self, torus64):
        class Counting(ScalarH):
            calls = 0

            def rhs(self, psi):
                Counting.calls += 1
                return super().rhs(psi)

        spec = Counting(1.0)
        _, forcing = manufactured(torus64, ScalarH(1.0))
        _, rep = picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing,
                              tol=1e-10)
        assert rep.converged
        assert Counting.calls == rep.iterations + 1

    def test_one_rhs_per_disk_sweep(self):
        # off the torus nothing reads rhs of the returned iterate, so a sweep
        # evaluates rhs only of the iterate it starts from
        class Counting(ScalarH):
            calls = 0

            def rhs(self, psi):
                Counting.calls += 1
                return super().rhs(psi)

        chart = GridChart.disk(25, 1.0)
        trace = np.zeros((chart.boundary_nodes.shape[0], 1, 2), complex)
        trace[:, 0, 0] = 0.3
        _, rep = picard_solve(Counting(0.4), SpinorField.zeros(chart, 1), trace=trace,
                              tol=1e-8, max_iter=60)
        assert rep.converged and rep.iterations == 5
        assert Counting.calls == rep.iterations

    def test_pp_torus_rejected(self):
        chart = GridChart.torus(32, spin_structure="PP")
        with pytest.raises(ConfigurationError):
            picard_solve(ScalarH(0.5), SpinorField.zeros(chart, 1))

    def test_torus_rejects_trace(self, torus64):
        # the torus has no boundary, so a trace is an error, not ignored
        trace = np.zeros((8, 1, 2), complex)
        with pytest.raises(ConfigurationError, match="trace"):
            picard_solve(_NoSweep(0.5), SpinorField.zeros(torus64, 1), trace=trace)
        with pytest.raises(ConfigurationError, match="trace"):
            newton_refine(_NoSweep(0.5), SpinorField.zeros(torus64, 1), trace=trace)

    def test_disk_picard_with_trace(self):
        # small-data solve on the disk driven by the boundary trace
        chart = GridChart.disk(25, 1.0)
        spec = ScalarH(0.4)
        nb = chart.boundary_nodes.shape[0]
        trace = np.zeros((nb, 1, 2), complex)
        trace[:, 0, 0] = 0.3
        sol, rep = picard_solve(spec, SpinorField.zeros(chart, 1), trace=trace,
                                tol=1e-8, max_iter=60)
        assert rep.converged
        # off the torus a sweep's residual is |rho| of its start, by its own solve
        assert rep.final_residual <= 10 * 1e-8
        assert rep.residual_norms == [u / t for u, t in
                                      zip(rep.update_norms, rep.damping_history)]
        sol_check, _ = disk_solve(spec.rhs(sol), trace)
        assert np.abs(sol_check.values - sol.values).max() < 1e-6

    def test_disk_factor_built_once(self):
        # every sweep reuses the chart's cached factor
        chart = GridChart.disk(25, 1.0)
        trace = np.zeros((chart.boundary_nodes.shape[0], 1, 2), complex)
        trace[:, 0, 0] = 0.3
        _disk_factor.cache_clear()
        _, rep = picard_solve(ScalarH(0.4), SpinorField.zeros(chart, 1), trace=trace,
                              tol=1e-8, max_iter=60)
        assert rep.iterations == 5
        info = _disk_factor.cache_info()
        assert (info.misses, info.hits) == (1, rep.iterations - 1)


def test_torus_setup_built_once(torus64):
    # Picard and Newton share one cached setup of the chart
    spec = ScalarH(1.0)
    _, forcing = manufactured(torus64, spec)
    _torus_setup.cache_clear()
    sol, prep = picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing, tol=1e-6)
    _, nrep = newton_refine(spec, sol, forcing=forcing, tol=1e-11)
    assert prep.converged and nrep.converged and nrep.steps >= 1
    info = _torus_setup.cache_info()
    assert info.misses == 1 and info.hits > prep.iterations + nrep.steps


class TestNewton:
    def test_fixed_point_stays(self, torus64):
        spec = ScalarH(1.0)
        psi_star, forcing = manufactured(torus64, spec)
        sol, _ = picard_solve(spec, SpinorField.zeros(torus64, 1),
                              forcing=forcing, tol=1e-10)
        refined, rep = newton_refine(spec, sol, forcing=forcing, tol=1e-11)
        assert rep.converged
        again, rep2 = newton_refine(spec, refined, forcing=forcing, tol=1e-11)
        assert rep2.converged and rep2.steps == 0

    def test_quadratic_finish(self, torus64):
        spec = ChiralUV("sl2", h=0.7)
        psi_star, forcing = manufactured(torus64, spec)
        sol, _ = picard_solve(spec, SpinorField.zeros(torus64, 1),
                              forcing=forcing, tol=1e-6)
        refined, rep = newton_refine(spec, sol, forcing=forcing, tol=1e-10)
        assert rep.converged
        assert rep.steps <= 5
        assert rep.residual_norms[-1] <= 1e-10
        assert np.abs(refined.values - psi_star.values).max() < 1e-10

    def test_residual_strictly_decreases(self, torus64):
        spec = ScalarH(1.0)
        _, forcing = manufactured(torus64, spec)
        # from the zero field, so that several steps are compared
        _, rep = newton_refine(spec, SpinorField.zeros(torus64, 1), forcing=forcing,
                               tol=1e-12, max_steps=4)
        rs = rep.residual_norms
        assert len(rs) >= 4
        assert all(rs[k + 1] < rs[k] for k in range(len(rs) - 1))

    def test_reason_names_the_stop(self, torus64):
        # from the zero field Newton needs three steps, so one step cannot finish
        spec = ScalarH(1.0)
        _, forcing = manufactured(torus64, spec)
        sol = SpinorField.zeros(torus64, 1)
        _, rep = newton_refine(spec, sol, forcing=forcing, tol=1e-10)
        assert rep.converged and rep.reason == "converged"
        _, short = newton_refine(spec, sol, forcing=forcing, tol=1e-10, max_steps=1)
        assert not short.converged and not short.stagnated
        assert short.reason == "not converged after 1 steps"

    def test_stagnation_keeps_the_input(self, torus64):
        # a Jacobian of the wrong sign and 30 times too large gives a step that
        # raises rho: Newton rejects it, keeps its input and names the step
        class Misscaled(ScalarH):
            def linearize(self, psi, delta):
                return -30.0 * super().linearize(psi, delta)

        spec = Misscaled(1.0)
        _, forcing = manufactured(torus64, spec)
        sol, _ = picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing,
                              tol=1e-4)
        out, rep = newton_refine(spec, sol, forcing=forcing, tol=1e-10)
        assert rep.stagnated and not rep.converged and rep.steps == 0
        assert rep.reason.startswith("residual did not decrease at step 1 (")
        assert out is sol and len(rep.residual_norms) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        chart = GridChart.torus(32)
        values = torus_mode_field(chart, 0.3, 1, seed=5).values.copy()
        values[3, 4, 0, 0] = bad
        with pytest.raises(PreconditionError, match="non-finite"):
            newton_refine(_NoSweep(0.5), SpinorField(chart, values))

    def test_outside_data_rejected(self):
        chart = GridChart.disk(17)
        values = np.zeros((17, 17, 1, 2), np.complex128)
        values[0, 0, 0, 0] = 1.0                # a corner node, outside the disk
        with pytest.raises(PreconditionError, match="outside nodes"):
            newton_refine(_NoSweep(0.5), SpinorField(chart, values))

    def test_inner_solve_stops_at_the_target(self, torus64):
        # near the solution the GMRES tolerance follows tol / rnorm, so a step
        # costs a couple of matvecs, not a 1e-10 solve
        class Counting(ScalarH):
            calls = 0

            def linearize(self, psi, delta):
                Counting.calls += 1
                return super().linearize(psi, delta)

        spec = Counting(1.0)
        _, forcing = manufactured(torus64, spec)
        sol, _ = picard_solve(spec, SpinorField.zeros(torus64, 1), forcing=forcing,
                              tol=1e-7)
        before = sol.values.copy()
        _, rep = newton_refine(spec, sol, forcing=forcing, tol=1e-10)
        assert rep.converged and rep.steps == 1
        assert Counting.calls <= 3
        assert np.array_equal(sol.values, before)

    def test_disk_drives_rho_down(self):
        # on the disk Newton refines the fixed point rho = psi - S(rhs psi)
        # with the trace, from a coarse Picard iterate
        chart = GridChart.disk(97, 1.0)
        bn = chart.boundary_nodes
        X, Y = chart.grid()
        angle = np.angle(X[bn[:, 0], bn[:, 1]] + 1j * Y[bn[:, 0], bn[:, 1]])
        trace = 0.3 * np.stack([np.exp(1j * angle), np.exp(-2j * angle)], axis=-1)[:, None]
        spec = ScalarH(0.4)
        sol, _ = picard_solve(spec, SpinorField.zeros(chart, 1), trace=trace, tol=1e-2)
        before = sol.values.copy()
        refined, rep = newton_refine(spec, sol, trace=trace, tol=1e-12)
        assert rep.converged and not rep.stagnated and rep.steps >= 1
        rs = rep.residual_norms
        assert rs[-1] <= 1e-12
        assert all(rs[k + 1] < rs[k] for k in range(len(rs) - 1))
        assert np.array_equal(sol.values, before)
        again, _ = disk_solve(spec.rhs(refined), trace)
        assert np.abs(again.values - refined.values).max() <= 1e-12


class _NoSweep(ScalarH):
    """A reaction that fails the test if a solver sweeps before checking."""

    def rhs(self, psi):
        raise AssertionError("solver evaluated the reaction before the invertibility check")


@pytest.mark.parametrize("call", [
    dirac_inverse_spectral,
    lambda f: green_convolve(f, "fft"),
    lambda f: green_convolve(f, "direct"),
    lambda f: picard_solve(_NoSweep(0.5), f),
    lambda f: newton_refine(_NoSweep(0.5), f),
], ids=["dirac_inverse_spectral", "green_fft", "green_direct", "picard", "newton"])
def test_pp_torus_kernel_rejected(call):
    chart = GridChart.torus(16, spin_structure="PP")
    with pytest.raises(ConfigurationError, match="zero mode"):
        call(SpinorField.zeros(chart, 1))


@pytest.mark.parametrize("solver", [picard_solve, newton_refine], ids=["picard", "newton"])
def test_rect_chart_rejected(solver):
    # a chart green.dirac_inverse cannot serve fails before any reaction
    with pytest.raises(ConfigurationError, match="not defined"):
        solver(_NoSweep(0.5), SpinorField.zeros(GridChart.rect(17), 1))


class TestSmallnessMargin:
    def test_zero_field(self, torus64):
        assert smallness_margin(ScalarH(1.0), SpinorField.zeros(torus64, 1)) == 0.0

    def test_definition(self, torus64):
        from spinflow.spinors import energy
        psi = torus_mode_field(torus64, 0.4, 1, seed=2)
        expected = 1.0 * np.sqrt(energy(psi))
        assert smallness_margin(ScalarH(1.0), psi) == pytest.approx(expected, rel=1e-12)

    def test_doubling_quadruples(self, torus64):
        psi = torus_mode_field(torus64, 0.4, 1, seed=2)
        m1 = smallness_margin(ScalarH(1.0), psi)
        m2 = smallness_margin(ScalarH(1.0), 2.0 * psi)
        assert m2 == pytest.approx(4.0 * m1, rel=1e-12)
