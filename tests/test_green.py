import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg

from spinflow.boxscheme import _box_apply
from spinflow.charts import GridChart, SpinorField
from spinflow.dirac import dirac_apply, dirac_inverse_spectral
from spinflow.errors import ConfigurationError, PreconditionError, SolverError
from spinflow.fields import compact_bump_field
from spinflow.green import (dirac_inverse, disk_solve, estimate_ratio,
                            green_convolve, kernel_matrix, kernel_offset_grids,
                            windowed_mode_field, gradient_magnitude)
from spinflow.rng import SplitMix64
from spinflow.spinors import scalar_lp_norm

from conftest import _reference_rhs, _reference_system, rel_l2


def boundary_trace_norm(chart, trace, p):
    """W^{1,p} norm of disk boundary data: p-norms of the trace and its
    arclength derivative (centered differences along the discrete boundary
    curve)."""
    nodes = chart.boundary_nodes
    coords = np.stack([chart.xs[nodes[:, 1]], chart.ys[nodes[:, 0]]], axis=1)
    nb = coords.shape[0]
    seg = np.linalg.norm(np.roll(coords, -1, axis=0) - coords, axis=1)
    ds = 0.5 * (seg + np.roll(seg, 1))
    tr = trace.reshape(nb, -1)
    dtr = (np.roll(tr, -1, axis=0) - np.roll(tr, 1, axis=0)) / \
        (seg + np.roll(seg, 1))[:, None]
    mag = np.sqrt(np.sum(np.abs(tr) ** 2, axis=1))
    dmag = np.sqrt(np.sum(np.abs(dtr) ** 2, axis=1))
    return float(np.sum((mag ** p + dmag ** p) * ds) ** (1.0 / p))


class TestKernelRule:
    def test_antisymmetry(self):
        for (x, y) in ((0.3, -0.7), (1.2, 0.1), (-0.4, -0.9)):
            np.testing.assert_allclose(kernel_matrix(-x, -y), -kernel_matrix(x, y), atol=0)

    def test_magnitude(self):
        for (x, y) in ((0.5, 0.0), (0.3, 0.4)):
            r = np.hypot(x, y)
            assert np.linalg.norm(kernel_matrix(x, y), 2) == pytest.approx(
                1.0 / (2 * np.pi * r), rel=1e-12)

    def test_self_cell_zeroed(self):
        chart = GridChart.disk(17, 1.0)
        g1, g2 = kernel_offset_grids(chart)
        assert g1[16, 16] == 0.0 and g2[16, 16] == 0.0


class TestConvolve:
    def test_zero_source(self, disk33):
        w = green_convolve(SpinorField.zeros(disk33, 1))
        assert np.abs(w.values).max() == 0.0

    def test_manufactured_recovery_rate(self):
        errs = []
        for nx in (65, 129, 257):
            chart = GridChart.disk(nx, 1.0)
            psi_c = compact_bump_field(chart)
            f = dirac_apply(psi_c, "fd")
            w = green_convolve(f, "fft")
            errs.append(rel_l2(chart, w.values, psi_c.values))
        for k in range(len(errs) - 1):
            assert 3.0 <= errs[k] / errs[k + 1] <= 5.0

    def test_roundtrip_dirac_of_potential(self):
        # D(green_convolve(f)) ~ f on the support, halving h shrinks the
        # mismatch by a factor in [3, 5]
        errs = []
        for nx in (65, 129):
            chart = GridChart.disk(nx, 1.0)
            psi_c = compact_bump_field(chart)
            f = dirac_apply(psi_c, "fd")
            w = green_convolve(f, "fft")
            dd = dirac_apply(w, "fd")
            X, Y = chart.grid()
            support = (np.hypot(X, Y) < 0.55) & chart.active
            diff = np.sqrt(np.sum(np.abs(dd.values - f.values) ** 2, axis=(2, 3)))
            ref = np.sqrt(np.sum(np.abs(f.values) ** 2, axis=(2, 3)))
            errs.append(scalar_lp_norm(np.where(support, diff, 0.0), chart, 2)
                        / scalar_lp_norm(ref, chart, 2))
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_direct_vs_fft_disk(self):
        chart = GridChart.disk(49, 1.0)
        f = dirac_apply(compact_bump_field(chart), "fd")
        wd = green_convolve(f, "direct")
        wf = green_convolve(f, "fft")
        assert rel_l2(chart, wd.values, wf.values) < 1e-10

    def test_direct_vs_fft_torus(self):
        chart = GridChart.torus(48, spin_structure="AA")
        f = windowed_mode_field(chart, SplitMix64(3))
        wd = green_convolve(f, "direct")
        wf = green_convolve(f, "fft")
        assert rel_l2(chart, wd.values, wf.values) < 1e-10

    def test_torus_spectral_roundtrip_exact(self):
        chart = GridChart.torus(64, spin_structure="AA")
        f = windowed_mode_field(chart, SplitMix64(5))
        w = green_convolve(f, "fft")
        res = dirac_apply(w, "spectral").values - f.values
        assert np.abs(res).max() < 1e-11

    def test_boundary_support_rejected(self, disk33):
        f = SpinorField.zeros(disk33, 1)
        ring = disk33.mask == 2
        f.values[ring, 0, 0] = 1.0
        with pytest.raises(PreconditionError):
            green_convolve(f)

    @pytest.mark.parametrize("chart", [GridChart.disk(33),
                                       GridChart.rect(33, bounds=(-1.0, 1.0, -1.0, 1.0))],
                             ids=lambda c: c.kind)
    def test_support_margin_two_nodes(self, chart):
        # counted from the rim node of the middle row: the second node in is
        # rejected, the third is accepted
        mid = chart.ny // 2
        rim = int(np.flatnonzero(chart.active[mid])[0])
        f = SpinorField.zeros(chart, 1)
        f.values[mid, rim + 1, 0, 0] = 1.0
        with pytest.raises(PreconditionError):
            green_convolve(f)
        g = SpinorField.zeros(chart, 1)
        g.values[mid, rim + 2, 0, 0] = 1.0
        assert np.abs(green_convolve(g).values).max() > 0


class TestDiskSolve:
    def test_constant_trace_harmonic(self, disk33):
        f = SpinorField.zeros(disk33, 1)
        nb = disk33.boundary_nodes.shape[0]
        trace = np.zeros((nb, 1, 2), complex)
        trace[:, 0, 0] = 1.0
        psi, rep = disk_solve(f, trace)
        act = disk33.active
        assert np.abs(psi.values[act][:, 0, 0] - 1.0).max() < 1e-9
        assert np.abs(psi.values[act][:, 0, 1]).max() < 1e-9
        assert rep["final_residual"] <= 1e-10

    def test_harmonic_zbar_squared(self, disk33):
        # psi* = (zbar^2, 0) satisfies D psi = 0; recovered from its trace
        X, Y = disk33.grid()
        Zb = X - 1j * Y
        psi_star = SpinorField.from_components(disk33, [(Zb ** 2, np.zeros_like(X))])
        bn = disk33.boundary_nodes
        trace = psi_star.values[bn[:, 0], bn[:, 1]]
        assert np.abs(dirac_apply(psi_star, "fd").values[disk33.inside]).max() < 1e-10
        psi, _ = disk_solve(SpinorField.zeros(disk33, 1), trace)
        assert np.abs(psi.values[disk33.active] - psi_star.values[disk33.active]).max() < 1e-7

    @staticmethod
    def _manufactured(chart):
        X, Y = chart.grid()
        Z = X + 1j * Y
        Zb = X - 1j * Y
        psi1 = Zb ** 2 + 0.5 * np.sin(X) * np.exp(0.3 * Y)
        psi2 = Z * Zb + 0.25 * np.cos(Y)
        f1 = 2 * Z - 0.25j * np.sin(Y)
        f2 = -0.5 * (np.cos(X) * np.exp(0.3 * Y) - 0.3j * np.sin(X) * np.exp(0.3 * Y))
        return (SpinorField.from_components(chart, [(psi1, psi2)]),
                SpinorField.from_components(chart, [(f1, f2)]))

    def test_manufactured_second_order(self):
        errs = []
        for nx in (25, 49, 97):
            chart = GridChart.disk(nx, 1.0)
            psi_star, f = self._manufactured(chart)
            bn = chart.boundary_nodes
            trace = psi_star.values[bn[:, 0], bn[:, 1]]
            sol, rep = disk_solve(f, trace)
            errs.append(np.abs(sol.values[chart.active]
                               - psi_star.values[chart.active]).max())
            assert rep["final_residual"] <= 1e-10
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_bounded_ratio_under_refinement(self):
        # || grad psi ||_{4/3} / (||f||_{4/3} + trace norm) stays bounded
        ratios = []
        for nx in (25, 33, 49):
            chart = GridChart.disk(nx, 1.0)
            psi_star, f = self._manufactured(chart)
            bn = chart.boundary_nodes
            trace = psi_star.values[bn[:, 0], bn[:, 1]]
            sol, _ = disk_solve(f, trace)
            p = 4.0 / 3.0
            num = scalar_lp_norm(gradient_magnitude(sol), chart, p)
            fmag = np.sqrt(np.sum(np.abs(f.values) ** 2, axis=(2, 3)))
            den = scalar_lp_norm(fmag, chart, p) + boundary_trace_norm(chart, trace, p)
            ratios.append(num / den)
        assert max(ratios) / min(ratios) < 1.5


# disk_solve of a random source with zero trace, a disk Picard solve driven by
# a boundary trace and its Newton refinement, then one Newton step on a 64^2 AA
# torus, whose GMRES inner products run in numpy's OpenBLAS; prints the sha256
# of each result
_THREAD_PROBE = """
import hashlib
import numpy as np
from spinflow.charts import GridChart, SpinorField
from spinflow.config import parse_config
from spinflow.dirac import dirac_apply
from spinflow.fields import torus_mode_field
from spinflow.green import disk_solve
from spinflow.reactions import ScalarH
from spinflow.solve import newton_refine, picard_solve

chart = GridChart.disk(97, 1.0)
rng = np.random.default_rng(3)
f = SpinorField(chart, rng.standard_normal((97, 97, 1, 2))
                + 1j * rng.standard_normal((97, 97, 1, 2)))
f.values[~chart.active] = 0.0
bn = chart.boundary_nodes
psi, _ = disk_solve(f, np.zeros((bn.shape[0], 1, 2), complex))
X, _ = chart.grid()
trace = np.zeros((bn.shape[0], 1, 2), complex)
trace[:, 0, 0] = 0.3 * np.exp(1j * X[bn[:, 0], bn[:, 1]])
sol, rep = picard_solve(ScalarH(0.4), SpinorField.zeros(chart, 1), trace=trace,
                        tol=1e-8, max_iter=60)
assert rep.converged
coarse, _ = picard_solve(ScalarH(0.4), SpinorField.zeros(chart, 1), trace=trace, tol=1e-2)
refined, nrep = newton_refine(ScalarH(0.4), coarse, trace=trace, tol=1e-12)
assert nrep.converged and nrep.steps >= 1
print(hashlib.sha256(psi.values.tobytes()).hexdigest())
print(hashlib.sha256(sol.values.tobytes()).hexdigest())
print(hashlib.sha256(refined.values.tobytes()).hexdigest())
spec = parse_config("reaction.type = general_cubic\\nreaction.h = 1.0\\n").build_reaction()
torus = GridChart.torus(64, spin_structure="AA")
target = torus_mode_field(torus, 0.35, 2, 11)
forcing = dirac_apply(target, "spectral") - spec.rhs(target)
start, _ = picard_solve(spec, SpinorField.zeros(torus, 2), forcing=forcing, tol=1e-7)
stepped, trep = newton_refine(spec, start, forcing=forcing, tol=1e-10, max_steps=1)
assert trep.steps == 1
print(hashlib.sha256(stepped.values.tobytes()).hexdigest())
"""


def test_disk_bytes_do_not_depend_on_blas_threads():
    digests = {}
    for threads in ("1", "2", None):    # None: unset, the library default
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        digests[threads] = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True,
            text=True, check=True, timeout=300).stdout.split()
    assert len(digests["1"]) == 4
    assert digests["1"] == digests["2"] == digests[None]


def _manufactured_solve_data(nx, radius=1.0):
    chart = GridChart.disk(nx, radius)
    psi_star, f = TestDiskSolve._manufactured(chart)
    bn = chart.boundary_nodes
    return chart, f, psi_star.values[bn[:, 0], bn[:, 1]]


class TestDiskSolveLU:
    @pytest.mark.parametrize("nx", (9, 17, 33, 65, 97))
    @pytest.mark.parametrize("radius", (1.0, 0.73))
    def test_slot_one_is_the_conjugate_problem(self, nx, radius):
        # the two-slot system splits into the scalar system B for slot 2 and
        # conj(B), cell rows negated, for slot 1: one factor serves both; on a
        # seeded random block the stencil operator B gives the loop-built
        # system's products exactly
        chart = GridChart.disk(nx, radius)
        A = _reference_system(chart)
        n_cells = int(chart.cells.sum())
        ring = 2 * n_cells + 2 * np.arange(chart.boundary_nodes.shape[0])
        rows2 = np.concatenate([2 * np.arange(n_cells), ring + 1])
        rows1 = np.concatenate([2 * np.arange(n_cells) + 1, ring])
        sign = np.concatenate([-np.ones(n_cells), np.ones(ring.size)])[:, None]
        rng = np.random.default_rng(nx)
        U = (rng.standard_normal((A.shape[1] // 2, 3))
             + 1j * rng.standard_normal((A.shape[1] // 2, 3)))
        BU = _box_apply(chart, U)
        assert np.array_equal(A[rows2][:, 1::2] @ U, BU)
        assert np.array_equal(A[rows1][:, 0::2] @ U.conj(), sign * BU.conj())
        assert A[rows2][:, 0::2].count_nonzero() == 0
        assert A[rows1][:, 1::2].count_nonzero() == 0

    @pytest.mark.parametrize("nx, radius, n", [
        (49, 1.0, 1), (65, 1.0, 1), (129, 1.0, 1), (257, 1.0, 1), (49, 1.0, 2),
        (9, 1.0, 1), (17, 0.73, 1), (97, 0.73, 1)],
        ids=["49", "65", "129", "257", "49-two-components", "9", "17-r0.73", "97-r0.73"])
    def test_matches_lsmr(self, nx, radius, n):
        # forming B^H B squares the condition number; check against LSMR on the
        # two-slot system, component by component
        chart, f, trace = _manufactured_solve_data(nx, radius)
        if n == 2:
            X, Y = chart.grid()
            bn = chart.boundary_nodes
            extra = SpinorField.from_components(chart, [(np.cos(2 * Y) + 1j * X, X * Y)])
            f = SpinorField(chart, np.concatenate([f.values, extra.values], axis=2))
            ring = np.stack([X ** 3, 1j * Y + 0.5], axis=-1)[bn[:, 0], bn[:, 1]]
            trace = np.concatenate([trace, ring[:, None, :]], axis=1)
        sol, _ = disk_solve(f, trace)
        A = _reference_system(chart)
        act = chart.active
        for c in range(n):
            b = _reference_rhs(chart, f, trace, c)
            x = scipy.sparse.linalg.lsmr(A, b, atol=1e-14, btol=1e-14,
                                         maxiter=20 * A.shape[1])[0]
            got = np.stack([sol.values[act, c, 0], sol.values[act, c, 1]], axis=-1).ravel()
            assert np.linalg.norm(got - x) <= 1e-9 * np.linalg.norm(x)

    def test_unreachable_tol_and_nonfinite_source_raise(self, disk33):
        _, f, trace = _manufactured_solve_data(33)
        with pytest.raises(SolverError) as err:
            disk_solve(f, trace, tol=1e-30)
        assert len(err.value.history) >= 3         # refinement ran, then stalled
        bad = SpinorField.zeros(disk33, 1)
        bad.values[16, 16, 0, 0] = np.inf
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(SolverError):
            disk_solve(bad, np.zeros_like(trace))


class TestDiracInverse:
    def test_torus_is_the_spectral_inverse(self, torus64):
        assert dirac_inverse(torus64) is dirac_inverse_spectral

    def test_disk_default_trace_is_zero(self, disk33):
        f = compact_bump_field(disk33)
        zero = np.zeros((disk33.boundary_nodes.shape[0], 1, 2), complex)
        assert np.array_equal(dirac_inverse(disk33)(f).values,
                              disk_solve(f, zero)[0].values)

    @pytest.mark.parametrize("chart", [
        GridChart.rect(17), GridChart.sphere(17), GridChart.cylinder(16, 16, 0.0, 1.0)],
        ids=["rect", "sphere", "cylinder"])
    def test_other_charts_rejected(self, chart):
        with pytest.raises(ConfigurationError, match="not defined"):
            dirac_inverse(chart)


class TestEstimateRatio:
    def test_drift_and_determinism(self):
        rep1 = estimate_ratio(4.0 / 3.0, trials=4, refinements=(25, 49), seed=3)
        rep2 = estimate_ratio(4.0 / 3.0, trials=4, refinements=(25, 49), seed=3)
        assert rep1["levels"] == rep2["levels"]
        assert max(rep1["drift"]) < 0.2

    def test_bad_exponent_rejected(self):
        with pytest.raises(PreconditionError):
            estimate_ratio(2.0, 2, (25,))
        with pytest.raises(PreconditionError):
            estimate_ratio(5.0, 2, (25,))
