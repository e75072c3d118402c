"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured values.
Criteria with pinned grids run at those grids; every tolerance is asserted
exactly as stated, with roundoff floors only where a measured quantity sits
at machine precision (stated inline).
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from spinflow.charts import GridChart, SpinorField
from spinflow.blowup import blowup_set, decay_profile, extract_bubble, ledger_assemble
from spinflow.dirac import dirac_apply, weitzenboeck_residual
from spinflow.fields import (bubble_profile_energy, compact_bump_field,
                             enneper_field, planted_bubble, shell_bubble,
                             shell_profile_energy, smoothstep7, torus_mode_field)
from spinflow.green import estimate_ratio, green_convolve
from spinflow.reactions import ChiralUV, CurvatureCubic, GeneralCubic, ScalarH
from spinflow.solve import newton_refine, picard_solve, residual
from spinflow.spinors import chirality_project, clifford_defect, energy
from spinflow.verify import _conformal_errors
from spinflow.weierstrass import (integrate_surface, mean_curvature, mesh_area,
                                  null_identity_defect)

from conftest import bubbles_by_point, random_field, rel_l2


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_01_algebraic_layer(self):
        t0 = time.time()
        clifford = clifford_defect()
        chart = GridChart.torus(32, spin_structure="PP")
        psi = random_field(chart, seed=0)
        proj = np.abs((chirality_project(+1, psi) + chirality_project(-1, psi)
                       - psi).values).max()
        idem = np.abs((chirality_project(+1, chirality_project(+1, psi))
                       - chirality_project(+1, psi)).values).max()
        null = max(null_identity_defect(random_field(chart, seed=s, scale=0.8))
                   for s in range(5))
        dt = time.time() - t0
        worst = max(clifford, proj, idem, null)
        report("criterion-1 algebraic layer", worst <= 1e-12 and dt < 1.0,
               f"max defect {worst:.2e} (tol 1e-12), runtime {dt:.2f}s")

    def test_02_weitzenboeck(self):
        t0 = time.time()
        chart64 = GridChart.torus(64, spin_structure="AA")
        spectral = weitzenboeck_residual(torus_mode_field(chart64, 0.5, 1, 1),
                                         "spectral")
        fd = []
        for nx in (64, 128, 256):
            chart = GridChart.torus(nx, spin_structure="AA")
            fd.append(weitzenboeck_residual(torus_mode_field(chart, 0.5, 1, 1), "fd"))
        factors = [fd[0] / fd[1], fd[1] / fd[2]]
        dt = time.time() - t0
        ok = spectral <= 1e-10 and all(3.0 <= f <= 5.0 for f in factors) and dt < 10
        report("criterion-2 weitzenboeck", ok,
               f"spectral {spectral:.2e} (tol 1e-10), fd factors "
               f"{[round(f, 2) for f in factors]} (window [3,5]), runtime {dt:.1f}s")

    def test_03_green_roundtrip(self):
        t0 = time.time()
        errs = []
        for nx in (65, 129, 257):
            chart = GridChart.disk(nx, 1.0)
            psi_c = compact_bump_field(chart)
            f = dirac_apply(psi_c, "fd")
            w = green_convolve(f, "fft")
            errs.append(rel_l2(chart, w.values, psi_c.values))
        factors = [errs[0] / errs[1], errs[1] / errs[2]]
        chart65 = GridChart.disk(65, 1.0)
        f65 = dirac_apply(compact_bump_field(chart65), "fd")
        agree = rel_l2(chart65, green_convolve(f65, "direct").values,
                       green_convolve(f65, "fft").values)
        dt = time.time() - t0
        ok = all(3.0 <= f <= 5.0 for f in factors) and agree <= 1e-10 and dt < 60
        report("criterion-3 green roundtrip", ok,
               f"recovery errors {[f'{e:.2e}' for e in errs]}, factors "
               f"{[round(f, 2) for f in factors]} (window [3,5]), direct-vs-fft "
               f"{agree:.2e} (tol 1e-10), runtime {dt:.1f}s")

    @pytest.mark.parametrize("name,spec,n", [
        ("scalar_h", ScalarH(1.0), 1),
        ("general_cubic", None, 2),      # built below (seeded tensor)
        ("curvature_cubic", CurvatureCubic.constant_curvature(2, 1.0), 2),
        ("chiral_su2", ChiralUV("su2", h=0.7), 1),
        ("chiral_nil", ChiralUV("nil", h=0.7), 1),
        ("chiral_sl2", ChiralUV("sl2", h=0.7), 1),
    ])
    def test_04_manufactured_solve(self, name, spec, n):
        if spec is None:
            rng = np.random.default_rng(5)
            spec = GeneralCubic(0.5 * rng.standard_normal((2, 2, 2, 2)))
        t0 = time.time()
        # exact-forcing path at 128^2: residual floor after Newton
        chart = GridChart.torus(128, spin_structure="AA")
        psi_star = torus_mode_field(chart, 0.33, n, seed=11)
        forcing = dirac_apply(psi_star, "spectral") - spec.rhs(psi_star)
        sol, prep = picard_solve(spec, SpinorField.zeros(chart, n),
                                 forcing=forcing, tol=1e-9)
        sol, nrep = newton_refine(spec, sol, forcing=forcing, tol=1e-11)
        _, res = residual(spec, sol, forcing, mode="spectral")
        # FD-forcing path: discretization error decays at O(h^2)
        errs = []
        for nx in (64, 128, 256):
            ch = GridChart.torus(nx, spin_structure="AA")
            star = torus_mode_field(ch, 0.33, n, seed=11)
            forc = dirac_apply(star, "fd") - spec.rhs(star)
            s, _ = picard_solve(spec, SpinorField.zeros(ch, n), forcing=forc,
                                tol=1e-10)
            s, _ = newton_refine(spec, s, forcing=forc, tol=1e-12)
            errs.append(rel_l2(ch, s.values, star.values))
        factors = [errs[0] / errs[1], errs[1] / errs[2]]
        dt = time.time() - t0
        ok = (prep.converged and res <= 1e-9
              and all(f >= 3.0 for f in factors) and dt < 120)
        report(f"criterion-4 manufactured {name}", ok,
               f"residual {res:.2e} (tol 1e-9), fd-forcing errors "
               f"{[f'{e:.2e}' for e in errs]}, factors {[round(f, 2) for f in factors]}"
               f" (>= 3), runtime {dt:.1f}s")

    def test_05_conformal_invariance(self):
        t0 = time.time()
        errs = _conformal_errors((65, 129, 257))
        details = []
        ok = True
        for name in ("rescale", "cylinder", "sphere"):
            seq = errs[name]
            here_ok = seq[1] <= 5e-4
            # improving at least 3x per doubling, or already at roundoff
            for k in range(len(seq) - 1):
                here_ok &= seq[k + 1] <= max(seq[k] / 3.0, 1e-9)
            ok &= here_ok
            details.append(f"{name} {[f'{e:.2e}' for e in seq]}")
        dt = time.time() - t0
        report("criterion-5 conformal invariance", ok and dt < 60,
               f"{'; '.join(details)} (tol 5e-4 at 129, improving), runtime {dt:.1f}s")

    def test_06_weierstrass_plane(self):
        t0 = time.time()
        chart = GridChart.rect(129, 129, (0.0, 1.0, 0.0, 1.0))
        X, _ = chart.grid()
        psi = SpinorField.from_components(chart,
                                          [(np.zeros_like(X), np.ones_like(X))])
        mesh = integrate_surface(psi)
        area, e = mesh_area(mesh), energy(psi)
        H, _ = mean_curvature(mesh)
        max_h = float(np.nanmax(np.abs(H)))
        V = mesh.vertices.reshape(-1, 3)
        V = V[np.isfinite(V[:, 0])]
        centered = V - V.mean(axis=0)
        plane_fit = float(np.linalg.svd(centered, compute_uv=False)[-1])
        dt = time.time() - t0
        ok = (plane_fit <= 1e-8 and max_h <= 1e-8
              and area == 1.0 and e == 1.0 and dt < 5)
        report("criterion-6 weierstrass plane", ok,
               f"plane-fit {plane_fit:.2e}, max|H| {max_h:.2e} (tol 1e-8), "
               f"area {area} == energy {e} == 1, runtime {dt:.2f}s")

    def test_07_enneper(self):
        t0 = time.time()
        loops, gaps, max_hs = [], [], []
        for nx in (65, 129, 257):
            chart = GridChart.rect(nx, nx, (-1.0, 1.0, -1.0, 1.0))
            psi = enneper_field(chart)
            mesh = integrate_surface(psi)
            loops.append(mesh.loop_residual)
            gaps.append(abs(mesh_area(mesh) - energy(psi)) / energy(psi))
            H, _ = mean_curvature(mesh)
            max_hs.append(float(np.nanmax(np.abs(H))))
        h129 = 2.0 / 128.0
        # Enneper forms are quadratic polynomials, so the trapezoid loop
        # residual sits at roundoff, well under the O(h^2) requirement
        loop_ok = all(lo <= max(10.0 * h * h, 1e-10)
                      for lo, h in zip(loops, (2 / 64, 2 / 128, 2 / 256)))
        h_ok = max_hs[1] <= 0.05 and all(
            max_hs[k + 1] <= max(max_hs[k], 1e-8) for k in range(2))
        gap_ok = gaps[1] <= 1e-3
        dt = time.time() - t0
        ok = loop_ok and h_ok and gap_ok
        report("criterion-7 enneper", ok,
               f"loops {[f'{l:.1e}' for l in loops]} (<= O(h^2)), max|H| "
               f"{[f'{m:.1e}' for m in max_hs]} (tol 0.05 at 129, non-increasing"
               f" to floor), area gap {gaps[1]:.2e} (tol 1e-3), runtime {dt:.1f}s")

    def test_08_energy_identity(self):
        t0 = time.time()
        chart = GridChart.torus(128, spin_structure="PP")
        X, Y = chart.grid()
        bg_vals = np.zeros((128, 128, 1, 2), complex)
        # background in the opposite slot; its cross term with the bubbles
        # scales like bg^2 * lam and stays inside the defect budget
        bg_vals[..., 0, 1] = 0.15 * (1 + 0.3 * np.cos(2 * np.pi * X)) \
            * np.exp(2j * np.pi * Y)
        p1, p2 = (0.25, 0.25), (0.75, 0.75)

        from scipy.integrate import quad
        amp_core = (1.3 / bubble_profile_energy(1.0)) ** 0.25
        sigma = 0.25
        ring_mass, _ = quad(lambda u: np.exp(-2 * (u - 3.0) ** 2 / sigma ** 2) * u,
                            1.8, 4.2)
        amp_ring = (0.5 / (2 * np.pi * ring_mass)) ** 0.25
        amp_shell = (1.1 / shell_profile_energy(1.0)) ** 0.25

        def ring_vals(lam):
            dx = (X - p1[0] + 0.5) % 1.0 - 0.5
            dy = (Y - p1[1] + 0.5) % 1.0 - 0.5
            u = np.hypot(dx, dy) / lam
            prof = amp_ring / np.sqrt(lam) * np.exp(-(u - 3.0) ** 2 / (2 * sigma ** 2))
            out = np.zeros((128, 128, 1, 2), complex)
            out[..., 0, 0] = prof
            return out

        lams = [0.17 * 0.85 ** m for m in range(8)]
        seq = []
        for lam in lams:
            v = (bg_vals + planted_bubble(chart, p1, lam, amp_core)
                 + ring_vals(lam) + shell_bubble(chart, p2, lam, amp_shell))
            seq.append(SpinorField(chart, v))

        eps = 0.8
        radii = (0.16, 0.14, 0.125)
        points = blowup_set(seq, eps, radii)
        two_points = len(points) == 2

        scale_ok = False
        if two_points:
            shell_pt = points[1] if points[1].node[0] > 64 else points[0]
            ext = extract_bubble(seq, shell_pt, eps, search_radius=0.3)
            ratios = [rec / planted for rec, planted in zip(ext.lambdas, lams[4:])]
            scale_ok = all(0.5 <= r <= 2.0 for r in ratios)

        bubbles = [(points[0].node, lams[-1], p1, 1.3),
                   (points[0].node, lams[-1], p1, 0.5),
                   (points[1].node, lams[-1], p2, 1.1)] if two_points else []
        led = ledger_assemble(seq, SpinorField(chart, bg_vals), bubbles)
        groups = bubbles_by_point(led)
        grouped_ok = sorted(len(v) for v in groups.values()) == [1, 2]
        defect_frac = abs(led.defect) / led.total_limit
        dt = time.time() - t0
        ok = two_points and scale_ok and grouped_ok and defect_frac <= 0.01 and dt < 120
        report("criterion-8 energy identity", ok,
               f"points {[p.node for p in points]}, scale ratios in [0.5,2]: "
               f"{scale_ok}, grouping 2+1: {grouped_ok}, defect "
               f"{100 * defect_frac:.2f}% (tol 1%), runtime {dt:.1f}s")

    def test_09_neck_decay(self):
        chart = GridChart.disk(129, 1.0)
        radii = [0.8, 0.6, 0.45, 0.33, 0.25, 0.18, 0.12]
        smooth = decay_profile(enneper_field(chart), radii)
        X, Y = chart.grid()
        r = np.maximum(np.hypot(X, Y), 1e-9)
        spike = 4.0 * r ** -0.25 * smoothstep7(r / 0.05)
        vals = enneper_field(chart).values.copy()
        vals[..., 0, 0] += spike
        spiked = decay_profile(SpinorField(chart, vals), radii)
        ok = (smooth.exponent >= 0.1 and not smooth.flagged
              and spiked.exponent <= 0.02 and spiked.flagged)
        report("criterion-9 neck decay", ok,
               f"smooth exponent {smooth.exponent:.3f} (>= 0.1), spike exponent "
               f"{spiked.exponent:.4f} (<= 0.02, flagged={spiked.flagged})")

    def test_10_boundary_estimate_baseline(self):
        t0 = time.time()
        rep = estimate_ratio(4.0 / 3.0, trials=50, refinements=(65, 129, 257),
                             seed=0)
        drift = max(rep["drift"])
        baseline = [lv["max_ratio"] for lv in rep["levels"]]
        dt = time.time() - t0
        # the measured ratio is recorded as a regression baseline; no external
        # reference value exists for it
        report("criterion-10 boundary estimate", drift < 0.2,
               f"max ratios per level {[f'{b:.4f}' for b in baseline]}, drift "
               f"{drift:.3f} (tol 0.2), runtime {dt:.1f}s")

    def test_11_determinism(self, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("verify.sizes = 32, 64\nseed = 3\n", encoding="utf-8")
        solve_cfg = tmp_path / "solve.cfg"
        solve_cfg.write_text("chart.nx = 32\nreaction.type = general_cubic\n"
                             "reaction.h = 1.0\nsolver.manufactured = true\nseed = 3\n",
                             encoding="utf-8")
        outputs = []
        for threads in ("1", "4", "1"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            run = []
            for command, config in (("verify", cfg), ("solve", solve_cfg)):
                proc = subprocess.run(
                    [sys.executable, "-m", "spinflow.cli", command,
                     "--config", str(config), "--out", str(tmp_path)],
                    capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
                run.append(proc.stdout)
            for name in ("verify_report.json", "solution.spnf", "solve_report.json"):
                run.append((tmp_path / name).read_bytes())
            outputs.append(run)
        ok = outputs[0] == outputs[1] == outputs[2]
        report("criterion-11 determinism", ok,
               f"verify and solve outputs bit-identical across runs and "
               f"OPENBLAS_NUM_THREADS in {{1,4}}: {ok}")
