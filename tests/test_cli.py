import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spinflow.charts import GridChart, SpinorField
from spinflow.cli import main
from spinflow.fieldfile import read_field, write_field
from spinflow.fields import (bubble_profile_energy, enneper_field,
                             planted_bubble)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "spinflow.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


def write_cfg(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSolve:
    def test_h_zero_converges_to_zero(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "chart.nx = 32\nreaction.h = 0.0\nsolver.newton = false\n")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "solve_report.json").read_text())
        assert rep["picard"]["converged"]
        assert rep["picard"]["reason"] == "converged"
        assert rep["final_residual"] == rep["picard"]["final_residual"]
        assert rep["energy"] <= 1e-12
        sol = read_field(tmp_path / "solution.spnf")
        assert np.abs(sol.values).max() < 1e-8

    def test_manufactured_recovery(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", """
chart.nx = 64
reaction.type = chiral_nil
reaction.h = 0.7
solver.manufactured = true
solver.tol = 1e-9
seed = 5
""")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "solve_report.json").read_text())
        assert rep["final_residual"] <= 1e-9
        assert rep["final_residual"] == rep["newton"]["residual_history"][-1]
        assert len(rep["picard"]["damping_history"]) == rep["picard"]["iterations"]
        assert rep["manufactured_error_sup"] <= 1e-9
        assert rep["smallness"]["flagged"] is False

    def test_malformed_config_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path / "bad.cfg", "chart.nx = 4\n")
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg, "--out", str(out)])
        assert code == 2
        assert not (out / "solution.spnf").exists()

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", """
chart.nx = 32
reaction.type = scalar_h
reaction.h = 1.0
solver.manufactured = true
solver.amplitude = 4.0
""")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 5

    def test_non_convergence_writes_both_files(self, tmp_path, capsys):
        # the sweep limit ends Picard unconverged: exit 5 after both files
        cfg = write_cfg(tmp_path / "c.cfg", """
chart.nx = 32
reaction.type = scalar_h
reaction.h = 1.0
solver.manufactured = true
solver.max_iter = 2
""")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 5
        rep = json.loads((out / "solve_report.json").read_text())
        assert rep["picard"]["converged"] is False
        assert rep["picard"]["reason"] == "not converged after 2 sweeps"
        assert "newton" not in rep
        assert read_field(out / "solution.spnf").chart.nx == 32
        assert "Picard iteration did not converge" in capsys.readouterr().err

    def test_divergence_writes_no_files(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", """
chart.nx = 32
reaction.type = scalar_h
reaction.h = 1.0
solver.manufactured = true
solver.amplitude = 4.0
""")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 5
        assert not (out / "solution.spnf").exists()
        assert not (out / "solve_report.json").exists()

    def test_missing_config_io_exit_code(self, tmp_path):
        code = main(["solve", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("seed,code", [(-1, 2), (2 ** 64, 2), (2 ** 64 - 1, 0)])
    def test_seed_flag_range(self, tmp_path, capsys, seed, code):
        """--seed obeys the range rule of the config key seed."""
        cfg = write_cfg(tmp_path / "c.cfg",
                        "chart.nx = 32\nreaction.h = 0.0\nsolver.newton = false\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out),
                     "--seed", str(seed)]) == code
        if code == 0:
            assert json.loads((out / "solve_report.json").read_text())["seed"] == seed
        else:
            assert f"seed = {seed} out of range" in capsys.readouterr().err
            assert not (out / "solution.spnf").exists()

    def test_solution_bytes_reproducible(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", """
chart.nx = 32
reaction.type = scalar_h
reaction.h = 0.8
solver.manufactured = true
seed = 9
""")
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = main(["solve", "--config", cfg, "--out", str(out)])
            assert code == 0
            blobs.append(((out / "solution.spnf").read_bytes(),
                          (out / "solve_report.json").read_bytes()))
        assert blobs[0] == blobs[1]


class TestReconstruct:
    def test_plane_obj(self, tmp_path):
        chart = GridChart.rect(33, 33, (0.0, 1.0, 0.0, 1.0))
        X, _ = chart.grid()
        psi = SpinorField.from_components(chart,
                                          [(np.zeros_like(X), np.ones_like(X))])
        write_field(tmp_path / "plane.spnf", psi)
        cfg = write_cfg(tmp_path / "c.cfg", "reaction.h = 0.0\n")
        code = main(["reconstruct", "--config", cfg,
                     "--field", str(tmp_path / "plane.spnf"), "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "reconstruct_report.json").read_text())
        assert rep["mesh_area"] == 1.0
        assert rep["energy"] == 1.0
        assert rep["mean_curvature"]["max_abs_interior"] <= 1e-8
        verts = []
        for line in (tmp_path / "surface.obj").read_text().splitlines():
            if line.startswith("v "):
                verts.append([float(t) for t in line.split()[1:]])
            elif line.startswith("f "):
                idx = [int(t) for t in line.split()[1:]]
                assert len(idx) == 3 and min(idx) >= 1 and max(idx) <= len(verts)
        pts = np.asarray(verts)
        assert pts.shape == (33 * 33, 3)
        centered = pts - pts.mean(axis=0)
        # smallest singular value measures out-of-plane scatter
        assert np.linalg.svd(centered, compute_uv=False)[-1] <= 1e-8

    def test_obj_line_endings(self, tmp_path):
        chart = GridChart.rect(9, 9, (0.0, 1.0, 0.0, 1.0))
        psi = enneper_field(chart)
        write_field(tmp_path / "f.spnf", psi)
        cfg = write_cfg(tmp_path / "c.cfg", "")
        main(["reconstruct", "--config", cfg, "--field", str(tmp_path / "f.spnf"),
              "--out", str(tmp_path)])
        raw = (tmp_path / "surface.obj").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_multicomponent_rejected(self, tmp_path):
        chart = GridChart.torus(8, spin_structure="PP")
        write_field(tmp_path / "f.spnf", SpinorField.zeros(chart, 2))
        cfg = write_cfg(tmp_path / "c.cfg", "")
        code = main(["reconstruct", "--config", cfg,
                     "--field", str(tmp_path / "f.spnf"), "--out", str(tmp_path)])
        assert code == 2

    def test_seed_flag_rejected(self, tmp_path):
        # reconstruct reads no seed, so the flag is an argparse usage error
        cfg = write_cfg(tmp_path / "c.cfg", "")
        proc = run_cli(["reconstruct", "--seed", "1", "--config", cfg,
                        "--field", str(tmp_path / "f.spnf"), "--out", str(tmp_path)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: spinflow")
        assert "unrecognized arguments: --seed 1" in proc.stderr

    def test_corrupt_field_exit_code(self, tmp_path, capsys):
        (tmp_path / "corrupt.spnf").write_bytes(b"NOTAFIELD")
        cfg = write_cfg(tmp_path / "c.cfg", "")
        code = main(["reconstruct", "--config", cfg,
                     "--field", str(tmp_path / "corrupt.spnf"), "--out", str(tmp_path)])
        assert code == 4
        assert str(tmp_path / "corrupt.spnf") in capsys.readouterr().err


class TestBlowup:
    @staticmethod
    def _write_sequence(tmp_path):
        chart = GridChart.torus(128, spin_structure="PP")
        X, Y = chart.grid()
        bg = np.zeros((128, 128, 1, 2), complex)
        bg[..., 0, 1] = 0.25 * (1 + 0.3 * np.cos(2 * np.pi * X)) * np.exp(2j * np.pi * Y)
        amp = (1.1 / bubble_profile_energy(1.0)) ** 0.25
        paths = []
        for m in range(8):
            lam = 0.2 * 0.78 ** m
            field = SpinorField(chart, bg + planted_bubble(chart, (0.75, 0.75), lam, amp))
            p = tmp_path / f"seq{m}.spnf"
            write_field(p, field)
            paths.append(str(p))
        bgp = tmp_path / "bg.spnf"
        write_field(bgp, SpinorField(chart, bg))
        return paths, str(bgp)

    def test_planted_single_bubble(self, tmp_path):
        paths, bgp = self._write_sequence(tmp_path)
        cfg = write_cfg(tmp_path / "c.cfg", """
analysis.epsilon = 1.0
analysis.radii = 0.12, 0.1, 0.08
analysis.search_radius = 0.2
reaction.h = 1.0
""")
        code = main(["blowup", "--config", cfg, "--fields", *paths,
                     "--background", bgp, "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "blowup_report.json").read_text())
        assert len(rep["points"]) == 1
        assert rep["ledger"]["defect_fraction"] <= 0.01
        # h0 = 1: the margin is ||psi||_{L4}^2 at the sequence's energy bound
        small = rep["smallness"]
        assert small["margin"] == pytest.approx(np.sqrt(rep["ledger"]["energy_bound"]))
        assert small["flagged"] == (small["margin"] >= small["guard"])

    def test_nonconcentrating_sequence_empty(self, tmp_path):
        chart = GridChart.torus(64, spin_structure="PP")
        X, Y = chart.grid()
        vals = np.zeros((64, 64, 1, 2), complex)
        vals[..., 0, 0] = 0.3 * np.exp(2j * np.pi * X)
        paths = []
        for m in range(4):
            p = tmp_path / f"f{m}.spnf"
            write_field(p, SpinorField(chart, vals))
            paths.append(str(p))
        cfg = write_cfg(tmp_path / "c.cfg", "analysis.epsilon = 0.5\n")
        code = main(["blowup", "--config", cfg, "--fields", *paths,
                     "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "blowup_report.json").read_text())
        assert rep["points"] == []
        assert abs(rep["ledger"]["defect"]
                   - rep["ledger"]["total_limit"]) <= 1e-12  # zero background default

    def test_chart_mismatch_exit_code(self, tmp_path):
        paths, _ = self._write_sequence(tmp_path)
        other = GridChart.torus(64, spin_structure="PP")
        write_field(tmp_path / "other.spnf", SpinorField.zeros(other, 1))
        cfg = write_cfg(tmp_path / "c.cfg", "")
        code = main(["blowup", "--config", cfg,
                     "--fields", *paths[:3], str(tmp_path / "other.spnf"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_component_count_mismatch_exit_code(self, tmp_path):
        paths, _ = self._write_sequence(tmp_path)
        chart = GridChart.torus(128, spin_structure="PP")
        write_field(tmp_path / "bg2.spnf", SpinorField.zeros(chart, 2))
        cfg = write_cfg(tmp_path / "c.cfg", "")
        code = main(["blowup", "--config", cfg, "--fields", *paths,
                     "--background", str(tmp_path / "bg2.spnf"), "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "blowup_report.json").exists()

    def test_nonfinite_field_named(self, tmp_path, capsys):
        chart = GridChart.torus(32, spin_structure="PP")
        paths = []
        for m in range(4):
            vals = np.zeros((32, 32, 1, 2), complex)
            vals[..., 0, 0] = 0.1 * (m + 1)
            paths.append(str(tmp_path / f"f{m}.spnf"))
            write_field(paths[-1], SpinorField(chart, vals))
        raw = bytearray((tmp_path / "f2.spnf").read_bytes())
        raw[56:64] = np.array([np.nan], "<f8").tobytes()   # real part of node (0, 0)
        (tmp_path / "f2.spnf").write_bytes(bytes(raw))
        cfg = write_cfg(tmp_path / "c.cfg", "")
        code = main(["blowup", "--config", cfg, "--fields", *paths, "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert paths[2] in err and "non-finite" in err
        assert not any(p in err for p in paths[:2] + paths[3:])
        assert not (tmp_path / "blowup_report.json").exists()

    def test_too_few_fields(self, tmp_path):
        paths, _ = self._write_sequence(tmp_path)
        cfg = write_cfg(tmp_path / "c.cfg", "")
        code = main(["blowup", "--config", cfg, "--fields", *paths[:3],
                     "--out", str(tmp_path)])
        assert code == 2


class TestVerify:
    def test_default_config_passes(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "verify.sizes = 32, 64\n")
        code = main(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rep = json.loads((tmp_path / "verify_report.json").read_text())
        assert rep["all_pass"] is True

    def test_broken_stencil_fails(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg",
                        "verify.sizes = 32, 64\nverify.break_stencil = true\n")
        code = main(["verify", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        rep = json.loads((tmp_path / "verify_report.json").read_text())
        assert rep["all_pass"] is False
        assert not rep["checks"]["weitzenboeck_fd_rate"]["pass"]

    def test_bit_identical_across_runs_and_threads(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", "verify.sizes = 32, 64\nseed = 3\n")
        solve_cfg = write_cfg(tmp_path / "s.cfg",
                              "chart.nx = 32\nreaction.type = general_cubic\n"
                              "reaction.h = 1.0\nsolver.manufactured = true\nseed = 3\n")
        outs = []
        for threads in ("1", "4", "1"):
            blas = {"OPENBLAS_NUM_THREADS": threads}
            proc = run_cli(["verify", "--config", cfg, "--out", str(tmp_path)],
                           env_extra=blas)
            assert proc.returncode == 0
            solve = run_cli(["solve", "--config", solve_cfg, "--out", str(tmp_path)],
                            env_extra=blas)
            assert solve.returncode == 0, solve.stderr
            outs.append((proc.stdout,
                         (tmp_path / "verify_report.json").read_bytes(),
                         (tmp_path / "solution.spnf").read_bytes(),
                         (tmp_path / "solve_report.json").read_bytes()))
        assert outs[0] == outs[1] == outs[2]


def _exit_case(name, tmp_path):
    """(argv, expected stderr fragment) of one pinned exit-code case."""
    cfg = tmp_path / "c.cfg"
    if name == "ok":
        write_cfg(cfg, "chart.nx = 32\nreaction.h = 0.0\nsolver.newton = false\n")
        return ["solve", "--config", str(cfg), "--out", str(tmp_path)], ""
    if name == "verify-failed":
        write_cfg(cfg, "verify.sizes = 32, 64\nverify.ratio_trials = 2\n"
                       "verify.break_stencil = true\n")
        return ["verify", "--config", str(cfg), "--out", str(tmp_path)], ""
    if name == "config-range":
        write_cfg(cfg, "chart.nx = 4\n")
        return ["solve", "--config", str(cfg), "--out", str(tmp_path)], "out of range"
    if name == "config-domain-key":
        write_cfg(cfg, "chart.nx = 32\nchart.radius = 2.0\nreaction.h = 0.0\n"
                       "solver.newton = false\n")
        return (["solve", "--config", str(cfg), "--out", str(tmp_path)],
                "unknown key 'chart.radius'")
    if name == "io":
        return (["solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)],
                "i/o error")
    if name == "format":
        write_cfg(cfg, "")
        (tmp_path / "corrupt.spnf").write_bytes(b"NOTAFIELD")
        return (["reconstruct", "--config", str(cfg), "--field",
                 str(tmp_path / "corrupt.spnf"), "--out", str(tmp_path)], "format error")
    if name == "diverged":
        write_cfg(cfg, "chart.nx = 32\nreaction.h = 1.0\nsolver.manufactured = true\n"
                       "solver.amplitude = 4.0\n")
        return ["solve", "--config", str(cfg), "--out", str(tmp_path)], "diverged"
    # precondition: the search radius is too small for the extraction to
    # bring the rescaled energy down to epsilon/2
    chart = GridChart.torus(64, spin_structure="PP")
    amp = (1.1 / bubble_profile_energy(1.0)) ** 0.25
    paths = []
    for m in range(6):
        p = tmp_path / f"seq{m}.spnf"
        write_field(p, SpinorField(chart, planted_bubble(chart, (0.5, 0.5),
                                                         0.2 * 0.8 ** m, amp)))
        paths.append(str(p))
    write_cfg(cfg, "analysis.epsilon = 0.5\nanalysis.radii = 0.2, 0.15\n"
                   "analysis.search_radius = 0.001\n")
    return (["blowup", "--config", str(cfg), "--fields", *paths, "--out", str(tmp_path)],
            "never reaches epsilon/2")


@pytest.mark.parametrize("name,code", [
    ("ok", 0), ("verify-failed", 1), ("config-range", 2), ("config-domain-key", 2),
    ("io", 3), ("format", 4), ("diverged", 5), ("precondition", 6)])
def test_exit_code_through_subprocess(tmp_path, name, code):
    argv, message = _exit_case(name, tmp_path)
    proc = run_cli(argv)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr


_LOADED_SCIPY = """
import json, sys
def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
from spinflow.cli import main
imported = scipy_modules()
assert main(sys.argv[1:]) == 0
print(json.dumps({"import": imported, "run": scipy_modules()}))
"""


def _loaded_scipy(argv):
    """scipy modules loaded in a fresh process by importing the CLI, and after
    running ``argv`` through it."""
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("seed,steps", [(2, 0), (1, 1)])
def test_torus_solve_loads_no_scipy(tmp_path, seed, steps):
    # a fresh process: importing the CLI loads no scipy, and neither does a
    # torus solve, whether or not its Newton stage takes a step
    cfg = write_cfg(tmp_path / "c.cfg", "chart.nx = 32\nreaction.type = general_cubic\n"
                                        "reaction.n = 2\nreaction.h = 1.0\n"
                                        "solver.manufactured = true\n")
    loaded = _loaded_scipy(["solve", "--config", cfg, "--out", str(tmp_path),
                            "--seed", str(seed)])
    assert json.loads((tmp_path / "solve_report.json").read_text())["newton"]["steps"] == steps
    assert loaded["import"] == []
    assert loaded["run"] == []


def test_blowup_loads_no_scipy_sparse(tmp_path):
    # a fresh process: on a torus blowup convolves, labels clusters across the
    # seams and rescales the bubble limit in numpy, so it loads no scipy at all
    chart = GridChart.torus(64, spin_structure="PP")
    amp = (1.1 / bubble_profile_energy(1.0)) ** 0.25
    paths = []
    for m in range(6):
        p = tmp_path / f"seq{m}.spnf"
        write_field(p, SpinorField(chart, planted_bubble(chart, (0.5, 0.5),
                                                         0.25 * 0.9 ** m, amp)))
        paths.append(str(p))
    cfg = write_cfg(tmp_path / "c.cfg", "analysis.epsilon = 1.0\nanalysis.radii = 0.25, 0.2\n"
                                        "analysis.search_radius = 0.25\n")
    loaded = _loaded_scipy(["blowup", "--config", cfg, "--fields", *paths,
                            "--out", str(tmp_path)])
    assert len(json.loads((tmp_path / "blowup_report.json").read_text())["points"]) == 1
    assert loaded["import"] == []
    assert loaded["run"] == []


def test_verify_loads_no_scipy(tmp_path):
    # a fresh process: verify convolves with numpy.fft and its conformal
    # checks resample in numpy
    cfg = write_cfg(tmp_path / "c.cfg", "verify.sizes = 32, 64\n")
    loaded = _loaded_scipy(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert loaded["import"] == []
    assert loaded["run"] == []
