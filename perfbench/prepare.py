"""Generate the seeded inputs of one workload.

    python3 perfbench/prepare.py --workload NAME --seed N --out DIR

Fields are built with numpy here, not with ``spinflow.fields``, so a change
to the library's own field constructors cannot change what the benchmark
feeds it; they are written with ``spinflow.fieldfile.write_field``.  The
manifest ``DIR/manifest.json`` lists the sha256 of every input file, so runs
on two commits can be shown to read identical bytes, and records the numeric
stack the children will load.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np
import scipy

from spinflow.charts import GridChart, SpinorField
from spinflow.fieldfile import write_field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

TORUS_SOLVE_CFG = """\
chart.domain = torus
chart.nx = 192
chart.spin_structure = AA
reaction.type = general_cubic
reaction.n = 2
reaction.h = 1.0
solver.manufactured = true
solver.amplitude = 0.3
"""

VERIFY_RATIO_CFG = """\
verify.ratio_sizes = 65, 129, 257
verify.ratio_trials = 8
"""

ANALYZE_CFG = """\
analysis.epsilon = 1.0
analysis.radii = 0.16, 0.14, 0.125
analysis.search_radius = 0.2
"""

DISK_NODES = 97
DISK_TRACE_SIZE = 0.3
DISK_TRACE_MODES = 3
DISK_TRACE_RIPPLE = 0.1

TORUS_NODES = 256
BUBBLE_ENERGY = 1.1
SCALE0, SCALE_RATIO = 0.17, 0.88
SHELL_SUPPORT = (0.6, 1.4)

ENNEPER_NODES = 257


def _radial_energy(profile, upper: float) -> float:
    """2 pi int_0^upper profile(u)^4 u du by the trapezoid rule."""
    u = np.linspace(0.0, upper, 200001)
    f = profile(u) ** 4 * u
    return float(2.0 * np.pi * np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(u)))


def _gaussian_profile(u):
    """exp(-u^2/2), cut to zero by a C^3 step on u in [1, 1.4]."""
    s = np.clip((u - 1.0) / 0.4, 0.0, 1.0)
    return np.exp(-u * u / 2.0) * (1.0 - (35 * s ** 4 - 84 * s ** 5 + 70 * s ** 6 - 20 * s ** 7))


def _shell_profile(u):
    """sin^2 bump on the annulus u in SHELL_SUPPORT."""
    a, b = SHELL_SUPPORT
    return np.where((u >= a) & (u <= b), np.sin(np.pi * (u - a) / (b - a)) ** 2, 0.0)


def _min_image_radius(chart: GridChart, center) -> np.ndarray:
    X, Y = chart.grid()
    Lx, Ly = chart.params
    dx = (X - center[0] + 0.5 * Lx) % Lx - 0.5 * Lx
    dy = (Y - center[1] + 0.5 * Ly) % Ly - 0.5 * Ly
    return np.hypot(dx, dy)


def _write_cfg(out: str, text: str) -> None:
    with open(os.path.join(out, "run.cfg"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def prepare_disk(out: str, rng: np.random.Generator) -> None:
    """Seeded boundary trace: a constant of random phase per slot plus a small
    ripple of random Fourier modes |k| <= 3 in the boundary angle, scaled to
    sup norm DISK_TRACE_SIZE and stored on the ring nodes of an otherwise
    zero disk field.  The ripple is small so that every seed costs about the
    same number of sweeps and CG iterations."""
    chart = GridChart.disk(DISK_NODES, 1.0)
    ring = chart.boundary_nodes
    X, Y = chart.grid()
    theta = np.arctan2(Y[ring[:, 0], ring[:, 1]], X[ring[:, 0], ring[:, 1]])
    ks = np.arange(-DISK_TRACE_MODES, DISK_TRACE_MODES + 1)
    coef = DISK_TRACE_RIPPLE * (rng.normal(size=(2, ks.size))
                                + 1j * rng.normal(size=(2, ks.size)))
    coef[:, DISK_TRACE_MODES] = np.exp(2j * np.pi * rng.uniform(size=2))
    trace = np.exp(1j * np.outer(theta, ks)) @ coef.T          # (nb, 2)
    trace *= DISK_TRACE_SIZE / np.abs(trace).max()
    values = np.zeros((chart.ny, chart.nx, 1, 2), np.complex128)
    values[ring[:, 0], ring[:, 1], 0, :] = trace
    write_field(os.path.join(out, "trace.spnf"), SpinorField(chart, values))


def prepare_analyze(out: str, rng: np.random.Generator) -> None:
    """A 12-field sequence on a PP torus: one cut-Gaussian and one shell
    bubble at scales SCALE0 * SCALE_RATIO^m on a smooth background, the
    background alone, and an Enneper field on a rectangle."""
    chart = GridChart.torus(TORUS_NODES, spin_structure="PP")
    X, Y = chart.grid()
    # Centres stay 0.2 away from the periodic seam: `blowup_set` labels
    # clusters without wrap-around, so a cluster crossing the seam is
    # reported as two points (a known library defect, not a timing concern).
    c1 = rng.uniform(0.2, 0.35, 2)
    c2 = rng.uniform(0.65, 0.8, 2)
    phase_x, phase_y = rng.uniform(0.0, 2.0 * np.pi, 2)
    bg = np.zeros((chart.ny, chart.nx, 1, 2), np.complex128)
    bg[..., 0, 1] = (0.25 * (1.0 + 0.3 * np.cos(2 * np.pi * X + phase_x))
                     * np.exp(1j * (2 * np.pi * Y + phase_y)))
    amp_g = (BUBBLE_ENERGY / _radial_energy(_gaussian_profile, 1.4)) ** 0.25
    amp_s = (BUBBLE_ENERGY / _radial_energy(_shell_profile, SHELL_SUPPORT[1])) ** 0.25
    r1, r2 = _min_image_radius(chart, c1), _min_image_radius(chart, c2)
    for m in range(workloads.ANALYZE_LENGTH):
        lam = SCALE0 * SCALE_RATIO ** m
        v = bg.copy()
        v[..., 0, 0] = (amp_g * _gaussian_profile(r1 / lam)
                        + amp_s * _shell_profile(r2 / lam)) / np.sqrt(lam)
        write_field(os.path.join(out, f"seq{m:02d}.spnf"), SpinorField(chart, v))
    write_field(os.path.join(out, "background.spnf"), SpinorField(chart, bg))

    rect = GridChart.rect(ENNEPER_NODES, ENNEPER_NODES, (-1.0, 1.0, -1.0, 1.0))
    Xr, Yr = rect.grid()
    scale = rng.uniform(0.8, 1.0)
    c = np.exp(1j * np.pi / 4) / np.sqrt(2.0)
    values = np.zeros((rect.ny, rect.nx, 1, 2), np.complex128)
    values[..., 0, 0] = c
    values[..., 0, 1] = c * scale * (Xr + 1j * Yr)
    write_field(os.path.join(out, "enneper.spnf"), SpinorField(rect, values))


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # show_config's layout differs between numpy releases
        return "unknown"


def prepare(name: str, seed: int, out: str) -> dict:
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(seed)
    if name == "torus-solve":
        _write_cfg(out, TORUS_SOLVE_CFG)
    elif name == "disk-picard":
        prepare_disk(out, rng)
    elif name == "verify-ratio":
        _write_cfg(out, VERIFY_RATIO_CFG)
    elif name == "analyze":
        _write_cfg(out, ANALYZE_CFG)
        prepare_analyze(out, rng)
    else:
        raise ValueError(f"unknown workload {name!r}")
    files = {}
    for fname in sorted(os.listdir(out)):
        with open(os.path.join(out, fname), "rb") as fh:
            files[fname] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {"workload": name, "seed": seed, "inputs_sha256": files,
                "numpy": np.__version__, "scipy": scipy.__version__,
                "blas": blas_name()}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    prepare(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
