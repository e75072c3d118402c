"""Per-layer timings of the Dirac operators, the torus solve path, the disk
Green layer and the analysis layers.

    PYTHONPATH=src python3 tools/bench_layers.py --label change --out BENCH_23.json

On an AA torus with n = 2 at 128^2, 192^2 and 256^2 it times
``dirac.dirac_apply`` in FD and in spectral mode and
``dirac.dirac_inverse_spectral`` on ``torus_mode_field`` of the seed, and
records the tracemalloc peak of one warm call of each (``peak_bytes``, with
the bytes of one field as ``field_bytes``).

On the same tori it times:

* ``reactions._contract`` with a constant tensor and the pairing matrix;
* ``GeneralCubic.rhs`` and ``GeneralCubic.linearize``;
* ``spinors.component_inners``;
* one ``picard_solve`` of a manufactured target (amplitude 0.3, tol 1e-8);
* one ``newton_refine`` (tol 1e-10) from that Picard solution, the Newton
  step of ``spinflow solve`` with its default tolerances.

The reaction is the ``general_cubic`` tensor the CLI builds for
``reaction.h = 1.0``, the same one the ``torus-solve`` benchmark workload
solves.  Each entry is the median wall time of ``--repeats`` timed calls (at
least 5) with the min and max, after one untimed warm-up call, and the median
``time.process_time`` of the same calls (``cpu_median_s``), which counts BLAS
worker threads too; the Picard entry also records its sweep count and the
Newton entry its step count, its GMRES matvec count (``linearize`` calls per
refine, counted in one extra untimed call) and the tracemalloc peak of one
warm call (``peak_bytes``).

On a unit disk with n = 1 at 97, 129 and 257 nodes it times:

* ``green.disk_solve`` cold: each timed call follows clearing the caches of
  ``_disk_system`` and ``_disk_factor``, so it pays for building the sparse
  system and its SuperLU factor;
* ``green.disk_solve`` warm, with both cached;
* ``green.green_convolve`` on its FFT route;
* ``dirac.diff_x`` and ``dirac.diff_y``, the bounded-axis finite differences
  with the boundary ring recomputed node by node;
* ``green.windowed_mode_field`` itself, whose cost is the matrix product in
  ``fields.plane_wave_sum``;
* ``ScalarH(0.4).rhs`` and ``ScalarH(0.4).linearize``;
* ``solve.picard_solve`` of ``ScalarH(0.4)`` from zero with the boundary
  trace 0.3 (e^{i theta}, e^{-2i theta}) at tol 1e-8, one warm
  ``disk_solve`` per sweep, with its sweep count;
* one ``solve.newton_refine`` (tol 1e-12) with that trace from the Picard
  iterate at tol 1e-2, with its step count and GMRES matvec count.

The source is ``windowed_mode_field`` of the seed, which vanishes near the
edge as ``green_convolve`` requires; the disk solve adds the ring values of
(e^{ix}, 0) as its boundary trace.  The linearization direction is
``windowed_mode_field`` of the next seed.

The analysis layers run on inputs shaped like those of the ``analyze``
benchmark workload, built with ``spinflow.fields``.  On a PP torus at 128^2
and 256^2 with an 8-field sequence of one cut-Gaussian bubble of energy 1.2
at scales 0.17 * 0.88^m, it times:

* ``blowup.local_energy_grid`` of the last field at radius 0.14;
* ``blowup.blowup_set`` with epsilon 1 and radii 0.16, 0.14, 0.125;
* ``blowup.extract_bubble`` of the point found, search radius 0.2.

The last two also record the tracemalloc peak of one warm call
(``peak_bytes``).

It times ``conformal.rescale`` at the two zooms the CLI makes, with the
tracemalloc peak of one warm call:

* ``analyze``: the last field of that sequence on the 256^2 PP torus, at
  scale 0.1 about the bubble's centre onto the radius-4 disk of 129 nodes,
  as ``blowup.extract_bubble`` builds its limit;
* ``verify``: the Gaussian-modulated field of ``verify``'s conformal check on
  the 129^2 square [-1, 1]^2, at scale 0.5 about the origin onto the 146^2
  square [-2, 2]^2.

On the square [-1, 1]^2 at 129 and 257 nodes with ``enneper_field`` of scale
0.9 it times ``weierstrass.integrate_surface``, ``weierstrass.mean_curvature``
and ``weierstrass.mesh_area`` of its mesh, and the CLI's OBJ writer
``cli._write_obj`` (into a temporary directory).

Each invocation appends one run, with the machine (CPU count, numpy and
scipy versions, BLAS thread variables), to the list ``runs[<label>]`` of the
output JSON, keeping every run already in the file.  Two source trees are
compared by alternating invocations with ``PYTHONPATH`` at each tree's
``src``, so a slow phase of a shared machine falls on both.  After each
invocation the medians across all runs of that label are printed, each with
the range of the per-run medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import scipy

from spinflow.blowup import blowup_set, extract_bubble, local_energy_grid
from spinflow.charts import GridChart, SpinorField
from spinflow.cli import _write_obj
from spinflow.config import parse_config
from spinflow.conformal import rescale
from spinflow.dirac import diff_x, diff_y, dirac_apply, dirac_inverse_spectral
from spinflow.fields import (bubble_profile_energy, enneper_field, planted_bubble,
                             torus_mode_field)
from spinflow.green import (_disk_factor, _disk_system, disk_solve, green_convolve,
                            windowed_mode_field)
from spinflow.reactions import GeneralCubic, ScalarH, _contract
from spinflow.rng import SplitMix64
from spinflow.solve import newton_refine, picard_solve
from spinflow.spinors import component_inners
from spinflow.weierstrass import integrate_surface, mean_curvature, mesh_area

SIZES = (128, 192, 256)
DISK_SIZES = (97, 129, 257)
BLOWUP_SIZES = (128, 256)
SURFACE_SIZES = (129, 257)
RADII = (0.16, 0.14, 0.125)
N = 2
SEED = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETTLE_S = 0.3


def _time(fn, repeats: int, before=None) -> dict:
    """Median, min and max wall time of ``repeats`` timed calls of ``fn`` after
    one untimed warm-up, and the median CPU time of the process (all threads)
    over the same calls; ``before`` runs untimed ahead of each call.  The
    pause first lets OpenBLAS workers left spinning by earlier calls go idle,
    so their CPU is not charged to ``fn``."""
    time.sleep(SETTLE_S)
    samples, cpu = [], []
    for k in range(repeats + 1):
        if before is not None:
            before()
        start, start_cpu = time.perf_counter(), time.process_time()
        fn()
        if k:
            samples.append(time.perf_counter() - start)
            cpu.append(time.process_time() - start_cpu)
    return {"median_s": statistics.median(samples), "min_s": min(samples),
            "max_s": max(samples), "cpu_median_s": statistics.median(cpu),
            "repeats": repeats}


def _peak_bytes(fn) -> int:
    """tracemalloc peak of one call of ``fn`` above the memory traced before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def measure_dirac(size: int, repeats: int) -> dict:
    psi = torus_mode_field(GridChart.torus(size, spin_structure="AA"), 0.3, N, SEED)
    out = {}
    for name, fn in (("dirac.dirac_apply.fd", lambda: dirac_apply(psi, "fd")),
                     ("dirac.dirac_apply.spectral", lambda: dirac_apply(psi, "spectral")),
                     ("dirac.dirac_inverse_spectral", lambda: dirac_inverse_spectral(psi))):
        out[name] = _time(fn, repeats)      # its warm-up call fills any cache
        out[name]["peak_bytes"] = _peak_bytes(fn)
        out[name]["field_bytes"] = psi.values.nbytes
    return out


class _CountingLinearize:
    """Mixed into a reaction, counts its ``linearize`` calls: one per GMRES matvec."""

    calls = 0

    def linearize(self, psi, delta):
        self.calls += 1
        return super().linearize(psi, delta)


class _CountingCubic(_CountingLinearize, GeneralCubic):
    pass


class _CountingScalar(_CountingLinearize, ScalarH):
    pass


def measure(size: int, repeats: int) -> dict:
    chart = GridChart.torus(size, spin_structure="AA")
    spec = parse_config("reaction.type = general_cubic\nreaction.h = 1.0\n").build_reaction()
    psi = torus_mode_field(chart, 0.3, N, SEED)
    delta = torus_mode_field(chart, 0.1, N, SEED + 1)
    P = component_inners(psi)
    forcing = dirac_apply(psi, "spectral") - spec.rhs(psi)
    start, _ = picard_solve(spec, SpinorField.zeros(chart, N), forcing=forcing, tol=1e-8)
    sweeps, steps = [], []

    def solve():
        _, rep = picard_solve(spec, SpinorField.zeros(chart, N), forcing=forcing, tol=1e-8)
        sweeps.append(rep.iterations)

    def refine():
        steps.append(newton_refine(spec, start, forcing=forcing, tol=1e-10)[1].steps)

    out = {
        "reactions._contract": _time(lambda: _contract(spec.tensor, P, psi.values), repeats),
        "reactions.GeneralCubic.rhs": _time(lambda: spec.rhs(psi), repeats),
        "reactions.GeneralCubic.linearize": _time(lambda: spec.linearize(psi, delta), repeats),
        "spinors.component_inners": _time(lambda: component_inners(psi), repeats),
        "solve.picard_solve": _time(solve, repeats),
        "solve.newton_refine": _time(refine, repeats),
    }
    out["solve.picard_solve"]["sweeps"] = sweeps[-1]
    out["solve.newton_refine"]["steps"] = steps[-1]
    counting = _CountingCubic(spec.tensor)
    newton_refine(counting, start, forcing=forcing, tol=1e-10)
    out["solve.newton_refine"]["gmres_matvecs"] = counting.calls
    out["solve.newton_refine"]["peak_bytes"] = _peak_bytes(refine)
    return out


def _clear_disk_caches():
    _disk_system.cache_clear()
    _disk_factor.cache_clear()


def measure_disk(nx: int, repeats: int) -> dict:
    chart = GridChart.disk(nx, 1.0)
    f = windowed_mode_field(chart, SplitMix64(SEED))
    bn = chart.boundary_nodes
    X, _ = chart.grid()
    trace = np.zeros((bn.shape[0], 1, 2), np.complex128)
    trace[:, 0, 0] = np.exp(1j * X[bn[:, 0], bn[:, 1]])
    delta = windowed_mode_field(chart, SplitMix64(SEED + 1))
    spec = ScalarH(0.4)
    return {
        **measure_disk_solvers(chart, spec, repeats),
        "green.disk_solve.cold": _time(lambda: disk_solve(f, trace), repeats,
                                       before=_clear_disk_caches),
        "green.disk_solve.warm": _time(lambda: disk_solve(f, trace), repeats),
        "green.green_convolve.fft": _time(lambda: green_convolve(f), repeats),
        "dirac.diff_x": _time(lambda: diff_x(f.values, chart), repeats),
        "dirac.diff_y": _time(lambda: diff_y(f.values, chart), repeats),
        "green.windowed_mode_field": _time(
            lambda: windowed_mode_field(chart, SplitMix64(SEED)), repeats),
        "reactions.ScalarH.rhs": _time(lambda: spec.rhs(f), repeats),
        "reactions.ScalarH.linearize": _time(lambda: spec.linearize(f, delta), repeats),
    }


def _polar_trace(chart: GridChart) -> np.ndarray:
    """0.3 (e^{i theta}, e^{-2i theta}) on the boundary ring, theta its polar angle."""
    bn = chart.boundary_nodes
    X, Y = chart.grid()
    angle = np.angle(X[bn[:, 0], bn[:, 1]] + 1j * Y[bn[:, 0], bn[:, 1]])
    return 0.3 * np.stack([np.exp(1j * angle), np.exp(-2j * angle)], axis=-1)[:, None]


def measure_disk_picard(chart: GridChart, spec, repeats: int) -> dict:
    trace = _polar_trace(chart)
    sweeps = []

    def solve():
        sweeps.append(picard_solve(spec, SpinorField.zeros(chart, 1), trace=trace,
                                   tol=1e-8, max_iter=60)[1].iterations)

    out = _time(solve, repeats)
    out["sweeps"] = sweeps[-1]
    return out


def measure_disk_solvers(chart: GridChart, spec, repeats: int) -> dict:
    trace = _polar_trace(chart)
    start, _ = picard_solve(spec, SpinorField.zeros(chart, 1), trace=trace, tol=1e-2)
    steps = []

    def refine():
        steps.append(newton_refine(spec, start, trace=trace, tol=1e-12)[1].steps)

    out = {"solve.picard_solve": measure_disk_picard(chart, spec, repeats),
           "solve.newton_refine": _time(refine, repeats)}
    out["solve.newton_refine"]["steps"] = steps[-1]
    counting = _CountingScalar(spec.h)
    newton_refine(counting, start, trace=trace, tol=1e-12)
    out["solve.newton_refine"]["gmres_matvecs"] = counting.calls
    return out


def measure_blowup(size: int, repeats: int) -> dict:
    chart = GridChart.torus(size, spin_structure="PP")
    amp = (1.2 / bubble_profile_energy(1.0)) ** 0.25
    seq = [SpinorField(chart, planted_bubble(chart, (0.3, 0.7), 0.17 * 0.88 ** m, amp))
           for m in range(8)]
    [point] = blowup_set(seq, 1.0, RADII)
    out = {"blowup.local_energy_grid": _time(lambda: local_energy_grid(seq[-1], 0.14),
                                             repeats)}
    for name, fn in (("blowup.blowup_set", lambda: blowup_set(seq, 1.0, RADII)),
                     ("blowup.extract_bubble",
                      lambda: extract_bubble(seq, point, 1.0, search_radius=0.2))):
        out[name] = _time(fn, repeats)
        out[name]["peak_bytes"] = _peak_bytes(fn)
    return out


def measure_rescale(repeats: int) -> dict:
    torus = GridChart.torus(256, spin_structure="PP")
    amp = (1.2 / bubble_profile_energy(1.0)) ** 0.25
    bubble = SpinorField(torus, planted_bubble(torus, (0.3, 0.7), 0.17 * 0.88 ** 7, amp))
    disk = GridChart.disk(129, radius=4.0)
    square = GridChart.rect(129, 129, (-1.0, 1.0, -1.0, 1.0))
    X, Y = square.grid()
    g = np.exp(-(X ** 2 + Y ** 2) / 0.9) * (1.2 + 0.3 * np.sin(2.1 * X) * np.cos(1.7 * Y))
    psi = SpinorField.from_components(square, [(g, 0.4j * g)])
    wide = GridChart.rect(146, 146, (-2.0, 2.0, -2.0, 2.0))
    out = {}
    for name, fn in (("analyze", lambda: rescale(bubble, (0.3, 0.7), 0.1, disk)),
                     ("verify", lambda: rescale(psi, (0.0, 0.0), 0.5, wide))):
        out[name] = {"conformal.rescale": _time(fn, repeats)}
        out[name]["conformal.rescale"]["peak_bytes"] = _peak_bytes(fn)
    return out


def measure_surface(nx: int, repeats: int) -> dict:
    psi = enneper_field(GridChart.rect(nx, nx, (-1.0, 1.0, -1.0, 1.0)), 0.9)
    mesh = integrate_surface(psi)
    with tempfile.TemporaryDirectory() as tmp:
        obj = os.path.join(tmp, "surface.obj")
        return {
            "weierstrass.integrate_surface": _time(lambda: integrate_surface(psi), repeats),
            "weierstrass.mean_curvature": _time(lambda: mean_curvature(mesh), repeats),
            "weierstrass.mesh_area": _time(lambda: mesh_area(mesh), repeats),
            "cli._write_obj": _time(lambda: _write_obj(obj, mesh), repeats),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", required=True, help="JSON file to write or extend")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")
    doc = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    runs = doc["runs"].setdefault(args.label, [])
    runs.append({
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "threads": {k: os.environ.get(k) for k in THREAD_VARS}},
        "seed": SEED,
        "dirac": {"chart": "torus AA", "n": N,
                  "sizes": {f"{s}x{s}": measure_dirac(s, args.repeats) for s in SIZES}},
        "torus": {"chart": "torus AA", "n": N,
                  "sizes": {f"{s}x{s}": measure(s, args.repeats) for s in SIZES}},
        "disk": {"chart": "disk radius 1", "n": 1,
                 "sizes": {f"{s}x{s}": measure_disk(s, args.repeats) for s in DISK_SIZES}},
        "blowup": {"chart": "torus PP", "n": 1, "sequence": 8,
                   "sizes": {f"{s}x{s}": measure_blowup(s, args.repeats)
                             for s in BLOWUP_SIZES}},
        "conformal": {"chart": "torus PP 256^2 -> disk 129; rect 129^2 -> rect 146^2",
                      "n": 1, "sizes": measure_rescale(args.repeats)},
        "surface": {"chart": "rect [-1, 1]^2", "n": 1,
                    "sizes": {f"{s}x{s}": measure_surface(s, args.repeats)
                              for s in SURFACE_SIZES}},
    })
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for chart in ("dirac", "torus", "disk", "blowup", "conformal", "surface"):
        for size, layers in runs[-1][chart]["sizes"].items():
            for name, t in layers.items():
                entries = [run[chart]["sizes"][size][name] for run in runs]
                meds = [e["median_s"] for e in entries]
                cpus = [e["cpu_median_s"] for e in entries if "cpu_median_s" in e]
                cpu = f" cpu {1e3 * statistics.median(cpus):.2f} ms" if cpus else ""
                peak = f" peak {t['peak_bytes'] / 2 ** 20:.1f} MB" if "peak_bytes" in t else ""
                sys.stdout.write(f"{args.label} {chart} {size} {name}: "
                                 f"{1e3 * statistics.median(meds):.2f} ms "
                                 f"[{1e3 * min(meds):.2f}-{1e3 * max(meds):.2f}]{cpu} "
                                 f"over {len(meds)} runs{peak}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
