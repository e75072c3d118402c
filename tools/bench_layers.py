"""Per-layer timings of the torus solve path and the disk Green layer.

    PYTHONPATH=src python3 tools/bench_layers.py --label change --out BENCH_9.json

Times these operators on an AA torus with n = 2 at 128^2, 192^2 and 256^2:

* ``reactions._contract`` with a constant tensor and the pairing matrix;
* ``GeneralCubic.rhs`` and ``GeneralCubic.linearize``;
* ``spinors.component_inners``;
* one ``picard_solve`` of a manufactured target (amplitude 0.3, tol 1e-8).

The reaction is the ``general_cubic`` tensor the CLI builds for
``reaction.h = 1.0``, the same one the ``torus-solve`` benchmark workload
solves.  Each entry is the median of ``--repeats`` timed calls (at least 5)
with the min and max, after one untimed warm-up call; the Picard entry also
records its sweep count.

On a unit disk with n = 1 at 97, 129 and 257 nodes it times:

* ``green.disk_solve`` cold: each timed call follows
  ``_disk_factor.cache_clear()``, so it pays for the SuperLU factor;
* ``green.disk_solve`` warm, with the factor cached;
* ``green.green_convolve`` on its FFT route.

The source is ``windowed_mode_field`` of the seed, which vanishes near the
edge as ``green_convolve`` requires; the disk solve adds the ring values of
(e^{ix}, 0) as its boundary trace.

The results go under ``runs[<label>]`` of the output JSON with the machine:
CPU count, numpy and scipy versions and the BLAS thread variables.  Labels
already in the file are kept, so two source trees can be measured
into one file by pointing ``PYTHONPATH`` at each tree's ``src`` in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy

from spinflow.charts import GridChart, SpinorField
from spinflow.config import parse_config
from spinflow.dirac import dirac_apply
from spinflow.fields import torus_mode_field
from spinflow.green import _disk_factor, disk_solve, green_convolve, windowed_mode_field
from spinflow.reactions import _contract
from spinflow.rng import SplitMix64
from spinflow.solve import picard_solve
from spinflow.spinors import component_inners

SIZES = (128, 192, 256)
DISK_SIZES = (97, 129, 257)
N = 2
SEED = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _time(fn, repeats: int, before=None) -> dict:
    """Median, min and max of ``repeats`` timed calls of ``fn`` after one
    untimed warm-up; ``before`` runs untimed ahead of each call."""
    samples = []
    for k in range(repeats + 1):
        if before is not None:
            before()
        start = time.perf_counter()
        fn()
        if k:
            samples.append(time.perf_counter() - start)
    return {"median_s": statistics.median(samples), "min_s": min(samples),
            "max_s": max(samples), "repeats": repeats}


def measure(size: int, repeats: int) -> dict:
    chart = GridChart.torus(size, spin_structure="AA")
    spec = parse_config("reaction.type = general_cubic\nreaction.h = 1.0\n").build_reaction()
    psi = torus_mode_field(chart, 0.3, N, SEED)
    delta = torus_mode_field(chart, 0.1, N, SEED + 1)
    P = component_inners(psi)
    forcing = dirac_apply(psi, "spectral") - spec.rhs(psi)
    sweeps = []

    def solve():
        _, rep = picard_solve(spec, SpinorField.zeros(chart, N), forcing=forcing, tol=1e-8)
        sweeps.append(rep.iterations)

    out = {
        "reactions._contract": _time(lambda: _contract(spec.tensor, P, psi.values), repeats),
        "reactions.GeneralCubic.rhs": _time(lambda: spec.rhs(psi), repeats),
        "reactions.GeneralCubic.linearize": _time(lambda: spec.linearize(psi, delta), repeats),
        "spinors.component_inners": _time(lambda: component_inners(psi), repeats),
        "solve.picard_solve": _time(solve, repeats),
    }
    out["solve.picard_solve"]["sweeps"] = sweeps[-1]
    return out


def measure_disk(nx: int, repeats: int) -> dict:
    chart = GridChart.disk(nx, 1.0)
    f = windowed_mode_field(chart, SplitMix64(SEED))
    bn = chart.boundary_nodes
    X, _ = chart.grid()
    trace = np.zeros((bn.shape[0], 1, 2), np.complex128)
    trace[:, 0, 0] = np.exp(1j * X[bn[:, 0], bn[:, 1]])
    return {
        "green.disk_solve.cold": _time(lambda: disk_solve(f, trace), repeats,
                                       before=_disk_factor.cache_clear),
        "green.disk_solve.warm": _time(lambda: disk_solve(f, trace), repeats),
        "green.green_convolve.fft": _time(lambda: green_convolve(f), repeats),
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
    doc["runs"][args.label] = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "threads": {k: os.environ.get(k) for k in THREAD_VARS}},
        "seed": SEED,
        "torus": {"chart": "torus AA", "n": N,
                  "sizes": {f"{s}x{s}": measure(s, args.repeats) for s in SIZES}},
        "disk": {"chart": "disk radius 1", "n": 1,
                 "sizes": {f"{s}x{s}": measure_disk(s, args.repeats) for s in DISK_SIZES}},
    }
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for chart in ("torus", "disk"):
        for size, layers in doc["runs"][args.label][chart]["sizes"].items():
            for name, t in layers.items():
                sys.stdout.write(f"{args.label} {chart} {size} {name}: "
                                 f"{1e3 * t['median_s']:.2f} ms "
                                 f"[{1e3 * t['min_s']:.2f}-{1e3 * t['max_s']:.2f}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
