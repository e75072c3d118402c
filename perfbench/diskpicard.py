"""Disk script of the `disk-picard` workload.

    python3 perfbench/diskpicard.py --inputs DIR --out DIR [--check]

The CLI only solves on tori, so this script plays its part on the disk: it
reads the seeded boundary trace (the ring values of ``DIR/trace.spnf``),
runs ``picard_solve`` for ``D psi = H |psi|^2 psi`` with that trace, and
writes ``solution.spnf`` and a sorted-key ``report.json``.  Exit code 0 when
Picard converged, 5 otherwise (the CLI's code for non-convergence).

With ``--check`` it instead re-solves the linear problem with the converged
right-hand side and prints ``{"max_diff": ...}``: the distance between
``disk_solve(rhs(sol), trace)`` and ``sol``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from spinflow.charts import SpinorField
from spinflow.fieldfile import read_field, write_field
from spinflow.green import disk_solve
from spinflow.reactions import ScalarH
from spinflow.solve import picard_solve

H = 0.4
TOL = 1e-8
MAX_ITER = 60


def load_trace(inputs: str):
    ring_field = read_field(os.path.join(inputs, "trace.spnf"))
    ring = ring_field.chart.boundary_nodes
    return ring_field.chart, ring_field.values[ring[:, 0], ring[:, 1]]


def solve(inputs: str, out: str) -> int:
    chart, trace = load_trace(inputs)
    sol, rep = picard_solve(ScalarH(H), SpinorField.zeros(chart, 1), trace=trace,
                            tol=TOL, max_iter=MAX_ITER)
    os.makedirs(out, exist_ok=True)
    write_field(os.path.join(out, "solution.spnf"), sol)
    report = {"converged": rep.converged, "iterations": rep.iterations,
              "final_residual": rep.final_residual, "update_history": rep.update_norms}
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if rep.converged else 5


def check(inputs: str, out: str) -> dict:
    _, trace = load_trace(inputs)
    sol = read_field(os.path.join(out, "solution.spnf"))
    again, _ = disk_solve(ScalarH(H).rhs(sol), trace)
    return {"max_diff": float(np.abs(again.values - sol.values).max())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)
    if args.check:
        sys.stdout.write(json.dumps(check(args.inputs, args.out)) + "\n")
        return 0
    return solve(args.inputs, args.out)


if __name__ == "__main__":
    sys.exit(main())
