"""Correctness gates of each workload, checked outside the timed region.

Tolerances come from the library's tests and the invariants it promises:
a case that misses any of them counts as failed.  Standard library only;
the disk gate re-solves the linear problem in a child process.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess

import workloads

DISK_TOL = 1e-6


def digest(out: str) -> str:
    """sha256 over the names and bytes of every output file."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _load(out: str, name: str) -> dict:
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _need(failures: list, ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def disk_check(inputs: str, out: str, env: dict) -> float:
    """max |disk_solve(rhs(sol), trace) - sol| for the disk solution in out."""
    cmd = workloads.command("diskpicard", ["--inputs", inputs, "--out", out, "--check"])
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])["max_diff"]


def check(name: str, codes: list, inputs: str, out: str, env: dict) -> list:
    """Failure messages of one case (empty when every gate passes)."""
    failures: list = []
    expected = [0] * len(workloads.steps(name, inputs, out, 0))
    _need(failures, codes == expected, f"exit codes {codes}, expected {expected}")
    try:
        if name == "torus-solve":
            rep = _load(out, "solve_report.json")
            _need(failures, rep["picard"]["converged"] is True, "picard did not converge")
            _need(failures, rep["final_residual"] <= 1e-9,
                  f"final_residual {rep['final_residual']:.3e} > 1e-9")
        elif name == "disk-picard":
            rep = _load(out, "report.json")
            _need(failures, rep["converged"] is True, "picard did not converge")
            diff = disk_check(inputs, out, env)
            _need(failures, diff <= DISK_TOL,
                  f"disk_solve(rhs(sol), trace) is {diff:.3e} from sol (> {DISK_TOL})")
        elif name == "verify-ratio":
            rep = _load(out, "verify_report.json")
            _need(failures, rep["all_pass"] is True, "verify all_pass is false")
        elif name == "analyze":
            rep = _load(out, "blowup_report.json")
            _need(failures, len(rep["points"]) == 2,
                  f"{len(rep['points'])} blow-up points, expected 2")
            frac = rep["ledger"]["defect_fraction"]
            _need(failures, frac <= 0.01, f"ledger defect_fraction {frac:.3e} > 0.01")
            rec = _load(out, "reconstruct_report.json")
            _need(failures, rec["loop_residual"] <= 1e-10,
                  f"loop_residual {rec['loop_residual']:.3e} > 1e-10")
            _need(failures, rec["area_identity_gap"] <= 1e-3,
                  f"area_identity_gap {rec['area_identity_gap']:.3e} > 1e-3")
            h_max = rec["mean_curvature"]["max_abs_interior"]
            _need(failures, h_max <= 0.05, f"interior max |H| {h_max:.3e} > 0.05")
    except (OSError, KeyError, TypeError, ValueError, subprocess.CalledProcessError) as exc:
        failures.append(f"outputs unreadable: {exc!r}")
    return failures
