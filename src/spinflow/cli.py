"""Command line interface.

    spinflow solve       --config cfg [--out dir] [--seed u64]
    spinflow reconstruct --config cfg --field f.spnf [--out dir]
    spinflow blowup      --config cfg --fields f0.spnf f1.spnf ... [--out dir]
                         [--background bg.spnf]
    spinflow verify      --config cfg [--out dir] [--seed u64]

Reports are JSON with sorted keys and no timestamps; identical config and
seed reproduce identical bytes.  The checks behind ``verify`` live in
``spinflow.verify``; this module parses arguments, runs the commands and
writes their reports.

Exit codes: 0 success; 1 verification failure; 2 configuration error;
3 I/O error; 4 file-format error; 5 solver divergence/non-convergence;
6 other precondition violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import blowup as blowup_mod
from . import dirac
from .charts import SpinorField
from .config import RunConfig, checked, load_config
from .errors import (ConfigurationError, DivergenceError, FormatError,
                     SolverError, SpinflowError)
from .fieldfile import read_field, write_field
from .fields import torus_mode_field
from .solve import newton_refine, picard_solve, smallness
from .spinors import energy
from .verify import verify_report
from .weierstrass import (integrate_surface, induced_metric_residual,
                          mean_curvature, mesh_area, null_identity_defect)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_DIVERGED = 5
EXIT_PRECONDITION = 6


def _dump_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _write_report(out_dir: str, name: str, report: dict) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump_json(report))
    return path


def _h0(cfg: RunConfig, chart) -> float:
    """Sup of the configured cubic coefficient on ``chart``."""
    return cfg.build_reaction().coefficient_bound(chart)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(cfg: RunConfig, out_dir: str, seed: int) -> int:
    chart = cfg.build_chart()
    spec = cfg.build_reaction()
    report: dict = {"command": "solve", "seed": seed,
                    "chart": {"domain": chart.kind, "nx": chart.nx, "ny": chart.ny,
                              "spin_structure": chart.spin_structure},
                    "reaction": cfg["reaction.type"]}
    forcing = None
    psi_star = None
    if cfg["solver.manufactured"]:
        psi_star = torus_mode_field(chart, cfg["solver.amplitude"], spec.n, seed)
        forcing = dirac.dirac_apply(psi_star, "spectral") - spec.rhs(psi_star)
    seed_field = SpinorField.zeros(chart, spec.n)
    psi, prep = picard_solve(spec, seed_field, forcing=forcing,
                             damping=cfg["solver.damping"], tol=cfg["solver.tol"],
                             max_iter=cfg["solver.max_iter"])
    report["picard"] = {
        "converged": prep.converged,
        "iterations": prep.iterations,
        "final_residual": prep.final_residual,
        "residual_history": prep.residual_norms,
        "update_history": prep.update_norms,
        "damping_history": prep.damping_history, "reason": prep.reason,
    }
    report["final_residual"] = prep.final_residual
    if cfg["solver.newton"] and prep.converged:
        psi, nrep = newton_refine(spec, psi, forcing=forcing,
                                  tol=cfg["solver.newton_tol"])
        report["newton"] = {"converged": nrep.converged, "stagnated": nrep.stagnated,
                            "steps": nrep.steps, "residual_history": nrep.residual_norms,
                            "reason": nrep.reason}
        report["final_residual"] = nrep.residual_norms[-1]
    report["energy"] = energy(psi)
    report["smallness"] = smallness(_h0(cfg, chart), report["energy"], cfg["solver.guard"])
    if psi_star is not None:
        report["manufactured_error_sup"] = float(np.abs(psi.values - psi_star.values).max())
    write_field(os.path.join(out_dir, "solution.spnf"), psi)
    path = _write_report(out_dir, "solve_report.json", report)
    sys.stdout.write(f"solve: converged={prep.converged} "
                     f"residual={report['final_residual']:.3e} report={path}\n")
    if not prep.converged:
        raise SolverError("Picard iteration did not converge", prep.residual_norms)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def _write_obj(path: str, mesh) -> None:
    act = mesh.chart.active.ravel()
    remap = -np.ones(act.size, dtype=np.int64)
    remap[act] = np.arange(int(act.sum()))
    vertices = mesh.vertices.reshape(-1, 3)[act]
    faces = remap[mesh.faces] + 1
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("v %r %r %r\n" * len(vertices) % tuple(vertices.ravel().tolist()))
        fh.write("f %d %d %d\n" * len(faces) % tuple(faces.ravel().tolist()))


def _cmd_reconstruct(cfg: RunConfig, out_dir: str, field_path: str) -> int:
    psi = read_field(field_path)
    if psi.n != 1:
        raise ConfigurationError(
            f"surface reconstruction needs a single-component field, got n={psi.n}")
    mesh = integrate_surface(psi)
    area = mesh_area(mesh)
    e = energy(psi)
    H, excluded = mean_curvature(mesh)
    finite = H[np.isfinite(H)]
    report = {
        "command": "reconstruct",
        "field": os.path.basename(field_path),
        "null_identity_defect": null_identity_defect(psi),
        "loop_residual": mesh.loop_residual,
        "mesh_area": area,
        "energy": e,
        "area_identity_gap": abs(area - e) / max(e, 1e-300),
        "metric_residual": induced_metric_residual(mesh, psi),
        "mean_curvature": {
            "max_abs_interior": float(np.abs(finite).max()) if finite.size else 0.0,
            "mean_abs_interior": float(np.abs(finite).mean()) if finite.size else 0.0,
            "excluded_vertices": len(excluded),
        },
        "smallness": smallness(_h0(cfg, psi.chart), e, cfg["solver.guard"]),
    }
    obj_path = os.path.join(out_dir, "surface.obj")
    _write_obj(obj_path, mesh)
    path = _write_report(out_dir, "reconstruct_report.json", report)
    sys.stdout.write(f"reconstruct: area={area:.6g} energy={e:.6g} "
                     f"loop_residual={mesh.loop_residual:.3e} obj={obj_path} report={path}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# blowup
# ---------------------------------------------------------------------------

def _cmd_blowup(cfg: RunConfig, out_dir: str, field_paths, background_path) -> int:
    if len(field_paths) < 4:
        raise ConfigurationError("blowup analysis needs at least 4 fields")
    sequence = [read_field(p) for p in field_paths]
    blowup_mod._check_same_chart(sequence)
    background = (read_field(background_path) if background_path
                  else SpinorField.zeros(sequence[0].chart, sequence[0].n))
    if background.chart != sequence[0].chart:
        raise ConfigurationError("background chart does not match the sequence")
    if any(f.n != sequence[0].n for f in sequence + [background]):
        raise ConfigurationError("sequence and background fields differ in component count")
    eps = cfg["analysis.epsilon"]
    radii = cfg["analysis.radii"]
    points = blowup_mod.blowup_set(sequence, eps, radii)
    bubbles = []
    point_reports = []
    for p in points:
        ext = blowup_mod.extract_bubble(sequence, p, eps,
                                        search_radius=cfg["analysis.search_radius"])
        e_limit = energy(ext.limit)
        bubbles.append((p.node, ext.lambdas[-1], ext.centers[-1], e_limit))
        point_reports.append({
            "node": list(p.node),
            "location": list(p.location),
            "liminf_energy": p.liminf_energy,
            "scales": ext.lambdas,
            "centers": [list(c) for c in ext.centers],
            "bubble_energy": e_limit,
        })
    ledger = blowup_mod.ledger_assemble(sequence, background, bubbles)
    report = {
        "command": "blowup",
        "epsilon": eps,
        "radii": list(radii),
        "sequence_length": len(sequence),
        "sequence_energies": list(ledger.energies),
        "points": point_reports,
        "ledger": {
            "total_limit": ledger.total_limit,
            "background": ledger.background,
            "bubble_total": ledger.bubble_total(),
            "defect": ledger.defect,
            "defect_fraction": abs(ledger.defect) / max(ledger.total_limit, 1e-300),
            "energy_bound": ledger.energy_bound,
        },
        "smallness": smallness(_h0(cfg, sequence[0].chart), ledger.energy_bound,
                               cfg["solver.guard"]),
    }
    path = _write_report(out_dir, "blowup_report.json", report)
    sys.stdout.write(f"blowup: points={len(points)} defect={ledger.defect:.4e} "
                     f"report={path}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(cfg: RunConfig, out_dir: str, seed: int) -> int:
    report = verify_report(cfg, seed)
    _write_report(out_dir, "verify_report.json", report)
    sys.stdout.write(_dump_json(report))
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spinflow",
                                     description="nonlinear Dirac toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "reconstruct", "blowup", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        if name in ("solve", "verify"):
            p.add_argument("--seed", type=int, default=None)
        if name == "reconstruct":
            p.add_argument("--field", required=True)
        if name == "blowup":
            p.add_argument("--fields", nargs="+", required=True)
            p.add_argument("--background", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command in ("solve", "verify"):
            seed = cfg["seed"] if args.seed is None else checked("seed", args.seed, "--seed")
        out_dir = args.out
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "solve":
            return _cmd_solve(cfg, out_dir, seed)
        if args.command == "reconstruct":
            return _cmd_reconstruct(cfg, out_dir, args.field)
        if args.command == "blowup":
            return _cmd_blowup(cfg, out_dir, args.fields, args.background)
        return _cmd_verify(cfg, out_dir, seed)
    except ConfigurationError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except FormatError as exc:
        sys.stderr.write(f"format error: {exc}\n")
        return EXIT_FORMAT
    except (DivergenceError, SolverError) as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_DIVERGED
    except SpinflowError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
