"""Command line interface.

    spinflow solve       --config cfg [--out dir] [--seed u64]
    spinflow reconstruct --config cfg --field f.spnf [--out dir]
    spinflow blowup      --config cfg --fields f0.spnf f1.spnf ... [--out dir]
                         [--background bg.spnf]
    spinflow verify      --config cfg [--out dir] [--seed u64]

Reports are JSON with sorted keys and no timestamps; identical config and
seed reproduce identical bytes.  SPINFLOW_THREADS is accepted for interface
compatibility and validated; the implementation is serial, so results are
independent of it by construction.

Exit codes: 0 success; 1 verification failure; 2 configuration error;
3 I/O error; 4 file-format error; 5 solver divergence/non-convergence;
6 other precondition violations.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import blowup as blowup_mod
from . import dirac, green
from .charts import GridChart, SpinorField
from .conformal import rescale, sphere_transfer, to_cylinder
from .config import RunConfig, load_config
from .errors import (ConfigurationError, DivergenceError, FormatError,
                     SolverError, SpinflowError)
from .fieldfile import read_field, write_field
from .fields import compact_bump_field, torus_mode_field
from .reactions import ScalarH
from .solve import newton_refine, picard_solve, residual, smallness_margin
from .spinors import CliffordRep, chirality_project, energy, scalar_lp_norm
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


def _smallness_block(cfg: RunConfig, psi: SpinorField) -> dict:
    spec = cfg.build_reaction()
    guard = cfg["solver.guard"]
    try:
        margin = smallness_margin(spec, psi)
        h0 = spec.coefficient_bounds(psi.chart)[0]
    except ConfigurationError:
        margin, h0 = 0.0, 0.0
    return {"h0": h0, "margin": margin, "guard": guard,
            "flagged": bool(margin >= guard)}


def _threads_env() -> int:
    raw = os.environ.get("SPINFLOW_THREADS", "1")
    try:
        val = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"SPINFLOW_THREADS must be an integer, got {raw!r}") from exc
    if val < 1:
        raise ConfigurationError("SPINFLOW_THREADS must be >= 1")
    return val


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(cfg: RunConfig, out_dir: str, seed: int) -> int:
    chart = cfg.build_chart()
    if chart.kind != "torus":
        raise ConfigurationError("the solve subcommand runs on torus charts")
    spec = cfg.build_reaction()
    n = cfg.reaction_components()
    report: dict = {"command": "solve", "seed": seed,
                    "chart": {"domain": chart.kind, "nx": chart.nx, "ny": chart.ny,
                              "spin_structure": chart.spin_structure},
                    "reaction": cfg["reaction.type"]}
    forcing = None
    psi_star = None
    if cfg["solver.manufactured"]:
        psi_star = torus_mode_field(chart, cfg["solver.amplitude"], n, seed)
        forcing = dirac.dirac_apply(psi_star, "spectral") - spec.rhs(psi_star)
    seed_field = SpinorField.zeros(chart, n)
    psi, prep = picard_solve(spec, seed_field, forcing=forcing,
                             damping=cfg["solver.damping"], tol=cfg["solver.tol"],
                             max_iter=cfg["solver.max_iter"], guard=cfg["solver.guard"])
    report["picard"] = {
        "converged": prep.converged,
        "iterations": prep.iterations,
        "final_residual": prep.final_residual,
        "residual_history": prep.residual_norms,
        "update_history": prep.update_norms,
    }
    if cfg["solver.newton"] and prep.converged:
        psi, nrep = newton_refine(spec, psi, forcing=forcing,
                                  tol=cfg["solver.newton_tol"])
        report["newton"] = {"converged": nrep.converged, "stagnated": nrep.stagnated,
                            "steps": nrep.steps, "residual_history": nrep.residual_norms,
                            "reason": nrep.reason}
    _, final_res = residual(spec, psi, forcing, mode="spectral")
    report["final_residual"] = final_res
    report["energy"] = energy(psi)
    report["smallness"] = _smallness_block(cfg, psi)
    if psi_star is not None:
        report["manufactured_error_sup"] = float(np.abs(psi.values - psi_star.values).max())
    write_field(os.path.join(out_dir, "solution.spnf"), psi)
    path = _write_report(out_dir, "solve_report.json", report)
    sys.stdout.write(f"solve: converged={prep.converged} residual={final_res:.3e} "
                     f"report={path}\n")
    if not prep.converged:
        raise SolverError("Picard iteration did not converge", prep.residual_norms)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def _write_obj(path: str, mesh) -> None:
    chart = mesh.chart
    act = chart.active.ravel()
    remap = -np.ones(act.size, dtype=np.int64)
    remap[act] = np.arange(int(act.sum()))
    V = mesh.vertices.reshape(-1, 3)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for vid in np.flatnonzero(act):
            x, y, z = (float(c) for c in V[vid])
            fh.write(f"v {x!r} {y!r} {z!r}\n")
        for (a, b, c) in mesh.faces:
            fh.write(f"f {remap[a] + 1} {remap[b] + 1} {remap[c] + 1}\n")


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
        "smallness": _smallness_block(cfg, psi),
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
    charts = {f.chart.signature() for f in sequence}
    if len(charts) != 1:
        raise ConfigurationError("sequence fields live on different charts")
    background = (read_field(background_path) if background_path
                  else SpinorField.zeros(sequence[0].chart, sequence[0].n))
    if background.chart != sequence[0].chart:
        raise ConfigurationError("background chart does not match the sequence")
    if any(f.n != sequence[0].n for f in sequence + [background]):
        raise ConfigurationError("sequence and background fields differ in component count")
    eps = cfg["analysis.epsilon"]
    radii = cfg["analysis.radii"]
    points = blowup_mod.blowup_set(sequence, eps, radii)
    spec = cfg.build_reaction()
    try:
        h0 = spec.coefficient_bounds(sequence[0].chart)[0]
    except ConfigurationError:
        h0 = 0.0
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
    ledger = blowup_mod.ledger_assemble(sequence, background, bubbles, h0=h0,
                                        guard=cfg["solver.guard"])
    report = {
        "command": "blowup",
        "epsilon": eps,
        "radii": list(radii),
        "sequence_length": len(sequence),
        "sequence_energies": [energy(f) for f in sequence],
        "points": point_reports,
        "ledger": {
            "total_limit": ledger.total_limit,
            "background": ledger.background,
            "bubble_total": ledger.bubble_total(),
            "defect": ledger.defect,
            "defect_fraction": abs(ledger.defect) / max(ledger.total_limit, 1e-300),
            "energy_bound": ledger.energy_bound,
        },
        "smallness": {"h0": h0, "margin": ledger.guard,
                      "guard": cfg["solver.guard"], "flagged": ledger.guard_flagged},
    }
    path = _write_report(out_dir, "blowup_report.json", report)
    sys.stdout.write(f"blowup: points={len(points)} defect={ledger.defect:.4e} "
                     f"report={path}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _rate_check(errors, lo=3.0, hi=5.0):
    factors = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    ok = all(lo <= f <= hi for f in factors)
    return ok, factors


def _conformal_errors(sizes, seed):
    """Energy transfer errors for rescale / cylinder / sphere per size.

    The rescale and cylinder constructions keep boundary terms alive so the
    measured error is genuinely O(h^2); the sphere transfer shares the grid
    and should be exact to roundoff.
    """
    out = {"rescale": [], "cylinder": [], "sphere": []}
    for nx in sizes:
        nx = int(nx) | 1
        chart = GridChart.rect(nx, nx, (-1.0, 1.0, -1.0, 1.0))
        X, Y = chart.grid()
        g = np.exp(-(X ** 2 + Y ** 2) / 0.9) * (1.2 + 0.3 * np.sin(2.1 * X) * np.cos(1.7 * Y))
        psi = SpinorField.from_components(chart, [(g, 0.4j * g)])
        # offset node count so the zoom samples between source nodes
        target = GridChart.rect(nx + 17, nx + 17, (-2.0, 2.0, -2.0, 2.0))
        zoom = rescale(psi, (0.0, 0.0), 0.5, target)
        e0 = energy(psi)
        out["rescale"].append(abs(energy(zoom) - e0) / e0)

        disk = GridChart.disk(nx, 1.0)
        Xd, Yd = disk.grid()
        r = np.hypot(Xd, Yd)
        band = np.exp(-((r - 0.5) / 0.09) ** 2 / 2.0) * (1.0 + 0.4 * np.cos(3 * np.arctan2(Yd, Xd)))
        bpsi = SpinorField.from_components(disk, [(band, 0.25 * band)])
        r_in, r_out = 0.22, 0.82
        cyl = to_cylinder(bpsi, (0.0, 0.0), r_in, r_out)
        ann = ((r >= r_in) & (r <= r_out)) & disk.active
        e_ann = energy(bpsi, ann)
        out["cylinder"].append(abs(energy(cyl) - e_ann) / e_ann)

        bump = compact_bump_field(chart)
        on_sphere = sphere_transfer(bump, "toSphere")
        eb = energy(bump)
        out["sphere"].append(abs(energy(on_sphere) - eb) / eb)
    return out


def verify_report(cfg: RunConfig, seed: int) -> dict:
    checks: dict = {}

    def add(name, ok, value, threshold, detail=None):
        entry = {"pass": bool(ok), "value": value, "threshold": threshold}
        if detail is not None:
            entry["detail"] = detail
        checks[name] = entry

    rep = CliffordRep.standard()
    add("clifford_relations", rep.max_defect() <= 1e-12, rep.max_defect(), 1e-12)

    chart64 = GridChart.torus(64, spin_structure="AA")
    probe = torus_mode_field(chart64, 0.5, 1, seed)
    proj_sum = (chirality_project(+1, probe) + chirality_project(-1, probe)
                - probe).values
    idem = (chirality_project(+1, chirality_project(+1, probe))
            - chirality_project(+1, probe)).values
    proj_defect = float(max(np.abs(proj_sum).max(), np.abs(idem).max()))
    add("chirality_projectors", proj_defect <= 1e-12, proj_defect, 1e-12)

    null_defect = null_identity_defect(probe)
    scale = float(np.abs(probe.values).max()) ** 2
    add("null_identity", null_defect <= 1e-12 * max(scale, 1.0), null_defect, 1e-12)

    sizes = cfg["verify.sizes"]
    broken = cfg["verify.break_stencil"]
    ctx = dirac.broken_stencil() if broken else contextlib.nullcontext()
    with ctx:
        wres = dirac.weitzenboeck_residual(probe, "spectral")
        add("weitzenboeck_spectral", wres <= 1e-10, wres, 1e-10)
        fd_res = []
        for nx in sizes:
            ch = GridChart.torus(int(nx), spin_structure="AA")
            fd_res.append(dirac.weitzenboeck_residual(torus_mode_field(ch, 0.5, 1, seed), "fd"))
        ok, factors = _rate_check(fd_res)
        add("weitzenboeck_fd_rate", ok, factors, [3.0, 5.0], detail=fd_res)

        rec_errors = []
        for nx in sizes:
            ch = GridChart.disk(int(nx) | 1, 1.0)
            psi_c = compact_bump_field(ch)
            f = dirac.dirac_apply(psi_c, "fd")
            w = green.green_convolve(f, "fft")
            diff = np.sqrt(np.sum(np.abs(w.values - psi_c.values) ** 2, axis=(2, 3)))
            ref = np.sqrt(np.sum(np.abs(psi_c.values) ** 2, axis=(2, 3)))
            rec_errors.append(scalar_lp_norm(diff, ch, 2) / scalar_lp_norm(ref, ch, 2))
        ok, factors = _rate_check(rec_errors)
        add("green_roundtrip_rate", ok, factors, [3.0, 5.0], detail=rec_errors)

    ch_small = GridChart.disk(int(sizes[0]) | 1, 1.0)
    f_small = dirac.dirac_apply(compact_bump_field(ch_small), "fd")
    w_fft = green.green_convolve(f_small, "fft")
    w_dir = green.green_convolve(f_small, "direct")
    num = np.sqrt(np.sum(np.abs(w_fft.values - w_dir.values) ** 2))
    den = np.sqrt(np.sum(np.abs(w_dir.values) ** 2))
    agree = float(num / den)
    add("green_direct_vs_fft", agree <= 1e-10, agree, 1e-10)

    ratio = green.estimate_ratio(4.0 / 3.0, cfg["verify.ratio_trials"],
                                 cfg["verify.ratio_sizes"], seed=seed)
    drift = max(ratio["drift"]) if ratio["drift"] else 0.0
    add("estimate_ratio_drift", drift < 0.2, drift, 0.2,
        detail=[lv["max_ratio"] for lv in ratio["levels"]])

    conf = _conformal_errors(sizes, seed)
    for name, floor in (("rescale", 1e-9), ("cylinder", 1e-9), ("sphere", 1e-12)):
        errs = conf[name]
        last_ok = errs[-1] <= 5e-4
        improving = all(errs[k + 1] <= max(errs[k] / 2.0, floor)
                        for k in range(len(errs) - 1))
        add(f"conformal_{name}", last_ok and improving, errs, 5e-4)

    margin_probe = smallness_margin(ScalarH(1.0), probe)
    report = {
        "command": "verify",
        "seed": seed,
        "sizes": list(int(s) for s in sizes),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
        "smallness": {"h0": 1.0, "margin": margin_probe,
                      "guard": cfg["solver.guard"],
                      "flagged": bool(margin_probe >= cfg["solver.guard"])},
    }
    return report


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
        _threads_env()
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg["seed"]
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
