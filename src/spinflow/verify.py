"""Self-verification behind ``spinflow verify``.

The report checks the identities the analysis rests on: the Clifford
relations, the chirality projectors, the null identity, ``D^2 = -Laplace``
(exact in spectral mode, O(h^2) in FD mode), the Green representation (FFT
against direct summation, and the O(h^2) round trip ``K * D psi = psi``), the
drift of the empirical boundary-estimate ratio, and the energy transfer of
the conformal maps.

``verify.break_stencil`` is the negative control: the two FD checks then run
with a Dirac operator whose x-term is mis-scaled by 5%, and must fail.
"""

from __future__ import annotations

import numpy as np

from . import dirac, green
from .charts import GridChart, SpinorField
from .config import RunConfig
from .conformal import rescale, sphere_transfer, to_cylinder
from .fields import compact_bump_field, torus_mode_field
from .solve import smallness
from .spinors import chirality_project, clifford_defect, clifford_multiply, energy, lp_norm
from .weierstrass import null_identity_defect


def _broken_dirac(psi: SpinorField, mode: str) -> SpinorField:
    """The Dirac operator with its x-term scaled by 1.05: D + 0.05 e_1 d/dx."""
    dx = SpinorField(psi.chart, dirac.diff_x(psi.values, psi.chart))
    return dirac.dirac_apply(psi, mode) + 0.05 * clifford_multiply(1, dx)


def _rate_check(errors, lo=3.0, hi=5.0):
    factors = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    ok = all(lo <= f <= hi for f in factors)
    return ok, factors


def _conformal_errors(sizes):
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

    defect = clifford_defect()
    add("clifford_relations", defect <= 1e-12, defect, 1e-12)

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
    op = _broken_dirac if cfg["verify.break_stencil"] else dirac.dirac_apply
    wres = dirac.weitzenboeck_residual(probe, "spectral")
    add("weitzenboeck_spectral", wres <= 1e-10, wres, 1e-10)
    fd_res = []
    for nx in sizes:
        ch = GridChart.torus(int(nx), spin_structure="AA")
        fd_res.append(dirac.weitzenboeck_residual(torus_mode_field(ch, 0.5, 1, seed), "fd",
                                                  op=op))
    ok, factors = _rate_check(fd_res)
    add("weitzenboeck_fd_rate", ok, factors, [3.0, 5.0], detail=fd_res)

    rec_errors = []
    for nx in sizes:
        ch = GridChart.disk(int(nx) | 1, 1.0)
        psi_c = compact_bump_field(ch)
        f = op(psi_c, "fd")
        w = green.green_convolve(f, "fft")
        rec_errors.append(lp_norm(w - psi_c, 2) / lp_norm(psi_c, 2))
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

    conf = _conformal_errors(sizes)
    for name, floor in (("rescale", 1e-9), ("cylinder", 1e-9), ("sphere", 1e-12)):
        errs = conf[name]
        last_ok = errs[-1] <= 5e-4
        improving = all(errs[k + 1] <= max(errs[k] / 2.0, floor)
                        for k in range(len(errs) - 1))
        add(f"conformal_{name}", last_ok and improving, errs, 5e-4)

    report = {
        "command": "verify",
        "seed": seed,
        "sizes": list(int(s) for s in sizes),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
        "smallness": smallness(1.0, energy(probe), cfg["solver.guard"]),
    }
    return report
