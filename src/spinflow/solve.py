"""Residuals, damped Picard iteration, and Newton refinement.

Both solvers work on the fixed point psi = S(rhs(psi) + forcing) for the Dirac
inverse S that ``green.dirac_inverse`` picks for the chart (the exact spectral
inverse on kernel-free torus spin structures, or the disk boundary-value solve
with a fixed trace; any other chart is a ConfigurationError before any sweep).
Both gate on rho(psi) = psi - S(rhs(psi) + forcing): on the torus in the
spectral L^{4/3} norm of r = D psi - rhs(psi) - forcing (rho = Dinv r),
elsewhere in L2.  Picard's damping theta starts at 1 and only halves, down to
a floor, when an update fails to shrink: the map contracts in the small-energy
regime.  Newton's derivative is only real-linear (Hermitian pairings conjugate
one slot), so GMRES runs on the float64 view of the complex field and solves
(I - S0 o Drhs) delta = -rho, S0 = ``green.dirac_inverse`` without a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .charts import TORUS, SpinorField
from .dirac import dirac_apply
from .errors import ConfigurationError, DivergenceError
from .green import dirac_inverse
from .reactions import ReactionSpec
from .spinors import energy, lp_norm


def residual(spec: ReactionSpec, psi: SpinorField, forcing: SpinorField | None = None,
             mode: str = "fd") -> tuple:
    """(residual field, its L^{4/3} norm) for D psi = rhs(psi) + forcing."""
    return _residual(psi, spec.rhs(psi), forcing, mode)


def _residual(psi: SpinorField, reaction: SpinorField, forcing, mode: str) -> tuple:
    res = dirac_apply(psi, mode) - reaction
    if forcing is not None:
        res = res - forcing
    return res, lp_norm(res, 4.0 / 3.0)


def smallness(h0: float, e: float, guard: float) -> dict:
    """The small-energy policy, written once for every report: the margin
    h0 * sqrt(e) = h0 * ||psi||_{L4}^2 of a field of quartic energy ``e``,
    flagged when it reaches the guard."""
    margin = h0 * float(np.sqrt(e))
    return {"h0": h0, "margin": margin, "guard": guard, "flagged": bool(margin >= guard)}


def smallness_margin(spec: ReactionSpec, psi: SpinorField) -> float:
    """h0 * ||psi||_{L4}^2; values above the guard put the solve outside the
    proven contraction regime."""
    return smallness(spec.coefficient_bound(psi.chart), energy(psi), np.inf)["margin"]


@dataclass
class PicardReport:
    converged: bool
    iterations: int
    update_norms: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    final_residual: float = np.inf
    damping_history: list = field(default_factory=list)
    reason: str = ""


def picard_solve(spec: ReactionSpec, seed: SpinorField,
                 forcing: SpinorField | None = None, damping: float = 0.5,
                 tol: float = 1e-8, max_iter: int = 400, trace=None) -> tuple:
    """Picard iteration for D psi = rhs(psi) + forcing.

    The damping theta starts at 1 and halves, never below ``damping``, after
    each sweep whose update norm does not fall (``report.damping_history``).
    Stops when the L2 norm of the update drops below ``tol`` and the residual
    reaches 10 tol: on the torus the L^{4/3} residual of the new iterate,
    elsewhere update / theta, the L2 norm of rho of the iterate the sweep
    started from, measured by the sweep's own solve.  ``trace`` holds the disk
    boundary values (zero when None); on a torus it is a ConfigurationError.
    Raises DivergenceError when the update norm grows by 10x over 20
    iterations.  Returns (psi, PicardReport); ``report.reason`` is "converged"
    or names the sweep limit.
    """
    if not (0.0 < damping <= 1.0):
        raise ConfigurationError("damping must lie in (0, 1]")
    seed.validate()
    chart = seed.chart
    inverse = dirac_inverse(chart, trace)
    report = PicardReport(False, 0)
    psi = seed.copy()
    theta = 1.0
    reaction = None     # rhs of the current iterate, once a sweep needs it
    for it in range(1, max_iter + 1):
        # Overflow on the way to the divergence check is an expected, handled path.
        with np.errstate(over="ignore", invalid="ignore"):
            reaction = spec.rhs(psi) if reaction is None else reaction
            proposal = inverse(reaction if forcing is None else reaction + forcing)
            new = (1.0 - theta) * psi + theta * proposal
            du = lp_norm(new - psi, 2.0)
            report.update_norms.append(du)
            report.damping_history.append(theta)
            psi = new
            reaction = spec.rhs(psi) if chart.kind == TORUS else None
            rnorm = (_residual(psi, reaction, forcing, "spectral")[1]
                     if chart.kind == TORUS else du / theta)
            report.residual_norms.append(rnorm)
        report.iterations = it
        if not np.isfinite(du) or (it > 20 and du > 10.0 * report.update_norms[it - 21]):
            raise DivergenceError(
                f"Picard iteration diverged at sweep {it} (update norm {du:.3e})",
                report.update_norms)
        if du < tol and rnorm <= 10.0 * tol:
            report.converged = True
            break
        if it > 1 and du >= report.update_norms[-2]:
            theta = max(0.5 * theta, damping)
    report.reason = "converged" if report.converged else f"not converged after {max_iter} sweeps"
    report.final_residual = report.residual_norms[-1] if report.residual_norms else np.inf
    return psi, report


@dataclass
class NewtonReport:
    converged: bool
    stagnated: bool
    steps: int
    residual_norms: list = field(default_factory=list)
    reason: str = ""


def newton_refine(spec: ReactionSpec, psi: SpinorField,
                  forcing: SpinorField | None = None, tol: float = 1e-10,
                  max_steps: int = 5, trace=None) -> tuple:
    """Newton steps on the fixed-point residual rho of ``picard_solve``, same
    ``trace``: it strictly decreases or the report flags stagnation, and
    ``report.reason`` says why the steps stopped ("converged" on success).  A
    step leaves about rtol * rnorm, so GMRES runs to rtol = 0.1 tol / rnorm in
    [1e-10, 0.1].  ``psi`` is never written or copied."""
    chart = psi.chart
    fixed = dirac_inverse(chart, trace)
    inverse = fixed if trace is None else dirac_inverse(chart)
    shape = psi.values.shape

    def fixed_point_residual(at):
        # (norm, thunk of rho): on the torus Dinv r is built only for a step
        if chart.kind == TORUS:
            res, norm = residual(spec, at, forcing, mode="spectral")
            return norm, lambda: inverse(res)
        reaction = spec.rhs(at)
        rho = at - fixed(reaction if forcing is None else reaction + forcing)
        return lp_norm(rho, 2.0), lambda: rho

    rnorm, rho = fixed_point_residual(psi)
    report = NewtonReport(False, False, 0, [rnorm])
    for step in range(1, max_steps + 1):
        if rnorm <= tol:
            break
        import scipy.sparse.linalg  # after the break: a run that takes no step loads no scipy

        def matvec(vec):
            lin = spec.linearize(psi, SpinorField(
                chart, np.ascontiguousarray(vec).view(np.complex128).reshape(shape)))
            return vec - inverse(lin).values.view(np.float64).ravel()

        op = scipy.sparse.linalg.LinearOperator(
            (2 * np.prod(shape), 2 * np.prod(shape)), matvec=matvec, dtype=float)
        rhs_vec = -rho().values.view(np.float64).ravel()
        del rho   # not held through the Krylov solve
        # threaded, GMRES's vector operations cost twice the CPU for little wall time
        with one_blas_thread():
            sol, info = scipy.sparse.linalg.gmres(
                op, rhs_vec, atol=0.0, restart=40, maxiter=50,
                rtol=min(0.1, max(1e-10, 0.1 * tol / rnorm)))
        if info != 0:
            report.stagnated = True
            report.reason = f"gmres did not converge (info={info}) at step {step}"
            break
        candidate = SpinorField(chart, psi.values + sol.view(np.complex128).reshape(shape))
        new_norm, new_rho = fixed_point_residual(candidate)
        if not np.isfinite(new_norm) or new_norm >= rnorm:
            report.stagnated = True
            report.reason = (f"residual did not decrease at step {step} "
                             f"({rnorm:.3e} -> {new_norm:.3e})")
            break
        psi, rho, rnorm = candidate, new_rho, new_norm
        report.residual_norms.append(rnorm)
        report.steps = step
    if rnorm <= tol:
        report.converged = True
        report.reason = "converged"
    elif not report.stagnated:
        report.reason = f"not converged after {max_steps} steps"
    return psi, report
