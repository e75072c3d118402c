"""Residuals, damped Picard iteration, and Newton refinement.

The fixed-point map is psi <- (1 - theta) psi + theta Dinv(rhs(psi) + forcing)
with the exact spectral Dirac inverse on kernel-free torus spin structures,
or the disk boundary-value solve with a fixed trace.  Contraction holds in
the small-energy regime; the margin h0 * ||psi||_{L4}^2 against the
configured guard is tracked every sweep and flagged, never enforced.

Newton refinement linearizes the cubic term.  The derivative is only
real-linear (Hermitian pairings conjugate one slot), so the linear solve runs
GMRES on real-stacked vectors of the preconditioned update equation
(I - Dinv o Drhs) delta = -Dinv r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from .charts import DISK, TORUS, GridChart, SpinorField
from .dirac import dirac_apply, dirac_inverse_spectral, require_invertible
from .errors import ConfigurationError, DivergenceError
from .green import disk_solve
from .reactions import ReactionSpec
from .spinors import energy, lp_norm


def residual(spec: ReactionSpec, psi: SpinorField, forcing: SpinorField | None = None,
             mode: str = "fd") -> tuple:
    """(residual field, its L^{4/3} norm) for D psi = rhs(psi) + forcing."""
    res = dirac_apply(psi, mode) - spec.rhs(psi)
    if forcing is not None:
        res = res - forcing
    return res, lp_norm(res, 4.0 / 3.0)


def smallness_margin(spec: ReactionSpec, psi: SpinorField) -> float:
    """h0 * ||psi||_{L4}^2; values above the guard put the solve outside the
    proven contraction regime."""
    h0, _ = spec.coefficient_bounds(psi.chart)
    return h0 * float(np.sqrt(energy(psi)))


@dataclass
class PicardReport:
    converged: bool
    iterations: int
    update_norms: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    final_residual: float = np.inf
    margin: float = 0.0
    guard: float = 0.5
    guard_flagged: bool = False
    damping: float = 0.5
    tol: float = 1e-8


def _make_inverse(chart: GridChart, trace):
    if chart.kind == TORUS:
        require_invertible(chart, "Picard iteration")
        return dirac_inverse_spectral, "spectral"
    if chart.kind == DISK:
        nb = chart.boundary_nodes.shape[0]

        def inv(f):
            tr = trace if trace is not None else np.zeros((nb, f.n, 2), complex)
            sol, _ = disk_solve(f, tr)
            return sol

        return inv, "fd"
    raise ConfigurationError(f"Picard iteration is not defined on {chart.kind!r} charts")


def picard_solve(spec: ReactionSpec, seed: SpinorField,
                 forcing: SpinorField | None = None, damping: float = 0.5,
                 tol: float = 1e-8, max_iter: int = 400, guard: float = 0.5,
                 trace=None) -> tuple:
    """Damped Picard iteration for D psi = rhs(psi) + forcing.

    Stops when the L2 norm of the update drops below ``tol``; on the torus
    (exact spectral inverse) the L^{4/3} residual must also reach 10 tol.  On
    the disk the reported residual is measured with the node-based FD operator
    and floors at its O(h^2) truncation against the cell-based inner solve, so
    only the update norm gates convergence there.  Raises DivergenceError when
    the update norm grows by 10x over 20 iterations.  Returns
    (psi, PicardReport).
    """
    if not (0.0 < damping <= 1.0):
        raise ConfigurationError("damping must lie in (0, 1]")
    seed.validate()
    chart = seed.chart
    inverse, res_mode = _make_inverse(chart, trace)
    report = PicardReport(False, 0, damping=damping, tol=tol, guard=guard)
    psi = seed.copy()
    for it in range(1, max_iter + 1):
        # Overflow on the way to the divergence check is an expected, handled path.
        with np.errstate(over="ignore", invalid="ignore"):
            target = spec.rhs(psi)
            if forcing is not None:
                target = target + forcing
            proposal = inverse(target)
            new = (1.0 - damping) * psi + damping * proposal
            du = lp_norm(new - psi, 2.0)
            report.update_norms.append(du)
            psi = new
            _, rnorm = residual(spec, psi, forcing, mode=res_mode)
            report.residual_norms.append(rnorm)
        report.iterations = it
        if not np.isfinite(du) or (it > 20 and du > 10.0 * report.update_norms[it - 21]):
            raise DivergenceError(
                f"Picard iteration diverged at sweep {it} (update norm {du:.3e})",
                report.update_norms)
        if du < tol and (res_mode != "spectral" or rnorm <= 10.0 * tol):
            report.converged = True
            break
    report.final_residual = report.residual_norms[-1] if report.residual_norms else np.inf
    report.margin = smallness_margin(spec, psi)
    report.guard_flagged = report.margin >= guard
    return psi, report


@dataclass
class NewtonReport:
    converged: bool
    stagnated: bool
    steps: int
    residual_norms: list = field(default_factory=list)
    reason: str = ""


def _real_flatten(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values.real.ravel(), values.imag.ravel()])


def _real_unflatten(vec: np.ndarray, shape) -> np.ndarray:
    half = vec.size // 2
    return vec[:half].reshape(shape) + 1j * vec[half:].reshape(shape)


def newton_refine(spec: ReactionSpec, psi: SpinorField,
                  forcing: SpinorField | None = None, tol: float = 1e-10,
                  max_steps: int = 5, gmres_rtol: float = 1e-10,
                  guard: float = 0.5) -> tuple:
    """Newton steps on the torus; residual strictly decreases or the report
    flags stagnation (disk charts stagnate immediately: the inner linear
    solve is only wired to the spectral inverse)."""
    chart = psi.chart
    report = NewtonReport(False, False, 0)
    if chart.kind != TORUS:
        report.stagnated = True
        report.reason = f"newton refinement not available on {chart.kind!r} charts"
        return psi.copy(), report
    require_invertible(chart, "Newton refinement")
    shape = psi.values.shape
    current = psi.copy()
    _, rnorm = residual(spec, current, forcing, mode="spectral")
    report.residual_norms.append(rnorm)
    for step in range(1, max_steps + 1):
        if rnorm <= tol:
            report.converged = True
            break
        res_field, _ = residual(spec, current, forcing, mode="spectral")
        b_field = dirac_inverse_spectral(res_field)

        def matvec(vec):
            delta = SpinorField(chart, _real_unflatten(vec, shape))
            lin = spec.linearize(current, delta)
            return vec - _real_flatten(dirac_inverse_spectral(lin).values)

        op = scipy.sparse.linalg.LinearOperator(
            (2 * np.prod(shape), 2 * np.prod(shape)), matvec=matvec, dtype=float)
        rhs_vec = -_real_flatten(b_field.values)
        sol, info = scipy.sparse.linalg.gmres(op, rhs_vec, rtol=gmres_rtol,
                                              atol=0.0, restart=40, maxiter=50)
        if info != 0:
            report.stagnated = True
            report.reason = f"gmres did not converge (info={info}) at step {step}"
            break
        candidate = SpinorField(chart, current.values + _real_unflatten(sol, shape),
                                current.tag)
        _, new_norm = residual(spec, candidate, forcing, mode="spectral")
        if not np.isfinite(new_norm) or new_norm >= rnorm:
            report.stagnated = True
            report.reason = (f"residual did not decrease at step {step} "
                             f"({rnorm:.3e} -> {new_norm:.3e})")
            break
        current = candidate
        rnorm = new_norm
        report.residual_norms.append(rnorm)
        report.steps = step
        if rnorm <= tol:
            report.converged = True
            break
    return current, report
