"""Cubic-nonlinearity solves: Picard iteration plus Newton finish.

A manufactured smooth target fixes the forcing; the solver recovers it from
a zero seed for every reaction variant: scalar H, a general rank-4 tensor,
the curvature cubic, and the three chiral Lie-group presets.  The smallness
margin h0 |psi|_{L4}^2 against the contraction guard is tracked throughout.
Picard starts undamped (theta = 1) and halves theta, down to the 0.5 floor,
after any sweep whose update fails to shrink: a target of amplitude 2 needs
that, and overdriving the margin further produces a clean divergence
diagnostic.
"""

import numpy as np

from spinflow.charts import GridChart, SpinorField
from spinflow.dirac import dirac_apply
from spinflow.errors import DivergenceError
from spinflow.fields import torus_mode_field
from spinflow.reactions import ChiralUV, CurvatureCubic, GeneralCubic, ScalarH
from spinflow.solve import newton_refine, picard_solve, residual, smallness_margin

chart = GridChart.torus(128, spin_structure="AA")
rng = np.random.default_rng(5)

cases = [
    ("scalar H = 1", ScalarH(1.0), 1),
    ("general cubic (n=2)", GeneralCubic(0.5 * rng.standard_normal((2, 2, 2, 2))), 2),
    ("curvature cubic (n=2)", CurvatureCubic.constant_curvature(2, 1.0), 2),
    ("chiral su2, H=0.7", ChiralUV("su2", h=0.7), 1),
    ("chiral nil, H=0.7", ChiralUV("nil", h=0.7), 1),
    ("chiral sl2, H=0.7", ChiralUV("sl2", h=0.7), 1),
]

for name, spec, n in cases:
    psi_star = torus_mode_field(chart, 0.33, n, seed=11)
    forcing = dirac_apply(psi_star, "spectral") - spec.rhs(psi_star)
    sol, prep = picard_solve(spec, SpinorField.zeros(chart, n),
                             forcing=forcing, tol=1e-9)
    sol, nrep = newton_refine(spec, sol, forcing=forcing, tol=1e-11)
    _, res = residual(spec, sol, forcing, mode="spectral")
    err = np.abs(sol.values - psi_star.values).max()
    print(f"{name}: picard {prep.iterations} sweeps -> newton {nrep.steps} steps, "
          f"residual {res:.1e}, sup error {err:.1e}, "
          f"margin {smallness_margin(spec, sol):.3f}")

print("\nlarger target, scalar H = 1, amplitude 2.0:")
spec = ScalarH(1.0)
large = torus_mode_field(chart, 2.0, 1, seed=11)
forcing = dirac_apply(large, "spectral") - spec.rhs(large)
sol, prep = picard_solve(spec, SpinorField.zeros(chart, 1), forcing=forcing)
thetas = prep.damping_history
halved = [k + 1 for k in range(1, len(thetas)) if thetas[k] < thetas[k - 1]]
print(f"  {prep.reason} after {prep.iterations} sweeps; theta {thetas[0]} on sweep 1, "
      f"halved before sweeps {halved}, {thetas[-1]} on the last")

print("\ndriving the margin past the guard:")
big = torus_mode_field(chart, 4.0, 1, seed=11)
print("  margin of the target:", f"{smallness_margin(spec, big):.2f} (guard 0.5)")
forcing = dirac_apply(big, "spectral") - spec.rhs(big)
try:
    picard_solve(spec, SpinorField.zeros(chart, 1), forcing=forcing)
except DivergenceError as exc:
    print("  solver raised:", exc)
