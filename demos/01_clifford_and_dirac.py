"""Clifford algebra, spin structures, and the discrete Dirac operator.

Walks through the fixed 2x2 representation, shows how the four torus spin
structures decide whether the operator has a kernel, and measures the
Weitzenboeck identity D^2 = -Laplace in both spectral and finite-difference
modes.
"""

import numpy as np

from spinflow.charts import GridChart, SpinorField
from spinflow.dirac import (dirac_apply, symbol_report, weitzenboeck_residual)
from spinflow.fields import torus_mode_field
from spinflow.spinors import (GAMMA, SIGMA1, SIGMA2, chirality_project,
                              clifford_defect, clifford_multiply)

print("sigma1 =\n", SIGMA1)
print("sigma2 =\n", SIGMA2)
print("chirality = i sigma1 sigma2 =", np.diag(GAMMA).real)
print("worst algebra defect:", clifford_defect())

chart = GridChart.torus(64, spin_structure="PP")
basis = SpinorField.zeros(chart, 1)
basis.values[..., 0, 0] = 1.0
print("\nsigma1 (1,0) ->", clifford_multiply(1, basis).values[0, 0, 0])
print("sigma2 (1,0) ->", clifford_multiply(2, basis).values[0, 0, 0])
print("projector + on (1,0) ->", chirality_project(+1, basis).values[0, 0, 0])

print("\nkernel of the Dirac operator per spin structure (32^2 torus):")
for s in ("PP", "PA", "AP", "AA"):
    repo = symbol_report(GridChart.torus(32, spin_structure=s))
    print(f"  {s}: zero modes = {repo['zero_modes']}, "
          f"min |symbol| = {repo['min_symbol_modulus']:.3f}")

print("\nWeitzenboeck residual |D(D psi) + Laplace psi|_L2:")
for nx in (64, 128, 256):
    chart = GridChart.torus(nx, spin_structure="AA")
    psi = torus_mode_field(chart, 0.5, 1, seed=1)
    sp = weitzenboeck_residual(psi, "spectral")
    fd = weitzenboeck_residual(psi, "fd")
    print(f"  nx={nx}: spectral {sp:.2e} (machine zero), fd {fd:.2e}")
print("the fd column shrinks 4x per doubling: the identity holds at O(h^2)")

chart = GridChart.disk(65, 1.0)
X, Y = chart.grid()
lin = SpinorField.from_components(chart, [(np.zeros_like(X), X - 1j * Y)])
out = dirac_apply(lin, "fd")
print("\ndisk check D(0, conj(z)) = (2, 0):",
      out.values[chart.inside][:, 0, 0].mean().real)
