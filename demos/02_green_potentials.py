"""Green-kernel potentials and the disk boundary-value solve.

The kernel is Clifford multiplication by -x/(2 pi |x|^2); its convolution
against a compactly supported source inverts the Dirac operator up to O(h^2).
The same sums run through a direct-summation oracle and an FFT route, and a
least-squares solve, by a sparse factor cached per disk chart, handles
inhomogeneous boundary traces.
"""

import numpy as np

from spinflow.charts import GridChart, SpinorField
from spinflow.dirac import dirac_apply
from spinflow.fields import compact_bump_field
from spinflow.green import disk_solve, estimate_ratio, green_convolve, kernel_matrix
from spinflow.spinors import scalar_lp_norm

print("K(0.3, -0.4) =\n", kernel_matrix(0.3, -0.4))
print("antisymmetry |K(-x) + K(x)| =",
      np.abs(kernel_matrix(-0.3, 0.4) + kernel_matrix(0.3, -0.4)).max())

print("\nmanufactured recovery: w = K * (D psi_c) should return psi_c")
for nx in (65, 129, 257):
    chart = GridChart.disk(nx, 1.0)
    psi_c = compact_bump_field(chart)
    f = dirac_apply(psi_c, "fd")
    w = green_convolve(f, "fft")
    diff = np.sqrt(np.sum(np.abs(w.values - psi_c.values) ** 2, axis=(2, 3)))
    ref = np.sqrt(np.sum(np.abs(psi_c.values) ** 2, axis=(2, 3)))
    err = scalar_lp_norm(diff, chart, 2) / scalar_lp_norm(ref, chart, 2)
    print(f"  nx={nx}: relative L2 error {err:.3e}")

chart = GridChart.disk(49, 1.0)
f = dirac_apply(compact_bump_field(chart), "fd")
wd = green_convolve(f, "direct")
wf = green_convolve(f, "fft")
gap = np.abs(wd.values - wf.values).max()
print(f"\ndirect-summation oracle vs FFT route: max gap {gap:.2e}")

print("\ndisk boundary solve, manufactured smooth data:")
X, Y = chart.grid()
Z, Zb = X + 1j * Y, X - 1j * Y
psi_star = SpinorField.from_components(
    chart, [(Zb ** 2 + 0.5 * np.sin(X) * np.exp(0.3 * Y),
             Z * Zb + 0.25 * np.cos(Y))])
f_star = SpinorField.from_components(
    chart, [(2 * Z - 0.25j * np.sin(Y),
             -0.5 * (np.cos(X) * np.exp(0.3 * Y) - 0.3j * np.sin(X) * np.exp(0.3 * Y)))])
bn = chart.boundary_nodes
trace = psi_star.values[bn[:, 0], bn[:, 1]]
sol, rep = disk_solve(f_star, trace)
err = np.abs(sol.values[chart.active] - psi_star.values[chart.active]).max()
print(f"  normal residual {rep['final_residual']:.1e}, "
      f"sup error {err:.2e}")

print("\nempirical boundary-estimate ratio |grad w|_p / |f|_p at p = 4/3:")
ratio = estimate_ratio(4.0 / 3.0, trials=10, refinements=(33, 65, 129), seed=0)
for level in ratio["levels"]:
    print(f"  nx={level['nx']}: max ratio {level['max_ratio']:.4f}")
print("  level-to-level drift:", [f"{d:.3f}" for d in ratio["drift"]])
