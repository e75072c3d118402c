"""spinflow: nonlinear Dirac equations on flat two-dimensional domains.

Library layout:

* ``charts``      grid charts and sampled spinor fields
* ``spinors``     Clifford algebra, norms, the quartic energy
* ``dirac``       FD/spectral Dirac operator, Laplacian, Weitzenboeck check
* ``green``       Dirac Green kernel, convolution solves, disk boundary solve
* ``reactions``   cubic right-hand sides (general tensor, scalar, curvature,
                  chiral U/V presets)
* ``solve``       residuals, damped Picard iteration, Newton refinement
* ``conformal``   rescaling, cylinder map, stereographic transfer
* ``blowup``      blow-up set, bubble extraction, neck energies, energy ledger
* ``weierstrass`` surface reconstruction and geometric verification
* ``fieldfile``   binary spinor-field serialization
* ``config``      run configuration parsing/validation
* ``verify``      the identity, rate and transfer checks of ``spinflow verify``
* ``cli``         ``spinflow solve|reconstruct|blowup|verify``
"""

from .blowup import (BlowupPoint, EnergyLedger, blowup_set, decay_profile,
                     extract_bubble, ledger_assemble, neck_energy)
from .charts import GridChart, SpinorField
from .conformal import rescale, sphere_transfer, to_cylinder
from .dirac import (dirac_apply, dirac_inverse_spectral, laplace_apply,
                    symbol_report, weitzenboeck_residual)
from .green import disk_solve, estimate_ratio, green_convolve, kernel_matrix
from .reactions import ChiralUV, CurvatureCubic, GeneralCubic, ReactionSpec, ScalarH
from .solve import newton_refine, picard_solve, residual, smallness_margin
from .spinors import (chirality_project, clifford_defect, clifford_multiply,
                      energy, lp_norm, pointwise_norm)
from .weierstrass import (SurfaceMesh, integrate_surface, induced_metric_residual,
                          mean_curvature, mesh_area, weierstrass_form)

__all__ = [
    "GridChart", "SpinorField",
    "clifford_defect", "clifford_multiply", "chirality_project",
    "pointwise_norm", "energy", "lp_norm",
    "dirac_apply", "laplace_apply", "weitzenboeck_residual",
    "dirac_inverse_spectral", "symbol_report",
    "kernel_matrix", "green_convolve", "disk_solve", "estimate_ratio",
    "ReactionSpec", "ScalarH", "GeneralCubic", "CurvatureCubic", "ChiralUV",
    "residual", "picard_solve", "newton_refine", "smallness_margin",
    "rescale", "to_cylinder", "sphere_transfer",
    "BlowupPoint", "EnergyLedger", "blowup_set", "extract_bubble",
    "neck_energy", "decay_profile", "ledger_assemble",
    "SurfaceMesh", "weierstrass_form", "integrate_surface",
    "induced_metric_residual", "mean_curvature", "mesh_area",
]

__version__ = "0.1.0"
