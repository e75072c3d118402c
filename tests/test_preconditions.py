"""Documented preconditions of the public functions, one row each: the call,
the error class it raises and a fragment of the message."""

import os
import re
import struct
import tempfile

import numpy as np
import pytest

from spinflow.blowup import (BlowupPoint, blowup_set, decay_profile, extract_bubble,
                             ledger_assemble)
from spinflow.charts import GridChart, SpinorField
from spinflow.conformal import cylinder_segment_energy, rescale, sphere_transfer, to_cylinder
from spinflow.dirac import dirac_apply, laplace_apply
from spinflow.errors import (ConfigurationError, DomainError, ExtractionError, FormatError,
                             PreconditionError)
from spinflow.fieldfile import read_field, write_field
from spinflow.green import disk_solve, green_convolve
from spinflow.reactions import ChiralUV, GeneralCubic, ScalarH
from spinflow.spinors import chirality_project, clifford_multiply, energy, lp_norm
from spinflow.weierstrass import induced_metric_residual, integrate_surface

TORUS = GridChart.torus(16, spin_structure="PP")
DISK = GridChart.disk(17)
RECT = GridChart.rect(17, 17, (-1.0, 1.0, -1.0, 1.0))
SPHERE = GridChart.sphere(17)
CYLINDER = GridChart.cylinder(16, 16, 0.0, 1.0)


def _zeros(chart):
    return SpinorField.zeros(chart, 1)


def _constant(chart, amplitude=1.0):
    values = np.zeros((chart.ny, chart.nx, 1, 2), np.complex128)
    values[chart.active, 0, 0] = amplitude
    return SpinorField(chart, values)


SEQUENCE = [_constant(TORUS)] * 4
POINT = BlowupPoint((8, 8), (0.5, 0.5), 1.0)


def _read_patched(offset: int, fmt: str, value):
    """read_field of a valid torus field file with one header entry replaced."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.spnf")
        write_field(path, _zeros(TORUS))
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        struct.pack_into(fmt, raw, offset, value)
        with open(path, "wb") as fh:
            fh.write(raw)
        return read_field(path)


CASES = {
    "blowup_set/epsilon_zero": (lambda: blowup_set(SEQUENCE, 0.0, (0.1,)),
                                PreconditionError, "epsilon must be positive"),
    "blowup_set/epsilon_negative": (lambda: blowup_set(SEQUENCE, -1.0, (0.1,)),
                                    PreconditionError, "epsilon must be positive"),
    "blowup_set/radii_empty": (lambda: blowup_set(SEQUENCE, 1.0, ()),
                               PreconditionError, "radius schedule must be positive"),
    "blowup_set/radius_zero": (lambda: blowup_set(SEQUENCE, 1.0, (0.1, 0.0)),
                               PreconditionError, "radius schedule must be positive"),
    "extract_bubble/grid_scale": (
        lambda: extract_bubble(SEQUENCE, POINT, 1e-6, search_radius=0.2),
        ExtractionError, "already exceeds epsilon/2 at the grid scale"),
    "ledger_assemble/negative_energy": (
        lambda: ledger_assemble(SEQUENCE, _zeros(TORUS), [((8, 8), 0.1, (0.5, 0.5), -1.0)]),
        PreconditionError, "bubble energies must be nonnegative"),
    "decay_profile/one_radius": (lambda: decay_profile(_zeros(DISK), [0.5]),
                                 PreconditionError, "need at least two radii"),
    "rescale/lam_zero": (lambda: rescale(_zeros(RECT), (0.0, 0.0), 0.0, RECT),
                         PreconditionError, "rescale needs lam > 0"),
    "rescale/lam_negative": (lambda: rescale(_zeros(RECT), (0.0, 0.0), -0.5, RECT),
                             PreconditionError, "rescale needs lam > 0"),
    "to_cylinder/equal_radii": (lambda: to_cylinder(_zeros(DISK), (0.0, 0.0), 0.5, 0.5),
                                PreconditionError, "need 0 < r_inner < r_outer"),
    "to_cylinder/inverted_radii": (lambda: to_cylinder(_zeros(DISK), (0.0, 0.0), 0.6, 0.5),
                                   PreconditionError, "need 0 < r_inner < r_outer"),
    "to_cylinder/sphere_source": (lambda: to_cylinder(_zeros(SPHERE), (0.0, 0.0), 0.3, 0.6),
                                  ConfigurationError, "does not accept 'sphere' sources"),
    "sphere_transfer/torus_source": (lambda: sphere_transfer(_zeros(TORUS), "toSphere"),
                                     ConfigurationError, "toSphere expects a rect source chart"),
    "sphere_transfer/off_centre": (
        lambda: sphere_transfer(_zeros(GridChart.rect(17, 17, (0.0, 2.0, 0.0, 2.0))),
                                "toSphere"),
        ConfigurationError, "toSphere expects a centered square chart"),
    "sphere_transfer/nx_ne_ny": (
        lambda: sphere_transfer(_zeros(GridChart.rect(17, 21, (-1.0, 1.0, -1.0, 1.0))),
                                "toSphere"),
        ConfigurationError, "toSphere expects nx == ny"),
    "sphere_transfer/to_plane_from_rect": (lambda: sphere_transfer(_zeros(RECT), "toPlane"),
                                           ConfigurationError,
                                           "toPlane expects a sphere chart"),
    "cylinder_segment_energy/torus": (lambda: cylinder_segment_energy(_zeros(TORUS), 0.0, 1.0),
                                      ConfigurationError,
                                      "segment energies are for cylinder fields"),
    "green_convolve/unknown_method": (lambda: green_convolve(_zeros(RECT), "spectral"),
                                      ConfigurationError,
                                      "unknown convolution method 'spectral'"),
    "green_convolve/sphere": (lambda: green_convolve(_zeros(SPHERE)),
                              DomainError, "does not support 'sphere' charts"),
    "disk_solve/torus": (lambda: disk_solve(_zeros(TORUS), np.zeros((4, 1, 2))),
                         DomainError, "disk_solve requires a disk chart"),
    "disk_solve/trace_shape": (lambda: disk_solve(_zeros(DISK), np.zeros((3, 1, 2))),
                               PreconditionError, "trace must have shape (n_boundary, n, 2)"),
    "GeneralCubic/three_axes": (lambda: GeneralCubic(np.zeros((2, 2, 2))),
                                ConfigurationError, "must have 4 (constant) or 6"),
    "GeneralCubic/not_square": (lambda: GeneralCubic(np.zeros((2, 2, 2, 3))),
                                ConfigurationError, "must be square in its four index axes"),
    "GeneralCubic/linearize_direction_n": (
        lambda: GeneralCubic(np.zeros((2, 2, 2, 2))).linearize(SpinorField.zeros(TORUS, 2),
                                                               SpinorField.zeros(TORUS, 3)),
        ConfigurationError, "GeneralCubic expects n=2, field has n=3"),
    "ScalarH/callable_row": (lambda: ScalarH(lambda X, Y: X[0]).rhs(_zeros(TORUS)),
                             ConfigurationError,
                             "scalar coefficient shape must match the chart"),
    "ChiralUV/unknown_preset": (lambda: ChiralUV("so3"),
                                ConfigurationError, "unknown chiral preset 'so3'"),
    "clifford_multiply/alpha_3": (lambda: clifford_multiply(3, _zeros(TORUS)),
                                  PreconditionError, "direction index must be 1 or 2"),
    "chirality_project/sign_0": (lambda: chirality_project(0, _zeros(TORUS)),
                                 PreconditionError, "projector sign must be +1 or -1"),
    "energy/region_shape": (lambda: energy(_zeros(TORUS), np.ones((8, 8), bool)),
                            PreconditionError, "region mask must match the chart grid"),
    "energy/region_outside_disk": (lambda: energy(_zeros(DISK), np.ones((17, 17), bool)),
                                   PreconditionError,
                                   "region includes nodes outside the domain"),
    "lp_norm/p_below_1": (lambda: lp_norm(_zeros(TORUS), 0.5),
                          PreconditionError, "p must be in [1, inf]"),
    "integrate_surface/cylinder": (lambda: integrate_surface(_zeros(CYLINDER)),
                                   ConfigurationError, "surface charts must be planar"),
    "integrate_surface/basepoint_outside": (
        lambda: integrate_surface(_zeros(DISK), basepoint=(0, 0)),
        PreconditionError, "basepoint lies outside the domain"),
    "induced_metric_residual/chart_mismatch": (
        lambda: induced_metric_residual(integrate_surface(_zeros(RECT)), _zeros(DISK)),
        ConfigurationError, "mesh and field live on different charts"),
    "dirac_apply/unknown_mode": (lambda: dirac_apply(_zeros(TORUS), "exact"),
                                 ConfigurationError, "unknown mode 'exact'"),
    "dirac_apply/cylinder": (lambda: dirac_apply(_zeros(CYLINDER)),
                             DomainError, "not defined on cylinder charts"),
    "laplace_apply/unknown_mode": (lambda: laplace_apply(_zeros(TORUS), "exact"),
                                   ConfigurationError, "unknown mode 'exact'"),
    "laplace_apply/cylinder": (lambda: laplace_apply(_zeros(CYLINDER)),
                               DomainError, "not defined on cylinder charts"),
    "read_field/unknown_domain_tag": (lambda: _read_patched(6, "<B", 9),
                                      FormatError, "unknown domain tag 9"),
    "read_field/no_components": (lambda: _read_patched(16, "<I", 0),
                                 FormatError, "component count must be >= 1"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_precondition(name):
    call, error, fragment = CASES[name]
    with pytest.raises(error, match=re.escape(fragment)) as err:
        call()
    assert type(err.value) is error
