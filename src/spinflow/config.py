"""Run configuration: flat key=value text with section prefixes.

Example::

    # chart
    chart.domain = torus
    chart.nx = 128
    chart.spin_structure = AA
    reaction.type = chiral_su2
    reaction.h = 0.7
    solver.tol = 1e-9
    seed = 42

Unknown keys are rejected.  The chart is a torus, the only domain a command
builds from the configuration (``chart.domain = torus`` may be written; any
other domain is out of range).  Every numeric value is validated against its
documented range, and float values must be finite (``nan``/``inf`` are
rejected).  ``#`` starts a comment (full line or trailing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import GridChart
from .errors import ConfigurationError
from .reactions import ChiralUV, CurvatureCubic, GeneralCubic, ReactionSpec, ScalarH


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    val = float(raw)
    if not np.isfinite(val):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return val


def _parse_float_list(raw: str):
    return tuple(_parse_float(tok) for tok in raw.split(",") if tok.strip())


def _parse_int_list(raw: str):
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


# key -> (parser, validator, default); validators raise ValueError
_SCHEMA = {
    "chart.domain": (str.strip, lambda v: v == "torus", "torus"),
    "chart.nx": (int, lambda v: v >= 8, 64),
    "chart.ny": (int, lambda v: v >= 8, None),
    "chart.period_x": (_parse_float, lambda v: v > 0, 1.0),
    "chart.period_y": (_parse_float, lambda v: v > 0, None),
    "chart.spin_structure": (str.strip, lambda v: v in ("PP", "PA", "AP", "AA"), "AA"),
    "reaction.type": (str.strip, lambda v: v in ("scalar_h", "general_cubic",
                                                 "curvature_cubic", "chiral_su2",
                                                 "chiral_nil", "chiral_sl2"), "scalar_h"),
    "reaction.h": (_parse_float, lambda v: True, 0.0),
    "reaction.kappa": (_parse_float, lambda v: True, 1.0),
    "reaction.n": (int, lambda v: v >= 1, 2),
    "solver.damping": (_parse_float, lambda v: 0 < v <= 1, 0.5),
    "solver.tol": (_parse_float, lambda v: v > 0, 1e-8),
    "solver.max_iter": (int, lambda v: v >= 1, 400),
    "solver.guard": (_parse_float, lambda v: v > 0, 0.5),
    "solver.newton": (_parse_bool, lambda v: True, True),
    "solver.newton_tol": (_parse_float, lambda v: v > 0, 1e-10),
    "solver.manufactured": (_parse_bool, lambda v: True, False),
    "solver.amplitude": (_parse_float, lambda v: v > 0, 0.3),
    "analysis.epsilon": (_parse_float, lambda v: v > 0, 0.01),
    "analysis.radii": (_parse_float_list, lambda v: len(v) > 0 and min(v) > 0,
                       (0.12, 0.1, 0.08)),
    "analysis.search_radius": (_parse_float, lambda v: v > 0, 0.2),
    "verify.sizes": (_parse_int_list, lambda v: len(v) >= 2 and min(v) >= 16, (32, 64, 128)),
    "verify.ratio_trials": (int, lambda v: v >= 1, 6),
    "verify.ratio_sizes": (_parse_int_list, lambda v: len(v) >= 2 and min(v) >= 17,
                           (33, 65)),
    "verify.break_stencil": (_parse_bool, lambda v: True, False),
    "seed": (int, lambda v: 0 <= v < 2 ** 64, 0),
}


def checked(key: str, val, source: str):
    """``val`` if it satisfies the range rule of config key ``key``; otherwise a
    ConfigurationError that names ``source`` and the key."""
    if not _SCHEMA[key][1](val):
        raise ConfigurationError(f"{source}: {key} = {val!r} out of range")
    return val


@dataclass
class RunConfig:
    entries: dict

    def __getitem__(self, key):
        return self.entries[key]

    # ---- builders ------------------------------------------------------

    def build_chart(self) -> GridChart:
        e = self.entries
        # an unset ny or period_y (None) takes the x value, as in GridChart.torus
        return GridChart.torus(e["chart.nx"], e["chart.ny"], e["chart.period_x"],
                               e["chart.period_y"], spin_structure=e["chart.spin_structure"])

    def build_reaction(self) -> ReactionSpec:
        e = self.entries
        kind = e["reaction.type"]
        if kind == "scalar_h":
            return ScalarH(e["reaction.h"])
        if kind == "curvature_cubic":
            return CurvatureCubic.constant_curvature(e["reaction.n"], e["reaction.kappa"])
        if kind == "general_cubic":
            n = e["reaction.n"]
            eye = np.eye(n)
            # fixed documented tensor: h * (d_ij d_kl - 0.3 d_il d_jk)
            t = e["reaction.h"] * (np.einsum("ij,kl->ijkl", eye, eye)
                                   - 0.3 * np.einsum("il,jk->ijkl", eye, eye))
            return GeneralCubic(t)
        preset = kind.split("_", 1)[1]
        return ChiralUV(preset, h=e["reaction.h"])


def parse_config(text: str) -> RunConfig:
    entries = {k: spec[2] for k, spec in _SCHEMA.items()}
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {raw_line!r}")
        key, raw_val = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        parser = _SCHEMA[key][0]
        try:
            val = parser(raw_val)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {exc}") from exc
        entries[key] = checked(key, val, f"line {lineno}")
    return RunConfig(entries)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
