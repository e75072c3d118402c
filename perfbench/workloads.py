"""Workload definitions shared by the runner, the input generator and the
traced worker.  Standard library only, so the runner stays a small process
whose memory never leaks into the children's ``ru_maxrss``.

A workload is a pipeline of steps.  Each step is ``(entry, argv)`` where
``entry`` is either ``"spinflow.cli"`` (run as ``python -m spinflow.cli``)
or ``"diskpicard"`` (the benchmark's own disk script).  The same
argv runs in a fresh subprocess for the timed cases and in-process for the
traced run, so both see identical inputs.
"""

from __future__ import annotations

import os
import sys

NAMES = ("torus-solve", "disk-picard", "verify-ratio", "analyze")

HERE = os.path.dirname(os.path.abspath(__file__))

# Modules a fresh interpreter imports before the first step can start; their
# import time is the workload's set-up cost (`setup_s`).
SETUP_MODULES = {
    "torus-solve": "spinflow.cli",
    "disk-picard": "numpy, spinflow.charts, spinflow.fieldfile, spinflow.green, "
                   "spinflow.reactions, spinflow.solve",
    "verify-ratio": "spinflow.cli",
    "analyze": "spinflow.cli",
}

# Number of fields in the blow-up sequence of the `analyze` workload.
ANALYZE_LENGTH = 12


def steps(name: str, inputs: str, out: str, seed: int) -> list:
    """The (entry, argv) pipeline of one case of workload ``name``."""
    cfg = os.path.join(inputs, "run.cfg")
    if name == "torus-solve":
        return [("spinflow.cli", ["solve", "--config", cfg, "--out", out,
                                  "--seed", str(seed)])]
    if name == "disk-picard":
        return [("diskpicard", ["--inputs", inputs, "--out", out])]
    if name == "verify-ratio":
        return [("spinflow.cli", ["verify", "--config", cfg, "--out", out,
                                  "--seed", str(seed)])]
    if name == "analyze":
        fields = [os.path.join(inputs, f"seq{m:02d}.spnf") for m in range(ANALYZE_LENGTH)]
        return [("spinflow.cli", ["blowup", "--config", cfg, "--fields", *fields,
                                  "--background", os.path.join(inputs, "background.spnf"),
                                  "--out", out]),
                ("spinflow.cli", ["reconstruct", "--config", cfg,
                                  "--field", os.path.join(inputs, "enneper.spnf"),
                                  "--out", out])]
    raise ValueError(f"unknown workload {name!r}")


def command(entry: str, argv: list) -> list:
    """Subprocess command line of one step, run by this interpreter."""
    if entry == "spinflow.cli":
        return [sys.executable, "-m", "spinflow.cli", *argv]
    return [sys.executable, os.path.join(HERE, "diskpicard.py"), *argv]
