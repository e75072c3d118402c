"""The demos and the benchmark tracer name only things that still exist
(checked without running either); the two sub-second demos also run."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _spinflow_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinflow":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "spinflow":
                    yield alias.name, None


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(demo):
    imports = list(_spinflow_imports(demo))
    assert imports
    for module, name in imports:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{demo.name}: {module}.{name}"


@pytest.mark.parametrize("name", ["01_clifford_and_dirac.py", "02_green_potentials.py"])
def test_fast_demo_runs(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _tracer_table(name):
    """A literal table of perfbench/tracer.py, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py has no {name} table")


def test_tracer_functions_exist():
    # the tracer's install() raises on a missing name, which breaks --trace 1
    pairs = [(module, name) for module, names in _tracer_table("FUNCTIONS").items()
             for name in names]
    assert pairs
    for module, name in pairs:
        mod = importlib.import_module(f"spinflow.{module}")
        assert callable(getattr(mod, name, None)), f"spinflow.{module}.{name}"
    reactions = importlib.import_module("spinflow.reactions")
    for method in _tracer_table("METHODS"):
        assert callable(getattr(reactions.ReactionSpec, method, None)), method
