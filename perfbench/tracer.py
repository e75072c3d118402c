"""Outside-in tracer: spans around calls into spinflow's public functions.

The library is not changed.  ``install()`` wraps each function listed in
``FUNCTIONS`` (and the ``rhs``/``linearize`` methods of every reaction class)
and rebinds *every* module-level name that points to the original, because
``spinflow.solve``, ``spinflow.cli`` and the disk script import functions by
name.  Spans are kept in memory as ``[name, start, end, parent, extra]``
and aggregated into per-layer metrics when the run ends.

Span names are ``<module>.<function>``, except ``spinflow.cli.main`` which
is ``cli`` (its self time is the CLI's own work: config parsing, report
assembly, JSON and OBJ writing) and the reaction methods, which are
``reactions.rhs`` and ``reactions.linearize`` whatever the class.

Standard library only at import time; ``install`` imports spinflow.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

FUNCTIONS = {
    "dirac": ("dirac_apply", "dirac_inverse_spectral", "symbol_report",
              "weitzenboeck_residual"),
    "green": ("disk_solve", "green_convolve", "windowed_mode_field",
              "estimate_ratio", "gradient_magnitude"),
    "solve": ("picard_solve", "newton_refine", "residual"),
    "blowup": ("blowup_set", "extract_bubble", "local_energy_grid", "ledger_assemble"),
    "weierstrass": ("integrate_surface", "mean_curvature", "mesh_area",
                    "induced_metric_residual"),
    "conformal": ("rescale", "to_cylinder", "sphere_transfer"),
    "fieldfile": ("read_field", "write_field"),
    "spinors": ("energy",),
    "fields": ("torus_mode_field", "compact_bump_field"),
    "cli": ("main",),
}
METHODS = ("rhs", "linearize")     # on every class of spinflow.reactions

# Per-layer metrics reported by a traced run, with their units.  A metric
# ``<span>.<stat>`` reads statistic ``stat`` of the spans named ``<span>``:
# ``calls``, ``self_s`` (summed self time), ``first_call_s`` (duration of the
# first call) or a count taken from the function's return value.
PER_LAYER = (
    ("reactions.rhs.calls", "count"), ("reactions.rhs.self_s", "s"),
    ("reactions.linearize.calls", "count"), ("reactions.linearize.self_s", "s"),
    ("dirac.dirac_apply.calls", "count"), ("dirac.dirac_apply.self_s", "s"),
    ("dirac.dirac_inverse_spectral.calls", "count"),
    ("dirac.dirac_inverse_spectral.self_s", "s"),
    ("dirac.symbol_report.calls", "count"), ("dirac.weitzenboeck_residual.self_s", "s"),
    ("green.disk_solve.calls", "count"), ("green.disk_solve.self_s", "s"),
    ("green.disk_solve.first_call_s", "s"), ("green.disk_solve.cg_iterations", "count"),
    ("green.green_convolve.calls", "count"), ("green.green_convolve.self_s", "s"),
    ("green.windowed_mode_field.self_s", "s"), ("green.estimate_ratio.self_s", "s"),
    ("green.gradient_magnitude.self_s", "s"),
    ("solve.picard_solve.self_s", "s"), ("solve.picard_solve.sweeps", "count"),
    ("solve.newton_refine.self_s", "s"), ("solve.newton_refine.steps", "count"),
    ("solve.newton_refine.gmres_matvecs", "count"),
    ("solve.newton_refine.stagnated", "count"),
    ("solve.residual.calls", "count"), ("solve.residual.self_s", "s"),
    ("blowup.blowup_set.self_s", "s"), ("blowup.extract_bubble.self_s", "s"),
    ("blowup.local_energy_grid.calls", "count"), ("blowup.local_energy_grid.self_s", "s"),
    ("blowup.ledger_assemble.self_s", "s"),
    ("weierstrass.integrate_surface.self_s", "s"), ("weierstrass.mean_curvature.self_s", "s"),
    ("weierstrass.mesh_area.self_s", "s"),
    ("weierstrass.induced_metric_residual.self_s", "s"),
    ("conformal.rescale.calls", "count"), ("conformal.rescale.self_s", "s"),
    ("conformal.to_cylinder.self_s", "s"), ("conformal.sphere_transfer.self_s", "s"),
    ("fieldfile.read_field.calls", "count"), ("fieldfile.read_field.self_s", "s"),
    ("fieldfile.read_field.bytes", "B"),
    ("fieldfile.write_field.calls", "count"), ("fieldfile.write_field.self_s", "s"),
    ("fieldfile.write_field.bytes", "B"),
    ("spinors.energy.calls", "count"), ("spinors.energy.self_s", "s"),
    ("fields.torus_mode_field.self_s", "s"), ("fields.compact_bump_field.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
)


def _counts(name, args, kwargs, out) -> dict | None:
    """Counts read from a call's public arguments and return value."""
    if name == "solve.picard_solve":
        return {"sweeps": out[1].iterations}
    if name == "solve.newton_refine":
        return {"steps": out[1].steps, "stagnated": int(out[1].stagnated)}
    if name == "green.disk_solve":
        return {"cg_iterations": out[1]["iterations"]}
    if name in ("fieldfile.read_field", "fieldfile.write_field"):
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}
    return None


class Recorder:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1, counts]
        self._stack = []

    def open(self, name: str) -> list:
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            span[4] = _counts(name, args, kwargs, out)
            return out

        return traced


def _rebind(modules, original, replacement) -> int:
    count = 0
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def install(extra_modules=()) -> Recorder:
    """Wrap the listed spinflow functions in place; returns the recorder.

    ``extra_modules`` are further modules (the benchmark's own disk script) whose
    imported names are rebound too.
    """
    rec = Recorder()
    for short in FUNCTIONS:
        importlib.import_module(f"spinflow.{short}")
    importlib.import_module("spinflow.reactions")
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "spinflow" or n.startswith("spinflow."))]
    modules += list(extra_modules)
    for short, names in FUNCTIONS.items():
        mod = sys.modules[f"spinflow.{short}"]
        for fname in names:
            original = getattr(mod, fname)
            span = "cli" if short == "cli" else f"{short}.{fname}"
            if _rebind(modules, original, rec.wrap(span, original)) == 0:
                raise RuntimeError(f"spinflow.{short}.{fname} was not rebound")
    reactions = sys.modules["spinflow.reactions"]
    for cls in list(vars(reactions).values()):
        if isinstance(cls, type) and cls.__module__ == reactions.__name__:
            for meth in METHODS:
                if meth in vars(cls):
                    setattr(cls, meth, rec.wrap(f"reactions.{meth}", vars(cls)[meth]))
    return rec


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def aggregate(spans) -> dict:
    """Per-span-name statistics plus the consistency figures of the trace.

    Returns ``{"stats": {name: {...}}, "root_s", "self_sum_s", "open_spans",
    "disk_solve_in_picard"}``.  Self time is a span's duration minus the time
    its direct children cover; children of one span never overlap here (one
    thread), so the self times of all spans sum to the root span's duration.
    """
    covered = [0.0] * len(spans)
    open_spans = 0
    for name, start, end, parent, _ in spans:
        if end is None:
            open_spans += 1
            continue
        if parent >= 0:
            covered[parent] += end - start
    stats: dict = {}
    self_sum = 0.0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        if end is None:
            continue
        dur = end - start
        own = dur - covered[i]
        self_sum += own
        st = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "first_call_s": dur})
        st["calls"] += 1
        st["self_s"] += own
        for key, val in (counts or {}).items():
            st[key] = st.get(key, 0) + val
        if name == "reactions.linearize" and _has_ancestor(spans, i, "solve.newton_refine"):
            # a parent span precedes its children in the list, so it is counted
            nr = stats["solve.newton_refine"]
            nr["gmres_matvecs"] = nr.get("gmres_matvecs", 0) + 1
    roots = [s for s in spans if s[3] < 0 and s[2] is not None]
    return {"stats": stats, "root_s": sum(e - b for _, b, e, _, _ in roots),
            "self_sum_s": self_sum, "open_spans": open_spans,
            "disk_solve_in_picard": sum(
                1 for i, s in enumerate(spans)
                if s[0] == "green.disk_solve" and _has_ancestor(spans, i, "solve.picard_solve"))}


def metric_value(stats: dict, metric: str) -> float:
    """Value of per-layer ``metric`` from aggregated stats; 0 when the span
    never ran in this workload."""
    span, stat = metric.rsplit(".", 1)
    return stats.get(span, {}).get(stat, 0)
