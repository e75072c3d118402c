"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Shows that the gates catch planted wrong results and that tracing changes
nothing but the clock:

1. a verify-ratio case run with ``verify.break_stencil = true`` counts as
   failed (exit code 1, ``all_pass`` false);
2. a torus-solve case passes, and the same report with ``final_residual``
   raised to 1e-6 fails;
3. traced and plain in-process runs of disk-picard and analyze write
   byte-identical outputs, self times sum to the root span within 1%, and the
   traced disk Picard records one ``green.disk_solve`` span per sweep;
4. tampered traced outputs, a wrong span count and an unclosed span are
   each reported as failures.

Takes about a minute on two cores.  Exit code 0 when every check behaves.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import gates
import tracer
from run import SRC, Gate, Run, _case, _prepare, _trace_failures, measure_traced

SEED = 7


def _expect(results: list, ok: bool, what: str) -> None:
    results.append((ok, what))
    print(f"{'ok  ' if ok else 'FAIL'} {what}")


def planted_verify(results: list, seed: int) -> None:
    run = Run("verify-ratio", seed)
    try:
        _prepare(run)
        with open(os.path.join(run.inputs, "run.cfg"), "a", encoding="utf-8") as fh:
            fh.write("verify.break_stencil = true\n")
        out = run.out("out")
        case = _case(run, out)
        failures = gates.check(run.workload, case["codes"], run.inputs, out, run.env)
    finally:
        run.close()
    _expect(results, case["codes"] == [1] and len(failures) == 2,
            f"break_stencil verify case fails its gate: {failures}")


def perturbed_solve(results: list, seed: int) -> None:
    run = Run("torus-solve", seed)
    try:
        _prepare(run)
        out = run.out("out")
        case = _case(run, out)
        good = gates.check(run.workload, case["codes"], run.inputs, out, run.env)
        path = os.path.join(out, "solve_report.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["final_residual"] = 1e-6
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        bad = gates.check(run.workload, case["codes"], run.inputs, out, run.env)
    finally:
        run.close()
    _expect(results, good == [], f"torus-solve case passes: {good}")
    _expect(results, len(bad) == 1, f"perturbed torus-solve report fails: {bad}")


def traced_runs(results: list, seed: int) -> None:
    for workload in ("disk-picard", "analyze"):
        run = Run(workload, seed)
        try:
            _prepare(run)
            res = measure_traced(run, 0.0)
            pair = res["pairs"][0]
            _expect(results, pair["failures"] == [],
                    f"{workload}: traced outputs identical, self times sum to the "
                    f"root, span counts consistent: {pair['failures']}")
            tr = pair["traced"]["trace"]
            _expect(results, abs(tr["self_sum_s"] - tr["root_s"]) <= 0.01 * tr["root_s"],
                    f"{workload}: self times {tr['self_sum_s']:.4f} s vs root "
                    f"{tr['root_s']:.4f} s")
            if workload == "disk-picard":
                sweeps = tracer.metric_value(tr["stats"], "solve.picard_solve.sweeps")
                _expect(results, sweeps > 0 and tr["disk_solve_in_picard"] == sweeps,
                        f"disk-picard: {tr['disk_solve_in_picard']} disk_solve spans "
                        f"for {sweeps} sweeps")
                miscounted = copy.deepcopy(pair["traced"])
                miscounted["trace"]["disk_solve_in_picard"] -= 1
                _expect(results, any("disk_solve spans" in f for f in _trace_failures(
                    run, Gate(run), pair["plain"], miscounted)),
                    "disk-picard: a missing disk_solve span is reported")
            with open(os.path.join(pair["traced"]["out"], "tampered"), "wb") as fh:
                fh.write(b"x")
            tampered = dict(pair["traced"], digest=gates.digest(pair["traced"]["out"]))
            _expect(results, any("differ" in f for f in _trace_failures(
                run, Gate(run), pair["plain"], tampered)),
                f"{workload}: tampered traced outputs are reported")
        finally:
            run.close()


def unclosed_span(results: list) -> None:
    rec = tracer.Recorder()
    root = rec.open("case")
    rec.open("green.disk_solve")
    root[2] = root[1] + 1.0     # the root ends while its child is still open
    _expect(results, tracer.aggregate(rec.spans)["open_spans"] == 1,
            "an unclosed span is counted")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "spinflow", "__init__.py")):
        sys.stderr.write(f"no spinflow sources under {SRC}\n")
        return 2
    results: list = []
    planted_verify(results, SEED)
    perturbed_solve(results, SEED)
    traced_runs(results, SEED)
    unclosed_span(results)
    failed = [what for ok, what in results if not ok]
    print(f"{len(results) - len(failed)} of {len(results)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
