"""spinflow benchmark: time to a checked result, per workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads: torus-solve, disk-picard, verify-ratio, analyze (see
``perfbench/README.md``).  Load model: a closed loop with one client; one
case runs at a time, each CLI step in a fresh ``python -m spinflow.cli``
process.  Thread variables are left as found and recorded.

``--trace 0`` generates the seeded inputs, takes SETUP_SAMPLES import-time
samples and then runs cases until ``--seconds`` is used up (at least one),
gating every case's outputs.  It prints, by name with units, the medians of
``wall_s``, ``cpu_s`` (user+sys of the case's children, from ``wait4``),
``peak_rss_mb`` (largest child ``ru_maxrss``) and ``setup_s``, and
``failed_frac``.  ``--trace 1`` instead runs pairs of fresh in-process runs,
one plain and one traced, checks that their outputs are byte-identical, and
prints the per-layer metrics of ``perfbench/tracer.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also
writes a full record (samples, input sha256s, environment) under
``.bench_build/perfbench/results/``.  The exit code is 0 whenever a result
was printed, 2 when the checkout has no ``src/spinflow``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

sys.path.insert(0, HERE)
import gates  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PYTHON = sys.executable
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SPINFLOW_THREADS")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
NOTE = ("timings compare only between runs on the same machine; "
        "the thread variables are recorded as found, unset means library default")


class Run:
    """Paths, child environment and log of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.work = os.path.join(WORK_ROOT, f"{workload}-s{seed}-p{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = os.path.join(self.work, "in")
        tmp = os.path.join(self.work, "tmp")
        os.makedirs(tmp)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.env["TMPDIR"] = tmp
        self.log = open(os.path.join(self.work, "children.log"), "w", encoding="utf-8")

    def out(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def spawn(self, cmd: list) -> tuple:
        """(exit code, wall s, user+sys s, ru_maxrss MB) of one child."""
        self.log.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT,
                                env=self.env, cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0

    def close(self) -> None:
        self.log.close()
        shutil.rmtree(self.work, ignore_errors=True)


def _prepare(run: Run) -> dict:
    code = run.spawn([PYTHON, os.path.join(HERE, "prepare.py"), "--workload", run.workload,
                      "--seed", str(run.seed), "--out", run.inputs])[0]
    if code != 0:
        raise RuntimeError(f"input generation failed with exit code {code}")
    with open(os.path.join(run.inputs, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _setup_sample(run: Run) -> float:
    code, wall, _, _ = run.spawn(
        [PYTHON, "-c", f"import {workloads.SETUP_MODULES[run.workload]}"])
    if code != 0:
        raise RuntimeError(f"importing the entry modules failed with exit code {code}")
    return wall


def _case(run: Run, out: str) -> dict:
    codes, cpu, rss = [], 0.0, 0.0
    t0 = time.perf_counter()
    for entry, argv in workloads.steps(run.workload, run.inputs, out, run.seed):
        code, _, c, r = run.spawn(workloads.command(entry, argv))
        codes.append(code)
        cpu += c
        rss = max(rss, r)
    return {"wall_s": time.perf_counter() - t0, "cpu_s": cpu, "peak_rss_mb": rss,
            "codes": codes, "digest": gates.digest(out)}


class Gate:
    """Workload gates, evaluated once per distinct (outputs, exit codes)."""

    def __init__(self, run: Run):
        self.run = run
        self.verdicts: dict = {}

    def __call__(self, codes: list, out: str, digest: str) -> list:
        key = (digest, tuple(codes))
        if key not in self.verdicts:
            self.verdicts[key] = gates.check(self.run.workload, codes, self.run.inputs,
                                             out, self.run.env)
        return list(self.verdicts[key])


def _keep_going(start: float, seconds: float, iterations: list) -> bool:
    """Start another case only if a typical one still ends within the budget."""
    return time.perf_counter() + statistics.median(iterations) <= start + seconds


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    start = time.perf_counter()
    setup = [_setup_sample(run) for _ in range(SETUP_SAMPLES)]
    gate = Gate(run)
    cases, iterations = [], []
    while not iterations or _keep_going(start, seconds, iterations):
        t0 = time.perf_counter()
        out = run.out("out")
        case = _case(run, out)
        case["failures"] = gate(case["codes"], out, case["digest"])
        if cases and case["digest"] != cases[0]["digest"]:
            case["failures"].append("outputs differ from the first case of this seed")
        cases.append(case)
        iterations.append(time.perf_counter() - t0)
    metrics = {name: statistics.median(c[name] for c in cases)
               for name, _ in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setup)
    return {"cases": cases, "setup_samples": setup, "metrics": metrics,
            "attempted": len(cases), "failed": sum(1 for c in cases if c["failures"])}


def _worker(run: Run, mode: str) -> dict:
    out = run.out(f"out-{mode}")
    result_path = os.path.join(run.work, f"{mode}.json")
    code = run.spawn([PYTHON, os.path.join(HERE, "tracerun.py"),
                      "--workload", run.workload, "--inputs", run.inputs, "--out", out,
                      "--seed", str(run.seed), "--mode", mode, "--result", result_path])[0]
    if code != 0:
        return {"out": out, "error": f"{mode} worker exited with code {code}"}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(out=out, digest=gates.digest(out))
    return result


def _trace_failures(run: Run, gate: Gate, plain: dict, traced: dict) -> list:
    failures = [r["error"] for r in (plain, traced) if "error" in r]
    if failures:
        return failures
    failures += gate(plain["codes"], plain["out"], plain["digest"])
    if traced["digest"] != plain["digest"]:
        failures.append("traced outputs differ from the untraced run's")
    tr = traced["trace"]
    if tr["open_spans"]:
        failures.append(f"{tr['open_spans']} spans never closed")
    if abs(tr["self_sum_s"] - tr["root_s"]) > 0.01 * tr["root_s"]:
        failures.append(f"self times sum to {tr['self_sum_s']:.4f} s, "
                        f"root span is {tr['root_s']:.4f} s")
    if run.workload == "disk-picard":
        sweeps = tracer.metric_value(tr["stats"], "solve.picard_solve.sweeps")
        if tr["disk_solve_in_picard"] != sweeps:
            failures.append(f"{tr['disk_solve_in_picard']} disk_solve spans under "
                            f"picard_solve for {sweeps} sweeps")
    return failures


def measure_traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics from pairs of fresh plain and traced in-process runs."""
    start = time.perf_counter()
    gate = Gate(run)
    pairs, iterations = [], []
    while not iterations or _keep_going(start, seconds, iterations):
        t0 = time.perf_counter()
        plain, traced = _worker(run, "plain"), _worker(run, "traced")
        pairs.append({"plain": plain, "traced": traced,
                      "failures": _trace_failures(run, gate, plain, traced)})
        iterations.append(time.perf_counter() - t0)
    good = [p for p in pairs if not p["failures"]] or pairs
    metrics = {}
    for name, _ in tracer.PER_LAYER:
        if name == "trace.overhead":
            continue
        values = [tracer.metric_value(p["traced"]["trace"]["stats"], name)
                  for p in good if "trace" in p["traced"]]
        metrics[name] = statistics.median_low(values) if values else 0
    walls = [(p["plain"]["wall_s"], p["traced"]["wall_s"]) for p in good
             if "wall_s" in p["plain"] and "wall_s" in p["traced"]]
    metrics["trace.overhead"] = (statistics.median(t for _, t in walls)
                                 / statistics.median(w for w, _ in walls)) if walls else 0
    return {"pairs": pairs, "metrics": metrics, "attempted": len(pairs),
            "failed": sum(1 for p in pairs if p["failures"])}


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:     # no git program
        return None
    return res.stdout.strip() or None


def environment(manifest: dict) -> dict:
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": manifest["numpy"],
            "scipy": manifest["scipy"], "blas": manifest["blas"],
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": _git_commit(), "note": NOTE}


def _report(workload: str, seed: int, trace: int, res: dict) -> None:
    units = dict(END_TO_END) if not trace else dict(tracer.PER_LAYER)
    n = res["attempted"]
    what = "pairs of plain+traced in-process runs" if trace else "cases"
    print(f"{workload} seed={seed} trace={trace}: {n} {what}, {res['failed']} failed")
    for name, value in res["metrics"].items():
        if name == "setup_s":
            basis = f"median of {SETUP_SAMPLES} imports"
        elif name == "trace.overhead":
            basis = "median traced / median plain wall"
        else:
            basis = f"median of {n}"
        print(f"  {name:<44} {value:>14.6g} {units[name]:<6} ({basis})")
    if not trace:
        print(f"  {'failed_frac':<44} {res['failed'] / n:>14.6g} {'frac':<6} "
              f"({res['failed']} of {n} cases)")
    inputs = json.dumps(res["inputs_sha256"], sort_keys=True).encode()
    print(f"  inputs sha256 {hashlib.sha256(inputs).hexdigest()} "
          f"({len(res['inputs_sha256'])} files)")
    print(f"  environment {json.dumps(res['environment'], sort_keys=True)}")
    for i, item in enumerate(res.get("cases") or res.get("pairs")):
        for failure in item["failures"]:
            print(f"  FAILED {i}: {failure}")


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run = Run(workload, seed)
    try:
        manifest = _prepare(run)
        res = measure_traced(run, seconds) if trace else measure(run, seconds)
    finally:
        run.close()
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
               inputs_sha256=manifest["inputs_sha256"], environment=environment(manifest))
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    record = os.path.join(WORK_ROOT, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    _report(workload, seed, trace, res)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinflow", "__init__.py")):
        sys.stderr.write(f"no spinflow sources under {SRC}; run from a source checkout\n")
        return 2
    # Turn SIGTERM into SystemExit, so that `Run.spawn` kills the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {name: bench(name, args.seed, args.seconds, args.trace) for name in names}
    units = dict(tracer.PER_LAYER) if args.trace else dict(END_TO_END)
    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, value in res["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": all(r["failed"] == 0 for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
