"""In-process run of one workload case, plain or traced.

    python3 perfbench/tracerun.py --workload NAME --inputs DIR --out DIR
                                  --seed N --mode plain|traced --result FILE

Runs the workload's steps inside this interpreter (``spinflow.cli.main`` or
the disk script's ``main``) with the same argv the timed cases use, and
writes ``{"wall_s", "codes"}`` to FILE; traced mode adds the aggregated
spans.  Each mode runs in a fresh process so both start with cold caches;
the traced ÷ plain wall ratio is the tracer's overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import diskpicard  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import spinflow.cli  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "traced"))
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    rec = tracer.install(extra_modules=[diskpicard]) if args.mode == "traced" else None
    entries = {"spinflow.cli": spinflow.cli, "diskpicard": diskpicard}
    steps = workloads.steps(args.workload, args.inputs, args.out, args.seed)
    codes = []
    t0 = time.perf_counter()
    root = rec.open("case") if rec else None
    for entry, step_argv in steps:
        codes.append(entries[entry].main(step_argv))
    if rec:
        rec.close(root)
    wall = time.perf_counter() - t0
    result = {"wall_s": wall, "codes": codes}
    if rec:
        result["trace"] = tracer.aggregate(rec.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
