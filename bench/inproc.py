"""Run a workload's argument lists in one process, optionally traced.

    python bench/inproc.py PLAN.json RESULT.json [SPANS.npz]

PLAN.json holds the operations (see workloads.py) plus, for each, the paths
its stdout and stderr go to.  Each operation calls ``multiport_lab.cli.main``
with its argv, exactly as the console script would.  With SPANS.npz the
layer boundaries are traced (tracer.py), the spans are written there, and the
per-layer metrics go into RESULT.json.  The package is imported from the
checkout's ``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main(plan_path, result_path, spans_path=None):
    with open(plan_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    sys.path.insert(0, SRC)
    import multiport_lab.cli as cli

    spans = None
    if spans_path:
        import tracer

        spans = tracer.Spans()
        tracer.install(spans)
    results = []
    for k, op in enumerate(ops):
        for path in op["outputs"]:
            if os.path.exists(path):
                os.remove(path)
        if spans is not None:
            spans.current_op = k
        with open(op["stdout"], "w", encoding="utf-8") as out, \
                open(op["stderr"], "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(op["argv"])
            except Exception:  # a traceback is a failed operation, not a crash of the run
                traceback.print_exc()
                rc = "traceback"
            wall = perf_counter() - t0
        written = sum(os.path.getsize(p) for p in [op["stdout"], *op["outputs"]]
                      if os.path.exists(p))
        results.append({"id": op["id"], "rc": rc, "wall": wall, "bytes": written})
    report = {"package": os.path.abspath(cli.__file__), "ops": results}
    if spans is not None:
        report["metrics"] = tracer.layer_metrics(spans)
        report["absent"] = spans.absent
        report["spans"] = len(spans.t0)
        spans.save(spans_path, [op["id"] for op in ops])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
