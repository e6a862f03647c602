"""multiport-lab benchmark: wall times of real CLI commands, checked by oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.

--trace 0 runs the workload's command sequence (workloads.py) as one client
in a closed loop: one ``python -m multiport_lab`` child (via CLI_SHIM, which
records its peak RSS) at a time, the next started when the previous has
exited.  Passes over the sequence repeat while
the next one should still end within S seconds of measuring; at least two
passes run.  One ``--help`` call before each pass, and more at the end up to
five, time start-up.  Every output is checked by oracles.py.

--trace 1 runs the same argument lists in-process (inproc.py), once untraced
and once traced (tracer.py), and reports per-layer metrics.

Output: a human-readable summary, one line ``report: {...}`` with every
metric (median, quartiles, sample count), the failures and the environment,
and, last, the result line ``{"correct", "attempted", "failed", "metrics"}``.
The full report is also written to .bench_work/<workload>/report-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import oracles
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DEADLINE_S = 165.0  # every run must end well inside 180 s
MIN_SETUP_SAMPLES = 5
MIN_PASSES = 2  # a per-command median needs more than one sample
IMPORT_SAMPLES = 5
CLEAN_EXIT_CODES = (1, 2, 3)  # documented refusals: invalid, singular/degenerate, unreachable
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)
COMMAND_KINDS = ("sweep", "sensitivity", "bias", "smatrix")
#: ``python -m multiport_lab`` that also writes its own peak RSS (VmHWM, kB)
#: to the file named by its first argument.  rusage cannot give this: a child
#: inherits the harness's high-water RSS when it is spawned.
CLI_SHIM = """
import atexit, runpy, sys
peak_file = sys.argv.pop(1)

def report_peak():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(peak_file, "w", encoding="ascii") as fh:
        fh.write(kb)

atexit.register(report_peak)
runpy.run_module("multiport_lab", run_name="__main__", alter_sys=True)
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = child_env()

    def run(self, cmd, stdout, stderr):
        """(exit code or 'timeout', wall s) of one child."""
        timeout = max(1.0, self.deadline - perf_counter())
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        if code < 0 and wall >= timeout:
            code = "timeout"
        return code, wall

    def cli(self, argv, stdout, stderr):
        """(exit code, wall s, peak RSS MB or None) of ``multiport-lab argv``."""
        peak_file = stdout + ".peak"
        if os.path.exists(peak_file):
            os.remove(peak_file)
        code, wall = self.run([sys.executable, "-c", CLI_SHIM, peak_file, *argv],
                              stdout, stderr)
        try:
            with open(peak_file, encoding="ascii") as fh:
                peak = int(fh.read()) / 1024.0
        except (OSError, ValueError):
            peak = None  # killed before exit
        return code, wall, peak


# --- statistics ----------------------------------------------------------------

def summary(values, unit):
    """Median, quartiles and sample count of one metric."""
    values = list(values)
    s = {"median": statistics.median(values), "unit": unit, "n": len(values),
         "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        s.update(q1=q1, q3=q3)
    return s


# --- environment -----------------------------------------------------------------

def git_commit():
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = None
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
    }


# --- checking ------------------------------------------------------------------

def verdict(op, code, stdout_path, stderr_path):
    """(failed, incorrect, reason) for one finished operation.

    A documented refusal (exit 1-3 with an ``error:`` message) fails the
    operation but is not a wrong answer; a traceback, a timeout or an
    output the oracle rejects is both.
    """
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    if code == 0:
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            problems = oracles.check(op["check"], fh.read())
        if problems:
            return True, True, "; ".join(problems)
        return False, False, None
    reason = f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    clean = code in CLEAN_EXIT_CODES and "Traceback" not in err and err.startswith("error:")
    return True, not clean, reason


def output_digest(op):
    h = hashlib.sha256()
    for path in [op["stdout"], *op["outputs"]]:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


class Checker:
    """Oracle verdicts; a pass whose output bytes repeat an earlier pass reuses its verdict."""

    def __init__(self):
        self.seen = {}
        self.attempted = self.failed = 0
        self.incorrect = 0
        self.failures = []

    def record(self, op, code, label):
        key = (op["id"], code, output_digest(op))
        if key not in self.seen:
            self.seen[key] = verdict(op, code, op["stdout"], op["stderr"])
        failed, incorrect, reason = self.seen[key]
        self.attempted += 1
        self.failed += failed
        self.incorrect += incorrect
        if failed:
            self.failures.append({"op": op["id"], "run": label, "reason": reason,
                                  "wrong_answer": incorrect})


# --- the two modes -----------------------------------------------------------------

def timed_run(ops, work, seconds, runner):
    checker = Checker()
    help_out = (os.path.join(work, "help.stdout"), os.path.join(work, "help.stderr"))
    setup, passes, rss = [], [], []
    kinds = {k: [] for k in COMMAND_KINDS}
    per_op = {op["id"]: [] for op in ops}
    measured = 0.0
    # start another pass only if it should end within the measuring time,
    # or to reach MIN_PASSES
    while not passes or ((len(passes) < MIN_PASSES or measured + passes[-1] <= seconds)
                         and perf_counter() + 2 * passes[-1] < runner.deadline):
        code, wall, _ = runner.cli(["--help"], *help_out)
        if code != 0:
            raise SystemExit(f"multiport-lab --help exited {code}")
        setup.append(wall)
        for op in ops:
            for path in op["outputs"]:
                if os.path.exists(path):
                    os.remove(path)
        t0 = perf_counter()
        by_kind = dict.fromkeys(COMMAND_KINDS, 0.0)
        codes, peaks = [], []
        for op in ops:
            code, wall, peak = runner.cli(op["argv"], op["stdout"], op["stderr"])
            codes.append(code)
            peaks.append(peak)
            by_kind[op["kind"]] += wall
            per_op[op["id"]].append(wall)
        passes.append(perf_counter() - t0)
        rss.append(max((p for p in peaks if p is not None), default=0.0))
        for op, code in zip(ops, codes):
            checker.record(op, code, f"pass {len(passes) - 1}")
        measured += setup[-1] + passes[-1]
        for kind, total in by_kind.items():
            kinds[kind].append(total)
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(runner.cli(["--help"], *help_out)[1])
    metrics = {
        "setup_s": summary(setup, "s"),
        # the sequence's time as the sum of each command's median over passes:
        # a slow spike in one command of one pass does not move it
        "run_s": {**summary(passes, "s"), "pass_median": statistics.median(passes),
                  "median": sum(statistics.median(v) for v in per_op.values())},
        "peak_rss_mb": summary(rss, "MB"),
    }
    for kind, values in kinds.items():
        metrics[f"{kind}_s"] = summary(values, "s")
    metrics["fail_ratio"] = {"median": checker.failed / checker.attempted, "unit": "ratio",
                             "n": checker.attempted}
    detail = {"passes": len(passes),
              "ops": {k: summary(v, "s") for k, v in per_op.items()}}
    return checker, metrics, detail


def import_times(runner, work, samples=IMPORT_SAMPLES):
    """Fresh-interpreter times of ``import multiport_lab``, checking it comes from src."""
    code_text = ("import time; t = time.perf_counter(); import multiport_lab; "
                 "print(time.perf_counter() - t); print(multiport_lab.__file__)")
    out, err = os.path.join(work, "import.stdout"), os.path.join(work, "import.stderr")
    times = []
    for _ in range(samples):
        code, _ = runner.run([sys.executable, "-c", code_text], out, err)
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().split()
        if code != 0 or not os.path.abspath(lines[1]).startswith(SRC + os.sep):
            raise SystemExit(f"multiport_lab does not import from {SRC}")
        times.append(float(lines[0]))
    return times


def traced_run(ops, work, runner):
    checker = Checker()
    plan = os.path.join(work, "plan.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    walls = {}
    for mode in ("untraced", "traced"):
        result = os.path.join(work, f"inproc-{mode}.json")
        cmd = [sys.executable, os.path.join(BENCH, "inproc.py"), plan, result]
        if mode == "traced":
            cmd.append(os.path.join(work, "spans.npz"))
        code, _ = runner.run(cmd, *(os.path.join(work, f"inproc-{mode}.{s}")
                                    for s in ("stdout", "stderr")))
        if code != 0:
            raise SystemExit(f"in-process {mode} run exited {code}")
        with open(result, encoding="utf-8") as fh:
            report = json.load(fh)
        walls[mode] = sum(r["wall"] for r in report["ops"])
        for op, r in zip(ops, report["ops"]):
            checker.record(op, r["rc"], mode)
    layer = report["metrics"]
    layer["import.s"] = statistics.median(import_times(runner, work))
    layer["cli.output_bytes"] = sum(r["bytes"] for r in report["ops"])
    layer["trace.overhead_ratio"] = walls["traced"] / walls["untraced"]
    metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracer.PER_LAYER}
    detail = {"absent": report["absent"], "spans": report["spans"],
              "inproc_wall_s": walls, "ops": report["ops"]}
    return checker, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted({**workloads.WORKLOADS, **workloads.PROBES}))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "multiport_lab", "cli.py")):
        raise SystemExit(f"no multiport_lab sources under {SRC}")

    work = os.path.join(WORK, args.workload)
    os.makedirs(work, exist_ok=True)
    os.chdir(ROOT)
    ops = workloads.make(args.workload, args.seed, os.path.relpath(work, ROOT))
    for op in ops:
        op["stdout"] = os.path.join(work, f"{op['id']}.stdout")
        op["stderr"] = os.path.join(work, f"{op['id']}.stderr")
    runner = Runner(deadline)
    if args.trace:
        checker, metrics, detail = traced_run(ops, work, runner)
        result_metrics = metrics
    else:
        import_times(runner, work, samples=1)
        checker, metrics, detail = timed_run(ops, work, args.seconds, runner)
        result_metrics = {name: {"value": metrics[name]["median"], "unit": unit}
                          for name, unit in END_TO_END}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "detail": detail,
        "failures": checker.failures, "environment": environment(),
    }
    with open(os.path.join(work, f"report-{args.seed}-{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for name, m in metrics.items():
        value = m.get("median", m.get("value"))
        print(f"{name:45s} {value:.6g} {m['unit']}" + (f"  (n={m['n']})" if "n" in m else ""))
    for f in checker.failures:
        print(f"FAILED {f['op']} [{f['run']}]: {f['reason']}")
    print("report: " + json.dumps(report))
    print(json.dumps({"correct": checker.incorrect == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": result_metrics}))


if __name__ == "__main__":
    main()
