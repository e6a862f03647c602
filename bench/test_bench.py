"""Tests of the benchmark itself: generators, oracles, tracing, result contract.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _python(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


@pytest.mark.parametrize("name", sorted({**workloads.WORKLOADS, **workloads.PROBES}))
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    first = workloads.make(name, 0, str(tmp_path / "a"))
    again = workloads.make(name, 0, str(tmp_path / "b"))
    other = workloads.make(name, 1, str(tmp_path / "c"))

    def strip(ops, work):
        return json.dumps(ops).replace(work, "W")

    assert strip(first, str(tmp_path / "a")) == strip(again, str(tmp_path / "b"))
    assert strip(first, str(tmp_path / "a")) != strip(other, str(tmp_path / "c"))
    for f in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_chain_netlist_shape(tmp_path):
    ops = workloads.make("netlist-chain", 0, str(tmp_path))
    for (devices, _), op in zip(workloads.CHAIN_SIZES, ops[::2]):
        oracle = oracles.NetlistOracle.from_file(op["check"]["netlist"])
        assert len(oracle.closed) == 4 * devices - 2
        assert oracle.open_labels == ["d0.p1", "d0.p2"]
        for k in range(devices):
            u = oracle.S[4 * k:4 * k + 4, 4 * k:4 * k + 4]
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-14


@pytest.mark.parametrize("name", ["michelson", "bs-cavity", "grover-michelson"])
def test_closed_forms_agree_with_the_netlist_oracle(name):
    rng = np.random.default_rng(7)
    phi1 = rng.uniform(0, 2 * math.pi, 64)
    phi2 = 0.7
    T, dT = oracles.closed_form(name, phi1, phi2)
    T_n, dT_n, _ = oracles.NetlistOracle.from_file(
        os.path.join(ROOT, "docs", "netlists", f"{name}.json")).transmission(phi1, phi2)
    assert np.max(np.abs(T - T_n)) < 1e-12
    assert np.max(np.abs(dT - dT_n)) < 1e-10


def test_series_matches_the_dense_closure():
    oracle = oracles.NetlistOracle.from_file(os.path.join(ROOT, "docs", "netlists", "fusion.json"))
    series, rho = oracle.series(0.0, 0.0)
    assert series is not None and rho < 1
    assert np.max(np.abs(series - oracle.close(0.0, 0.0)[0][0])) < 1e-12


def _write_sweep(path, model, phi2, count, corrupt=False):
    phi1 = np.linspace(0, 2 * math.pi, count)
    T, dT = oracles.closed_form(model, phi1, phi2)
    if corrupt:
        T = T.copy()
        T[count // 3] += 1e-6
    lines = ["phi1,R,T,dT_dphi1"] + [",".join(repr(float(v)) for v in row)
                                      for row in zip(phi1, 1 - T, T, dT)]
    path.write_text("\n".join(lines) + "\n")


def test_sweep_oracle_accepts_the_closed_form_and_rejects_a_perturbed_row(tmp_path):
    spec = {"type": "sweep", "model": "grover-michelson", "netlist": None, "phi2": 0.4,
            "grid": [0.0, 2 * math.pi, 65], "csv": str(tmp_path / "s.csv")}
    _write_sweep(tmp_path / "s.csv", "grover-michelson", 0.4, 65)
    assert oracles.check(spec, "") == []
    _write_sweep(tmp_path / "s.csv", "grover-michelson", 0.4, 65, corrupt=True)
    assert any("T off" in p for p in oracles.check(spec, ""))


def test_bias_oracle_uses_the_ulp_bound():
    phi2 = 3e-5
    # the CLI's answer at this phi2: T differs from 0.5 by ~4e-7, which is
    # below |slope| * ulp(phi1) and therefore at the float limit
    stdout = ("device: grover-michelson\nphi2 = 3e-05\nphi1 = 6.283155308079559\n"
              "T = 0.5000003915398069\nslope = -555589324.4791968\ndelta,dT,saturated\n"
              "1e-09,-0.31675707983310497,false\n0.001,-0.5000003906929968,true\n")
    spec = {"type": "bias", "model": "grover-michelson", "phi2": phi2, "target": 0.5,
            "deltas": [1e-9, 1e-3]}
    assert oracles.check(spec, stdout) == []
    assert oracles.check(spec, stdout.replace("-555589324.4791968", "-455589324.4791968"))
    assert oracles.check(spec, stdout.replace("0.001,-0.5000003906929968,true",
                                              "0.001,-0.5000003906929968,false"))


def test_global_maximum_finds_the_higher_flank_of_the_resonance():
    # the seed's max_sensitivity row at this phi2 of the default grid:
    # 4189.0096 at phi1 = 0.012452, the lower of the two resonance flanks
    best, width = oracles.max_abs_slope("grover-michelson", 6.270821654299435)
    assert 4310.33 < best < 4310.34
    assert width == pytest.approx((2 * math.pi - 6.270821654299435) ** 2)
    phi1 = np.linspace(0.0122, 0.0125, 30001)
    assert best >= np.max(np.abs(oracles.closed_form("grover-michelson", phi1,
                                                     6.270821654299435)[1]))


def test_sensitivity_oracle_runs_on_cli_output(tmp_path):
    csv = tmp_path / "p.csv"
    out = _python(["-m", "multiport_lab", "sensitivity", "--phi2-grid", "0.5:2*pi-0.5:6",
                   "--out", str(csv)], cwd=ROOT)
    assert out.returncode == 0, out.stderr
    spec = {"type": "sensitivity", "grid": [0.5, 2 * math.pi - 0.5, 6], "csv": str(csv)}
    assert oracles.check(spec, "") == []


def _small_plan(tmp_path):
    work = str(tmp_path)
    ops = [
        workloads._sweep("sweep-gm", "grover-michelson", 0.6, 1025, f"{work}/gm.csv",
                         model="grover-michelson", svg=f"{work}/gm.svg"),
        workloads._sweep("sweep-mich", "docs/netlists/michelson.json", 0.6, 33,
                         f"{work}/m.csv", model="michelson"),
        workloads._smatrix("smatrix-fusion", "docs/netlists/fusion.json", 0.1, 0.2),
        workloads._bias("bias-gm", "grover-michelson", "grover-michelson", 0.5, (1e-3, 1.5)),
    ]
    for op in ops:
        op["stdout"] = f"{work}/{op['id']}.stdout"
        op["stderr"] = f"{work}/{op['id']}.stderr"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(ops))
    return ops, str(plan)


def test_traced_run_counts_repeat_and_outputs_pass(tmp_path):
    ops, plan = _small_plan(tmp_path)
    counts = []
    for k in range(2):
        result = tmp_path / f"r{k}.json"
        out = _python([os.path.join(BENCH, "inproc.py"), plan, str(result),
                       str(tmp_path / "spans.npz")], cwd=ROOT)
        assert out.returncode == 0, out.stderr
        report = json.loads(result.read_text())
        assert report["absent"] == []
        assert [r["rc"] for r in report["ops"]] == [0, 0, 0, 0]
        for op in ops:
            assert oracles.check(op["check"], open(op["stdout"]).read()) == []
        m = report["metrics"]
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")}
                      | {"bytes": [r["bytes"] for r in report["ops"]]})
    assert counts[0] == counts[1]
    m = counts[0]
    assert m["analysis.sweep.evals_per_row"] == 5.0
    assert m["svg.line_chart.calls"] == 1
    assert m["netlist.close_netlist.calls"] == 33 * 5 + 1
    assert m["closure.closed_ports.max"] == 2
    assert m["analysis.max_sensitivity.calls"] == 1
    spans = np.load(tmp_path / "spans.npz")
    assert spans["t1"].size == report["spans"]
    assert np.all(spans["t1"] >= spans["t0"])


def test_removed_attribute_is_reported_absent():
    code = ("import sys; import multiport_lab.svg as s; del s.line_chart; "
            "import tracer; sp = tracer.Spans(); tracer.install(sp); print(sp.absent)")
    out = _python(["-c", code], cwd=BENCH)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['svg.line_chart']"


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "dense-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
