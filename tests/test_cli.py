"""Command-line interface: output formats, exit codes, determinism.

Runs the installed module in a subprocess so argument parsing, environment
handling, and file writing are all exercised the way a user sees them.
"""

import csv
import json
import math
import os
import re
import stat
import subprocess
import sys

import pytest

CMD = [sys.executable, "-m", "multiport_lab"]


def run(*args, env_extra=None, cwd=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, cwd=cwd, timeout=timeout
    )


def test_no_arguments_is_an_error():
    res = run()
    assert res.returncode == 1


def test_smatrix_unit_transmission_point():
    res = run("smatrix", "--device", "grover-michelson", "--phi1", "pi", "--phi2", "pi")
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0].startswith("ports:")
    assert "unitarity deviation:" in res.stdout
    # |t| = 1 at (pi, pi): off-diagonal entry has real part 1
    row = lines[1].split()
    assert float(row[0]) == pytest.approx(0.0, abs=1e-12)
    assert float(row[2]) == pytest.approx(1.0, abs=1e-12)


def test_smatrix_seal_at_pi_prints_grover3(tmp_path):
    net = {
        "devices": [{"id": "g", "kind": "grover(4)"}],
        "seals": [{"device": "g", "port": "p4", "phase": "pi"}],
    }
    path = tmp_path / "seal.json"
    path.write_text(json.dumps(net))
    res = run("smatrix", "--device", str(path))
    assert res.returncode == 0
    values = [float(v) for v in res.stdout.splitlines()[1].split()]
    # first row of the 3-port coin: -1/3 then 2/3, imaginary parts zero
    assert values[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert values[2] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert values[1] == pytest.approx(0.0, abs=1e-12)


def test_sweep_csv_shape_and_endpoint(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run(
        "sweep",
        "--device", "grover-michelson",
        "--phi2", "pi/2",
        "--phi1-grid", "0:2*pi:33",
        "--out", str(out),
    )
    assert res.returncode == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["phi1", "R", "T", "dT_dphi1"]
    assert len(rows) == 34
    first = [float(v) for v in rows[1]]
    assert first[0] == 0.0
    assert first[2] == pytest.approx(0.0, abs=1e-15)  # T(0) = 0
    for row in rows[1:]:
        r, t = float(row[1]), float(row[2])
        assert r + t == pytest.approx(1.0, abs=1e-10)


def test_sweep_and_sensitivity_are_deterministic(tmp_path):
    args = [
        "sweep",
        "--device", "grover-michelson",
        "--phi2", "pi/8",
        "--phi1-grid", "0:2*pi:65",
    ]
    a = run(*args, "--out", str(tmp_path / "a.csv"))
    b = run(*args, "--out", str(tmp_path / "b.csv"))
    assert a.returncode == b.returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    sens_args = ["sensitivity", "--phi2-grid", "1e-4:2*pi-1e-4:8"]
    c = run(*sens_args, "--out", str(tmp_path / "c.csv"))
    d = run(*sens_args, "--out", str(tmp_path / "d.csv"))
    assert c.returncode == d.returncode == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()


def test_sweep_to_stdout():
    res = run(
        "sweep", "--device", "michelson", "--phi2", "0", "--phi1-grid", "0:pi:3"
    )
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "phi1,R,T,dT_dphi1"
    assert len(lines) == 4


def test_sweep_svg_written(tmp_path):
    svg = tmp_path / "curve.svg"
    res = run(
        "sweep",
        "--device", "michelson",
        "--phi2", "0",
        "--phi1-grid", "0:2*pi:17",
        "--svg", str(svg),
    )
    assert res.returncode == 0
    body = svg.read_text()
    assert body.startswith("<svg")
    assert "polyline" in body


@pytest.mark.parametrize("grid, ticks", [("1e16:1e16+2:2", 1), ("1e17:1e17+100:3", 5)])
def test_sweep_svg_far_from_zero_ends_with_ticks_on_the_axis(grid, ticks, tmp_path):
    # 1e16: the x-tick loop stalled once step fell below half an ulp of t,
    # a hang; 1e17: about 6,260 tick labels ran past the axis.  The timeout
    # is short because the stalled loop grows a list without bound.
    svg = tmp_path / "far.svg"
    res = run("sweep", "--device", "michelson", "--phi2", "0.5", "--phi1-grid", grid,
              "--out", str(tmp_path / "far.csv"), "--svg", str(svg), timeout=10)
    assert (res.returncode, res.stderr) == (0, "")
    body = svg.read_text(encoding="utf-8")
    x_ticks = [float(x) for x in re.findall(r'<text x="(-?[\d.]+)" y="412"', body)]
    assert len(x_ticks) == ticks
    assert all(64.0 <= x <= 704.0 for x in x_ticks)
    assert len(set(x_ticks)) == ticks


def test_sweep_overflowing_grid_is_one_error_line():
    # linspace used to print five numpy RuntimeWarnings before the error
    res = run("sweep", "--device", "michelson", "--phi2", "0.5", "--phi1-grid=-1e308:1e308:3")
    assert res.returncode == 1
    assert res.stderr == ("error: grid span stop - start overflows, "
                          "got [-1e+308, 1e+308]\n")


def test_sensitivity_csv_dominance(tmp_path):
    out = tmp_path / "sens.csv"
    res = run("sensitivity", "--phi2-grid", "1e-4:2*pi-1e-4:12", "--out", str(out))
    assert res.returncode == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["phi2", "max_slope_gm", "max_slope_michelson", "argmax_phi1"]
    assert len(rows) == 13
    for row in rows[1:]:
        gm, mich = float(row[1]), float(row[2])
        assert gm > mich
        assert mich == pytest.approx(0.5, abs=1e-9)


def test_sensitivity_linear_spacing(tmp_path):
    out = tmp_path / "lin.csv"
    res = run(
        "sensitivity",
        "--phi2-grid", "1:4:4",
        "--spacing", "linear",
        "--out", str(out),
    )
    assert res.returncode == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    phi2 = [float(r[0]) for r in rows[1:]]
    assert phi2 == pytest.approx([1.0, 2.0, 3.0, 4.0])


def test_bias_report_and_perturbations():
    res = run(
        "bias",
        "--device", "grover-michelson",
        "--phi2", "pi/8",
        "--target", "0.5",
        "--delta", "0.01,1.5",
    )
    assert res.returncode == 0
    out = res.stdout
    assert "phi1 = " in out and "slope = " in out
    table = out[out.index("delta,dT,saturated"):].strip().splitlines()
    assert len(table) == 3
    first = table[1].split(",")
    assert first[2] == "false"
    assert table[2].split(",")[2] == "true"


def test_bias_delta_of_any_size_reports_one_row():
    # the saturation scan samples at most one period of the resonance
    res = run("bias", "--device", "grover-michelson", "--phi2", "pi/8", "--target", "0.5",
              "--delta", "1e300", timeout=60)
    assert res.returncode == 0
    table = res.stdout[res.stdout.index("delta,dT,saturated"):].strip().splitlines()
    assert len(table) == 2
    assert table[1].startswith("1e+300,") and table[1].endswith(",true")


@pytest.mark.parametrize("delta", ["inf", "nan", "1e309"])
def test_bias_bad_delta_fails_before_printing(delta):
    res = run("bias", "--device", "grover-michelson", "--phi2", "pi/8", "--target", "0.5",
              f"--delta=0.01,{delta}")
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("error:")


def test_bias_delta_of_whole_periods_without_a_resonance_saturates():
    # michelson has no cavity on phi1, yet T repeats with its mirror's
    # period; a grid over 1024 periods once sampled one phase of it
    res = run("bias", "--device", "michelson", "--phi2", "0", "--target", "0.5",
              "--delta", "1024*2*pi,2048*2*pi")
    assert res.returncode == 0
    table = res.stdout[res.stdout.index("delta,dT,saturated"):].strip().splitlines()
    assert [row.split(",")[2] for row in table[1:]] == ["true", "true"]


def test_bias_on_a_flat_ring_reports_a_zero_slope(tmp_path):
    # T is 1 at every phi1, and the pole's period is 2*pi: the peak search
    # samples a ring of equal slopes, none of them a strict peak
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({
        "devices": [{"id": "d", "kind": "matrix", "matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}],
        "seals": [{"device": "d", "port": "p3", "phase": "phi1"}],
        "open_ports": ["d.p1", "d.p2"]}))
    res = run("bias", "--device", str(flat), "--phi2", "0.3", "--target", "1",
              "--delta", "0.1,7")
    assert (res.returncode, res.stderr) == (0, "")
    assert "phi1 = 0.0\n" in res.stdout and "slope = 0.0\n" in res.stdout
    table = res.stdout[res.stdout.index("delta,dT,saturated"):].strip().splitlines()
    assert table[1:] == ["0.1,0.0,false", "7.0,0.0,false"]
    res = run("bias", "--device", str(flat), "--phi2", "0.3", "--target", "0.5")
    assert res.returncode == 3 and "Traceback" not in res.stderr


def test_degrees_flag_converts_inputs():
    res = run(
        "sweep",
        "--device", "michelson",
        "--phi2", "90",
        "--degrees",
        "--phi1-grid", "0:180:3",
    )
    assert res.returncode == 0
    rows = list(csv.reader(res.stdout.strip().splitlines()))
    # grid values come back in radians
    assert float(rows[2][0]) == pytest.approx(math.pi / 2)
    assert float(rows[2][2]) == pytest.approx(0.0, abs=1e-12)  # T(pi/2, pi/2) = 0


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"devices": [')
    res = run("smatrix", "--device", str(bad))
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "line" in res.stderr


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "twice.json"
    bad.write_text(
        json.dumps(
            {
                "devices": [{"id": "g", "kind": "grover(4)"}],
                "seals": [
                    {"device": "g", "port": "p3", "phase": 0},
                    {"device": "g", "port": "p3", "phase": 1},
                ],
            }
        )
    )
    res = run("smatrix", "--device", str(bad))
    assert res.returncode == 1


def test_singular_closure_exit_code(tmp_path):
    trapped = tmp_path / "trapped.json"
    trapped.write_text(
        json.dumps(
            {
                "devices": [{"id": "g", "kind": "grover(4)"}],
                "seals": [
                    {"device": "g", "port": "p1", "phase": 0},
                    {"device": "g", "port": "p2", "phase": 0},
                    {"device": "g", "port": "p3", "phase": 0},
                ],
            }
        )
    )
    res = run("smatrix", "--device", str(trapped))
    assert res.returncode == 2
    assert "singular" in res.stderr.lower()


def test_unreachable_target_exit_code():
    res = run("bias", "--device", "michelson", "--phi2", "0", "--target", "2.0")
    assert res.returncode == 3


def test_nan_target_exit_code():
    # was exit 3, "target T=nan outside attainable range"
    res = run("bias", "--device", "michelson", "--phi2", "0", "--target", "nan")
    assert res.returncode == 1
    assert res.stderr == "error: target T must be a number, got nan\n"


def test_bad_angle_expression_exit_code():
    res = run("smatrix", "--device", "michelson", "--phi1", "pi/")
    assert res.returncode == 1


def test_tolerance_env_override(tmp_path):
    # a matrix this far from unitary passes only when the tolerance is loose
    net = {
        "devices": [{"id": "m", "kind": "matrix", "matrix": [[0.999999]]}],
    }
    path = tmp_path / "near.json"
    path.write_text(json.dumps(net))
    strict = run("smatrix", "--device", str(path))
    assert strict.returncode == 1
    loose = run("smatrix", "--device", str(path), env_extra={"MULTIPORT_LAB_TOL": "1e-2"})
    assert loose.returncode == 0


def test_fusion_builtin_prints_coin(tmp_path):
    res = run("smatrix", "--device", "fusion")
    assert res.returncode == 0
    values = [float(v) for v in res.stdout.splitlines()[1].split()]
    assert values[0] == pytest.approx(-0.5, abs=1e-12)
    assert values[2] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("args", [
    ("smatrix", "--device", "michelson", "--phi2", "1e400"),
    ("smatrix", "--device", "michelson", "--phi1", "1e308*10"),
    ("sweep", "--device", "michelson", "--phi2", "1e200*1e200"),
    ("bias", "--device", "michelson", "--phi2", "1e400", "--target", "0.5"),
])
def test_overflowing_phase_is_a_validation_error(args):
    res = run(*args)
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ("sweep", "--device", "michelson", "--phi2", "1", "--phi1-grid", "0:1:1000000000000"),
    ("sensitivity", "--phi2-grid", "0.1:6:1000000000000"),
    ("sensitivity", "--phi2-grid", "0.1:3:1000000000000", "--spacing", "linear"),
])
def test_oversized_grid_is_a_validation_error(args, tmp_path):
    # used to end in an _ArrayMemoryError traceback ("Unable to allocate 7.28 TiB")
    res = run(*args, "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 1
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "x.csv").exists()


def test_builtin_name_wins_over_file_in_every_command(tmp_path):
    # a file named like a built-in must not shadow it in any command
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    (tmp_path / "fusion").write_text(json.dumps({
        "devices": [{"id": "bs", "kind": "beamsplitter4"}],
        "seals": [{"device": "bs", "port": "p3", "phase": "phi1"},
                  {"device": "bs", "port": "p4", "phase": "phi2"}],
    }))
    res = run("smatrix", "--device", "fusion", cwd=tmp_path, env_extra=env)
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "ports: left.p1 left.p2 right.p2 right.p3"
    res = run("sweep", "--device", "fusion", "--phi2", "0", "--phi1-grid", "0:pi:5",
              cwd=tmp_path, env_extra=env)
    assert res.returncode == 0
    rows = list(csv.reader(res.stdout.strip().splitlines()))[1:]
    # fusion has no phi1: T is the constant 3/4 of the 4-port coin
    assert [float(r[2]) for r in rows] == pytest.approx([0.75] * 5, abs=1e-12)
    res = run("bias", "--device", "fusion", "--phi2", "0", "--target", "0.5",
              cwd=tmp_path, env_extra=env)
    assert res.returncode == 3


@pytest.mark.parametrize("option", ["--out", "--svg"])
def test_unwritable_output_is_a_validation_error(option, tmp_path):
    # used to end in a FileNotFoundError traceback; for --svg, after the CSV
    path = tmp_path / "missing" / "x"
    res = run("sweep", "--device", "michelson", "--phi2", "1", option, str(path))
    assert res.returncode == 1
    assert res.stderr == f"error: cannot write {path}: No such file or directory\n"


def test_output_path_that_is_a_directory_is_a_validation_error(tmp_path):
    res = run("sensitivity", "--phi2-grid", "0.5:3:2", "--spacing", "linear",
              "--out", str(tmp_path))
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: cannot write {tmp_path}: ")
    assert "Traceback" not in res.stderr


def test_stdout_closed_early_ends_quietly(tmp_path):
    # `sweep --svg x.svg ... | head -1`: the reader leaves while many row
    # blocks remain; the chart is still written
    chart = tmp_path / "x.svg"
    proc = subprocess.Popen(
        CMD + ["sweep", "--device", "michelson", "--phi2", "1", "--phi1-grid", "0:1:200000",
               "--svg", str(chart)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"phi1,R,T,dT_dphi1\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert stderr == b""
    assert "</svg>" in chart.read_text(encoding="utf-8")


@pytest.mark.parametrize("args, code, message", [
    # phi1 stops increasing at sample 8192, 2^53, in the third block
    (["--device", "michelson", "--phi2", "1",
      "--phi1-grid", "9007199254732800:9007199254749184:16385"],
     1, "sweep grid must be strictly increasing in phi1"),
    # the last point, 2*pi at phi2 = 0, is the double resonance
    (["--device", "grover-michelson", "--phi2", "0", "--phi1-grid", "1:2*pi:5000"],
     2, "degenerate phase point (phi1, phi2) = (0, 0) mod 2pi in evaluation grid"),
])
def test_sweep_failing_in_a_later_block_leaves_no_out_file(args, code, message, tmp_path):
    # the first blocks' rows were written before the failure
    out = tmp_path / "curve.csv"
    res = run("sweep", *args, "--out", str(out))
    assert res.returncode == code
    assert res.stderr == f"error: {message}\n"
    assert not out.exists()
    fifo = tmp_path / "fifo"  # a special file is never removed
    os.mkfifo(fifo)
    reader = subprocess.Popen(["wc", "-c", str(fifo)], stdout=subprocess.PIPE, text=True)
    try:
        res = run("sweep", *args, "--out", str(fifo), timeout=60)
        written = int(reader.communicate(timeout=60)[0].split()[0])
    finally:
        reader.kill()
        reader.communicate()
    assert written > 4096
    assert res.returncode == code
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.parametrize("command", [
    ["smatrix"], ["sweep", "--phi2", "1"], ["bias", "--phi2", "1", "--target", "0.5"],
])
def test_device_that_is_a_directory_is_a_validation_error(command, tmp_path):
    # used to end in an IsADirectoryError traceback
    res = run(command[0], "--device", str(tmp_path), *command[1:])
    assert res.returncode == 1
    assert res.stderr == f"error: cannot read {tmp_path}: Is a directory\n"


def test_device_file_that_is_not_utf8_is_a_validation_error(tmp_path):
    # used to end in a UnicodeDecodeError traceback
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"devices": [{"id": "caf\xe9", "kind": "grover(4)"}]}')
    res = run("smatrix", "--device", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    assert res.stderr.count("\n") == 1


def test_deeply_nested_netlist_json_is_a_parse_error(tmp_path):
    # used to end in a RecursionError traceback from the JSON decoder
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    res = run("smatrix", "--device", str(path))
    assert res.returncode == 1
    assert res.stderr == "error: netlist nests too deeply\n"


MICHELSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "docs", "netlists", "michelson.json")
DEPTH = 10_000
#: phi1 seal phases DEPTH deep; each used to end in a RecursionError traceback
DEEP_PHASES = {
    "parentheses": "(" * DEPTH + "phi1" + ")" * DEPTH,
    "unary minus": "-" * DEPTH + "phi1",
    "left sum": "+".join(["phi1"] * DEPTH),
    "right-nested difference": "phi1-(" * (DEPTH - 1) + "phi1" + ")" * (DEPTH - 1),
    "unbalanced parentheses": "(" * DEPTH + "phi1" + ")" * (DEPTH - 1),
}


@pytest.mark.parametrize("name", sorted(DEEP_PHASES))
def test_deep_phase_in_a_netlist_exits_without_a_traceback(name, tmp_path):
    with open(MICHELSON, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["seals"][0]["phase"] == "phi1"
    doc["seals"][0]["phase"] = DEEP_PHASES[name]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    res = run("smatrix", "--device", str(path), "--phi1", "0.3", "--phi2", "0.5")
    assert "Traceback" not in res.stderr
    if name.startswith("unbalanced"):
        assert res.returncode == 1
        assert res.stderr == f"error: line 1, column {2 * DEPTH + 4}: expected ')'\n"
    else:
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("ports: bs.p1 bs.p2\n")
