"""The streamed CSV writer: shortest round-trip repr of every value, the same
bytes to a file and to stdout, and memory that does not grow with the file."""

import contextlib
import io
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from multiport_lab import analysis, cli, floatfmt

EDGE = [-0.0, 5e-324, 1e-05, 0.1, 2.0, 1e16, 1e22, 1 / 3, math.inf, math.nan,
        -math.inf, -1e-300, 6.283185307179586]
HEADER = "a,b,c,d"
SLICE = floatfmt._SLICE_ROWS


def reference(header, columns):
    """The CSV as one string, one repr per value."""
    return header + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)
    )


# half a slice of the formatter, either side of one slice, and past two
@pytest.mark.parametrize("rows", [SLICE // 2 - 1, SLICE // 2, SLICE // 2 + 1,
                                  SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1])
def test_streamed_csv_is_the_repr_of_every_value(rows, tmp_path, capsys):
    columns = [np.resize(np.roll(EDGE, k), rows) for k in range(3)]
    columns.append(np.resize(EDGE, rows).tolist())  # a column given as floats
    expected = reference(HEADER, columns)
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), HEADER, columns)
    assert path.read_bytes() == expected.encode("ascii")
    cli._write_csv(None, HEADER, columns)
    assert capsys.readouterr().out == expected
    with contextlib.redirect_stdout(io.StringIO()) as text:  # a stdout without bytes
        cli._write_csv(None, HEADER, columns)
    assert text.getvalue() == expected


def test_csv_without_rows_is_the_header_line(tmp_path):
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), HEADER, [np.empty(0)] * 4)
    assert path.read_bytes() == b"a,b,c,d\n"


def test_csv_memory_does_not_grow_with_the_file(tmp_path):
    # A 2^17-row sweep CSV is about 10 MB.  Formatting it as one string
    # peaked at about 36 MB of traced memory; slices of rows at about 0.4 MB
    # beyond the 4 MiB table.
    grid = analysis.GridSpec(0.0, 2.0 * math.pi, 1 << 17)
    curve = analysis.sweep(analysis.resolve_device("grover-michelson"), 0.7, grid)
    table = np.stack((curve.phi1, curve.R, curve.T, curve.dT_dphi1), axis=1)
    path = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        cli._write(str(path), cli._csv(cli.SWEEP_CSV_HEADER, [table]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 8 * 2**20
    assert peak < 4 * 2**20


def test_tables_shorter_than_a_slice_skip_the_kernel(tmp_path):
    # The kernel's first use builds its tables and workspace and pages in
    # numpy's uint64 loops, 0.5-0.9 MB of peak RSS: a 257-point sweep and a
    # 64-point sensitivity profile write their rows by repr instead, and a
    # 4096-point sweep, in blocks of two slices, still takes the kernel.
    code = """
import sys
from multiport_lab import cli, floatfmt
out, sweep = sys.argv[1], ["sweep", "--device", "grover-michelson", "--phi2", "pi/8"]
assert cli.main(sweep + ["--phi1-grid", "0:2*pi:257", "--out", out + "/sweep.csv"]) == 0
assert cli.main(["sensitivity", "--phi2-grid", "1e-5:2*pi-1e-5:64",
                 "--out", out + "/profile.csv"]) == 0
print(floatfmt._tables.cache_info().currsize, hasattr(floatfmt._local, "workspace"))
assert cli.main(sweep + ["--phi1-grid", "0:2*pi:4096", "--out", out + "/long.csv"]) == 0
print(floatfmt._tables.cache_info().currsize, hasattr(floatfmt._local, "workspace"))
"""
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, timeout=120, check=True)
    assert res.stdout == "0 False\n1 True\n"
    for name, rows in (("sweep.csv", 257), ("profile.csv", 64), ("long.csv", 4096)):
        lines = (tmp_path / name).read_text(encoding="ascii").splitlines()[1:]
        assert len(lines) == rows
        assert lines == [",".join(repr(float(v)) for v in line.split(",")) for line in lines]
