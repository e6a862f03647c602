"""The streamed sweep: a grid built block by block is np.linspace's, and a
sweep written and charted one block at a time gives the bytes of the whole
arrays in memory that does not grow with the grid."""

import io
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from multiport_lab import analysis, cli, floatfmt, svg
from multiport_lab.analysis import SWEEP_BLOCK, GridSpec
from multiport_lab.errors import ValidationError

TWO_PI = 2.0 * math.pi


def blocked(grid):
    return np.concatenate([grid.block(i, min(i + SWEEP_BLOCK, grid.count))
                           for i in range(0, grid.count, SWEEP_BLOCK)])


def test_streamed_blocks_are_the_charts_blocks():
    # the chart reduces 4096-sample blocks; a stream of other blocks would
    # keep other samples
    assert SWEEP_BLOCK == svg._POINTS_PER_BLOCK


@pytest.mark.parametrize("count", [2, 4095, 4096, 4097, 2 ** 19 + 3])
def test_block_grid_is_linspace_bit_for_bit(count):
    rng = np.random.default_rng(count)
    spans = [(0.0, 5e-324), (-0.0, 1.0), (0.0, TWO_PI), (9007199254732800.0, 9007199254749184.0)]
    for _ in range(6):
        a, b = np.sort(rng.uniform(-1.0, 1.0, 2)) * 10.0 ** rng.integers(-300, 300)
        spans.append((float(a), float(b)))
    for start, stop in spans:
        grid = GridSpec(start, stop, count).checked()
        want = np.linspace(start, stop, count)
        assert np.array_equal(blocked(grid).view(np.uint64), want.view(np.uint64)), (start, stop)
        assert np.array_equal(grid.values().view(np.uint64), want.view(np.uint64))


def test_subnormal_span_takes_linspaces_zero_step_branch():
    # 5e-324 / 2 rounds to 0: linspace divides, then multiplies by the span
    grid = GridSpec(0.0, 5e-324, 3).checked()
    assert (grid.stop - grid.start) / (grid.count - 1) == 0.0
    assert blocked(grid).tolist() == [0.0, 0.0, 5e-324]


def test_a_grid_that_stalls_between_blocks_is_refused(monkeypatch):
    # 2^53 + 1 rounds to 2^53: with one-sample blocks only the check across
    # the block boundary sees it
    monkeypatch.setattr(analysis, "SWEEP_BLOCK", 1)
    grid = GridSpec(2.0 ** 53 - 2, 2.0 ** 53 + 2, 5)
    with pytest.raises(ValidationError, match="strictly increasing"):
        list(analysis.sweep_blocks("michelson", 1.0, grid))


def test_sweep_gathers_its_blocks():
    grid = GridSpec(0.0, TWO_PI, 2 * SWEEP_BLOCK + 7)
    curve = analysis.sweep("grover-michelson", 0.7, grid)
    blocks = list(analysis.sweep_blocks("grover-michelson", 0.7, grid))
    assert [len(b.phi1) for b in blocks] == [SWEEP_BLOCK, SWEEP_BLOCK, 7]
    for name in ("phi1", "R", "T", "dT_dphi1"):
        whole = np.concatenate([getattr(b, name) for b in blocks])
        assert np.array_equal(getattr(curve, name), whole)


def sweep_args(count, *out):
    return ["sweep", "--device", "grover-michelson", "--phi2", "0.7",
            "--phi1-grid", f"0:2*pi:{count}", *out]


def whole_array_outputs(count):
    """The CSV and SVG of the sweep formatted from whole arrays."""
    curve = analysis.sweep("grover-michelson", 0.7, GridSpec(0.0, TWO_PI, count))
    table = np.stack((curve.phi1, curve.R, curve.T, curve.dT_dphi1), axis=1)
    chart = svg.line_chart([("T (grover-michelson)", curve.phi1, curve.T)],
                           x_label="phi1 (rad)", y_label="T", title="transmission at phi2=0.7")
    return cli.SWEEP_CSV_HEADER + "\n" + floatfmt.format_rows(table), chart


def test_streamed_sweep_writes_the_bytes_of_the_whole_arrays(tmp_path):
    count = 3 * SWEEP_BLOCK + 5  # dense: M4 drops samples in every block
    csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
    assert cli.main(sweep_args(count, "--out", str(csv_path), "--svg", str(svg_path))) == 0
    csv_text, chart = whole_array_outputs(count)
    assert csv_path.read_text(encoding="utf-8") == csv_text
    assert svg_path.read_text(encoding="utf-8") == chart
    assert chart.count(",") < count // 2


def test_stdout_closed_early_still_charts_every_block(tmp_path):
    # the reader leaves after the header; every later block must still be
    # evaluated and folded into the chart
    count = 40 * SWEEP_BLOCK
    chart = tmp_path / "x.svg"
    proc = subprocess.Popen([sys.executable, "-m", "multiport_lab",
                             *sweep_args(count, "--svg", str(chart))],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"phi1,R,T,dT_dphi1\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert stderr == b""
    assert chart.read_text(encoding="utf-8") == whole_array_outputs(count)[1]


class ReaderGone:
    """A stdout whose reader leaves after the first write."""

    def __init__(self):
        self.buffer, self.writes = self, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError

    def flush(self):
        pass

    def fileno(self):
        raise io.UnsupportedOperation("no descriptor")


def test_stdout_closed_early_formats_no_later_rows(tmp_path, monkeypatch):
    # after the reader leaves, the later blocks are evaluated for the chart
    # but their rows are not formatted
    count = 3 * SWEEP_BLOCK
    formatted = []
    iter_rows = floatfmt.iter_rows

    def counted(table):
        for chunk in iter_rows(table):
            formatted.append(len(chunk))
            yield chunk

    monkeypatch.setattr(floatfmt, "iter_rows", counted)
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", ReaderGone())
        assert cli.main(sweep_args(count, "--svg", str(tmp_path / "early.svg"))) == 0
    assert len(formatted) == 1  # the slice whose write met the closed pipe
    formatted.clear()
    out = ("--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "full.svg"))
    assert cli.main(sweep_args(count, *out)) == 0
    assert len(formatted) == count // floatfmt._SLICE_ROWS
    assert (tmp_path / "early.svg").read_bytes() == (tmp_path / "full.svg").read_bytes()


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    # With the whole grid in memory a 2^18-point sweep with --svg peaked at
    # about 14 MiB of traced memory; streamed, at about 7 MiB, nearly all of
    # it formatting one 4096-row block (`floatfmt.format_rows`); with the
    # formatter working in its per-thread workspace, made by the first call,
    # at about 0.58 MiB.
    out = ("--out", str(tmp_path / "s.csv"), "--svg", str(tmp_path / "s.svg"))
    assert cli.main(sweep_args(SWEEP_BLOCK, *out)) == 0  # first use: tables, workspace
    tracemalloc.start()
    try:
        assert cli.main(sweep_args(1 << 18, *out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "s.csv").stat().st_size > 16 * 2**20
    assert peak < 0.875 * 2**20
