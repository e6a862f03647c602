"""The vectorized CSV float formatter writes exactly Python's repr."""

import math
import random
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from multiport_lab import cli, floatfmt

SLICE = floatfmt._SLICE_ROWS
EDGE = [-0.0, 5e-324, 1e-05, 1e16, 1e22, math.inf, -math.inf, math.nan]
NANS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
        0xFFF0000000000001, 0x7FF4000000000000, 0x7FFFFFFFFFFFFFFF,
        0xFFFFFFFFFFFFFFFF]


def assert_repr(values):
    """format_rows of `values` as one column gives one repr per line."""
    values = np.asarray(values, dtype=np.float64)
    got = floatfmt.format_rows(values.reshape(-1, 1)).splitlines()
    want = [repr(v) for v in values.tolist()]
    assert len(got) == len(want)
    wrong = [(w, g) for g, w in zip(got, want) if g != w]
    assert wrong[:5] == []


def kernel(table):
    """The kernel's bytes for a float64 `table` of any size, which
    `iter_rows` writes by repr below one slice: slice by slice in one
    workspace that every call shares, as a thread's is."""
    table = np.ascontiguousarray(table)
    bits, cols = table.reshape(-1).view(np.uint64), table.shape[1]
    return b"".join(bytes(floatfmt._format_slice(WORKSPACE, bits[i:i + SLICE * cols], cols))
                    for i in range(0, bits.size, SLICE * cols))


WORKSPACE = floatfmt._Workspace(4 * SLICE)


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


def corpus():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-323, 309)])
    near_2_53 = np.arange(2**53 - 64, 2**53 + 64).astype(np.float64)
    switches = [1e-4, 1e16]  # repr's fixed/scientific boundaries
    finite = neighbours(np.concatenate([powers_of_two, powers_of_ten, near_2_53, switches]))
    short = [float(f"{m}e{e}") for m in (1, 5, 25, 123) for e in range(-324, 308)]
    subnormal = np.concatenate([np.arange(1, 2048, dtype=np.uint64),
                                (1 << 52) - np.arange(1, 2048, dtype=np.uint64)])
    rng = np.random.default_rng(20201029)
    bits = rng.integers(0, 2**64, 1 << 14, dtype=np.uint64, endpoint=False)
    return np.concatenate([
        finite, -finite, short, subnormal.view(np.float64), bits.view(np.float64),
        rng.uniform(-1.0, 1.0, 1 << 12), rng.uniform(0.0, 2.0 * math.pi, 1 << 12),
        [0.0, -0.0, math.inf, -math.inf], np.array(NANS, dtype=np.uint64).view(np.float64),
    ])


def test_corpus_is_written_as_repr():
    assert_repr(corpus())


def test_rows_are_joined_by_commas_and_ended_by_newlines():
    table = np.array([[1.0, -0.5, 1e-7], [2.5e300, math.nan, 100.0]])
    assert floatfmt.format_rows(table) == "1.0,-0.5,1e-07\n2.5e+300,nan,100.0\n"
    assert floatfmt.format_rows(np.empty((0, 4))) == ""


@pytest.mark.parametrize("rows", [0, 1, SLICE // 2 - 1, SLICE // 2, SLICE // 2 + 1,
                                  SLICE - 1, SLICE, SLICE + 1])
def test_csv_blocks_write_the_repr_of_every_value(rows, tmp_path):
    values = np.resize(corpus(), 3 * rows).reshape(3, rows)
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), "a,b,c", values)
    lines = ["a,b,c"] + [",".join(map(repr, row)) for row in zip(*values.tolist())]
    assert path.read_text(encoding="ascii") == "\n".join(lines) + "\n"
    assert kernel(values.T) == "".join(line + "\n" for line in lines[1:]).encode()


def reference(table):
    """The CSV lines of `table`, one repr per value."""
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


def edge_table(rows, cols, seed):
    """A rows x cols table of random bit patterns, about half of them
    replaced by the edge values."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2**64, rows * cols, dtype=np.uint64, endpoint=False).view(np.float64)
    edge = rng.random(values.size) < 0.5
    values[edge] = rng.choice(EDGE, int(edge.sum()))
    return values.reshape(rows, cols)


def test_slices_of_any_size_write_the_repr_of_every_value():
    # row counts around the slice size and the sweep's block, in a shuffled
    # order, so that bytes a slice leaves in the workspace cannot leak into
    # a later, shorter or narrower one; by the kernel too below one slice
    cases = [(rows, cols) for rows in (0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1, 4096)
             for cols in (1, 2, 3, 4)]
    random.Random(14).shuffle(cases)
    for seed, (rows, cols) in enumerate(cases):
        table = edge_table(rows, cols, seed)
        want = reference(table)
        assert floatfmt.format_rows(table) == want, (rows, cols)
        assert b"".join(bytes(c) for c in floatfmt.iter_rows(table)) == want.encode(), (rows, cols)
        assert kernel(table) == want.encode(), (rows, cols)


def test_threads_formatting_at_once_each_get_their_own_bytes():
    # every thread has its own workspace; four threads on two cores, with
    # short switch intervals, would mix up a shared one
    tables = [edge_table(SLICE + 7 * k, 4 - k % 2, 100 + k) for k in range(4)]
    wants = [reference(t) for t in tables]
    wrong = []

    def work(k):
        for _ in range(10):
            if floatfmt.format_rows(tables[k]) != wants[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def repr_shape(value):
    """(decpt, digits) of repr(value) = 0.d1d2...d_digits * 10**decpt."""
    t = Decimal(repr(value)).normalize().as_tuple()
    return len(t.digits) + t.exponent, len(t.digits)


def layout_values():
    """A double for each decimal point place decpt from -5 to 18 (across
    repr's switches to scientific form below -3 and above 16) and each count
    of significant digits from 1 to 17, with both signs; exponents of two and
    three digits; zeros, infinities and nan."""
    values = []
    for decpt in range(-5, 19):
        for digits in range(1, 18):
            value = next(v for head in ("3141592653589793", "2718281828459045")
                         for tail in "123456789"
                         for v in [float(f"0.{head[:digits - 1]}{tail}e{decpt}")]
                         if repr_shape(v) == (decpt, digits))
            values += [value, -value]
    return values + [5e-324, 1e-100, 1e-05, 1e16, 1e22, 1e300, 0.0, -0.0,
                     math.inf, -math.inf, math.nan]


def test_every_layout_in_every_column_is_written_as_repr():
    # each value in each column of 1- to 4-column rows, so that every
    # layout meets both separators at every length, by the kernel: the
    # table is shorter than one slice
    values = np.array(layout_values())
    assert len(values) == 24 * 17 * 2 + 11
    for cols in (1, 2, 3, 4):
        table = np.stack([np.roll(values, j) for j in range(cols)], axis=1)
        assert kernel(table) == reference(table).encode(), cols


def test_formatting_a_block_allocates_little_beyond_its_text():
    # A 4096 x 4 block once peaked at 6.2 MiB of traced memory for 0.3 MiB
    # of text, 3.1 MiB of it a 25-slot intp gather index per value; in place
    # in the thread's workspace it is about 0.3 MiB beyond the text.
    rng = np.random.default_rng(7)
    table = np.stack([rng.uniform(0.0, 2.0 * math.pi, 4096), rng.uniform(0.0, 1.0, 4096),
                      rng.uniform(0.0, 1.0, 4096), rng.normal(0.0, 50.0, 4096)], axis=1)
    floatfmt.format_rows(table)  # first use: tables and workspace
    tracemalloc.start()
    try:
        text = floatfmt.format_rows(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == reference(table)
    assert peak - len(text) < 2**20


def test_workspace_is_small_and_every_chunk_is_a_view_of_it():
    # the words, the NUL mask and the dropped bytes reuse scratch rows that
    # are dead at that stage: with arrays of their own, 8192 values took
    # 2.3 MB of scratch
    ws = floatfmt._Workspace(4 * SLICE)
    arrays = [a for a in vars(ws).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 1.5 * 2**20
    table, text = edge_table(2 * SLICE + 1, 4, 3), b""
    old, floatfmt._local.workspace = getattr(floatfmt._local, "workspace", None), ws
    try:
        for chunk in floatfmt.iter_rows(table):
            assert floatfmt._local.workspace is ws
            assert any(np.shares_memory(np.asarray(chunk), a) for a in arrays)
            text += bytes(chunk)
    finally:
        floatfmt._local.workspace = old
    assert text == reference(table).encode()


def test_exponent_shortcuts_are_exact():
    # floor(log10 2**q), floor(log10 (3/4 * 2**q)) and floor(log2 10**e) by
    # multiply-and-shift, over every binary exponent of a double
    for q in range(-1074, 972):
        assert (q * 1262611) >> 22 == _floor_log10(Fraction(2)**q)
        assert (q * 1262611 - 524031) >> 22 == _floor_log10(Fraction(3, 4) * Fraction(2)**q)
    for e in range(floatfmt._E_MIN, floatfmt._E_MAX + 1):
        floor_log2 = (10**e).bit_length() - 1 if e >= 0 else -(10**-e).bit_length()
        assert (e * 1741647) >> 19 == floor_log2


def _floor_log10(x):
    k = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while Fraction(10)**k > x:
        k -= 1
    while Fraction(10)**(k + 1) <= x:
        k += 1
    return k

