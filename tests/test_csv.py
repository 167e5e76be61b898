"""The CSV writer behind every artifact: byte identity with the per-row
oracle on each path it can take (per-value repr, the shortest-digits
kernel, forked slices, a failed child, a live thread), and no child left
behind."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hustab
from conftest import naive_csv_text
from hustab import csvtext
from hustab.csvtext import csv_text

FORK_CELLS = csvtext._FORK_MIN_CELLS
FORK_ROWS = -(-FORK_CELLS // 7)  # the rows of a 7-column table that make one forked slice
KERNEL_ROWS = csvtext._VECTOR_MIN_ROWS


def _bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


# Signed zeros, signed NaNs and NaN payloads (quiet, signalling, negative),
# infinities, subnormals, and both sides of repr's switch to exponent form
# at 1e16 and below 1e-4.
EDGE = np.concatenate([
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf],
    _bits(0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000002, 0x0000000000000001, 0x800FFFFFFFFFFFFF),
    [2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
     1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 9999999999999998.0,
     1e-4, np.nextafter(1e-4, 0.0), 1e-5, np.nextafter(1e-5, 1.0), 0.1, 1.0 / 3.0, 1.0, 100.0],
])


def _table(rows, seed=0):
    """An int column, then float columns: the edge values cycled and
    shuffled, one value repeated 500 times over, random magnitudes across
    the float range, and the strided real and imaginary views of a complex
    array, as the shadow passes them."""
    rng = np.random.default_rng(seed)
    spread = rng.standard_normal(rows) * np.exp(rng.uniform(-700.0, 700.0, rows))
    z = np.empty(rows, dtype=complex)
    z.real, z.imag = spread, np.resize(EDGE, rows)
    return (
        np.arange(1, rows + 1),
        np.resize(EDGE, rows),
        rng.choice(EDGE, rows),
        np.repeat(rng.standard_normal(rows // 500 + 1), 500)[:rows],
        spread,
        z.real,
        z.imag,
    )


@pytest.fixture
def forks(monkeypatch):
    """A one-item list counting the forks this process makes."""
    count, fork = [0], os.fork

    def counting():
        pid = fork()
        if pid:
            count[0] += 1
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return count


def _allow_cpus(monkeypatch, k):
    # More CPUs than the machine has is fine: the children share the CPUs
    # there are.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097])
def test_inline_rows_match_the_oracle(rows, forks):
    cols = _table(rows)
    assert csv_text("n,a,b,c,d,e,f", *cols) == naive_csv_text("n,a,b,c,d,e,f", *cols)
    assert forks[0] == 0


@pytest.mark.parametrize("cpus, rows", [(2, 2 * FORK_ROWS), (2, 5 * FORK_ROWS + 3), (3, 3 * FORK_ROWS + 7)])
def test_forked_slices_match_the_oracle(monkeypatch, forks, capfd, cpus, rows):
    _allow_cpus(monkeypatch, cpus)
    cols = _table(rows, seed=rows)
    assert csv_text("n,a,b,c,d,e,f", *cols) == naive_csv_text("n,a,b,c,d,e,f", *cols)
    assert forks[0] == min(cpus, rows * 7 // FORK_CELLS) - 1
    assert _no_children_left()
    assert capfd.readouterr().err == ""


def test_one_allowed_cpu_formats_inline(monkeypatch, forks):
    _allow_cpus(monkeypatch, 1)
    cols = _table(4 * FORK_ROWS)
    assert csv_text("h", *cols) == naive_csv_text("h", *cols)
    assert forks[0] == 0


def test_live_thread_formats_inline(monkeypatch, forks):
    # Forking beside another thread could copy a lock that thread holds.
    _allow_cpus(monkeypatch, 2)
    cols = _table(2 * FORK_ROWS)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert csv_text("h", *cols) == naive_csv_text("h", *cols)
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert forks[0] == 0


def test_failed_child_slice_is_formatted_here(monkeypatch, forks, capfd):
    _allow_cpus(monkeypatch, 3)
    parent, rows_of = os.getpid(), csvtext._csv_rows

    def fails_in_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("child fails")
        return rows_of(*args)

    monkeypatch.setattr(csvtext, "_csv_rows", fails_in_child)
    cols = _table(3 * FORK_ROWS)
    assert csv_text("h", *cols) == naive_csv_text("h", *cols)
    assert forks[0] == 2
    assert _no_children_left()
    assert capfd.readouterr().err == ""  # a failed child prints nothing


def test_children_are_reaped_when_the_parent_raises(monkeypatch, forks):
    _allow_cpus(monkeypatch, 3)
    parent, rows_of = os.getpid(), csvtext._csv_rows

    def fails_in_parent(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent fails")
        return rows_of(*args)

    monkeypatch.setattr(csvtext, "_csv_rows", fails_in_parent)
    with pytest.raises(RuntimeError, match="parent fails"):
        csv_text("h", *_table(3 * FORK_ROWS))
    assert forks[0] == 2
    assert _no_children_left()


def test_no_process_left_formats_here(monkeypatch):
    _allow_cpus(monkeypatch, 3)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    cols = _table(3 * FORK_ROWS)
    assert csv_text("h", *cols) == naive_csv_text("h", *cols)
    assert _no_children_left()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=300), st.integers(1, 8))
def test_any_bit_patterns_match_the_oracle(patterns, period):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    cols = (np.arange(len(x)), x, np.resize(x[:period], len(x)), x[::-1])
    assert csv_text("n,x,y,z", *cols) == naive_csv_text("n,x,y,z", *cols)


def _neighbours(x):
    """x and its float neighbours on both sides, finite ones only."""
    with np.errstate(over="ignore"):
        near = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return near[np.isfinite(near)]


# What the shortest-digits kernel must print as repr does, in both signs:
# every power of 2 and of 10 and its neighbours, the smallest subnormals
# and the largest, the integers around 2^53 and the normals just past it,
# NaN payloads, both sides of repr's switch to exponent form at 1e16 and
# below 1e-4, and 2- and 3-digit exponents.
BOUNDARY = np.concatenate([
    _neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    _neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])),
    np.arange(1, 4097, dtype=np.uint64).view(np.float64),
    (np.uint64(1 << 52) - np.arange(1, 4097, dtype=np.uint64)).view(np.float64),
    2.0**53 + np.arange(-2048.0, 2048.0),
    2.0**53 + 2.0 * np.arange(2048.0),
    [5e-324, 1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
     1.5e-05, 1e-10, 1.5e99, 1e100, 1.5e-99, 1e-100, 123456.789e200, 0.1, 1.0 / 3.0, 2.0 / 3.0],
])
BOUNDARY = np.concatenate([
    BOUNDARY,
    -BOUNDARY,
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf],
    _bits(0x7FF8000000000001, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF, 0xFFF8000000000002, 0xFFF0000000000001),
])


def _kernel_table(x, rows):
    """Four float columns of at least `rows` rows beside an int column:
    x in order, reversed, shifted by one row and shuffled."""
    x = np.resize(x, max(rows, len(x)))
    shuffled = np.random.default_rng(len(x)).permutation(x)
    return np.arange(len(x)), x, x[::-1], np.roll(x, 1), shuffled


def test_kernel_boundary_values_match_the_oracle():
    cols = _kernel_table(BOUNDARY, KERNEL_ROWS)
    assert csv_text("n,a,b,c,d", *cols) == naive_csv_text("n,a,b,c,d", *cols)


def test_kernel_random_bit_patterns_match_the_oracle():
    x = np.random.default_rng(20).integers(0, 2**64, 2**20, dtype=np.uint64).view(np.float64)
    cols = (np.arange(2**18), *x.reshape(4, -1))
    assert csv_text("n,a,b,c,d", *cols) == naive_csv_text("n,a,b,c,d", *cols)


def test_kernel_int_columns_match_the_oracle():
    i64 = np.iinfo(np.int64)
    edges = [0, 1, -1, 9, -9, 10, -10, i64.min, i64.max, i64.min + 1, i64.max - 1]
    powers = [10**k for k in range(19)] + [10**k - 1 for k in range(1, 19)]
    rng = np.random.default_rng(5)
    x = np.concatenate([edges, powers, np.negative(powers), rng.integers(i64.min, i64.max, 4096, endpoint=True),
                        rng.integers(-1000, 1000, 4096)]).astype(np.int64)
    cols = (x, x[::-1].astype(float), rng.permutation(x))
    assert csv_text("a,b,c", *cols) == naive_csv_text("a,b,c", *cols)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.integers(0, 3))
def test_kernel_any_bit_patterns_match_the_oracle(patterns, extra):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    cols = _kernel_table(x, KERNEL_ROWS + extra)
    assert csv_text("n,a,b,c,d", *cols) == naive_csv_text("n,a,b,c,d", *cols)


@pytest.mark.parametrize("rows, kernel_calls", [(KERNEL_ROWS - 1, 0), (KERNEL_ROWS, 1)])
def test_kernel_formats_from_its_threshold_on(monkeypatch, rows, kernel_calls):
    calls, cells_text = [0], csvtext._cells_text

    def counting(columns):
        calls[0] += 1
        return cells_text(columns)

    monkeypatch.setattr(csvtext, "_cells_text", counting)
    cols = _kernel_table(BOUNDARY, rows)
    cols = tuple(c[:rows] for c in cols)
    assert csv_text("n,a,b,c,d", *cols) == naive_csv_text("n,a,b,c,d", *cols)
    assert calls[0] == kernel_calls


def test_import_builds_no_table():
    # The kernel's tables are built on first use, so importing the CLI, as
    # every run does, pays for none of them.
    src = str(Path(hustab.__file__).parents[1])
    code = (
        "import hustab.cli, hustab.csvtext as c\n"
        "assert all(f.cache_info().currsize == 0 for f in (c._words, c._pow10, c._multipliers, c._patterns))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0
