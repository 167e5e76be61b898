"""The CSV writer behind every artifact: byte identity with the per-row
oracle on each path it can take (inline, forked slices, a failed child, a
live thread), and no child left behind."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_csv_text
from hustab import products
from hustab.products import _csv_text

FORK_ROWS = products._FORK_MIN_ROWS


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
    assert _csv_text("n,a,b,c,d,e,f", *cols) == naive_csv_text("n,a,b,c,d,e,f", *cols)
    assert forks[0] == 0


@pytest.mark.parametrize("cpus, rows", [(2, 2 * FORK_ROWS), (2, 5 * FORK_ROWS + 3), (3, 3 * FORK_ROWS + 7)])
def test_forked_slices_match_the_oracle(monkeypatch, forks, capfd, cpus, rows):
    _allow_cpus(monkeypatch, cpus)
    cols = _table(rows, seed=rows)
    assert _csv_text("n,a,b,c,d,e,f", *cols) == naive_csv_text("n,a,b,c,d,e,f", *cols)
    assert forks[0] == min(cpus, rows // FORK_ROWS) - 1
    assert _no_children_left()
    assert capfd.readouterr().err == ""


def test_one_allowed_cpu_formats_inline(monkeypatch, forks):
    _allow_cpus(monkeypatch, 1)
    cols = _table(4 * FORK_ROWS)
    assert _csv_text("h", *cols) == naive_csv_text("h", *cols)
    assert forks[0] == 0


def test_live_thread_formats_inline(monkeypatch, forks):
    # Forking beside another thread could copy a lock that thread holds.
    _allow_cpus(monkeypatch, 2)
    cols = _table(2 * FORK_ROWS)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    try:
        assert _csv_text("h", *cols) == naive_csv_text("h", *cols)
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert forks[0] == 0


def test_failed_child_slice_is_formatted_here(monkeypatch, forks, capfd):
    _allow_cpus(monkeypatch, 3)
    parent, rows_of = os.getpid(), products._csv_rows

    def fails_in_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("child fails")
        return rows_of(*args)

    monkeypatch.setattr(products, "_csv_rows", fails_in_child)
    cols = _table(3 * FORK_ROWS)
    assert _csv_text("h", *cols) == naive_csv_text("h", *cols)
    assert forks[0] == 2
    assert _no_children_left()
    assert capfd.readouterr().err == ""  # a failed child prints nothing


def test_children_are_reaped_when_the_parent_raises(monkeypatch, forks):
    _allow_cpus(monkeypatch, 3)
    parent, rows_of = os.getpid(), products._csv_rows

    def fails_in_parent(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent fails")
        return rows_of(*args)

    monkeypatch.setattr(products, "_csv_rows", fails_in_parent)
    with pytest.raises(RuntimeError, match="parent fails"):
        _csv_text("h", *_table(3 * FORK_ROWS))
    assert forks[0] == 2
    assert _no_children_left()


def test_no_process_left_formats_here(monkeypatch):
    _allow_cpus(monkeypatch, 3)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    cols = _table(3 * FORK_ROWS)
    assert _csv_text("h", *cols) == naive_csv_text("h", *cols)
    assert _no_children_left()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=300), st.integers(1, 8))
def test_any_bit_patterns_match_the_oracle(patterns, period):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    cols = (np.arange(len(x)), x, np.resize(x[:period], len(x)), x[::-1])
    assert _csv_text("n,x,y,z", *cols) == naive_csv_text("n,x,y,z", *cols)
