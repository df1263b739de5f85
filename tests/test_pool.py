import os
import subprocess
import sys
import textwrap
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from shatterlab import _pool, randgen
from shatterlab.randgen import sample_levels

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cpu_count_is_the_affinity_set():
    if hasattr(os, "sched_getaffinity"):
        assert _pool.cpu_count() == len(os.sched_getaffinity(0))
    else:
        assert _pool.cpu_count() == (os.cpu_count() or 1)


def test_block_threads_bounds(monkeypatch):
    monkeypatch.setattr(_pool, "cpu_count", lambda: 3)
    assert [_pool.block_threads(k) for k in (0, 1, 2, 3, 50)] == [1, 1, 2, 3, 3]
    monkeypatch.setattr(_pool, "cpu_count", lambda: 1)
    assert _pool.block_threads(50) == 1
    monkeypatch.setattr(_pool, "cpu_count", lambda: 3)
    monkeypatch.setattr(_pool, "_alone", True)  # as in a process-pool worker
    assert _pool.block_threads(50) == 1


def test_a_one_block_pass_starts_no_thread(monkeypatch):
    # C(362, 2) = 65,341 pair ranks fit in one block, and at p = 1/8 their
    # ~8,200 decoded pairs fit in one decode block (BLOCK_CELLS // 4).  At
    # p = 1/8 a triangle chunk is the 2^18-byte cap: 8,192 edges of 32-byte
    # rows at n = 256, which has ~4,100 edges, one chunk; but 5,698 edges of
    # 46-byte rows at n = 362, whose ~8,200 edges make two chunks
    def refuse(count):
        raise AssertionError("a helper thread was asked for")

    monkeypatch.setattr(_pool, "cpu_count", lambda: 3)
    monkeypatch.setattr(_pool, "_start_helpers", refuse)
    assert randgen._TRIANGLE_CHUNK_BYTES == 1 << 18
    one = sample_levels(256, 2, Fraction(1, 8), 1)
    assert one.edge_count <= (1 << 18) // 32 and one.tri_count > 0
    assert 5_698 < sample_levels(362, 1, Fraction(1, 8), 1).edge_count <= 2 * 5_698
    with pytest.raises(AssertionError):
        sample_levels(362, 2, Fraction(1, 8), 1)
    with pytest.raises(AssertionError):
        sample_levels(363, 1, Fraction(1, 8), 1)


def test_block_map_returns_results_in_span_order():
    spans = [(lo, lo + 3) for lo in range(0, 300, 3)]
    slots = {}

    def fn(slot, lo, hi):
        slots.setdefault(slot, set()).add(threading.get_ident())
        return list(range(lo, hi))

    for threads in (1, 2, 3):
        assert _pool.block_map(fn, spans, threads) == [list(range(lo, hi)) for lo, hi in spans]
    # a slot keeps one thread for the whole call; the caller is slot 0
    assert slots[0] == {threading.get_ident()}
    assert set(slots) <= {0, 1, 2}


def test_block_map_applies_then_in_span_order_on_the_caller():
    # fn takes uneven time, so helpers finish out of order
    spans = [(lo, lo + 3) for lo in range(0, 300, 3)]

    def fn(slot, lo, hi):
        time.sleep(1e-4 * (lo % 7))
        return list(range(lo, hi))

    for threads in (1, 2, 3):
        applied, callers = [], set()

        def then(result):
            applied.append(result)
            callers.add(threading.get_ident())
            return -result[0]

        assert _pool.block_map(fn, spans, threads, then) == [-lo for lo, _ in spans]
        assert applied == [list(range(lo, hi)) for lo, hi in spans]
        assert callers == {threading.get_ident()}


def test_block_map_raises_what_a_block_raised():
    def fn(slot, lo, hi):
        if lo == 30:
            raise ValueError(lo)
        return lo

    for threads in (1, 3):
        with pytest.raises(ValueError):
            _pool.block_map(fn, [(lo, lo + 1) for lo in range(0, 60, 3)], threads)
    # the helpers still run the next call
    assert _pool.block_map(lambda slot, lo, hi: lo, [(0, 1), (1, 2), (2, 3)], 3) == [0, 1, 2]


def test_block_map_raises_once_its_helpers_stop():
    # a raise in fn on a helper, or in then, leaves no fn call running
    spans = [(lo, lo + 1) for lo in range(40)]
    calls = [0, 0]  # started, ended
    lock = threading.Lock()

    def fn(slot, lo, hi):
        with lock:
            calls[0] += 1
        try:
            time.sleep(2e-3)
            if slot == 1:
                raise ValueError(lo)
            return lo
        finally:
            with lock:
                calls[1] += 1

    def then(lo):
        if lo == 5:
            raise KeyError(lo)
        return lo

    for then_ in (None, lambda lo: lo):
        with pytest.raises(ValueError):
            _pool.block_map(fn, spans, 3, then_)
        assert calls[0] == calls[1] > 0
    for threads in (1, 3):
        with pytest.raises(KeyError):
            _pool.block_map(lambda slot, lo, hi: fn(0, lo, hi), spans, threads, then)
        assert calls[0] == calls[1]
    assert _pool.block_map(lambda slot, lo, hi: lo, spans, 3, then=lambda lo: -lo) == [
        -lo for lo, _ in spans
    ]


def test_block_map_holds_at_most_two_results_per_thread():
    # a slow then: fast helpers would otherwise run every span ahead of it
    for threads in (2, 3):
        started, applied, most = [0], [0], [0]
        lock = threading.Lock()

        def fn(slot, lo, hi):
            with lock:
                started[0] += 1
                most[0] = max(most[0], started[0] - applied[0])
            return lo

        def then(lo):
            time.sleep(1e-3)
            with lock:
                applied[0] += 1
            return lo

        spans = [(lo, lo + 1) for lo in range(60)]
        assert _pool.block_map(fn, spans, threads, then) == list(range(60))
        assert 1 < most[0] <= 2 * threads


def test_block_map_claims_each_span_once_under_stress(monkeypatch):
    # 8 threads on a short switch interval: a lost or doubled claim would
    # drop or repeat a span
    monkeypatch.setattr(_pool, "cpu_count", lambda: 8)
    spans = [(lo, lo + 1) for lo in range(3000)]
    seen, result, applied = [], [], []

    def fn(slot, lo, hi):
        seen.append(lo)
        return lo

    def then(lo):
        applied.append(lo)
        return lo

    def run():
        result.append(_pool.block_map(fn, spans, 8))
        result.append(_pool.block_map(fn, spans, 8, then))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
        _pool._stop_helpers()
    assert result == [list(range(3000)), list(range(3000))]
    assert sorted(seen) == sorted(list(range(3000)) * 2)
    assert applied == list(range(3000))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_process_pool_starts_after_the_hash_threads_stop():
    # hash threads run in this process before the growth pool forks; the
    # pool must not hang, its workers hash on one thread, and its reports
    # are those of one worker.  The s = 5 sweep's triangle passes (2 to 46
    # chunks) run on the helpers here and on one thread in the workers.  A
    # child forked by other code while the threads live starts its own.
    script = textwrap.dedent(
        """
        import os, signal, threading
        from fractions import Fraction
        from shatterlab import _pool, randgen
        from shatterlab.randgen import growth_experiment, sample_levels

        _pool.cpu_count = lambda: 2
        sample_levels(1024, 1, Fraction(1, 8), 3)
        assert threading.active_count() > 1
        args = (Fraction(3), 4, (512, 1024), 2, 5)
        pooled = growth_experiment(*args, workers=2).csv_lines()
        assert list(_pool.bounded_map(_pool.block_threads, [100, 100], 2)) == [1, 1]
        assert pooled == growth_experiment(*args, workers=1).csv_lines()
        args = (Fraction(5), 4, (256, 1024), 2, 5)
        alone = growth_experiment(*args, workers=1).csv_lines()
        assert threading.active_count() > 1
        assert growth_experiment(*args, workers=2).csv_lines() == alone
        edges = sample_levels(1024, 1, Fraction(1, 8), 3).edge_count
        pid = os.fork()
        if pid == 0:
            signal.alarm(60)
            os._exit(sample_levels(1024, 1, Fraction(1, 8), 3).edge_count != edges)
        assert os.waitpid(pid, 0)[1] == 0
        print("ok")
        """
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
