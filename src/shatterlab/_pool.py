"""The worker pools, both bounded by the CPUs this process may run on.

bounded_map runs whole items in processes and yields their results in item
order.  block_map runs the blocks of one call on threads: the calling thread
and persistent helper threads, started on first use, each claim the next
block until none is left, so a thread on a busy CPU takes fewer blocks.  No
process forks while a helper thread is alive, and a process-pool worker runs
its blocks on its own thread only.
"""

import os
import threading

_helpers = None  # block_map's ThreadPoolExecutor, started on first use
_helper_count = 0
_alone = False  # set in a process-pool worker


def cpu_count() -> int:
    """CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def bounded_map(fn, items: list, workers: int):
    """Yield fn(item) for each item, in order.

    With more than one worker the items go to a pool of at most
    min(workers, item count, CPU count) processes; fn must then be a
    module-level function.
    """
    bound = min(workers, len(items), cpu_count())
    if bound <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    _stop_helpers()
    with ProcessPoolExecutor(max_workers=bound, initializer=_work_alone) as pool:
        yield from pool.map(fn, items, chunksize=1)


def _work_alone() -> None:
    global _alone
    _alone = True


def block_threads(spans: int) -> int:
    """Threads, the caller's included, that block_map takes for this many
    spans: 1 for at most one span, in a process-pool worker or on one CPU,
    else min(spans, CPU count)."""
    return 1 if _alone or spans <= 1 else min(spans, cpu_count())


def block_map(fn, spans: list, threads: int) -> list:
    """[fn(slot, lo, hi) for (lo, hi) in spans], in span order.

    threads comes from block_threads.  The calling thread is slot 0 and
    helper threads are slots 1 .. threads - 1; each claims the next span
    from a shared counter until none is left.  A slot's calls run one after
    another on one thread, so fn may reuse per-slot scratch.
    """
    if threads <= 1:
        return [fn(0, lo, hi) for lo, hi in spans]
    out = [None] * len(spans)
    claims = iter(range(len(spans)))
    claim_lock = threading.Lock()

    def work(slot):
        while True:
            with claim_lock:
                i = next(claims, None)
            if i is None:
                return
            out[i] = fn(slot, *spans[i])

    pool = _start_helpers(threads - 1)
    running = [pool.submit(work, slot) for slot in range(1, threads)]
    try:
        work(0)
    finally:
        for future in running:
            future.exception()  # waits, and leaves the raising to result()
    for future in running:
        future.result()
    return out


def _start_helpers(count: int):
    """The helper pool, restarted larger if it has fewer than count threads."""
    global _helpers, _helper_count
    if _helper_count < count:
        from concurrent.futures import ThreadPoolExecutor

        _stop_helpers()
        _helper_count = max(count, cpu_count() - 1)
        _helpers = ThreadPoolExecutor(_helper_count, thread_name_prefix="shatterlab-block")
    return _helpers


def _stop_helpers() -> None:
    """Join the helper threads; the next block_map starts new ones."""
    global _helpers, _helper_count
    if _helpers is not None:
        _helpers.shutdown()
    _helpers, _helper_count = None, 0


def _forget_helpers() -> None:
    # a forked child has none of its parent's threads
    global _helpers, _helper_count
    _helpers, _helper_count = None, 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)
