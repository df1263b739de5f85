"""The worker pools, both bounded by the CPUs this process may run on.

bounded_map runs whole items in processes and yields their results in item
order.  block_map runs the blocks of one call on threads: the calling thread
and persistent helper threads, started on first use, each claim the next
block until none is left, so a thread on a busy CPU takes fewer blocks.  It
can hand each block's result, in block order, to a function that runs on
the calling thread alone, while the helpers build the next blocks.  No
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


def block_map(fn, spans: list, threads: int, then=None) -> list:
    """[then(fn(slot, lo, hi)) for (lo, hi) in spans], in span order; then
    defaults to the identity.

    threads comes from block_threads.  The calling thread is slot 0 and
    helper threads are slots 1 .. threads - 1; each claims the next span
    from a shared counter until none is left.  A slot's calls run one after
    another on one thread, so fn may reuse per-slot scratch.  then runs on
    the calling thread only, on each result in span order as soon as that
    result and every earlier one are in: before the caller claims another
    span, it passes on every result that is ready.  With a then, a span is
    claimed only while fewer than 2 * threads claimed spans await it, so at
    most that many results wait.  A raise in fn or then propagates once
    every helper has stopped.
    """
    ahead = 2 * threads if then else len(spans)
    then = then or (lambda result: result)
    if threads <= 1:
        return [then(fn(0, lo, hi)) for lo, hi in spans]
    pending = object()
    results = [pending] * len(spans)
    out = []
    claimed = 0
    stop = False
    turn = threading.Condition()

    def claim():
        # the next span's index, or None; called holding turn
        nonlocal claimed
        if stop or claimed == len(spans) or claimed >= len(out) + ahead:
            return None
        claimed += 1
        return claimed - 1

    def work(slot):
        nonlocal stop
        i = None
        while True:
            with turn:
                if i is not None:
                    results[i] = result
                    turn.notify_all()
                while (i := claim()) is None:
                    if stop or claimed == len(spans):
                        return
                    turn.wait()
            try:
                result = fn(slot, *spans[i])
            except BaseException:
                with turn:
                    stop = True
                    turn.notify_all()
                raise

    pool = _start_helpers(threads - 1)
    running = [pool.submit(work, slot) for slot in range(1, threads)]
    try:
        while len(out) < len(spans):
            result = results[len(out)]
            if result is not pending:
                results[len(out)] = None
                out.append(then(result))
                if ahead < len(spans):
                    with turn:
                        turn.notify_all()  # room for a helper waiting to claim
                continue
            with turn:
                i = None
                while results[len(out)] is pending and not stop and (i := claim()) is None:
                    turn.wait()
            if i is not None:
                results[i] = fn(0, *spans[i])
            elif stop:
                break
    finally:
        with turn:
            stop = True
            turn.notify_all()
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
