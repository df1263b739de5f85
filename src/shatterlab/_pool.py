"""The one worker pool: bounded, and yielding results in item order."""

import os


def bounded_map(fn, items: list, workers: int):
    """Yield fn(item) for each item, in order.

    With more than one worker the items go to a pool of at most
    min(workers, item count, CPU count) processes; fn must then be a
    module-level function.
    """
    bound = min(workers, len(items), os.cpu_count() or 1)
    if bound <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=bound) as pool:
        yield from pool.map(fn, items, chunksize=1)
