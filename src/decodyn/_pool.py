"""The package's one thread pool, for numpy work that releases the GIL.

Callers hand it closures over numpy calls alone, which write only into
arrays the calling thread allocated: the pool's threads never call a public
function of the package, so a caller-side wrapper that keeps one stack of
active calls per process (a tracer, say) sees only the calling thread, and
no task submits to the pool.  Every caller splits its work so the bytes of
the result do not depend on the thread count.  The callers are
bath.thermal_sample_block and the Wigner pair.
"""

from __future__ import annotations

import os

# thread count: the usable cores, at most 4
WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, 4)

_pool = None
_pool_pid = None


def thread_pool():
    """The shared pool, built on first use and again after a fork (a child
    inherits the pool object but none of its threads)."""
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="decodyn")
        _pool_pid = os.getpid()
    return _pool


def run(task, parts) -> None:
    """task(part) for every part: on the pool when there are two or more
    parts and two or more workers, else in order on the calling thread.
    Returns once every call has ended, re-raising the first failure."""
    if WORKERS > 1 and len(parts) > 1:
        list(thread_pool().map(task, parts))
    else:
        for part in parts:
            task(part)
