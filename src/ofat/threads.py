"""The threads ofat starts: walkers, which search runs over its trie's subtrees and
training over the teacher target stacks it computes before step 0.

Each runs its work in a copy of the starting thread's context, as
asyncio.to_thread does, so the caller's dtype and grad mode hold there too.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading


def walker_count() -> int:
    """Threads ofat's numpy work may run on: the usable CPUs over the threads of each BLAS call.

    It sets how many threads walk the search trie and compute a training
    run's teacher targets. BLAS threads are OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, if a positive count in ASCII digits, else every usable
    CPU: unpinned BLAS already fills the cores, so the work stays on one
    thread (BENCH_search_walkers.json unpinned_in_process).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    value = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or ""
    blas_threads = int(value) if value.isascii() and value.isdigit() and int(value) > 0 else cpus
    return max(1, cpus // blas_threads)


def _in_this_context(fn):
    """fn, to be called on another thread in a copy of this thread's context."""
    return functools.partial(contextvars.copy_context().run, fn)


def run_walkers(tasks, n: int, failures: list) -> None:
    """Run every callable the iterator `tasks` yields on n threads, the caller's among them.

    Each thread takes its next task under one lock, so the iterator's own
    work runs once, in order. The first exception, appended to `failures`,
    stops the hand-out and is re-raised here, with its own type, once every
    thread has ended.
    """
    lock = threading.Lock()

    def take():
        with lock:
            return None if failures else next(tasks, None)

    def walker():
        try:
            for task in iter(take, None):
                task()
        except BaseException as exc:  # re-raised in the caller below
            failures.append(exc)

    threads = []
    try:
        for _ in range(n - 1):
            thread = threading.Thread(target=_in_this_context(walker))
            thread.start()
            threads.append(thread)
        walker()
    except BaseException as exc:  # a thread that could not start
        failures.append(exc)
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]

