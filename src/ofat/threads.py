"""The threads ofat starts: the search trie's walkers and training's target helper.

Each runs its work in a copy of the starting thread's context, as
asyncio.to_thread does, so the caller's dtype and grad mode hold there too.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

# Batches past the step's own whose targets the helper may compute: enough to
# cover stage-2 steps shorter than a teacher forward (BENCH_target_prefetch.json design_runs).
LOOKAHEAD = 4


def walker_count() -> int:
    """Threads ofat's numpy work may run on: the usable CPUs over the threads of each BLAS call.

    It sets how many threads walk the search trie and, above one, switches
    on training's target helper. BLAS threads are OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, if a positive count in ASCII digits, else every usable
    CPU: unpinned BLAS already fills the cores, so the work stays on one
    thread (BENCH_search_walkers.json unpinned_in_process,
    BENCH_target_prefetch.json unpinned_helper_against_inline).
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


def lookahead(work, items, ahead: int):
    """Yield (item, future of work(item)) for each item, in order; items are drawn on the caller's thread.

    With ahead > 0 one helper thread runs work on the yielded item and up to
    `ahead` items past it; otherwise work runs here before its item is
    yielded. An exception in work is raised by its future's result() with
    its own type. Closing the generator cancels what has not started and
    waits for what has, so no thread outlives it.
    """
    if not ahead:
        for item in items:
            done = Future()
            done.set_result(work(item))
            yield item, done
        return
    helper = ThreadPoolExecutor(1)
    try:
        pending = deque()
        for item in items:
            pending.append((item, helper.submit(_in_this_context(work), item)))
            if len(pending) > ahead:
                yield pending.popleft()
        yield from pending
    finally:
        helper.shutdown(cancel_futures=True)
