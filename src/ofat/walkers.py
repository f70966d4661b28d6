"""The walkers ofat runs independent tasks on: search's trie subtrees and the teacher
target stacks a training run computes before step 0.

A walk of more than one task on more than one walker forks the other walkers
from the caller, which walks too, so they share no interpreter lock. Each
walker takes its next task from one pipe that the caller fills before it
forks, so a faster walker takes more. A child starts as a copy of the
caller: it reads the model, the trie and the caller's dtype and grad mode
without pickling them, and only its results come back, pickled on a pipe of
its own. It leaves through os._exit, so nothing of the caller's (buffered
output, finally blocks, exit handlers) runs twice. Forking is safe because
ofat starts no threads, and OpenBLAS stops its own pool around a fork.
"""

from __future__ import annotations

import fcntl
import mmap
import os
import pickle
import select
import signal
import struct
import traceback

_RECORD = struct.Struct("=I")  # a task index, as the hand-out pipe holds it
_failed: mmap.mmap | None = None  # during a walk, one byte its walkers share: nonzero once one failed


def walker_count() -> int:
    """Processes ofat's numpy work may run on: the usable CPUs over the threads of each BLAS call.

    It sets how many walkers score the search trie and compute a training
    run's teacher targets. BLAS threads are OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, if a positive count in ASCII digits, else every usable
    CPU: unpinned BLAS already fills the cores, so the work stays on the
    caller (BENCH_search_walkers.json unpinned_in_process).
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    value = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or ""
    blas_threads = int(value) if value.isascii() and value.isdigit() and int(value) > 0 else cpus
    return max(1, cpus // blas_threads)


def stopped() -> bool:
    """Whether a walker of the running walk has failed, so what is left of the walk is moot."""
    return _failed is not None and _failed[0] != 0


def run_walkers(tasks: list, n: int) -> list:
    """Call every callable in `tasks` once, on min(n, len(tasks)) walkers; their results in task order.

    One walker is the caller; it forks the others. A walker that fails sets
    stopped() and takes no further task. The first failure, the caller's own
    before any child's and then in fork order, is re-raised here with its
    own type, and so is a child that ends without sending its results.
    Every child is reaped before this returns or raises, on every path.
    """
    global _failed
    n = min(n, len(tasks))
    if n <= 1:
        return [task() for task in tasks]
    take, hand_out = os.pipe()
    # Tasks per record, so that every record fits in the pipe before anyone reads it.
    per = -(-len(tasks) * _RECORD.size // _capacity(hand_out))
    os.write(hand_out, b"".join(_RECORD.pack(i) for i in range(0, len(tasks), per)))
    os.close(hand_out)
    _failed = mmap.mmap(-1, 1)  # shared with the children: MAP_SHARED
    children = {}  # pid -> the read end of its results pipe
    try:
        for _ in range(n - 1):
            back, send = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(tasks, per, take, send)
            except BaseException:
                os.close(back)
                raise
            finally:
                os.close(send)
            children[pid] = os.fdopen(back, "rb")
        done = _walk(tasks, per, take)
        failure = None
        for pid in list(children):
            data = children[pid].read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if code != 0:
                how = f"with exit status {code}" if code > 0 else f"by signal {-code}"
                failure = failure or RuntimeError(f"walker process {pid} ended {how} before sending its results")
                continue
            theirs, exc = pickle.loads(data)
            failure = failure or exc
            done.update(theirs or {})
        if failure is not None:
            raise failure
        return [done[i] for i in range(len(tasks))]
    finally:
        for pid, back in children.items():  # left only when the walk was cut short
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            back.close()
        os.close(take)
        _failed = None


def _capacity(fd: int) -> int:
    """Bytes the pipe fd holds unread."""
    return fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) if hasattr(fcntl, "F_GETPIPE_SZ") else select.PIPE_BUF


def _walk(tasks: list, per: int, take: int) -> dict:
    """{index: result} of the tasks this walker takes, until the pipe is empty or a walker has failed."""
    done = {}
    try:
        while not stopped():
            record = os.read(take, _RECORD.size)  # records are read whole: every read asks for one
            if not record:
                break
            start = _RECORD.unpack(record)[0]
            for i in range(start, min(start + per, len(tasks))):
                done[i] = tasks[i]()
    except BaseException:
        _failed[0] = 1
        raise
    return done


def _child(tasks: list, per: int, take: int, send: int) -> None:
    """A forked walker: walk, send back ({index: result}, None) or (None, failure), end in os._exit."""
    code = 1
    try:
        try:
            payload = pickle.dumps((_walk(tasks, per, take), None), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # re-raised in the caller
            payload = pickle.dumps((None, _portable(exc)), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(send, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


def _portable(exc: BaseException) -> BaseException:
    """exc with this walker's traceback as a note, or a RuntimeError naming it if exc
    would not come back from pickle whole."""
    exc.add_note(f"raised in walker process {os.getpid()}:\n" + "".join(traceback.format_tb(exc.__traceback__)))
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
