"""The processes ofat runs its numpy work on: walkers for independent tasks (search's trie
subtrees and the teacher target stacks of TeacherModel.batch_targets), and a training
run's step partner.

A walk of more than one task on more than one walker forks the other walkers
from the caller, which walks too, so they share no interpreter lock. Each
walker takes its next task from one pipe that the caller fills before it
forks, so a faster walker takes more. A step partner lives for one training
run: the caller hands it one step at a time and reads its answer before the
next. Both are forked by one routine, _forked, which also receives their
results and kills and reaps them. A forked process starts as a copy of the
caller: it reads the model, the trie and the caller's dtype and grad mode
without pickling them, and only its results come back, pickled on a pipe of
its own. It leaves through os._exit, so nothing of the caller's (buffered
output, finally blocks, exit handlers) runs twice. Forking is safe because
ofat starts no threads, and OpenBLAS stops its own pool around a fork.
"""

from __future__ import annotations

import contextlib
import fcntl
import mmap
import os
import pickle
import select
import signal
import struct
import traceback

import numpy as np

_RECORD = struct.Struct("=I")  # a task or step index, as a hand-out pipe holds it
_LENGTH = struct.Struct("=Q")  # the byte count ahead of each pickled message on a results pipe
_failed: mmap.mmap | None = None  # during a walk, one byte its walkers share: nonzero once one failed


def walker_count() -> int:
    """Processes ofat's numpy work may run on: the usable CPUs over the threads of each BLAS call.

    It sets how many walkers score the search trie and compute teacher
    target stacks, and whether a training run has a step partner
    (two or more). BLAS threads are OPENBLAS_NUM_THREADS, else
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
    try:
        with contextlib.ExitStack() as forked:
            # each child sends one item: the {index: result} of its walk
            receives = [forked.enter_context(_forked("walker", (_walk(tasks, per, take) for _ in range(1))))
                        for _ in range(n - 1)]
            done = _walk(tasks, per, take)
            for receive in receives:
                done.update(receive())
        return [done[i] for i in range(len(tasks))]
    finally:
        os.close(take)
        _failed = None


@contextlib.contextmanager
def partner(work):
    """A forked process that runs work(s) for each step s the caller hands it, for the life of the block.

    Yields (ask, answer): ask(s) hands the partner step s, and answer()
    returns work(s)'s result, or re-raises its failure with its own type, or
    raises a RuntimeError naming how the partner ended if it ended without
    sending one. The caller asks again only after the answer. The partner is
    a copy of the caller at the fork, so work reads what the caller held then
    and what both share through shared_zeros arrays. It is killed and reaped
    when the block ends, on every path.
    """
    take, hand = os.pipe()  # the caller holds both ends to the end, so ask never meets a closed pipe

    def ask(step):
        os.write(hand, _RECORD.pack(step))

    try:
        with _forked("step partner", _steps(work, take, hand)) as answer:
            yield ask, answer
    finally:
        os.close(take)
        os.close(hand)


def shared_zeros(like: dict) -> dict:
    """Zeroed arrays of the shapes and dtypes of like's, in one MAP_SHARED mapping: what the
    caller writes into them, a process it forked reads, and the other way round."""
    sizes = [-(-a.nbytes // 64) * 64 for a in like.values()]  # each array 64-byte aligned
    buffer = mmap.mmap(-1, max(1, sum(sizes)))
    out, offset = {}, 0
    for (name, a), size in zip(like.items(), sizes):
        out[name] = np.frombuffer(buffer, a.dtype, a.size, offset).reshape(a.shape)
        offset += size
    return out


def _capacity(fd: int) -> int:
    """Bytes the pipe fd holds unread."""
    return fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) if hasattr(fcntl, "F_GETPIPE_SZ") else select.PIPE_BUF


def _walk(tasks: list, per: int, take: int) -> dict:
    """{index: result} of the tasks this walker takes, until the pipe is empty or a walker has failed."""
    done = {}
    try:
        while record := os.read(take, _RECORD.size):  # records are read whole: every read asks for one
            start = _RECORD.unpack(record)[0]
            for i in range(start, min(start + per, len(tasks))):
                if stopped():
                    return done
                done[i] = tasks[i]()
    except BaseException:
        _failed[0] = 1
        raise
    return done


def _steps(work, take: int, hand: int):
    """In the step partner: work(step) for each step read from take, until every write end is closed."""
    os.close(hand)  # so that the caller's end closing, even by its death, ends the reads
    while record := os.read(take, _RECORD.size):
        yield work(_RECORD.unpack(record)[0])


@contextlib.contextmanager
def _forked(what: str, results):
    """A forked process that sends back each item of the iterable results, for the life of the block.

    The child sends each item pickled, with its byte count ahead, on a pipe
    of its own. If an item raises or will not pickle, it sends that failure
    instead, noted by _portable, and no more. It leaves through os._exit.
    Yields receive(), which returns the next item, or re-raises the child's
    failure with its own type, or raises a RuntimeError naming how the child
    ended if it ended without sending a whole message. When the block ends,
    on every path, the child is killed unless already reaped, then reaped.
    `what` names the process in the notes and errors.
    """
    read_end, send = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(send)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(send, "wb") as out:
                items, failure = iter(results), None
                while failure is None:
                    try:
                        message = pickle.dumps((next(items), None), pickle.HIGHEST_PROTOCOL)
                    except StopIteration:
                        break
                    except BaseException as exc:  # re-raised in the caller
                        failure = _portable(exc, what)
                        message = pickle.dumps((None, failure), pickle.HIGHEST_PROTOCOL)
                    out.write(_LENGTH.pack(len(message)) + message)
                    out.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(send)
    how = None  # how the child ended, once reaped

    def reap() -> str:
        nonlocal how
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"with exit status {code}" if code >= 0 else f"by signal {-code}"
        return how

    def receive():
        head = back.read(_LENGTH.size)
        size = _LENGTH.unpack(head)[0] if len(head) == _LENGTH.size else None  # None: no whole byte count
        payload = back.read(size) if size else b""
        if len(payload) != size:
            raise RuntimeError(f"{what} process {pid} ended {reap()} before sending its results")
        item, failure = pickle.loads(payload)
        if failure is not None:
            raise failure
        return item

    with os.fdopen(read_end, "rb") as back:
        try:
            yield receive
        finally:
            if how is None:
                os.kill(pid, signal.SIGKILL)
                reap()


def _portable(exc: BaseException, what: str) -> BaseException:
    """exc with this process's traceback as a note, or a RuntimeError naming it if exc
    would not come back from pickle whole."""
    exc.add_note(f"raised in {what} process {os.getpid()}:\n" + "".join(traceback.format_tb(exc.__traceback__)))
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
