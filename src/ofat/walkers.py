"""The processes ofat runs its numpy work on: walkers for independent tasks (search's trie
subtrees and the teacher target stacks of TeacherModel.batch_targets), and a training
run's step partner.

A walk of more than one task on more than one walker forks the other walkers
from the caller, which walks too, so they share no interpreter lock. Each
walker takes its next task from one pipe that the caller fills before it
forks, so a faster walker takes more. A step partner lives for one training
run: the caller hands it one step at a time and reads its answer before the
next. A forked process starts as a copy of the caller: it reads the model,
the trie and the caller's dtype and grad mode without pickling them, and only
its results come back, pickled on a pipe of its own. It leaves through
os._exit, so nothing of the caller's (buffered output, finally blocks, exit
handlers) runs twice. Forking is safe because ofat starts no threads, and
OpenBLAS stops its own pool around a fork.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
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
    children = {}  # pid -> the read end of its results pipe
    try:
        for _ in range(n - 1):
            pid, children[pid] = _fork(functools.partial(_child, tasks, per, take))
        done = _walk(tasks, per, take)
        failure = None
        for pid in list(children):
            message = _receive(children[pid])
            how = _reap(children, pid)
            theirs, exc = message or (None, RuntimeError(f"walker process {pid} ended {how} "
                                                         "before sending its results"))
            failure = failure or exc
            done.update(theirs or {})
        if failure is not None:
            raise failure
        return [done[i] for i in range(len(tasks))]
    finally:
        for pid in list(children):  # left only when the walk was cut short
            _reap(children, pid, kill=True)
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
    take, hand = os.pipe()
    children = {}  # the partner's pid -> the read end of its results pipe
    try:
        try:
            pid, back = _fork(functools.partial(_serve, work, take, hand))
        finally:
            os.close(take)
        children[pid] = back

        def answer():
            message = _receive(back)
            if message is None:
                how = _reap(children, pid)
                raise RuntimeError(f"step partner process {pid} ended {how} before sending its results")
            result, exc = message
            if exc is not None:
                raise exc
            return result

        def ask(step):
            with contextlib.suppress(BrokenPipeError):  # a partner gone already: answer() says how
                os.write(hand, _RECORD.pack(step))

        yield ask, answer
    finally:
        os.close(hand)
        for pid in list(children):
            _reap(children, pid, kill=True)


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


def _fork(body) -> tuple:
    """(pid, the read end of its results pipe) of a forked process that calls body(out), out being
    the pipe's buffered write end, and leaves through os._exit: status 0 only if body returned."""
    back, send = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(back)
                with os.fdopen(send, "wb") as out:
                    body(out)
                code = 0
            finally:
                os._exit(code)
    except BaseException:
        os.close(back)
        raise
    finally:
        os.close(send)
    return pid, os.fdopen(back, "rb")


def _child(tasks: list, per: int, take: int, out) -> None:
    """A forked walker: walk, send back ({index: result}, None) or (None, failure)."""
    _send(out, _outcome("walker", _walk, tasks, per, take))


def _serve(work, take: int, hand: int, out) -> None:
    """The step partner: for each step read from take, send back (work(step), None) or
    (None, failure), until the caller closes its end."""
    os.close(hand)  # so that the caller's end closing, even by its death, ends the reads
    while record := os.read(take, _RECORD.size):
        _send(out, _outcome("step partner", work, _RECORD.unpack(record)[0]))


def _outcome(what: str, fn, *args) -> bytes:
    """(fn(*args), None) pickled, or (None, the failure) if fn raises or its result will not pickle;
    `what` names the process in the failure's note."""
    try:
        return pickle.dumps((fn(*args), None), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:  # re-raised in the caller
        return pickle.dumps((None, _portable(exc, what)), pickle.HIGHEST_PROTOCOL)


def _send(out, payload: bytes) -> None:
    out.write(_LENGTH.pack(len(payload)) + payload)
    out.flush()


def _receive(back):
    """The next message on a results pipe, unpickled, or None if its writer ended without sending it whole."""
    head = back.read(_LENGTH.size)
    if len(head) < _LENGTH.size:
        return None
    size = _LENGTH.unpack(head)[0]
    payload = back.read(size)
    return pickle.loads(payload) if len(payload) == size else None


def _reap(children: dict, pid: int, kill: bool = False) -> str:
    """Reap child pid, SIGKILLed first if kill, close its results pipe and say how it ended."""
    if kill:
        os.kill(pid, signal.SIGKILL)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    children.pop(pid).close()
    return f"with exit status {code}" if code >= 0 else f"by signal {-code}"


def _portable(exc: BaseException, what: str) -> BaseException:
    """exc with this process's traceback as a note, or a RuntimeError naming it if exc
    would not come back from pickle whole."""
    exc.add_note(f"raised in {what} process {os.getpid()}:\n" + "".join(traceback.format_tb(exc.__traceback__)))
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
