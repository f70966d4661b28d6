"""The walkers ofat forks: every one keeps the caller's modes, none outlives its walk, and
only ofat/walkers.py starts processes or threads."""

import ast
import contextlib
import functools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ofat
from ofat import autodiff as ad
from ofat import search, walkers
from ofat.data import make_synthetic_dataset
from ofat.distill import MaskSpec, TargetConfig
from ofat.rng import Rng
from ofat.spaces import max_subnet, min_subnet, sample_subnet
from ofat.supernet import build_supernet

from conftest import append_record, assert_no_child_left, mode_row, read_records


def test_the_callers_dtype_and_grad_mode_reach_every_walker_ofat_forks(monkeypatch, tmp_path, tiny_space,
                                                                        tiny_teacher):
    """run_walkers, on search's walk; test_train.py checks training's target fill on it too."""
    # evaluate_subnets enters no_grad for its walk; the caller only float64
    monkeypatch.setattr(walkers, "walker_count", lambda: 4)
    rows, real = tmp_path / "modes.jsonl", search.ffn_half

    def recorded(*args):
        append_record(rows, mode_row())
        time.sleep(0.001)  # a slow FFN half lets the other walkers take subtrees
        return real(*args)

    monkeypatch.setattr(search, "ffn_half", recorded)
    rng = Rng(23, 4)
    configs = [sample_subnet(tiny_space, rng) for _ in range(24)] + [min_subnet(tiny_space),
                                                                    max_subnet(tiny_space)]
    val = make_synthetic_dataset(seed=24, n_sequences=3, length=64)
    with ad.precision(np.float64):
        model = build_supernet(tiny_space, Rng(25, 1))
        search.evaluate_subnets(model, configs, val.sequences, tiny_teacher,
                                MaskSpec(p=0.5, span_length=3), TargetConfig(k=2), eval_batches=2)
    seen = read_records(rows)
    assert any(pid != os.getpid() for pid, _, _ in seen)
    assert {dtype for _, dtype, _ in seen} == {np.dtype(np.float64).str}
    assert not any(taped for _, _, taped in seen)
    assert_no_child_left()


def test_only_walkers_py_starts_threads_or_processes():
    """Every thread or process ofat starts is started in ofat/walkers.py, which starts only forked walkers."""
    offenders = []
    flagged = ("threading", "_thread", "concurrent", "copy_context", "multiprocessing", "subprocess",
               "fork", "forkpty", "posix_spawn", "posix_spawnp", "spawnv", "spawnl", "system", "popen")
    for path in sorted(Path(ofat.__file__).parent.glob("*.py")):
        if path.name == "walkers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None)] + [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if any(name and name.split(".")[0] in flagged for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
    assert "threading" not in Path(walkers.__file__).read_text(encoding="utf-8")


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the caller if the block takes longer than seconds."""
    def expired(*_):
        raise TimeoutError(f"the walk took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _in_a_child(then):
    """A task that sleeps 10 ms and, outside the caller, calls then()."""
    caller = os.getpid()

    def task():
        time.sleep(0.01)
        if os.getpid() != caller:
            then()
        return os.getpid()

    return task


def test_results_come_back_in_task_order_from_every_walker():
    def task(i):
        time.sleep(0.005)  # slow enough that the children take some
        return i, os.getpid()

    results = walkers.run_walkers([functools.partial(task, i) for i in range(40)], 3)
    assert [i for i, _ in results] == list(range(40))
    assert len({pid for _, pid in results}) > 1
    assert_no_child_left()


def test_a_childs_failure_reaches_the_caller_with_its_type_and_message():
    def fail():
        raise KeyError("a child's task failed")

    with pytest.raises(KeyError, match="a child's task failed") as failure:
        walkers.run_walkers([_in_a_child(fail) for _ in range(20)], 2)
    assert any("raised in walker process" in note for note in failure.value.__notes__)
    assert not walkers.stopped()
    assert_no_child_left()


def test_a_failure_in_the_callers_own_task_kills_and_reaps_every_child():
    caller = os.getpid()

    def task():
        if os.getpid() == caller:
            time.sleep(0.2)  # the children are mid-task when it fails
            raise ValueError("the caller's task failed")
        time.sleep(60)  # ended only by the kill

    with _deadline(30), pytest.raises(ValueError, match="the caller's task failed"):
        walkers.run_walkers([task] * 8, 3)
    assert_no_child_left()


def test_a_child_that_exits_without_results_is_an_error_naming_its_exit_status():
    with _deadline(30), pytest.raises(RuntimeError, match="exit status 7"):
        walkers.run_walkers([_in_a_child(lambda: os._exit(7)) for _ in range(20)], 2)
    assert_no_child_left()


@pytest.mark.parametrize("end,named", [(lambda: os._exit(7), "with exit status 7"),
                                       (lambda: os.kill(os.getpid(), signal.SIGKILL), "by signal 9")],
                         ids=["exit-status", "signal"])
@pytest.mark.parametrize("what", ["walker", "step partner"])
def test_a_child_that_ends_without_sending_is_an_error_naming_how_it_ended(what, end, named):
    """run_walkers and partner alike: the child's end is named, and the child is reaped."""
    with _deadline(30), pytest.raises(RuntimeError, match=f"{what} process \\d+ ended {named} before sending"):
        if what == "walker":
            walkers.run_walkers([_in_a_child(end) for _ in range(20)], 2)
        else:
            with walkers.partner(lambda step: end() if step == 1 else step) as (ask, answer):
                for step in range(2):  # it ends after one answer
                    ask(step)
                    assert answer() == step
    assert_no_child_left()


def test_tasks_handed_out_several_to_a_record_come_back_in_task_order(monkeypatch):
    monkeypatch.setattr(walkers, "_capacity", lambda fd: 8)  # room for two records: 20 tasks each

    def task(i):
        time.sleep(0.01)  # slow enough that another walker takes the second record
        return i, os.getpid()

    results = walkers.run_walkers([functools.partial(task, i) for i in range(40)], 3)
    assert [i for i, _ in results] == list(range(40))
    firsts, seconds = {pid for _, pid in results[:20]}, {pid for _, pid in results[20:]}
    assert len(firsts) == len(seconds) == 1 and firsts != seconds  # each record went whole to one walker
    assert_no_child_left()


def test_a_walk_of_one_task_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert walkers.run_walkers([lambda: 5], 4) == [5]
    assert walkers.run_walkers([], 4) == []
    assert_no_child_left()


def test_a_child_never_flushes_the_callers_output_or_runs_its_finally_blocks(tmp_path):
    """A pending partial line and a finally block around the walk each print once."""
    script = (
        "import os, sys\n"
        "from ofat import walkers\n"
        "sys.stdout.write('pending ')\n"  # stays in the block buffer of a piped stdout
        "try:\n"
        "    print(walkers.run_walkers([lambda i=i: i for i in range(16)], 3))\n"
        "finally:\n"
        "    print('finally')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ofat.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"pending {list(range(16))}\nfinally\n"


def test_a_step_partner_answers_each_step_from_its_own_process_and_shares_the_mapped_arrays():
    shared = walkers.shared_zeros({"w": np.zeros((3, 5), np.float32), "g": np.zeros(7)})
    assert {name: (a.shape, a.dtype) for name, a in shared.items()} == \
           {"w": ((3, 5), np.dtype(np.float32)), "g": ((7,), np.dtype(np.float64))}

    def work(step):  # reads the caller's latest write, answers with one of its own
        shared["g"][step] = shared["w"].sum()
        return step, os.getpid()

    answers = []
    with _deadline(30), walkers.partner(work) as (ask, answer):
        for step in range(4):
            shared["w"][...] = step + 1  # written after the fork
            ask(step)
            answers.append(answer())
    assert [step for step, _ in answers] == list(range(4))
    pids = {pid for _, pid in answers}
    assert len(pids) == 1 and os.getpid() not in pids
    assert shared["g"][:4].tolist() == [15.0, 30.0, 45.0, 60.0]
    assert_no_child_left()


def test_a_step_partners_failure_reaches_the_caller_with_its_type_message_and_note():
    def work(step):
        if step == 2:
            raise KeyError("the partner's step failed")
        return step

    with _deadline(30), pytest.raises(KeyError, match="the partner's step failed") as failure:
        with walkers.partner(work) as (ask, answer):
            for step in range(4):
                ask(step)
                assert answer() == step
    assert any("raised in step partner process" in note for note in failure.value.__notes__)
    assert_no_child_left()


def test_a_step_partner_killed_by_a_signal_is_an_error_naming_the_signal():
    def work(step):
        if step == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return step

    with _deadline(30), pytest.raises(RuntimeError, match=f"step partner process .* by signal {signal.SIGKILL}"):
        with walkers.partner(work) as (ask, answer):
            for step in range(4):
                ask(step)
                assert answer() == step
    assert_no_child_left()


def test_a_failure_in_the_caller_kills_and_reaps_a_step_partner_mid_step():
    with _deadline(30), pytest.raises(ValueError, match="the caller's half failed"):
        with walkers.partner(lambda step: time.sleep(60)) as (ask, _):
            ask(0)
            raise ValueError("the caller's half failed")
    assert_no_child_left()
