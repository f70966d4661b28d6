"""The threads ofat starts: every one keeps the caller's modes, and all are started in one module."""

import ast
import threading
import time
from pathlib import Path

import numpy as np

import ofat
from ofat import autodiff as ad
from ofat import search
from ofat.data import make_synthetic_dataset
from ofat.distill import MaskSpec, TargetConfig
from ofat.rng import Rng
from ofat.spaces import max_subnet, min_subnet, sample_subnet
from ofat.supernet import build_supernet


def _mode():
    """(thread, dtype, whether a tape is recorded) where this is called."""
    probe = ad.Tensor([1], requires_grad=True) * 2.0
    return threading.get_ident(), ad.default_dtype(), probe.requires_grad


def test_the_callers_dtype_and_grad_mode_reach_every_thread_ofat_starts(monkeypatch, tiny_space, tiny_teacher):
    """run_walkers, on search's walk; test_train.py checks training's target fill on it too."""
    from ofat import threads

    caller = threading.get_ident()
    # evaluate_subnets enters no_grad for its walk; the caller only float64
    monkeypatch.setattr(threads, "walker_count", lambda: 4)
    seen, real = [], search.ffn_half

    def recorded(*args):
        seen.append(_mode())
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
    assert any(thread != caller for thread, _, _ in seen)
    assert {dtype for _, dtype, _ in seen} == {np.dtype(np.float64)}
    assert not any(taped for _, _, taped in seen)


def test_only_threads_py_starts_threads():
    """Every thread ofat starts is started in ofat/threads.py, which carries the caller's modes."""
    offenders = []
    for path in sorted(Path(ofat.__file__).parent.glob("*.py")):
        if path.name == "threads.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None)] + [alias.name for alias in node.names]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            if any(name and name.split(".")[0] in ("threading", "concurrent", "copy_context") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
