"""Spans and counts recorded around ofat's public functions, from outside ofat.

`Tracer.install()` replaces every public function and public method of the
ofat modules named in MODULES with a wrapper that records one span per call:
a name, a start, an end and the index of the enclosing span. Names are
rebound in every loaded ofat module that holds the same object, so calls made
through `from .x import f` bindings are traced too. Nothing in ofat changes
and nothing is written until the run ends.

`StepClock` is the one hook the untraced runs use: it marks each call of
`ofat.train.lr_at`, which the training loop makes once per step, so step
times can be taken without tracing.

`layer_metrics()` turns a span table into the per-layer metrics of the
benchmark (see README.md): inclusive times per work unit, the same as shares
of the timed region, counts, and the self time of each module.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

MODULES = (
    "autodiff", "rng", "spaces", "frontend", "supernet", "distill",
    "train", "data", "checkpoint", "search", "config", "cli",
)

_now = time.perf_counter


def _ofat_modules():
    return [m for n, m in list(sys.modules.items()) if n == "ofat" or n.startswith("ofat.")]


def _rebind(old, new) -> None:
    """Replace `old` by `new` wherever an ofat module namespace holds it."""
    for mod in _ofat_modules():
        d = mod.__dict__
        for key, value in list(d.items()):
            if value is old:
                d[key] = new


class Patches:
    """Module-level and class-level replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def function(self, old, new) -> None:
        _rebind(old, new)
        self._undo.append(lambda: _rebind(new, old))

    def method(self, cls, attr, new_raw) -> None:
        old_raw = cls.__dict__[attr]
        setattr(cls, attr, new_raw)
        self._undo.append(lambda: setattr(cls, attr, old_raw))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


class SpanTable:
    """Parallel columns: one entry per span. Parents precede their children.

    Times and parents are typed arrays, a few bytes per span, since a traced
    run records millions of spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self.names)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def merge(self, other: dict, parent: int) -> None:
        """Append a child process's table (as from to_dict) under `parent`."""
        base = len(self.names)
        self.names.extend(other["names"])
        self.starts.extend(other["starts"])
        self.ends.extend(other["ends"])
        self.parents.extend(parent if p < 0 else p + base for p in other["parents"])
        for key, value in other["counts"].items():
            self.count(key, value)

    def to_dict(self) -> dict:
        return {"names": self.names, "starts": self.starts.tolist(), "ends": self.ends.tolist(),
                "parents": self.parents.tolist(), "counts": self.counts}

    def save(self, path) -> None:
        """Write the table as .npz: span names by id, starts, ends, parents, counts."""
        import json

        import numpy as np

        uniq = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(uniq)}
        np.savez(path, names=np.array(uniq), name_id=np.array([ids[x] for x in self.names]),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents), counts=np.array(json.dumps(self.counts)))


def _observe_file_bytes(table, args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    if path is not None and os.path.exists(path):
        table.count("checkpoint.bytes", os.path.getsize(path))


def _observe_search(table, args, kwargs, result):
    table.count("search.acceptance_sum", result.acceptance_rate)
    table.count("search.searches")


# Extra counts taken at a wrapped boundary, keyed by span name.
OBSERVERS = {
    "checkpoint.save_checkpoint": _observe_file_bytes,
    "checkpoint.load_checkpoint": _observe_file_bytes,
    "search.random_search": _observe_search,
}


class Tracer:
    """Records a span at every public ofat function and method while installed."""

    def __init__(self, table: SpanTable | None = None):
        self.table = table if table is not None else SpanTable()
        self._stack = [-1]
        self._patches = Patches()

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name: str, fn):
        table, stack = self.table, self._stack
        names, starts, ends, parents = table.names, table.starts, table.ends, table.parents
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = _now()
                stack.pop()
            if observe is not None:
                observe(table, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for short in MODULES:
            mod = sys.modules.get(f"ofat.{short}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patches.function(obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._install_class(short, obj)

    def _install_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._patches.method(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patches.method(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        self._patches.undo()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.index = t.table.add(self.name, _now(), 0.0, t._stack[-1])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t._stack.pop()
        t.table.ends[self.index] = _now()
        return False


class StepClock:
    """Marks each training step (a call of ofat.train.lr_at) and each search."""

    def __init__(self):
        self.marks: list[float] = []
        self.searches: list[tuple[float, float, int]] = []  # (start, end, candidates)
        self._patches = Patches()

    def install(self) -> None:
        import ofat.search
        import ofat.train

        marks, searches = self.marks, self.searches
        lr_at, random_search = ofat.train.lr_at, ofat.search.random_search

        @functools.wraps(lr_at)
        def marked_lr_at(*args, **kwargs):
            marks.append(_now())
            return lr_at(*args, **kwargs)

        @functools.wraps(random_search)
        def timed_search(*args, **kwargs):
            t0 = _now()
            result = random_search(*args, **kwargs)
            searches.append((t0, _now(), len(result.entries)))
            return result

        self._patches.function(lr_at, marked_lr_at)
        self._patches.function(random_search, timed_search)

    def uninstall(self) -> None:
        self._patches.undo()

    def step_ms(self, start: float, end: float) -> list[float]:
        """Durations of the steps marked in [start, end), in ms.

        A step runs from its mark to the next one, so a call with n steps
        gives n - 1 durations; its last step also holds the call's wind-up
        and is left out.
        """
        inside = [m for m in self.marks if start <= m < end]
        return [1000.0 * (b - a) for a, b in zip(inside, inside[1:])]

    def to_dict(self) -> dict:
        return {"marks": self.marks, "searches": self.searches}


# -- analysis ------------------------------------------------------------------

_ELEMENTWISE = ("add", "sub", "mul", "div", "neg", "tabs", "tsum", "tmean", "reshape",
                "Tensor.sum", "Tensor.mean", "Tensor.abs", "Tensor.reshape")


def _ad(*names):
    return tuple(f"autodiff.{n}" for n in names)


# Time metrics: name -> span names whose outermost calls are summed.
TIME_METRICS = {
    "autodiff.backward_ms": _ad("Tensor.backward", "ComputeGraph.backward"),
    "autodiff.slice_ms": _ad("slice_prefix", "slice_along"),
    "autodiff.matmul_ms": _ad("matmul", "transpose", "Tensor.transpose"),
    "autodiff.softmax_ms": _ad("softmax_lastdim"),
    "autodiff.concat_ms": _ad("concat"),
    "autodiff.layer_norm_ms": _ad("layer_norm"),
    "autodiff.gelu_ms": _ad("gelu"),
    "autodiff.conv_ms": _ad("grouped_conv1d"),
    "autodiff.elementwise_ms": _ad(*_ELEMENTWISE),
    "supernet.encode_ms": ("supernet.encode",),
    "supernet.project_ms": ("supernet.project_input",),
    "supernet.touched_boxes_ms": ("supernet.touched_boxes",),
    "distill.targets_ms": ("distill.TeacherModel.targets_from_features",),
    "distill.teacher_forward_ms": ("distill.TeacherModel.hidden_layers",),
    "distill.mask_ms": ("distill.apply_mask",),
    "distill.loss_ms": ("distill.distill_loss",),
    "frontend.forward_ms": ("frontend.Frontend.forward",),
    "train.adam_ms": ("train.Adam.step",),
    "train.grad_norm_ms": ("train.grad_norm",),
    "search.sample_ms": ("search.sample_candidates",),
    "search.eval_ms": ("search.evaluate_subnet", "search.evaluate_static"),
    "checkpoint.save_ms": ("checkpoint.Checkpoint.save", "checkpoint.save_checkpoint"),
    "checkpoint.load_ms": ("checkpoint.Checkpoint.load", "checkpoint.load_checkpoint"),
    "data.gen_ms": ("data.make_synthetic_dataset",),
    "data.save_ms": ("data.save_dataset",),
    "data.load_ms": ("data.load_dataset",),
    "config.load_ms": ("config.RunConfig.from_file", "config.RunConfig.from_text"),
}

# Every op that puts one node on the tape; nested calls (slice_prefix ->
# slice_along, sub -> add) count once.
OP_SPANS = tuple(sorted({n for key in ("slice", "matmul", "softmax", "concat", "layer_norm",
                                        "gelu", "conv", "elementwise")
                         for n in TIME_METRICS[f"autodiff.{key}_ms"]}))

# The ofat CLI commands a pipeline round runs, as named in span and metric names.
CLI_COMMANDS = ("gen_data", "init_teacher", "train_stage1", "train_stage2",
                "search", "extract", "eval")

def layer_metric_specs() -> list[dict]:
    """Every per-layer metric with its unit and direction (BENCHMARK.json order)."""
    specs = []

    def add(name, unit, better):
        specs.append({"name": name, "unit": unit, "better": better})

    for name in TIME_METRICS:
        add(name, "ms", "lower")
        add(name.replace("_ms", "_share"), "%", "lower")
    add("autodiff.ops", "count", "lower")
    add("distill.target_hits", "count", "higher")
    add("distill.target_misses", "count", "lower")
    add("frontend.calls", "count", "lower")
    add("search.evals", "count", "lower")
    add("search.acceptance_rate", "ratio", "higher")
    add("checkpoint.bytes", "bytes", "lower")
    add("cli.import_s", "s", "lower")
    add("cli.import_share", "%", "lower")
    for cmd in CLI_COMMANDS:
        add(f"cli.{cmd}_s", "s", "lower")
        add(f"cli.{cmd}_share", "%", "lower")
    for mod in MODULES:
        add(f"{mod}.self_share", "%", "lower")
    add("trace.unaccounted_share", "%", "lower")
    add("trace.overhead_pct", "%", "lower")
    add("trace.spans", "count", "lower")
    add("error_rate", "ratio", "lower")
    return specs


def layer_metrics(table: SpanTable, region_s: float, units: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced timed region.

    Times are inclusive (a layer's calls into other traced layers count
    toward it), summed over outermost calls so recursion and nesting within
    one layer count once, and divided by `units` (steps, candidates or
    commands). Shares are the same totals over the timed region, in %.
    `<module>.self_share` is the time spent in a module's own code: each
    span's duration minus what its child spans cover. The module self shares
    and trace.unaccounted_share (benchmark glue) add up to 100.
    """
    import numpy as np

    n = len(table)
    uniq = sorted(set(table.names))
    ids = {name: i for i, name in enumerate(uniq)}
    name_id = np.fromiter((ids[x] for x in table.names), dtype=np.int64, count=n)
    dur = np.asarray(table.ends, dtype=np.float64) - np.asarray(table.starts, dtype=np.float64)
    parent = np.asarray(table.parents, dtype=np.int64)
    par = np.where(parent < 0, n, parent)  # n: a sentinel row with no flags

    def select(names):
        wanted = [ids[x] for x in names if x in ids]
        return np.isin(name_id, wanted) if wanted else np.zeros(n, dtype=bool)

    def outermost(mask):
        # flag[i]: span i or one of its ancestors is selected.
        flag = mask.copy()
        while True:
            new = mask | np.append(flag, False)[par]
            if np.array_equal(new, flag):
                break
            flag = new
        return mask & ~np.append(flag, False)[par]

    out: dict[str, float] = {}
    region_ms = 1000.0 * region_s

    for name, spans in TIME_METRICS.items():
        total_ms = 1000.0 * float(dur[outermost(select(spans))].sum())
        out[name] = total_ms / units
        out[name[: -len("_ms")] + "_share"] = 100.0 * total_ms / region_ms

    out["autodiff.ops"] = float(outermost(select(OP_SPANS)).sum()) / units
    targets = select(["distill.TeacherModel.targets_from_features"])
    teacher = select(["distill.TeacherModel.hidden_layers"])
    has_teacher_child = np.bincount(par[teacher], minlength=n + 1)[:n] > 0
    out["distill.target_misses"] = float((targets & has_teacher_child).sum()) / units
    out["distill.target_hits"] = float((targets & ~has_teacher_child).sum()) / units
    out["frontend.calls"] = float(select(["frontend.Frontend.forward"]).sum()) / units
    out["search.evals"] = float(select(TIME_METRICS["search.eval_ms"]).sum()) / units
    searches = table.counts.get("search.searches", 0.0)
    out["search.acceptance_rate"] = (table.counts.get("search.acceptance_sum", 0.0) / searches
                                     if searches else 0.0)
    out["checkpoint.bytes"] = table.counts.get("checkpoint.bytes", 0.0) / units

    # CLI times are seconds per process of that kind, not per work unit.
    for name, span in [("cli.import_s", "cli.import")] + [
            (f"cli.{cmd}_s", f"cli.command.{cmd}") for cmd in CLI_COMMANDS]:
        mask = select([span])
        out[name] = float(dur[mask].mean()) if mask.any() else 0.0
        out[name[: -len("_s")] + "_share"] = 100.0 * float(dur[mask].sum()) / region_s

    child_total = np.bincount(par, weights=dur, minlength=n + 1)[:n]
    self_time = dur - child_total
    module_of = np.array([x.split(".", 1)[0] for x in uniq])[name_id] if n else np.array([])
    accounted = 0.0
    for mod in MODULES:
        share = 100.0 * float(self_time[module_of == mod].sum()) / region_s
        out[f"{mod}.self_share"] = share
        accounted += share
    out["trace.unaccounted_share"] = 100.0 - accounted
    out["trace.spans"] = float(n) / units
    return out
