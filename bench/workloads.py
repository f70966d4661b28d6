"""The three workloads of the ofat benchmark: train, search and pipeline.

Each workload sets up several times (set-up time is the median), then runs
rounds of its work in a closed loop for at least the requested seconds: each
round starts when the last one has finished. Every round of a run must
reproduce the first one bit for bit. See README.md for why each workload exists and what it measures.

The workload seed makes the training data. The program's own seed (teacher,
initial weights, masks, subnet draws) and the held-out set are fixed, so the
losses reported for different workload seeds stay comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import ofat.config as ofat_config
import ofat.data as ofat_data
import ofat.search as ofat_search
import ofat.spaces as ofat_spaces
import ofat.train as ofat_train
from tracing import CLI_COMMANDS, SpanTable, StepClock, Tracer, layer_metrics

_now = time.perf_counter

PROGRAM_SEED = 0  # config seed: teacher, initial weights, masks, subnet draws
VAL_SEED = 7919  # data seed of the fixed held-out set (in-process workloads)
MAX_PARAMS = 90_000
EVAL_BATCHES = 4
SETUPS = 3  # set-ups per run; setup_s is their median
FINAL_LOSS_STEPS = 20  # train_final_loss: mean of the last 20 (or all) stage-2 losses

TRAIN_STEPS = (20, 40)  # stage 1, stage 2 steps per train round
TRAIN_SEARCH_CANDIDATES = 50  # the search after each untraced train round
SEARCH_SETUP_STEPS = (10, 24)  # brief training of the supernet searched
SEARCH_CANDIDATES = 1000
PIPELINE_STEPS = 10  # per stage
PIPELINE_CANDIDATES = 50

BENCH_DIR = Path(__file__).resolve().parent
IN_MEMORY_INIT = "<stage-1 model in memory>"  # stage 2 is handed the model itself


class Checks:
    """Output checks; each failed check counts as one failed operation."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)


@dataclass
class Outcome:
    """What a workload hands back to run.py."""

    end_to_end: dict[str, float]
    attempted: int
    failed_ops: int
    checks: Checks
    per_layer: dict[str, float] | None = None
    traced_end_to_end: dict[str, float] | None = None
    fingerprints: dict[str, str] = field(default_factory=dict)
    spans: SpanTable | None = None
    notes: list[str] = field(default_factory=list)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def fingerprint(*float_lists) -> str:
    h = hashlib.sha256()
    for values in float_lists:
        h.update(np.asarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()


def closed_loop(seconds: float, one_round, tracer: Tracer | None = None, after=None):
    """Rounds back to back until at least `seconds` have passed.

    Returns (round results, round walls in s). A round that raises ends the
    loop; its error is printed and returned in place of a result. `after`,
    if given, is called with each round's result outside the round's time.
    """
    results, walls = [], []
    t0 = _now()
    while True:
        r0 = _now()
        try:
            if tracer is None:
                results.append(one_round())
            else:
                with tracer.span("bench.round"):
                    results.append(one_round())
        except Exception as exc:  # a failed round is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            results.append(exc)
            walls.append(_now() - r0)
            break
        walls.append(_now() - r0)
        if after is not None:
            after(results[-1])
        if _now() - t0 >= seconds:
            break
    return results, walls


def _timed_setups(make):
    """Run `make` SETUPS times; return (last result, all results, median seconds)."""
    results, times = [], []
    for _ in range(SETUPS):
        t0 = _now()
        results.append(make())
        times.append(_now() - t0)
    return results[-1], results, statistics.median(times)


# -- in-process workloads -------------------------------------------------------


@dataclass
class Inputs:
    cfg: object
    space: object
    teacher: object
    train_set: object
    val_set: object
    mask: object
    targets: object


def make_inputs(seed: int) -> Inputs:
    """Data, teacher and a warm teacher-target cache for every sequence used."""
    cfg = ofat_config.RunConfig({"seed": PROGRAM_SEED})
    tr = cfg.data["train"]
    train_set = ofat_data.make_synthetic_dataset(seed, tr["n_train_sequences"], tr["sequence_length"])
    val_set = ofat_data.make_synthetic_dataset(VAL_SEED, tr["n_val_sequences"], tr["sequence_length"])
    teacher = ofat_train.make_teacher(seed=cfg.seed, arch=cfg.teacher_arch(),
                                      frontend_spec=cfg.frontend_spec())
    targets = cfg.target_config()
    for key, sequences in (("train", train_set.sequences), ("val", val_set.sequences[:EVAL_BATCHES])):
        for idx, seq in enumerate(sequences):
            teacher.targets_from_features(teacher.frontend.forward(seq), targets, cache_key=(key, idx))
    return Inputs(cfg, cfg.space(), teacher, train_set, val_set, cfg.mask_spec(), targets)


@dataclass
class Training:
    log1: object
    log2: object
    step1_ms: list
    step2_ms: list

    def losses(self):
        return [r.loss for r in self.log1.records], [r.loss for r in self.log2.records]

    def final_loss(self) -> float:
        return float(np.mean(self.losses()[1][-FINAL_LOSS_STEPS:]))

    def fingerprint(self) -> str:
        l1, l2 = self.losses()
        norms = [r.grad_norm for r in self.log1.records + self.log2.records]
        return fingerprint(l1, l2, norms)


def train_two_stages(inp: Inputs, clock: StepClock, steps1: int, steps2: int):
    """Stage 1 on the max subnet, then stage 2 from its weights. Returns (model, Training)."""
    def stage_cfg(stage, steps, **kw):
        base = inp.cfg.train_config(stage=stage, **kw)
        return replace(base, steps=steps, warmup_steps=max(1, steps // 10))

    t0 = _now()
    _, model1, log1 = ofat_train.stage1_train(stage_cfg(1, steps1), inp.space, inp.teacher,
                                              inp.train_set, inp.mask, inp.targets)
    t1 = _now()
    _, model2, log2 = ofat_train.stage2_train(stage_cfg(2, steps2, init_checkpoint=IN_MEMORY_INIT),
                                              inp.space, inp.teacher, inp.train_set, inp.mask,
                                              inp.targets, init_model=model1)
    t2 = _now()
    return model2, Training(log1, log2, clock.step_ms(t0, t1), clock.step_ms(t1, t2))


def run_search(inp: Inputs, model, n_candidates: int):
    """One budgeted search, serial. Returns (result, budget, seconds)."""
    budget = replace(inp.cfg.search_budget(max_params=MAX_PARAMS),
                     n_candidates=n_candidates, eval_batches=EVAL_BATCHES)
    t0 = _now()
    result = ofat_search.random_search(model, inp.space, budget, inp.val_set.sequences,
                                       inp.teacher, inp.mask, inp.targets, workers=1)
    return result, budget, _now() - t0


def check_training(checks: Checks, tr: Training, where: str) -> None:
    for stage, log, step_ms in (("stage 1", tr.log1, tr.step1_ms), ("stage 2", tr.log2, tr.step2_ms)):
        bad = [r.step for r in log.records if not (math.isfinite(r.loss) and math.isfinite(r.grad_norm))]
        checks.expect(not bad, f"{where} {stage}: non-finite loss or grad norm at steps {bad[:5]}")
        checks.expect(len(step_ms) == len(log.records) - 1,
                      f"{where} {stage}: the step clock saw {len(step_ms) + 1} of "
                      f"{len(log.records)} steps")


def check_search(checks: Checks, result, budget, space, where: str) -> None:
    """The search contract, and that its CSV re-parses."""
    entries = result.entries
    checks.expect(len(entries) == budget.n_candidates,
                  f"{where}: {len(entries)} entries for {budget.n_candidates} candidates")
    checks.expect(all(e.params <= budget.max_params for e in entries), f"{where}: entry over budget")
    keys = [(e.loss, e.index) for e in entries]
    checks.expect(keys == sorted(keys), f"{where}: entries not sorted by (loss, index)")
    checks.expect(result.bound_min.config == ofat_spaces.min_subnet(space)
                  and result.bound_max.config == ofat_spaces.max_subnet(space),
                  f"{where}: bound rows are not the min and max subnets")
    losses = [e.loss for e in entries] + [result.bound_min.loss, result.bound_max.loss]
    checks.expect(all(math.isfinite(x) for x in losses), f"{where}: non-finite search loss")
    rows, bounds = ofat_search.parse_scatter(ofat_search.report_scatter(result))
    checks.expect(len(rows) == len(entries) and [b[4] for b in bounds] == ["min", "max"],
                  f"{where}: search CSV does not re-parse to the result")


def search_fingerprint(result) -> str:
    rows = [(e.loss, e.params, e.index) for e in result.entries]
    bounds = [result.bound_min.loss, result.bound_max.loss]
    return fingerprint([x for row in rows for x in row], bounds)


def phase_seconds(seconds: float, trace: bool) -> float:
    """A traced run splits its time between the untraced and the traced loop."""
    return seconds / 2 if trace else seconds


def _phases(seconds, trace, one_round, after=None):
    """The untraced closed loop, then (trace runs) the same loop traced.

    `after` runs after each untraced round only. Returns (untraced, traced,
    spans, peak RSS in MB after the untraced loop).
    """
    seconds = phase_seconds(seconds, trace)
    untraced = closed_loop(seconds, one_round, after=after)
    rss = peak_rss_mb()
    if not trace:
        return untraced, None, None, rss
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(seconds, one_round, tracer)
    finally:
        tracer.uninstall()
    return untraced, traced, tracer.table, rss


def _ok_rounds(results, walls):
    pairs = [(r, w) for r, w in zip(results, walls) if not isinstance(r, Exception)]
    if not pairs:
        raise RuntimeError("every round failed; no measurement to report")
    return [r for r, _ in pairs], [w for _, w in pairs], len(results) - len(pairs)


def _overhead(untraced: dict, traced: dict, primary: str, better: str) -> float:
    u, t = untraced[primary], traced[primary]
    return 100.0 * ((t - u) / u if better == "lower" else (u - t) / u)


def _add_traced(out: Outcome, traced, table, summarize, units_per_round: int, primary: str,
                better: str):
    """Fill in the traced figures; returns (traced rounds, units attempted, units failed).

    Units are the operations of a round that the per-layer times are per:
    steps, candidates or commands.
    """
    rounds, walls, n_failed = _ok_rounds(*traced)
    out.traced_end_to_end = summarize(rounds, walls, peak_rss_mb())
    out.spans = table
    out.per_layer = layer_metrics(table, sum(walls), units_per_round * len(rounds))
    out.per_layer["trace.overhead_pct"] = _overhead(out.end_to_end, out.traced_end_to_end,
                                                    primary, better)
    return rounds, units_per_round * len(traced[0]), units_per_round * n_failed


def train_workload(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    """Stage 1 then stage 2, repeated; each untraced round's supernet is searched."""
    checks = Checks()
    clock = StepClock()
    clock.install()
    inp, _, setup_s = _timed_setups(lambda: make_inputs(seed))
    steps1, steps2 = TRAIN_STEPS

    def one_round():
        return train_two_stages(inp, clock, steps1, steps2)

    # Searches between the rounds sample the search rate across the whole run.
    searches = []

    def search_trained(round_result):
        searches.append(run_search(inp, round_result[0], TRAIN_SEARCH_CANDIDATES))

    (u_res, u_walls), traced, table, rss = _phases(seconds, trace, one_round, search_trained)
    clock.uninstall()
    u_rounds, u_walls, u_failed = _ok_rounds(u_res, u_walls)
    result, budget, _ = searches[0]

    def summarize(rounds, walls, rss):
        trs = [tr for _, tr in rounds]
        s2 = [x for tr in trs for x in tr.step2_ms]
        return {
            "setup_s": setup_s,
            "stage1_step_ms_p50": statistics.median(x for tr in trs for x in tr.step1_ms),
            "stage2_step_ms_p50": statistics.median(s2),
            "stage2_step_ms_p90": percentile(s2, 90),
            "train_final_loss": trs[0].final_loss(),
            "search_candidates_per_s": statistics.median(b.n_candidates / t for _, b, t in searches),
            "search_best_loss": result.best.loss,
            "pipeline_wall_s": statistics.median(walls),
            "peak_rss_mb": rss,
        }

    all_rounds = list(u_rounds)
    attempted = (steps1 + steps2) * len(u_res) + len(searches) * budget.n_candidates
    failed = (steps1 + steps2) * u_failed
    out = Outcome(summarize(u_rounds, u_walls, rss), 0, 0, checks)
    if traced is not None:
        t_rounds, t_attempted, t_failed = _add_traced(
            out, traced, table, summarize, steps1 + steps2, "stage2_step_ms_p50", "lower")
        all_rounds += t_rounds
        attempted += t_attempted
        failed += t_failed
    for i, (_, tr) in enumerate(all_rounds):
        check_training(checks, tr, f"round {i}")
        checks.expect(tr.fingerprint() == all_rounds[0][1].fingerprint(),
                      f"round {i}: training log differs from round 0")
    for i, (res, b, _) in enumerate(searches):
        check_search(checks, res, b, inp.space, f"search {i}")
        checks.expect(search_fingerprint(res) == search_fingerprint(result),
                      f"search {i} differs from search 0")
    out.attempted, out.failed_ops = attempted, failed
    out.notes.append(f"rounds: {len(u_res)} untraced" + (f", {len(traced[0])} traced" if traced else ""))
    out.fingerprints = {"train": all_rounds[0][1].fingerprint(), "search": search_fingerprint(result)}
    return out


def search_workload(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    """A 1000-candidate budgeted search over a briefly trained supernet, repeated.

    The brief training is repeated after each untraced round, outside the
    round's time, so its step times are sampled across the whole run.
    """
    checks = Checks()
    clock = StepClock()
    clock.install()
    steps1, steps2 = SEARCH_SETUP_STEPS

    def setup():
        inp = make_inputs(seed)
        model, tr = train_two_stages(inp, clock, steps1, steps2)
        return inp, model, tr

    (inp, model, _), setups, setup_s = _timed_setups(setup)
    trainings = [tr for _, _, tr in setups]

    def one_round():
        return run_search(inp, model, SEARCH_CANDIDATES)

    def train_again(_):
        trainings.append(train_two_stages(inp, clock, steps1, steps2)[1])

    (u_res, u_walls), traced, table, rss = _phases(seconds, trace, one_round, train_again)
    clock.uninstall()
    u_rounds, u_walls, u_failed = _ok_rounds(u_res, u_walls)
    s2 = [x for tr in trainings for x in tr.step2_ms]

    def summarize(rounds, walls, rss):
        return {
            "setup_s": setup_s,
            "stage1_step_ms_p50": statistics.median(x for tr in trainings for x in tr.step1_ms),
            "stage2_step_ms_p50": statistics.median(s2),
            "stage2_step_ms_p90": percentile(s2, 90),
            "train_final_loss": trainings[0].final_loss(),
            "search_candidates_per_s": statistics.median(b.n_candidates / s for _, b, s in rounds),
            "search_best_loss": rounds[0][0].best.loss,
            "pipeline_wall_s": statistics.median(walls),
            "peak_rss_mb": rss,
        }

    all_rounds = list(u_rounds)
    attempted = len(trainings) * (steps1 + steps2) + SEARCH_CANDIDATES * len(u_res)
    failed = SEARCH_CANDIDATES * u_failed
    out = Outcome(summarize(u_rounds, u_walls, rss), 0, 0, checks)
    if traced is not None:
        t_rounds, t_attempted, t_failed = _add_traced(
            out, traced, table, summarize, SEARCH_CANDIDATES, "search_candidates_per_s", "higher")
        all_rounds += t_rounds
        attempted += t_attempted
        failed += t_failed
    for i, tr in enumerate(trainings):
        check_training(checks, tr, f"training {i}")
        checks.expect(tr.fingerprint() == trainings[0].fingerprint(),
                      f"training {i}: training log differs from the first")
    first = search_fingerprint(all_rounds[0][0])
    for i, (result, budget, _) in enumerate(all_rounds):
        check_search(checks, result, budget, inp.space, f"round {i}")
        checks.expect(search_fingerprint(result) == first, f"round {i}: search differs from round 0")
    out.attempted, out.failed_ops = attempted, failed
    out.notes.append(f"rounds: {len(u_res)} untraced" + (f", {len(traced[0])} traced" if traced else ""))
    out.fingerprints = {"train": trainings[0].fingerprint(), "search": first}
    return out


# -- the CLI pipeline -------------------------------------------------------------

# (span/metric name, ofat arguments), run in this order in one directory.
PIPELINE = (
    ("gen_data", ["gen-data", "--config", "data.yaml", "--out", "data"]),
    ("init_teacher", ["init-teacher", "--config", "run.yaml", "--out", "teacher.ofat"]),
    ("train_stage1", ["train", "--config", "run.yaml", "--stage", "1", "--out", "stage1.ofat"]),
    ("train_stage2", ["train", "--config", "run.yaml", "--stage", "2", "--init", "stage1.ofat",
                      "--out", "supernet.ofat"]),
    ("search", ["search", "--config", "run.yaml", "--checkpoint", "supernet.ofat",
                "--max-params", str(MAX_PARAMS), "--out", "searchrun", "--workers", "1"]),
    ("extract", ["extract", "--checkpoint", "supernet.ofat", "--subnet-spec", "mid",
                 "--out", "subnet.ofat"]),
    ("eval", ["eval", "--config", "run.yaml", "--checkpoint", "subnet.ofat", "--data", "{heldout}"]),
)
assert tuple(name for name, _ in PIPELINE) == CLI_COMMANDS

# Files the pipeline writes; each must be byte-identical in every round.
ARTIFACTS = (
    "data/train.ofad", "data/train.ofad.meta.json", "data/val.ofad", "data/val.ofad.meta.json",
    "teacher.ofat", "stage1.ofat", "stage1.ofat.log.csv", "supernet.ofat", "supernet.ofat.log.csv",
    "searchrun.csv", "searchrun.summary.yaml", "subnet.ofat",
)


def run_yaml(heldout: Path) -> str:
    """The config every pipeline command but gen-data reads."""
    return f"""\
seed: {PROGRAM_SEED}
train:
  steps: {PIPELINE_STEPS}
  warmup_steps: 1
search:
  n_candidates: {PIPELINE_CANDIDATES}
  eval_batches: {EVAL_BATCHES}
paths:
  teacher: teacher.ofat
  train_data: data/train.ofad
  val_data: {heldout}
"""


# gen-data writes the held-out set with seed + 1: the in-process workloads' set.
HELDOUT_YAML = f"""\
seed: {VAL_SEED - 1}
train:
  n_train_sequences: 1
"""


class Launcher:
    """Runs `ofat` commands as fresh processes through bench/launch.py."""

    def __init__(self, work: Path, env: dict):
        self.env = env
        self.sidecars = work / "sidecars"
        self.sidecars.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def run(self, cwd: Path, args, trace: bool):
        """Returns (completed process, sidecar dict or None)."""
        self.count += 1
        sidecar = self.sidecars / f"{self.count}.json"
        cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(sidecar), "1" if trace else "0",
               "--", *args]
        proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=150)
        side = json.loads(sidecar.read_text()) if sidecar.exists() else None
        return proc, side


def _read_log_losses(path: Path):
    rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows[1:]]


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


@dataclass
class PipelineRound:
    wall: float
    procs: dict  # command -> CompletedProcess
    sides: dict  # command -> sidecar dict
    digests: dict  # artifact -> sha256
    csv_text: str
    logs: dict  # artifact -> [(loss, grad_norm)]


def pipeline_workload(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    """The ofat CLI from gen-data to eval, one cold process per command."""
    checks = Checks()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH_DIR.parent / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OFAT_WORKERS"] = "1"
    launcher = Launcher(work, env)
    counter = {"setup": 0, "round": 0}

    def setup():
        """Generate the fixed held-out set with a cold `ofat gen-data`."""
        counter["setup"] += 1
        d = work / f"setup{counter['setup']}"
        d.mkdir(parents=True)
        (d / "heldout.yaml").write_text(HELDOUT_YAML)
        proc, _ = launcher.run(d, ["gen-data", "--config", "heldout.yaml", "--out", "heldout"],
                               trace=False)
        return proc, d / "heldout" / "val.ofad"

    (_, heldout), setups, setup_s = _timed_setups(setup)
    # Relative to a round directory, so run.yaml and its digest (which every
    # checkpoint records) are the same in every run of a seed.
    heldout = Path("..") / heldout.relative_to(work)
    for i, (proc, path) in enumerate(setups):
        checks.expect(proc.returncode == 0 and path.exists()
                      and _digest(path) == _digest(setups[0][1]),
                      f"set-up {i}: held-out gen-data exited {proc.returncode} or differs")

    def write_configs(d: Path) -> None:
        d.mkdir(parents=True)
        (d / "run.yaml").write_text(run_yaml(heldout))
        (d / "data.yaml").write_text(f"seed: {seed}\n")

    def make_round(tracer: Tracer | None):
        def one_round():
            counter["round"] += 1
            d = work / f"round{counter['round']}"
            write_configs(d)
            procs, sides = {}, {}
            t0 = _now()
            for name, args in PIPELINE:
                args = [a.format(heldout=heldout) for a in args]
                if tracer is None:
                    procs[name], sides[name] = launcher.run(d, args, trace=False)
                else:
                    with tracer.span(f"cli.command.{name}") as span:
                        procs[name], sides[name] = launcher.run(d, args, trace=True)
                    if sides[name] is not None:
                        tracer.table.merge(sides[name]["spans"], parent=span.index)
                if procs[name].returncode != 0:
                    break
            wall = _now() - t0
            digests = {a: _digest(d / a) for a in ARTIFACTS if (d / a).exists()}
            logs = {a: _read_log_losses(d / a) for a in ("stage1.ofat.log.csv", "supernet.ofat.log.csv")
                    if (d / a).exists()}
            csv = (d / "searchrun.csv").read_text() if (d / "searchrun.csv").exists() else ""
            shutil.rmtree(d)
            return PipelineRound(wall, procs, sides, digests, csv, logs)
        return one_round

    seconds = phase_seconds(seconds, trace)
    untraced = closed_loop(seconds, make_round(None))
    rss = peak_rss_mb()
    table = None
    traced = None
    if trace:
        tracer = Tracer()  # spans come from the children; the parent only adds its own
        traced = closed_loop(seconds, make_round(tracer))
        table = tracer.table

    def round_ok(r):
        return not isinstance(r, Exception) and all(p.returncode == 0 for p in r.procs.values()) \
            and len(r.procs) == len(PIPELINE)

    def summarize(results, rss):
        rounds = [r for r in results if round_ok(r)]
        if not rounds:
            raise RuntimeError("no pipeline round completed; no measurement to report")
        s1, s2, rates = [], [], []
        for r in rounds:
            for name, out in (("train_stage1", s1), ("train_stage2", s2)):
                marks = r.sides[name]["clock"]["marks"]
                out.extend(1000.0 * (b - a) for a, b in zip(marks, marks[1:]))
            t0, t1, n = r.sides["search"]["clock"]["searches"][0]
            rates.append(n / (t1 - t0))
        cands, _ = ofat_search.parse_scatter(rounds[0].csv_text)
        return {
            "setup_s": setup_s,
            "stage1_step_ms_p50": statistics.median(s1),
            "stage2_step_ms_p50": statistics.median(s2),
            "stage2_step_ms_p90": percentile(s2, 90),
            "train_final_loss": float(np.mean(
                [loss for loss, _ in rounds[0].logs["supernet.ofat.log.csv"][-FINAL_LOSS_STEPS:]])),
            "search_candidates_per_s": statistics.median(rates),
            "search_best_loss": cands[0][1],
            "pipeline_wall_s": statistics.median(r.wall for r in rounds),
            "peak_rss_mb": rss,
        }

    out = Outcome(summarize(untraced[0], rss), 0, 0, checks)
    phases = [("untraced", untraced)]
    if traced is not None:
        phases.append(("traced", traced))
        out.traced_end_to_end = summarize(traced[0], peak_rss_mb())
        t_rounds = [r for r in traced[0] if round_ok(r)]
        region = sum(r.wall for r in t_rounds)
        out.spans = table
        out.per_layer = layer_metrics(table, region, len(PIPELINE) * len(t_rounds))
        out.per_layer["trace.overhead_pct"] = _overhead(
            out.end_to_end, out.traced_end_to_end, "pipeline_wall_s", "lower")

    attempted = SETUPS  # the held-out gen-data commands
    failed = 0
    reference = None
    for phase, (results, _) in phases:
        for i, r in enumerate(results):
            where = f"{phase} round {i}"
            attempted += len(PIPELINE)
            if isinstance(r, Exception):
                failed += len(PIPELINE)
                continue
            for name, _ in PIPELINE:
                proc = r.procs.get(name)
                ok = proc is not None and proc.returncode == 0
                failed += not ok
                checks.expect(ok, f"{where}: `ofat {name}` exited "
                                  f"{'-' if proc is None else proc.returncode}"
                                  + ("" if proc is None or ok else f": {proc.stderr.strip()[-300:]}"))
            if not round_ok(r):
                continue
            _check_pipeline_outputs(checks, r, where)
            if reference is None:
                reference = r.digests
            checks.expect(r.digests == reference and len(reference) == len(ARTIFACTS),
                          f"{where}: artifacts differ from the first round: "
                          f"{sorted(a for a in ARTIFACTS if r.digests.get(a) != reference.get(a))}")
    out.attempted, out.failed_ops = attempted, failed
    out.notes.append(f"rounds: {len(untraced[0])} untraced"
                     + (f", {len(traced[0])} traced" if traced else ""))
    out.fingerprints = {"artifacts": fingerprint([]) if reference is None else
                        hashlib.sha256(json.dumps(reference, sort_keys=True).encode()).hexdigest()}
    return out


def _check_pipeline_outputs(checks: Checks, r: PipelineRound, where: str) -> None:
    for name, rows in r.logs.items():
        checks.expect(len(rows) == PIPELINE_STEPS, f"{where}: {name} has {len(rows)} steps")
        checks.expect(all(math.isfinite(a) and math.isfinite(b) for a, b in rows),
                      f"{where}: {name} logs a non-finite loss or grad norm")
    checks.expect(len(r.logs) == 2, f"{where}: a training log is missing")
    cands, bounds = ofat_search.parse_scatter(r.csv_text)
    losses = [c[1] for c in cands]
    checks.expect(len(cands) == PIPELINE_CANDIDATES, f"{where}: search CSV has {len(cands)} candidates")
    checks.expect(losses == sorted(losses), f"{where}: search CSV not sorted by loss")
    checks.expect(all(c[0] <= MAX_PARAMS for c in cands), f"{where}: search CSV row over budget")
    checks.expect([b[4] for b in bounds] == ["min", "max"], f"{where}: search CSV bound rows")
    checks.expect(all(math.isfinite(x) for x in losses + [b[1] for b in bounds]),
                  f"{where}: non-finite loss in search CSV")
    diff = _number_after(r.procs["extract"].stdout, "equivalence_max_abs_diff=")
    checks.expect(diff is not None and diff <= 1e-6, f"{where}: extract equivalence diff {diff}")
    loss = _number_after(r.procs["eval"].stdout, "loss[extracted]:")
    checks.expect(loss is not None and math.isfinite(loss), f"{where}: eval printed loss {loss}")
    clock = r.sides["train_stage1"]["clock"]["marks"], r.sides["train_stage2"]["clock"]["marks"]
    checks.expect(all(len(m) == PIPELINE_STEPS for m in clock),
                  f"{where}: the step clock saw {[len(m) for m in clock]} steps")


def _number_after(text: str, label: str):
    """The number printed right after `label` in a command's output, or None."""
    m = re.search(re.escape(label) + r"\s*(\S+)", text)
    try:
        return float(m.group(1)) if m else None
    except ValueError:
        return None


WORKLOADS = {"train": train_workload, "search": search_workload, "pipeline": pipeline_workload}
