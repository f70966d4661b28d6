"""Smoke tests of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

Each workload runs untraced and traced with its sizes shrunk. The tests
check that the results are correct, that the metrics printed are exactly
those BENCHMARK.json declares, that the traced run emits every layer on the
workloads where that layer runs and accounts for the timed region, that a
second run of one seed repeats the first bit for bit, and that the
benchmark fails without printing a result when the ofat sources are absent.
Exits 0 when every test passes.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run  # pins the BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))
sys.path.insert(0, str(run.BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE_DIR = run.WORK_DIR / "smoke"

TINY = {
    "TRAIN_STEPS": (3, 4),
    "TRAIN_SEARCH_CANDIDATES": 6,
    "SEARCH_SETUP_STEPS": (3, 3),
    "SEARCH_CANDIDATES": 8,
    "PIPELINE_STEPS": 3,
    "PIPELINE_CANDIDATES": 5,
    "FINAL_LOSS_STEPS": 2,
}

_AD_OPS = ["slice", "matmul", "softmax", "concat", "layer_norm", "gelu", "conv", "elementwise"]
_FORWARD = ([f"autodiff.{op}_ms" for op in _AD_OPS]
            + ["autodiff.ops", "supernet.encode_ms", "supernet.project_ms", "distill.targets_ms",
               "distill.mask_ms", "distill.loss_ms", "distill.target_hits", "frontend.forward_ms",
               "frontend.calls"])
_TRAINING = ["autodiff.backward_ms", "supernet.touched_boxes_ms", "train.adam_ms", "train.grad_norm_ms"]
_SEARCH = ["search.sample_ms", "search.eval_ms", "search.evals", "search.acceptance_rate"]
_IO_CLI = (["distill.teacher_forward_ms", "distill.target_misses", "checkpoint.save_ms",
            "checkpoint.load_ms", "checkpoint.bytes", "data.gen_ms", "data.save_ms", "data.load_ms",
            "config.load_ms", "cli.import_s"]
           + [f"cli.{cmd}_s" for cmd in tracing.CLI_COMMANDS])

# Layers that must read above zero in a traced run of each workload.
RUNS_ON = {
    "train": _FORWARD + _TRAINING,
    "search": _FORWARD + _SEARCH,
    "pipeline": _FORWARD + _TRAINING + _SEARCH + _IO_CLI,
}
# The teacher-target cache is warmed in set-up, so the teacher never runs here.
ZERO_ON = {"train": ["distill.teacher_forward_ms", "distill.target_misses"],
           "search": ["distill.teacher_forward_ms", "distill.target_misses"]}


def benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    assert code == 0, f"{workload}: exit code {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        "\n".join(line for line in lines if line.startswith("check failed"))
    return result


def test_declared_metrics_match_the_code():
    bench = benchmark_json()
    assert bench["command"] == ["python3", "bench/run.py"] and bench["paths"] == ["bench"]
    assert [w["name"] for w in bench["workloads"]] == ["train", "search", "pipeline"]
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert declared == list(run.END_TO_END), declared
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert bench["per_layer"] == tracing.layer_metric_specs()


def test_workloads(seed: int = 3):
    bench = benchmark_json()
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    layer_names = [m["name"] for m in bench["per_layer"]]
    for workload in ("train", "search", "pipeline"):
        untraced = run_once(workload, seed, 0)
        assert list(untraced["metrics"]) == e2e_names, workload
        for name, m in untraced["metrics"].items():
            assert math.isfinite(m["value"]) and m["value"] > 0, (workload, name, m)
        # Elsewhere, so that no path may leak into what must repeat; run.py
        # also compares this run's losses and outputs with the first's.
        run.WORK_DIR = SMOKE_DIR / "elsewhere"
        again = run_once(workload, seed, 0)
        run.WORK_DIR = SMOKE_DIR / "work"
        for name in ("train_final_loss", "search_best_loss"):
            assert again["metrics"][name] == untraced["metrics"][name], (workload, name)

        traced = run_once(workload, seed, 1)
        values = {k: m["value"] for k, m in traced["metrics"].items()}
        assert list(values) == layer_names, workload
        assert all(math.isfinite(v) for v in values.values()), workload
        silent = [name for name in RUNS_ON[workload] if not values[name] > 0]
        assert not silent, f"{workload}: no trace of {silent}"
        busy = [name for name in ZERO_ON.get(workload, []) if values[name] != 0]
        assert not busy, f"{workload}: expected no {busy}"
        shares = sum(values[f"{mod}.self_share"] for mod in tracing.MODULES)
        assert abs(shares + values["trace.unaccounted_share"] - 100.0) < 1e-6, workload
        assert 0 <= values["trace.unaccounted_share"] < 5.0, values["trace.unaccounted_share"]
        print(f"ok {workload}: {len(values)} layer metrics, "
              f"{values['trace.unaccounted_share']:.2f}% unaccounted, "
              f"tracing overhead {values['trace.overhead_pct']:.1f}%")


def test_fails_without_sources():
    """In a directory holding only BENCHMARK.json and bench/, it must fail quietly."""
    bare = SMOKE_DIR / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)


def main() -> int:
    for name, value in TINY.items():
        setattr(workloads, name, value)
    shutil.rmtree(SMOKE_DIR, ignore_errors=True)
    run.OUT_DIR = SMOKE_DIR / "out"  # keep tiny results apart from real ones
    run.WORK_DIR = SMOKE_DIR / "work"
    try:
        for test in (test_declared_metrics_match_the_code, test_workloads, test_fails_without_sources):
            test()
            print(f"PASS {test.__name__}")
    finally:
        shutil.rmtree(SMOKE_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
