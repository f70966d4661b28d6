"""The ofat benchmark: one workload per process, end to end or traced per layer.

    python3 bench/run.py --workload {train,search,pipeline} --seed N --seconds S --trace {0,1}

Run it from anywhere; it uses the ofat sources under src/ next to bench/.
With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs the
timed loop for half the time, then again with every public ofat function
traced, and prints the per-layer metrics, the tracing overhead among them. The last line of the
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it record the environment, every metric with its unit and
the output checks. The full result goes to .bench_out/ as JSON, and a
traced run also leaves its spans there. See bench/README.md.
"""

import os

# Pinned before numpy is first imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# name, unit, better -- the end-to-end metrics every workload reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("stage1_step_ms_p50", "ms", "lower"),
    ("stage2_step_ms_p50", "ms", "lower"),
    ("stage2_step_ms_p90", "ms", "lower"),
    ("train_final_loss", "loss", "lower"),
    ("search_candidates_per_s", "1/s", "higher"),
    ("search_best_loss", "loss", "lower"),
    ("pipeline_wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() or "unavailable"


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "source_digest": source_digest(SRC / "ofat"),
        "workload_seed": seed,
    }


def check_repeatability(workload: str, env: dict, end_to_end: dict, fingerprints: dict, checks) -> None:
    """Losses and result fingerprints must repeat bit for bit for one seed.

    The first run of a (workload, seed, ofat and benchmark sources, numpy)
    in this checkout records them under .bench_out/expect/; later runs compare.
    """
    key = (f"{workload}-seed{env['workload_seed']}-{env['source_digest']}"
           f"-{source_digest(BENCH_DIR)}-numpy{env['numpy']}")
    path = OUT_DIR / "expect" / f"{key}.json"
    now = {"train_final_loss": end_to_end["train_final_loss"].hex(),
           "search_best_loss": end_to_end["search_best_loss"].hex(), **fingerprints}
    if path.exists():
        before = json.loads(path.read_text())
        differ = sorted(k for k in now if before.get(k) != now[k])
        checks.expect(not differ, f"differs from an earlier run of this seed: {differ}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "search", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ofat" / "__init__.py").is_file():
        print(f"error: the ofat sources are missing ({SRC / 'ofat'})", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from tracing import layer_metric_specs
    from workloads import WORKLOADS

    env = environment(args.seed)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = outcome.checks
    check_repeatability(args.workload, env, outcome.end_to_end, outcome.fingerprints, checks)
    failed = min(outcome.attempted, outcome.failed_ops + len(checks.failures))
    error_rate = failed / outcome.attempted
    if args.trace:
        specs = [(s["name"], s["unit"]) for s in layer_metric_specs()]
        values = dict(outcome.per_layer, error_rate=error_rate)
    else:
        specs = [(name, unit) for name, unit, _ in END_TO_END]
        values = outcome.end_to_end
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in specs}

    for key, value in env.items():
        print(f"env {key}: {value}")
    for note in outcome.notes:
        print(f"note {note}")
    print(f"{'metric':34} {'untraced':>14} {'traced':>14} unit")
    for name, unit, _ in END_TO_END:
        traced = outcome.traced_end_to_end
        shown = f"{traced[name]:14.6g}" if traced else f"{'-':>14}"
        print(f"{name:34} {outcome.end_to_end[name]:14.6g} {shown} {unit}")
    print(f"{'error_rate':34} {error_rate:14.6g} {'-':>14} ratio ({failed} of {outcome.attempted})")
    if args.trace:
        for name, unit in specs:
            print(f"{name:34} {values[name]:14.6g} {unit}")
    print(f"checks: {checks.passed} passed, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"check failed: {failure}")

    result = {"correct": failed == 0, "attempted": outcome.attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "end_to_end": outcome.end_to_end,
              "traced_end_to_end": outcome.traced_end_to_end, "per_layer": outcome.per_layer,
              "checks_passed": checks.passed, "check_failures": checks.failures,
              "notes": outcome.notes, "result": result}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.spans is not None:
        outcome.spans.save(OUT_DIR / f"spans-{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
