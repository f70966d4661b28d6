"""Run one `ofat` command in a fresh process, as the `ofat` console script does.

    python3 bench/launch.py SIDECAR TRACE -- <ofat arguments>

It imports `ofat.cli`, installs the step clock (and, with TRACE 1, the
tracer), calls `ofat.cli.main` with the arguments and exits with its code.
At exit it writes the clock marks and the spans to the SIDECAR JSON file,
which the benchmark reads. The command's own output files are untouched by
any of this. PYTHONPATH must reach the ofat sources.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--" or sys.argv[2] not in ("0", "1"):
        print("usage: launch.py SIDECAR TRACE(0|1) -- <ofat arguments>", file=sys.stderr)
        return 2
    sidecar, trace, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    t0 = time.perf_counter()
    import ofat.cli

    t1 = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import StepClock, Tracer

    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.table.add("cli.import", t0, t1)
        tracer.install()
    clock = StepClock()
    clock.install()
    code = 1
    try:
        code = ofat.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        side = {"clock": clock.to_dict(), "spans": tracer.table.to_dict() if tracer else None}
        with open(sidecar, "w") as fh:
            json.dump(side, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
