"""Benchmark of kahlerbench: one workload, one seed, one process.

    python3 perfbench/run.py --workload ma-solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; kahlerbench is imported from
``src/``.  The run imports the package, generates its inputs from the seed,
executes a fixed list of operations (``--seconds`` fixes how many rounds of
them), checks every output with ``checks.py``, and prints one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
ops_per_s, peak_rss_mb); with ``--trace 1`` they are the per-layer ones
of ``spans.PER_LAYER``, and the spans are written beside the result file
under ``perfbench/out/``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
# Names only: workloads.py imports numpy, which must first load as part of
# the program's import so that import.kahlerbench_s includes it.
WORKLOADS = ("ma-solve", "path-collapse", "curvature-screen")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="seconds in program calls to aim for; sets the number of rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def process_age_s() -> float:
    """Seconds since this process started.

    The start is field 22 of /proc/self/stat, in clock ticks since boot,
    read against CLOCK_BOOTTIME; so the age covers interpreter start-up
    too.  Without /proc it falls back to the clock read when run.py began.
    """
    try:
        stat = Path("/proc/self/stat").read_text()
    except OSError:
        return time.perf_counter() - T0
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_program():
    """Import kahlerbench from the checkout's src/ and return it with its import time."""
    if not (ROOT / "src" / "kahlerbench").is_dir():
        raise ImportError("no src/kahlerbench in this checkout")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import kahlerbench
    import kahlerbench.io  # noqa: F401  (not imported by the package itself)

    return kahlerbench, time.perf_counter() - t0


def machine_facts() -> dict:
    env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "sympy": sys.modules["sympy"].__version__,
        "thread_env": {k: os.environ.get(k) for k in env},
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        kb, import_s = import_program()
    except ImportError as err:
        print(f"cannot import kahlerbench from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    rounds = workloads.rounds_for(args.workload, args.seconds)
    inputs = workload.make_inputs(args.seed, rounds)
    setup_s = process_age_s()

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    state_dir = OUT / f"states-{os.getpid()}"
    ledger = workloads.Ledger()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(kb)
    round_s = []
    wall0 = time.perf_counter()
    try:
        for r in range(rounds):
            before = ledger.busy_s
            workload.run_round(kb, inputs, r, ledger, state_dir)
            round_s.append(ledger.busy_s - before)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = time.perf_counter() - wall0
    for note in ledger.notes:
        print(note, file=sys.stderr)

    ops_per_s = (ledger.attempted - ledger.failed) / ledger.busy_s
    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": setup_s, "ops_per_s": ops_per_s, "peak_rss_mb": rss_mb}
        units = dict(END_TO_END)
    else:
        values = {"import.kahlerbench_s": import_s, **tracer.metrics(),
                  "trace.ops_per_s": ops_per_s}
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        tracer.dump(OUT / f"{tag}-spans.json")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "rounds": rounds, "trace": args.trace,
              "busy_s": ledger.busy_s, "round_s": round_s, "wall_s": wall_s,
              "setup_s": setup_s, "import_s": import_s, "notes": ledger.notes,
              "machine": machine_facts()}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
