"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload path-collapse --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the first and third quartile (Python's
``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median, plus the share of failed operations.  The runs' JSON lines
are kept in ``perfbench/out/spread-<workload>-trace<t>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=float,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workload:
        results = []
        log = HERE / "out" / f"spread-{workload}-trace{args.trace}.jsonl"
        with log.open("w") as fh:
            for seed in args.seeds:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                                      timeout=900, check=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                results.append(result)
                fh.write(json.dumps({"seed": seed, **result}) + "\n")
                fh.flush()
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:34s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
