"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload corpus --seeds 1 2 3 4 5

Runs bench/run.py untraced once per seed, one after another, for the
run_seconds of BENCHMARK.json, and prints for every metric its median and the distance between its first and third quartiles
as a share of the median (statistics.quantiles(values, n=4)).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SECONDS = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(SECONDS),
                               "--trace", "0"],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = f"{(q3 - q1) / med:.3f}" if med else "n/a"
        else:
            spread = "n/a"
        print(f"{k:<40} median {med:<14.6g} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
