"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0]

Every workload runs once per seed, for BENCHMARK.json's run_seconds.  Seeds
are interleaved across workloads, so a slow spell of the machine spreads
over all of them.  For each workload and metric it prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median; the reference figures in README.md come from here.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    results: dict[str, list[dict]] = {name: [] for name in workloads.WORKLOADS}
    for seed in seeds:
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(RUN_SECONDS), "--trace", args.trace],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            results[name].append(json.loads(proc.stdout.splitlines()[-1]))

    for name, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed share {shares}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:32s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
