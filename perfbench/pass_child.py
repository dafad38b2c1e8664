"""One cold pass over a workload's queries, in a fresh interpreter.

Run by run.py with PYTHONPATH pointing at the checkout's src/.  Prints one
JSON object: each query's answer or error and wall time, the pass's solve
time and peak RSS, the values the checks need, and with --trace 1 the
span table of the pass.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--order", required=True, help="seed of this pass's query order")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import thetacalc
    import thetacalc.cli  # noqa: F401  (loaded before timing, as the CLI entry point does)

    expected = HERE.parent / "src" / "thetacalc"
    if Path(thetacalc.__file__).resolve().parent != expected.resolve():
        print(f"imported thetacalc from {thetacalc.__file__}, not {expected}", file=sys.stderr)
        return 2

    qs = workloads.queries(args.workload)
    order = list(range(len(qs)))
    random.Random(args.order).shuffle(order)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()

    answers: list = [None] * len(qs)
    errors: list = [None] * len(qs)
    seconds = [0.0] * len(qs)
    start = perf_counter()
    for i in order:
        t0 = perf_counter()
        try:
            answers[i] = workloads.execute(qs[i])
        except Exception as exc:  # a raising query is a failed query, not a crash
            errors[i] = f"{type(exc).__name__}: {exc}"
        seconds[i] = perf_counter() - t0
    solve_s = perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    trace = tracer.report() if tracer else None

    result = {
        "solve_s": solve_s,
        "seconds": seconds,
        "answers": answers,
        "errors": errors,
        "aux": workloads.aux(qs),
        "maxrss_kb": maxrss_kb,
        "trace": trace,
    }
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
