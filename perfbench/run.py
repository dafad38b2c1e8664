"""thetacalc benchmark: one run of one workload.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 34 --trace 0

A run first times fresh interpreters importing thetacalc (setup_s), then runs
cold passes over the workload's fixed queries, each in a fresh interpreter
with its own shuffled order, until the next pass would end more than half a
pass after --seconds.
Every answer of every pass is checked outside the timed region.  The last
stdout line is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics from alternating untraced and traced passes with --trace 1.  A fuller
report of the run goes to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 150
OUT_DIR = ROOT / ".perfbench-out"


class RunError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS would otherwise start idle threads of its own.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def python(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{argv[0]} ran past {CHILD_TIMEOUT_S} s") from exc


def import_seconds(env: dict[str, str]) -> float:
    t0 = time.perf_counter()
    proc = python(["-c", "import thetacalc"], env)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RunError(f"import thetacalc failed: {proc.stderr.strip()[-400:]}")
    return elapsed


def identities_reference(env: dict[str, str]) -> str:
    code = "import sys; from thetacalc import cli; sys.exit(cli.run(['identities', '--threads', '1']))"
    return python(["-c", code], env).stdout


def run_pass(workload: str, order: str, traced: bool, env: dict[str, str]) -> dict:
    proc = python(
        [str(HERE / "pass_child.py"), "--workload", workload, "--order", order,
         "--trace", str(int(traced))],
        env,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"pass failed with exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "thetacalc" / "__init__.py").is_file():
        print(f"perfbench: no src/thetacalc under {ROOT}; nothing to measure", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds
    env = child_env()
    qs = workloads.queries(args.workload)
    ctx: dict = {}
    import_s: list[float] = []
    passes: list[tuple[bool, dict]] = []
    attempted = failed = 0
    problems: list[str] = []
    try:
        if not args.trace:
            import_seconds(env)  # warm-up: bytecode compilation and file cache
            import_s = [import_seconds(env) for _ in range(IMPORT_REPEATS)]
        if args.workload == "residue-large":
            ctx["residue_refs"] = checks.load_residue_refs()
        if args.workload == "cli-oracles":
            ctx["identities_ref"] = identities_reference(env)
        pass_s: list[float] = []
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t0 = time.perf_counter()
            res = run_pass(args.workload, f"{args.seed}/{len(passes)}", traced, env)
            for i, q in enumerate(qs):
                reason = res["errors"][i]
                if reason is None:
                    reason = checks.check(q, res["answers"][i], res["aux"].get(str(i)), ctx)
                if reason is not None:
                    failed += 1
                    problems.append(f"{q}: {reason}")
            attempted += len(qs)
            passes.append((traced, res))
            pass_s.append(time.perf_counter() - t0)
            # Start another pass only if it is due to end less than half a
            # pass after the deadline, so runs last --seconds on average.
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and time.perf_counter() + statistics.median(pass_s) / 2 > deadline:
                break
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = [res for traced, res in passes if not traced]
    solve_s = statistics.median(res["solve_s"] for res in plain)
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "solve_s": [res["solve_s"] for res in plain],
        "import_s": import_s,
        "query_median_ms": {
            json.dumps(q): 1000 * statistics.median(res["seconds"][i] for res in plain)
            for i, q in enumerate(qs)
        },
        "problems": problems[:50],
    }
    if not args.trace:
        values = {
            "setup_s": (statistics.median(import_s), "s"),
            "solve_s": (solve_s, "s"),
            "latency_p50_ms": (
                1000 * statistics.median(t for res in plain for t in res["seconds"]), "ms"
            ),
            "peak_rss_mb": (max(res["maxrss_kb"] for res in plain) / 1024, "MB"),
        }
    else:
        traced_runs = [res for traced, res in passes if traced]
        per_pass = [tracing.layer_values(res["trace"]) for res in traced_runs]
        values = {
            name: (statistics.median(p[name] for p in per_pass), unit)
            for name, (unit, _) in tracing.LAYER_METRICS.items()
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = (
            statistics.median(res["solve_s"] for res in traced_runs) - solve_s, "s"
        )
        report["spans"] = traced_runs[-1]["trace"]
        for name in traced_runs[-1]["trace"]["absent"]:
            print(f"perfbench: probe target {name} is absent", file=sys.stderr)

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    report["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n")

    for line in problems[:10]:
        print(f"perfbench: failed {line}", file=sys.stderr)
    print(
        f"{args.workload}: {len(passes)} passes, {attempted} queries attempted, "
        f"{failed} failed; report in {out_file.relative_to(ROOT)}",
        file=sys.stderr,
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
