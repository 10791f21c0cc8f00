"""Benchmark entry point for posetassoc.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in bench/workloads.py.  Each pass runs in a fresh
interpreter (bench/worker.py) with PYTHONHASHSEED=0, and pass k of a run
draws its seeded inputs from (workload, seed, k).

* --trace 0 runs passes (at least three) while another one fits into S
  seconds.  It reports the end-to-end metrics of BENCHMARK.json: medians
  over passes of wall_s, setup_s, peak_rss_mb and of each pass's
  per-CLI-call percentiles.
* --trace 1 runs pairs of passes on the inputs of pass 0, one untraced and
  one traced, while another pair fits into S seconds (at least one pair).
  The two must print byte-identical stdout for every job.  It reports the
  per-layer metrics: times as medians over the traced passes, work
  counters (which must repeat exactly), and trace.overhead_s, the traced
  minus the untraced wall_s.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Exits 2 when
the posetassoc sources are not in src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_tmp"
MIN_PASSES = 3
DEADLINE_S = 170  # every run must end within 180 s


def _pass(args, env, pass_index: int, trace: bool, started: float) -> tuple[dict | None, str]:
    """Run one worker pass; return (result, error)."""
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--pass-index", str(pass_index),
            "--workdir", str(WORKDIR)]
    if trace:
        argv.append("--trace")
    if args.corrupt:
        argv.append("--corrupt")
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"pass {pass_index} did not finish before the run deadline"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"pass {pass_index} exited {proc.returncode}: {' | '.join(tail)}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one golden digest and one seeded output,"
                             " which must raise failed")
    args = parser.parse_args()

    if not (ROOT / "src" / "posetassoc" / "__init__.py").is_file():
        print(f"posetassoc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    WORKDIR.mkdir(exist_ok=True)
    try:
        # Compile the sources once so no pass pays for bytecode generation.
        subprocess.run([sys.executable, "-c", "import posetassoc"], env=env,
                       check=True, timeout=60, cwd=ROOT)
        return _report(args, env, spec)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def _report(args, env, spec) -> int:
    started = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    while not problems:
        elapsed = time.monotonic() - started
        rounds = len(traced) if args.trace else len(untraced)
        if rounds >= (1 if args.trace else MIN_PASSES) and \
                elapsed * (rounds + 1) / rounds > args.seconds:
            break
        if args.trace:
            pair = []
            for trace in (False, True):
                result, error = _pass(args, env, 0, trace, started)
                if result is None:
                    problems.append(error)
                    break
                pair.append(result)
            else:
                untraced.append(pair[0])
                traced.append(pair[1])
                if [j["digest"] for j in pair[0]["jobs"]] != [j["digest"] for j in pair[1]["jobs"]]:
                    problems.append("traced stdout differs from untraced stdout")
        else:
            result, error = _pass(args, env, len(untraced), False, started)
            if result is None:
                problems.append(error)
            else:
                untraced.append(result)
    passes = untraced + traced
    if not passes or (args.trace and not traced):
        print("\n".join(problems), file=sys.stderr)
        return 1

    jobs = [job for result in passes for job in result["jobs"]]
    if args.trace:
        metrics, mismatched = _layer_metrics(spec, untraced, traced)
        problems += mismatched
        summary = f"{len(traced)} traced and {len(untraced)} untraced passes"
    else:
        metrics = _end_to_end_metrics(untraced)
        calls = sum(1 for j in untraced[0]["jobs"] if j["verb"] != "catalog")
        summary = (f"{len(untraced)} passes of {calls} CLI calls each,"
                   f" uncalibrated wall_s {statistics.median([r['raw_wall_s'] for r in untraced]):.4g} s")
    failures = [job for job in jobs if job["error"]]
    attempted = len(jobs) + len(problems)
    failed = len(failures) + len(problems)
    for job in failures[:20]:
        print(f"FAILED {job['id']}: {job['error']}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed {args.seed}: {summary},"
          f" fail_ratio = {failed / attempted:.4g} ({failed}/{attempted} jobs)")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for metric in listed:
        value = metrics.get(metric["name"], 0)
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']} = {value:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def _end_to_end_metrics(untraced: list[dict]) -> dict[str, float]:
    # Percentiles are taken per pass, then the median over passes.  Pooling
    # the passes would let the pass count decide which job a percentile of
    # a 9- or 11-job list lands on.
    calls_ms = [[1000 * j["s"] for j in r["jobs"] if j["verb"] != "catalog"] for r in untraced]
    return {
        "wall_s": statistics.median([r["wall_s"] for r in untraced]),
        "setup_s": statistics.median([r["setup_s"] for r in untraced]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
        "job_p50_ms": statistics.median([statistics.median(c) for c in calls_ms]),
        "job_p90_ms": statistics.median([statistics.quantiles(c, n=10)[8] for c in calls_ms]),
    }


def _layer_metrics(spec, untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics; counters must agree across the traced passes."""
    metrics: dict[str, float] = {}
    problems = []
    for metric in spec["per_layer"]:
        name = metric["name"]
        values = [r["layers"].get(name, 0) for r in traced]
        if metric["unit"] == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"counter {name} differs between passes: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_s"] = (statistics.median([r["wall_s"] for r in traced])
                                   - statistics.median([r["wall_s"] for r in untraced]))
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
