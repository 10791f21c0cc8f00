"""One benchmark pass in a fresh interpreter.

Usage (normally started by run.py with PYTHONPATH pointing at src and a
fixed PYTHONHASHSEED):

    python3 bench/worker.py --workload NAME --seed N --pass-index K
        --workdir DIR [--trace] [--corrupt]

Times set-up (importing posetassoc, then the median of three generations
of the input files), clears
the catalog caches so catalog generation runs cold, runs the job list as a
closed loop with one client, then checks every output.  Prints one JSON
object on stdout.

Every time is reported calibrated against the host's speed, sampled
while the pass runs (see speed.py), and also as measured.
"""

import time

import speed

SAMPLER = speed.SpeedSampler()
SAMPLER.start()
# Set-up is timed from here, so it covers importing posetassoc together with
# the standard-library modules it pulls in.
T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402

import workloads  # noqa: E402
from posetassoc import cli, comparability  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORTED = time.perf_counter()
GENERATIONS = 3
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def _run_job(job: workloads.Job) -> tuple[float, float, object, str | None]:
    """Run one job; return (start, end, stdout or catalog, error or None)."""
    buffer = io.StringIO()
    error = None
    # Start each call from a collected heap, as a CLI process would, so no
    # call pays for collecting the cycles an earlier one left behind.
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            if job.argv is None:
                catalog = {n: comparability.connected_posets(n) for n in range(1, 7)}
            else:
                code = cli.run(job.argv)
                if code != 0:
                    error = f"exit code {code}"
    except SystemExit as exc:
        error = f"exit code {exc.code}"
    except Exception as exc:  # a crash in the program is a failed job
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    if job.argv is None and error is None:
        return start, end, catalog, None
    return start, end, buffer.getvalue(), error


def _catalog_stdout(connected: dict) -> str:
    """The cold catalog as JSON, with the sizes of all_posets.

    Called after the timed and traced job loop: all_posets has been filled by
    connected_posets, and asking it again must not count as program work.
    """
    return json.dumps({
        "schema_version": 1,
        "connected": [len(connected[n]) for n in sorted(connected)],
        "all": [len(comparability.all_posets(n)) for n in sorted(connected)],
        "posets": [[P.to_dict() for P in connected[n]] for n in sorted(connected)],
    })


def _bump_f0(stdout: str) -> str:
    """The same payload with its f-vector's vertex count off by one."""
    data = json.loads(stdout)
    data["f"][0] += 1
    return json.dumps(data)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt the first golden digest and the first seeded job's"
                             " f-vector; both jobs must then fail")
    args = parser.parse_args()

    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle).get(args.workload, {})
    # Every pass writes the same file names into the run's workdir.  Writing
    # over existing files keeps file creation, whose cost drifts severalfold
    # on a shared host, out of setup_s; run.py removes the directory.  The
    # inputs are generated GENERATIONS times, the same each time, and the
    # median generation counts towards setup_s.
    generations = []
    for _ in range(GENERATIONS):
        start = time.perf_counter()
        jobs = workloads.build_jobs(args.workload, args.seed, args.pass_index, args.workdir)
        generations.append((start, time.perf_counter()))

    comparability.all_posets.cache_clear()
    comparability.connected_posets.cache_clear()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    runs = [_run_job(job) for job in jobs]
    if tracer:
        tracer.uninstall()
    time.sleep(speed.MARGIN_S)  # samples after the last job
    SAMPLER.stop()
    runs = [(start, end, _catalog_stdout(out) if job.argv is None and error is None else out,
             error) for job, (start, end, out, error) in zip(jobs, runs)]

    if args.corrupt:
        first_golden = next((job.id for job in jobs if job.golden), None)
        if first_golden:
            golden = {**golden, first_golden: "0" * 64}
        seeded = next((k for k, job in enumerate(jobs) if job.seeded), None)
        if seeded is not None and runs[seeded][3] is None:
            start, end, stdout, error = runs[seeded]
            runs[seeded] = (start, end, _bump_f0(stdout), error)
    records = []
    for job, (start, end, stdout, error) in zip(jobs, runs):
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if error is None and job.golden and golden.get(job.id) != digest:
            error = "stdout differs from the golden digest"
        if error is None:
            try:
                error = job.check(stdout)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        raw_s, calibrated_s = SAMPLER.calibrated(start, end)
        records.append({"id": job.id, "verb": job.verb, "golden": job.golden,
                        "s": calibrated_s, "raw_s": raw_s, "digest": digest,
                        "bytes": len(stdout.encode()), "error": error})

    wall_s = sum(r["s"] for r in records)
    raw_wall_s = sum(r["raw_s"] for r in records)
    layers = None
    if tracer:
        # Span times are raw; scale them by the pass's mean calibration.
        layers = {name: value * wall_s / raw_wall_s if name.endswith((".s", ".self_s")) else value
                  for name, value in tracer.metrics().items()}
        verb_s: Counter[str] = Counter()
        for record in records:
            if record["verb"] != "catalog":
                verb_s[f"cli.verb.{record['verb']}.s"] += record["s"]
        layers.update(verb_s)
        layers["cli.stdout_bytes"] = sum(r["bytes"] for r in records if r["verb"] != "catalog")
    raw_import_s, import_s = SAMPLER.calibrated(T0, IMPORTED)
    raw_gen_s, gen_s = (statistics.median(times) for times in
                        zip(*(SAMPLER.calibrated(start, end) for start, end in generations)))
    raw_setup_s, setup_s = raw_import_s + raw_gen_s, import_s + gen_s
    print(json.dumps({
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
