"""Record the stdout digest of every golden job into bench/golden.json.

Run from the root of a checkout whose outputs are trusted:

    PYTHONPATH=src python3 bench/record_golden.py

Only the fixed jobs of the two ladder workloads are golden.  Seeded jobs
and catalog-sweep jobs are not recorded; their checks verify them.  The
recording is refused if any job fails for a reason other than a missing or
different golden digest.
"""

import json
import os
import subprocess
import sys
import tempfile

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
GOLDEN_MISMATCH = "stdout differs from the golden digest"


def main() -> int:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "PYTHONHASHSEED": "0"}
    golden = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp") as workdir:
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
                 "--seed", "0", "--pass-index", "0", "--workdir", workdir],
                env=env, capture_output=True, text=True, check=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            bad = [j for j in result["jobs"] if j["error"] not in (None, GOLDEN_MISMATCH)]
            if bad:
                for job in bad:
                    print(f"{workload}: {job['id']}: {job['error']}", file=sys.stderr)
                return 1
            digests = {j["id"]: j["digest"] for j in result["jobs"] if j["golden"]}
            if digests:
                golden[workload] = digests
    with open(os.path.join(BENCH, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {sum(map(len, golden.values()))} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
