"""Record the exact-oracle values of every job into ``references.json``.

    python3 perfbench/record_references.py [--workload NAME ...] [--scale full|tiny ...]

Run from the root of the checkout whose values are the references.  The
recorded file is what every later benchmark run is checked against (to
1e-9), so it is recorded once, at the commit the benchmark was defined on,
and not re-recorded to make a later change pass.  Jobs whose own assertions
fail are reported and make the script exit non-zero.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

OUT = Path(__file__).resolve().parent / "references.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--scale", action="append", choices=workloads.SCALES)
    args = parser.parse_args(argv)

    data = json.loads(OUT.read_text()) if OUT.exists() else {"jobs": {}}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    data["recorded_at_commit"] = commit or None
    data["instance_sets"] = workloads.INSTANCE_SETS
    refs = data["jobs"]
    bad = 0
    for workload in args.workload or workloads.WORKLOADS:
        for scale in args.scale or workloads.SCALES:
            seen = set()
            for set_index in range(workloads.INSTANCE_SETS):
                scratch = ROOT / ".perfbench_out" / "docs" / workload
                for job in workloads.build_jobs(workload, set_index, scale, scratch):
                    key = workloads.reference_key(workload, scale, job)
                    if key in seen:
                        continue
                    seen.add(key)
                    job.prepare()
                    t0 = time.perf_counter()
                    outcome = job.collect(job.call())
                    elapsed = time.perf_counter() - t0
                    if outcome.problems:
                        bad += 1
                        print(f"FAIL {key}: {outcome.problems}", flush=True)
                    refs[key] = outcome.observables
                    print(f"{key}: {len(outcome.observables)} values in {elapsed:.2f} s", flush=True)
    lines = [f"{json.dumps(key)}:{json.dumps(refs[key], separators=(',', ':'))}" for key in sorted(refs)]
    header = {k: v for k, v in data.items() if k != "jobs"}
    OUT.write_text(json.dumps(header)[:-1] + ', "jobs": {\n' + ",\n".join(lines) + "\n}}\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
