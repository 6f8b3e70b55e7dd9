"""The workload process: runs passes over one workload's jobs and reports.

Started by ``run.py`` with the BLAS thread variables already set to 1, from
the root of the checkout.  Prints one JSON object as its last stdout line.
Untraced passes run first; with ``--trace 1`` one untraced pass gives the
baseline and the remaining passes run with the tracer installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import seqmeas  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE_ATOL = 1e-9
SCRATCH = ROOT / ".perfbench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--references", type=Path, required=True)
    return parser.parse_args(argv)


class Run:
    """Pass bookkeeping: attempts, failures and the first document of each job.

    Jobs are identified by their reference keys (workload/scale/job/set).
    """

    def __init__(self, jobs, references, keys: list[str]):
        self.jobs = jobs
        self.references = references
        self.keys = keys
        self.first_document: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer: Tracer | None, sampler: speed.SpeedSampler) -> tuple[float, float, float]:
        """One pass over every job.

        Returns the summed wall time of the calls, the same sum with each call
        scaled to nominal machine speed (the speed probe runs around and,
        from the sampler, during each call), and the process CPU time of the calls.
        """
        busy = scaled = cpu = 0.0
        cal_before = speed.calibrate()
        for job_id, (job, key) in enumerate(zip(self.jobs, self.keys)):
            job.prepare()
            if tracer is not None:
                tracer.job_id = job_id
            self.attempted += 1
            raw, problems = None, None
            since = len(sampler.samples)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                raw = job.call()
            except Exception as exc:  # any raise fails the job; the run goes on
                problems = [f"raised {type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - t0
            cpu += time.process_time() - cpu0
            busy += elapsed
            if tracer is not None:
                tracer.job_id = -1
            cal_after = speed.calibrate()
            scaled += speed.scale(elapsed, sampler.samples[since:] + [cal_before, cal_after])
            cal_before = cal_after
            if problems is None:
                try:
                    problems = self.check(key, job.collect(raw))
                except Exception as exc:  # e.g. an unreadable result document
                    problems = [f"checking raised {type(exc).__name__}: {exc}"]
            self.fail(key, problems)
        return busy, scaled, cpu

    def check(self, key: str, outcome) -> list[str]:
        problems = list(outcome.problems)
        reference = self.references.get(key)
        if reference is None:
            problems.append("no recorded reference")
        else:
            for path, expected in reference.items():
                got = outcome.observables.get(path)
                if got is None:
                    problems.append(f"{path} missing (reference {expected})")
                elif not abs(got - expected) <= REFERENCE_ATOL:
                    problems.append(f"{path} = {got!r}, reference {expected!r}")
        if outcome.document is not None:
            first = self.first_document.setdefault(key, outcome.document)
            if outcome.document != first:
                problems.append("result document differs from this run's first pass at the same seed")
        return problems

    def fail(self, key: str, problems: list[str] | None) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems[:5])


def blas_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = workloads.build_jobs(args.workload, args.seed, args.scale, SCRATCH / "docs" / args.workload)
    all_refs = json.loads(args.references.read_text())["jobs"]
    run = Run(jobs, all_refs, [workloads.reference_key(args.workload, args.scale, job) for job in jobs])
    # CLI jobs run at least twice so every document is compared with a rerun.
    min_passes = 2 if args.workload in ("sampled", "exact") else 1

    start = time.perf_counter()
    untraced: list[float] = []
    traced: list[float] = []
    cpu: list[float] = []
    scaled_passes: list[float] = []
    layer_runs: list[dict] = []
    tracer = None
    bounds: list[tuple[int, int]] = []
    while True:
        tracing = bool(args.trace) and len(untraced) >= 1
        if tracing and tracer is None:
            tracer = Tracer()
            tracer.install()
        wall0 = time.perf_counter()
        if tracer is not None:
            tracer.counters.clear()
            begin = tracer.mark()
            with speed.SpeedSampler() as sampler:
                _, scaled, cpu_s = run.run_pass(tracer, sampler)
            traced.append(scaled)
            cpu.append(cpu_s)
            bounds.append((begin, tracer.mark()))
            layer_runs.append(tracer.layer_metrics(begin, tracer.mark(), dict(tracer.counters)))
        else:
            with speed.SpeedSampler() as sampler:
                wall, scaled, _ = run.run_pass(None, sampler)
            untraced.append(wall)
            scaled_passes.append(scaled)
        last = time.perf_counter() - wall0
        done = len(untraced) + len(traced)
        enough = done >= min_passes and (not args.trace or traced)
        if enough and time.perf_counter() - start + last > args.seconds:
            break

    report = {
        "pass_s": untraced,
        "scaled_pass_s": scaled_passes,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:50],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas_info(),
            "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "seqmeas": seqmeas.__file__,
        },
    }
    if tracer is not None:
        # Counts come from the first traced pass; times are medians per pass.
        per_layer = dict(layer_runs[0])
        for name in per_layer:
            if name.endswith("_s") or name.endswith(".s") or name.endswith("lapack_share"):
                per_layer[name] = statistics.median(r[name] for r in layer_runs)
        per_layer["proc.cpu_s"] = statistics.median(cpu)
        # Speed-scaled, against the run's one untraced pass, which is also its
        # first (cold) pass; the probe's signal handler adds about 1% to the
        # self time of whichever span it interrupts.
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(scaled_passes)
        report["per_layer"] = per_layer
        report["traced_pass_s"] = traced
        SCRATCH.mkdir(parents=True, exist_ok=True)
        spans = SCRATCH / f"{args.workload}-seed{args.seed}-spans.npz"
        tracer.save(spans, bounds)
        report["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
