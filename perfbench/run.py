"""seqmeas benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; seqmeas is imported from ``src/``.
The command first times ``SETUP_REPEATS`` fresh interpreters that import
seqmeas and make one small CLI call (``setup_s``, the median), then starts
the workload in its own single-threaded process (``worker.py``), which runs
passes over the workload's jobs for about S seconds and checks every job.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A summary with units, the pass-time
quartiles and an environment block is printed before it and written to
``.perfbench_out/``.  See ``perfbench/README.md`` for the rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("sampled", "exact", "circuits", "multipartite")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Before numpy loads, in this process and in every process it starts.
os.environ.update({key: str(BLAS_THREADS) for key in THREAD_VARS})
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

# The warm-up call a CLI user pays on every invocation, after `import seqmeas`.
SETUP_PROBE = (
    "import os, sys\n"
    "sys.path.insert(0, 'src')\n"
    "import seqmeas, seqmeas.cli\n"
    "code = seqmeas.cli.main(['gentle', '--trials', '1', '--out', os.devnull])\n"
    "print('ready', code, flush=True)\n"
    "sys.exit(code)\n"
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def time_setup(env: dict[str, str], deadline: float) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until the probe reports ready,
    raw and scaled to the nominal machine speed."""
    cal_before = speed.calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.startswith("ready"):
        raise BenchError(f"setup probe failed (exit {proc.returncode}): {err.strip()[-400:]}")
    return elapsed, speed.scale(elapsed, [cal_before, speed.calibrate()])


def run_worker(args, env: dict[str, str], deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--references", str(args.references),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded the {RUN_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the benchmark's own tests")
    parser.add_argument("--references", type=Path, default=HERE / "references.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    try:
        time_setup(env, deadline)  # discarded: fills the bytecode and file caches
        setup = [time_setup(env, deadline) for _ in range(SETUP_REPEATS)]
        report = run_worker(args, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted, failed = report["attempted"], report["failed"]
    setup_raw = [raw for raw, _ in setup]
    setup_scaled = [scaled for _, scaled in setup]
    # The first pass warms allocator and caches (5-10% slower on `exact` and
    # `circuits`); it is checked like the others but timed only when alone.
    passes = report["scaled_pass_s"][1:] or report["scaled_pass_s"]
    q1, q3 = quartiles(passes)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "setup_s": {"median": statistics.median(setup_scaled), "samples": setup_scaled, "unit": "s"},
        "setup_wall_s": {"median": statistics.median(setup_raw), "samples": setup_raw, "unit": "s"},
        "pass_s": {"median": statistics.median(passes), "q1": q1, "q3": q3, "n": len(passes),
                   "samples": report["scaled_pass_s"], "unit": "s"},
        "pass_wall_s": {"median": statistics.median(report["pass_s"][1:] or report["pass_s"]),
                        "samples": report["pass_s"], "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
        "fail_ratio": {"value": failed / attempted, "unit": "ratio", "failed": failed, "attempted": attempted},
        "problems": report["problems"],
        "env": {
            "cpu_model": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "git_commit": git_commit(),
            "workload_seed": args.seed,
            **report["env"],
        },
    }
    if args.trace:
        summary["traced_pass_s"] = report["traced_pass_s"]
        summary["spans_file"] = report["spans_file"]
        summary["per_layer"] = report["per_layer"]
        metrics = {name: {"value": value, "unit": unit} for name, unit, value in per_layer_rows(report["per_layer"])}
    else:
        metrics = {
            "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
            "pass_s": {"value": summary["pass_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MiB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(summary, indent=2))

    p = summary["pass_s"]
    print(f"env {json.dumps(summary['env'])}")
    for problem in report["problems"]:
        print(f"FAIL {problem}")
    print(f"setup_s {summary['setup_s']['median']:.4f} s (median of {len(setup)}; wall {summary['setup_wall_s']['median']:.4f} s)")
    print(f"pass_s {p['median']:.4f} s (median; q1 {p['q1']:.4f} s, q3 {p['q3']:.4f} s, n {p['n']}; "
          f"wall {summary['pass_wall_s']['median']:.4f} s)")
    print(f"peak_rss_mb {report['peak_rss_mb']:.1f} MiB")
    print(f"fail_ratio {failed / attempted:.6f} ratio ({failed} of {attempted} jobs failed)")
    if args.trace:
        for name, unit, value in per_layer_rows(report["per_layer"]):
            print(f"{name} {value:.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def per_layer_rows(per_layer: dict[str, float]):
    for name in sorted(per_layer):
        yield name, layer_unit(name), per_layer[name]


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("flops_per_byte_computed"):
        return "flop/B"
    if name.endswith("lapack_share") or name.endswith("_per_call") or name.endswith("per_trial"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
