"""ualgebra benchmark: time from handing over tables to a checked verdict.

    python3 perfbench/run.py --workload products|lattices|candidates|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ./src.

Load: a closed loop with one client. One job at a time from one process,
no threads, no pool. Every run is a fresh interpreter with PYTHONHASHSEED=0,
so the library's unbounded lru_caches start cold, as in every `ua` call.
The workload seed picks the inputs; the library receives only those.

Workloads (why each was chosen is in BENCHMARK.json):
  products    build and verify semidirect products (digroups, groups, heaps)
              and check envcat functor laws; every identity check is a full
              scan, so time goes to term evaluation.
  lattices    subalgebras, congruences, idempotent endomorphisms, transversal
              pairs and isomorphism search on relabelled family members, and
              the heap decomposition census; no term is evaluated.
  candidates  many short `ua` calls (cli.main in-process, stdout captured)
              on small random and genuine tables, and random action families
              sent to build_outer_product, most rejected at an early witness.

With --trace 0 it prints the end-to-end metrics: jobs_per_s, job_p50_ms,
job_p95_ms, failed_share, setup_s (median of several cold starts) and
peak_rss_mb. Every time among them is scaled to a reference machine speed
by a fixed calibration workload timed beside it (calibrate.py), because the
host's own speed drifts by half or more; the unscaled figures are printed
too. With --trace 1 it runs half the time untraced and half traced and
prints the per-layer metrics (span times unscaled), with the traced run's
jobs_per_s over the untraced one as the tracing overhead. The last line of
stdout is one JSON object.
Exit code 0 only if every run finished; `correct` is false if any job
failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import calibration_point, speed_scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ".perfbench_out"  # relative to ROOT, the workers' working directory
WORKLOADS = ("products", "lattices", "candidates")
SETUP_RUNS = 9  # cold starts per run; setup_s is their median
END_TO_END = [
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("failed_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


class RunError(Exception):
    pass


def start_worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    """Start one worker and wait for its `ready` line.

    Returns (process, seconds from start to ready): interpreter start-up,
    imports, input generation and workspace writing.
    """
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", OUT,
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline() if sel.select(timeout=60) else ""
    ready = perf_counter() - start
    if line.strip() != "ready":
        finish(proc, 10)
        raise RunError(f"{workload}: worker stopped before its first job")
    return proc, ready


def finish(proc, timeout: float) -> str:
    """Wait for a worker to end (killing it after `timeout`), return its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker timed out") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def measured_run(workload: str, seed: int, seconds: float, trace: int):
    proc, ready = start_worker(workload, seed, seconds, trace, setup_only=False)
    out = finish(proc, seconds + 60)
    return json.loads(out.strip().splitlines()[-1]), ready


def end_to_end(workload: str, seed: int, seconds: float):
    setups = []
    for _ in range(SETUP_RUNS):
        # scaled to reference speed by calibration points just before and after
        before = calibration_point()
        proc, ready = start_worker(workload, seed, seconds, 0, setup_only=True)
        finish(proc, 60)
        setups.append(ready * speed_scale([before, calibration_point()]))
    raw, _ = measured_run(workload, seed, seconds, 0)
    metrics = {
        "jobs_per_s": raw["jobs"] / raw["busy_s"],
        "job_p50_ms": raw["p50_s"] * 1000,
        "job_p95_ms": raw["p95_s"] * 1000,
        "failed_share": raw["failed"] / raw["jobs"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    print(f"workload {workload}  seed {seed}  {raw['jobs']} jobs in {raw['wall_s']:.1f} s wall")
    print(f"  times at reference speed ({raw['calibrations']} calibration points); unscaled:"
          f" {raw['raw']['p50_s'] * 1000:.4f} ms p50, {raw['raw']['p95_s'] * 1000:.4f} ms p95,"
          f" {raw['jobs'] / raw['raw']['busy_s']:.4f} jobs/s")
    notes = {
        "job_p95_ms": f"(n={raw['jobs']}, {raw['beyond_p95']} beyond)",
        "failed_share": f"({raw['failed']} of {raw['jobs']})",
        "setup_s": f"(median of {len(setups)} cold starts)",
    }
    for name, value in metrics.items():
        print(f"  {name:<14} {value:>12.4f} {units[name]:<7} {notes.get(name, '')}")
    print(f"  {'repeat_share':<14} {raw['repeats'] / raw['jobs']:>12.4f} ratio   (jobs whose input equals an earlier job's)")
    return raw, {name: (value, units[name]) for name, value in metrics.items()}


def per_layer(workload: str, seed: int, seconds: float):
    # half the time untraced, half traced: the pair costs one measured run
    base, _ = measured_run(workload, seed, seconds / 2, 0)
    raw, _ = measured_run(workload, seed, seconds / 2, 1)
    metrics = {name: (value, unit) for name, (value, unit) in raw["per_layer"].items()}
    metrics["jobs.repeat_share"] = (raw["repeats"] / raw["jobs"], "ratio")
    traced = raw["jobs"] / raw["busy_s"]
    metrics["trace.jobs_per_s_ratio"] = (traced / (base["jobs"] / base["busy_s"]), "ratio")
    print(f"workload {workload}  seed {seed}  traced: {raw['jobs']} jobs, spans in {raw['trace_file']}")
    print("  one client, no queues and no threads: no layer waits, so no waiting time is reported")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    return raw, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="ualgebra benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ualgebra" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'ualgebra'}", file=sys.stderr)
        return 2
    (ROOT / OUT).mkdir(exist_ok=True)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in chosen:
            measure = per_layer if args.trace else end_to_end
            raw, found = measure(workload, args.seed, args.seconds)
            attempted += raw["jobs"]
            failed += raw["failed"]
            prefix = "" if len(chosen) == 1 else workload + "."
            # failed_share is 0 on a correct run, so the JSON carries it as attempted/failed
            metrics.update(
                {prefix + name: {"value": v, "unit": u} for name, (v, u) in found.items() if name != "failed_share"}
            )
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
