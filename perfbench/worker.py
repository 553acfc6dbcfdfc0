"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py. Prints `ready` once set-up is done and the first job's
inputs are generated, then runs whole rounds until --seconds have passed,
checks every verdict against the reference outside the timed calls, and
prints one JSON line with the figures. Between jobs, at least every
CAL_EVERY_S, it takes a calibration point; each job's time is also given
scaled by the points just before and after it (see calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from calibrate import calibration_point, speed_scale

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
CAL_EVERY_S = 0.1  # at most this much wall time between calibration points, checked between jobs


def summary(times: list[float]) -> dict:
    """Total, median and 95th percentile of job times, and how many lie beyond it."""
    p95 = statistics.quantiles(times, n=20)[18] if len(times) > 1 else times[0]
    return {
        "busy_s": sum(times),
        "p50_s": statistics.median(times),
        "p95_s": p95,
        "beyond_p95": sum(t > p95 for t in times),
    }


class Tracer:
    """Times library calls. Every call adds to `elapsed`; with `traced` it
    also records a span (id, name, start, end, parent id, job id), kept in
    memory until the run ends. Work counts accumulate in `counts`."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.elapsed = 0.0
        self._parent = None
        self._job = None

    def call(self, name: str, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self.elapsed += end - start
            if self.traced:
                self.spans.append((len(self.spans), name, start, end, self._parent, self._job))

    def count(self, name: str, value: int):
        self.counts[name] += value

    @contextmanager
    def job(self, name: str, job_id):
        """A parent span around everything one job (or the set-up) does."""
        self._job = job_id
        if not self.traced:
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        self._parent = index
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (index, name, start, perf_counter(), None, job_id)
            self._parent = None

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds): a span's duration minus the part
        its child spans cover."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, name, start, end, _, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start - child[index]
        return {name: (calls, s) for name, (calls, s) in out.items()}


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, layer by layer, each work count next to its
    time: span self times, and counts derived outside the library from
    input and output sizes. A layer the workload does not call reports 0."""
    spans = tracer.self_times()
    c = tracer.counts
    m: dict[str, tuple[float, str]] = {}

    def calls(name):
        m[f"{name}.calls"] = (spans.get(name, (0, 0.0))[0], "count")

    def secs(name, suffix="s"):
        m[f"{name}.{suffix}"] = (spans.get(name, (0, 0.0))[1], "s")

    def count(name):
        m[name] = (c[name], "count")

    def ratio(name, part, whole, unit="ratio"):
        m[name] = (part / whole if whole else 0.0, unit)

    calls("varieties.check_identities")
    secs("varieties.check_identities", "self_s")
    count("varieties.assignments")
    ratio("varieties.assignments_per_s", c["varieties.assignments"], m["varieties.check_identities.self_s"][0], "1/s")
    ratio("varieties.reject_share", c["varieties.rejects"], m["varieties.check_identities.calls"][0])

    calls("outer.build_outer_product")
    secs("outer.build_outer_product")
    count("outer.entries")
    ratio("outer.reject_share", c["outer.rejects"], m["outer.build_outer_product.calls"][0])

    calls("digroups.digroup_outer")
    secs("digroups.digroup_outer")
    count("digroups.entries")
    secs("digroups.skew_brace_check")
    secs("digroups.digroup_direct_criterion")
    secs("digroups.all_digroups")

    secs("groups.group_semidirect")
    calls("groups.automorphism_group")
    secs("groups.automorphism_group")
    secs("heaps.heap_outer")
    calls("heaps.heap_inner_report")
    secs("heaps.heap_inner_report")

    calls("envcat.functor_morphism")
    secs("envcat.functor_morphism")
    count("envcat.table_entries")
    calls("envcat.check_functoriality")
    secs("envcat.check_functoriality")

    calls("congruences.all_congruences")
    secs("congruences.all_congruences")
    count("congruences.found")
    ratio("congruences.found_per_s", c["congruences.found"], m["congruences.all_congruences.s"][0], "1/s")

    calls("inner.idempotent_endomorphisms")
    secs("inner.idempotent_endomorphisms")
    count("inner.idempotents")
    ratio("inner.idempotents_per_s", c["inner.idempotents"], m["inner.idempotent_endomorphisms.s"][0], "1/s")
    secs("inner.count_transversal_pairs")
    count("inner.pairs_scanned")
    ratio("inner.transversal_share", c["inner.transversal_pairs"], c["inner.pairs_scanned"])

    secs("algebras.all_subalgebras")
    count("algebras.closures")
    ratio("algebras.subalgebra_share", c["algebras.subalgebras"], c["algebras.closures"])
    calls("algebras.find_isomorphism")
    secs("algebras.find_isomorphism")

    secs("catalog.all_group_tables")

    count("cli.main.calls")
    for verb in ("check", "congruences", "idempotents", "decompose", "brace", "heap", "envcat"):
        secs(f"cli.main.{verb}")
    ratio("cli.exit_false_share", c["cli.exit_false"], c["cli.main.calls"])
    count("cli.stdout_bytes")
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    # relative, so workspace references `<file>#<name>` never contain the checkout path
    parser.add_argument("--out", required=True, help="directory for the workspace and the trace")
    args = parser.parse_args()

    out = Path(args.out)
    workdir = out / f"work_{args.workload}_{args.seed}_{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        tracer = Tracer(bool(args.trace))
        with tracer.job("setup", "setup"):
            from workloads import WORKLOADS

            rounds = WORKLOADS[args.workload](args.seed, tracer, workdir).rounds()
            batch = next(rounds)
            first = batch[0]()
        print("ready", flush=True)
        if args.setup_only:
            return 0

        times: list[float] = []
        cal_of_job: list[int] = []  # index of the calibration point just before each job
        cals = [calibration_point()]
        last_cal = perf_counter()
        failed = repeats = 0
        seen = set()
        start = perf_counter()
        while True:
            for make in batch:
                if perf_counter() - last_cal >= CAL_EVERY_S:
                    cals.append(calibration_point())
                    last_cal = perf_counter()
                cal_of_job.append(len(cals) - 1)
                job = first or make()
                first = None
                job_id = len(times)
                key = hash(job.key)  # a hash, so the bookkeeping barely adds to peak RSS
                if key in seen:
                    repeats += 1
                seen.add(key)
                tracer.elapsed = 0.0
                ok = False
                try:
                    with tracer.job(f"job.{job.kind}", job_id):
                        result = job.run()
                    ok = job.check(result)
                    if not ok:
                        print(f"job {job_id} ({job.kind}) disagrees with the reference", file=sys.stderr)
                except Exception as exc:  # anything that is not the expected verdict fails the job
                    print(f"job {job_id} ({job.kind}) raised {exc!r}", file=sys.stderr)
                failed += not ok
                times.append(tracer.elapsed)
            if perf_counter() - start >= args.seconds:
                break
            batch = next(rounds)
        cals.append(calibration_point())
        wall = perf_counter() - start

        # each job scaled by the calibration points just before and after it (see calibrate.py)
        scaled = [t * speed_scale(cals[c : c + 2]) for t, c in zip(times, cal_of_job)]
        result = {
            "jobs": len(times),
            "failed": failed,
            "repeats": repeats,
            "wall_s": wall,
            "calibrations": len(cals),
            "raw": summary(times),
            **summary(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if args.trace:
            result["per_layer"] = {k: list(v) for k, v in per_layer(tracer).items()}
            trace_file = out / f"trace_{args.workload}_{args.seed}.jsonl"
            with trace_file.open("w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "job"), span))) + "\n")
            result["trace_file"] = str(trace_file)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
