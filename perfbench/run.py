"""cayleypoly benchmark: seeded CLI workloads with host-normalised timings.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The seed picks the job list (see
workloads.py); each job is one CLI call in a freshly forked child, checked
by checks.py.  With --trace 0 the run cycles through the job list for
--seconds seconds (always at least one full pass) and reports the
end-to-end metrics.  With --trace 1 it runs one untraced and one traced
pass and reports the per-layer metrics.  Times are in reference seconds
(see runner.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The full calibration record (raw seconds
and both probe times of every job, machine and seed) goes to
perfbench/out/.  Without an importable cayleypoly in the checkout's src/
it exits non-zero and prints no result line.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from runner import PROBE_REFERENCE_S, measure_setup, run_jobs  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

SETUP_LAUNCHES = 11

END_TO_END_UNITS = {
    "run_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Import cayleypoly from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import cayleypoly.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import cayleypoly from {SRC}: {exc}")
    import cayleypoly

    if not os.path.abspath(cayleypoly.__file__).startswith(SRC + os.sep):
        sys.exit(f"cayleypoly was imported from {cayleypoly.__file__}, not {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version()}


def per_job_medians(timed, job_count: int) -> list[float]:
    """Median reference seconds of each job over the passes that ran it."""
    by_job: list[list[float]] = [[] for _ in range(job_count)]
    for run in timed:
        by_job[run.index].append(run.ref_s)
    return [statistics.median(times) for times in by_job]


def probe_spread(timed) -> dict:
    """Spread of the probe over the run: (max - min) and IQR, over the median."""
    probes = [timed[0].probe_before_s] + [run.probe_after_s for run in timed]
    median = statistics.median(probes)
    q1, _, q3 = statistics.quantiles(probes, n=4)
    return {
        "probes": len(probes),
        "median_s": median,
        "range_share": (max(probes) - min(probes)) / median,
        "iqr_share": (q3 - q1) / median,
    }


def job_record(run) -> dict:
    return {
        "job": run.index,
        "argv": run.result.argv,
        "exit_code": run.result.exit_code,
        "failure": run.failure,
        "raw_s": run.result.raw_s,
        "probe_before_s": run.probe_before_s,
        "probe_after_s": run.probe_after_s,
        "ref_s": run.ref_s,
        "maxrss_kb": run.result.maxrss_kb,
        "bytes_out": run.bytes_out,
    }


def percentile_band(values: list[float], p: float) -> float:
    """Mean of the values ranked between the (p - 0.05) and (p + 0.05)
    quantiles, p a fraction: the tenth of the values around quantile p.

    Job times cluster, with gaps between clusters; a plain order statistic
    that falls near a gap jumps across it from run to run, while the mean
    of the tenth of jobs around it moves only as far as those jobs do.
    """
    ranked = sorted(values)
    lo = round((p - 0.05) * len(ranked))
    hi = round((p + 0.05) * len(ranked))
    return statistics.fmean(ranked[lo:hi])


def end_to_end(jobs, timed, setup) -> dict:
    medians = per_job_medians(timed, len(jobs))
    return {
        "run_s": sum(medians),
        "job_p50_s": percentile_band(medians, 0.5),
        "job_p90_s": percentile_band(medians, 0.9),
        "setup_s": statistics.median(launch["ref_s"] for launch in setup),
        "peak_rss_mb": max(run.result.maxrss_kb for run in timed) / 1024,
    }


COUNTERS = (
    "exact.poly_mul.calls",
    "exact.elim.calls",
    "forests.labeled_forests",
    "forests.nfs.calls",
    "geometry.contains.calls",
    "geometry.cells_built",
    "volumes.closed_form.calls",
    "faces.faces_found",
    "verify.jobs",
    "verify.samples_accepted",
    "verify.samples_discarded",
    "verify.graphs_swept",
)


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics of a traced pass; self times in reference seconds."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counts = dict.fromkeys(COUNTERS, 0)
    for run in traced:
        summary = run.result.trace
        for layer in LAYERS:
            self_s[layer] += summary["self_ns"][layer] / 1e9 * run.factor
            calls[layer] += summary["calls"][layer]
        for key, value in summary["counts"].items():
            counts[key] += value
    metrics = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
    # verify and cli report jobs and bytes instead of wrapped-call counts.
    metrics.update({f"{layer}.calls": (calls[layer], "count") for layer in LAYERS if layer not in ("verify", "cli")})
    metrics.update({key: (value, "count") for key, value in counts.items()})
    drawn = counts["verify.samples_accepted"] + counts["verify.samples_discarded"]
    metrics["verify.sample_accept_ratio"] = (counts["verify.samples_accepted"] / drawn if drawn else 0.0, "ratio")
    metrics["cli.bytes_out"] = (sum(run.bytes_out for run in traced), "B")
    overhead = sum(run.ref_s for run in traced) - sum(run.ref_s for run in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def write_spans(path: str, trace_dir: str, count: int) -> None:
    """Concatenate the per-job span files of a traced pass, in job order,
    into one gzipped JSON-lines file: each line holds a job's argv, its
    span names and its spans as [name_id, start_ns, end_ns, parent]."""
    with open(path, "wb") as out:
        for index in range(count):
            part = os.path.join(trace_dir, f"trace-{index}.json.spans.gz")
            with open(part, "rb") as handle:
                shutil.copyfileobj(handle, out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    os.makedirs(OUT, exist_ok=True)
    jobs = jobs_for(args.workload, args.seed, nproc())
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine(),
        "probe_reference_s": PROBE_REFERENCE_S,
        "job_count": len(jobs),
    }

    if args.trace:
        untraced = run_jobs(jobs, None)
        trace_dir = tempfile.mkdtemp(prefix="trace-", dir=OUT)
        try:
            traced = run_jobs(jobs, None, trace_dir=trace_dir)
            metrics = per_layer(untraced, traced) if all(r.result.trace for r in traced) else {}
            if metrics:
                write_spans(stem + "-spans.jsonl.gz", trace_dir, len(traced))
        finally:
            shutil.rmtree(trace_dir)
        timed = untraced + traced
        record["probe_spread"] = {"untraced": probe_spread(untraced), "traced": probe_spread(traced)}
    else:
        setup = measure_setup(SRC, SETUP_LAUNCHES)
        timed = run_jobs(jobs, args.seconds)
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in end_to_end(jobs, timed, setup).items()}
        record["setup_launches"] = setup
        record["probe_spread"] = probe_spread(timed)

    failed = sum(1 for run in timed if run.failure)
    error_rate = failed / len(timed)
    record["jobs"] = [job_record(run) for run in timed]
    record["error_rate"] = error_rate
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for run in timed:
        if run.failure:
            print(f"FAILED {' '.join(run.result.argv)}: {run.failure}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs in the list, {len(timed)} run")
    print(f"# probe spread: {json.dumps(record['probe_spread'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(f"{'error_rate':32s} {error_rate:>16.6g} ratio")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(timed),
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
