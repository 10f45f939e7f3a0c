"""Closed-loop job runner with one client and host-normalised timings.

The parent imports cayleypoly but never runs a job.  Each job runs in a
freshly forked child, so it starts with the cold caches a CLI user gets
(an in-process loop would credit memo caches such as
`forests._plane_trees` that no CLI call ever sees warm).

Between jobs the parent runs a fixed stdlib calibration probe.  A job's
time, taken inside the child around `cli.main`, in reference seconds is

    raw seconds * PROBE_REFERENCE_S / mean(probe before, probe after)

so a host that runs the probe slower, through contention or a slower CPU,
has its job times scaled down by the same factor.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from checks import check

# The probe's time on an idle 2-vCPU Intel Xeon sandbox (Python 3.11.7):
# one reference second is what a second of work there would take.
PROBE_REFERENCE_S = 0.002
PROBE_FRACTIONS = 500
PROBE_INTS = 2000
PROBE_REPEATS = 3


def probe() -> float:
    """Seconds for a fixed Fraction loop plus a fixed int loop: the median
    of a few repeats after one warm-up, with the collector off.

    The warm-up pays the copy-on-write faults the parent takes after each
    fork; the median keeps the host's current speed, slow phases included.
    """
    times = []
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS + 1):
            start = time.perf_counter()
            acc = 0
            for i in range(1, PROBE_FRACTIONS + 1):
                acc += (Fraction(i, 7) + Fraction(3, i + 2)).numerator & 7
            state = acc
            for _ in range(PROBE_INTS):
                state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times[1:])


@dataclass
class JobResult:
    argv: list
    exit_code: int
    stdout: bytes
    stderr: bytes
    raw_s: float  # seconds in cli.main, timed by the child
    maxrss_kb: int
    trace: dict | None = None


# A job still running after this long is killed, with its process group,
# and counted as failed.
JOB_TIMEOUT_S = 60.0


def run_job(argv: list, trace_path: str | None = None) -> JobResult:
    """Run `cayleypoly <argv>` in a forked child.

    The child times `cli.main` itself, output flush included, and reports
    the seconds through a pipe: fork and reap are the benchmark's cost, not
    the program's (a CLI user pays interpreter start-up instead, measured
    as setup_s), and under host load they slow far more than the program.

    With `trace_path`, the child installs the tracer, writes its summary
    there as JSON and its spans to `trace_path + ".spans.gz"` as one
    gzipped JSON line.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    time_r, time_w = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        _child(argv, (out_r, err_r, time_r), out_w, err_w, time_w, trace_path)
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.setpgid(pid, pid)
    os.close(out_w)
    os.close(err_w)
    os.close(time_w)
    chunks = {out_r: [], err_r: [], time_r: []}
    deadline = start + JOB_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(None if deadline is None else max(0.0, deadline - time.perf_counter()))
            if not ready:
                # The child leads its own process group, which holds any
                # pool workers it started.
                os.killpg(pid, signal.SIGKILL)
                deadline = None
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
                    os.close(key.fd)
    _, status, usage = os.wait4(pid, 0)
    main_s = b"".join(chunks[time_r])
    result = JobResult(
        argv=argv,
        exit_code=os.waitstatus_to_exitcode(status),
        stdout=b"".join(chunks[out_r]),
        stderr=b"".join(chunks[err_r]),
        raw_s=float(main_s) if main_s else time.perf_counter() - start,
        maxrss_kb=usage.ru_maxrss,
    )
    if trace_path is not None and result.exit_code == 0:
        with open(trace_path, encoding="utf-8") as handle:
            result.trace = json.load(handle)
        os.remove(trace_path)
    return result


def _child(argv, parent_ends, out_w, err_w, time_w, trace_path) -> None:
    """Body of the forked job child; never returns."""
    code = 1
    try:
        os.setpgid(0, 0)
        for fd in parent_ends:
            os.close(fd)
        os.dup2(out_w, 1)
        os.dup2(err_w, 2)
        os.close(out_w)
        os.close(err_w)
        # Fresh streams on fds 1 and 2: block-buffered like a CLI's piped
        # stdout, and free of whatever object the parent had bound there.
        sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
        sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
        tracer = None
        if trace_path is not None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        from cayleypoly import cli

        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        os.write(time_w, repr(time.perf_counter() - start).encode())
        os.close(time_w)
        if tracer is not None:
            spans = {"argv": argv, "names": tracer.names, "spans": tracer.spans}
            with gzip.open(trace_path + ".spans.gz", "wt", encoding="utf-8", compresslevel=1) as handle:
                handle.write(json.dumps(spans, separators=(",", ":")) + "\n")
            with open(trace_path, "w", encoding="utf-8") as handle:
                json.dump(tracer.summary(), handle)
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


@dataclass
class Timed:
    """One job run with its calibration record."""

    index: int
    result: JobResult
    probe_before_s: float
    probe_after_s: float
    failure: str | None
    bytes_out: int

    @property
    def factor(self) -> float:
        return PROBE_REFERENCE_S / ((self.probe_before_s + self.probe_after_s) / 2)

    @property
    def ref_s(self) -> float:
        return self.result.raw_s * self.factor


# A job shorter than this runs again, back to back, up to MAX_REPEATS
# times in a pass: short jobs are cheap to repeat and the noisiest.
MIN_JOB_S = 0.02
MAX_REPEATS = 3


def run_jobs(jobs: list, seconds: float | None, trace_dir: str | None = None) -> list[Timed]:
    """Run the job list in order, one job at a time, with a probe between
    jobs.  With `seconds`, keep cycling through the list until that many
    seconds have passed, but always finish the first pass; without it
    (the traced runs), run exactly one pass and each job once."""
    timed: list[Timed] = []
    start = time.perf_counter()
    before = probe()
    index = 0
    while index < len(jobs) or (seconds is not None and time.perf_counter() - start < seconds):
        job_index = index % len(jobs)
        argv = jobs[job_index]
        spent = 0.0
        for repeat in range(MAX_REPEATS if seconds is not None else 1):
            if repeat and spent >= MIN_JOB_S:
                break
            trace_path = None if trace_dir is None else os.path.join(trace_dir, f"trace-{index}.json")
            result = run_job(argv, trace_path)
            after = probe()
            if result.exit_code != 0:
                failure = f"exit code {result.exit_code}: {result.stderr.decode(errors='replace')[-500:]}"
            else:
                failure = check(argv, result.stdout)
            # The output is checked; keeping it would grow the parent, and
            # with it the RSS of every later child.
            bytes_out = len(result.stdout)
            result.stdout = result.stderr = b""
            timed.append(Timed(job_index, result, before, after, failure, bytes_out))
            before = after
            spent += result.raw_s
        index += 1
    return timed


SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import cayleypoly.cli\n"
    "cayleypoly.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)


def measure_setup(src: str, launches: int) -> list[dict]:
    """Fresh-interpreter `import cayleypoly.cli` plus `build_parser()`.

    One untimed launch first writes the bytecode caches, so every timed
    launch reads them as a user's second call would.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-s", "-c", SETUP_CODE, src]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
    records = []
    before = probe()
    for _ in range(launches):
        done = subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
        after = probe()
        raw = float(done.stdout)
        ref = raw * PROBE_REFERENCE_S / ((before + after) / 2)
        records.append({"raw_s": raw, "probe_before_s": before, "probe_after_s": after, "ref_s": ref})
        before = after
    return records
