"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import checks  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _qt_draws(jobs):
    return {(job[job.index("--q") + 1], job[job.index("--t") + 1]) for job in jobs if "--q" in job}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_a_pure_function_of_the_seed(workload):
    first = workloads.jobs_for(workload, 7, nproc=2)
    assert first == workloads.jobs_for(workload, 7, nproc=2)
    assert len(first) >= 100
    assert all(job[0] in checks.CHECKS for job in first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_draw_different_parameters(workload):
    draws = [_qt_draws(workloads.jobs_for(workload, seed, nproc=2)) for seed in range(1, 6)]
    assert len({frozenset(d) for d in draws}) == 5


def test_parameter_draws_stay_in_the_domain():
    import random

    rng = random.Random(0)
    for size in ("small", "large") * 200:
        q, t = (checks.Fraction(x) for x in workloads.draw_qt(rng, size))
        assert 0 < q < 1 and 0 < t <= 4


@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_jobs_flag_never_exceeds_nproc(cpus):
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs_for(workload, 3, nproc=cpus):
            if "--jobs" in job:
                assert 1 <= int(job[job.index("--jobs") + 1]) <= cpus


# ----------------------------------------------------------------------
# Output checks reject tampered outputs
# ----------------------------------------------------------------------


def _run(argv):
    result = runner.run_job(argv)
    assert result.exit_code == 0, result.stderr
    assert checks.check(argv, result.stdout) is None
    return result.stdout.decode()


def _bump_first_coefficient(terms):
    terms[0][2] = str(checks.Fraction(terms[0][2]) + 1)


def _tamper_json(edit):
    def tamper(text):
        payload = json.loads(text)
        edit(payload)
        return json.dumps(payload)

    return tamper


TAMPERS = [
    (["zpoly", "--n", "4"], _tamper_json(lambda p: _bump_first_coefficient(p["polynomial"]))),
    (["zpoly", "--n", "4"], _tamper_json(lambda p: p["polynomial"][0].__setitem__(0, 1))),
    (["zpoly", "--n", "4", "--format", "text"], lambda text: text.replace("q^3", "2*q^3")),
    (["recursion", "--n", "5", "--mode", "both"], _tamper_json(lambda p: _bump_first_coefficient(p["bruteforce"]))),
    (["recursion", "--n", "5", "--mode", "recursion"], _tamper_json(lambda p: p["recursion"].pop())),
    (["volume", "--family", "tutte", "--n", "3", "--symbolic"], _tamper_json(lambda p: p.__setitem__("agree", False))),
    (
        ["volume", "--family", "cayley", "--n", "3", "--symbolic"],
        _tamper_json(lambda p: [_bump_first_coefficient(p[k]) for k in ("polynomial", "by_closed_form", "by_pieces")]),
    ),
    # f_1 one up and f_3 one down: the Euler relation still holds.
    (["fvector", "--n", "4"], _tamper_json(lambda p: p.update(f=[p["f"][0], p["f"][1] + 1, p["f"][2], p["f"][3] - 1]))),
    (["fvector", "--n", "4"], _tamper_json(lambda p: p.update(f=[p["f"][0], p["f"][1], p["f"][2] + 1, p["f"][3] + 1]))),
    (["fvector", "--n", "4"], _tamper_json(lambda p: p["f"].__setitem__(0, p["f"][0] + 2))),
    (["simplices", "--family", "tutte", "--n", "3"], _tamper_json(lambda p: p["simplices"].pop())),
    (["simplices", "--family", "cayley", "--n", "3"], _tamper_json(lambda p: p["simplices"][0]["vertices"].pop())),
    (["pieces", "--family", "tgayley", "--n", "3"], _tamper_json(lambda p: p.__setitem__("count", p["count"] + 1))),
    (["vertices", "--family", "tutte", "--n", "3"], _tamper_json(lambda p: p["points"].__setitem__(1, p["points"][0]))),
    (["cayley1857", "--n", "4"], _tamper_json(lambda p: p.update(lattice_points=p["lattice_points"] + 1, partitions=p["partitions"] + 1))),
    (
        ["verify", "--check", "triangulation", "--family", "tutte", "--n", "2", "--samples", "20"],
        _tamper_json(lambda p: p["jobs"][0]["checks"]["sampling"].__setitem__("samples", 19)),
    ),
    (
        ["verify", "--check", "subdivision", "--family", "gayley", "--n", "2", "--samples", "20"],
        _tamper_json(lambda p: p.__setitem__("passed", False)),
    ),
    (["verify", "--check", "fiber", "--n", "3"], _tamper_json(lambda p: p["jobs"][0]["checks"]["graphs_swept"].__setitem__("got", 63))),
    (["verify", "--check", "refinement", "--family", "tutte", "--n", "2"], lambda text: text[: len(text) // 2]),
]


@pytest.mark.parametrize("argv,tamper", TAMPERS, ids=[" ".join(a) for a, _ in TAMPERS])
def test_every_check_rejects_a_tampered_output(argv, tamper):
    tampered = tamper(_run(argv))
    assert checks.check(argv, tampered.encode()) is not None


def test_every_command_of_the_workloads_has_a_tamper_test():
    assert set(checks.CHECKS) == {argv[0] for argv, _ in TAMPERS}


def test_percentile_band_averages_the_tenth_around_the_percentile():
    import run

    values = list(range(100, 0, -1))
    assert run.percentile_band(values, 0.5) == statistics.fmean(range(46, 56))
    assert run.percentile_band(values, 0.9) == statistics.fmean(range(86, 96))


def test_stdlib_counts():
    assert [checks.labeled_forests(n) for n in range(1, 8)] == [1, 2, 7, 38, 291, 2932, 36961]
    assert [checks.connected_graphs(n) for n in range(1, 6)] == [1, 1, 4, 38, 728]
    assert checks.poly_from_text("3*t^2 + t^3 + 3*q*t + q^2") == {(0, 2): 3, (0, 3): 1, (1, 1): 3, (2, 0): 1}


# ----------------------------------------------------------------------
# Runner: the parent never runs a job; the tracer's counts repeat
# ----------------------------------------------------------------------


def test_parent_never_runs_a_job(monkeypatch):
    from cayleypoly import cli, forests

    calls = []
    real_main = cli.main
    # Appends happen in the forked children, so the parent's list stays
    # empty unless the parent itself runs a job.
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(os.getpid()) or real_main(argv))
    jobs = [["pieces", "--family", "tutte", "--n", "3"]] * 2 + [["zpoly", "--n", "3"]]
    timed = runner.run_jobs(jobs, None)
    assert [run.failure for run in timed] == [None] * 3
    assert calls == []
    assert forests._plane_trees.cache_info().currsize == 0


def test_failed_job_is_reported():
    timed = runner.run_jobs([["zpoly", "--n", "99"]], None)
    assert timed[0].result.exit_code != 0 and timed[0].failure


def test_job_over_its_time_limit_is_killed(monkeypatch):
    monkeypatch.setattr(runner, "JOB_TIMEOUT_S", 0.05)
    result = runner.run_job(["zpoly", "--n", "7", "--jobs", "2"])
    assert result.exit_code == -9 and result.raw_s < 5


TRACED_JOBS = [
    ["verify", "--check", "triangulation", "--family", "tutte", "--n", "2", "--samples", "30"],
    ["volume", "--family", "gayley", "--n", "3", "--symbolic"],
    ["fvector", "--n", "3"],
    ["simplices", "--family", "tcayley", "--n", "2"],
]

TRACED_COUNTS = """
import json, sys, tempfile
sys.path[:0] = sys.argv[1:3]
import runner
jobs = json.loads(sys.argv[3])
with tempfile.TemporaryDirectory() as trace_dir:
    timed = runner.run_jobs(jobs, None, trace_dir=trace_dir)
assert all(run.failure is None for run in timed), [run.failure for run in timed]
print(json.dumps([[run.result.trace["calls"], run.result.trace["counts"]] for run in timed]))
"""


def test_traced_counts_repeat_exactly_across_interpreters():
    """Two fresh interpreters with different string-hash seeds, as two
    traced benchmark runs would be."""
    src = os.path.join(os.path.dirname(HERE), "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", TRACED_COUNTS, HERE, src, json.dumps(TRACED_JOBS)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    layers_seen = {layer for calls, _ in outputs[0] for layer, n in calls.items() if n}
    assert layers_seen == set(LAYERS)


def _in_child(body):
    """Run `body` in a forked child, so the tracer it installs dies with it."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            body()
            code = 0
        except BaseException:
            import traceback

            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def _folds_and_rebinds():
    tracer = Tracer()
    tracer.install()
    from cayleypoly import geometry, verify

    # verify imported simplex_for_forest by name: it must be the wrapper.
    assert verify.simplex_for_forest is geometry.simplex_for_forest
    assert hasattr(verify.simplex_for_forest, "__wrapped__")
    verify.verify_refinement("tutte", 2, 1, 1)
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names[0] == "verify.verify_refinement"
    assert "geometry.simplex_for_forest" in names
    # Same-layer calls fold: no span's parent belongs to its own layer.
    for name_id, _, _, parent in tracer.spans:
        if parent >= 0:
            parent_layer = tracer.names[tracer.spans[parent][0]].split(".")[0]
            assert parent_layer != tracer.names[name_id].split(".")[0]
    total = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(tracer.layer_self_ns().values()) == total


def test_tracer_folds_same_layer_calls_and_rebinds_imports():
    _in_child(_folds_and_rebinds)
