"""Command-line interface: outputs, formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleypoly import cli, geometry, verify, volumes
from cayleypoly.cli import main
from cayleypoly.faces import FVECTOR_MAX_N, VERTICES_MAX_N, InconsistentGeometryError
from cayleypoly.geometry import MAX_DIMENSION, Family, HRep, build_hrep
from cayleypoly.volumes import DegenerateSimplexError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cayley1857(capsys):
    code, out = run_cli(capsys, "cayley1857", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "lattice_points": 26, "partitions": 26}


def test_fvector_format(capsys):
    code, out = run_cli(capsys, "fvector", "--n", "3", "--q", "1/2", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "q": "1/2", "t": "1", "f": [8, 13, 7]}


def test_volume_symbolic_matches_zpoly(capsys):
    code, vol_out = run_cli(capsys, "volume", "--family", "tutte", "--n", "3", "--symbolic")
    assert code == 0
    code, z_out = run_cli(capsys, "zpoly", "--n", "4")
    assert code == 0
    vol = json.loads(vol_out)
    z = json.loads(z_out)
    assert vol["agree"] is True
    assert vol["polynomial"] == z["polynomial"]


def test_hrep_text_round_trip(capsys):
    code, out = run_cli(
        capsys, "hrep", "--family", "tutte", "--n", "3", "--q", "1/2", "--t", "1", "--format", "text"
    )
    assert code == 0
    hrep = HRep.from_text(out)
    assert hrep.dimension == 3
    assert len(hrep.inequalities) == 7


def test_simplices_count(capsys):
    code, out = run_cli(capsys, "simplices", "--family", "cayley", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 3  # labeled trees on three nodes
    assert len(payload["simplices"]) == 3


def test_pieces_count(capsys):
    code, out = run_cli(capsys, "pieces", "--family", "tutte", "--n", "2", "--q", "1/2", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 5


def test_vertices_tutte(capsys):
    code, out = run_cli(capsys, "vertices", "--family", "tutte", "--n", "2", "--q", "1/2", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert ["1/2", "1/2"] in payload["points"]


def test_recursion_agreement(capsys):
    code, out = run_cli(capsys, "recursion", "--n", "5", "--mode", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True


def test_byte_identical_reruns(capsys):
    _, first = run_cli(capsys, "volume", "--family", "gayley", "--n", "2")
    _, second = run_cli(capsys, "volume", "--family", "gayley", "--n", "2")
    assert first == second


_DRAW = ("--q", "37/101", "--t", "53/17")


@pytest.mark.parametrize(
    "argv",
    [("zpoly", "--n", "3")]
    + [
        (command, "--family", "tutte", "--n", "3", *_DRAW, "--format", fmt)
        for command in ("simplices", "pieces")
        for fmt in ("json", "text")
    ],
)
def test_output_file(tmp_path, capsys, argv):
    _, stdout = run_cli(capsys, *argv)
    target = tmp_path / "out"
    code, out = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out) == (0, "")
    assert target.read_bytes() == stdout.encode("utf-8")


_CELL_COMMANDS = [
    (command, family, fmt)
    for command in ("simplices", "pieces", "hrep")
    for family in ("tutte", "cayley")
    for fmt in ("json", "text")
]


def _failed_call(capsys, tmp_path, argv):
    """Exit code and stderr of argv, run once to stdout and once to
    --output; checks that neither run wrote a byte."""
    target = tmp_path / "out"
    results = []
    for extra in ([], ["--output", str(target)]):
        code = main([*argv, *extra])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not target.exists()
        results.append((code, captured.err))
    assert results[0] == results[1]
    return results[0]


@pytest.mark.parametrize("command,family,fmt", _CELL_COMMANDS)
def test_cell_commands_check_everything_before_the_first_byte(capsys, tmp_path, command, family, fmt):
    # A bad parameter or a size over the cap exits 3 with nothing written
    # and no --output file created: the cells stream only after every check.
    base = [command, "--family", family, "--format", fmt]
    over = {"simplices": "8", "pieces": "12", "hrep": str(MAX_DIMENSION + 1)}[command]
    code, err = _failed_call(capsys, tmp_path, [*base, "--n", over])
    assert code == 3 and err.count("\n") == 1
    if family == "tutte":
        code, err = _failed_call(capsys, tmp_path, [*base, "--n", "2", "--q", "2"])
        assert (code, err) == (3, "parameter domain violation: q must lie in (0, 1], got 2\n")


@pytest.mark.parametrize("command,family,fmt", _CELL_COMMANDS)
def test_cell_commands_unwritable_output(capsys, tmp_path, command, family, fmt):
    target = tmp_path / "missing" / "out"
    code = main([command, "--family", family, "--n", "3", "--format", fmt, "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("shift", [1, -1])
@pytest.mark.parametrize("command,family,fmt", [c for c in _CELL_COMMANDS if c[0] != "hrep"])
def test_cell_count_mismatch_is_a_broken_invariant(monkeypatch, capsys, command, family, fmt, shift):
    # The count is written before the cells; one other than the number of
    # cells written exits 1 after the last cell, before the JSON closes.
    argv = [command, "--family", family, "--n", "3", "--format", fmt]
    code, good = run_cli(capsys, *argv)
    assert code == 0
    counts = Family.cell_counts
    monkeypatch.setattr(Family, "cell_counts", lambda self, n: tuple(c + shift for c in counts(self, n)))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    count = counts(geometry.get_family(family), 3)[command == "pieces"]
    assert captured.err == (
        f"internal invariant broken: {count} {command} written, Family.cell_counts gives {count + shift}\n"
    )
    if fmt == "text":
        assert captured.out == good
    else:
        tail = "\n  ]\n}\n"
        assert good.endswith(tail)
        expected = good[: -len(tail)].replace(f'"count": {count},', f'"count": {count + shift},', 1)
        assert captured.out == expected


# Linux carries the peak of the process that started an exec'd child into
# the child's ru_maxrss, so the call runs in a fork of this small child,
# whose ru_maxrss is then its own.
_RSS_CHILD = """\
import os, resource, sys
pid = os.fork()
if pid == 0:
    from cayleypoly.cli import main
    code = main(sys.argv[1:])
    sys.stdout.flush()
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr, flush=True)
    os._exit(0)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

# Peak resident memory allowed to the largest cell outputs, in MB; an
# interpreter with the package imported takes about 17 MB.
_RSS_BOUND_MB = 30


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("command,n", [("simplices", "6"), ("pieces", "9")])
def test_cell_commands_stream_in_bounded_memory(command, n, fmt):
    # simplices --n 6 writes 36961 simplices (31 MB of JSON) and pieces
    # --n 9 16796 pieces (48 MB); each is written as it is built.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, command, "--family", "tutte", "--n", n, "--format", fmt],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=300, check=True,
    )
    code, kib = map(int, done.stderr.split())
    assert code == 0
    assert kib / 1024 <= _RSS_BOUND_MB


# sha256 of stdout at the sizes the structure benchmark runs, at
# (q, t) = (1/2, 1/3); the golden file stops at simplices --n 4 and
# pieces --n 5.
_BENCHMARKED_SHA256 = {
    ("simplices", "cayley", "json"): "35edfca1bf979aa365a3ffa934ab40a3887ee0f93fa859c1fe9b71a95089dffc",
    ("simplices", "gayley", "json"): "cd321d1a4eed97c55b8f6f8d14bce07d3bb5d2c90c61977fb78a69a9f6331288",
    ("simplices", "tcayley", "json"): "589027adfe68be61b268ea015a898203bdc37f08d519b0bbb0e7b93e0041d7bb",
    ("simplices", "tgayley", "json"): "54d2030d6ec0a106b55e978f765868d70d7b003a75a313b5a2d53b24a88c4359",
    ("simplices", "tutte", "json"): "3617ef26465eec117c67558ee8fb5376f6902ef5a6fc2914787b22e9f7705259",
    ("simplices", "tutte", "text"): "97914175d887e1adf827c126e93c71919f0bc02a2934110519fbd3b95c97664a",
    ("pieces", "cayley", "json"): "4f969931887464618fe51d685ffd269f33b060819ada35b08b4e5fe7777d3d72",
    ("pieces", "gayley", "json"): "c30285c2505c280948b69d3b793bbca50efb5454955a7f925fdd3a08397858cb",
    ("pieces", "tcayley", "json"): "a1cfc96a14381bbd2cbb396128619322021911f8672a633d9c4ba3821b7c8a10",
    ("pieces", "tgayley", "json"): "4d048ea99ebb4eae66cce7bd5669fc28c23b8010ac66553e242a115e3b50f3fa",
    ("pieces", "tutte", "json"): "e02e7873f253bafa107866a5caa4713fb1e5272f4bf91b9478e724388c6e7d64",
    ("pieces", "tutte", "text"): "e7c9aed5e5bbb821124fd48e5746154f520e769e4338b10a5a39e5cba93ac5d6",
}


@pytest.mark.parametrize("key", sorted(_BENCHMARKED_SHA256))
def test_benchmarked_sizes_keep_their_bytes(capsys, key):
    command, family, fmt = key
    n = "5" if command == "simplices" else "6"
    code, out = run_cli(capsys, command, "--family", family, "--n", n, "--q", "1/2", "--t", "1/3", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _BENCHMARKED_SHA256[key]


# sha256 of stdout of `volume --n 5` at (q, t) = (1/2, 1/3), the size the
# symbolic benchmark runs; the golden file stops at n = 3.  None marks the
# determinant pass, run for tutte only.
_VOLUME_SHA256 = {
    ("cayley", "--symbolic"): "f12c9dfcac54c2d8676ec4889112156f1cdb5404188f41218dcede91d0007dc9",
    ("gayley", "--symbolic"): "85d5a88f73ff65a5f56a2558d6316f7cba2488e4a054ff944bc11788e7465f1b",
    ("tcayley", "--symbolic"): "f02381e87ac427ec0ae2f960fa9d0ec1146330eacaa95aebe8ab1b30d0d31479",
    ("tgayley", "--symbolic"): "1fd0a999a8249217c0bcf469381554cb6d2cbdf8a81bc65db42ab00366365d29",
    ("tutte", "--symbolic"): "7784975ecdbd109463f78382acb90db4710dc41900c27bf6d4b62de990571ec2",
    ("tutte", None): "29accb030a046c13bb10fb65e451571b6735541914f50479e430b9d884b270b1",
}


@pytest.mark.parametrize("key", sorted(_VOLUME_SHA256, key=str))
def test_volume_n5_keeps_its_bytes(capsys, key):
    family, flag = key
    argv = ["volume", "--family", family, "--n", "5", "--q", "1/2", "--t", "1/3"]
    code, out = run_cli(capsys, *argv, *([flag] if flag else []))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _VOLUME_SHA256[key]


# sha256 of stdout of `recursion --n 30 --mode recursion`, the largest size
# the recursion allows; the golden file stops at n = 20.
_RECURSION_N30_SHA256 = "c261f7bd3384c671eb0d04ecd84e93a94971e05f60b5d408a0ea1a00de219065"


def test_recursion_n30_keeps_its_bytes(capsys):
    code, out = run_cli(capsys, "recursion", "--n", "30", "--mode", "recursion")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _RECURSION_N30_SHA256


_WRITER_CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": (), "d": [[], {}, (), [[]], ({},)]},
    ["plain", "é ü", "\u2028 \U0001f600", "\x00\x1f\x7f", 'q"b\\s', "\ud800", ""],
    {"é": 1, '"\\': 2, "\n\t": 3, "": 4, "b": 5, "B": 6},
    [True, False, None, 0, -5, 10**40, -(10**40)],
    {"a": ("x", "y"), "b": [("x", "y"), [("x", "y")]], "c": {"d": ("x", "y")}},
    [("1",), (1,), (True,), ("1", 1), ("1", True), ("1", None), ("1", [1]), ("1", ("1",))],
    ("x", ("x", "y"), ["x", ("x", "y")]),
]


def _json_text(obj) -> str:
    return "".join(cli._json_chunks(obj))


@pytest.mark.parametrize("obj", _WRITER_CASES)
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [1.5, [0.0], {"a": ("x", 2.5)}, ("x", 1.5), {1: "a"}, {"a": 1, 2: "b"}, b"x"])
def test_json_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


def test_json_writer_rejects_other_types_inside_iterators():
    # Built here, since an iterator is spent once read.
    for obj in [
        iter([1.5]),
        {"a": iter([("x", 2.5)])},
        [iter([]), {1: "a"}],
        ("x", iter([b"x"])),
        {"a": iter([]), 2: "b"},
        {"a": iter([]), "b": {3: "c"}},
        {"a": {}.keys()},
    ]:
        with pytest.raises(TypeError):
            _json_text(obj)


def _streamed(obj, choices):
    """obj with each list or tuple given as an iterator over the same
    items where the next draw from `choices` is true."""
    if isinstance(obj, dict):
        return {k: _streamed(v, choices) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        items = type(obj)(_streamed(x, choices) for x in obj)
        return iter(items) if next(choices) else items
    return obj


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.text(max_size=4)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.lists(st.text(max_size=3), min_size=1, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(obj=_JSON_VALUES, choices=st.lists(st.booleans(), min_size=1, max_size=40))
def test_json_writer_renders_iterators_as_lists(obj, choices):
    # The same payload gives the same bytes whether its lists are given as
    # lists or as iterators, at any depth.
    streamed = _streamed(obj, cycle(choices))
    assert _json_text(streamed) == _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_json_writer_pulls_one_item_per_piece():
    pulled = []

    def cells():
        for k in range(5):
            pulled.append(k)
            yield {"cell": k, "rows": [("1", "2")] * 3}

    chunks = cli._json_chunks({"count": 5, "cells": cells(), "family": "x"})
    head = next(chunks)
    assert pulled == [] and head.endswith('"cells": ')
    for k in range(5):
        next(chunks)
        assert pulled == list(range(k + 1))


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code = main(["zpoly", "--n", "3", "--output", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


def test_domain_violation_exit_code(capsys):
    code = main(["hrep", "--family", "tutte", "--n", "2", "--q", "2", "--t", "1"])
    assert code == 3


def test_decimal_rational_rejected(capsys):
    for argv in (
        ["hrep", "--family", "tutte", "--n", "2", "--q", "0.5", "--t", "1"],
        ["hrep", "--family", "tutte", "--n", "2", "--q", "1/0"],
        ["hrep", "--family", "tutte", "--n", "2", "--t", "3/0"],
        ["fvector", "--n", "3", "--q", "0/0"],
        # Digits other than ASCII 0-9.
        ["hrep", "--family", "tutte", "--n", "1", "--q", "\u0663/4", "--t", "1"],
        ["hrep", "--family", "tutte", "--n", "1", "--q", "\uff11/2"],
        ["hrep", "--family", "tutte", "--n", "1", "--t", "1/\uff12"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


def test_volume_has_no_format_flag():
    # volume always prints JSON; a --format flag it ignored is gone.
    with pytest.raises(SystemExit) as info:
        main(["volume", "--family", "tutte", "--n", "2", "--format", "text"])
    assert info.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_verify_cli_small(capsys):
    code, out = run_cli(
        capsys,
        "verify",
        "--check", "triangulation",
        "--family", "tutte",
        "--n", "2",
        "--samples", "150",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["jobs"][0]["kind"] == "triangulation"


def test_verify_cli_fiber(capsys):
    code, out = run_cli(capsys, "verify", "--check", "fiber", "--n", "3")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_cli_all_flag(capsys):
    code, out = run_cli(capsys, "verify", "--all", "--nmax", "1", "--samples", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    kinds = {job["kind"] for job in payload["jobs"]}
    assert {"triangulation", "subdivision", "refinement", "specializations", "fiber"} <= kinds


@pytest.mark.parametrize("argv", [["--all"], ["--check", "all"], []])
def test_verify_all_rejects_n(monkeypatch, capsys, argv):
    # The sweep runs n = 1..--nmax; an --n beside it (even one above the
    # size cap) is a usage error, not silently ignored.
    def ran(*args, **kwargs):
        raise AssertionError("plan ran")

    monkeypatch.setattr(cli, "plan", ran)
    with pytest.raises(SystemExit) as info:
        main(["verify", *argv, "--n", "9", "--nmax", "1"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n does not combine with --check all" in captured.err


@pytest.mark.parametrize("nmax,nodes", [(1, 2), (4, 5), (5, 6), (9, 6)])
def test_verify_fiber_without_n_runs_one_clamped_job(monkeypatch, capsys, nmax, nodes):
    # Without --n the fiber check is one job at n = min(--nmax,
    # FIBER_SWEEP_MAX_N), on n + 1 nodes; the job is looked up in verify.
    swept = []

    def fiber(node_count):
        swept.append(node_count)
        return verify.VerificationReport("fiber", None, node_count - 1, None, None, None)

    monkeypatch.setattr(verify, "verify_fiber", fiber)
    code, out = run_cli(capsys, "verify", "--check", "fiber", "--nmax", str(nmax))
    assert code == 0
    assert swept == [nodes]
    assert [job["n"] for job in json.loads(out)["jobs"]] == [nodes - 1]


def test_verify_check_choices_are_the_job_table():
    # The --check choices, and so the verify --help text, follow the job
    # table's order, with "all" last.
    (command,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    (check,) = [a for a in command.choices["verify"]._actions if a.dest == "check"]
    assert list(check.choices) == [*verify.CHECKS, "all"] == [
        "triangulation", "subdivision", "refinement", "specializations", "pieces", "fiber", "all"
    ]


@pytest.mark.parametrize(
    "check", ["triangulation", "subdivision", "refinement", "specializations", "pieces", "fiber"]
)
def test_verify_n_zero_is_an_explicit_value(capsys, check):
    # n = 0 is given, not absent: the zero-dimensional polytope is outside
    # the domain, so the job is not silently replaced by the 1..nmax sweep.
    code = main(["verify", "--check", check, "--n", "0"])
    assert code == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("samples", ["0", "-4"])
@pytest.mark.parametrize("check", ["triangulation", "subdivision", "all"])
def test_verify_sampling_needs_a_sample(capsys, check, samples):
    # No sample would leave the partition certificate with nothing checked.
    # The "all" sweep takes --nmax only (an --n beside it is a usage error).
    n_flag = [] if check == "all" else ["--n", "2"]
    code = main(["verify", "--check", check, *n_flag, "--nmax", "1", "--samples", samples])
    assert code == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("nmax", ["0", "-3"])
@pytest.mark.parametrize("check", ["all", "triangulation", "refinement", "fiber"])
def test_verify_nmax_below_one_is_a_domain_error(capsys, check, nmax):
    # An empty 1..nmax sweep would pass with no job run.
    code = main(["verify", "--check", check, "--nmax", nmax])
    assert code == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "--family", "tutte", "--n", "3"],
        ["zpoly", "--n", "4"],
        ["recursion", "--n", "4"],
        ["verify", "--check", "fiber", "--n", "3"],
    ],
    ids=["volume", "zpoly", "recursion", "verify"],
)
def test_jobs_below_one_is_a_domain_error(capsys, argv, jobs):
    # Fewer than one worker is not a serial run: it is refused.
    code = main([*argv, "--jobs", jobs])
    assert code == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("command", ["hrep", "simplices", "pieces", "vertices", "fvector", "volume"])
def test_polytope_commands_reject_n_below_one(capsys, command, n):
    argv = [command, "--n", n] if command == "fvector" else [command, "--family", "tutte", "--n", n]
    code = main(argv)
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be >= 1" in captured.err


@pytest.mark.parametrize("error", [DegenerateSimplexError, InconsistentGeometryError])
def test_broken_invariant_exit_code(monkeypatch, capsys, error):
    def broken(args):
        raise error("witness of the broken invariant")

    help_line, add_arguments, _ = cli._COMMANDS["zpoly"]
    monkeypatch.setitem(cli._COMMANDS, "zpoly", (help_line, add_arguments, broken))
    code = main(["zpoly", "--n", "3"])
    assert code == 1
    assert "witness of the broken invariant" in capsys.readouterr().err


def test_fvector_size_cap(capsys):
    code = main(["fvector", "--n", "9"])
    assert code == 3
    assert "n <= 8" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["tutte", "cayley", "tcayley"])
def test_vertices_size_cap(capsys, family):
    # One above the cap: the check fires before any of the 2^n points is built.
    n = VERTICES_MAX_N + 1
    code = main(["vertices", "--family", family, "--n", str(n)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n <= {VERTICES_MAX_N}" in captured.err
    # fvector --n FVECTOR_MAX_N needs the vertex set of that size.
    assert VERTICES_MAX_N >= FVECTOR_MAX_N >= 8


@pytest.mark.parametrize(
    "argv",
    [
        ["hrep", "--family", "tutte", "--n"],
        ["hrep", "--family", "cayley", "--n"],
        ["vertices", "--family", "gayley", "--n"],
        ["vertices", "--family", "tgayley", "--n"],
    ],
)
def test_dimension_cap(monkeypatch, capsys, argv):
    # One above the cap exits 3 before any row or point is built; at the
    # cap the polytope is built.
    def built(*args, **kwargs):
        raise AssertionError("built before the size cap")

    monkeypatch.setattr(cli, "orthoscheme_vertices", built)
    monkeypatch.setattr(geometry, "family_parameters", built)
    code = main([*argv, str(MAX_DIMENSION + 1)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n <= {MAX_DIMENSION}" in captured.err
    monkeypatch.undo()
    if argv[0] == "vertices":
        code, out = run_cli(capsys, *argv, str(MAX_DIMENSION))
        assert code == 0 and json.loads(out)["count"] == MAX_DIMENSION + 1
    else:
        assert len(build_hrep(argv[2], MAX_DIMENSION).inequalities) > MAX_DIMENSION


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simplices", "--family", "tutte", "--n", "8"], "labeled forests need 1..8 nodes, got 9"),
        (["simplices", "--family", "cayley", "--n", "8"], "labeled forests need 1..8 nodes, got 9"),
        (["verify", "--check", "fiber", "--n", "7"], "fiber sweep needs 1..7 nodes, got 8"),
        (["pieces", "--family", "tutte", "--n", "12"], "plane forests need 1..12 nodes, got 13"),
        (["pieces", "--family", "cayley", "--n", "12"], "plane forests need 1..12 nodes, got 13"),
    ],
)
def test_forest_size_caps_count_nodes(capsys, argv, message):
    # --n is the dimension; the forests and the fiber sweep's graphs have n+1
    # nodes, so the largest valid --n is one below the node bound the message names.
    code = main(argv)
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("symbolic", [[], ["--symbolic"]])
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("family", ["tutte", "cayley"])
def test_volume_size_cap_precedes_enumeration(monkeypatch, capsys, family, n, symbolic):
    # The graph sweep runs over K_{n+1}, at most Z_MAX_NODES = 7 nodes; the
    # cap must fire before any cell or graph is enumerated.
    def enumerated(*args, **kwargs):
        raise AssertionError("enumerated before the size cap")

    monkeypatch.setattr(Family, "labeled_cells", enumerated)
    monkeypatch.setattr(Family, "plane_cells", enumerated)
    monkeypatch.setattr(volumes, "z_bruteforce", enumerated)
    code = main(["volume", "--family", family, "--n", str(n), *symbolic])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"volume needs n in 1..6 (graphs on n+1 nodes), got {n}" in captured.err


_VERIFY_JOBS = (
    "verify_triangulation",
    "verify_subdivision",
    "verify_refinement",
    "verify_specializations",
    "verify_piece_constructions",
    "verify_fiber",
)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--all", "--nmax", "6"], "full triangulation checks are desk scale: n <= 5"),
        (["--check", "triangulation", "--family", "tutte", "--nmax", "6", "--samples", "50"],
         "full triangulation checks are desk scale: n <= 5"),
        (["--check", "subdivision", "--nmax", "6"], "full subdivision checks are desk scale: n <= 5"),
        (["--check", "refinement", "--nmax", "6"], "refinement checks are desk scale: n <= 5"),
        (["--check", "specializations", "--nmax", "6"], "specialization checks are desk scale: n <= 5"),
        (["--check", "pieces", "--nmax", "5"], "piece construction cross-checks are desk scale: n <= 4"),
    ],
)
def test_verify_size_caps_precede_every_job(monkeypatch, capsys, argv, message):
    # A run over n = 1..nmax must fail on its cap before the first job,
    # not after the jobs below the cap have run.
    def ran(*args, **kwargs):
        raise AssertionError("a job ran before the size cap")

    for name in _VERIFY_JOBS:
        monkeypatch.setattr(verify, name, ran)
    code = main(["verify", *argv])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--all", "--nmax", "3", "--q", "1"], "q must lie strictly between 0 and 1"),
        (["--check", "specializations", "--q", "1"], "q must lie strictly between 0 and 1"),
        (["--check", "specializations", "--n", "2", "--q", "1"], "q must lie strictly between 0 and 1"),
        (["--all", "--nmax", "2", "--q", "2"], "q must lie in (0, 1], got 2"),
        (["--all", "--nmax", "2", "--q", "2", "--t", "0"], "t must be positive, got 0"),
    ],
)
def test_verify_specialization_parameters_precede_every_job(monkeypatch, capsys, argv, message):
    # The specialization job needs 0 < q < 1 and t > 0; a run with it is
    # refused before its first job, with the message the job would give.
    def ran(*args, **kwargs):
        raise AssertionError("a job ran before the parameter check")

    for name in _VERIFY_JOBS:
        monkeypatch.setattr(verify, name, ran)
    code = main(["verify", *argv])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parameter domain violation: {message}\n"


_PARSE_PATHS = [
    ["--help"],
    [],
    ["nosuch"],
    ["verify", "--help"],
    ["verify", "--foo", "1"],
    ["verify", "--n", "3", "--all"],
    ["hrep", "--family", "x", "--n", "1"],
    ["--", "verify", "--check", "fiber", "--n", "1"],
    ["zpoly", "--n", "3", "extra"],
]


def _outcome(capsys, call, argv):
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def _argparse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", _PARSE_PATHS)
def test_malformed_calls_keep_argparse_bytes(monkeypatch, capsys, argv):
    # Help, usage errors and bad values are left to argparse: main writes
    # its help, usage lines, errors and exit codes.  The one argv here
    # that parses plainly hits the --n/--check all conflict, whose usage
    # error main writes as it does after argparse has parsed.
    plain = cli._parse_plain(argv)
    got = _outcome(capsys, main, argv)
    if plain is None:
        assert got == _outcome(capsys, _argparse, argv)
    else:
        assert argv == ["verify", "--n", "3", "--all"]
        assert vars(plain) == vars(_argparse(argv))
        monkeypatch.setattr(cli, "_parse_plain", lambda argv: None)
        assert got == _outcome(capsys, main, argv)
        assert got[2] == 2


_ODD_VALUES = ["-3", "-1/2", "-", "", "1/0", "2.5", " 3", "+3", "3_0", "\u0663", "x"]
_ODD_TOKENS = [
    "nosuch", "--fam", "--form", "--sym", "--chec", "--nm", "--mo", "--out", "--h",
    "--n=3", "--family=tutte", "--q=1/2", "--check=all", "--format=text", "-h", "--help", "--",
]


def _fitting(kw):
    if "choices" in kw:
        return list(kw["choices"])
    return ["0", "1", "3"] if kw.get("type") is int else ["1", "1/2", "37/101"]


@st.composite
def _argvs(draw):
    # A command, known or not; its required flags, each now and then left
    # out; then up to six pieces: one of its flags (repeats allowed) with a
    # value that its type and choices accept or an odd one, or an odd token.
    command = draw(st.sampled_from([*cli._COMMANDS, "nosuch", "Verify", "verif", "-h", "--"]))
    flags = cli._Declarations(cli._COMMANDS[command][1]).flags if command in cli._COMMANDS else {}
    argv = [command]
    for flag, kw in flags.items():
        if kw.get("required") and draw(st.integers(0, 7)):
            argv += [flag, draw(st.sampled_from(_fitting(kw)))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 15))
        if not flags or kind == 0:
            argv.append(draw(st.sampled_from(_ODD_TOKENS + _ODD_VALUES)))
            continue
        flag = draw(st.sampled_from(sorted(flags)))
        argv.append(flag)
        if "action" in flags[flag] and kind > 1:
            continue
        argv.append(draw(st.sampled_from(_ODD_VALUES if kind == 1 else _fitting(flags[flag]))))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=_argvs())
def test_plain_parse_agrees_with_argparse(argv):
    plain = cli._parse_plain(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = _argparse(argv)
        except SystemExit:
            parsed = None
    if parsed is None:
        assert plain is None
    elif plain is not None:
        assert vars(plain) == vars(parsed)


# One well-formed call of each command.
_WELL_FORMED = [
    ["hrep", "--family", "tutte", "--n", "2"],
    ["simplices", "--family", "cayley", "--n", "2"],
    ["pieces", "--family", "tutte", "--n", "2", "--format", "text"],
    ["volume", "--family", "tutte", "--n", "2", "--symbolic"],
    ["zpoly", "--n", "3"],
    ["fvector", "--n", "3", "--q", "1/3"],
    ["vertices", "--family", "gayley", "--n", "2"],
    ["recursion", "--n", "3", "--mode", "recursion"],
    ["cayley1857", "--n", "3"],
    ["verify", "--check", "fiber", "--n", "2"],
]

_LOCALE_CHILD = """\
import contextlib, io, json, sys
from cayleypoly.cli import main
before = "locale" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, before, "locale" in sys.modules]))
"""


def test_well_formed_calls_never_import_locale():
    # argparse's first message looks up gettext, which imports locale and
    # costs more than most commands; a well-formed call asks for none.
    assert sorted(argv[0] for argv in _WELL_FORMED) == sorted(cli._COMMANDS)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _LOCALE_CHILD, json.dumps(_WELL_FORMED)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(done.stdout) == [[0] * 10, False, False]


@pytest.mark.parametrize(
    "kw", [{"nargs": 2}, {"type": int, "default": "3"}, {"action": "count"}, {"dest": "m"}]
)
def test_declarations_refuse_what_the_plain_parse_cannot_mirror(kw):
    with pytest.raises(TypeError):
        cli._Declarations(lambda parser: parser.add_argument("--n", **kw))


def test_declarations_record_every_flag_of_every_command():
    (command,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    for name, (_, add_arguments, _) in cli._COMMANDS.items():
        options = {s for a in command.choices[name]._actions for s in a.option_strings}
        assert set(cli._Declarations(add_arguments).flags) == options - {"-h", "--help"}


def test_full_parser_lists_every_command():
    (action,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert list(action.choices) == list(cli._COMMANDS)
    assert len(action.choices) == 10
