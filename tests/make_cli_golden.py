"""Write tests/golden/cli.json.gz: exact stdout and exit code of CLI calls.

    PYTHONPATH=src python tests/make_cli_golden.py

Each record is {"argv": [...], "code": int, "stdout": str}; test_cli_golden.py
replays every argv through cli.main and compares bytes and exit code.
Regenerate only when a change of output is intended.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os

FAMILIES = ("cayley", "gayley", "tcayley", "tgayley", "tutte")
DRAWS = (("1/2", "1"), ("37/101", "53/17"))
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "cli.json.gz")


def golden_argvs() -> list[list[str]]:
    argvs = []
    for command in ("hrep", "simplices", "pieces", "vertices"):
        for family in FAMILIES:
            for q, t in DRAWS:
                for fmt in ("json", "text"):
                    argvs.append([command, "--family", family, "--n", "3", "--q", q, "--t", t, "--format", fmt])
    for family in FAMILIES:
        for jobs, (q, t) in zip(("1", "2"), DRAWS):
            argvs.append(["volume", "--family", family, "--n", "3", "--q", q, "--t", t, "--jobs", jobs])
            argvs.append(["volume", "--family", family, "--n", "3", "--symbolic", "--jobs", jobs])
    for kind in ("triangulation", "subdivision", "refinement"):
        for family in FAMILIES:
            for q, t in DRAWS:
                argvs.append(
                    ["verify", "--check", kind, "--family", family, "--n", "3",
                     "--q", q, "--t", t, "--samples", "200"]
                )
    for q, t in DRAWS:
        argvs.append(["fvector", "--n", "4", "--q", q, "--t", t])
        for kind in ("specializations", "pieces"):
            argvs.append(["verify", "--check", kind, "--n", "3", "--q", q, "--t", t])
    for jobs in ("1", "2"):
        argvs.append(["verify", "--check", "fiber", "--n", "3", "--jobs", jobs])
        for n in ("4", "5"):
            for fmt in ("json", "text"):
                argvs.append(["zpoly", "--n", n, "--jobs", jobs, "--format", fmt])
            argvs.append(["recursion", "--n", n, "--mode", "both", "--jobs", jobs])
    argvs.append(["verify", "--all", "--nmax", "2", "--samples", "100", "--jobs", "2"])
    argvs.append(["cayley1857", "--n", "6"])
    argvs.append(["hrep", "--family", "tutte", "--n", "2", "--q", "2", "--t", "1"])
    argvs.append(["vertices", "--family", "tutte", "--n", "2", "--q", "1", "--t", "1"])
    # Closed-form sums at the sizes where they cover thousands of cells.
    for family in FAMILIES:
        argvs.append(["volume", "--family", family, "--n", "5", "--symbolic"])
        argvs.append(["volume", "--family", family, "--n", "4", "--q", "37/101", "--t", "53/17"])
        for q, t in DRAWS:
            argvs.append(
                ["verify", "--check", "refinement", "--family", family, "--n", "4", "--q", q, "--t", t]
            )
    argvs.append(["recursion", "--n", "20", "--mode", "recursion"])
    argvs.append(["verify", "--check", "specializations", "--n", "4"])
    argvs.append(["verify", "--check", "fiber", "--n", "4"])
    # Partition certificates at the size where membership tests dominate.
    for kind in ("triangulation", "subdivision"):
        for family in FAMILIES:
            for q, t in DRAWS:
                argvs.append(
                    ["verify", "--check", kind, "--family", family, "--n", "4",
                     "--q", q, "--t", t, "--samples", "200"]
                )
    # Cells and face lattices at the sizes where shared values dominate.
    for command, n in (("simplices", "4"), ("pieces", "5")):
        for family in FAMILIES:
            for q, t in DRAWS:
                for fmt in ("json", "text"):
                    argvs.append([command, "--family", family, "--n", n, "--q", q, "--t", t, "--format", fmt])
    for q, t in DRAWS:
        argvs.append(["fvector", "--n", "6", "--q", q, "--t", t])
    # One above the vertex-set cap: exit 3 before any point is built.
    argvs.append(["vertices", "--family", "tutte", "--n", "13"])
    # One above the polytope dimension cap: exit 3 before any row is built.
    argvs.append(["hrep", "--family", "tutte", "--n", "101"])
    return argvs


def run(argv: list[str]) -> dict:
    from cayleypoly.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": buffer.getvalue()}


def main() -> None:
    records = [run(argv) for argv in golden_argvs()]
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    data = json.dumps(records, indent=1, sort_keys=True).encode("utf-8")
    with open(GOLDEN, "wb") as handle:
        handle.write(gzip.compress(data, mtime=0))
    print(f"{len(records)} calls, {len(data)} bytes -> {GOLDEN}")


if __name__ == "__main__":
    main()
