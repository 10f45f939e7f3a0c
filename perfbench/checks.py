"""Output checks for cayleypoly CLI jobs, computed with the stdlib alone.

Each check parses the job's stdout and tests it against counts that this
module computes itself (connected-graph and labeled-forest recurrences,
Catalan and binomial numbers, closed-form f-vector entries).  No output
byte is compared, so added fields or reformatting do not trip a check.

`check(argv, stdout)` returns None when the output is right, else a short
reason.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

TREE_FAMILIES = ("cayley", "tcayley")
ORTHOSCHEME_FAMILIES = ("gayley", "tgayley")


@lru_cache(maxsize=None)
def connected_graphs(n: int) -> int:
    """c_n = 2^C(n,2) - sum_{k<n} C(n-1,k-1) c_k 2^C(n-k,2)."""
    return 2 ** math.comb(n, 2) - sum(
        math.comb(n - 1, k - 1) * connected_graphs(k) * 2 ** math.comb(n - k, 2)
        for k in range(1, n)
    )


@lru_cache(maxsize=None)
def labeled_forests(n: int) -> int:
    """Labeled forests on n nodes: 1, 1, 2, 7, 38, 291, 2932, 36961, ..."""
    if n == 0:
        return 1
    return sum(
        math.comb(n - 1, k - 1) * labeled_trees(k) * labeled_forests(n - k)
        for k in range(1, n + 1)
    )


def labeled_trees(n: int) -> int:
    return 1 if n == 1 else n ** (n - 2)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def binary_partition_total(n: int) -> int:
    """Partitions of each N < 2^n into parts 1, 2, ..., 2^(n-1), summed."""
    limit = 1 << n
    ways = [1] + [0] * (limit - 1)
    for part in (1 << k for k in range(n)):
        for value in range(part, limit):
            ways[value] += ways[value - part]
    return sum(ways)


def edge_count(n: int) -> int:
    return 3 * (n - 1) * 2 ** (n - 2) + 1


def two_face_count(n: int) -> Fraction:
    return Fraction(2) ** (n - 5) * (9 * n * n - 29 * n + 38) - 1


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


def options(argv) -> dict:
    """--key value pairs of an argv list; a bare --flag maps to True."""
    out: dict = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def poly_from_json(terms) -> dict[tuple[int, int], Fraction]:
    return {(int(dq), int(dt)): Fraction(c) for dq, dt, c in terms}


def poly_from_text(text: str) -> dict[tuple[int, int], Fraction]:
    """Parse the CLI's text form, e.g. "3*t^2 + t^3 + 3*q*t + q^2"."""
    out: dict[tuple[int, int], Fraction] = {}
    for term in text.strip().split(" + "):
        coeff, dq, dt = Fraction(1), 0, 0
        for factor in term.split("*"):
            var, _, power = factor.partition("^")
            if var == "q":
                dq = int(power or 1)
            elif var == "t":
                dt = int(power or 1)
            else:
                coeff = Fraction(factor)
        out[(dq, dt)] = out.get((dq, dt), 0) + coeff
    return out


# ----------------------------------------------------------------------
# Checks per command
# ----------------------------------------------------------------------


def _z_polynomial(nodes: int, z: dict) -> str | None:
    pairs = math.comb(nodes, 2)
    by_edges = [0] * (pairs + 1)
    for (dq, dt), c in z.items():
        if c.denominator != 1 or c <= 0 or not 0 <= dt <= pairs or not 0 <= dq < nodes:
            return f"bad term q^{dq} t^{dt}: {c}"
        by_edges[dt] += c
    if by_edges != [math.comb(pairs, e) for e in range(pairs + 1)]:
        return "Z(1, t) is not (1+t)^C(n,2)"
    connected = {dt: c for (dq, dt), c in z.items() if dq == 0}
    if sum(connected.values()) != connected_graphs(nodes):
        return "q^0 part at t=1 is not c_n"
    if connected.get(nodes - 1) != labeled_trees(nodes):
        return "q^0 t^(n-1) coefficient is not n^(n-2)"
    return None


def _connected_gf(nodes: int, f: dict) -> str | None:
    if any(dq != 0 for dq, _ in f):
        return "F_n has a q term"
    if sum(f.values()) != connected_graphs(nodes):
        return "F_n(1) is not c_n"
    if min(dt for _, dt in f) != nodes - 1 or f[(0, nodes - 1)] != labeled_trees(nodes):
        return "lowest coefficient is not t^(n-1) n^(n-2)"
    return None


def check_zpoly(argv, out: str) -> str | None:
    nodes = int(options(argv)["n"])
    if options(argv).get("format") == "text":
        return _z_polynomial(nodes, poly_from_text(out))
    payload = json.loads(out)
    if payload["nodes"] != nodes:
        return "wrong node count"
    return _z_polynomial(nodes, poly_from_json(payload["polynomial"]))


def check_recursion(argv, out: str) -> str | None:
    opts = options(argv)
    nodes, mode = int(opts["n"]), opts["mode"]
    payload = json.loads(out)
    keys = ("recursion", "bruteforce") if mode == "both" else (mode,)
    for key in keys:
        reason = _connected_gf(nodes, poly_from_json(payload[key]))
        if reason:
            return f"{key}: {reason}"
    if mode == "both" and not (
        payload["agree"] is True
        and poly_from_json(payload["recursion"]) == poly_from_json(payload["bruteforce"])
    ):
        return "recursion and brute force disagree"
    return None


def check_volume(argv, out: str) -> str | None:
    opts = options(argv)
    family, n = opts["family"], int(opts["n"])
    payload = json.loads(out)
    poly = poly_from_json(payload["polynomial"])
    if payload["agree"] is not True:
        return "agree is false"
    if poly != poly_from_json(payload["by_closed_form"]) or poly != poly_from_json(
        payload["by_pieces"]
    ):
        return "closed-form, piece and graph sums differ"
    expected = connected_graphs(n + 1) if family in TREE_FAMILIES else 2 ** math.comb(n + 1, 2)
    if sum(poly.values()) != expected:
        return f"value at (1,1) is {sum(poly.values())}, family total {expected}"
    return None


def check_fvector(argv, out: str) -> str | None:
    n = int(options(argv)["n"])
    f = json.loads(out)["f"]
    if len(f) != n or f[0] != 2**n:
        return "f_0 is not 2^n"
    if sum((-1) ** i * fi for i, fi in enumerate(f)) != 1 - (-1) ** n:
        return "Euler relation fails"
    if 2 <= n <= 7 and f[1] != edge_count(n):
        return "edge count formula fails"
    if 3 <= n <= 7 and f[2] != two_face_count(n):
        return "2-face count formula fails"
    return None


def _cell_count(family: str, n: int, kind: str) -> int:
    trees = family in TREE_FAMILIES
    if kind == "simplices":
        return (n + 1) ** (n - 1) if trees else labeled_forests(n + 1)
    return catalan(n) if trees else catalan(n + 1)


def check_simplices(argv, out: str) -> str | None:
    opts = options(argv)
    family, n = opts["family"], int(opts["n"])
    payload = json.loads(out)
    cells = payload["simplices"]
    if not payload["count"] == len(cells) == _cell_count(family, n, "simplices"):
        return "simplex count is not the labeled-forest count"
    for cell in cells:
        vertices = cell["vertices"]
        if len(vertices) != n + 1 or any(len(v) != n for v in vertices):
            return f"simplex {cell['forest']} has the wrong shape"
    return None


def check_pieces(argv, out: str) -> str | None:
    opts = options(argv)
    family, n = opts["family"], int(opts["n"])
    payload = json.loads(out)
    cells = payload["pieces"]
    if not payload["count"] == len(cells) == _cell_count(family, n, "pieces"):
        return "piece count is not a Catalan number"
    if any(cell["hrep"]["dimension"] != n for cell in cells):
        return "piece of the wrong dimension"
    return None


def check_vertices(argv, out: str) -> str | None:
    opts = options(argv)
    family, n = opts["family"], int(opts["n"])
    payload = json.loads(out)
    points = [tuple(Fraction(x) for x in p) for p in payload["points"]]
    expected = n + 1 if family in ORTHOSCHEME_FAMILIES else 2**n
    if not payload["count"] == len(points) == len(set(points)) == expected:
        return f"expected {expected} distinct vertices"
    if any(len(p) != n for p in points) or len(payload["provenance"]) != expected:
        return "vertex of the wrong dimension"
    return None


def check_cayley1857(argv, out: str) -> str | None:
    n = int(options(argv)["n"])
    payload = json.loads(out)
    if not payload["lattice_points"] == payload["partitions"] == binary_partition_total(n):
        return "lattice-point and partition counts differ"
    return None


def check_verify(argv, out: str) -> str | None:
    opts = options(argv)
    kind, n = opts["check"], int(opts["n"])
    payload = json.loads(out)
    if payload["passed"] is not True or len(payload["jobs"]) != 1:
        return "verify did not pass"
    job = payload["jobs"][0]
    checks = job["checks"]
    if job["passed"] is not True:
        return f"{kind} job did not pass"
    if kind in ("triangulation", "subdivision"):
        if checks["sampling"]["samples"] != int(opts["samples"]):
            return "accepted samples differ from the number requested"
        expected = _cell_count(opts["family"], n, "simplices" if kind == "triangulation" else "pieces")
        if checks["cell_count"]["got"] != expected:
            return "cell count is wrong"
    elif kind == "fiber":
        nodes = n + 1
        if checks["graphs_swept"]["got"] != 2 ** math.comb(nodes, 2):
            return "fiber sweep missed graphs"
        if checks["distinct_forests"]["got"] != labeled_forests(nodes):
            return "fiber sweep missed forests"
    return None


CHECKS = {
    "zpoly": check_zpoly,
    "recursion": check_recursion,
    "volume": check_volume,
    "fvector": check_fvector,
    "simplices": check_simplices,
    "pieces": check_pieces,
    "vertices": check_vertices,
    "cayley1857": check_cayley1857,
    "verify": check_verify,
}


def check(argv, stdout: bytes) -> str | None:
    """None when the output of `cayleypoly <argv>` is right, else a reason."""
    try:
        return CHECKS[argv[0]](argv, stdout.decode("utf-8"))
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
