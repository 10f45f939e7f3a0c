"""End-to-end verification jobs: triangulations, subdivisions, refinement,
specializations, and NFS fiber checks.

Partition certificates are statistical but exact: seeded rational sample
points (bounded denominators, linear congruential stream) are drawn from
the interior of the polytope, any sample touching a boundary hyperplane
of a candidate cell is discarded and regenerated, and each surviving
sample must lie strictly inside exactly one cell.  Combined with the
exact volume-sum identities and vertex containment this certifies the
partitions at desk scale; no pairwise intersection LP is attempted.

Sampling and membership are in integers.  The sample drawer
(interior_sample_drawer) draws a batch of points at a time, as integer
numerators over one positive scale, one list per coordinate: one call to
the generator for the whole batch, then the coordinate recurrence over
the whole batch, one coordinate at a time.  Each cell is a tuple of
coprime integer rows, read straight from the job's vertex table
(VertexTable.chain_rows, piece_rows): the table builds each distinct row
once, in integers, so a row shared by many cells is one row, and no
Fraction enters a cell.  A row's sign at a point does not depend on the
positive scale the point is written over, so the numerators go into the
rows as they are.  The partition
certificate keeps each hyperplane of all the cells once, as the larger
of a row and its negation, and classifies each batch of samples
bit-sliced: each sample is one lane of a few big ints, so one big-int
evaluation of a hyperplane signs it at every sample of the batch, read
as one bit per sample.  Each cell then ORs the bits of its rows (a row
negative, a row zero), and the cells classify every sample at once.  A
Fraction point is built only for a failure report.

Simplices are in integers too.  A geometry.VertexTable holds the distinct
simplex vertices of a job as integer numerators over its one scale s,
and each simplex is the tuple of its vertex indices; the job's chains
and pieces come from the same table.  The volume sum
is the sum of the integer |det| of each simplex's consecutive vertex
differences (VertexTable.steps, sparse, each vertex pair differenced
once), which are triangular in vertex order, so that each |det| is
the product of one pivot per step (volumes.steps_volume_scaled); the
sum is divided once by s^n.  Vertex containment tests each table
vertex once against the polytope (HRep.contains_numerators), and in a
refinement job each pair of a shape and a table vertex once against
the shape's piece rows (geometry.rows_contain).

The fiber check generates the NFS fibers instead of sweeping for them:
each labeled forest F gives the masks of F plus a subset of its cane
edges.  They are the fibers exactly when every generated graph has NFS
forest F, no mask is generated twice, and the masks number 2^C(n,2).  A
forest is its NFS walk, so each graph's walk is compared with F's.

Every job is deterministic given (kind, family, n, parameters, seed).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

from .exact import BivariatePolynomial, bareiss_step, clear_denominators, format_rational
from .faces import VertexSet, vertex_set
from .forests import (
    LabeledForest,
    PlaneForest,
    count_labeled_forests,
    enumerate_labeled_forests,
    enumerate_plane_forests,
    fiber_masks,
    graph_walk,
)
from .geometry import (
    FAMILIES,
    Family,
    HRep,
    IntegerRow,
    ParameterDomainError,
    VertexTable,
    build_hrep,
    check_open_q,
    family_parameters,
    piece_for_plane_forest_via_cones,
    rows_contain,
)
from .graphs import mask_pairs
from .volumes import (
    closed_form_piece_total,
    closed_form_simplex_total,
    connected_gf,
    family_total_polynomial,
    piece_tally,
    simplex_tally,
    steps_volume_scaled,
    tally_monomials,
    z_bruteforce,
)

DEFAULT_SAMPLES = 1000
DEFAULT_SEED = 20240605
VERIFY_MAX_N = 5
# The n of a sweep's fiber job is nmax up to this cap: 2^15 graphs on 6 nodes.
FIBER_SWEEP_MAX_N = 5
# The most samples a partition certificate classifies at once, one lane
# each; it bounds the certificate's memory whatever the sample count.
BATCH = 1024
# bytes.translate table: a byte with its top bit set becomes the digit 1.
_TOP_BIT_DIGITS = b"0" * 128 + b"1" * 128


@dataclass
class VerificationReport:
    kind: str
    family: Optional[str]
    n: int
    q: Optional[Fraction]
    t: Optional[Fraction]
    seed: Optional[int]
    checks: dict = field(default_factory=dict)
    counterexample: Optional[dict] = None

    @property
    def passed(self) -> bool:
        """Whether every check holds: its "ok" is true or, without an
        "ok", its "got" equals its "expected"."""
        checks = self.checks.values()
        return all(c["ok"] if "ok" in c else c["got"] == c["expected"] for c in checks)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "n": self.n,
            "q": None if self.q is None else format_rational(self.q),
            "t": None if self.t is None else format_rational(self.t),
            "seed": self.seed,
            "passed": self.passed,
            "checks": self.checks,
            "counterexample": self.counterexample,
        }


# ----------------------------------------------------------------------
# Seeded rational sampling
# ----------------------------------------------------------------------


class RationalLCG:
    """Deterministic rational stream in (0, 1) with bounded denominators.

    Each draw is k / denominator with 1 <= k < denominator; the stream
    hands out the numerator k.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MODULUS = 1 << 64
    denominator = 257

    def __init__(self, seed: int):
        self.state = seed & (self.MODULUS - 1)

    def numerators(self, count: int) -> list[int]:
        """The next `count` numerators, in the order they are drawn."""
        state, multiplier, increment = self.state, self.MULTIPLIER, self.INCREMENT
        mask, span = self.MODULUS - 1, self.denominator - 1
        draws = []
        for _ in range(count):
            state = (state * multiplier + increment) & mask
            draws.append(1 + (state >> 16) % span)
        self.state = state
        return draws


def interior_sample_drawer(
    fam: Family, n: int, q: Fraction, t: Fraction, rng: RationalLCG
) -> Callable[[int], tuple[list[list[int]], int]]:
    """The batch drawer of exact points strictly inside the family
    polytope: draw(size) draws the next size points and gives them as
    (columns, scale), where columns[i][j] is coordinate i of point j as an
    integer numerator over the one positive scale.

    Coordinates are drawn left to right, each strictly between its lower
    bound lo and its upper bound hi = w x_{i-1} - slack (1 - min(x_0, ...,
    x_{i-1})), the family's `Family.chain_bounds` at (q, t).  A draw k/m
    places x_i at lo + (k/m)(hi - lo).

    The arithmetic is in integers.  One base denominator D turns
    w = 1+t, lo and slack = t(1-q)/q into the integers w_d, lo_d, slack_d
    (each times D).  With x_{i-1} = P/S and min(x_0..x_{i-1}) = M/S, the
    draw is
    (m lo_d S + k (w_d P + slack_d M - (slack_d + lo_d) S)) / (m D S),
    so each coordinate multiplies the running scale S by m D and rescales
    M.  At coordinate i, S is (m D)^i for every point, so m lo_d S and
    (slack_d + lo_d) S are computed once per drawer.  The last scale is
    always (m D)^n, so coordinate i is lifted to it once, by
    (m D)^(n-1-i), when drawn; x_i of point j is
    Fraction(columns[i][j], (m D)^n).

    A batch takes its size * n draws from rng in one call, point-major:
    point j reads draws j n to j n + n - 1, as if the points were drawn
    one at a time, so batches of any sizes draw the same points.
    Coordinate i reads every n-th draw from i on and runs the recurrence
    above over the whole batch at once; M is kept only where slack_d is
    nonzero, the only case that reads it.
    """
    lo, w, slack = fam.chain_bounds(q, t)
    (w_d, lo_d, slack_d), base = clear_denominators((w, lo, slack))
    m = rng.denominator
    step = m * base
    # Per coordinate i: m lo_d S and (slack_d + lo_d) S at S = (m D)^i, and the lift.
    coordinates = [(m * lo_d * step**i, (slack_d + lo_d) * step**i, step ** (n - 1 - i)) for i in range(n)]
    scale = step**n

    def draw(size: int) -> tuple[list[list[int]], int]:
        draws = rng.numerators(size * n)
        columns = []
        prev = lowest = [1] * size
        for i, (floor, offset, lift) in enumerate(coordinates):
            ks = draws[i::n]
            if slack_d:
                prev = [floor + k * (w_d * p + slack_d * low - offset) for k, p, low in zip(ks, prev, lowest)]
                lowest = [min(low * step, p) for low, p in zip(lowest, prev)]
            else:
                prev = [floor + k * (w_d * p - offset) for k, p in zip(ks, prev)]
            columns.append([p * lift for p in prev])
        return columns, scale

    return draw


# ----------------------------------------------------------------------
# Brute-force vertex enumeration, the vertex oracle of the
# specialization and piece-construction jobs (desk scale only): every
# n-subset of rows, walked as a tree of prefixes pruned at singular ones
# ----------------------------------------------------------------------


VertexKey = tuple[tuple[int, ...], int]


def vertex_key(numerators: Sequence[int], scale: int) -> VertexKey:
    """The point (n_1, ..., n_d) / scale, scale > 0, as gcd-reduced integers
    (numerators, denominator): one key per point, whatever its scale."""
    g = math.gcd(scale, *numerators)
    return tuple(v // g for v in numerators), scale // g


def vertex_keys(vertices: VertexSet) -> tuple[VertexKey, ...]:
    """The sorted `vertex_key`s of a vertex set, as the vertex oracle gives them."""
    return tuple(sorted(vertex_key(p, vertices.scale) for p in vertices.points))


def enumerate_hrep_vertices(hrep: HRep) -> tuple[VertexKey, ...]:
    """All vertices of a (bounded) H-rep, as their sorted `vertex_key`s,
    each n-subset of its rows taken tight; intended for small n only.

    Each coprime row of `HRep.integer_rows` is written once as
    [a_1, ..., a_n, b].  The n-subsets are walked depth first in index
    order, as a tree whose nodes are their prefixes.  Taking a row as the
    next pivot row takes one `bareiss_step` of each later row against
    it, so a row is reduced once per prefix; a later row whose first n
    entries are then zero is dropped, with every subset that holds it and
    the prefix, since they are all singular.  So each leaf is a
    nonsingular subset in echelon form, with last pivot D = +-det; back
    substitution gives its point as integer numerators over D, each
    division exact (Cramer's rule).  A point is kept once, as its key,
    and tested once against the H-rep; no Fraction is built."""
    n = hrep.dimension
    if n == 0:
        return (((), 1),)
    augmented = []
    for b, terms in hrep.integer_rows:
        row = [0] * n + [b]
        for i, a in terms:
            row[i] = a
        augmented.append(row)
    points: dict[VertexKey, bool] = {}

    def walk(rows: list[list[int]], pivots: list[tuple[list[int], int]], previous: int) -> None:
        # Each row left has taken its step against every (pivot row, pivot
        # column) of the prefix, and is nonzero in its first n entries.
        need = n - len(pivots)
        for k in range(len(rows) - need + 1):
            top = rows[k]
            col = next(c for c in range(n) if top[c])
            if need > 1:
                reduced = bareiss_step(rows[k + 1 :], top, col, previous)
                walk([row for row in reduced if any(row[:n])], pivots + [(top, col)], top[col])
                continue
            d = top[col]
            x = [0] * n
            for row, c in reversed(pivots + [(top, col)]):
                x[c] = -(row[n] * d + sum(a * v for a, v in zip(row, x))) // row[c]
            if d < 0:
                d, x = -d, [-v for v in x]
            key = vertex_key(x, d)
            if key not in points:
                points[key] = hrep.contains_numerators(*key)

    walk([row for row in augmented if any(row[:n])], [], 1)
    return tuple(sorted(key for key, inside in points.items() if inside))


# ----------------------------------------------------------------------
# Membership certificates over all cells
# ----------------------------------------------------------------------


def _lane_signs(value: int, ones: int, width: int, lanes: int) -> tuple[int, int]:
    """(lanes >= 0, lanes > 0) of value, lane j as bit j, where each
    width-byte lane holds a signed v plus 2^(8 width - 1), |v| below
    2^(8 width - 2), and ones has 1 in every lane."""
    raw = value.to_bytes(width * lanes, "big")
    # Big-endian, every width-th byte is a lane's top byte, the last
    # lane's first; as binary digits, most significant first, they are the
    # lanes' top bits.
    nonnegative = int(raw[::width].translate(_TOP_BIT_DIGITS), 2)
    # A zero lane's bytes are 0x80 then width - 1 zero bytes, and no other
    # run of raw's bytes is: a lane's top byte is never zero.  So without
    # that run no lane is zero, and the lanes read a second time, less 1,
    # only with it.
    if b"\x80".ljust(width, b"\0") not in raw:
        return nonnegative, nonnegative
    less_one = (value - ones).to_bytes(width * lanes, "big")
    return nonnegative, int(less_one[::width].translate(_TOP_BIT_DIGITS), 2)


def _partition_certificate(
    fam: Family,
    n: int,
    q: Fraction,
    t: Fraction,
    cells: list[tuple[IntegerRow, ...]],
    samples: int,
    seed: int,
) -> dict:
    """Draw interior samples; each generic one must be in exactly one cell.

    A sample is integer numerators over a positive scale, so a row b + a.x
    is evaluated as b * scale + a.numerators, which has the row's sign.
    Each cell is a tuple of coprime integer rows (VertexTable.chain_rows,
    piece_rows or HRep.integer_rows), so rows that are positive multiples
    of each other coincide.  The distinct rows of the cells lie on
    fewer hyperplanes, as two cells on either side of one have it in
    opposite orientations.  Each hyperplane h is kept once, written as the
    larger of a row and its negation, and each distinct row is oriented
    once, as 2h (the row as written) or 2h + 1 (its negation).

    The samples are classified up to BATCH at a time, each in its own
    w-byte slot (lane) of a few big ints: SWAR arithmetic (Lamport,
    "Multiple byte processing with full-word instructions", CACM 1975).
    The numerators of coordinate i of the batch are packed into one int,
    and each hyperplane is evaluated once per batch, as
    b * scale * ONES + sum a * column + BIAS, where ONES has 1 and BIAS
    2^(8w-1) in every lane.  The batch sets w so that
    |b| * scale + sum |a| * max numerator stays below 2^(8w-2): no lane
    carries into or borrows from the next, and a lane's top bit says
    value >= 0, and in the sum less ONES, value > 0 (read only when some
    lane is zero).  Each reading is one bit per sample, so a cell ORs over
    its rows the lanes where a row is violated (`out`) and those where it
    is zero (`touch`).  A sample is on a cell's boundary, and discarded,
    where touch & ~out; an accepted one must be in exactly one cell, in
    neither mask, which a pair of ones/twos bitsets counts.  The first
    accepted lane that fails ends the certificate as the one-at-a-time
    loop would: the counts stop at it, and its cells are those whose rows
    contain it strictly (geometry.rows_contain).
    """
    orientation: dict[IntegerRow, int] = {}  # row -> 2h, or 2h + 1 for a negation
    index: dict[IntegerRow, int] = {}  # hyperplane -> h
    oriented_cells = []  # per cell, its rows' orientations
    for cell in cells:
        rows = []
        for row in cell:
            oriented = orientation.get(row)
            if oriented is None:
                b, terms = row
                hyperplane = max(row, (-b, tuple((i, -a) for i, a in terms)))
                h = index.setdefault(hyperplane, len(index))
                oriented = orientation[row] = 2 * h + (hyperplane != row)
            rows.append(oriented)
        oriented_cells.append(rows)
    hyperplanes = list(index)
    draw = interior_sample_drawer(fam, n, q, t, RationalLCG(seed))
    accepted = 0
    discarded = 0
    failure = None
    attempts_left = 60 * samples
    while accepted < samples and attempts_left > 0 and failure is None:
        # The lanes the one-at-a-time loop would draw, if no sample fails.
        size = min(samples - accepted, attempts_left, BATCH)
        attempts_left -= size
        columns, scale = draw(size)
        peaks = [max(column) for column in columns]
        # The largest |value| of a row over the batch; each numerator fits a lane too.
        bound = max(
            peaks + [abs(b) * scale + sum(abs(a) * peaks[i] for i, a in terms) for b, terms in hyperplanes]
        )
        width = (bound.bit_length() + 9) // 8  # 8 * width >= bit_length + 2
        packed = [int.from_bytes(b"".join(v.to_bytes(width, "little") for v in c), "little") for c in columns]
        ones = int.from_bytes(b"\x01".ljust(width, b"\0") * size, "little")
        scale_ones, bias = scale * ones, ones << (8 * width - 1)
        every = (1 << size) - 1
        violated = []  # per row 2h or 2h + 1: the lanes where it is negative
        zero = []  # per row: the lanes where it is zero
        for b, terms in hyperplanes:
            value = b * scale_ones + bias
            for i, a in terms:
                value += a * packed[i]
            nonnegative, positive = _lane_signs(value, ones, width, size)
            violated += (every ^ nonnegative, positive)
            zero += (nonnegative ^ positive,) * 2
        boundary = once = twice = 0
        for rows in oriented_cells:
            out = touch = 0
            for row in rows:
                out |= violated[row]
                touch |= zero[row]
            boundary |= touch & ~out
            inside = every & ~(out | touch)
            twice |= once & inside
            once |= inside
        kept = every & ~boundary
        failing = kept & ~(once & ~twice)
        if failing:
            lane = (failing & -failing).bit_length() - 1
            kept &= (2 << lane) - 1
            boundary &= (1 << lane) - 1
            numerators = [column[lane] for column in columns]
            failure = {
                "point": [format_rational(Fraction(v, scale)) for v in numerators],
                "cells_containing": sum(rows_contain(cell, numerators, scale, strict=True) for cell in cells),
            }
        accepted += kept.bit_count()
        discarded += boundary.bit_count()
    return {
        "samples": accepted,
        "discarded_non_generic": discarded,
        "ok": failure is None and accepted == samples,
        "failure": failure,
    }


def _vertices_outside(polytope: HRep, table: VertexTable) -> set[int]:
    """The indices of the table's vertices not in the polytope, each
    distinct vertex tested once, in integers."""
    scale = table.scale
    return {k for k, v in enumerate(table.vertices) if not polytope.contains_numerators(v, scale)}


# ----------------------------------------------------------------------
# Verification jobs
# ----------------------------------------------------------------------


# Each `verify --check` name but "all", in the order a sweep runs them:
# what its size cap's message calls the job's checks, the largest n at
# desk scale (None for fiber, whose job checks its own node count), and
# its job at one n, called as job(family, n, q, t, samples, seed).  A
# lambda looks the job up by its name here when called, so a job rebound
# in this module is the one run.
CHECKS = {
    "triangulation": ("full triangulation checks", VERIFY_MAX_N, lambda *a: verify_triangulation(*a)),
    "subdivision": ("full subdivision checks", VERIFY_MAX_N, lambda *a: verify_subdivision(*a)),
    "refinement": ("refinement checks", VERIFY_MAX_N, lambda f, n, q, t, *_: verify_refinement(f, n, q, t)),
    "specializations": (
        "specialization checks",
        VERIFY_MAX_N,
        lambda f, n, q, t, *_: verify_specializations(n, q, t),
    ),
    "pieces": (
        "piece construction cross-checks",
        4,
        lambda f, n, q, t, *_: verify_piece_constructions(n, q, t),
    ),
    "fiber": (None, None, lambda f, n, *_: verify_fiber(n + 1)),
}


def _check_job(check: str, n: int, samples: int = 1) -> None:
    """What a job checks before any work: n = 0 is outside every family's
    domain, above the cap is beyond desk scale, and a sampling job needs
    at least one sample."""
    checks, limit, _ = CHECKS[check]
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    if n > limit:
        raise ValueError(f"{checks} are desk scale: n <= {limit}")
    if check in ("triangulation", "subdivision") and samples < 1:
        raise ParameterDomainError("samples must be >= 1")


def _check_specialization_parameters(q, t) -> tuple[Fraction, Fraction]:
    """The checked (q, t) of the specialization job: t of the tcayley
    polytope, q of the tutte polytope, and q < 1 of the tutte vertex formula."""
    family_parameters("tcayley", t=t)
    _, q, t = family_parameters("tutte", q, t)
    check_open_q(q)
    return q, t


def verify_triangulation(
    family: str,
    n: int,
    q=None,
    t=None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Check the simplicial decomposition of one family polytope."""
    _check_job("triangulation", n, samples)
    fam, q_eff, t_eff = family_parameters(family, q, t)
    polytope = fam.hrep(n, q_eff, t_eff)
    forests = list(fam.labeled_cells(n))
    table = VertexTable(n + 1, q_eff, t_eff)
    simplices = [table.add(f) for f in forests]
    chains = [table.chain_rows(f) for f in forests]
    checks: dict = {}

    checks["cell_count"] = {"got": len(simplices), "expected": fam.cell_counts(n)[0]}

    outside = _vertices_outside(polytope, table)
    bad_vertex = None
    if outside:
        f, k = next((f, k) for f, s in zip(forests, simplices) for k in s if k in outside)
        bad_vertex = {"forest": f.to_parent_text(), "vertex": [format_rational(x) for x in table.point(k)]}
    checks["vertex_containment"] = {"ok": bad_vertex is None}

    scaled = sum(steps_volume_scaled(table.steps(s)) for s in simplices)
    total = Fraction(scaled, table.scale**n)
    expected_total = family_total_polynomial(fam, n).evaluate(q_eff, t_eff)
    checks["volume_sum"] = {
        "got": format_rational(total),
        "expected": format_rational(expected_total),
        "ok": total == expected_total,
    }

    checks["sampling"] = _partition_certificate(fam, n, q_eff, t_eff, chains, samples, seed)
    counterexample = bad_vertex or checks["sampling"]["failure"]
    return VerificationReport("triangulation", family, n, q_eff, t_eff, seed, checks, counterexample)


def verify_subdivision(
    family: str,
    n: int,
    q=None,
    t=None,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Check the coarse subdivision of one family polytope."""
    _check_job("subdivision", n, samples)
    fam, q_eff, t_eff = family_parameters(family, q, t)
    polytope = fam.hrep(n, q_eff, t_eff)
    plane = list(fam.plane_cells(n))
    table = VertexTable(n + 1, q_eff, t_eff)
    pieces = [table.piece_rows(pf) for pf in plane]
    checks: dict = {}

    checks["cell_count"] = {"got": len(pieces), "expected": fam.cell_counts(n)[1]}

    closed_total = fam.specialize(closed_form_piece_total(plane))
    expected_total = family_total_polynomial(fam, n)
    checks["volume_sum"] = {
        "got": closed_total.to_json_obj(),
        "expected": expected_total.to_json_obj(),
        "ok": closed_total == expected_total,
    }

    # Piece facets must stay inside the polytope: check simplex vertices of
    # the refinement instead of unavailable piece V-reps.
    for f in fam.labeled_cells(n):
        table.add(f)
    checks["vertex_containment"] = {"ok": not _vertices_outside(polytope, table)}

    checks["sampling"] = _partition_certificate(fam, n, q_eff, t_eff, pieces, samples, seed)
    return VerificationReport(
        "subdivision", family, n, q_eff, t_eff, seed, checks, checks["sampling"]["failure"]
    )


def verify_refinement(family: str, n: int, q=None, t=None) -> VerificationReport:
    """Each simplex sits inside the piece of its plane shape; each shape has
    its count of forests, whose simplex tally equals its piece's tally."""
    _check_job("refinement", n)
    fam, q_eff, t_eff = family_parameters(family, q, t)
    forests = list(fam.labeled_cells(n))
    plane = list(fam.plane_cells(n))
    table = VertexTable(n + 1, q_eff, t_eff)
    # Each shape's piece, with the verdicts on the table vertices tested so far.
    piece_by_shape = {pf: (table.piece_rows(pf), {}) for pf in plane}
    groups: dict[PlaneForest, list[LabeledForest]] = {pf: [] for pf in plane}
    containment_ok = True
    counterexample = None
    for f in forests:
        pf = f.shape
        groups[pf].append(f)
        piece, inside = piece_by_shape[pf]
        simplex = table.add(f)
        for k in simplex:
            if k not in inside:
                inside[k] = rows_contain(piece, table.vertices[k], table.scale)
        if not all(inside[k] for k in simplex):
            containment_ok = False
            counterexample = {"forest": f.to_parent_text(), "shape": pf.to_text()}
            break
    counts_ok = True
    volume_ok = True
    for pf, members in groups.items():
        if len(members) != pf.labeled_forest_count():
            counts_ok = False
            counterexample = counterexample or {
                "shape": pf.to_text(),
                "got": len(members),
                "expected": pf.labeled_forest_count(),
            }
        if simplex_tally(members) != piece_tally((pf,)):
            volume_ok = False
            counterexample = counterexample or {"shape": pf.to_text(), "mismatch": "volume"}
    checks = {
        "vertex_containment": {"ok": containment_ok},
        "shape_multiplicities": {"ok": counts_ok},
        "piece_volume_refines": {"ok": volume_ok},
        "total_forests": {"got": sum(len(v) for v in groups.values()), "expected": len(forests)},
    }
    return VerificationReport("refinement", family, n, q_eff, t_eff, None, checks, counterexample)


def verify_specializations(n: int, q=Fraction(1, 2), t=Fraction(2)) -> VerificationReport:
    """Fixed-parameter specializations tie the five families together."""
    _check_job("specializations", n)
    q, t = _check_specialization_parameters(q, t)
    checks: dict = {}

    # Equal H-reps have equal vertices, so the oracle runs on gayley only.
    gayley = build_hrep("gayley", n)
    ortho = vertex_keys(vertex_set("gayley", n))
    checks["tutte_q1_t1_is_gayley"] = {
        "ok": build_hrep("tutte", n, 1, 1) == gayley and enumerate_hrep_vertices(gayley) == ortho
    }

    tcayley = enumerate_hrep_vertices(build_hrep("tcayley", n, t=t))
    closed = vertex_keys(vertex_set("tcayley", n, t=t))
    checks["tcayley_vertices_closed_form"] = {"ok": tcayley == closed}

    qt_vertices = enumerate_hrep_vertices(build_hrep("tutte", n, q, t))
    closed_qt = vertex_keys(vertex_set("tutte", n, q, t))
    checks["tutte_vertices_closed_form"] = {"ok": qt_vertices == closed_qt}

    z = z_bruteforce(n + 1)
    connected = connected_gf(n + 1, "recursion")
    checks["z_q0_coefficient_is_connected_gf"] = {"ok": z.restrict_q_power(0) == connected}

    # Trees have one component, so no power of q.
    tree_sum = closed_form_simplex_total(enumerate_labeled_forests(n + 1, trees_only=True))
    checks["tree_simplices_sum_to_tcayley_total"] = {"ok": tree_sum == connected}

    checks["gayley_total"] = {
        "ok": z.substitute(q=1, t=1) == BivariatePolynomial.constant(2 ** math.comb(n + 1, 2))
    }
    one_plus_t_pow = BivariatePolynomial.one_plus_t_power(math.comb(n + 1, 2))
    checks["tgayley_total"] = {"ok": z.substitute(q=1) == one_plus_t_pow}
    return VerificationReport("specializations", None, n, q, t, None, checks, None)


def verify_piece_constructions(n: int, q=Fraction(1, 2), t=Fraction(1)) -> VerificationReport:
    """Direct piece inequalities agree with the product/cone assembly."""
    _check_job("pieces", n)
    _, q, t = family_parameters("tutte", q, t)
    table = VertexTable(n + 1, q, t)
    mismatch = None
    for pf in enumerate_plane_forests(n + 1):
        direct = table.piece(pf)
        combin = piece_for_plane_forest_via_cones(pf, q, t)
        if enumerate_hrep_vertices(direct) != enumerate_hrep_vertices(combin):
            mismatch = {"shape": pf.to_text()}
            break
    checks = {"vertex_sets_equal": {"ok": mismatch is None}}
    return VerificationReport("piece-constructions", None, n, q, t, None, checks, mismatch)


# ----------------------------------------------------------------------
# NFS fiber verification
# ----------------------------------------------------------------------


def _fiber_fault(f: LabeledForest, seen: bytearray) -> Optional[str]:
    """Why the generated fiber of f is not its NFS fiber, or None; marks
    each generated mask in seen; no graph or forest is built per mask."""
    n = f.node_count
    walk = [(label, *entry) for label, entry in zip(f.order, f.shape.walk)]
    components = f.component_count() - 1
    weighted = Counter()
    for mask in fiber_masks(f):
        if seen[mask]:
            return "mask generated twice"
        seen[mask] = 1
        if graph_walk(n, mask_pairs(n, mask)) != walk:
            return "fiber set mismatch"
        weighted[components, mask.bit_count()] += 1
    if weighted != tally_monomials(simplex_tally((f,))):
        return "weighted fiber mismatch"
    return None


def verify_fiber(node_count: int) -> VerificationReport:
    """Exhaustive check that NFS preimages are forest-plus-cane-edge sets.

    Generates fiber_masks(F) for every labeled forest F and checks three
    facts: each generated graph has F's NFS walk; no mask is generated
    twice; and the masks number 2^C(n,2).  Together they make the
    generated sets exactly the NFS fibers.  Each fiber's count of masks by
    (component count - 1, edge count) is then compared with the monomials
    of F's closed-form simplex volume.
    """
    if not 1 <= node_count <= 7:
        raise ValueError(f"fiber sweep needs 1..7 nodes, got {node_count}")
    total_masks = 1 << (node_count * (node_count - 1) // 2)
    seen = bytearray(total_masks)
    forests_seen = 0
    counterexample = None
    for f in enumerate_labeled_forests(node_count):
        forests_seen += 1
        reason = _fiber_fault(f, seen)
        if reason is not None:
            counterexample = {"forest": f.to_parent_text(), "reason": reason}
            break
    swept = seen.count(1)
    expected_forests = count_labeled_forests(node_count)
    checks = {
        "graphs_swept": {"got": swept, "expected": total_masks},
        "distinct_forests": {"got": forests_seen, "expected": expected_forests},
        "fibers": {"ok": counterexample is None},
    }
    return VerificationReport("fiber", None, node_count - 1, None, None, None, checks, counterexample)


# ----------------------------------------------------------------------
# Run plan
# ----------------------------------------------------------------------


def plan(
    check: str,
    nmax: int,
    n: Optional[int] = None,
    family: str = "tutte",
    q=Fraction(1, 2),
    t=Fraction(1),
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> list[Callable[[], VerificationReport]]:
    """The jobs of `verify --check check`, in the order they run, each a
    call with no arguments.

    "all" runs, for each n = 1..nmax, triangulation, subdivision and
    refinement for each family, then specializations, then pieces while n
    is within their cap; then one fiber job at min(nmax,
    FIBER_SWEEP_MAX_N).  One check runs at n when given, else at that
    fiber n or at each n = 1..nmax.  Every job's checks run here first, in
    the order the jobs run, so a run reaching past a cap fails before its
    first job; then the (q, t) of specializations."""
    if nmax < 1:
        raise ParameterDomainError("nmax must be >= 1")
    fiber_n = min(nmax, FIBER_SWEEP_MAX_N)
    if check == "all":
        steps = []
        for m in range(1, nmax + 1):
            for name in FAMILIES:
                steps += [(c, name, m) for c in ("triangulation", "subdivision", "refinement")]
            steps.append(("specializations", family, m))
            if m <= CHECKS["pieces"][1]:
                steps.append(("pieces", family, m))
        steps.append(("fiber", family, fiber_n))
    else:
        n_values = [n] if n is not None else [fiber_n] if check == "fiber" else range(1, nmax + 1)
        steps = [(check, family, m) for m in n_values]
    for c, _, m in steps:
        if CHECKS[c][1] is not None:
            _check_job(c, m, samples)
    if check in ("all", "specializations"):
        _check_specialization_parameters(q, t)
    return [partial(CHECKS[c][2], name, m, q, t, samples, seed) for c, name, m in steps]
