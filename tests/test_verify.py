"""Verification jobs: partitions, refinement, specializations, fibers."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleypoly import (
    FAMILIES,
    BivariatePolynomial,
    HRep,
    LabeledForest,
    ParameterDomainError,
    PlaneForest,
    build_hrep,
    closed_form_simplex_total,
    connected_gf,
    count_labeled_forests,
    enumerate_hrep_vertices,
    enumerate_labeled_forests,
    get_family,
    enumerate_plane_forests,
    piece_for_plane_forest_via_cones,
    verify_fiber,
    verify_piece_constructions,
    verify_refinement,
    verify_specializations,
    verify_subdivision,
    verify_triangulation,
)
from cayleypoly import geometry, verify, volumes
from cayleypoly.exact import format_rational
from cayleypoly.forests import fiber_masks
from cayleypoly.geometry import VertexTable, family_parameters
from cayleypoly.verify import RationalLCG, _partition_certificate, interior_sample_drawer, plan

from oracles import AffineForm, LabeledGraph, contains, hrep_forms, hrep_from_forms, nfs, point_keys

HALF = Fraction(1, 2)


def _chains(family, n, q, t):
    """The chain H-reps of the family's triangulation of R^n: the table's
    coprime chain rows, over scale 1."""
    table = VertexTable(n + 1, q, t)
    return [HRep(n, 1, table.chain_rows(f)) for f in get_family(family).labeled_cells(n)]


def _pieces(family, n, q, t):
    """The pieces of the family's subdivision of R^n."""
    table = VertexTable(n + 1, q, t)
    return [table.piece(pf) for pf in get_family(family).plane_cells(n)]


def _first_point(draw):
    """The drawer's next point, as (numerators, scale)."""
    columns, scale = draw(1)
    return [column[0] for column in columns], scale


def sample_interior_point(family, n, q, t, rng):
    """One exact rational point strictly inside the family polytope, drawn
    coordinate by coordinate in Fraction arithmetic: the reference for
    interior_sample_drawer.

    Coordinates are drawn left to right, each strictly between its lower
    bound and the minimum of its currently active upper bounds.  For the
    Tutte system that minimum over j <= i is
    (1+t) x_{i-1} - (t(1-q)/q) (1 - min(x_0, ..., x_{i-1})),  x_0 = 1,
    with lower bound 1-q; at q = 1 this is the (t-)Gayley chain
    0 <= x_i <= (1+t) x_{i-1}.  A connected family has lower bound 1 and
    upper bound (1+t) x_{i-1}.
    """
    w = 1 + t
    connected = get_family(family).connected
    lo = Fraction(1) if connected else 1 - q
    slack = 0 if connected or q == 1 else t * (1 - q) / q
    lowest = prev = Fraction(1)
    x = []
    for _ in range(n):
        hi = w * prev - slack * (1 - lowest) if slack else w * prev
        prev = lo + Fraction(rng.numerators(1)[0], rng.denominator) * (hi - lo)
        lowest = min(lowest, prev)
        x.append(prev)
    return tuple(x)


# Each job's verdict as it was once written out by hand, one conjunction
# per kind: the reference for VerificationReport.passed, which derives it
# from the checks.
def _cell_job_passed(report):
    c = report.checks
    return (
        c["cell_count"]["got"] == c["cell_count"]["expected"]
        and c["vertex_containment"]["ok"]
        and c["volume_sum"]["ok"]
        and c["sampling"]["ok"]
    )


_REFERENCE_VERDICTS = {
    "triangulation": _cell_job_passed,
    "subdivision": _cell_job_passed,
    "refinement": lambda r: (
        r.checks["vertex_containment"]["ok"]
        and r.checks["shape_multiplicities"]["ok"]
        and r.checks["piece_volume_refines"]["ok"]
    ),
    "specializations": lambda r: all(entry["ok"] for entry in r.checks.values()),
    "piece-constructions": lambda r: r.counterexample is None,
    "fiber": lambda r: (
        r.counterexample is None
        and r.checks["graphs_swept"]["got"] == r.checks["graphs_swept"]["expected"]
        and r.checks["distinct_forests"]["got"] == r.checks["distinct_forests"]["expected"]
    ),
}


def _assert_reference_verdict(report):
    assert report.passed == _REFERENCE_VERDICTS[report.kind](report), report.to_json_obj()


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
def test_passing_verdicts_match_the_reference(q, t):
    reports = [job() for job in plan("all", 3, q=q, t=t, samples=20)]
    assert {r.kind for r in reports} == set(_REFERENCE_VERDICTS)
    for report in reports:
        assert report.passed
        _assert_reference_verdict(report)


@pytest.mark.parametrize(
    "checks,passed",
    [
        ({}, True),
        ({"a": {"got": 3, "expected": 3}, "b": {"ok": True}}, True),
        ({"a": {"got": 3, "expected": 4}, "b": {"ok": True}}, False),
        ({"a": {"got": 3, "expected": 3}, "b": {"ok": False}}, False),
        ({"a": {"got": "1/2", "expected": "2/4", "ok": True}}, True),
    ],
)
def test_verdict_is_every_check_holding(checks, passed):
    # An entry holds when its "ok" is true or, without an "ok", when its
    # "got" equals its "expected".
    assert verify.VerificationReport("fiber", None, 1, None, None, None, checks).passed is passed


def test_triangulation_tutte_two():
    report = verify_triangulation("tutte", 2, HALF, 1, samples=300)
    assert report.passed
    assert report.checks["cell_count"] == {"got": 7, "expected": 7}
    assert report.checks["volume_sum"]["got"] == "23/4"


def test_triangulation_cayley_three():
    report = verify_triangulation("cayley", 3, samples=300)
    assert report.passed
    assert report.checks["cell_count"] == {"got": 16, "expected": 16}
    assert report.checks["volume_sum"]["got"] == "38"


def test_triangulation_gayley_two():
    report = verify_triangulation("gayley", 2, samples=300)
    assert report.passed
    assert report.checks["volume_sum"]["got"] == "8"


def test_subdivision_counts():
    report = verify_subdivision("tutte", 2, HALF, 1, samples=300)
    assert report.passed
    assert report.checks["cell_count"] == {"got": 5, "expected": 5}
    report = verify_subdivision("cayley", 3, samples=300)
    assert report.passed
    assert report.checks["cell_count"] == {"got": 5, "expected": 5}


def test_refinement_multiplicity_examples():
    report = verify_refinement("cayley", 3)
    assert report.passed
    # Spot-check two shapes: the plane star admits one consistent
    # labeling, the plane path six.
    from cayleypoly import PlaneForest

    star = PlaneForest.from_degree_sequence([3, 0, 0, 0])
    path = PlaneForest.from_degree_sequence([1, 1, 1, 0])
    assert star.labeled_forest_count() == 1
    assert path.labeled_forest_count() == 6


def test_refinement_tutte():
    assert verify_refinement("tutte", 3, Fraction(1, 3), 2).passed


def test_t_family_at_t_two():
    assert verify_triangulation("tgayley", 3, t=2, samples=250).passed
    assert verify_subdivision("tcayley", 3, t=2, samples=250).passed


def test_specializations():
    for n in (1, 2, 3):
        report = verify_specializations(n)
        assert report.passed, report.checks


def test_specializations_check_the_sweep_against_the_recursion(monkeypatch):
    # A fake connected graph with no edge in the subgraph sweep: the
    # sweep's q^0 part must then disagree with the connected-graph
    # function, which the recursion computes without the sweep.
    sweep = volumes.subgraph_tally

    def one_fake_graph(n):
        tally = dict(sweep(n))
        tally[1, 0] = tally.get((1, 0), 0) + 1
        return tally

    monkeypatch.setattr(volumes, "subgraph_tally", one_fake_graph)
    report = verify_specializations(2)
    assert not report.passed
    assert report.checks["z_q0_coefficient_is_connected_gf"] == {"ok": False}


def test_specializations_run_the_vertex_oracle_three_times(monkeypatch):
    # tutte at (1, 1) and gayley are one H-rep, so the oracle runs on
    # gayley, tcayley and tutte only.
    calls = []
    oracle = verify.enumerate_hrep_vertices
    monkeypatch.setattr(verify, "enumerate_hrep_vertices", lambda hrep: calls.append(hrep) or oracle(hrep))
    assert verify_specializations(3).passed
    assert len(calls) == 3


def test_specializations_compare_the_tutte_and_gayley_hreps(monkeypatch):
    build = verify.build_hrep

    def other_tutte(family, n, q=None, t=None):
        return build(family, n, HALF, t) if (family, q, t) == ("tutte", 1, 1) else build(family, n, q, t)

    monkeypatch.setattr(verify, "build_hrep", other_tutte)
    report = verify_specializations(2)
    assert report.checks["tutte_q1_t1_is_gayley"] == {"ok": False}


def test_piece_constructions():
    for n in (1, 2, 3):
        assert verify_piece_constructions(n).passed


def test_fiber_small():
    for nodes in (1, 2, 3, 4, 5):
        report = verify_fiber(nodes)
        assert report.passed


def test_reports_are_deterministic():
    a = verify_triangulation("tutte", 2, HALF, 1, samples=120, seed=99)
    b = verify_triangulation("tutte", 2, HALF, 1, samples=120, seed=99)
    assert json.dumps(a.to_json_obj(), sort_keys=True) == json.dumps(b.to_json_obj(), sort_keys=True)


def test_desk_scale_guard():
    with pytest.raises(ValueError):
        verify_triangulation("tutte", 6, HALF, 1)


def test_interior_sampler_stays_strictly_inside():
    rng = RationalLCG(7)
    for family in ("cayley", "gayley", "tcayley", "tgayley", "tutte"):
        hrep = build_hrep(family, 3, HALF, 1)
        q_eff = HALF if family == "tutte" else Fraction(1)
        for _ in range(50):
            p = sample_interior_point(family, 3, q_eff, Fraction(1), rng)
            assert contains(hrep, p, strict=True)


@pytest.mark.parametrize("seed", [7, 11, 20240605, 2**64 + 3])
@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
@pytest.mark.parametrize("family", FAMILIES)
def test_integer_stream_matches_fraction_sampler(family, q, t, seed):
    fam, q_eff, t_eff = family_parameters(family, q, t)
    for n in range(1, 6):
        rng, reference_rng = RationalLCG(seed), RationalLCG(seed)
        draw = interior_sample_drawer(fam, n, q_eff, t_eff, rng)
        for _ in range(40):
            numerators, scale = _first_point(draw)
            assert scale > 0 and len(numerators) == n
            point = tuple(Fraction(v, scale) for v in numerators)
            assert point == sample_interior_point(family, n, q_eff, t_eff, reference_rng)
            assert rng.state == reference_rng.state


@pytest.mark.parametrize("seed", [7, 2**64 + 3])
@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
@pytest.mark.parametrize("family", FAMILIES)
def test_sample_batches_match_fraction_sampler(family, q, t, seed):
    # Batches of any sizes, in a row, draw the points the reference draws
    # one at a time, and leave the generator where the reference leaves it.
    fam, q_eff, t_eff = family_parameters(family, q, t)
    for n in range(1, 6):
        rng, reference_rng = RationalLCG(seed), RationalLCG(seed)
        draw = interior_sample_drawer(fam, n, q_eff, t_eff, rng)
        for size in (1, 2, 7, 1024):
            columns, scale = draw(size)
            assert scale > 0 and len(columns) == n and all(len(column) == size for column in columns)
            for numerators in zip(*columns):
                point = tuple(Fraction(v, scale) for v in numerators)
                assert point == sample_interior_point(family, n, q_eff, t_eff, reference_rng)
            assert rng.state == reference_rng.state


# sha256 of the first 200 (numerators, scale) draws of the integer sample
# drawer at the default seed, for each family and n = 1..5, at (1/2, 1)
# then (37/101, 53/17): the points every partition certificate classifies.
_SAMPLE_STREAM_SHA256 = "bbd4545a18c3360d9d4dc051acbdfe71057713ca0633a907730d850b215dc975"


def test_sample_stream_draws_keep_their_bytes():
    digest = hashlib.sha256()
    for q, t in ((HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))):
        for family in FAMILIES:
            fam, q_eff, t_eff = family_parameters(family, q, t)
            for n in range(1, 6):
                draw = interior_sample_drawer(fam, n, q_eff, t_eff, RationalLCG(verify.DEFAULT_SEED))
                columns, scale = draw(200)
                for numerators in zip(*columns):
                    digest.update(f"{family} {n} {list(numerators)} {scale}\n".encode("ascii"))
    assert digest.hexdigest() == _SAMPLE_STREAM_SHA256


def test_sampler_deterministic():
    a = [sample_interior_point("tutte", 2, HALF, Fraction(1), RationalLCG(5)) for _ in range(1)]
    b = [sample_interior_point("tutte", 2, HALF, Fraction(1), RationalLCG(5)) for _ in range(1)]
    assert a == b


def solve_linear_system(a_rows, b_vec):
    """Solve A x = b for square A by Gauss-Jordan elimination in Fraction
    arithmetic; None when A is singular."""
    n = len(a_rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(a_rows, b_vec)]
    for col in range(n):
        found = next((r for r in range(col, n) if m[r][col]), None)
        if found is None:
            return None
        m[col], m[found] = m[found], m[col]
        top = [x / m[col][col] for x in m[col]]
        m[col] = top
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], top)]
    return tuple(row[n] for row in m)


def reference_hrep_vertices(hrep):
    """enumerate_hrep_vertices in Fraction arithmetic: each n-subset of
    forms taken tight is solved, and a solution is kept when every form is
    >= 0 at it.  Gives Fraction points; compare them through `point_keys`."""
    found = set()
    forms = hrep_forms(hrep)
    for subset in combinations(forms, hrep.dimension):
        x = solve_linear_system([f.coefficients for f in subset], [-f.constant for f in subset])
        if x is not None and all(f.evaluate(x) >= 0 for f in forms):
            found.add(x)
    return tuple(sorted(found))


@st.composite
def small_integer_hreps(draw):
    """(n, rows) in dimensions 1 to 3, each row [b, a_1, ..., a_n] for
    b + a.x >= 0; up to two more rows repeat an earlier row times 1, 2 or -1."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1), max_size=6))
    if rows:
        for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
            factor = draw(st.sampled_from([1, 2, -1]))
            rows.append([factor * a for a in rows[k]])
    return n, rows


@settings(max_examples=300, deadline=None)
@given(small_integer_hreps())
@example((2, [[0, 1, 0], [0, 1, 0], [0, 0, 1], [2, -1, -1]]))  # duplicate rows
@example((2, [[0, 1, 0], [0, -1, 0], [0, 0, 1], [3, -1, -1]]))  # a row and its negation
@example((2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, -1, -1]]))  # a zero linear part
@example((2, [[-1, 0, 0], [0, 1, 0], [0, 0, 1], [2, -1, -1]]))  # the same, never satisfied
@example((3, [[0, 1, 0, 0], [0, 0, 1, 0]]))  # fewer rows than the dimension
@example((1, []))
def test_vertex_oracle_matches_fraction_solver_on_random_hreps(case):
    n, rows = case
    hrep = hrep_from_forms(n, [AffineForm(Fraction(b), tuple(map(Fraction, a))) for b, *a in rows])
    assert enumerate_hrep_vertices(hrep) == point_keys(reference_hrep_vertices(hrep))


def test_hrep_vertex_oracle_on_orthoscheme():
    hrep = build_hrep("gayley", 3)
    expected = point_keys([(0, 0, 0), (2, 0, 0), (2, 4, 0), (2, 4, 8)])
    assert enumerate_hrep_vertices(hrep) == expected


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
def test_vertex_oracle_matches_fraction_solver(q, t):
    checked = 0
    for n in (1, 2, 3):
        for family in FAMILIES:
            hrep = build_hrep(family, n, q, t)
            assert enumerate_hrep_vertices(hrep) == point_keys(reference_hrep_vertices(hrep))
            checked += 1
        for pf in enumerate_plane_forests(n + 1):
            for piece in (VertexTable(n + 1, q, t).piece(pf), piece_for_plane_forest_via_cones(pf, q, t)):
                vertices = enumerate_hrep_vertices(piece)
                assert vertices == point_keys(reference_hrep_vertices(piece))
                # A full-dimensional piece has more than n vertices; this
                # keeps two empty vertex sets from comparing equal.
                assert len(vertices) > n
                checked += 1
    assert checked == 57


@pytest.mark.parametrize(
    "call,message",
    [
        # One tree: no cone is built, so only the parameter check rejects q.
        (lambda: piece_for_plane_forest_via_cones(PlaneForest.from_text("1,0"), 0, 0), "q must lie in (0, 1], got 0"),
        (lambda: piece_for_plane_forest_via_cones(PlaneForest.from_text("0,0"), 0, 0), "q must lie in (0, 1], got 0"),
        (lambda: verify_piece_constructions(2, 0, 0), "q must lie in (0, 1], got 0"),
        (lambda: verify_specializations(2, 1, 0), "t must be positive, got 0"),
    ],
)
def test_library_parameter_checks_keep_their_messages(call, message):
    with pytest.raises(ParameterDomainError) as raised:
        call()
    assert str(raised.value) == message


def test_vertex_oracle_skips_singular_subsets():
    # The square [0, 2]^2 with its corner (2, 2) cut by x + y <= 3, given
    # with a duplicate row, a positive multiple of a row and a redundant
    # parallel row: every subset of those rows is singular.
    x_lower = AffineForm.linear(2, 1)
    forms = (
        x_lower,
        x_lower,
        x_lower + x_lower + x_lower,
        AffineForm.linear(2, 1, -1, 2),
        AffineForm.linear(2, 1, -1, 3),
        AffineForm.linear(2, 2),
        AffineForm.linear(2, 2, -1, 2),
        AffineForm(Fraction(3), (Fraction(-1), Fraction(-1))),
    )
    hrep = hrep_from_forms(2, forms)
    vertices = enumerate_hrep_vertices(hrep)
    assert vertices == point_keys(reference_hrep_vertices(hrep))
    assert vertices == point_keys((Fraction(a), Fraction(b)) for a, b in ((0, 0), (2, 0), (0, 2), (2, 1), (1, 2)))


def test_partition_failure_carries_witness():
    # Feeding overlapping cells (the polytope twice) must produce a
    # failure report with the offending point attached.
    polytope = build_hrep("tutte", 2, HALF, 1)
    result = _certify("tutte", 2, HALF, Fraction(1), [polytope, polytope], 20, 7)
    assert not result["ok"]
    assert result["failure"]["cells_containing"] == 2
    assert len(result["failure"]["point"]) == 2


def test_partition_failure_names_an_uncovered_point():
    # Dropping one simplex leaves its interior in no cell.
    chains = _chains("tutte", 2, HALF, 1)
    result = _certify("tutte", 2, HALF, Fraction(1), chains[1:], 200, 7)
    assert not result["ok"]
    assert result["failure"]["cells_containing"] == 0


def _certify(family, n, q, t, hreps, samples, seed):
    """_partition_certificate on the H-reps' integer rows, the cells as the
    jobs pass them."""
    return _partition_certificate(get_family(family), n, q, t, [h.integer_rows for h in hreps], samples, seed)


def _reference_certificate(family, n, q, t, hreps, samples, seed):
    """_partition_certificate cell by cell in Fraction arithmetic."""
    rng = RationalLCG(seed)
    accepted = discarded = 0
    failure = None
    attempts_left = 60 * samples
    while accepted < samples and attempts_left > 0:
        attempts_left -= 1
        point = sample_interior_point(family, n, q, t, rng)
        statuses = []
        for hrep in hreps:
            lowest = min(form.evaluate(point) for form in hrep_forms(hrep))
            statuses.append(-1 if lowest < 0 else 0 if lowest == 0 else 1)
        if 0 in statuses:
            discarded += 1
            continue
        accepted += 1
        if statuses.count(1) != 1:
            failure = {"point": [format_rational(x) for x in point], "cells_containing": statuses.count(1)}
            break
    return {
        "samples": accepted,
        "discarded_non_generic": discarded,
        "ok": failure is None and accepted == samples,
        "failure": failure,
    }


def _with_constant_row(hrep: HRep, constant: int) -> HRep:
    """The H-rep with the extra row constant >= 0: it holds everywhere for
    a positive constant, is zero everywhere for 0 (every point is on the
    cell's boundary) and fails everywhere for a negative one."""
    return hrep_from_forms(hrep.dimension, hrep_forms(hrep) + (AffineForm.constant_form(hrep.dimension, constant),))


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_partition_certificate_matches_per_cell_reference(family, n, q, t):
    _, q_eff, t_eff = family_parameters(family, q, t)
    pieces = _pieces(family, n, q_eff, t_eff)
    # At n = 4 the pieces stand in for the simplices, too many cells for
    # the Fraction reference.
    cells = _chains(family, n, q_eff, t_eff) if n < 4 else pieces
    # Faulty cell lists: one cell missing, one cell twice, and one cell with
    # a zero row, which puts every sample inside that cell on its boundary.
    faulty = [cells[1:], pieces + pieces[:1], [*cells[:-1], _with_constant_row(cells[-1], 0)]]
    for hreps in [cells, *faulty] + ([pieces] if n < 4 else []):
        args = (family, n, q_eff, t_eff, hreps, 80, 11)
        assert _certify(*args) == _reference_certificate(*args)


# The batch edges of the certificate, each against the Fraction reference.


def test_partition_certificate_when_every_sample_is_discarded():
    # Every cell has a zero row, so each sample is on the boundary of the
    # cell holding it: every one of the 60 * samples attempts is discarded.
    cells = [_with_constant_row(chain, 0) for chain in _chains("tutte", 2, HALF, 1)]
    args = ("tutte", 2, HALF, Fraction(1), cells, 40, 11)
    result = _certify(*args)
    assert result == _reference_certificate(*args)
    assert result == {"samples": 0, "discarded_non_generic": 2400, "ok": False, "failure": None}


def test_partition_certificate_fails_in_a_later_batch_after_discards(monkeypatch):
    # Batches of 8 samples put the failure a few batches in.
    monkeypatch.setattr(verify, "BATCH", 8)
    family, n, q, t = "tutte", 2, HALF, Fraction(1)
    columns, scale = interior_sample_drawer(get_family(family), n, q, t, RationalLCG(11))(12)
    first_x1 = [Fraction(x1, scale) for x1 in columns[0]]
    # The first sample is on the boundary of both halves, so it is
    # discarded; above the largest x_1 of the first 12 samples no cell is
    # left, so a later sample fails, in no cell.
    below, above = _halves_at_x1(build_hrep(family, n, q, t), first_x1[0])
    cells = [below, _cut_x1(above, max(first_x1))]
    args = (family, n, q, t, cells, 80, 11)
    result = _certify(*args)
    assert result == _reference_certificate(*args)
    assert result["discarded_non_generic"] >= 1
    assert result["samples"] > verify.BATCH
    assert result["failure"]["cells_containing"] == 0


@pytest.mark.parametrize("family", ["tutte", "cayley"])
def test_partition_certificate_over_more_than_two_batches(family):
    _, q_eff, t_eff = family_parameters(family, HALF, Fraction(1))
    cells = _chains(family, 2, q_eff, t_eff)
    args = (family, 2, q_eff, t_eff, cells, 2 * verify.BATCH + 3, 11)
    result = _certify(*args)
    assert result == _reference_certificate(*args)
    assert result["ok"] and result["samples"] == 2 * verify.BATCH + 3


@pytest.mark.parametrize("constant", [1, -1])
@pytest.mark.parametrize("family,n", [("tutte", 2), ("cayley", 3)])
def test_partition_certificate_with_a_constant_row(family, n, constant):
    # A row with no terms has one value at every sample: the cell is
    # unchanged for 1, and empty for -1, which leaves its samples in no cell.
    _, q_eff, t_eff = family_parameters(family, HALF, Fraction(1))
    cells = _chains(family, n, q_eff, t_eff)
    cells[1] = _with_constant_row(cells[1], constant)
    args = (family, n, q_eff, t_eff, cells, 200, 11)
    result = _certify(*args)
    assert result == _reference_certificate(*args)
    assert result["ok"] is (constant > 0)


@pytest.mark.parametrize("family", FAMILIES)
def test_partition_certificate_at_huge_denominators(family):
    # The widest lanes: (q, t) with four-digit prime denominators at n = 3.
    _, q_eff, t_eff = family_parameters(family, Fraction(9973, 10007), Fraction(7919, 7907))
    simplices = _chains(family, 3, q_eff, t_eff)
    pieces = _pieces(family, 3, q_eff, t_eff)
    for cells in (simplices, pieces, simplices[1:]):
        args = (family, 3, q_eff, t_eff, cells, 120, 11)
        assert _certify(*args) == _reference_certificate(*args)


def _halves_at_x1(hrep: HRep, bound: Fraction) -> tuple[HRep, HRep]:
    """hrep cut in two by the hyperplane x_1 = bound, which the halves
    have in opposite orientations."""
    n = hrep.dimension
    below, above = (AffineForm.linear(n, 1, sign, -sign * bound) for sign in (-1, 1))
    return hrep_from_forms(n, hrep_forms(hrep) + (below,)), hrep_from_forms(n, hrep_forms(hrep) + (above,))


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
@pytest.mark.parametrize("family,n", [("tutte", 2), ("cayley", 3), ("tgayley", 3)])
def test_partition_certificate_on_a_hyperplane_in_both_orientations(family, n, q, t):
    # Cut at a generic bound, the two halves tile the polytope; one half
    # twice overlaps.  Cut through the first sample, that sample lies on
    # the boundary of both halves and is discarded.
    fam, q_eff, t_eff = family_parameters(family, q, t)
    polytope = build_hrep(family, n, q_eff, t_eff)
    numerators, scale = _first_point(interior_sample_drawer(fam, n, q_eff, t_eff, RationalLCG(11)))
    first_x1 = Fraction(numerators[0], scale)
    generic = (first_x1 + (1 + t_eff)) / 2
    for bound in (generic, first_x1):
        below, above = _halves_at_x1(polytope, bound)
        for cells in ([below, above], [below, below]):
            args = (family, n, q_eff, t_eff, cells, 80, 11)
            result = _certify(*args)
            assert result == _reference_certificate(*args)
            assert result["ok"] is (cells[1] is above)
            if bound == first_x1:
                assert result["discarded_non_generic"] >= 1


def _cut_x1(hrep: HRep, bound: Fraction) -> HRep:
    """The H-rep with the extra row bound - x_1 >= 0."""
    return hrep_from_forms(hrep.dimension, hrep_forms(hrep) + (AffineForm.linear(hrep.dimension, 1, -1, bound),))


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
@pytest.mark.parametrize("family,n", [("tutte", 3), ("cayley", 3), ("tgayley", 4)])
def test_vertex_containment_failure_matches_fraction_reference(monkeypatch, family, n, q, t):
    # Cut P below its largest x_1, so some table vertices leave it: the
    # counterexample is the first forest and vertex in enumeration order,
    # as the Fraction simplices give it.
    _, q_eff, t_eff = family_parameters(family, q, t)
    cut = _cut_x1(build_hrep(family, n, q_eff, t_eff), (1 + t_eff) * Fraction(9, 10))
    forests = list(get_family(family).labeled_cells(n))
    table = VertexTable(n + 1, q_eff, t_eff)
    f, v = next(
        (f, v)
        for f in forests
        for v in [table.point(k) for k in table.add(f)]
        if not contains(cut, v)
    )
    expected = {"forest": f.to_parent_text(), "vertex": [format_rational(x) for x in v]}
    monkeypatch.setattr(geometry.Family, "hrep", lambda self, *args: cut)
    report = verify_triangulation(family, n, q, t, samples=20)
    assert not report.passed
    _assert_reference_verdict(report)
    assert report.checks["vertex_containment"] == {"ok": False}
    assert report.counterexample == expected
    sub = verify_subdivision(family, n, q, t, samples=20)
    assert not sub.passed
    _assert_reference_verdict(sub)
    assert sub.checks["vertex_containment"] == {"ok": False}


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
def test_refinement_containment_failure_matches_fraction_reference(monkeypatch, q, t):
    # Cut one shape's piece below the largest x_1: the first forest whose
    # simplex leaves its shape's piece is the Fraction path's.  A vertex
    # of a cut shape's simplex may already have been tested, and passed,
    # in the piece of another shape.  The job reads the pieces' integer
    # rows, so the cut goes in there, as the cut form's integer row.
    n = 3
    bound = (1 + t) * Fraction(9, 10)
    build_rows = geometry.VertexTable.piece_rows
    forests = list(enumerate_labeled_forests(n + 1))
    failures = 0
    for cut_shape in enumerate_plane_forests(n + 1):

        def piece_rows(table, pf):
            rows = build_rows(table, pf)
            if pf != cut_shape:
                return rows
            return rows + _cut_x1(HRep(n, 1, ()), bound).integer_rows

        table = geometry.VertexTable(n + 1, q, t)
        reference = {pf: table.piece(pf) for pf in enumerate_plane_forests(n + 1)}
        reference[cut_shape] = _cut_x1(reference[cut_shape], bound)
        bad = [f for f in forests if not all(contains(reference[f.shape], table.point(k)) for k in table.add(f))]
        monkeypatch.setattr(geometry.VertexTable, "piece_rows", piece_rows)
        report = verify_refinement("tutte", n, q, t)
        _assert_reference_verdict(report)
        assert report.checks["vertex_containment"] == {"ok": not bad}
        if bad:
            failures += 1
            assert report.counterexample == {"forest": bad[0].to_parent_text(), "shape": cut_shape.to_text()}
    assert failures >= 3


def _middle_shape(family, n):
    shapes = list(get_family(family).plane_cells(n))
    return shapes[len(shapes) // 2]


@pytest.mark.parametrize("family", ["tutte", "cayley"])
def test_refinement_volume_failure_names_the_shape(monkeypatch, family):
    # One more power of 1+t in one shape's piece: that piece's volume no
    # longer matches the sum over its simplices.
    target = _middle_shape(family, 3)
    tally = verify.piece_tally

    def shifted(plane_forests):
        plane_forests = tuple(plane_forests)
        out = tally(plane_forests)
        if plane_forests == (target,):
            out = Counter({(a, b, k + 1): c for (a, b, k), c in out.items()})
        return out

    monkeypatch.setattr(verify, "piece_tally", shifted)
    report = verify_refinement(family, 3)
    assert not report.passed
    _assert_reference_verdict(report)
    assert report.checks["shape_multiplicities"] == {"ok": True}
    assert report.checks["piece_volume_refines"] == {"ok": False}
    assert report.counterexample == {"shape": target.to_text(), "mismatch": "volume"}


@pytest.mark.parametrize("family", ["tutte", "cayley"])
def test_refinement_count_failure_names_the_shape(monkeypatch, family):
    # One shape claims one labeled forest more than it has.
    target = _middle_shape(family, 3)
    count = PlaneForest.labeled_forest_count
    monkeypatch.setattr(PlaneForest, "labeled_forest_count", lambda pf: count(pf) + (pf == target))
    report = verify_refinement(family, 3)
    assert not report.passed
    _assert_reference_verdict(report)
    assert report.checks["shape_multiplicities"] == {"ok": False}
    expected = count(target)
    assert report.counterexample == {"shape": target.to_text(), "got": expected, "expected": expected + 1}


def test_closed_forms_stay_tallies_until_reported(monkeypatch):
    # The recursion expands its one result; the fiber and refinement jobs
    # compare tallies and build no polynomial.
    built = []
    init = BivariatePolynomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BivariatePolynomial, "__init__", counting_init)
    for call, polynomials in (
        (lambda: connected_gf(20, "recursion"), 1),
        (lambda: verify_fiber(4), 0),
        (lambda: verify_refinement("tutte", 3), 0),
    ):
        built.clear()
        call()
        assert len(built) == polynomials


def test_cell_jobs_build_no_fraction_simplex(monkeypatch):
    # Triangulation, subdivision and refinement read the integer vertex
    # table, the only simplex builder, at large denominators, and their
    # cells are the table's coprime rows: no cell H-rep and no text is
    # built.
    def no_cell(*args):
        raise AssertionError(f"a cell job built an H-rep or a text from {args[1:]}")

    monkeypatch.setattr(geometry.VertexTable, "piece", no_cell)
    monkeypatch.setattr(geometry.VertexTable, "piece_texts", no_cell)
    monkeypatch.setattr(geometry.VertexTable, "_text", no_cell)
    monkeypatch.setattr(geometry.HRep, "texts", no_cell)
    monkeypatch.setattr(geometry, "form_texts", no_cell)
    q, t = Fraction(37, 101), Fraction(53, 17)
    for family in FAMILIES:
        assert verify_triangulation(family, 3, q, t, samples=20).passed
        assert verify_subdivision(family, 3, q, t, samples=20).passed
        assert verify_refinement(family, 3, q, t).passed


def _fiber_by_sweep(node_count):
    """verify_fiber by the exhaustive sweep: the reference for generation.

    Groups every edge mask by its NFS forest, and compares each group with
    fiber_masks of that forest and its (component, edge) tally with the
    forest's closed-form simplex volume.
    """
    total_masks = 1 << (node_count * (node_count - 1) // 2)
    grouped = {}
    for mask in range(total_masks):
        g = LabeledGraph(node_count, mask)
        f = nfs(g)
        key = tuple(f.parent.get(v, 0) for v in range(1, node_count + 1))
        grouped.setdefault(key, []).append((mask, f.component_count(), g.edge_count()))
    counterexample = None
    for key, members in grouped.items():
        f = LabeledForest(node_count, {v: p for v, p in enumerate(key, start=1) if p})
        if {mask for mask, _, _ in members} != set(fiber_masks(f)):
            counterexample = {"forest": f.to_parent_text(), "reason": "fiber set mismatch"}
            break
        weighted = BivariatePolynomial(((k - 1, e), 1) for _, k, e in members)
        if weighted != closed_form_simplex_total((f,)):
            counterexample = {"forest": f.to_parent_text(), "reason": "weighted fiber mismatch"}
            break
    expected_forests = count_labeled_forests(node_count)
    checks = {
        "graphs_swept": {"got": sum(len(v) for v in grouped.values()), "expected": total_masks},
        "distinct_forests": {"got": len(grouped), "expected": expected_forests},
        "fibers": {"ok": counterexample is None},
    }
    return verify.VerificationReport("fiber", None, node_count - 1, None, None, None, checks, counterexample)


@pytest.mark.parametrize("nodes", [1, 2, 3, 4, 5])
def test_fiber_generation_matches_sweep(nodes):
    assert verify_fiber(nodes).to_json_obj() == _fiber_by_sweep(nodes).to_json_obj()


def _drop_last_mask(masks):
    return masks[:-1] if len(masks) > 1 else masks


def _add_outside_mask(masks):
    # 64 masks: the graphs on the 4 nodes of verify_fiber(4).
    return masks + [next(m for m in range(64) if m not in masks)]


def _first_forest_twice(forests):
    forests = list(forests)
    return [forests[0], *forests]


def _swap_first_labels(walk):
    # On 4 nodes every walk has two entries to swap the labels of.
    (a, *rest_a), (b, *rest_b), *tail = walk
    return [(b, *rest_a), (a, *rest_b), *tail]


@pytest.mark.parametrize(
    "name,wrap,reason",
    [
        ("fiber_masks", lambda fn: lambda f: _drop_last_mask(fn(f)), "weighted fiber mismatch"),
        ("fiber_masks", lambda fn: lambda f: _add_outside_mask(fn(f)), "fiber set mismatch"),
        (
            "simplex_tally",
            lambda fn: lambda fs: fn(fs) + Counter({(0, 0, 0): sum(len(f.parent) == 2 for f in fs)}),
            "weighted fiber mismatch",
        ),
        (
            "enumerate_labeled_forests",
            lambda fn: lambda n: _first_forest_twice(fn(n)),
            "mask generated twice",
        ),
        (
            "graph_walk",
            lambda fn: lambda n, adjacency: _swap_first_labels(fn(n, adjacency)),
            "fiber set mismatch",
        ),
    ],
    ids=["missing-mask", "foreign-mask", "wrong-volume", "repeated-forest", "wrong-walk"],
)
def test_fiber_certificate_failures_carry_a_forest(monkeypatch, name, wrap, reason):
    monkeypatch.setattr(verify, name, wrap(getattr(verify, name)))
    report = verify_fiber(4)
    assert not report.passed
    _assert_reference_verdict(report)
    assert report.counterexample["reason"] == reason
    assert report.checks["fibers"] == {"ok": False}


def test_jobs_that_would_check_nothing_are_domain_errors():
    # Each call below would otherwise pass with no cell, sample or job checked.
    with pytest.raises(ParameterDomainError):
        plan("all", 0)
    with pytest.raises(ParameterDomainError):
        verify_refinement("tutte", 0)
    with pytest.raises(ParameterDomainError):
        verify_piece_constructions(0)
    for job in (verify_triangulation, verify_subdivision):
        with pytest.raises(ParameterDomainError):
            job("tutte", 2, HALF, 1, samples=0)
