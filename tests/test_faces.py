"""Vertex sets, face lattices, f-vectors, and the edge/2-face formulas."""

import math
import re
from fractions import Fraction

import pytest

from cayleypoly import FAMILIES, build_hrep, enumerate_hrep_vertices, face_lattice, tutte_f_vector, vertex_set
from cayleypoly.exact import clear_denominators, eliminate, format_rational
from cayleypoly.faces import FaceLattice, InconsistentGeometryError, _contact_masks, chain_vertices
from cayleypoly.geometry import ParameterDomainError
from cayleypoly.verify import vertex_keys

from oracles import (
    AffineForm,
    conjecture_check,
    contains,
    edge_count_formula,
    fraction_points,
    hrep_forms,
    hrep_from_forms,
    two_face_count_formula,
    vertex_set_of,
    vertices_are_extreme,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

F_VECTORS = {
    1: (2,),
    2: (4, 4),
    3: (8, 13, 7),
    4: (16, 37, 32, 11),
    5: (32, 97, 117, 66, 16),
    6: (64, 241, 375, 297, 121, 22),
    7: (128, 577, 1103, 1130, 653, 204, 29),
    8: (256, 1345, 3055, 3850, 2894, 1296, 323, 37),
}


# ----------------------------------------------------------------------
# Closed-form vertex sets
# ----------------------------------------------------------------------


def test_cayley_vertex_table():
    t = Fraction(2)
    w = 1 + t
    vs = vertex_set("tcayley", 3, t=t)
    assert set(fraction_points(vs)) == {
        (w, w**2, w**3), (w, w**2, 1), (w, 1, w), (w, 1, 1),
        (1, w, w**2), (1, w, 1), (1, 1, w), (1, 1, 1),
    }
    assert len(vs.points) == 8


def test_cayley_vertices_one_dim():
    vs = vertex_set("tcayley", 1, t=Fraction(3))
    assert set(fraction_points(vs)) == {(Fraction(1),), (Fraction(4),)}


def test_tutte_vertex_table():
    q, t = THIRD, Fraction(2)
    w, mq = 1 + t, 1 - q
    vs = vertex_set("tutte", 3, q, t)
    assert set(fraction_points(vs)) == {
        (w, w**2, w**3), (w, w**2, mq), (w, 1, w), (w, mq, mq),
        (1, w, w**2), (1, w, mq), (1, 1, w), (mq, mq, mq),
    }


def test_tutte_vertices_trailing_replacement():
    q, t = HALF, Fraction(1)
    vs = vertex_set("tutte", 4, q, t)
    by_name = dict(zip(vs.provenance, fraction_points(vs)))
    w, mq = 2, HALF
    assert by_name["S={}"] == (mq, mq, mq, mq)
    assert by_name["S={1,3}"] == (w, 1, w, mq)
    assert by_name["S={2,3,4}"] == (1, w, w**2, w**3)


def test_vertex_counts_and_distinctness():
    for n in range(1, 7):
        vs = vertex_set("tutte", n, HALF, 1)
        assert len(vs.points) == 2**n
        assert len(set(vs.points)) == 2**n


def test_vertices_satisfy_hrep():
    for n in range(1, 7):
        hrep = build_hrep("tutte", n, HALF, 1)
        for p in fraction_points(vertex_set("tutte", n, HALF, 1)):
            assert contains(hrep, p)
        tchain = build_hrep("tcayley", n, t=2)
        for p in fraction_points(vertex_set("tcayley", n, t=Fraction(2))):
            assert contains(tchain, p)


def test_vertex_parameter_domains():
    with pytest.raises(ParameterDomainError):
        vertex_set("tutte", 2, 1, 1)  # q = 1 excluded for the vertex theorem
    with pytest.raises(ParameterDomainError):
        vertex_set("tutte", 2, HALF, 0)
    with pytest.raises(ParameterDomainError):
        vertex_set("tcayley", 2, t=0)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("family", FAMILIES)
def test_vertex_sets_need_n_at_least_one(family, n):
    # One message for every family, whichever branch of masks it takes.
    with pytest.raises(ParameterDomainError, match=r"^n must be >= 1$"):
        vertex_set(family, n, HALF, 1)
    if family == "tutte":
        with pytest.raises(ParameterDomainError, match=r"^n must be >= 1$"):
            tutte_f_vector(n, HALF, 1)


# ----------------------------------------------------------------------
# Face lattice
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_f_vector_table(n):
    assert tutte_f_vector(n, HALF, 1) == F_VECTORS[n]


def test_f_vector_table_larger():
    assert tutte_f_vector(7, HALF, 1) == F_VECTORS[7]
    assert tutte_f_vector(8, HALF, 1) == F_VECTORS[8]


def test_f_vector_parameter_independence():
    for n in range(1, 8):
        rows = {
            tutte_f_vector(n, q, t)
            for q, t in ((HALF, Fraction(1)), (THIRD, Fraction(2)), (Fraction(2, 3), Fraction(3)))
        }
        assert rows == {F_VECTORS[n]}


def test_face_lattice_structure():
    vs = vertex_set("tutte", 3, HALF, 1)
    hrep = build_hrep("tutte", 3, HALF, 1)
    lattice = face_lattice(vs, hrep)
    assert lattice.f_vector == (8, 13, 7)
    assert len(lattice.faces_by_dim[2]) == 7
    # Every vertex occurs as a zero-dimensional face: its own bit.
    assert lattice.faces_by_dim[0] == tuple(1 << i for i in range(8))
    for faces in lattice.faces_by_dim.values():
        assert all(a < b for a, b in zip(faces, faces[1:]))


def test_face_lattice_at_n9():
    # No command reaches n = 9 (FVECTOR_MAX_N caps tutte_f_vector), but
    # face_lattice itself has no cap.
    q, t = Fraction(37, 101), Fraction(53, 17)
    lattice = face_lattice(vertex_set("tutte", 9, q, t), build_hrep("tutte", 9, q, t))
    f = lattice.f_vector
    assert f == (512, 3073, 8095, 12130, 11255, 6597, 2381, 487, 46)
    assert f[1] == edge_count_formula(9)
    assert f[2] == two_face_count_formula(9)
    assert len(lattice.faces_by_dim[8]) == math.comb(10, 2) + 1
    assert sum((-1) ** i * x for i, x in enumerate(f)) == 1 + (-1) ** 8


def test_euler_relation():
    for n in range(1, 7):
        f = tutte_f_vector(n, HALF, 1)
        alternating = sum((-1) ** i * x for i, x in enumerate(f))
        assert alternating == 1 + (-1) ** (n - 1)


def test_chain_polytope_is_a_combinatorial_cube():
    # The q -> 0 end of the family is combinatorially a cube, so its
    # f-vector f_k = C(n, k) 2^(n-k) agrees with the two-parameter table
    # only for n <= 2; from n = 3 on the face lattices genuinely differ
    # (12 edges and 6 facets versus 13 and 7 at n = 3).
    for n in range(1, 5):
        vs = vertex_set("tcayley", n, t=Fraction(2))
        hrep = build_hrep("tcayley", n, t=2)
        f = face_lattice(vs, hrep).f_vector
        cube = tuple(math.comb(n, k) * 2 ** (n - k) for k in range(n))
        assert f == cube
        assert (f == F_VECTORS[n]) == (n <= 2)


def _rank_face_lattice(vertices, hrep):
    """The rank-graded lattice: facets are the contact sets of affine
    dimension n-1, faces their intersection closure, each face ranked by
    `eliminate` on its integer vertex differences."""
    n = hrep.dimension
    contact_masks = _contact_masks(vertices, hrep)
    points = fraction_points(vertices)
    coordinates, _ = clear_denominators([x for p in points for x in p])
    int_points = [coordinates[i * n : (i + 1) * n] for i in range(len(points))]

    def dim_of(mask: int) -> int:
        """Affine dimension: the rank of the differences to one member."""
        base, *rest = (p for i, p in enumerate(int_points) if mask >> i & 1)
        return len(eliminate([[a - b for a, b in zip(p, base)] for p in rest])[0])

    facet_masks = sorted(
        {m for m in contact_masks if m and dim_of(m) == n - 1}
    )
    faces: dict[int, int] = {}
    frontier = list(facet_masks)
    for mask in frontier:
        faces[mask] = dim_of(mask)
    while frontier:
        new: list[int] = []
        for mask in frontier:
            for facet in facet_masks:
                meet = mask & facet
                if meet and meet not in faces:
                    faces[meet] = dim_of(meet)
                    new.append(meet)
        frontier = new
    f_vector = [0] * n
    faces_by_dim: dict[int, list[int]] = {d: [] for d in range(n)}
    for mask, dim in faces.items():
        f_vector[dim] += 1
        faces_by_dim[dim].append(mask)
    return FaceLattice(
        dimension=n,
        faces_by_dim={d: tuple(sorted(v)) for d, v in faces_by_dim.items()},
        f_vector=tuple(f_vector),
    )


@pytest.mark.parametrize(
    "q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17)), (THIRD, Fraction(2))]
)
def test_face_lattice_matches_rank_reference(q, t):
    for n in range(1, 8):
        vs = vertex_set("tutte", n, q, t)
        hrep = build_hrep("tutte", n, q, t)
        assert face_lattice(vs, hrep) == _rank_face_lattice(vs, hrep)


@pytest.mark.parametrize("t", [Fraction(2), Fraction(53, 17)])
def test_cube_face_lattice_matches_rank_reference(t):
    for n in range(1, 6):
        vs = vertex_set("tcayley", n, t=t)
        hrep = build_hrep("tcayley", n, t=t)
        assert face_lattice(vs, hrep) == _rank_face_lattice(vs, hrep)


def test_face_lattice_ignores_redundant_rows():
    # Every tutte row is facet-defining; the sum of two rows is valid but
    # touches only their common face, and the zero form touches every
    # vertex.  Neither may be taken for a facet.
    q, t = Fraction(37, 101), Fraction(53, 17)
    for n in range(2, 6):
        vs = vertex_set("tutte", n, q, t)
        hrep = build_hrep("tutte", n, q, t)
        rows = hrep_forms(hrep)
        padded = hrep_from_forms(n, (*rows, rows[0] + rows[-1], rows[1] + rows[2], AffineForm.constant_form(n, 0)))
        lattice = face_lattice(vs, hrep)
        assert len(lattice.faces_by_dim[n - 1]) == len(rows)
        assert face_lattice(vs, padded) == lattice == _rank_face_lattice(vs, padded)


@pytest.mark.parametrize(
    "point", [(Fraction(50), Fraction(50)), (Fraction(101, 3), Fraction(7, 5)), (Fraction(1), Fraction(-2, 9))]
)
def test_face_lattice_rejects_outside_point(point):
    hrep = build_hrep("tutte", 2, HALF, 1)
    good = fraction_points(vertex_set("tutte", 2, HALF, 1))
    bad = vertex_set_of((*good, point), (*("ok",) * len(good), "bogus"))
    # The first violated inequality, in H-rep order, by its exact amount.
    amount = next(v for v in (form.evaluate(point) for form in hrep_forms(hrep)) if v < 0)
    with pytest.raises(InconsistentGeometryError, match=re.escape(f"point 4 violates an inequality by {amount}")):
        face_lattice(bad, hrep)
    with pytest.raises(InconsistentGeometryError, match=re.escape(f"by {amount}")):
        vertices_are_extreme(bad, hrep)


def _fraction_contact_masks(points, hrep):
    """Per inequality, the points where Fraction evaluation gives 0."""
    return [
        sum(1 << i for i, p in enumerate(points) if form.evaluate(p) == 0)
        for form in hrep_forms(hrep)
    ]


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
def test_integer_contacts_match_fraction_evaluation(q, t):
    for n in range(1, 6):
        hrep = build_hrep("tutte", n, q, t)
        vs = vertex_set("tutte", n, q, t)
        points = fraction_points(vs)
        masks = _contact_masks(vs, hrep)
        assert masks == _fraction_contact_masks(points, hrep)
        # The interior: midpoints of vertex pairs touch fewer hyperplanes.
        mids = tuple({tuple((a + b) / 2 for a, b in zip(points[i], points[-1 - i])) for i in range(len(points))})
        masks = _contact_masks(vertex_set_of(mids), hrep)
        assert masks == _fraction_contact_masks(mids, hrep)


def _pairwise_extreme(points, hrep):
    """The pairwise certificate, evaluated in Fractions."""
    values = [[form.evaluate(p) for p in points] for form in hrep_forms(hrep)]
    return all(
        any(row[a] == 0 and row[b] > 0 for row in values)
        for a in range(len(points))
        for b in range(len(points))
        if a != b
    )


def test_extreme_points_certificate_matches_pairwise_reference():
    q, t = Fraction(37, 101), Fraction(53, 17)
    for n in range(1, 5):
        hrep = build_hrep("tutte", n, q, t)
        points = fraction_points(vertex_set("tutte", n, q, t))
        mid = tuple((a + b) / 2 for a, b in zip(points[0], points[-1]))
        for candidate in (points, (*points, mid), points[: len(points) // 2], (mid,)):
            vs = vertex_set_of(candidate)
            assert vertices_are_extreme(vs, hrep) == _pairwise_extreme(candidate, hrep)
        assert not vertices_are_extreme(vertex_set_of((*points, mid)), hrep)


# ----------------------------------------------------------------------
# Edge and 2-face formulas
# ----------------------------------------------------------------------


def test_count_formulas():
    assert edge_count_formula(4) == 37
    assert edge_count_formula(2) == 4
    assert two_face_count_formula(5) == 117
    assert two_face_count_formula(3) == 7
    for n in range(3, 9):
        assert edge_count_formula(n) == F_VECTORS[n][1]
        assert two_face_count_formula(n) == F_VECTORS[n][2]


def test_conjecture_check_small():
    rows = conjecture_check(5)
    assert all(r.matches for r in rows)
    assert {r.n for r in rows} == {2, 3, 4, 5}


def test_extreme_points_certificate():
    for n in range(1, 5):
        vs = vertex_set("tutte", n, HALF, 1)
        hrep = build_hrep("tutte", n, HALF, 1)
        assert vertices_are_extreme(vs, hrep)


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_vertices_are_the_hrep_vertices(family, q, t):
    # The one chain-vertex builder against the vertex oracle on the H-rep,
    # in keys, and its texts against its numerators.
    for n in range(1, 6):
        vs = vertex_set(family, n, q, t)
        assert vertex_keys(vs) == enumerate_hrep_vertices(build_hrep(family, n, q, t))
        scale, texts, provenance = chain_vertices(family, n, q, t, texts=True)
        assert (scale, provenance) == (vs.scale, vs.provenance)
        assert len(texts) == len(vs.points)
        for numerators, row in zip(vs.points, texts):
            assert row == tuple(format_rational(Fraction(x, scale)) for x in numerators)
