"""Closed-form vertex sets, vertex-facet incidence, and f-vectors.

The face lattice comes from vertex-facet incidences alone, with no linear
algebra (Kaibel & Pfetsch, CGTA 23 (2002)).  For a full-dimensional
polytope P with a complete H-rep, two facts suffice: a facet of P is an
inclusion-maximal nonempty proper contact set of its rows, and a facet of
a d-face G is an inclusion-maximal meet G & F with a facet F of P, other
than G and the empty set (Ziegler, Lectures on Polytopes, 2.2).  So each
level of faces comes from the one above, and the level is the dimension.
Contacts are found in integers: the vertices are cleared over one common
denominator and each coprime row of `HRep.integer_rows` is evaluated on
the numerators; only a violation is re-evaluated as a Fraction, to
report its exact amount.  Contact sets, and every face through to the
returned lattice, are int bitmasks over the vertex indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import clear_denominators
from .geometry import HRep, ParameterDomainError, Point, build_hrep

FVECTOR_MAX_N = 8
# Largest n of a 2^n-point vertex set: 4096 points, under a second and a
# megabyte of JSON.  At least FVECTOR_MAX_N, whose f-vector needs them.
VERTICES_MAX_N = 12

# ----------------------------------------------------------------------
# Vertex sets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VertexSet:
    points: tuple[Point, ...]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("vertex set contains duplicate points")


def _binary_chain_point(n: int, choose_upper: int, t: Fraction) -> list[Fraction]:
    """x_i = (1+t) x_{i-1} when bit i-1 is set, else 1 (x_0 = 1)."""
    w = 1 + t
    x: list[Fraction] = []
    prev = Fraction(1)
    for i in range(1, n + 1):
        prev = w * prev if choose_upper >> (i - 1) & 1 else Fraction(1)
        x.append(prev)
    return x


def _check_vertex_count(n: int) -> None:
    if n > VERTICES_MAX_N:
        raise ParameterDomainError(f"vertex sets are desk scale: n <= {VERTICES_MAX_N}")


def cayley_vertices(n: int, t) -> VertexSet:
    """The 2^n vertices given by the binary choice x_i in {1, (1+t) x_{i-1}}."""
    _check_vertex_count(n)
    t = Fraction(t)
    if t <= 0:
        raise ParameterDomainError("t must be positive")
    points = []
    provenance = []
    for mask in range(1 << n):
        points.append(tuple(_binary_chain_point(n, mask, t)))
        provenance.append(_mask_name(mask, n))
    return VertexSet(tuple(points), tuple(provenance))


def tutte_vertices(n: int, q, t) -> VertexSet:
    """The 2^n vertices: binary chain points with the maximal suffix of
    coordinates equal to 1 replaced by 1-q (all-ones becomes all 1-q)."""
    _check_vertex_count(n)
    q = Fraction(q)
    t = Fraction(t)
    if not 0 < q < 1:
        raise ParameterDomainError("q must lie strictly between 0 and 1")
    if t <= 0:
        raise ParameterDomainError("t must be positive")
    points = []
    provenance = []
    for mask in range(1 << n):
        x = _binary_chain_point(n, mask, t)
        i = n
        while i > 0 and x[i - 1] == 1:
            x[i - 1] = 1 - q
            i -= 1
        points.append(tuple(x))
        provenance.append(_mask_name(mask, n))
    return VertexSet(tuple(points), tuple(provenance))


def _mask_name(mask: int, n: int) -> str:
    inside = ",".join(str(i) for i in range(1, n + 1) if mask >> (i - 1) & 1)
    return "S={" + inside + "}"


# ----------------------------------------------------------------------
# Face lattice
# ----------------------------------------------------------------------


class InconsistentGeometryError(ValueError):
    """A supposed vertex violates the H-representation."""


@dataclass(frozen=True)
class FaceLattice:
    """Faces as int bitmasks of the vertex indices (bit i for point i).

    faces_by_dim[d] holds the d-face masks in ascending order, the facet
    masks at d = dimension - 1; f_vector is (f_0, ..., f_{dimension-1}).
    """

    dimension: int
    faces_by_dim: dict[int, tuple[int, ...]]
    f_vector: tuple[int, ...]


def _contact_masks(points, hrep: HRep) -> list[int]:
    """Per inequality, the bitmask of the points where it is tight.

    In integers: with the points cleared over one common denominator s to
    (n_1, ..., n_d) / s, each coprime row of hrep.integer_rows is
    evaluated as b s + sum a_i n_i, a positive multiple of the form's
    value.  A violation is reported with its exact amount.
    """
    n = hrep.dimension
    if any(len(p) != n for p in points):
        raise InconsistentGeometryError("vertex dimension mismatch")
    coordinates, scale = clear_denominators([x for p in points for x in p])
    int_points = [coordinates[i * n : (i + 1) * n] for i in range(len(points))]
    masks = []
    for k, (b, terms) in enumerate(hrep.integer_rows):
        constant = b * scale
        mask = 0
        for idx, p in enumerate(int_points):
            value = constant
            for i, a in terms:
                value += a * p[i]
            if value < 0:
                amount = hrep.inequalities[k].evaluate(points[idx])
                raise InconsistentGeometryError(f"point {idx} violates an inequality by {amount}")
            if not value:
                mask |= 1 << idx
        masks.append(mask)
    return masks


def _maximal(masks: set[int]) -> list[int]:
    """The inclusion-maximal masks, largest first."""
    kept: list[int] = []
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        if all(mask & k != mask for k in kept):
            kept.append(mask)
    return kept


def face_lattice(vertices: VertexSet, hrep: HRep) -> FaceLattice:
    """Vertex-index face lattice from the known vertex set and H-rep.

    The points must be the vertices of a full-dimensional polytope, every
    point must satisfy every inequality, and every facet must have a row
    (redundant rows are allowed).  Faces are graded top-down from the
    facet level, as in the module docstring.
    """
    n = hrep.dimension
    full = (1 << len(vertices.points)) - 1
    contacts = {m for m in _contact_masks(vertices.points, hrep) if m and m != full}
    facet_masks = tuple(sorted(_maximal(contacts)))
    faces_by_dim = {n - 1: facet_masks}
    for d in range(n - 1, 0, -1):
        below: set[int] = set()
        for face in faces_by_dim[d]:
            below.update(_maximal({face & f for f in facet_masks} - {face, 0}))
        faces_by_dim[d - 1] = tuple(sorted(below))
    return FaceLattice(
        dimension=n,
        faces_by_dim=faces_by_dim,
        f_vector=tuple(len(faces_by_dim[d]) for d in range(n)),
    )


def tutte_f_vector(n: int, q, t) -> tuple[int, ...]:
    """f-vector of T_n(q, t); the face-lattice closure is exponential in n."""
    if n > FVECTOR_MAX_N:
        raise ParameterDomainError(f"f-vectors are desk scale: n <= {FVECTOR_MAX_N}")
    vs = tutte_vertices(n, q, t)
    hrep = build_hrep("tutte", n, q, t)
    return face_lattice(vs, hrep).f_vector
