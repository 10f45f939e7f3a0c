"""Closed-form vertex sets, vertex-facet incidence, and f-vectors.

Every vertex of the five family polytopes is a binary chain point whose
coordinates, 1, 1-q and powers (1+t)^k, are values of a
geometry.VertexTable: one builder writes them as the table's numerators
over its one scale, or as its texts.

The face lattice comes from vertex-facet incidences alone, with no linear
algebra (Kaibel & Pfetsch, CGTA 23 (2002)).  For a full-dimensional
polytope P with a complete H-rep, two facts suffice: a facet of P is an
inclusion-maximal nonempty proper contact set of its rows, and a facet of
a d-face G is an inclusion-maximal meet G & F with a facet F of P, other
than G and the empty set (Ziegler, Lectures on Polytopes, 2.2).  So each
level of faces comes from the one above, and the level is the dimension.
Contacts are found in integers: each coprime row of `HRep.integer_rows`
is evaluated on the vertex set's numerators over its scale; only a
violation is evaluated on the H-rep's own form, over both scales, to
report its exact amount as one Fraction.  Contact sets, and every face
through to the returned lattice, are int bitmasks over the vertex
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import (
    HRep,
    ParameterDomainError,
    VertexTable,
    build_hrep,
    check_dimension,
    check_open_q,
    family_parameters,
)

FVECTOR_MAX_N = 8
# Largest n of a 2^n-point vertex set: 4096 points, under a second and a
# megabyte of JSON.  At least FVECTOR_MAX_N, whose f-vector needs them.
VERTICES_MAX_N = 12

# ----------------------------------------------------------------------
# Vertex sets
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VertexSet:
    """Points as integer numerators over one positive scale: point k is
    points[k] / scale, named by provenance[k]."""

    scale: int
    points: tuple[tuple[int, ...], ...]
    provenance: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("vertex set contains duplicate points")


def _chain_points(n: int, masks: Iterable[int], powers: Sequence, floor) -> tuple[tuple, ...]:
    """The binary chain point of each mask: x_i = (1+t)^k after a run of k
    set bits ending at bit i-1 (k = 0: bit i-1 unset), and the floor after
    the mask's last set bit.  powers[k] stands for (1+t)^k and floor for 1
    or 1-q, in a VertexTable's numerators or its texts."""
    points = []
    for mask in masks:
        top = mask.bit_length()
        x = []
        run = 0
        for i in range(top):
            run = run + 1 if mask >> i & 1 else 0
            x.append(powers[run])
        points.append((*x, *(floor,) * (n - top)))
    return tuple(points)


def chain_vertices(family: str, n: int, q=None, t=None, texts: bool = False) -> tuple:
    """The vertices of the family polytope in R^n as (scale, points,
    provenance), each point integer numerators over scale or, with texts,
    `format_rational` texts.  The floor is 1 for cayley and tcayley, 1-q
    for the others.  cayley, tcayley and tutte (0 < q < 1) take all 2^n
    masks, named S={...}; gayley and tgayley (1-q = 0) the prefix masks
    2^k - 1, named prefix=k: the orthoscheme with legs (1+t)^k."""
    fam, q, t = family_parameters(family, q, t)
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    if fam.connected or fam.q is None:
        if n > VERTICES_MAX_N:
            raise ParameterDomainError(f"vertex sets are desk scale: n <= {VERTICES_MAX_N}")
        if not fam.connected:
            check_open_q(q)
        masks = range(1 << n)
        # names[mask] lists the mask's set bits, 1-based: bit i - 1 doubles
        # the list, its new half the masks that have the bit.
        names = [""]
        for i in range(1, n + 1):
            names += [f"{name},{i}" if name else str(i) for name in names]
        provenance = tuple(f"S={{{name}}}" for name in names)
    else:
        check_dimension(n)
        masks = [(1 << k) - 1 for k in range(n + 1)]
        provenance = tuple(f"prefix={k}" for k in range(n + 1))
    values = VertexTable(n + 1, q, t)
    powers = values.text_powers if texts else values.int_powers
    floor = powers[0] if fam.connected else (values.text_one_minus_q if texts else values.int_one_minus_q)
    return values.scale, _chain_points(n, masks, powers, floor), provenance


def vertex_set(family: str, n: int, q=None, t=None) -> VertexSet:
    """The `chain_vertices` of the family polytope in R^n as a VertexSet."""
    return VertexSet(*chain_vertices(family, n, q, t))


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


def _contact_masks(vertices: VertexSet, hrep: HRep) -> list[int]:
    """Per inequality, the bitmask of the points where it is tight.

    In integers: with the points (n_1, ..., n_d) / s over the vertex
    set's scale s, each coprime row of hrep.integer_rows is evaluated as
    b s + sum a_i n_i, a positive multiple of the form's value.  A
    violation is reported with its exact amount, read off the un-reduced
    form over the H-rep's scale.
    """
    n = hrep.dimension
    points, scale = vertices.points, vertices.scale
    if any(len(p) != n for p in points):
        raise InconsistentGeometryError("vertex dimension mismatch")
    masks = []
    for k, (b, terms) in enumerate(hrep.integer_rows):
        constant = b * scale
        mask = 0
        for idx, p in enumerate(points):
            value = constant
            for i, a in terms:
                value += a * p[i]
            if value < 0:
                c, raw = hrep.forms[k]
                amount = Fraction(c * scale + sum(a * p[i] for i, a in raw), hrep.scale * scale)
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
    contacts = {m for m in _contact_masks(vertices, hrep) if m and m != full}
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
    """f-vector of T_n(q, t), 0 < q < 1; the face-lattice closure is
    exponential in n."""
    if n > FVECTOR_MAX_N:
        raise ParameterDomainError(f"f-vectors are desk scale: n <= {FVECTOR_MAX_N}")
    check_open_q(q)
    if Fraction(t) <= 0:
        raise ParameterDomainError("t must be positive")
    return face_lattice(vertex_set("tutte", n, q, t), build_hrep("tutte", n, q, t)).f_vector
