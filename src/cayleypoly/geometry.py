"""Polytope constructions over exact rationals at fixed parameters (q, t).

Five polytope families are built as H-representations (each inequality is
an affine form required to be >= 0):

* cayley:   1 <= x_i <= 2 x_{i-1}            (x_0 = 1)
* tcayley:  1 <= x_i <= (1+t) x_{i-1}
* tutte:    x_n >= 1-q  and, for 1 <= j <= i <= n,
            q x_i <= q (1+t) x_{i-1} - t (1-q)(1 - x_{j-1})
* tgayley:  the tutte system at q = 1
* gayley:   the tutte system at q = 1, t = 1

The simplices attached to labeled forests and the subdivision pieces
attached to plane forests are driven by the node coordinates

    root at NFS position l:      t (x_l - 1 + q)
    non-root at position i:      (q x_i - (1-q)(1-x_l)) / (1+t)^j - (x_l - 1 + q)

with x_0 = 1, j the node's cane-path count and l the position of its
component root.  Setting q = 1 recovers the one-parameter constructions,
and additionally t = 1 the classical ones.

Every cell builder (simplex_for_forest, forest_chain_hrep,
piece_for_plane_forest) reads one shared exact value table per
(node count, q, t), kept in a bounded cache after q and t are checked and
turned into Fractions: 1 - q and the powers (1+t)^k, which every simplex
vertex refers to rather than copies, and the coordinate form of each
distinct placement (a node's position, cane exponent and root position,
read off the NFS walk that a PlaneForest holds) and each distinct chain
row, built once and shared by every H-rep that has it (so are its
cleared integer row and its texts).  The table also holds 1 - q
and the powers cleared to integer numerators over one common scale s,
and as formatted texts; one column builder writes a simplex from any of
these value sets (simplex_texts gives its vertices as texts), and a
VertexTable interns the integer vertices of many simplices, each
distinct vertex once, so a simplex is a tuple of indices into it.

All geometry here is at fixed rational parameter values; symbolic claims
live in the volumes module as closed-form polynomials.  Comparison of
polytopes is by point set (membership, vertex sets), never by literal
inequality lists, which are kept unnormalized as generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .exact import clear_denominators, format_rational, parse_rational
from .forests import (
    LabeledForest,
    PlaneForest,
    catalan,
    count_labeled_forests,
    enumerate_labeled_forests,
    enumerate_plane_forests,
    enumerate_plane_trees,
)

Point = tuple[Fraction, ...]
IntegerRow = tuple[int, tuple[tuple[int, int], ...]]


class ParameterDomainError(ValueError):
    """A parameter lies outside the family's admissible domain."""


class Family(NamedTuple):
    """One of the five polytopes as the Tutte polytope T_n(q, t) with q
    and/or t fixed (None when free).

    A connected family (cayley, tcayley) keeps only the connected graphs:
    its H-rep is the chain with lower bound 1, its cells are indexed by
    trees and plane trees, and its volume is the q^0 part of Z_{K_{n+1}}.
    A NamedTuple rather than a frozen dataclass: it is built at import,
    where the dataclass costs 1.5 ms of every CLI start-up.
    """

    name: str
    connected: bool
    q: Optional[Fraction]
    t: Optional[Fraction]

    def labeled_cells(self, n: int) -> Iterator[LabeledForest]:
        """Labeled forests on n+1 nodes indexing the triangulation of R^n."""
        return enumerate_labeled_forests(n + 1, trees_only=self.connected)

    def plane_cells(self, n: int) -> Iterator[PlaneForest]:
        """Plane forests on n+1 nodes indexing the subdivision of R^n."""
        return enumerate_plane_trees(n + 1) if self.connected else enumerate_plane_forests(n + 1)

    def cell_counts(self, n: int) -> tuple[int, int]:
        """Expected numbers of simplices and of pieces in R^n."""
        if self.connected:
            return (n + 1) ** (n - 1), catalan(n)
        return count_labeled_forests(n + 1), catalan(n + 1)


_ONE = Fraction(1)
_FAMILY_TABLE = (
    Family("cayley", True, _ONE, _ONE),
    Family("gayley", False, _ONE, _ONE),
    Family("tcayley", True, _ONE, None),
    Family("tgayley", False, _ONE, None),
    Family("tutte", False, None, None),
)
FAMILIES = tuple(fam.name for fam in _FAMILY_TABLE)


def get_family(name: str) -> Family:
    """The Family record of a family name."""
    for fam in _FAMILY_TABLE:
        if fam.name == name:
            return fam
    raise ParameterDomainError(f"unknown family {name!r}")


class DimensionError(ValueError):
    """Mismatched dimensions between geometric objects."""


# ----------------------------------------------------------------------
# Affine forms, H-representations, simplices
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AffineForm:
    """constant + sum(coefficients[i] * x_{i+1}), evaluated exactly."""

    constant: Fraction
    coefficients: tuple[Fraction, ...]

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != len(self.coefficients):
            raise DimensionError("point/form dimension mismatch")
        total = self.constant
        for a, x in zip(self.coefficients, point):
            if a:
                total += a * x
        return total

    @cached_property
    def integer_row(self) -> IntegerRow:
        """The form as coprime integers (b, ((i, a_i), ...)), the nonzero
        a_i only, with b + sum a_i x_i a positive multiple of the form:
        same sign everywhere, and equal for forms that are positive
        multiples of each other.  Cleared once, on first use."""
        ints, _ = clear_denominators((self.constant, *self.coefficients))
        g = math.gcd(*ints) or 1
        b, *coeffs = (c // g for c in ints)
        return b, tuple((i, a) for i, a in enumerate(coeffs) if a)

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """The constant and the coefficients as `format_rational` texts,
        formatted once, on first use."""
        return (format_rational(self.constant), *map(format_rational, self.coefficients))

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            self.constant + other.constant,
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients)),
        )

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            self.constant - other.constant,
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients)),
        )

    @staticmethod
    def constant_form(dimension: int, value) -> "AffineForm":
        return AffineForm(Fraction(value), (Fraction(0),) * dimension)

    @staticmethod
    def linear(dimension: int, index: int, coeff=1, constant=0) -> "AffineForm":
        """constant + coeff * x_index (index is 1-based)."""
        coeffs = [Fraction(0)] * dimension
        coeffs[index - 1] = Fraction(coeff)
        return AffineForm(Fraction(constant), tuple(coeffs))


@dataclass(frozen=True)
class HRep:
    """Finite system of affine inequalities form(x) >= 0 in R^dimension."""

    dimension: int
    inequalities: tuple[AffineForm, ...]

    @cached_property
    def integer_rows(self) -> tuple[IntegerRow, ...]:
        """Each inequality's `AffineForm.integer_row`, so H-reps that share
        forms share their clearing."""
        if any(len(form.coefficients) != self.dimension for form in self.inequalities):
            raise DimensionError("form dimension mismatch")
        return tuple(form.integer_row for form in self.inequalities)

    def contains(self, point: Sequence[Fraction], strict: bool = False) -> bool:
        """Every form >= 0 at point (> 0 when strict)."""
        return self.contains_numerators(*clear_denominators(point), strict)

    def contains_numerators(
        self, numerators: Sequence[int], scale: int, strict: bool = False
    ) -> bool:
        """`contains` at the point (n_1, ..., n_d) / s, for a scale s > 0,
        in integers: each row is evaluated as b s + sum a_i n_i."""
        if len(numerators) != self.dimension:
            raise DimensionError("point dimension mismatch")
        for b, terms in self.integer_rows:
            value = b * scale
            for i, a in terms:
                value += a * numerators[i]
            if value < 0 or (strict and not value):
                return False
        return True

    def to_text(self) -> str:
        lines = [f"{self.dimension} {len(self.inequalities)}"]
        lines.extend(" ".join(form.texts) for form in self.inequalities)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "HRep":
        lines = [line for line in text.splitlines() if line.strip()]
        header = lines[0].split() if lines else []
        if len(header) != 2:
            raise ValueError("expected the header line 'dimension rows'")
        dim, count = (int(x) for x in header)
        if len(lines) - 1 != count:
            raise ValueError(f"header declares {count} rows, found {len(lines) - 1}")
        forms = []
        for line in lines[1:]:
            values = [parse_rational(x) for x in line.split()]
            if len(values) != dim + 1:
                raise ValueError("row width mismatch")
            forms.append(AffineForm(values[0], tuple(values[1:])))
        return cls(dim, tuple(forms))

    def to_json_obj(self) -> dict:
        return {
            "dimension": self.dimension,
            "inequalities": [form.texts for form in self.inequalities],
        }


@dataclass(frozen=True)
class Simplex:
    """dimension+1 affinely independent points in R^dimension."""

    dimension: int
    vertices: tuple[Point, ...]

    def __post_init__(self):
        if len(self.vertices) != self.dimension + 1:
            raise DimensionError("a simplex in R^n needs exactly n+1 vertices")
        if any(len(v) != self.dimension for v in self.vertices):
            raise DimensionError("vertex dimension mismatch")

    def to_text(self) -> str:
        return vrep_to_text(self.vertices, self.dimension)


def vrep_to_text(points: Iterable[Point], dimension: int) -> str:
    pts = list(points)
    lines = [f"{dimension} {len(pts)}"]
    for v in pts:
        lines.append(" ".join(format_rational(x) for x in v))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Parameter handling
# ----------------------------------------------------------------------


def _check_t(t) -> Fraction:
    t = Fraction(t)
    if t <= 0:
        raise ParameterDomainError(f"t must be positive, got {t}")
    return t


def _check_q(q) -> Fraction:
    q = Fraction(q)
    if q <= 0 or q > 1:
        raise ParameterDomainError(f"q must lie in (0, 1], got {q}")
    return q


def family_parameters(family: str, q=None, t=None) -> tuple[Fraction, Fraction]:
    """Effective (q, t) for a family; fixed values override the arguments."""
    fam = get_family(family)
    q_eff = fam.q if fam.q is not None else _check_q(1 if q is None else q)
    t_eff = fam.t if fam.t is not None else _check_t(1 if t is None else t)
    return q_eff, t_eff


# ----------------------------------------------------------------------
# H-representations of the five families
# ----------------------------------------------------------------------


# Largest dimension of a family polytope built whole: the tutte H-rep has
# n(n+1)/2 + 1 rows of n coefficients, growing as n^3.  At n = 100 that
# is 6.75 MB of JSON (1.06 MB of text); the `hrep` command holds the
# 5051 forms, about 4 MB, and writes the rows one at a time, at 20 MB of
# peak RSS in either format.
MAX_DIMENSION = 100


def check_dimension(n: int) -> None:
    """Reject a polytope dimension outside 1..MAX_DIMENSION."""
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    if n > MAX_DIMENSION:
        raise ParameterDomainError(f"polytopes are desk scale: n <= {MAX_DIMENSION}")


def build_hrep(family: str, n: int, q=None, t=None) -> HRep:
    """H-representation of the named family's polytope in R^n."""
    fam = get_family(family)
    check_dimension(n)
    q_eff, t_eff = family_parameters(family, q, t)
    if fam.connected:
        return _chain_hrep_lower_one(n, t_eff)
    return _tutte_hrep(n, q_eff, t_eff)


def _chain_hrep_lower_one(n: int, t: Fraction) -> HRep:
    """1 <= x_i <= (1+t) x_{i-1} with x_0 = 1."""
    w = 1 + t
    rows = []
    for i in range(1, n + 1):
        rows.append(AffineForm.linear(n, i, 1, -1))  # x_i - 1 >= 0
        if i == 1:
            rows.append(AffineForm.linear(n, 1, -1, w))  # (1+t) - x_1 >= 0
        else:
            upper = AffineForm.linear(n, i - 1, w) - AffineForm.linear(n, i, 1)
            rows.append(upper)
    return HRep(n, tuple(rows))


def _tutte_hrep(n: int, q: Fraction, t: Fraction) -> HRep:
    """q x_i <= q(1+t) x_{i-1} - t(1-q)(1-x_{j-1}) for j <= i, plus x_n >= 1-q."""
    w = 1 + t
    rows = []
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            # q(1+t) x_{i-1} - t(1-q)(1 - x_{j-1}) - q x_i >= 0, x_0 = 1.
            coeffs = [Fraction(0)] * n
            const = Fraction(0)
            if i == 1:
                const += q * w
            else:
                coeffs[i - 2] += q * w
            const -= t * (1 - q)
            if j == 1:
                const += t * (1 - q)
            else:
                coeffs[j - 2] += t * (1 - q)
            coeffs[i - 1] -= q
            rows.append(AffineForm(const, tuple(coeffs)))
    rows.append(AffineForm.linear(n, n, 1, -(1 - q)))
    return HRep(n, tuple(rows))


# ----------------------------------------------------------------------
# Simplices of the triangulations
# ----------------------------------------------------------------------


# Value tables live this many (node count, q, t) keys: one CLI call or
# verify job uses one or two, a verify sweep a handful.
_VALUE_TABLES = 16

# A node's chain coordinate depends on its placement only, not on its
# component's maximal label: (position, cane_exponent, root_position), the
# position being a root when it is its own root position.
_Placement = tuple[int, int, int]


class _ValueTable:
    """The exact values every cell on node_count nodes shares at (q, t):
    1 - q and the powers (1+t)^0 .. (1+t)^(node_count+1), as Fractions, as
    integer numerators over their one common denominator `scale` and as
    their `format_rational` texts, and the coordinate form of each
    distinct placement and the chain row of each distinct pair of
    placements, each built on first use."""

    __slots__ = (
        "n", "q", "t", "one_minus_q", "powers", "scale", "int_one_minus_q", "int_powers",
        "text_one_minus_q", "text_powers", "_forms", "_differences",
    )

    def __init__(self, node_count: int, q: Fraction, t: Fraction):
        self.n = node_count - 1
        self.q = q
        self.t = t
        self.one_minus_q = 1 - q
        w = 1 + t
        powers = [Fraction(1)]
        for _ in range(node_count + 1):
            powers.append(powers[-1] * w)
        self.powers = tuple(powers)
        cleared, self.scale = clear_denominators((*powers, self.one_minus_q))
        self.int_one_minus_q = cleared.pop()
        self.int_powers = tuple(cleared)
        self.text_one_minus_q = format_rational(self.one_minus_q)
        self.text_powers = tuple(map(format_rational, powers))
        self._forms: dict[_Placement, AffineForm] = {}
        self._differences: dict[tuple[_Placement, _Placement], AffineForm] = {}

    def form(self, key: _Placement) -> AffineForm:
        """The chain coordinate of a placement as an affine form on R^n."""
        form = self._forms.get(key)
        if form is None:
            form = self._forms[key] = self._build_form(*key)
        return form

    def difference(self, upper: _Placement, lower: _Placement) -> AffineForm:
        """The chain row form(upper) - form(lower)."""
        row = self._differences.get((upper, lower))
        if row is None:
            row = self._differences[upper, lower] = self.form(upper) - self.form(lower)
        return row

    def _build_form(self, position: int, j: int, root_position: int) -> AffineForm:
        n, q, t, mq = self.n, self.q, self.t, self.one_minus_q
        if position == 0:
            return AffineForm.constant_form(n, q * t)
        if position == root_position:
            return AffineForm.linear(n, position, t, -t * mq)
        wj = self.powers[j]
        coeffs = [Fraction(0)] * n
        coeffs[position - 1] = q / wj
        const = mq - mq / wj
        if root_position == 0:
            const += mq / wj - 1  # x_l = 1 collapses into the constant
        else:
            coeffs[root_position - 1] += mq / wj - 1
        return AffineForm(const, tuple(coeffs))


@lru_cache(maxsize=_VALUE_TABLES)
def _value_table(node_count: int, q, t) -> _ValueTable:
    """The shared table of (node_count, q, t).  q and t are checked here,
    on a cache miss only, so a bad value raises and is never cached.
    lru_cache compares keys with ==, and hash(1) == hash(Fraction(1)), so
    equal parameters of different types share one entry."""
    return _ValueTable(node_count, _check_q(q), _check_t(t))


def _simplex_vertices(f: LabeledForest, powers: Sequence, one_minus_q) -> tuple[tuple, ...]:
    """The vertices of the forest's simplex in the given values: powers[k]
    stands for (1+t)^k and one_minus_q for 1-q, as the value table's
    Fractions, its numerators over one scale or its texts.  Each
    coordinate column is built as three runs, and the vertices are the
    rows."""
    labels = f.order
    nodes = len(labels)
    columns: list[tuple] = []
    # Position 0 holds the constant qt; column i - 1 is position i's.
    for label, (up, j, top) in zip(labels[1:], f.shape.walk[1:]):
        r = labels[top]
        if up is None:
            column = (powers[0],) * r
        else:
            column = (powers[j + 1],) * label + (powers[j],) * (r - label)
        columns.append(column + (one_minus_q,) * (nodes - r))
    return tuple(zip(*columns)) if columns else ((),)


def simplex_for_forest(f: LabeledForest, q, t) -> Simplex:
    """The simplex attached to a labeled forest on n+1 nodes, in R^n.

    Vertices come in closed form: vertex p (p = 1..n+1) puts the chain
    coordinates of labels below p at their 0-end and the rest at the
    qt-end.  Concretely, with w = 1+t and r the maximal label of a node's
    component:

      root at position l:       x_l = 1 if p <= r else 1-q
      non-root at position i:   x_i = w^(j+1) if p <= label,
                                      w^j     if label < p <= r,
                                      1-q     if p > r.

    Every coordinate is one of the value table's Fractions; each column
    is built as three runs and the vertices are its rows.
    """
    table = _value_table(f.node_count, q, t)
    return Simplex(table.n, _simplex_vertices(f, table.powers, table.one_minus_q))


def simplex_texts(f: LabeledForest, q, t) -> tuple[tuple[str, ...], ...]:
    """The vertices of simplex_for_forest(f, q, t), each coordinate as its
    `format_rational` text: the value table formats each of its n+3
    values once, and the columns are built from those texts."""
    table = _value_table(f.node_count, q, t)
    return _simplex_vertices(f, table.text_powers, table.text_one_minus_q)


class VertexTable:
    """The simplex vertices of labeled forests on node_count nodes at
    (q, t), in integers.

    Every coordinate is a value of the value table, so every vertex is
    integer numerators over the table's one common denominator `scale`.
    `numerators(f)` gives the vertices of simplex_for_forest(f, q, t) so;
    `add(f)` also interns them into `vertices`, each distinct vertex once
    in order of first appearance, and gives the simplex as the indices of
    its vertices, in vertex order.
    """

    __slots__ = ("scale", "vertices", "_values", "_index")

    def __init__(self, node_count: int, q, t):
        self._values = _value_table(node_count, q, t)
        self.scale = self._values.scale
        self.vertices: list[tuple[int, ...]] = []
        self._index: dict[tuple[int, ...], int] = {}

    def numerators(self, f: LabeledForest) -> tuple[tuple[int, ...], ...]:
        values = self._values
        if f.node_count != values.n + 1:
            raise DimensionError("forest/table node count mismatch")
        return _simplex_vertices(f, values.int_powers, values.int_one_minus_q)

    def add(self, f: LabeledForest) -> tuple[int, ...]:
        index, vertices = self._index, self.vertices
        simplex = []
        for v in self.numerators(f):
            k = index.setdefault(v, len(vertices))
            if k == len(vertices):
                vertices.append(v)
            simplex.append(k)
        return tuple(simplex)

    def point(self, k: int) -> Point:
        """Vertex k as Fractions."""
        return tuple(Fraction(x, self.scale) for x in self.vertices[k])


def forest_chain_hrep(f: LabeledForest, q, t) -> HRep:
    """The defining chain of the forest's simplex, as an H-representation.

    Rows: c(1) >= 0 and c(k+1) - c(k) >= 0 for the label-ordered chain of
    node coordinates; c(n+1) is the constant qt.
    """
    table = _value_table(f.node_count, q, t)
    walk = f.shape.walk
    keys = [(i, walk[i][1], walk[i][2]) for i in sorted(range(f.node_count), key=f.order.__getitem__)]
    rows = [table.form(keys[0])]
    rows.extend(table.difference(upper, lower) for lower, upper in zip(keys, keys[1:]))
    return HRep(table.n, tuple(rows))


# ----------------------------------------------------------------------
# Subdivision pieces
# ----------------------------------------------------------------------


def piece_for_plane_forest(pf: PlaneForest, q, t) -> HRep:
    """The subdivision piece of a plane forest on n+1 nodes, in R^n.

    Per-node chains: for a node with successors v_1..v_k (left to right)
    in a component rooted at w,  0 <= c(v_1) <= ... <= c(v_k) <= c(w);
    for the roots w_1..w_m (left to right),  0 <= c(w_m) <= ... <= c(w_1)
    with c(w_1) = qt constant.
    """
    table = _value_table(pf.node_count(), q, t)
    keys = [(i, j, top) for i, (_, j, top) in enumerate(pf.walk)]
    rows: list[AffineForm] = []
    for (_, _, top), kids in zip(pf.walk, pf.kids()):
        if not kids:
            continue
        rows.append(table.form(keys[kids[0]]))
        for a, b in zip(kids, kids[1:]):
            rows.append(table.difference(keys[b], keys[a]))
        rows.append(table.difference(keys[top], keys[kids[-1]]))
    if len(pf.roots) > 1:
        rows.append(table.form(keys[pf.roots[-1]]))
        for a, b in zip(pf.roots, pf.roots[1:]):
            rows.append(table.difference(keys[a], keys[b]))
    return HRep(table.n, tuple(rows))


def product(a: HRep, b: HRep) -> HRep:
    """Cartesian product; b's variables are shifted after a's."""
    dim = a.dimension + b.dimension
    rows = [AffineForm(f.constant, f.coefficients + (Fraction(0),) * b.dimension) for f in a.inequalities]
    rows += [AffineForm(f.constant, (Fraction(0),) * a.dimension + f.coefficients) for f in b.inequalities]
    return HRep(dim, tuple(rows))


def cone_q(p: HRep, q) -> HRep:
    """Skew cone with apex (1-q, ..., 1-q) and base {1} x P.

    A point (x_0, x) belongs iff 1-q <= x_0 <= 1 and
    q*x lies in (x_0 - 1 + q) P + (1-q)(1-x_0) * (1, ..., 1).
    Each row b + a.y >= 0 of P linearizes to
    b (x_0 - 1 + q) + sum_i a_i (q x_i - (1-q)(1-x_0)) >= 0,
    which for bounded P describes the closed cone exactly.  At q = 1 the
    apex is the origin and x lies in x_0 * P.
    """
    q = _check_q(q)
    dim = p.dimension + 1
    rows = [
        AffineForm.linear(dim, 1, 1, -(1 - q)),  # x_0 >= 1-q
        AffineForm.linear(dim, 1, -1, 1),  # x_0 <= 1
    ]
    for form in p.inequalities:
        s = sum(form.coefficients, Fraction(0))
        const = form.constant * (q - 1) - (1 - q) * s
        coeffs = [form.constant + (1 - q) * s]
        coeffs.extend(q * a for a in form.coefficients)
        rows.append(AffineForm(const, tuple(coeffs)))
    return HRep(dim, tuple(rows))


def piece_for_plane_forest_via_cones(pf: PlaneForest, q, t) -> HRep:
    """The same piece assembled as D_1 x cone_q(D_2 x cone_q(D_3 x ...)).

    Each D_p is the one-component piece of the p-th plane tree at q = 1
    (its chain coordinates never mention q); the skew cones then reinstate
    the q-dependence.  Must describe the same point set as the direct
    construction.
    """
    q = _check_q(q)
    t = _check_t(t)
    trees = [PlaneForest((tree,)) for tree in pf.trees]
    current = piece_for_plane_forest(trees[-1], 1, t)
    for tree in reversed(trees[:-1]):
        current = product(piece_for_plane_forest(tree, 1, t), cone_q(current, q))
    return current


# ----------------------------------------------------------------------
# Orthoschemes
# ----------------------------------------------------------------------


def orthoscheme_vertices(lengths: Sequence[Fraction]) -> list[Point]:
    """Prefix points (l_1, ..., l_k, 0, ..., 0) for k = 0..n."""
    lengths = [Fraction(x) for x in lengths]
    n = len(lengths)
    points = []
    for k in range(n + 1):
        points.append(tuple(lengths[:k]) + (Fraction(0),) * (n - k))
    return points
