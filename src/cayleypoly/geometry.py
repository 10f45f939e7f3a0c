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

Every cell is built through a VertexTable, one lookup of the exact value
table shared per (node count, q, t), kept in a bounded cache after q and
t are checked and turned into Fractions.  The table holds 1 - q and the
powers (1+t)^k as integer numerators over one common scale s and as
formatted texts.  It also clears the few scalars of the node
coordinates once, over one form denominator, so that the coordinate
form of each placement (a node's position, cane exponent and root
position, read off the NFS walk that a PlaneForest holds) is a row of
integers, and so is each chain row, the difference of two such forms.
Each distinct placement row and chain row is kept once, gcd-reduced to
a coprime integer row, and shared by every cell that has it; its
AffineForm, for the H-reps that are printed, is built from the same
integers.  One column builder writes every simplex, from the numerators
or from the texts.  A VertexTable gives simplex vertices as texts, or
interns their integer vertices, each distinct vertex once, so that a
simplex is a tuple of indices into it, and differences each pair of
consecutive vertices once for the volumes; and it builds chains and
pieces, as tuples of the table's integer rows or as H-reps.

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

from .exact import clear_denominators, format_rational, parse_integer, parse_rational, sparse_difference
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


def _coprime(b: int, terms: tuple[tuple[int, int], ...]) -> IntegerRow:
    """The row divided by the gcd of its entries (1 for a zero row)."""
    g = math.gcd(b, *(a for _, a in terms)) or 1
    if g == 1:
        return b, terms
    return b // g, tuple((i, a // g) for i, a in terms)


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
# Affine forms and H-representations
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
        (b, *coeffs), _ = clear_denominators((self.constant, *self.coefficients))
        return _coprime(b, tuple((i, a) for i, a in enumerate(coeffs) if a))

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


def rows_contain(
    rows: Iterable[IntegerRow], numerators: Sequence[int], scale: int, strict: bool = False
) -> bool:
    """Every integer row >= 0 (> 0 when strict) at the point
    (n_1, ..., n_d) / s, for a scale s > 0: each row is evaluated as
    b s + sum a_i n_i, which has the sign of b + sum a_i x_i."""
    for b, terms in rows:
        value = b * scale
        for i, a in terms:
            value += a * numerators[i]
        if value < 0 or (strict and not value):
            return False
    return True


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
        in integers: `rows_contain` on the integer rows."""
        if len(numerators) != self.dimension:
            raise DimensionError("point dimension mismatch")
        return rows_contain(self.integer_rows, numerators, scale, strict)

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
        try:
            dim, count = (parse_integer(x) for x in header)
        except ValueError:
            raise ValueError(f"bad header {lines[0].strip()!r}: expected 'dimension rows'") from None
        if dim < 0:
            raise ValueError(f"header declares dimension {dim}, expected one >= 0")
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
# Cells: simplices, chain H-reps and pieces
# ----------------------------------------------------------------------


# Value tables live this many (node count, q, t) keys: one CLI call or
# verify job uses one or two, a verify sweep a handful.
_VALUE_TABLES = 16

# A node's chain coordinate depends on its placement only, not on its
# component's maximal label: (position, cane_exponent, root_position), the
# position being a root when it is its own root position.  A row key is a
# placement, for its form, or a pair (upper, lower) of placements, for the
# chain row form(upper) - form(lower).
_Placement = tuple[int, int, int]
_ZERO = Fraction(0)


def _ratio_text(numerator: int, denominator: int) -> str:
    """`format_rational` of numerator/denominator, given in lowest terms
    with a positive denominator."""
    return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)


def _cached(cache: dict, build, keys: Sequence) -> tuple:
    """cache[key] for each key, built by build(key) where missing."""
    try:
        return tuple(map(cache.__getitem__, keys))
    except KeyError:
        return tuple(map(build, keys))


class _ValueTable:
    """The exact values every cell on node_count nodes shares at (q, t).

    For the vertices: 1 - q and the powers (1+t)^0 .. (1+t)^(node_count+1),
    as integer numerators over their one common denominator `scale` and
    as their `format_rational` texts.

    For the cells' rows: the few scalars the chain coordinates are made of
    (qt, t, t(1-q), and per cane exponent j: q/w^j, (1-q)(1-1/w^j) and
    (1-q)/w^j - 1, w = 1+t), as integer numerators over one common
    denominator `form_scale`, so that each placement's coordinate form is
    an integer form (b, ((i, a_i), ...)) over it and a chain row, the
    difference of two forms, is one too.  Each placement's integer form is
    kept, and each row key's coprime `IntegerRow` and `AffineForm` are
    built once, on first use, from the integer form; the coprime row
    equals the form's `AffineForm.integer_row`, as the coprime positive
    multiple of a form is unique."""

    __slots__ = (
        "n", "scale", "int_one_minus_q", "int_powers", "text_one_minus_q", "text_powers",
        "form_scale", "_qt", "_root", "_canes", "_placements", "_rows", "_forms",
    )

    def __init__(self, node_count: int, q: Fraction, t: Fraction):
        self.n = node_count - 1
        # q = a/b, t = c/d and w = 1 + t = e/d, each in lowest terms (a
        # common factor of e and d would divide c), so 1 - q = (b-a)/b and
        # w^k = e^k/d^k are in lowest terms too: every value is read off
        # as integers, with no Fraction arithmetic.
        a, b, c, d = q.numerator, q.denominator, t.numerator, t.denominator
        e = c + d
        top = node_count + 1
        self.scale = scale = math.lcm(d**top, b)
        self.int_powers = tuple(e**k * (scale // d**k) for k in range(top + 1))
        self.int_one_minus_q = (b - a) * (scale // b)
        self.text_powers = tuple(_ratio_text(e**k, d**k) for k in range(top + 1))
        self.text_one_minus_q = _ratio_text(b - a, b)
        # The form scalars over the one denominator b d e^J, J the largest
        # cane exponent of a non-root (node_count - 2): qt, t, t(1-q) and,
        # per cane exponent j, q/w^j, (1-q)(1-1/w^j) and (1-q)/w^j - 1.
        last = max(node_count - 2, 0)
        self.form_scale = b * d * e**last
        self._qt = a * c * e**last
        self._root = (b * c * e**last, -c * (b - a) * e**last)
        canes = []
        for j in range(node_count - 1):
            f = e ** (last - j)
            canes.append((a * d ** (j + 1) * f, (b - a) * (e**j - d**j) * d * f, ((b - a) * d**j - b * e**j) * d * f))
        self._canes = tuple(canes)
        self._placements: dict[_Placement, IntegerRow] = {}
        self._rows: dict = {}
        self._forms: dict = {}

    def integer_form(self, key) -> IntegerRow:
        """The form of a row key as integers over `form_scale`:
        (b, ((i, a_i), ...)), the nonzero a_i only, in index order.  A
        pair's form is worked out from its two kept placement forms."""
        if len(key) == 2:
            (b, upper), (c, lower) = map(self.integer_form, key)
            coeffs = dict(upper)
            for i, a in lower:
                coeffs[i] = coeffs.get(i, 0) - a
            return b - c, tuple(sorted((i, a) for i, a in coeffs.items() if a))
        form = self._placements.get(key)
        if form is None:
            form = self._placements[key] = self._placement_form(*key)
        return form

    def _placement_form(self, position: int, j: int, root_position: int) -> IntegerRow:
        if position == 0:
            return self._qt, ()
        if position == root_position:
            t, const = self._root
            return const, ((position - 1, t),)
        a, const, root_coeff = self._canes[j]
        if root_position == 0:
            return const + root_coeff, ((position - 1, a),)  # x_l = 1 collapses into the constant
        return const, ((root_position - 1, root_coeff), (position - 1, a))

    def row(self, key) -> IntegerRow:
        """The coprime integer row of a row key."""
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = _coprime(*self.integer_form(key))
        return row

    def form(self, key) -> AffineForm:
        """The affine form on R^n of a row key."""
        form = self._forms.get(key)
        if form is None:
            b, terms = self.integer_form(key)
            d = self.form_scale
            coeffs = [_ZERO] * self.n
            for i, a in terms:
                coeffs[i] = Fraction(a, d)
            form = self._forms[key] = AffineForm(Fraction(b, d), tuple(coeffs))
        return form

    def rows(self, keys: Sequence) -> tuple[IntegerRow, ...]:
        """The rows of these row keys, the known ones in one pass."""
        return _cached(self._rows, self.row, keys)

    def forms(self, keys: Sequence) -> tuple[AffineForm, ...]:
        """The forms of these row keys, the known ones in one pass."""
        return _cached(self._forms, self.form, keys)


@lru_cache(maxsize=_VALUE_TABLES)
def _value_table(node_count: int, q, t) -> _ValueTable:
    """The shared table of (node_count, q, t).  q and t are checked here,
    on a cache miss only, so a bad value raises and is never cached.
    lru_cache compares keys with ==, and hash(1) == hash(Fraction(1)), so
    equal parameters of different types share one entry."""
    return _ValueTable(node_count, _check_q(q), _check_t(t))


def _simplex_vertices(f: LabeledForest, powers: Sequence, one_minus_q) -> tuple[tuple, ...]:
    """The vertices of the forest's simplex in the given values: powers[k]
    stands for (1+t)^k and one_minus_q for 1-q, either the value table's
    numerators over its one scale or its texts.  Each coordinate column
    is built as three runs, and the vertices are the rows."""
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


class VertexTable:
    """The cells of forests on node_count nodes at (q, t), from one lookup
    of the value table: simplex vertices in integers or as texts, chain
    H-reps and subdivision pieces.

    The simplex of a labeled forest on n+1 nodes, in R^n, has its vertices
    in closed form: vertex p (p = 1..n+1) puts the chain coordinates of
    labels below p at their 0-end and the rest at the qt-end.  Concretely,
    with w = 1+t and r the maximal label of a node's component:

      root at position l:       x_l = 1 if p <= r else 1-q
      non-root at position i:   x_i = w^(j+1) if p <= label,
                                      w^j     if label < p <= r,
                                      1-q     if p > r.

    Every coordinate is a value of the value table, so every vertex is
    integer numerators over the table's one common denominator `scale`.
    `numerators(f)` gives the vertices so, and `texts(f)` gives them as
    `format_rational` texts; `add(f)` also interns the numerators into
    `vertices`, each distinct vertex once in order of first appearance,
    and gives the simplex as the indices of its vertices, in vertex
    order, and `point(k)` gives vertex k as Fractions.  `steps(simplex)`
    gives the differences of consecutive vertices, sparse, for
    `volumes.steps_volume_scaled`.

    `chain_rows(f)` and `piece_rows(pf)` give a cell as a tuple of the
    value table's coprime integer rows, shared by every cell that has
    them; `chain_hrep(f)` and `piece(pf)` give the same cells as H-reps of
    the table's `AffineForm`s, built from the same integer forms.
    """

    __slots__ = ("scale", "vertices", "_values", "_index", "_steps")

    def __init__(self, node_count: int, q, t):
        self._values = _value_table(node_count, q, t)
        self.scale = self._values.scale
        self.vertices: list[tuple[int, ...]] = []
        self._index: dict[tuple[int, ...], int] = {}
        self._steps: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def _checked(self, node_count: int) -> _ValueTable:
        if node_count != self._values.n + 1:
            raise DimensionError("forest/table node count mismatch")
        return self._values

    def numerators(self, f: LabeledForest) -> tuple[tuple[int, ...], ...]:
        values = self._checked(f.node_count)
        return _simplex_vertices(f, values.int_powers, values.int_one_minus_q)

    def texts(self, f: LabeledForest) -> tuple[tuple[str, ...], ...]:
        values = self._checked(f.node_count)
        return _simplex_vertices(f, values.text_powers, values.text_one_minus_q)

    def add(self, f: LabeledForest) -> tuple[int, ...]:
        index, vertices = self._index, self.vertices
        simplex = []
        for v in self.numerators(f):
            k = index.setdefault(v, len(vertices))
            if k == len(vertices):
                vertices.append(v)
            simplex.append(k)
        return tuple(simplex)

    def steps(self, simplex: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
        """The differences of a simplex's consecutive vertices, given by
        their indices, as `sparse_difference` rows; each pair of vertices
        is differenced once per table."""
        memo, vertices = self._steps, self.vertices
        steps = []
        for pair in zip(simplex, simplex[1:]):
            step = memo.get(pair)
            if step is None:
                step = memo[pair] = sparse_difference(vertices[pair[1]], vertices[pair[0]])
            steps.append(step)
        return steps

    def point(self, k: int) -> Point:
        """Vertex k as Fractions."""
        return tuple(Fraction(x, self.scale) for x in self.vertices[k])

    def _chain_keys(self, f: LabeledForest) -> list:
        """The row keys of the forest's chain: c(1) >= 0 and
        c(k+1) - c(k) >= 0 for the label-ordered chain of node
        coordinates; c(n+1) is the constant qt."""
        self._checked(f.node_count)
        walk = f.shape.walk
        keys = [(i, walk[i][1], walk[i][2]) for i in sorted(range(f.node_count), key=f.order.__getitem__)]
        return [keys[0], *zip(keys[1:], keys)]

    def _piece_keys(self, pf: PlaneForest) -> list:
        """The row keys of the plane forest's piece.

        Per-node chains: for a node with successors v_1..v_k (left to
        right) in a component rooted at w, 0 <= c(v_1) <= ... <= c(v_k)
        <= c(w); for the roots w_1..w_m (left to right),
        0 <= c(w_m) <= ... <= c(w_1) with c(w_1) = qt constant."""
        self._checked(pf.node_count())
        keys = [(i, j, top) for i, (_, j, top) in enumerate(pf.walk)]
        rows: list = []
        for (_, _, top), kids in zip(pf.walk, pf.kids()):
            if not kids:
                continue
            rows.append(keys[kids[0]])
            rows.extend((keys[b], keys[a]) for a, b in zip(kids, kids[1:]))
            rows.append((keys[top], keys[kids[-1]]))
        if len(pf.roots) > 1:
            rows.append(keys[pf.roots[-1]])
            rows.extend((keys[a], keys[b]) for a, b in zip(pf.roots, pf.roots[1:]))
        return rows

    def chain_rows(self, f: LabeledForest) -> tuple[IntegerRow, ...]:
        """The forest's chain H-rep as the table's coprime integer rows."""
        return self._values.rows(self._chain_keys(f))

    def piece_rows(self, pf: PlaneForest) -> tuple[IntegerRow, ...]:
        """The plane forest's piece as the table's coprime integer rows."""
        return self._values.rows(self._piece_keys(pf))

    def chain_hrep(self, f: LabeledForest) -> HRep:
        """The defining chain of the forest's simplex, as an H-rep in R^n:
        the forms of `chain_rows`."""
        return HRep(self._values.n, self._values.forms(self._chain_keys(f)))

    def piece(self, pf: PlaneForest) -> HRep:
        """The subdivision piece of a plane forest on n+1 nodes, as an
        H-rep in R^n: the forms of `piece_rows`."""
        return HRep(self._values.n, self._values.forms(self._piece_keys(pf)))


# ----------------------------------------------------------------------
# Pieces assembled from products and skew cones
# ----------------------------------------------------------------------


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
    the q-dependence.  Must describe the same point set as
    `VertexTable.piece`.
    """
    q = _check_q(q)
    t = _check_t(t)
    trees = [PlaneForest((tree,)) for tree in pf.trees]
    current = VertexTable(trees[-1].node_count(), 1, t).piece(trees[-1])
    for tree in reversed(trees[:-1]):
        current = product(VertexTable(tree.node_count(), 1, t).piece(tree), cone_q(current, q))
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
