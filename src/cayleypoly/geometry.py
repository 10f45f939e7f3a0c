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

Every H-rep, of a family polytope, a piece or a cone, holds its forms in
one format: integers (b, ((i, a_i), ...)) over one positive scale of the
H-rep, for the form (b + sum a_i x_{i+1}) / scale.  The builders read q
and t as numerators and denominators and write the forms in integers;
a membership test, the vertex oracle and the face lattice read each
form's coprime multiple, and `form_texts` prints a form's entries.

Every cell is built through a VertexTable, made per call after q and t
are checked, and never cached: a table interns the vertices it is given,
and at t = 1 cayley, gayley, tcayley and tgayley share one (node count,
q, t).  The table holds 1 - q and the powers (1+t)^k as integer
numerators over one common scale s and as texts, and works out the
coordinate form of each placement (a node's position, cane exponent and
root position, read off the NFS walk that a PlaneForest holds) on its
first lookup, as an integer form over one form denominator; a chain row
is the difference of two such forms.  Each distinct placement and chain
row is kept once, as its integer form, its coprime row and its texts,
and shared by every cell of the table that has it.  The closed-form
vertex sets of the five families (faces.chain_vertices) read a table of
their own: each coordinate, 1, 1 - q or a power (1+t)^k, is one of its
values, as a numerator over s or as a text.

All geometry here is at fixed rational parameter values; symbolic claims
live in the volumes module as closed-form polynomials.  Comparison of
polytopes is by point set (membership, vertex sets), never by literal
inequality lists, which are kept unnormalized as generated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .exact import BivariatePolynomial, sparse_difference
from .forests import (
    LabeledForest,
    PlaneForest,
    catalan,
    count_labeled_forests,
    enumerate_labeled_forests,
    enumerate_plane_forests,
    enumerate_plane_trees,
)

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

    def chain_bounds(self, q: Fraction, t: Fraction) -> tuple[Fraction, Fraction, Fraction]:
        """The polytope's chain at its effective (q, t) as (lo, w, slack):
        lo <= x_i <= w x_{i-1} - slack (1 - min(x_0, ..., x_{i-1})), x_0 = 1,
        the tightest of the tutte rows over j <= i, with lo = 1-q, w = 1+t
        and slack t(1-q)/q (0 at q = 1: the (t-)Gayley chain).  A connected
        family has lo = 1 and slack 0."""
        if self.connected:
            return _ONE, 1 + t, _ZERO
        return 1 - q, 1 + t, t * (1 - q) / q

    def hrep(self, n: int, q: Fraction, t: Fraction) -> HRep:
        """The polytope's H-rep in R^n, for an n and an effective (q, t) already checked."""
        return _chain_hrep_lower_one(n, t) if self.connected else _tutte_hrep(n, q, t)

    def specialize(self, poly: BivariatePolynomial) -> BivariatePolynomial:
        """A volume polynomial of the Tutte polytope (Z_{K_{n+1}} or a closed-form
        total) as the family's own: its q^0 part if connected, at the fixed q and t."""
        return (poly.restrict_q_power(0) if self.connected else poly).substitute(q=self.q, t=self.t)


_ZERO, _ONE = Fraction(0), Fraction(1)
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
# H-representations
# ----------------------------------------------------------------------


def _scaled_text(a: int, scale: int) -> str:
    """`format_rational` of a / scale, for a scale > 0."""
    g = math.gcd(a, scale)
    return _ratio_text(a // g, scale // g)


def _ratio_text(numerator: int, denominator: int) -> str:
    """`format_rational` of numerator/denominator, given in lowest terms
    with a positive denominator."""
    return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)


def form_texts(form: IntegerRow, scale: int, width: int) -> list[str]:
    """The form (b + sum a_i x_{i+1}) / scale as the `format_rational`
    texts of its constant and its width coefficients, "0" for an entry
    that the form does not hold."""
    b, terms = form
    texts = ["0"] * (width + 1)
    texts[0] = _scaled_text(b, scale)
    for i, a in terms:
        texts[i + 1] = _scaled_text(a, scale)
    return texts


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
    """Finite system of affine inequalities form(x) >= 0 in R^dimension.

    Each form is integers (b, ((i, a_i), ...)) over the one positive
    `scale` of the H-rep: the form (b + sum a_i x_{i+1}) / scale, with
    its nonzero a_i only, in index order."""

    dimension: int
    scale: int
    forms: tuple[IntegerRow, ...]

    @cached_property
    def integer_rows(self) -> tuple[IntegerRow, ...]:
        """Each form as coprime integers, a positive multiple of it: same
        sign everywhere, and equal for forms that are positive multiples
        of each other."""
        if any(terms and terms[-1][0] >= self.dimension for _, terms in self.forms):
            raise DimensionError("form dimension mismatch")
        return tuple(_coprime(b, terms) for b, terms in self.forms)

    def contains_numerators(
        self, numerators: Sequence[int], scale: int, strict: bool = False
    ) -> bool:
        """Every form >= 0 (> 0 when strict) at the point (n_1, ..., n_d) / s,
        for a scale s > 0, in integers: `rows_contain` on the integer rows."""
        if len(numerators) != self.dimension:
            raise DimensionError("point dimension mismatch")
        return rows_contain(self.integer_rows, numerators, scale, strict)

    def texts(self) -> Iterator[list[str]]:
        """Each form's `form_texts`, one list per row, made as it is read."""
        scale, width = self.scale, self.dimension
        return (form_texts(form, scale, width) for form in self.forms)


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


def check_open_q(q) -> None:
    """Reject a q outside (0, 1), where the tutte vertex formula fails."""
    if not 0 < Fraction(q) < 1:
        raise ParameterDomainError("q must lie strictly between 0 and 1")


def family_parameters(family: str, q=None, t=None) -> tuple[Family, Fraction, Fraction]:
    """The family's record and its effective (q, t): a fixed value overrides
    the argument, and a free one (1 when None) is checked, q before t."""
    fam = get_family(family)
    q_eff = fam.q if fam.q is not None else _check_q(1 if q is None else q)
    t_eff = fam.t if fam.t is not None else _check_t(1 if t is None else t)
    return fam, q_eff, t_eff


# ----------------------------------------------------------------------
# H-representations of the five families
# ----------------------------------------------------------------------


# Largest dimension of a family polytope built whole: the tutte H-rep has
# n(n+1)/2 + 1 rows of n coefficients, growing as n^3.  At n = 100 that
# is 6.75 MB of JSON (1.06 MB of text); the `hrep` command holds the
# 5051 sparse integer forms, about 0.9 MB, and writes the rows one at a
# time, at 18 MB of peak RSS in either format.
MAX_DIMENSION = 100


def check_dimension(n: int) -> None:
    """Reject a polytope dimension outside 1..MAX_DIMENSION."""
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    if n > MAX_DIMENSION:
        raise ParameterDomainError(f"polytopes are desk scale: n <= {MAX_DIMENSION}")


def build_hrep(family: str, n: int, q=None, t=None) -> HRep:
    """H-representation of the named family's polytope in R^n."""
    get_family(family)  # an unknown family is named before a bad n
    check_dimension(n)
    fam, q_eff, t_eff = family_parameters(family, q, t)
    return fam.hrep(n, q_eff, t_eff)


def _chain_hrep_lower_one(n: int, t: Fraction) -> HRep:
    """1 <= x_i <= (1+t) x_{i-1} with x_0 = 1, over d: t = c/d and
    1+t = e/d."""
    d = t.denominator
    e = t.numerator + d
    forms = []
    for i in range(n):  # the rows of x_{i+1}
        forms.append((-d, ((i, d),)))  # x_i - 1 >= 0
        forms.append((e, ((0, -d),)) if i == 0 else (0, ((i - 1, e), (i, -d))))  # (1+t) x_{i-1} - x_i >= 0
    return HRep(n, d, tuple(forms))


def _tutte_hrep(n: int, q: Fraction, t: Fraction) -> HRep:
    """q x_i <= q(1+t) x_{i-1} - t(1-q)(1-x_{j-1}) for j <= i, plus
    x_n >= 1-q, over b d: q = a/b, t = c/d and 1+t = e/d, so that q(1+t),
    t(1-q) and q are a e, c (b-a) and a d."""
    a, b, c, d = q.numerator, q.denominator, t.numerator, t.denominator
    qw, slack, qd = a * (c + d), c * (b - a), a * d
    forms = []
    for i in range(1, n + 1):
        # q(1+t) x_{i-1} - t(1-q)(1 - x_{j-1}) - q x_i >= 0, x_0 = 1; x_k
        # is index k - 1, and t(1-q) = 0 at q = 1 is left out.
        lowest = ((i - 1, -qd),)
        if i == 1:
            forms.append((qw, lowest))
            continue
        upper = ((i - 2, qw),)
        forms.append((0, upper + lowest))  # j = 1: the t(1-q) terms cancel
        for j in range(2, i):
            forms.append((-slack, (((j - 2, slack),) if slack else ()) + upper + lowest))
        forms.append((-slack, ((i - 2, qw + slack),) + lowest))  # j = i: one x_{i-1} entry
    forms.append((-(b - a) * d, ((n - 1, b * d),)))
    return HRep(n, b * d, tuple(forms))


# ----------------------------------------------------------------------
# Cells: simplices, chain H-reps and pieces
# ----------------------------------------------------------------------


# A node's chain coordinate depends on its placement only, not on its
# component's maximal label: (position, cane_exponent, root_position), the
# position being a root when it is its own root position.  A row key is a
# placement, for its form, or a pair (upper, lower) of placements, for the
# chain row form(upper) - form(lower).


def _cached(cache: dict, build, keys: Sequence) -> tuple:
    """cache[key] for each key, built by build(key) where missing."""
    try:
        return tuple(map(cache.__getitem__, keys))
    except KeyError:
        return tuple(map(build, keys))


def _simplex_vertices(f: LabeledForest, powers: Sequence, one_minus_q) -> tuple[tuple, ...]:
    """The vertices of the forest's simplex in the given values: powers[k]
    stands for (1+t)^k and one_minus_q for 1-q, either a VertexTable's
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
    """The cells of forests on node_count nodes at (q, t), from the few
    exact values they share: simplex vertices in integers or as texts,
    chains and subdivision pieces.

    The values are 1 - q and the powers (1+t)^0 .. (1+t)^(node_count+1),
    as integer numerators over their one common denominator `scale`
    (`int_one_minus_q`, `int_powers`) and as their `format_rational`
    texts (`text_one_minus_q`, `text_powers`).

    The simplex of a labeled forest on n+1 nodes, in R^n, has its vertices
    in closed form: vertex p (p = 1..n+1) puts the chain coordinates of
    labels below p at their 0-end and the rest at the qt-end.  Concretely,
    with w = 1+t and r the maximal label of a node's component:

      root at position l:       x_l = 1 if p <= r else 1-q
      non-root at position i:   x_i = w^(j+1) if p <= label,
                                      w^j     if label < p <= r,
                                      1-q     if p > r.

    Every coordinate is one of the values, so every vertex is integer
    numerators over `scale`.  `numerators(f)` gives the vertices so, and
    `texts(f)` gives them as texts; `add(f)` also interns the numerators
    into `vertices`, each distinct vertex once in order of first
    appearance, and gives the simplex as the indices of its vertices, in
    vertex order, and `point(k)` gives vertex k as Fractions.
    `steps(simplex)` gives the differences of consecutive vertices,
    sparse, for `volumes.steps_volume_scaled`: the step from vertex p to
    p+1 is the first to move the coordinate of the node labelled p, so
    the steps are triangular in vertex order.

    The cells' rows are integer forms over one form denominator
    `form_scale`.  Each placement's coordinate form is worked out from
    q = a/b, t = c/d and 1+t = e/d on its first lookup, and a chain row,
    the difference of two placement forms, from their kept forms.  Each
    row key's integer form, its coprime `IntegerRow` and its
    `form_texts` are built once and shared by every cell of the table
    that has the key.  `chain_rows(f)` and `piece_rows(pf)` give a cell
    as a tuple of coprime rows; `piece(pf)` gives the piece as an H-rep
    of the integer forms, and `piece_texts(pf)` as their texts.
    """

    __slots__ = (
        "n", "scale", "int_one_minus_q", "int_powers", "text_one_minus_q", "text_powers", "form_scale",
        "vertices", "_parameters", "_forms", "_rows", "_texts", "_index", "_steps",
    )

    def __init__(self, node_count: int, q, t):
        q, t = _check_q(q), _check_t(t)
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
        # The forms are over b d e^J, J the largest cane exponent of a
        # non-root (node_count - 2).
        last = max(node_count - 2, 0)
        self.form_scale = b * d * e**last
        self._parameters = a, b, c, d, e, last
        self._forms: dict = {}
        self._rows: dict = {}
        self._texts: dict = {}
        self.vertices: list[tuple[int, ...]] = []
        self._index: dict[tuple[int, ...], int] = {}
        self._steps: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}

    def _check_nodes(self, node_count: int) -> None:
        if node_count != self.n + 1:
            raise DimensionError("forest/table node count mismatch")

    def numerators(self, f: LabeledForest) -> tuple[tuple[int, ...], ...]:
        self._check_nodes(f.node_count)
        return _simplex_vertices(f, self.int_powers, self.int_one_minus_q)

    def texts(self, f: LabeledForest) -> tuple[tuple[str, ...], ...]:
        self._check_nodes(f.node_count)
        return _simplex_vertices(f, self.text_powers, self.text_one_minus_q)

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

    def point(self, k: int) -> tuple[Fraction, ...]:
        """Vertex k as Fractions."""
        return tuple(Fraction(x, self.scale) for x in self.vertices[k])

    def _form(self, key) -> IntegerRow:
        """The form of a row key as integers over `form_scale`:
        (b, ((i, a_i), ...)), the nonzero a_i only, in index order."""
        form = self._forms.get(key)
        if form is None:
            if len(key) == 2:
                (b, upper), (c, lower) = map(self._form, key)
                coeffs = dict(upper)
                for i, a in lower:
                    coeffs[i] = coeffs.get(i, 0) - a
                form = b - c, tuple(sorted((i, a) for i, a in coeffs.items() if a))
            else:
                form = self._placement_form(*key)
            self._forms[key] = form
        return form

    def _placement_form(self, position: int, j: int, root_position: int) -> IntegerRow:
        """The node coordinate of a placement: qt at position 0,
        t x_l - t(1-q) at a root, and at a non-root
        (q/w^j) x_i + (1-q)(1-1/w^j) + ((1-q)/w^j - 1) x_l, w = 1+t."""
        a, b, c, d, e, last = self._parameters
        if position == 0:
            return a * c * e**last, ()
        if position == root_position:
            f = c * e**last
            return -(b - a) * f, ((position - 1, b * f),)
        f = d * e ** (last - j)
        coeff = a * d**j * f
        const = (b - a) * (e**j - d**j) * f
        root_coeff = ((b - a) * d**j - b * e**j) * f
        if root_position == 0:
            return const + root_coeff, ((position - 1, coeff),)  # x_l = 1 collapses into the constant
        return const, ((root_position - 1, root_coeff), (position - 1, coeff))

    def _row(self, key) -> IntegerRow:
        """The coprime integer row of a row key."""
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = _coprime(*self._form(key))
        return row

    def _text(self, key) -> tuple[str, ...]:
        """The `form_texts` of a row key, as a tuple."""
        text = self._texts.get(key)
        if text is None:
            text = self._texts[key] = tuple(form_texts(self._form(key), self.form_scale, self.n))
        return text

    def _chain_keys(self, f: LabeledForest) -> list:
        """The row keys of the forest's chain: c(1) >= 0 and
        c(k+1) - c(k) >= 0 for the label-ordered chain of node
        coordinates; c(n+1) is the constant qt."""
        self._check_nodes(f.node_count)
        walk = f.shape.walk
        keys = [(i, walk[i][1], walk[i][2]) for i in sorted(range(f.node_count), key=f.order.__getitem__)]
        return [keys[0], *zip(keys[1:], keys)]

    def _piece_keys(self, pf: PlaneForest) -> list:
        """The row keys of the plane forest's piece.

        Per-node chains: for a node with successors v_1..v_k (left to
        right) in a component rooted at w, 0 <= c(v_1) <= ... <= c(v_k)
        <= c(w); for the roots w_1..w_m (left to right),
        0 <= c(w_m) <= ... <= c(w_1) with c(w_1) = qt constant."""
        self._check_nodes(pf.node_count())
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
        return _cached(self._rows, self._row, self._chain_keys(f))

    def piece_rows(self, pf: PlaneForest) -> tuple[IntegerRow, ...]:
        """The plane forest's piece as the table's coprime integer rows."""
        return _cached(self._rows, self._row, self._piece_keys(pf))

    def piece(self, pf: PlaneForest) -> HRep:
        """The subdivision piece of a plane forest on n+1 nodes, as an
        H-rep in R^n: the integer forms of `piece_rows`, over
        `form_scale`."""
        return HRep(self.n, self.form_scale, tuple(map(self._form, self._piece_keys(pf))))

    def piece_texts(self, pf: PlaneForest) -> tuple[tuple[str, ...], ...]:
        """The rows of `piece(pf)` as `form_texts`, each distinct row's
        tuple shared by every piece that has it."""
        return _cached(self._texts, self._text, self._piece_keys(pf))


# ----------------------------------------------------------------------
# Pieces assembled from products and skew cones
# ----------------------------------------------------------------------


def _rescaled(forms: Iterable[IntegerRow], factor: int, shift: int) -> list[IntegerRow]:
    """The forms times factor, each index moved up by shift."""
    return [(b * factor, tuple((i + shift, a * factor) for i, a in terms)) for b, terms in forms]


def product(a: HRep, b: HRep) -> HRep:
    """Cartesian product; b's variables are shifted after a's.  The forms
    are over the lcm of the two scales."""
    scale = math.lcm(a.scale, b.scale)
    forms = _rescaled(a.forms, scale // a.scale, 0) + _rescaled(b.forms, scale // b.scale, a.dimension)
    return HRep(a.dimension + b.dimension, scale, tuple(forms))


def cone_q(p: HRep, q) -> HRep:
    """Skew cone with apex (1-q, ..., 1-q) and base {1} x P.

    A point (x_0, x) belongs iff 1-q <= x_0 <= 1 and
    q*x lies in (x_0 - 1 + q) P + (1-q)(1-x_0) * (1, ..., 1).
    Each row b + a.y >= 0 of P linearizes to
    b (x_0 - 1 + q) + sum_i a_i (q x_i - (1-q)(1-x_0)) >= 0,
    which for bounded P describes the closed cone exactly.  At q = 1 the
    apex is the origin and x lies in x_0 * P.

    With q = u/v, the forms are over v times P's scale: a form
    (c + sum a_i y_i) / s of P, with S = sum a_i, becomes
    -(v-u)(c + S) + (v c + (v-u) S) x_0 + sum_i u a_i x_i.
    """
    q = _check_q(q)
    u, v = q.numerator, q.denominator
    scale = v * p.scale
    forms = [
        (-(v - u) * p.scale, ((0, scale),)),  # x_0 >= 1-q
        (scale, ((0, -scale),)),  # x_0 <= 1
    ]
    for c, terms in p.forms:
        total = sum(a for _, a in terms)
        x0 = v * c + (v - u) * total
        forms.append((-(v - u) * (c + total), (((0, x0),) if x0 else ()) + tuple((i + 1, u * a) for i, a in terms)))
    return HRep(p.dimension + 1, scale, tuple(forms))


def piece_for_plane_forest_via_cones(pf: PlaneForest, q, t) -> HRep:
    """The same piece assembled as D_1 x cone_q(D_2 x cone_q(D_3 x ...)).

    Each D_p is the one-component piece of the p-th plane tree at q = 1
    (its chain coordinates never mention q); the skew cones then reinstate
    the q-dependence.  Must describe the same point set as
    `VertexTable.piece`.
    """
    _, q, t = family_parameters("tutte", q, t)
    trees = [PlaneForest((tree,)) for tree in pf.trees]
    current = VertexTable(trees[-1].node_count(), 1, t).piece(trees[-1])
    for tree in reversed(trees[:-1]):
        current = product(VertexTable(tree.node_count(), 1, t).piece(tree), cone_q(current, q))
    return current
