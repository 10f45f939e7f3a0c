"""Reference oracles that the tests share and no command or verify job runs.

Each one checks something the package computes another way: labeled
graphs and the exhaustive sweep over them (with the one union-find,
`partition_pattern`), the neighbors-first search forest of a graph, cane
paths counted from one node, the conversion between the spanning-subgraph
sum Z and the Tutte polynomial, the inversion enumerator of labeled trees,
the observed edge and 2-face count formulas of the Tutte polytope, the
extremality certificate of a vertex set, Fraction points read from and
written to the package's integer forms (vertex sets, vertex keys and
membership), Fraction affine forms with the H-rep text form and the
family, product and cone H-reps built from them, the chain and piece
forms built in Fractions node by node, and the simplex volume by
elimination of the differences to the first vertex, and by the
package's expansion of the consecutive differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from cayleypoly import BivariatePolynomial, tutte_f_vector
from cayleypoly.exact import (
    Coefficient,
    Monomial,
    clear_denominators,
    eliminate,
    format_rational,
    parse_integer,
    parse_rational,
    sparse_difference,
)
from cayleypoly.faces import VertexSet, _contact_masks
from cayleypoly.forests import MAX_FOREST_NODES, LabeledForest, PlaneForest, enumerate_labeled_forests, graph_walk
from cayleypoly.geometry import DimensionError, HRep, IntegerRow, _check_q
from cayleypoly.graphs import MAX_NODES, mask_pairs, pair_index
from cayleypoly.verify import vertex_key
from cayleypoly.volumes import DegenerateSimplexError, steps_volume_scaled

# ----------------------------------------------------------------------
# Labeled graphs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledGraph:
    """Simple graph on nodes {1..node_count}; edges is a C(n,2)-bit mask."""

    node_count: int
    edges: int

    def __post_init__(self):
        n = self.node_count
        if not 1 <= n <= MAX_NODES:
            raise ValueError(f"node_count must be in 1..{MAX_NODES}")
        if self.edges < 0 or self.edges >> (n * (n - 1) // 2):
            raise ValueError("edge mask out of range")

    @classmethod
    def from_edges(cls, n: int, edge_pairs) -> "LabeledGraph":
        mask = 0
        for i, j in edge_pairs:
            bit = 1 << pair_index(i, j, n)
            if mask & bit:
                raise ValueError(f"repeated pair ({i}, {j})")
            mask |= bit
        return cls(n, mask)

    @classmethod
    def from_text(cls, text: str) -> "LabeledGraph":
        """Parse the text form "n:i-j,i-j,..." (edge list may be empty)."""
        head, _, body = text.partition(":")
        try:
            n = parse_integer(head)
        except ValueError:
            raise ValueError(f"bad header {head!r}: expected the node count") from None
        pairs = []
        if body:
            for item in body.split(","):
                i, _, j = item.partition("-")
                try:
                    pairs.append((parse_integer(i), parse_integer(j)))
                except ValueError:
                    raise ValueError(f"bad edge {item!r}: expected 'i-j'") from None
        return cls.from_edges(n, pairs)

    def to_text(self) -> str:
        body = ",".join(f"{i}-{j}" for i, j in self.edge_list())
        return f"{self.node_count}:{body}"

    def edge_list(self) -> list[tuple[int, int]]:
        return mask_pairs(self.node_count, self.edges)

    def edge_count(self) -> int:
        return self.edges.bit_count()


def partition_pattern(n: int, edge_pairs) -> tuple[int, ...]:
    """Component labels of the nodes {0..n-1} under the given edges, by
    union-find; components are numbered in order of their first node."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edge_pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    relabel: dict[int, int] = {}
    out = []
    for v in range(n):
        root = find(v)
        if root not in relabel:
            relabel[root] = len(relabel)
        out.append(relabel[root])
    return tuple(out)


def _pattern(g: LabeledGraph) -> tuple[int, ...]:
    return partition_pattern(g.node_count, ((i - 1, j - 1) for i, j in g.edge_list()))


def component_count(g: LabeledGraph) -> int:
    """Number of connected components, isolated nodes included."""
    return len(set(_pattern(g)))


def is_connected(g: LabeledGraph) -> bool:
    return component_count(g) == 1


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[LabeledGraph]:
    """All labeled graphs on {1..n}, in increasing edge-mask order.

    The stream is a pure function of (n, cursor): restarting it always
    yields the same graphs.
    """
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"n must be in 1..{MAX_NODES}")
    for mask in range(1 << (n * (n - 1) // 2)):
        g = LabeledGraph(n, mask)
        if connected_only and not is_connected(g):
            continue
        yield g


def count_connected_graphs(n: int) -> int:
    """Number of connected labeled graphs on n nodes, by exhaustive sweep."""
    return sum(1 for _ in enumerate_graphs(n, connected_only=True))


# ----------------------------------------------------------------------
# Forests of graphs and cane paths
# ----------------------------------------------------------------------


def nfs(g: LabeledGraph) -> LabeledForest:
    """The neighbors-first search forest of a labeled graph."""
    return LabeledForest._walked(graph_walk(g.node_count, g.edge_list()))


def position(f: LabeledForest, v: int) -> int:
    """The NFS position of label v in the forest."""
    return f.order.index(v)


def cane_paths_from(f: LabeledForest, v: int) -> int:
    """Number of cane paths starting at node v."""
    if not 1 <= v <= f.node_count:
        raise ValueError(f"node {v} not in forest")
    return f.shape.walk[position(f, v)][1]


# ----------------------------------------------------------------------
# Spanning-subgraph sum <-> Tutte polynomial
# ----------------------------------------------------------------------


def var_q() -> BivariatePolynomial:
    """The polynomial q."""
    return BivariatePolynomial.monomial(1, 0)


def var_t() -> BivariatePolynomial:
    """The polynomial t."""
    return BivariatePolynomial.monomial(0, 1)


def tutte_from_z(z: BivariatePolynomial, nodes: int) -> BivariatePolynomial:
    """Convert the spanning-subgraph sum Z_G(q, t) of a connected graph on
    `nodes` nodes into its Tutte polynomial T_G(x, y).

    Substitutes q -> (x-1)(y-1) and t -> (y-1), then divides by
    (y-1)**(nodes-1).  The intermediate Laurent step is handled by working
    in the variable u = y - 1 and shifting degrees down at the end; a
    nonzero residue below u**(nodes-1) means the input was not the
    spanning-subgraph sum of a connected graph.

    In the result the first exponent slot holds x and the second holds y.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    shift = nodes - 1
    # Accumulate sum c * (x-1)^dq * u^(dq+dt) as a polynomial in (x, u).
    in_x_u = BivariatePolynomial.zero()
    x_minus_1 = var_q() - 1
    for (dq, dt), coeff in z.terms():
        term = (x_minus_1**dq) * BivariatePolynomial.monomial(0, dq + dt, coeff)
        in_x_u = in_x_u + term
    shifted: dict[Monomial, Coefficient] = {}
    for (dx, du), coeff in in_x_u.terms():
        if du < shift:
            raise ValueError(
                "nonzero residue below the cancellation degree: "
                "input is not the spanning-subgraph sum of a connected graph"
            )
        shifted[(dx, du - shift)] = coeff
    # Substitute u = y - 1 back.
    y_minus_1 = var_t() - 1
    out = BivariatePolynomial.zero()
    for (dx, du), coeff in sorted(shifted.items()):
        out += BivariatePolynomial.monomial(dx, 0, coeff) * (y_minus_1**du)
    return out


def z_from_tutte(tutte: BivariatePolynomial, n: int) -> BivariatePolynomial:
    """Expand t**n * T(1 + q/t, 1 + t) as an exact polynomial in (q, t).

    For the Tutte polynomial of a connected graph on n+1 nodes the x-degree
    is at most n, so each monomial x**a y**b contributes
    t**(n-a) * (t+q)**a * (1+t)**b and no negative powers of t occur.
    """
    t_plus_q = var_t() + var_q()
    out = BivariatePolynomial.zero()
    for (a, b), coeff in tutte.terms():
        if a > n:
            raise ValueError(f"x-degree {a} exceeds {n}")
        term = BivariatePolynomial.monomial(0, n - a, coeff)
        term = term * t_plus_q**a * BivariatePolynomial.one_plus_t_power(b)
        out += term
    return out


# ----------------------------------------------------------------------
# Tree inversions
# ----------------------------------------------------------------------


def tree_inversions(tree: LabeledForest) -> int:
    """Pairs (i, j), i > j, with non-root i an ancestor of j."""
    if not tree.is_tree():
        raise ValueError("inversions are defined for trees")
    root = tree.component_order[0]
    parent = tree.parent
    count = 0
    for j in range(1, tree.node_count + 1):
        anc = parent.get(j)
        while anc is not None:
            if anc > j and anc != root:
                count += 1
            anc = parent.get(anc)
    return count


def inversion_enumerator(n: int) -> BivariatePolynomial:
    """Generating function of labeled trees on n nodes by inversion count.

    Returned in the second exponent slot (read it as a polynomial in y).
    Equals the Tutte polynomial of K_n evaluated at x = 1, and satisfies
    F_n(t) = t^(n-1) * (this polynomial at y = 1+t).
    """
    if not 1 <= n <= MAX_FOREST_NODES:
        raise ValueError(f"labeled trees need n in 1..{MAX_FOREST_NODES}, got {n}")
    return BivariatePolynomial(
        ((0, tree_inversions(tree)), 1) for tree in enumerate_labeled_forests(n, trees_only=True)
    )


# ----------------------------------------------------------------------
# Edge and 2-face count formulas
# ----------------------------------------------------------------------


def edge_count_formula(n: int) -> int:
    """Observed edge count of the 2-parameter polytope: 3(n-1) 2^(n-2) + 1."""
    return 3 * (n - 1) * 2 ** (n - 2) + 1 if n >= 2 else 0


def two_face_count_formula(n: int) -> int:
    """Observed 2-face count: 2^(n-5) (9 n^2 - 29 n + 38) - 1."""
    value = Fraction(9 * n * n - 29 * n + 38) * Fraction(2) ** (n - 5) - 1
    if value.denominator != 1:
        raise ArithmeticError(f"formula not integral at n={n}")
    return value.numerator


@dataclass(frozen=True)
class ConjectureRow:
    n: int
    q: Fraction
    t: Fraction
    edges_computed: int
    edges_formula: int
    two_faces_computed: int
    two_faces_formula: int

    @property
    def matches(self) -> bool:
        return (
            self.edges_computed == self.edges_formula
            and self.two_faces_computed == self.two_faces_formula
        )


def conjecture_check(n_max: int, samples=((Fraction(1, 2), Fraction(1)),)) -> list[ConjectureRow]:
    """Compare computed f_1 and f_2 against the closed formulas for n = 2..n_max.

    At n = 2 the polytope is two-dimensional and its single top face is
    counted as the one 2-face, matching the formula's degenerate value.
    """
    rows = []
    for n in range(2, n_max + 1):
        for q, t in samples:
            f = tutte_f_vector(n, q, t)
            two_faces = f[2] if n >= 3 else 1
            rows.append(
                ConjectureRow(
                    n=n,
                    q=Fraction(q),
                    t=Fraction(t),
                    edges_computed=f[1],
                    edges_formula=edge_count_formula(n),
                    two_faces_computed=two_faces,
                    two_faces_formula=two_face_count_formula(n),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Fraction points and the integer forms of the package
# ----------------------------------------------------------------------


def fraction_points(vertices) -> tuple[tuple[Fraction, ...], ...]:
    """A VertexSet's points, or `enumerate_hrep_vertices`' keys, as
    Fraction points, in their order."""
    if isinstance(vertices, VertexSet):
        return tuple(tuple(Fraction(x, vertices.scale) for x in p) for p in vertices.points)
    return tuple(tuple(Fraction(x, d) for x in p) for p, d in vertices)


def vertex_set_of(points, provenance=None) -> VertexSet:
    """Fraction points as a VertexSet over their least common denominator,
    each named "p" unless names are given."""
    points = tuple(points)
    d = len(points[0]) if points else 0
    coordinates, scale = clear_denominators([x for p in points for x in p])
    rows = tuple(tuple(coordinates[k * d : (k + 1) * d]) for k in range(len(points)))
    return VertexSet(scale, rows, provenance or ("p",) * len(points))


def point_keys(points) -> tuple:
    """Fraction points as their sorted `vertex_key`s, the form the vertex
    oracle gives."""
    return tuple(sorted(vertex_key(*clear_denominators(p)) for p in points))


def contains(hrep: HRep, point, strict: bool = False) -> bool:
    """`HRep.contains_numerators` at a Fraction point."""
    return hrep.contains_numerators(*clear_denominators(point), strict)


# ----------------------------------------------------------------------
# Extremality certificate
# ----------------------------------------------------------------------


def vertices_are_extreme(vertices: VertexSet, hrep: HRep) -> bool:
    """True when no point lies in the convex hull of the others.

    Certificate: for every ordered pair (a, b) some valid inequality is
    tight at a and strictly positive at b.  If a were a convex combination
    of the rest with a positive weight on b, that inequality would be
    tight at a yet positive on the combination.  Equivalently, the
    contact sets through a meet in a alone.
    """
    masks = _contact_masks(vertices, hrep)
    count = len(vertices.points)
    for a in range(count):
        meet = (1 << count) - 1
        for mask in masks:
            if mask >> a & 1:
                meet &= mask
        if meet != 1 << a:
            return False
    return True


# ----------------------------------------------------------------------
# Fraction affine forms and the H-reps built from them
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
        a_i only, cleared from the Fractions."""
        (b, *coeffs), _ = clear_denominators((self.constant, *self.coefficients))
        terms = tuple((i, a) for i, a in enumerate(coeffs) if a)
        g = math.gcd(b, *(a for _, a in terms)) or 1
        return b // g, tuple((i, a // g) for i, a in terms)

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """The constant and the coefficients as `format_rational` texts."""
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


def hrep_from_forms(dimension: int, forms: Sequence[AffineForm]) -> HRep:
    """The H-rep of these Fraction forms, as integer forms over their least
    common denominator."""
    if any(len(form.coefficients) != dimension for form in forms):
        raise DimensionError("form dimension mismatch")
    values = [x for form in forms for x in (form.constant, *form.coefficients)]
    numerators, scale = clear_denominators(values) if values else ([], 1)
    width = dimension + 1
    rows = []
    for k in range(0, len(numerators), width):
        b, *coeffs = numerators[k : k + width]
        rows.append((b, tuple((i, a) for i, a in enumerate(coeffs) if a)))
    return HRep(dimension, scale, tuple(rows))


def hrep_forms(hrep: HRep) -> tuple[AffineForm, ...]:
    """The H-rep's integer forms read back as Fraction forms."""
    forms = []
    for b, terms in hrep.forms:
        coeffs = [Fraction(0)] * hrep.dimension
        for i, a in terms:
            coeffs[i] = Fraction(a, hrep.scale)
        forms.append(AffineForm(Fraction(b, hrep.scale), tuple(coeffs)))
    return tuple(forms)


def hrep_to_text(hrep: HRep) -> str:
    """The H-rep as the `hrep --format text` command writes it: the header
    'dimension rows', then one line of texts per row."""
    lines = [f"{hrep.dimension} {len(hrep.forms)}", *(" ".join(row) for row in hrep.texts())]
    return "\n".join(lines) + "\n"


def hrep_from_text(text: str) -> HRep:
    """The H-rep of `hrep_to_text`'s form, each entry an exact rational."""
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
    return hrep_from_forms(dim, forms)


def chain_hrep_forms(n: int, t: Fraction) -> list[AffineForm]:
    """1 <= x_i <= (1+t) x_{i-1} with x_0 = 1, in Fractions: the
    connected families' H-rep."""
    w = 1 + t
    rows = []
    for i in range(1, n + 1):
        rows.append(AffineForm.linear(n, i, 1, -1))  # x_i - 1 >= 0
        if i == 1:
            rows.append(AffineForm.linear(n, 1, -1, w))  # (1+t) - x_1 >= 0
        else:
            rows.append(AffineForm.linear(n, i - 1, w) - AffineForm.linear(n, i, 1))
    return rows


def tutte_hrep_forms(n: int, q: Fraction, t: Fraction) -> list[AffineForm]:
    """q x_i <= q(1+t) x_{i-1} - t(1-q)(1-x_{j-1}) for j <= i, plus
    x_n >= 1-q, in Fractions: the other families' H-rep."""
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
    return rows


def product_forms(a: Sequence[AffineForm], a_dim: int, b: Sequence[AffineForm], b_dim: int) -> list[AffineForm]:
    """The forms of the Cartesian product, b's variables shifted after a's."""
    rows = [AffineForm(f.constant, f.coefficients + (Fraction(0),) * b_dim) for f in a]
    rows += [AffineForm(f.constant, (Fraction(0),) * a_dim + f.coefficients) for f in b]
    return rows


def cone_q_forms(p: Sequence[AffineForm], dimension: int, q) -> list[AffineForm]:
    """The forms of the skew cone with apex (1-q, ..., 1-q) and base
    {1} x P: 1-q <= x_0 <= 1, and each row b + a.y of P as
    b (x_0 - 1 + q) + sum_i a_i (q x_i - (1-q)(1-x_0))."""
    q = _check_q(q)
    dim = dimension + 1
    rows = [AffineForm.linear(dim, 1, 1, -(1 - q)), AffineForm.linear(dim, 1, -1, 1)]
    for form in p:
        s = sum(form.coefficients, Fraction(0))
        const = form.constant * (q - 1) - (1 - q) * s
        coeffs = [form.constant + (1 - q) * s]
        coeffs.extend(q * a for a in form.coefficients)
        rows.append(AffineForm(const, tuple(coeffs)))
    return rows


# ----------------------------------------------------------------------
# Cells in Fractions: chain and piece forms, and simplex volumes
# ----------------------------------------------------------------------


def placement_form(n: int, q: Fraction, t: Fraction, position: int, j: int, root_position: int) -> AffineForm:
    """The chain coordinate of a node at this position, with cane exponent
    j and its root at root_position, as a Fraction affine form on R^n."""
    mq = 1 - q
    if position == 0:
        return AffineForm.constant_form(n, q * t)
    if position == root_position:
        return AffineForm.linear(n, position, t, -t * mq)
    wj = (1 + t) ** j
    coeffs = [Fraction(0)] * n
    coeffs[position - 1] = q / wj
    const = mq - mq / wj
    if root_position == 0:
        const += mq / wj - 1  # x_l = 1 collapses into the constant
    else:
        coeffs[root_position - 1] += mq / wj - 1
    return AffineForm(const, tuple(coeffs))


def _placement_forms(walk, q: Fraction, t: Fraction) -> list[AffineForm]:
    """The placement form of each position of an NFS walk."""
    n = len(walk) - 1
    return [placement_form(n, q, t, i, j, top) for i, (_, j, top) in enumerate(walk)]


def chain_forms(f: LabeledForest, q: Fraction, t: Fraction) -> list[AffineForm]:
    """The forest's chain, form by form: c(1), then c(k+1) - c(k), for the
    node coordinates c in label order."""
    forms = _placement_forms(f.shape.walk, q, t)
    by_label = [forms[i] for i in sorted(range(f.node_count), key=f.order.__getitem__)]
    return [by_label[0]] + [upper - lower for lower, upper in zip(by_label, by_label[1:])]


def piece_forms(pf: PlaneForest, q: Fraction, t: Fraction) -> list[AffineForm]:
    """The plane forest's piece, form by form: per node with children, the
    first child's form, the differences along the children and the top
    of the chain; then, with more than one root, the last root's form and
    the differences along the roots."""
    forms = _placement_forms(pf.walk, q, t)
    rows = []
    for (_, _, top), kids in zip(pf.walk, pf.kids()):
        if not kids:
            continue
        rows.append(forms[kids[0]])
        rows.extend(forms[b] - forms[a] for a, b in zip(kids, kids[1:]))
        rows.append(forms[top] - forms[kids[-1]])
    if len(pf.roots) > 1:
        rows.append(forms[pf.roots[-1]])
        rows.extend(forms[a] - forms[b] for a, b in zip(pf.roots, pf.roots[1:]))
    return rows


def volume_scaled(vertices) -> int:
    """|det(v_i - v_0)| of integer vertices, by `eliminate` on the dense
    differences; raises DegenerateSimplexError on an affinely dependent
    vertex set."""
    v0 = vertices[0]
    rows = [[x - y for x, y in zip(v, v0)] for v in vertices[1:]]
    if not rows:
        return 1
    pivots, _ = eliminate(rows)
    if len(pivots) < len(rows):
        raise DegenerateSimplexError("affinely dependent vertices")
    return abs(rows[-1][-1])


def integer_volume_scaled(vertices) -> int:
    """|det(v_i - v_0)| of integer vertices, by `steps_volume_scaled` on
    their consecutive differences, which must be triangular in the given
    order (a forest's simplex in vertex order is); raises
    DegenerateSimplexError otherwise.  `volume_scaled` takes any vertex
    set."""
    if any(len(v) != len(vertices) - 1 for v in vertices):
        raise ValueError("a simplex in R^n needs n + 1 vertices of n coordinates")
    return steps_volume_scaled([sparse_difference(v, u) for u, v in zip(vertices, vertices[1:])])
