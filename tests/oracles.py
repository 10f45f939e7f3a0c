"""Reference oracles that the tests share and no command or verify job runs.

Each one checks something the package computes another way: labeled
graphs and the exhaustive sweep over them (with the one union-find,
`partition_pattern`), the neighbors-first search forest of a graph, cane
paths counted from one node, the conversion between the spanning-subgraph
sum Z and the Tutte polynomial, the inversion enumerator of labeled trees,
the observed edge and 2-face count formulas of the Tutte polytope, and
the extremality certificate of a vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from cayleypoly import BivariatePolynomial, tutte_f_vector
from cayleypoly.exact import Coefficient, Monomial, parse_integer
from cayleypoly.faces import VertexSet, _contact_masks
from cayleypoly.forests import MAX_FOREST_NODES, LabeledForest, enumerate_labeled_forests, graph_walk
from cayleypoly.geometry import HRep
from cayleypoly.graphs import MAX_NODES, mask_pairs, pair_index

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


def cane_paths_from(f: LabeledForest, v: int) -> int:
    """Number of cane paths starting at node v."""
    if not 1 <= v <= f.node_count:
        raise ValueError(f"node {v} not in forest")
    return f.shape.walk[f.position(v)][1]


# ----------------------------------------------------------------------
# Spanning-subgraph sum <-> Tutte polynomial
# ----------------------------------------------------------------------


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
    x_minus_1 = BivariatePolynomial.var_q() - 1
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
    y_minus_1 = BivariatePolynomial.var_t() - 1
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
    t_plus_q = BivariatePolynomial.var_t() + BivariatePolynomial.var_q()
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
    masks = _contact_masks(vertices.points, hrep)
    count = len(vertices.points)
    for a in range(count):
        meet = (1 << count) - 1
        for mask in masks:
            if mask >> a & 1:
                meet &= mask
        if meet != 1 << a:
            return False
    return True
