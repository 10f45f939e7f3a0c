"""Exact volumes, graph generating functions, and the counting results.

All volumes are reported scaled by n! (so every identity stays inside the
polynomial ring); raw volumes are the scaled values divided by n!.

The spanning-subgraph sum

    Z_{K_n}(q, t) = sum over subgraphs H of K_n of q^(k(H)-1) t^(e(H))

is computed by a node-by-node transfer over all 2^C(n,2) subgraphs.  A
subgraph of K_n is the sequence of its stars: node m joins some subset of
the nodes 0..m-1.  The sweep keeps a table from the component-size
profile of the nodes seen so far (the sorted tuple of sizes, p(m) states
for p the partition function) to subgraph counts by edge number, packed
in one int (Kronecker substitution: one digit per edge number).  Node m
joins j of the k components of each size s in C(k, j) ((1+x)^s - 1)^j
ways, since its star must reach every component it joins; the last table
is reduced to (components, edges).  Each subgraph is counted exactly
once, components of equal size together through the binomials.  No
connected-graph count or recursion formula enters this oracle.

Closed forms are tallies {(a, b, k): c} of terms c q^a t^b (1+t)^k, and
the connected-graph recursion holds its r_k in powers of 1+t; a tally is
expanded into a BivariatePolynomial once, for a reported result.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

from .exact import BivariatePolynomial, abs_determinant
from .forests import LabeledForest, PlaneForest, alpha
from .geometry import ParameterDomainError, VertexTable, family_parameters, get_family

Z_MAX_NODES = 7


class DegenerateSimplexError(ValueError):
    """The vertex set is affinely dependent (zero volume)."""


# ----------------------------------------------------------------------
# Determinant volumes
# ----------------------------------------------------------------------


def steps_volume_scaled(steps: Sequence[Sequence[tuple[int, int]]]) -> int:
    """|det| of a simplex's consecutive vertex differences v_i - v_{i-1},
    given as sparse rows (`exact.sparse_difference`), by `abs_determinant`;
    raises on a singular set (an affinely dependent vertex set).

    These rows span the same lattice parallelotope as v_i - v_0 up to
    unimodular row operations, and so have the same |det|; for a forest's
    simplex they are sparse.  A simplex whose vertices are integer
    numerators over a scale s has n! vol equal to this divided by s^n."""
    volume = abs_determinant(steps)
    if not volume:
        raise DegenerateSimplexError("affinely dependent vertices")
    return volume


# ----------------------------------------------------------------------
# Closed-form volumes
# ----------------------------------------------------------------------


def tally_monomials(tally: Mapping[tuple[int, int, int], int]) -> Counter:
    """The monomials of the sum of c q^a t^b (1+t)^k over {(a, b, k): c}."""
    monomials = Counter()
    for (a, b, k), c in tally.items():
        monomials.update({(a, b + i): c * math.comb(k, i) for i in range(k + 1)})
    return monomials


def simplex_tally(forests: Iterable[LabeledForest]) -> Counter:
    """The forests' simplices, n! vol q^(k-1) t^|E| (1+t)^alpha each, as a tally."""
    return Counter((f.component_count() - 1, f.edge_count(), alpha(f)) for f in forests)


def piece_tally(plane_forests: Iterable[PlaneForest]) -> Counter:
    """The plane forests' subdivision pieces, by n! vol, as a tally.

    A piece with m components, N nodes and reduced degrees d_1, d_2, ...
    has n! vol (its labeled forest count) times
    q^(m-1) t^(sum d_i) (1+t)^(C(N+1-m, 2) - sum i d_i).
    """
    tally = Counter()
    for pf in plane_forests:
        reduced = pf.reduced_degree_sequence()
        m = pf.component_count()
        weighted_degrees = sum(i * d for i, d in enumerate(reduced, start=1))
        exponent = math.comb(pf.node_count() + 1 - m, 2) - weighted_degrees
        tally[m - 1, sum(reduced), exponent] += pf.labeled_forest_count()
    return tally


def closed_form_simplex_total(forests: Iterable[LabeledForest]) -> BivariatePolynomial:
    """Sum of the n! vols of the forests' simplices."""
    return BivariatePolynomial(tally_monomials(simplex_tally(forests)))


def closed_form_piece_total(plane_forests: Iterable[PlaneForest]) -> BivariatePolynomial:
    """Sum of the n! vols of the plane forests' subdivision pieces."""
    return BivariatePolynomial(tally_monomials(piece_tally(plane_forests)))


# ----------------------------------------------------------------------
# Spanning-subgraph sweep
# ----------------------------------------------------------------------


def subgraph_tally(n: int) -> dict[tuple[int, int], int]:
    """Counts of spanning subgraphs of K_n by (components, edges), nonzero
    entries only, from a node-by-node transfer over component-size profiles."""
    if not 1 <= n <= Z_MAX_NODES:
        raise ValueError(f"n must be in 1..{Z_MAX_NODES}")
    # Counts by edge number e are packed into one int, digit e at bit w*e.
    # Every coefficient, partial products included, is nonnegative and
    # counts distinct subgraphs of K_n, so it is at most 2^C(n,2) < 2^w:
    # no digit carries into the next.
    w = math.comb(n, 2) + 1
    # (1+x)^s - 1 at x = 2^w: the stars of a new node that join a component of size s.
    joins = [((1 << w) + 1) ** s - 1 for s in range(n)]
    # {sorted component sizes of the nodes seen so far: packed counts}
    table: dict[tuple[int, ...], int] = {(): 1}
    for _ in range(n):
        grown: Counter = Counter()
        for sizes, counts in table.items():
            # (sizes kept apart, size of the new node's component, packed ways)
            choices = [((), 1, counts)]
            for s, k in Counter(sizes).items():
                choices = [
                    (kept + (s,) * (k - j), joined + s * j, ways * math.comb(k, j) * joins[s] ** j)
                    for kept, joined, ways in choices
                    for j in range(k + 1)
                ]
            for kept, joined, ways in choices:
                grown[tuple(sorted((*kept, joined)))] += ways
        table = grown
    # Profiles with equal component counts add up before the one unpacking.
    by_components = Counter()
    for sizes, counts in table.items():
        by_components[len(sizes)] += counts
    tally: dict[tuple[int, int], int] = {}
    for k, counts in by_components.items():
        for e in range(counts.bit_length() // w + 1):
            if count := (counts >> w * e) & ((1 << w) - 1):
                tally[k, e] = count
    return tally


def z_bruteforce(n: int) -> BivariatePolynomial:
    """Z_{K_n}(q, t) from the node-by-node subgraph sweep (2 <= n <= 7)."""
    if not 2 <= n <= Z_MAX_NODES:
        raise ValueError(f"n must be in 2..{Z_MAX_NODES}")
    tally = subgraph_tally(n)
    return BivariatePolynomial({(k - 1, e): c for (k, e), c in tally.items()})


def connected_gf(n: int, mode: str = "bruteforce") -> BivariatePolynomial:
    """Edge generating function of connected labeled graphs on n nodes.

    bruteforce: the one-component counts of the subgraph sweep, the
                profile transfer of `subgraph_tally` (n <= 7).
    recursion:  the alternating-sum recurrence
        r_0 = 1,  r_k = -sum_{j=1..k} C(k,j) (1+t)^C(j,2) r_{k-j},
        F_n = sum_{j=0..n-1} C(n-1,j) (1+t)^C(j+1,2) r_{n-1-j}
    valid for n up to 30, with each r_k held in powers of 1+t (a factor
    (1+t)^C(j,2) shifts them) and F_n expanded once.  Both modes agree on
    their common range.
    """
    if mode == "bruteforce":
        if not 1 <= n <= Z_MAX_NODES:
            raise ValueError(f"bruteforce mode needs 1 <= n <= {Z_MAX_NODES}")
        tally = subgraph_tally(n)
        return BivariatePolynomial({(0, e): c for (k, e), c in tally.items() if k == 1})
    if mode == "recursion":
        if not 1 <= n <= 30:
            raise ValueError("recursion mode supported for 1 <= n <= 30")

        def combine(terms) -> Counter:
            # The sum of weight (1+t)^shift r_i, each in powers of 1+t.
            out = Counter()
            for weight, shift, r_i in terms:
                out.update({power + shift: weight * c for power, c in r_i.items()})
            return out

        r = [{0: 1}]
        for k in range(1, n):
            r.append(combine((-math.comb(k, j), math.comb(j, 2), r[k - j]) for j in range(1, k + 1)))
        f = combine((math.comb(n - 1, j), math.comb(j + 1, 2), r[n - 1 - j]) for j in range(n))
        return BivariatePolynomial(tally_monomials({(0, 0, power): c for power, c in f.items()}))
    raise ValueError(f"unknown mode {mode!r}")


# ----------------------------------------------------------------------
# Integer-point and partition counts
# ----------------------------------------------------------------------


def lattice_and_partition_counts(n: int) -> tuple[int, int]:
    """Two independently computed counts of the classical 1857 identity.

    First: integer sequences 1 <= a_1 <= 2, 1 <= a_{i+1} <= 2 a_i (the
    integer points of the n-dimensional chain polytope).  Second: the
    total number of partitions of all N in {0..2^n - 1} into parts
    1, 2, 4, ..., 2^(n-1).  The two must agree.

    The chains are counted one layer per coordinate: w_i(v) is the number
    of chains a_1..a_i with a_i = v, for v in 1..2^i.  a_{i+1} = s needs
    a_i >= ceil(s/2), so w_{i+1}(2k - 1) = w_{i+1}(2k) = w_i(k) + w_i(k+1)
    + ..., a suffix sum of layer i.  Each layer costs O(2^i), so the chains
    cost O(2^n) in all; the partitions, a coin DP over 2^n values with n
    parts, cost O(n 2^n).
    """
    if not 1 <= n <= 12:
        raise ValueError("n must be in 1..12")
    ways = [1, 1]  # w_1(1), w_1(2)
    for _ in range(n - 1):
        tails = list(accumulate(reversed(ways)))
        tails.reverse()
        ways = [w for w in tails for _ in (0, 1)]
    lattice_points = sum(ways)
    # Partitions into binary parts, a coin-counting DP.
    limit = (1 << n) - 1
    table = [1] + [0] * limit
    for part in (1 << k for k in range(n)):
        for value in range(part, limit + 1):
            table[value] += table[value - part]
    return lattice_points, sum(table)


# ----------------------------------------------------------------------
# Family totals and volume reports
# ----------------------------------------------------------------------


def family_total_polynomial(family: str, n: int) -> BivariatePolynomial:
    """n! vol of the family polytope as a polynomial, from the graph sweep.

    Z_{K_{n+1}}(q, t), cut to its q^0 (connected-graph) part for a
    connected family, at the family's fixed q and t: Z itself for tutte,
    a polynomial in t for tgayley and tcayley, a constant for gayley and
    cayley.
    """
    fam = get_family(family)
    z = z_bruteforce(n + 1)
    if fam.connected:
        z = z.restrict_q_power(0)
    return z.substitute(q=fam.q, t=fam.t)


@dataclass(frozen=True)
class VolumeReport:
    """n!-scaled volume of one family polytope, computed three ways."""

    family: str
    n: int
    q: Optional[Fraction]
    t: Optional[Fraction]
    by_closed_form: BivariatePolynomial
    by_graph_sum: BivariatePolynomial
    by_pieces: BivariatePolynomial
    by_determinant: Optional[Fraction] = None

    def agree(self) -> bool:
        if self.by_closed_form != self.by_graph_sum or self.by_pieces != self.by_graph_sum:
            return False
        if self.by_determinant is not None and self.q is not None:
            return self.by_determinant == self.by_graph_sum.evaluate(self.q, self.t)
        return True


def volume_report(
    family: str,
    n: int,
    q=None,
    t=None,
    with_determinant: bool = True,
) -> VolumeReport:
    """Compute the family volume by simplices, pieces, and the graph sweep.

    The graph sweep runs over K_{n+1}, so n is capped at Z_MAX_NODES - 1
    before any cell is enumerated.  The determinant pass enumerates the
    cells a second time, and sums each simplex's `steps_volume_scaled` on
    the vertex table's memoised steps, integers over one scale s, divided
    once by s^n.
    """
    if n < 1:
        raise ParameterDomainError("n must be >= 1")
    if n >= Z_MAX_NODES:
        raise ValueError(f"volume needs n in 1..{Z_MAX_NODES - 1} (graphs on n+1 nodes), got {n}")
    fam = get_family(family)
    q_eff, t_eff = family_parameters(family, q, t)
    det_total = None
    if with_determinant:
        table = VertexTable(n + 1, q_eff, t_eff)
        total = sum(steps_volume_scaled(table.steps(table.add(f))) for f in fam.labeled_cells(n))
        det_total = Fraction(total, table.scale**n)
    return VolumeReport(
        family=family,
        n=n,
        q=q_eff if with_determinant else None,
        t=t_eff if with_determinant else None,
        by_closed_form=closed_form_simplex_total(fam.labeled_cells(n)).substitute(q=fam.q, t=fam.t),
        by_graph_sum=family_total_polynomial(family, n),
        by_pieces=closed_form_piece_total(fam.plane_cells(n)).substitute(q=fam.q, t=fam.t),
        by_determinant=det_total,
    )
