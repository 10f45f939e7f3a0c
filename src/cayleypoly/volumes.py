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

Closed forms are tallies {(a, b, k): c} of terms c q^a t^b (1+t)^k; a
tally is expanded into a BivariatePolynomial once, for a reported result.
The connected-graph recursion packs each r_k into one int, its
coefficients in powers of 1+t as signed digits, so a factor of 1+t is a
shift; F_n is unpacked once and taken to powers of t by Horner's rule on
another packed int.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence

from .exact import BivariatePolynomial
from .forests import LabeledForest, PlaneForest, alpha
from .geometry import Family, ParameterDomainError, VertexTable, family_parameters

Z_MAX_NODES = 7


class DegenerateSimplexError(ValueError):
    """The vertex set is affinely dependent (zero volume), or its vertex
    steps are not triangular in vertex order (`steps_volume_scaled`)."""


# ----------------------------------------------------------------------
# Determinant volumes
# ----------------------------------------------------------------------


def steps_volume_scaled(steps: Sequence[Sequence[tuple[int, int]]]) -> int:
    """|det| of a simplex's consecutive vertex differences v_p - v_{p-1},
    given as sparse rows (`exact.sparse_difference`), in one ordered pass:
    step k, less the pivot columns of the steps before it, must have
    exactly one entry left, its pivot, and |det| is the product of the
    pivots.

    Proof.  Let step k's one new entry a_k sit in column c_k.  Row k is
    then zero outside c_1..c_k, so with its columns taken in the order
    c_1..c_n the matrix is lower triangular, and det = +-prod a_k.  A
    step with no new entry lies, with the steps before it, in the span
    of fewer coordinates than there are rows: the set is singular.  A
    step with two new entries is not decided by this pass, and is
    rejected as well.  Either raises DegenerateSimplexError.

    A forest's simplex (`geometry.VertexTable`) always passes: the step
    from vertex p to p+1 moves the coordinate of the node labelled p,
    from (1+t)^(j+1) to (1+t)^j for a non-root, entry -t(1+t)^j, and
    from 1 to 1-q for a root, entry -q; a root's step also takes each
    non-root of its component from (1+t)^j to 1-q, but their labels are
    below the root's, so their columns are earlier steps'.  The pivots
    give the volume lemma, q^(k-1) t^|E| (1+t)^alpha.

    The consecutive differences are a unitriangular transform of the
    v_p - v_0, so they have the same determinant.  A simplex whose
    vertices are integer numerators over a scale s has n! vol equal to
    this divided by s^n."""
    volume, used = 1, set()
    for step in steps:
        if len(step) > 1:
            step = [entry for entry in step if entry[0] not in used]
        if len(step) != 1 or step[0][0] in used:
            moved = f"{len(step)} new columns" if len(step) > 1 else "no new column (a singular set)"
            raise DegenerateSimplexError(f"vertex steps not triangular: step {len(used) + 1} moves {moved}")
        ((column, pivot),) = step
        used.add(column)
        volume *= pivot
    return abs(volume)


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
# Packed integers
# ----------------------------------------------------------------------


def _digits(value: int, width: int, signed: bool) -> list[int]:
    """The base-2^width digits of value, lowest first: unsigned in
    [0, 2^width), or signed, balanced in [-2^(width-1), 2^(width-1)).
    The list may end in zeros.

    A polynomial packed into one int is its value at x = 2^width
    (Kronecker substitution).  Int arithmetic is exact, so sums, products
    and shifts of packed polynomials stay packed, however their digits
    overlap on the way.  The digits read back are the coefficients when
    each coefficient lies in the digit range: an expansion with digits in
    2^width consecutive integers is unique, so no digit has carried.
    Signed digits are read as unsigned ones after adding 2^(width-1) at
    every digit, and may need one digit more (6 is 1, -2, -2 in balanced
    base 4).
    """
    count = abs(value).bit_length() // width + (2 if signed else 1)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    if signed:
        value += int(format(half, "b") * count, 2)
    digits = [(value >> width * e) & mask for e in range(count)]
    return [d - half for d in digits] if signed else digits


# ----------------------------------------------------------------------
# Spanning-subgraph sweep
# ----------------------------------------------------------------------


def subgraph_tally(n: int) -> dict[tuple[int, int], int]:
    """Counts of spanning subgraphs of K_n by (components, edges), nonzero
    entries only, from a node-by-node transfer over component-size profiles."""
    if not 1 <= n <= Z_MAX_NODES:
        raise ValueError(f"n must be in 1..{Z_MAX_NODES}")
    # Counts by edge number e are packed into one int, digit e at bit w*e.
    # Every count is nonnegative and counts distinct subgraphs of K_n, so
    # it is at most 2^C(n,2) < 2^w: `_digits` reads it back.
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
        for e, count in enumerate(_digits(counts, w, signed=False)):
            if count:
                tally[k, e] = count
    return tally


def z_bruteforce(n: int) -> BivariatePolynomial:
    """Z_{K_n}(q, t) from the node-by-node subgraph sweep (2 <= n <= 7)."""
    if not 2 <= n <= Z_MAX_NODES:
        raise ValueError(f"n must be in 2..{Z_MAX_NODES}")
    tally = subgraph_tally(n)
    return BivariatePolynomial({(k - 1, e): c for (k, e), c in tally.items()})


def _recursion_width(n: int) -> int:
    """The digit width W of `connected_gf`'s packed recursion on n nodes.

    B_0 = 1, B_k = sum_{j=1..k} C(k,j) B_{k-j} bounds the l1 norm of r_k
    in powers of 1+t: a factor (1+t)^m only moves coefficients, so
    ||r_k||_1 <= sum_j C(k,j) ||r_{k-j}||_1.  So F_n's l1 norm is at most
    L = sum_{j=0..n-1} C(n-1,j) B_{n-1-j}, and W = bits(L) + 2 keeps each
    of its coefficients d at |d| <= L < 2^(W-2), inside the signed digits.
    """
    bounds = [1]
    for k in range(1, n):
        bounds.append(sum(math.comb(k, j) * bounds[k - j] for j in range(1, k + 1)))
    return sum(math.comb(n - 1, j) * bounds[n - 1 - j] for j in range(n)).bit_length() + 2


def connected_gf(n: int, mode: str = "bruteforce") -> BivariatePolynomial:
    """Edge generating function of connected labeled graphs on n nodes.

    bruteforce: the one-component counts of the subgraph sweep, the
                profile transfer of `subgraph_tally` (n <= 7).
    recursion:  the alternating-sum recurrence
        r_0 = 1,  r_k = -sum_{j=1..k} C(k,j) (1+t)^C(j,2) r_{k-j},
        F_n = sum_{j=0..n-1} C(n-1,j) (1+t)^C(j+1,2) r_{n-1-j}
    valid for n up to 30.  Each r_k is one int, its coefficients in powers
    of 1+t as signed digits of `_recursion_width(n)` bits, so a factor
    (1+t)^C(j,2) is a left shift.  F_n's digits are read once and taken to
    powers of t by Horner's rule at t = 2^w, w = C(n,2) + 1, whose digits
    are the connected-graph counts by edge number.  Both modes agree on
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
        width = _recursion_width(n)
        r = [1]
        for k in range(1, n):
            r.append(-sum((math.comb(k, j) * r[k - j]) << width * math.comb(j, 2) for j in range(1, k + 1)))
        f = sum((math.comb(n - 1, j) * r[n - 1 - j]) << width * math.comb(j + 1, 2) for j in range(n))
        # Horner in 1+t = 2^w + 1.  Each count is at most 2^C(n,2) < 2^w.
        w = math.comb(n, 2) + 1
        packed = 0
        for c in reversed(_digits(f, width, signed=True)):
            packed += (packed << w) + c
        return BivariatePolynomial(((0, e), c) for e, c in enumerate(_digits(packed, w, signed=False)))
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


def family_total_polynomial(fam: Family, n: int) -> BivariatePolynomial:
    """n! vol of the family polytope: the graph sweep's Z_{K_{n+1}}, `Family.specialize`d."""
    return fam.specialize(z_bruteforce(n + 1))


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
    fam, q_eff, t_eff = family_parameters(family, q, t)
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
        by_closed_form=fam.specialize(closed_form_simplex_total(fam.labeled_cells(n))),
        by_graph_sum=family_total_polynomial(fam, n),
        by_pieces=fam.specialize(closed_form_piece_total(fam.plane_cells(n))),
        by_determinant=det_total,
    )
