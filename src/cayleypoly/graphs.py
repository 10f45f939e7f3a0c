"""The pair order of edge masks on {1..n}.

The bit layout is shared package-wide: the unordered pairs (i, j), i < j,
are numbered in lexicographic order (1,2), (1,3), ..., (1,n), (2,3), ...,
(n-1,n), and bit k of the edge mask is pair number k.  Masks go through
pair_index(); enumerate_labeled_forests keys its sort by the reverse order.
"""

from __future__ import annotations

MAX_NODES = 12


def pair_order(n: int) -> list[tuple[int, int]]:
    """The canonical ordering of the C(n, 2) node pairs."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


# pair_order(n) for every node count up to MAX_NODES, built once.
_PAIRS = tuple(tuple(pair_order(n)) for n in range(MAX_NODES + 1))


def pair_index(i: int, j: int, n: int) -> int:
    """Bit position of the pair {i, j} in the canonical order."""
    if i > j:
        i, j = j, i
    if not (1 <= i < j <= n):
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    # Pairs with first element < i come before; then (i, i+1)..(i, j).
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


def mask_pairs(n: int, edges: int) -> list[tuple[int, int]]:
    """The pairs whose bits are set in the edge mask on {1..n}, in order."""
    return [pair for k, pair in enumerate(_PAIRS[n]) if edges >> k & 1]
