"""Labeled simple graphs on {1..n} with edges stored as a bitset.

The bit layout is shared package-wide: the unordered pairs (i, j), i < j,
are numbered in lexicographic order (1,2), (1,3), ..., (1,n), (2,3), ...,
(n-1,n), and bit k of the edge mask is pair number k.  Masks go through
pair_index(); enumerate_labeled_forests keys its sort by the reverse order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .exact import parse_integer

MAX_NODES = 12


def pair_order(n: int) -> list[tuple[int, int]]:
    """The canonical ordering of the C(n, 2) node pairs."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


# pair_order(n) for every node count a LabeledGraph can have, built once.
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

