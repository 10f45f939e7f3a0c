"""Labeled and plane forests, neighbors-first search, and cane paths.

Conventions used throughout:

* Every component of a labeled forest is rooted at its node of maximal
  label, and components are ordered by decreasing maximal label.
* Children of a node are stored in increasing label order; the plane
  embedding of a labeled forest is exactly this left-to-right order.
* The neighbors-first search (NFS) starts each component at its maximal
  label, visits the unvisited neighbors of the active node in decreasing
  label order, makes the smallest just-visited node the new active node,
  and on exhaustion backtracks to the last visited node that has not yet
  been active.  Positions are counted across the whole forest, so the
  global maximum sits at position 0.
* A cane path starts at a node, climbs at least one step toward the root,
  and ends with a single step down to a child lying strictly to the right
  of (for labeled forests: labeled higher than) the branch it came up on.
  The number of cane paths starting at a node is the exponent attached to
  that node's coordinate in the simplex constructions.
* Degree sequences of plane forests are read in depth-first order, which
  differs from NFS order; both traversals are implemented separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .graphs import LabeledGraph, pair_order

MAX_FOREST_NODES = 8
MAX_PLANE_NODES = 12


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ----------------------------------------------------------------------
# Shared NFS machinery over ordered rooted forests
# ----------------------------------------------------------------------


def _nfs_component_order(root, children) -> list:
    """NFS visit order within one component of an ordered rooted tree.

    `children[v]` lists v's children left to right; the traversal visits
    them right to left, recurses into the leftmost, and backtracks to the
    last visited node that has not been active.
    """
    order = [root]
    been_active = set()
    active = root
    while True:
        been_active.add(active)
        kids = children.get(active, ())
        if kids:
            order.extend(reversed(kids))
            active = kids[0]
        else:
            for node in reversed(order):
                if node not in been_active:
                    active = node
                    break
            else:
                return order


def _cane_paths(node, parent, children) -> int:
    """Number of cane paths starting at `node` (ordered-children rule)."""
    total = 0
    prev = node
    anc = parent.get(node)
    while anc is not None:
        kids = children.get(anc, ())
        total += len(kids) - kids.index(prev) - 1
        prev = anc
        anc = parent.get(anc)
    return total


@dataclass(frozen=True)
class NodeCoordinate:
    """Placement data of one forest node inside the simplex chain.

    position is the NFS position i (0-based, forest-wide); cane_exponent
    is the number j of cane paths starting at the node; root_position is
    the NFS position l of the node's component root.  root_label is the
    maximal label of the component (None for unlabeled plane forests).
    """

    is_root: bool
    position: int
    cane_exponent: int
    root_position: int
    root_label: Optional[int] = None


# ----------------------------------------------------------------------
# Labeled forests
# ----------------------------------------------------------------------


class LabeledForest:
    """Acyclic graph on {1..n}, canonically rooted and NFS-ordered."""

    __slots__ = ("node_count", "parent", "children", "component_order", "order", "_position")

    def __init__(self, node_count: int, parent: dict[int, int]):
        self.node_count = node_count
        self.parent = dict(parent)
        nodes = range(1, node_count + 1)
        kids: dict[int, list[int]] = {v: [] for v in nodes}
        for v, p in self.parent.items():
            if not (1 <= v <= node_count and 1 <= p <= node_count) or v == p:
                raise ValueError(f"bad parent entry {v} -> {p}")
            kids[p].append(v)
        self.children = {v: tuple(sorted(kids[v])) for v in nodes}
        roots = [v for v in nodes if v not in self.parent]
        for v in nodes:
            # Walk upward; a cycle would exceed node_count steps.
            u, steps = v, 0
            while u in self.parent:
                u = self.parent[u]
                steps += 1
                if steps > node_count:
                    raise ValueError("parent map contains a cycle")
            if u < v:
                raise ValueError(f"component root {u} is not its maximal label")
        self.component_order = tuple(sorted(roots, reverse=True))
        order: list[int] = []
        for root in self.component_order:
            order.extend(_nfs_component_order(root, self.children))
        self.order = tuple(order)
        self._position = {v: i for i, v in enumerate(order)}

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edge_pairs) -> "LabeledForest":
        adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        count = 0
        for i, j in edge_pairs:
            adj[i].append(j)
            adj[j].append(i)
            count += 1
        parent: dict[int, int] = {}
        seen: set[int] = set()
        for start in range(n, 0, -1):
            if start in seen:
                continue
            seen.add(start)
            stack = [start]
            while stack:
                v = stack.pop()
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        parent[u] = v
                        stack.append(u)
        if len(parent) != count:
            raise ValueError("edge set contains a cycle")
        return cls(n, parent)

    @classmethod
    def from_parent_text(cls, text: str) -> "LabeledForest":
        """Parse the text form "p_1,...,p_n" with 0 marking roots."""
        entries = [int(x) for x in text.split(",")]
        parent = {v: p for v, p in enumerate(entries, start=1) if p != 0}
        return cls(len(entries), parent)

    def to_parent_text(self) -> str:
        return ",".join(str(self.parent.get(v, 0)) for v in range(1, self.node_count + 1))

    # -- identity ---------------------------------------------------------

    def _key(self) -> tuple:
        return (self.node_count, tuple(self.parent.get(v, 0) for v in range(1, self.node_count + 1)))

    def __eq__(self, other) -> bool:
        return isinstance(other, LabeledForest) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"LabeledForest({self.to_parent_text()!r})"

    # -- basic data -------------------------------------------------------

    def position(self, v: int) -> int:
        return self._position[v]

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted((min(v, p), max(v, p)) for v, p in self.parent.items())

    def edge_count(self) -> int:
        return len(self.parent)

    def component_count(self) -> int:
        return len(self.component_order)

    def component_root(self, v: int) -> int:
        while v in self.parent:
            v = self.parent[v]
        return v

    def is_tree(self) -> bool:
        return self.component_count() == 1

    def coordinates(self) -> dict[int, NodeCoordinate]:
        """NodeCoordinate for every label, keyed by label."""
        out: dict[int, NodeCoordinate] = {}
        for v in range(1, self.node_count + 1):
            root = self.component_root(v)
            if v == root:
                out[v] = NodeCoordinate(True, self._position[v], 0, self._position[v], root)
            else:
                j = _cane_paths(v, self.parent, self.children)
                out[v] = NodeCoordinate(False, self._position[v], j, self._position[root], root)
        return out


def nfs(g: LabeledGraph) -> LabeledForest:
    """The neighbors-first search forest of a labeled graph."""
    n = g.node_count
    adj = g.adjacency()
    visited: set[int] = set()
    parent: dict[int, int] = {}
    while len(visited) < n:
        root = max(v for v in range(1, n + 1) if v not in visited)
        visited.add(root)
        comp_order = [root]
        been_active: set[int] = set()
        active = root
        while True:
            been_active.add(active)
            fresh = sorted((u for u in adj[active] if u not in visited), reverse=True)
            if fresh:
                for u in fresh:
                    visited.add(u)
                    parent[u] = active
                    comp_order.append(u)
                active = fresh[-1]
            else:
                for node in reversed(comp_order):
                    if node not in been_active:
                        active = node
                        break
                else:
                    break
    return LabeledForest(n, parent)


def cane_paths_from(f: LabeledForest, v: int) -> int:
    """Number of cane paths starting at node v."""
    if not 1 <= v <= f.node_count:
        raise ValueError(f"node {v} not in forest")
    return _cane_paths(v, f.parent, f.children)


def alpha(f: LabeledForest) -> int:
    """Total number of cane paths in the forest."""
    return sum(_cane_paths(v, f.parent, f.children) for v in range(1, f.node_count + 1))


def cane_edges(f: LabeledForest) -> set[tuple[int, int]]:
    """Non-tree pairs joined by a cane path; exactly alpha(f) of them."""
    out: set[tuple[int, int]] = set()
    for v in range(1, f.node_count + 1):
        prev = v
        anc = f.parent.get(v)
        while anc is not None:
            kids = f.children[anc]
            for w in kids[kids.index(prev) + 1 :]:
                out.add((min(v, w), max(v, w)))
            prev = anc
            anc = f.parent.get(anc)
    return out


def fiber_of(f: LabeledForest) -> list[LabeledGraph]:
    """All graphs whose NFS forest is f: the forest plus any cane edges."""
    base = f.edge_list()
    optional = sorted(cane_edges(f))
    graphs = []
    for mask in range(1 << len(optional)):
        extra = [e for k, e in enumerate(optional) if mask >> k & 1]
        graphs.append(LabeledGraph.from_edges(f.node_count, base + extra))
    return graphs


# ----------------------------------------------------------------------
# Plane forests
# ----------------------------------------------------------------------


class PlaneForest:
    """Unlabeled plane forest: ordered components of ordered rooted trees.

    Stored as a tuple of nested tuples, one per component; a node is the
    tuple of its subtrees.  The depth-first degree sequence (component-
    terminating zeros retained) determines the forest uniquely.
    """

    __slots__ = ("trees",)

    def __init__(self, trees: Sequence[tuple]):
        self.trees = tuple(trees)
        if not self.trees:
            raise ValueError("plane forest needs at least one component")

    @classmethod
    def from_degree_sequence(cls, seq: Sequence[int]) -> "PlaneForest":
        seq = list(seq)
        pos = 0

        def parse_tree() -> tuple:
            nonlocal pos
            if pos >= len(seq):
                raise ValueError("truncated degree sequence")
            d = seq[pos]
            pos += 1
            return tuple(parse_tree() for _ in range(d))

        trees = []
        while pos < len(seq):
            trees.append(parse_tree())
        return cls(trees)

    @classmethod
    def from_text(cls, text: str) -> "PlaneForest":
        return cls.from_degree_sequence(int(x) for x in text.split(","))

    def to_text(self) -> str:
        return ",".join(str(d) for d in self.degree_sequence())

    def __eq__(self, other) -> bool:
        return isinstance(other, PlaneForest) and self.trees == other.trees

    def __hash__(self) -> int:
        return hash(self.trees)

    def __repr__(self) -> str:
        return f"PlaneForest({self.to_text()!r})"

    # -- derived data ----------------------------------------------------

    def node_count(self) -> int:
        return sum(self.component_sizes())

    def component_count(self) -> int:
        return len(self.trees)

    def component_sizes(self) -> tuple[int, ...]:
        return tuple(_tree_size(t) for t in self.trees)

    def degree_sequence(self) -> tuple[int, ...]:
        """Depth-first degrees, one terminating zero per component kept."""
        out: list[int] = []
        for tree in self.trees:
            _tree_degrees(tree, out)
        return tuple(out)

    def reduced_degree_sequence(self) -> tuple[int, ...]:
        """Degree sequence with the zero ending each component erased."""
        out: list[int] = []
        for tree in self.trees:
            degs: list[int] = []
            _tree_degrees(tree, degs)
            out.extend(degs[:-1])
        return tuple(out)

    def edge_count(self) -> int:
        return sum(self.degree_sequence())

    def alpha(self) -> int:
        """Total number of cane paths, counted on the plane structure."""
        _, parent, children, _ = self.nfs_structure()
        return sum(_cane_paths(v, parent, children) for v in range(self.node_count()))

    def labeled_forest_count(self) -> int:
        """Number of labeled forests whose shape is this plane forest."""
        n = self.node_count() - 1
        count = Fraction(math.factorial(n))
        for d in self.reduced_degree_sequence():
            count /= math.factorial(d)
        sizes = self.component_sizes()
        for j in range(1, len(sizes)):
            count /= sum(sizes[j:])
        if count.denominator != 1:
            raise ArithmeticError(f"non-integer labeling count for {self!r}")
        return count.numerator

    def nfs_structure(self):
        """(coords, parent, children, root_positions) over NFS positions.

        Nodes are identified with their NFS positions 0..n-1; children
        lists are in plane left-to-right order.
        """
        ids = _PlaneIds(self.trees)
        order: list[int] = []
        for root in ids.roots:
            order.extend(_nfs_component_order(root, ids.children))
        pos_of = {node: i for i, node in enumerate(order)}
        parent = {pos_of[v]: pos_of[p] for v, p in ids.parent.items()}
        children = {pos_of[v]: tuple(pos_of[c] for c in kids) for v, kids in ids.children.items()}
        root_positions = [pos_of[r] for r in ids.roots]
        coords: list[NodeCoordinate] = []
        for position in range(len(order)):
            root_pos = position
            while root_pos in parent:
                root_pos = parent[root_pos]
            if position == root_pos:
                coords.append(NodeCoordinate(True, position, 0, position))
            else:
                j = _cane_paths(position, parent, children)
                coords.append(NodeCoordinate(False, position, j, root_pos))
        return coords, parent, children, root_positions


class _PlaneIds:
    """Assign integer ids (depth-first) to the nodes of nested-tuple trees."""

    def __init__(self, trees):
        self.parent: dict[int, int] = {}
        self.children: dict[int, tuple[int, ...]] = {}
        self.roots: list[int] = []
        self._next = 0
        for tree in trees:
            self.roots.append(self._walk(tree, None))

    def _walk(self, node, parent_id) -> int:
        my_id = self._next
        self._next += 1
        if parent_id is not None:
            self.parent[my_id] = parent_id
        self.children[my_id] = tuple(self._walk(child, my_id) for child in node)
        return my_id


def _tree_size(tree: tuple) -> int:
    return 1 + sum(_tree_size(c) for c in tree)


def _tree_degrees(tree: tuple, out: list[int]) -> None:
    out.append(len(tree))
    for child in tree:
        _tree_degrees(child, out)


def shape(f: LabeledForest) -> PlaneForest:
    """Erase labels: children keep their increasing-label order."""

    def build(v: int) -> tuple:
        return tuple(build(c) for c in f.children[v])

    return PlaneForest([build(root) for root in f.component_order])


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------


def enumerate_labeled_forests(n: int, trees_only: bool = False) -> Iterator[LabeledForest]:
    """Every labeled forest on {1..n} exactly once (canonical rooting).

    Enumerates acyclic edge subsets of the complete graph by backtracking
    over the canonical edge order, skipping any edge that would close a
    cycle.
    """
    if not 1 <= n <= MAX_FOREST_NODES:
        raise ValueError(f"labeled forests need 1..{MAX_FOREST_NODES} nodes, got {n}")
    pairs = pair_order(n)
    chosen: list[tuple[int, int]] = []
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def rec(k: int, merges: int) -> Iterator[LabeledForest]:
        if k == len(pairs):
            if not trees_only or merges == n - 1:
                yield LabeledForest.from_edges(n, chosen)
            return
        yield from rec(k + 1, merges)
        i, j = pairs[k]
        ri, rj = find(i), find(j)
        if ri != rj:
            saved = parent[:]
            parent[ri] = rj
            chosen.append((i, j))
            yield from rec(k + 1, merges + 1)
            chosen.pop()
            parent[:] = saved

    yield from rec(0, 0)


def count_labeled_forests(n: int) -> int:
    """Number of labeled forests on n nodes: 1, 2, 7, 38, 291, 2932, ...

    Splitting off the tree of node n, of size k, gives
    f(n) = sum_k C(n-1, k-1) k^(k-2) f(n-k) with f(0) = 1 and 1 tree at k = 1.
    """
    f = [1]
    for m in range(1, n + 1):
        f.append(
            sum(
                math.comb(m - 1, k - 1) * (k ** (k - 2) if k > 1 else 1) * f[m - k]
                for k in range(1, m + 1)
            )
        )
    return f[n]


@lru_cache(maxsize=None)
def _plane_trees(size: int) -> tuple[tuple, ...]:
    if size == 1:
        return ((),)
    out = []
    for first in range(1, size):
        for head in _plane_trees(first):
            for rest in _plane_subtree_lists(size - 1 - first):
                out.append((head,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _plane_subtree_lists(total: int) -> tuple[tuple, ...]:
    """Ordered lists of plane trees with sizes summing to `total`."""
    if total == 0:
        return ((),)
    out = []
    for first in range(1, total + 1):
        for head in _plane_trees(first):
            for rest in _plane_subtree_lists(total - first):
                out.append((head,) + rest)
    return tuple(out)


def _check_plane_nodes(n: int) -> None:
    if not 1 <= n <= MAX_PLANE_NODES:
        raise ValueError(f"plane forests need 1..{MAX_PLANE_NODES} nodes, got {n}")


def enumerate_plane_forests(n: int) -> Iterator[PlaneForest]:
    """Every plane forest on n nodes exactly once; there are catalan(n)."""
    _check_plane_nodes(n)
    for first in range(1, n + 1):
        for head in _plane_trees(first):
            for rest in _plane_subtree_lists(n - first):
                yield PlaneForest((head,) + rest)


def enumerate_plane_trees(n: int) -> Iterator[PlaneForest]:
    """Single-component plane forests on n nodes; there are catalan(n-1)."""
    _check_plane_nodes(n)
    for tree in _plane_trees(n):
        yield PlaneForest((tree,))
