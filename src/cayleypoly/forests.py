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
* The nodes visited but not yet active always form a stack: the active
  node pushes its children right to left, so the leftmost child is on top
  and becomes active next, and when a node has no children the top of
  the stack is exactly the last visited node that has not been active.
  One loop over that stack (`_nfs_walk`) serves plane forests and graphs,
  which `graph_walk` feeds from int neighbour masks and an unvisited mask.
  Positions, parents and cane exponents depend on the plane shape alone,
  so a `PlaneForest` is held as its walk, and a labeled forest is its
  shape (one `PlaneForest`, shared by every forest of that shape) plus
  the label at each position: enumeration walks each shape once and
  expands all its labelings together, one labeling step at a time.
* A cane path starts at a node, climbs at least one step toward the root,
  and ends with a single step down to a child lying strictly to the right
  of (for labeled forests: labeled higher than) the branch it came up on.
  The number of cane paths starting at a node is the exponent attached to
  that node's coordinate in the simplex constructions.  Splitting a path
  at its first step up gives the recursion: a node's exponent is its
  number of right siblings plus its parent's exponent, and a root's is 0.
* Degree sequences of plane forests are read in depth-first order, which
  differs from NFS order; both traversals are implemented separately.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .exact import parse_integer
from .graphs import pair_index, pair_order

MAX_FOREST_NODES = 8
MAX_PLANE_NODES = 12


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ----------------------------------------------------------------------
# The neighbors-first search walk
# ----------------------------------------------------------------------


def _nfs_walk(roots: Iterable, kids_of: Callable[[object], Sequence]) -> list[tuple]:
    """NFS over an ordered rooted forest: one entry (node, parent_position,
    cane_exponent, root_position) per node in visit order, so that an
    entry's index is the node's position; parent_position is None at a
    root.

    `kids_of(node)` lists the node's children left to right; it is called
    once per node, when the node becomes active, and `roots` is read one
    component at a time, so both may depend on what was visited before.
    """
    walk: list[tuple] = []
    for root in roots:
        top = len(walk)
        walk.append((root, None, 0, top))
        stack = [top]
        while stack:
            active = stack.pop()
            node, _, exponent, _ = walk[active]
            for right, kid in enumerate(reversed(kids_of(node))):
                stack.append(len(walk))
                walk.append((kid, active, exponent + right, top))
    return walk


def graph_walk(node_count: int, edge_pairs: Iterable[tuple[int, int]]) -> list[tuple]:
    """The `_nfs_walk` of the graph on {1..node_count} with these edges,
    with labels as nodes, run on one neighbour mask per label and one mask
    of the labels not yet visited."""
    adjacency = [0] * (node_count + 1)
    for i, j in edge_pairs:
        for v in (i, j):
            if not 1 <= v <= node_count:
                raise ValueError(f"bad edge label {v!r} for n={node_count}")
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    unvisited = (1 << node_count + 1) - 2

    def kids_of(v: int) -> list[int]:
        nonlocal unvisited
        # Roots are read off the mask, not cleared from it, until active.
        unvisited &= ~(1 << v)
        fresh = adjacency[v] & unvisited
        unvisited ^= fresh
        return [w for w in range(1, fresh.bit_length()) if fresh >> w & 1]

    return _nfs_walk((v for v in range(node_count, 0, -1) if unvisited >> v & 1), kids_of)


# ----------------------------------------------------------------------
# Labeled forests
# ----------------------------------------------------------------------


class LabeledForest:
    """Acyclic graph on {1..n}, canonically rooted and NFS-ordered.

    Stored as `order`, the label at each NFS position, and `shape`, its
    plane shape, which holds the walk; parents and children are read off
    the two on demand.
    """

    __slots__ = ("order", "shape")

    def __init__(self, node_count: int, parent: dict[int, int]):
        for v, p in parent.items():
            if not (1 <= v <= node_count and 1 <= p <= node_count) or v == p:
                raise ValueError(f"bad parent entry {v} -> {p}")
        # A cycle leaves the walk fewer edges than the map has.
        walked = self._walked(graph_walk(node_count, parent.items()))
        self.order, self.shape = walked.order, walked.shape
        if len(parent) != node_count - self.component_count():
            raise ValueError("parent map contains a cycle")
        misplaced = self.parent.keys() - parent.keys()
        if misplaced:
            raise ValueError(f"component root {min(misplaced)} is not its maximal label")

    # -- construction ---------------------------------------------------

    @classmethod
    def _walked(cls, walk: list[tuple]) -> "LabeledForest":
        """The forest of a `graph_walk`."""
        return cls._labeled(tuple([node for node, _, _, _ in walk]), PlaneForest._walked(walk))

    @classmethod
    def _labeled(cls, order: tuple[int, ...], plane: PlaneForest) -> "LabeledForest":
        """The forest with these labels, by position, on this shape."""
        forest = cls.__new__(cls)
        forest.order = order
        forest.shape = plane
        return forest

    @classmethod
    def from_edges(cls, n: int, edge_pairs) -> "LabeledForest":
        """The forest with these edges; on a forest graph the NFS forest
        is the graph itself, rooted at each component's maximal label."""
        edge_pairs = list(edge_pairs)
        forest = cls._walked(graph_walk(n, edge_pairs))
        # A cycle, a loop or a repeated pair leaves fewer forest edges.
        if len(edge_pairs) != n - forest.component_count():
            raise ValueError("edge set contains a cycle")
        return forest

    def to_parent_text(self) -> str:
        order = self.order
        text = ["0"] * len(order)
        for label, (up, _, _) in zip(order, self.shape.walk):
            if up is not None:
                text[label - 1] = str(order[up])
        return ",".join(text)

    # -- identity ---------------------------------------------------------

    def _key(self) -> tuple:
        # The canonical walk is a function of the parent map and back.
        return self.order, self.shape.walk

    def __eq__(self, other) -> bool:
        return isinstance(other, LabeledForest) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"LabeledForest({self.to_parent_text()!r})"

    # -- basic data -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.order)

    @property
    def parent(self) -> dict[int, int]:
        """Parent label of every non-root label."""
        order = self.order
        return {order[i]: order[up] for i, (up, _, _) in enumerate(self.shape.walk) if up is not None}

    @property
    def children(self) -> dict[int, tuple[int, ...]]:
        """Children of every label, in increasing label order."""
        order = self.order
        return {order[i]: tuple(order[k] for k in kids) for i, kids in enumerate(self.shape.kids())}

    @property
    def component_order(self) -> tuple[int, ...]:
        """Component roots, in decreasing label order."""
        return tuple(self.order[r] for r in self.shape.roots)

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted((min(v, p), max(v, p)) for v, p in self.parent.items())

    def edge_count(self) -> int:
        return len(self.order) - len(self.shape.roots)

    def component_count(self) -> int:
        return len(self.shape.roots)

    def is_tree(self) -> bool:
        return self.component_count() == 1


def alpha(f: LabeledForest) -> int:
    """Total number of cane paths in the forest."""
    return f.shape.alpha()


def cane_edges(f: LabeledForest) -> set[tuple[int, int]]:
    """Non-tree pairs joined by a cane path; exactly alpha(f) of them."""
    order, walk = f.order, f.shape.walk
    kids = f.shape.kids()
    out: set[tuple[int, int]] = set()
    for i, v in enumerate(order):
        prev, anc = i, walk[i][0]
        while anc is not None:
            siblings = kids[anc]
            for k in siblings[siblings.index(prev) + 1 :]:
                w = order[k]
                out.add((min(v, w), max(v, w)))
            prev, anc = anc, walk[anc][0]
    return out


def fiber_masks(f: LabeledForest) -> list[int]:
    """The edge masks of all graphs whose NFS forest is f: the forest's
    mask OR'ed with every subset sum of its cane-edge bits.  Subset k
    holds the sorted cane edges whose bits are set in k."""
    n = f.node_count
    masks = [sum([1 << pair_index(i, j, n) for i, j in f.edge_list()])]
    for i, j in sorted(cane_edges(f)):
        bit = 1 << pair_index(i, j, n)
        masks += [mask | bit for mask in masks]
    return masks


# ----------------------------------------------------------------------
# Plane forests
# ----------------------------------------------------------------------


class PlaneForest:
    """Unlabeled plane forest: ordered components of ordered rooted trees.

    Held as its NFS walk, which determines it: `walk` has one entry
    (parent_position, cane_exponent, root_position) per NFS position, with
    parent_position None at a root, and `roots` lists the root positions.
    `trees` has one nested tuple per component (a node is the tuple of its
    subtrees), rebuilt from the walk on first use when not given.
    """

    __slots__ = ("walk", "roots", "_alpha", "_kids", "_trees")

    def __init__(self, trees: Sequence[tuple]):
        trees = tuple(trees)
        if not trees:
            raise ValueError("plane forest needs at least one component")
        # A node is the tuple of its subtrees, so `tuple` lists its children.
        self._read(_nfs_walk(trees, tuple), trees)

    @classmethod
    def _walked(cls, entries: Iterable[tuple]) -> "PlaneForest":
        """The shape of an `_nfs_walk`, whose nodes are dropped."""
        forest = cls.__new__(cls)
        forest._read(entries, None)
        return forest

    def _read(self, entries: Iterable[tuple], trees: Optional[tuple]) -> None:
        self.walk = tuple([(up, j, top) for _, up, j, top in entries])
        self.roots = tuple([i for i, (up, _, _) in enumerate(self.walk) if up is None])
        self._alpha = sum([j for _, j, _ in self.walk])
        self._kids: Optional[tuple[tuple[int, ...], ...]] = None
        self._trees = trees

    @property
    def trees(self) -> tuple:
        if self._trees is None:
            kids = self.kids()

            def build(p: int) -> tuple:
                return tuple(build(c) for c in kids[p])

            self._trees = tuple([build(r) for r in self.roots])
        return self._trees

    def kids(self) -> tuple[tuple[int, ...], ...]:
        """The child positions of each position, left to right, built on
        first use."""
        if self._kids is None:
            kids: list[list[int]] = [[] for _ in self.walk]
            # Children are visited right to left, so the walk read
            # backwards lists each node's children left to right.
            for i in reversed(range(len(self.walk))):
                up = self.walk[i][0]
                if up is not None:
                    kids[up].append(i)
            self._kids = tuple(map(tuple, kids))
        return self._kids

    @classmethod
    def from_degree_sequence(cls, seq: Sequence[int]) -> "PlaneForest":
        seq = list(seq)
        pos = 0

        def parse_tree() -> tuple:
            nonlocal pos
            if pos >= len(seq):
                raise ValueError("truncated degree sequence")
            d = seq[pos]
            if d < 0:
                raise ValueError(f"negative degree {d}")
            pos += 1
            return tuple(parse_tree() for _ in range(d))

        trees = []
        while pos < len(seq):
            trees.append(parse_tree())
        return cls(trees)

    @classmethod
    def from_text(cls, text: str) -> "PlaneForest":
        return cls.from_degree_sequence(parse_integer(x) for x in text.split(","))

    def to_text(self) -> str:
        return ",".join(str(d) for d in self.degree_sequence())

    def __eq__(self, other) -> bool:
        return isinstance(other, PlaneForest) and self.walk == other.walk

    def __hash__(self) -> int:
        return hash(self.walk)

    def __repr__(self) -> str:
        return f"PlaneForest({self.to_text()!r})"

    # -- derived data ----------------------------------------------------

    def node_count(self) -> int:
        return len(self.walk)

    def component_count(self) -> int:
        return len(self.roots)

    def degree_sequence(self) -> tuple[int, ...]:
        """Depth-first degrees, one terminating zero per component kept."""
        out: list[int] = []
        for tree in self.trees:
            _tree_degrees(tree, out)
        return tuple(out)

    def reduced_degree_sequence(self) -> tuple[int, ...]:
        """Degree sequence with the zero ending each component erased.  A
        component's depth-first run covers the positions its walk run does,
        so it ends just before the next root's position."""
        ends = {*self.roots[1:], len(self.walk)}
        return tuple([d for i, d in enumerate(self.degree_sequence(), 1) if i not in ends])

    def edge_count(self) -> int:
        return len(self.walk) - len(self.roots)

    def alpha(self) -> int:
        """Total number of cane paths, summed once over the walk."""
        return self._alpha

    def labeled_forest_count(self) -> int:
        """Number of labeled forests whose shape is this plane forest."""
        divisor = 1
        for d in self.reduced_degree_sequence():
            divisor *= math.factorial(d)
        # The components from the one at this root on hold n - root nodes.
        for root in self.roots[1:]:
            divisor *= len(self.walk) - root
        count, remainder = divmod(math.factorial(self.node_count() - 1), divisor)
        if remainder:
            raise ArithmeticError(f"non-integer labeling count for {self!r}")
        return count


def _tree_degrees(tree: tuple, out: list[int]) -> None:
    out.append(len(tree))
    for child in tree:
        _tree_degrees(child, out)


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------


def enumerate_labeled_forests(n: int, trees_only: bool = False) -> Iterator[LabeledForest]:
    """Every labeled forest on {1..n} exactly once (canonical rooting), in
    increasing order of its edge mask read with pair (1, 2) as the most
    significant bit.

    Each plane forest on n nodes (plane tree, with trees_only) is walked
    once, and its labelings share that walk; `_add_labelings` expands
    them all together, a step at a time.  Forests with equal labels
    by position share one labels tuple: there are at most n! of them,
    against 36961 forests on 7 nodes.  Each labeling is gathered as the
    one int (key * shapes + shape index) * n! + labels index, and these
    are sorted; keys are distinct, so the sort is by key.

    The node count is checked at the call; the walks, the labelings and
    the sort run on the first next().
    """
    if not 1 <= n <= MAX_FOREST_NODES:
        raise ValueError(f"labeled forests need 1..{MAX_FOREST_NODES} nodes, got {n}")
    return _labeled_forests(n, trees_only)


def _labeled_forests(n: int, trees_only: bool) -> Iterator[LabeledForest]:
    pairs = pair_order(n)
    # bit[a][b]: the key bit of the pair {a, b}.
    bit = [[0] * (n + 1) for _ in range(n + 1)]
    for k, (i, j) in enumerate(pairs):
        bit[i][j] = bit[j][i] = 1 << (len(pairs) - 1 - k)
    shapes = list(enumerate_plane_trees(n) if trees_only else enumerate_plane_forests(n))
    width = math.factorial(n)
    found: list[int] = []
    shared: dict[tuple[int, ...], int] = {}
    for index, pf in enumerate(shapes):
        _add_labelings(pf, bit, shared, found, len(shapes) * width, index * width)
    found.sort()
    labelings = list(shared)
    for packed in found:
        rest, labels = divmod(packed, width)
        yield LabeledForest._labeled(labelings[labels], shapes[rest % len(shapes)])


def _add_labelings(
    pf: PlaneForest, bit: list[list[int]], shared: dict, found: list, scale: int, tail: int
) -> None:
    """Append key * scale + tail + labels for every labeling of the
    shape, with key the sum of the edges' bits and labels the index in
    `shared` of its labels by position, added when new.

    A component's root takes the largest label left, and each sibling
    group then takes any set of the labels left, increasing left to right
    (the rightmost sibling has the lowest position).  The steps run in
    position order, so a parent is labeled before its children and a
    component has taken all its labels before the next root takes the
    largest one left.

    All labelings of the shape are expanded together, one step at a time,
    from states (labels in step order, pool left, key); the pool is sorted,
    and after k steps every pool has the same size.  A root step appends
    pool[-1].  A sibling group of g from a pool of m runs through the
    table `_splits(m, g)` of (chosen, rest) getters, which every shape
    shares, and adds the parent row's bits of the chosen labels to the
    key.  The last step always takes the whole pool, so it is folded into
    the loop that packs each labeling, where one getter per shape puts the
    labels in position order.  The states of a step keep the order of the
    states they grew from, so labelings are packed, and `shared` grows,
    in the order of a depth-first search over the steps.
    """
    placed: list[int] = []
    steps: list[tuple[Optional[int], int]] = []
    for p, kids in enumerate(pf.kids()):
        if pf.walk[p][0] is None:
            steps.append((None, 1))
            placed.append(p)
        if kids:
            steps.append((placed.index(p), len(kids)))
            placed += kids
    by_position = _getter([placed.index(p) for p in range(len(placed))])
    size = len(placed)
    states = [((), tuple(range(1, size + 1)), 0)]
    for parent, group in steps[:-1]:
        if parent is None:
            states = [(labels + pool[-1:], pool[:-1], key) for labels, pool, key in states]
        else:
            splits = _splits(size, group)
            grown: list[tuple] = []
            for labels, pool, key in states:
                row = bit[labels[parent]].__getitem__
                for chosen, rest in splits:
                    picked = chosen(pool)
                    grown.append((labels + picked, rest(pool), key + sum(map(row, picked))))
            states = grown
        size -= group
    parent = steps[-1][0]
    for labels, pool, key in states:
        if parent is not None:
            key += sum(map(bit[labels[parent]].__getitem__, pool))
        found.append(key * scale + tail + shared.setdefault(by_position(labels + pool), len(shared)))


def _getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """An itemgetter returning the tuple of the items at these indices,
    also for one index."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _splits(size: int, group: int) -> tuple[tuple[Callable, Callable], ...]:
    """The getters (chosen, rest) of each choice of `group` of `size`
    items, 0 < group < size, in `combinations` order; both keep the
    items' order.  Built once per (size, group) and shared by every shape."""
    return tuple(
        (_getter(chosen), _getter([i for i in range(size) if i not in chosen]))
        for chosen in combinations(range(size), group)
    )


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
    """The plane trees on `size` nodes.  A plane tree is the tuple of its
    root's subtrees, so these are the plane forests on size - 1 nodes."""
    return tuple(_plane_forests(size - 1))


def _plane_forests(total: int) -> Iterator[tuple]:
    """Ordered lists of plane trees with sizes summing to `total`, lazily,
    the first tree's size varying slowest."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for head in _plane_trees(first):
            for rest in _plane_trees(total - first + 1):
                yield (head,) + rest


def _check_plane_nodes(n: int) -> None:
    if not 1 <= n <= MAX_PLANE_NODES:
        raise ValueError(f"plane forests need 1..{MAX_PLANE_NODES} nodes, got {n}")


def enumerate_plane_forests(n: int) -> Iterator[PlaneForest]:
    """Every plane forest on n nodes exactly once; there are catalan(n).
    The node count is checked at the call, not on the first next()."""
    _check_plane_nodes(n)
    return (PlaneForest(forest) for forest in _plane_forests(n))


def enumerate_plane_trees(n: int) -> Iterator[PlaneForest]:
    """Single-component plane forests on n nodes; there are catalan(n-1).
    The node count is checked at the call, not on the first next()."""
    _check_plane_nodes(n)
    return (PlaneForest((tree,)) for tree in _plane_trees(n))
