"""Neighbors-first search, cane paths, shapes, and enumeration."""

import collections
import hashlib
import itertools
import math
import random

import pytest

from cayleypoly import (
    LabeledForest,
    PlaneForest,
    alpha,
    cane_edges,
    catalan,
    count_labeled_forests,
    enumerate_labeled_forests,
    enumerate_plane_forests,
    enumerate_plane_trees,
)
from cayleypoly import forests

from oracles import LabeledGraph, cane_paths_from, component_count, enumerate_graphs, nfs, partition_pattern


# ----------------------------------------------------------------------
# NFS on graphs
# ----------------------------------------------------------------------


def test_nfs_complete_graph_three():
    f = nfs(LabeledGraph.from_text("3:1-2,1-3,2-3"))
    assert f.to_parent_text() == "3,3,0"
    assert f.order == (3, 2, 1)


def test_nfs_single_edge_on_three():
    f = nfs(LabeledGraph.from_text("3:1-2"))
    assert f.component_order == (3, 2)
    assert f.order == (3, 2, 1)
    assert f.parent == {1: 2}


def test_nfs_edgeless():
    f = nfs(LabeledGraph(4, 0))
    assert f.component_order == (4, 3, 2, 1)
    assert f.order == (4, 3, 2, 1)


def test_nfs_preserves_components_and_edges():
    for g in enumerate_graphs(5):
        f = nfs(g)
        assert set(f.edge_list()) <= set(g.edge_list())
        forest_pattern = partition_pattern(5, [(i - 1, j - 1) for i, j in f.edge_list()])
        assert forest_pattern == partition_pattern(5, [(i - 1, j - 1) for i, j in g.edge_list()])


def test_nfs_idempotent_on_forests():
    for g in enumerate_graphs(5):
        f = nfs(g)
        again = nfs(LabeledGraph.from_edges(5, f.edge_list()))
        assert again == f


# ----------------------------------------------------------------------
# Worked twelve-node examples
# ----------------------------------------------------------------------


def test_worked_tree_order_and_exponents(worked_tree12):
    assert worked_tree12.order == (12, 11, 10, 6, 8, 7, 9, 3, 1, 4, 2, 5)
    expected = {1: 4, 2: 2, 3: 3, 4: 1, 5: 0, 6: 2, 7: 3, 8: 2, 9: 3, 10: 1, 11: 0}
    for node, j in expected.items():
        assert cane_paths_from(worked_tree12, node) == j
    assert alpha(worked_tree12) == 21


def test_worked_forest_order_and_exponents(worked_forest12):
    assert worked_forest12.order == (12, 11, 10, 6, 8, 4, 2, 5, 9, 7, 3, 1)
    assert worked_forest12.component_order == (12, 9)
    expected = {11: 0, 10: 1, 6: 2, 8: 2, 4: 1, 2: 2, 5: 0, 7: 0, 3: 1, 1: 2}
    for node, j in expected.items():
        assert cane_paths_from(worked_forest12, node) == j
    coords = _walk_coordinates(worked_forest12)
    assert coords[9][:2] == (True, 8)
    assert coords[7][3:] == (8, 9)


# ----------------------------------------------------------------------
# Cane paths and cane edges
# ----------------------------------------------------------------------


def test_cane_paths_examples(star3, path3):
    assert cane_paths_from(path3, 1) == 0
    assert cane_paths_from(star3, 1) == 1
    assert cane_paths_from(star3, 2) == 0
    with pytest.raises(ValueError):
        cane_paths_from(star3, 9)


def test_alpha_examples(star3, path3):
    assert alpha(star3) == 1
    assert alpha(path3) == 0
    total = sum(2 ** alpha(t) for t in enumerate_labeled_forests(4, trees_only=True))
    assert total == 38  # connected graphs on four nodes


def test_cane_edges_examples(star3, path3):
    assert cane_edges(star3) == {(1, 2)}
    assert cane_edges(path3) == set()


def test_cane_edge_count_is_alpha():
    for f in enumerate_labeled_forests(5):
        assert len(cane_edges(f)) == alpha(f)


def test_fiber_reconstruction_three_nodes(star3):
    fiber = {LabeledGraph(3, mask).to_text() for mask in forests.fiber_masks(star3)}
    assert fiber == {"3:1-3,2-3", "3:1-2,1-3,2-3"}


def test_fiber_lemma_exhaustive_small():
    for n in range(1, 6):
        grouped = {}
        for g in enumerate_graphs(n):
            grouped.setdefault(nfs(g), set()).add(g.edges)
        for f, masks in grouped.items():
            expected = set(forests.fiber_masks(f))
            assert masks == expected
            assert len(masks) == 2 ** alpha(f)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fiber_masks_match_edge_list_graphs(n):
    # Subset sums of the cane-edge bits, in the order of the subsets of the
    # sorted cane edges, as graphs built from forest and cane edge lists.
    for f in enumerate_labeled_forests(n):
        optional = sorted(cane_edges(f))
        expected = [
            LabeledGraph.from_edges(n, f.edge_list() + [e for k, e in enumerate(optional) if m >> k & 1]).edges
            for m in range(1 << len(optional))
        ]
        assert forests.fiber_masks(f) == expected


def test_fiber_property_sampled_seven_nodes():
    # Random 7-node forests: adding any subset of cane edges leaves the
    # search forest unchanged, adding any other edge changes it.
    rng = random.Random(99)
    for _ in range(60):
        base = random_tree(7, rng)
        keep = [e for e in base.edge_list() if rng.random() < 0.7]
        f = nfs(LabeledGraph.from_edges(7, keep))
        canes = sorted(cane_edges(f))
        tree_edges = f.edge_list()
        extra = [e for k, e in enumerate(canes) if rng.getrandbits(1)]
        g = LabeledGraph.from_edges(7, tree_edges + extra)
        assert nfs(g) == f
        non_members = [
            (i, j)
            for i in range(1, 8)
            for j in range(i + 1, 8)
            if (i, j) not in set(tree_edges) and (i, j) not in set(canes)
        ]
        if non_members:
            bad = non_members[rng.randrange(len(non_members))]
            g_bad = LabeledGraph.from_edges(7, tree_edges + [bad])
            assert nfs(g_bad) != f


# ----------------------------------------------------------------------
# Alpha via degree sequences
# ----------------------------------------------------------------------


def degree_formula_alpha(f: LabeledForest) -> int:
    pf = f.shape
    reduced = pf.reduced_degree_sequence()
    total = f.node_count
    m = pf.component_count()
    return math.comb(total + 1 - m, 2) - sum(i * d for i, d in enumerate(reduced, start=1))


def test_alpha_degree_formula_forests():
    for n in range(1, 7):
        for f in enumerate_labeled_forests(n):
            assert alpha(f) == degree_formula_alpha(f)


def random_tree(n: int, rng: random.Random) -> LabeledForest:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)]
    return LabeledForest.from_edges(n, edges)


def test_alpha_degree_formula_random_trees_seven():
    rng = random.Random(421)
    for _ in range(300):
        t = random_tree(7, rng)
        assert alpha(t) == degree_formula_alpha(t)


def test_plane_alpha_matches_labeled():
    for f in enumerate_labeled_forests(5):
        assert f.shape.alpha() == alpha(f)


def test_seven_node_forest_battery():
    # One pass over all forests on seven nodes: the enumeration count
    # matches the acyclic-subgraph count from the independent subgraph
    # sweep, the cane-path total agrees with the degree-sequence formula
    # on every forest, and summing 2^alpha over the trees reproduces the
    # connected-graph count on seven nodes.
    from cayleypoly.volumes import connected_gf, subgraph_tally

    forests = list(enumerate_labeled_forests(7))
    tally = subgraph_tally(7)
    acyclic = sum(c for (k, e), c in tally.items() if k + e == 7)
    assert len(forests) == acyclic == 36961
    connected_total = 0
    for f in forests:
        assert alpha(f) == degree_formula_alpha(f)
        if f.is_tree():
            connected_total += 2 ** alpha(f)
    assert connected_total == connected_gf(7).evaluate(1, 1)


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------


def test_shape_examples(star3, path3):
    assert star3.shape.degree_sequence() == (2, 0, 0)
    assert path3.shape.degree_sequence() == (1, 1, 0)
    singles = LabeledForest.from_edges(2, [])
    assert singles.shape.degree_sequence() == (0, 0)
    assert singles.shape.roots == (0, 1)


def test_shape_positions_mirror_labeled_forest():
    # Walking the shape's trees as a plane forest puts every node where
    # the labeled forest's own NFS puts it, and the shape's walk holds both.
    for f in enumerate_labeled_forests(5):
        _, by_label = _ref_labeled(5, f.parent)
        ref_coords, _, _, _ = _ref_nfs_structure(f.shape)
        walk_coords = _walk_coordinates(f)
        for label, labeled in by_label.items():
            assert ref_coords[labeled[1]][:4] == labeled[:4]
            assert walk_coords[label] == labeled


def test_one_shape_one_value_from_every_constructor():
    # A shape is one value however it is built: from the enumerator, its
    # trees, its degree sequence, or a graph's NFS walk.
    for n in range(1, 8):
        for f in enumerate_labeled_forests(n):
            pf = f.shape
            for other in (PlaneForest(pf.trees), PlaneForest.from_degree_sequence(pf.degree_sequence())):
                assert other == pf and hash(other) == hash(pf)
    for n in range(1, 6):
        by_parent = {f.to_parent_text(): f.shape for f in enumerate_labeled_forests(n)}
        for g in enumerate_graphs(n):
            f = nfs(g)
            walked, enumerated = f.shape, by_parent[f.to_parent_text()]
            assert walked == enumerated and hash(walked) == hash(enumerated)
            assert walked.trees == enumerated.trees
            assert walked.to_text() == enumerated.to_text()


def test_shape_groups_and_multiplicities():
    for n in range(1, 6):
        groups = {}
        for f in enumerate_labeled_forests(n):
            groups.setdefault(f.shape, []).append(f)
        assert len(groups) == catalan(n)
        for pf, members in groups.items():
            assert len(members) == pf.labeled_forest_count()


# ----------------------------------------------------------------------
# Enumeration counts
# ----------------------------------------------------------------------


def test_tree_counts():
    assert sum(1 for _ in enumerate_labeled_forests(2, trees_only=True)) == 1
    assert sum(1 for _ in enumerate_labeled_forests(4, trees_only=True)) == 16
    for n in range(1, 7):
        count = sum(1 for _ in enumerate_labeled_forests(n, trees_only=True))
        assert count == (1 if n == 1 else n ** (n - 2))


def test_forest_counts_against_graph_sweep():
    for n in range(1, 6):
        by_enum = sum(1 for _ in enumerate_labeled_forests(n))
        acyclic = sum(
            1
            for g in enumerate_graphs(n)
            if component_count(g) == n - g.edge_count()
        )
        assert by_enum == acyclic
    assert sum(1 for _ in enumerate_labeled_forests(3)) == 7


def test_forest_count_recurrence_against_enumeration():
    expected = [1, 2, 7, 38, 291, 2932, 36961]
    assert [count_labeled_forests(n) for n in range(1, 8)] == expected
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_labeled_forests(n)) == count_labeled_forests(n)


def test_forest_enumeration_unique_and_canonical():
    seen = set()
    for f in enumerate_labeled_forests(5):
        key = f.to_parent_text()
        assert key not in seen
        seen.add(key)
        for root in f.component_order:
            assert root == max(_component_nodes(f, root))


def _component_nodes(f: LabeledForest, root: int) -> set:
    nodes = {root}
    changed = True
    while changed:
        changed = False
        for v, p in f.parent.items():
            if p in nodes and v not in nodes:
                nodes.add(v)
                changed = True
    return nodes


def test_plane_forest_counts():
    assert sum(1 for _ in enumerate_plane_forests(3)) == 5
    assert sum(1 for _ in enumerate_plane_forests(1)) == 1
    assert sum(1 for _ in enumerate_plane_trees(4)) == catalan(3)
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_plane_forests(n)) == catalan(n)


def test_plane_trees_are_forests_one_node_down():
    # A plane tree is the tuple of its root's subtrees, in enumeration order.
    for size in range(2, 10):
        assert forests._plane_trees(size) == tuple(pf.trees for pf in enumerate_plane_forests(size - 1))


def test_plane_forest_enumeration_is_lazy():
    # The forests on n nodes are read off the trees on at most n nodes;
    # the catalan(n) trees on n + 1 nodes are never built.
    forests._plane_trees.cache_clear()
    assert sum(1 for _ in enumerate_plane_forests(9)) == catalan(9)
    assert forests._plane_trees.cache_info().currsize == 9


def test_plane_forest_round_trip():
    for pf in enumerate_plane_forests(5):
        seq = pf.degree_sequence()
        assert PlaneForest.from_degree_sequence(seq) == pf
        assert sum(seq) == pf.node_count() - pf.component_count()
        assert PlaneForest.from_text(pf.to_text()) == pf


def test_degree_sequence_component_zeros():
    # Only the zero closing each component is erased; inner zeros stay.
    pf = PlaneForest.from_degree_sequence([2, 0, 0, 1, 0])
    assert pf.roots == (0, 3)
    assert pf.reduced_degree_sequence() == (2, 0, 1)
    assert pf.edge_count() == 3


def test_single_node_edge_cases():
    f = LabeledForest.from_edges(1, [])
    assert alpha(f) == 0
    assert cane_edges(f) == set()
    pf = f.shape
    assert pf.degree_sequence() == (0,)
    assert pf.reduced_degree_sequence() == ()
    assert pf.labeled_forest_count() == 1


def test_labeled_forest_counts_sum_to_forest_counts():
    for n in range(1, 10):
        assert sum(pf.labeled_forest_count() for pf in enumerate_plane_forests(n)) == count_labeled_forests(n)
        trees = sum(pf.labeled_forest_count() for pf in enumerate_plane_trees(n))
        assert trees == (1 if n == 1 else n ** (n - 2))


def test_labeled_forest_count_rejects_a_non_integer(monkeypatch):
    # No plane forest gets here; a forged degree sequence makes 1! / 3!.
    pf = PlaneForest.from_text("1,0")
    monkeypatch.setattr(PlaneForest, "reduced_degree_sequence", lambda self: (3,))
    with pytest.raises(ArithmeticError, match="non-integer labeling count"):
        pf.labeled_forest_count()


def test_parent_text_round_trip(worked_forest12):
    entries = [int(x) for x in worked_forest12.to_parent_text().split(",")]
    parent = {v: p for v, p in enumerate(entries, start=1) if p != 0}
    assert LabeledForest(len(entries), parent) == worked_forest12


def test_invalid_forests_rejected():
    with pytest.raises(ValueError, match="^parent map contains a cycle$"):
        LabeledForest(3, {1: 2, 2: 1})
    with pytest.raises(ValueError, match="^parent map contains a cycle$"):
        LabeledForest(4, {1: 2, 2: 1, 3: 4})  # the cycle beside a valid tree
    with pytest.raises(ValueError, match="^parent map contains a cycle$"):
        LabeledForest(3, {3: 1, 1: 2, 2: 1})  # a tail hanging off the cycle
    with pytest.raises(ValueError, match="^component root 2 is not its maximal label$"):
        LabeledForest(3, {3: 2})
    with pytest.raises(ValueError, match="^bad parent entry 2 -> 2$"):
        LabeledForest(3, {2: 2})
    with pytest.raises(ValueError, match="^edge set contains a cycle$"):
        LabeledForest.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError, match="^edge set contains a cycle$"):
        LabeledForest.from_edges(3, [(1, 2), (1, 2)])  # a doubled edge
    with pytest.raises(ValueError, match="^bad edge label 0 for n=3$"):
        LabeledForest.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match="^bad edge label 4 for n=3$"):
        LabeledForest.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError, match="^bad edge label -1 for n=3$"):
        LabeledForest.from_edges(3, [(1, -1)])  # not a negative shift count
    with pytest.raises(ValueError, match="^edge set contains a cycle$"):
        LabeledForest.from_edges(3, [(2, 2)])  # a self-loop
    with pytest.raises(ValueError):
        list(enumerate_labeled_forests(9))


def test_invalid_plane_forests_rejected():
    with pytest.raises(ValueError):
        PlaneForest.from_degree_sequence([2, 0])  # truncated
    with pytest.raises(ValueError, match="^negative degree -1$"):
        PlaneForest.from_text("-1")
    # int() alone would read these as 1,0 and as one node of degree 10.
    with pytest.raises(ValueError, match="^not an integer: '\u0660'$"):
        PlaneForest.from_text("1,\u0660")
    with pytest.raises(ValueError, match="^not an integer: '1_0'$"):
        PlaneForest.from_text("1_0")
    with pytest.raises(ValueError):
        PlaneForest(())
    with pytest.raises(ValueError):
        list(enumerate_plane_forests(0))


# ----------------------------------------------------------------------
# Reference traversals: one walk per structure, written out separately
# ----------------------------------------------------------------------
# These are the traversals the package used before NFS became a single
# stack walk, kept verbatim except that they return plain data rather
# than forests, so that they stay independent of the code under test.


def _ref_nfs_component_order(root, children) -> list:
    """NFS visit order within one component of an ordered rooted tree."""
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


def _ref_cane_paths(node, parent, children) -> int:
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


def _ref_nfs(g: LabeledGraph) -> tuple[dict, list]:
    """(parent map, visit order) of the backtracking graph search."""
    n = g.node_count
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in g.edge_list():
        adj[i].append(j)
        adj[j].append(i)
    visited: set[int] = set()
    parent: dict[int, int] = {}
    order: list[int] = []
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
        order.extend(comp_order)
    return parent, order


def _ref_forest_parent(n: int, edge_pairs) -> dict:
    """Parent map of an acyclic edge set, rooted at maximal labels."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in edge_pairs:
        adj[i].append(j)
        adj[j].append(i)
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
    return parent


def _walk_coordinates(f: LabeledForest) -> dict:
    """(is_root, position, cane exponent, root position, root label) by
    label, read off the forest's shape walk."""
    order = f.order
    return {order[i]: (up is None, i, j, top, order[top]) for i, (up, j, top) in enumerate(f.shape.walk)}


def _ref_labeled(n: int, parent: dict) -> tuple[list, dict]:
    """(NFS order, coordinates by label) of a canonical parent map."""
    kids: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for v, p in parent.items():
        kids[p].append(v)
    children = {v: tuple(sorted(kids[v])) for v in kids}
    order: list[int] = []
    for root in sorted((v for v in kids if v not in parent), reverse=True):
        order.extend(_ref_nfs_component_order(root, children))
    position = {v: i for i, v in enumerate(order)}
    coords = {}
    for v in range(1, n + 1):
        root = v
        while root in parent:
            root = parent[root]
        j = 0 if v == root else _ref_cane_paths(v, parent, children)
        coords[v] = (v == root, position[v], j, position[root], root)
    return order, coords


class _RefPlaneIds:
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


def _ref_nfs_structure(pf: PlaneForest):
    """(coords, parent, children, root_positions) over NFS positions."""
    ids = _RefPlaneIds(pf.trees)
    order: list[int] = []
    for root in ids.roots:
        order.extend(_ref_nfs_component_order(root, ids.children))
    pos_of = {node: i for i, node in enumerate(order)}
    parent = {pos_of[v]: pos_of[p] for v, p in ids.parent.items()}
    children = {pos_of[v]: tuple(pos_of[c] for c in kids) for v, kids in ids.children.items()}
    root_positions = [pos_of[r] for r in ids.roots]
    coords = []
    for position in range(len(order)):
        root_pos = position
        while root_pos in parent:
            root_pos = parent[root_pos]
        if position == root_pos:
            coords.append((True, position, 0, position, None))
        else:
            j = _ref_cane_paths(position, parent, children)
            coords.append((False, position, j, root_pos, None))
    return coords, parent, children, root_positions


def _ref_forest_edge_lists(n: int, trees_only: bool = False):
    """Edge lists of the labeled forests on n nodes, by backtracking over
    the canonical pair order with a union-find that skips any pair
    closing a cycle (the enumerator before it became one loop)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen: list[tuple[int, int]] = []
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def rec(k: int, merges: int):
        if k == len(pairs):
            if not trees_only or merges == n - 1:
                yield list(chosen)
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


def _ref_parent_map(n: int, parent: dict):
    """The parent-map check before it walked the map's edges: (message,
    None) on a rejected map, else (None, (parent, children, walk)) of the
    forest it built by walking the map's children lists."""
    kids: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for v, p in parent.items():
        if not (1 <= v <= n and 1 <= p <= n) or v == p:
            return f"bad parent entry {v} -> {p}", None
        kids[p].append(v)
    children = {v: tuple(sorted(siblings)) for v, siblings in kids.items()}
    roots = [v for v in range(n, 0, -1) if v not in parent]
    walk = forests._nfs_walk(roots, children.__getitem__)
    root_of = {node: walk[top][0] for node, _, _, top in walk}
    for v in range(1, n + 1):
        if v not in root_of:
            return "parent map contains a cycle", None
        if root_of[v] < v:
            return f"component root {root_of[v]} is not its maximal label", None
    return None, (dict(parent), children, walk)


def _reference_graphs():
    for n in range(1, 6):
        yield from enumerate_graphs(n)
    rng = random.Random(2024)
    for _ in range(2000):
        n = rng.randint(7, 10)
        density = rng.choice((0.1, 0.2, 0.35, 0.6))
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < density]
        yield LabeledGraph.from_edges(n, edges)


def test_nfs_matches_backtracking_reference():
    for g in _reference_graphs():
        parent, order = _ref_nfs(g)
        f = nfs(g)
        assert f.parent == parent, g.to_text()
        assert list(f.order) == order, g.to_text()


def test_labeled_forests_match_reference():
    for n in range(1, 7):
        for f in enumerate_labeled_forests(n):
            assert f.parent == _ref_forest_parent(n, f.edge_list())
            order, coords = _ref_labeled(n, f.parent)
            assert list(f.order) == order
            assert _walk_coordinates(f) == coords
            assert [f.position(v) for v in order] == list(range(n))
            assert alpha(f) == sum(rec[2] for rec in coords.values())
            for v in range(1, n + 1):
                assert cane_paths_from(f, v) == coords[v][2]
            assert LabeledForest(n, f.parent).order == f.order


def test_plane_forests_match_reference():
    for n in range(1, 9):
        for pf in enumerate_plane_forests(n):
            ref_coords, ref_parent, ref_children, ref_roots = _ref_nfs_structure(pf)
            assert [(up is None, i, j, top, None) for i, (up, j, top) in enumerate(pf.walk)] == ref_coords
            assert {i: up for i, (up, _, _) in enumerate(pf.walk) if up is not None} == ref_parent
            assert dict(enumerate(pf.kids())) == ref_children
            assert list(pf.roots) == ref_roots
            assert pf.alpha() == sum(rec[2] for rec in ref_coords)


@pytest.mark.parametrize("trees_only", [False, True])
def test_forest_enumeration_order_matches_backtracking_reference(trees_only):
    for n in range(1, 7):
        expected = [
            ",".join(str(parent.get(v, 0)) for v in range(1, n + 1))
            for parent in (_ref_forest_parent(n, edges) for edges in _ref_forest_edge_lists(n, trees_only))
        ]
        got = [f.to_parent_text() for f in enumerate_labeled_forests(n, trees_only=trees_only)]
        assert got == expected, n


def test_parent_maps_match_reference_check():
    # Every map {1..n} -> {0..n} with n <= 5, 0 marking a root: the same
    # maps are rejected, and an accepted map gives the same forest.  A map
    # with two faults may report the other one (a cycle is reported before
    # a misplaced root), so test_invalid_forests_rejected pins the messages.
    maps = 0
    for n in range(1, 6):
        for entries in itertools.product(range(n + 1), repeat=n):
            parent = {v: p for v, p in enumerate(entries, start=1) if p != 0}
            message, expected = _ref_parent_map(n, parent)
            maps += 1
            if message is not None:
                with pytest.raises(ValueError):
                    LabeledForest(n, parent)
                continue
            f = LabeledForest(n, parent)
            walk = [(label, *entry) for label, entry in zip(f.order, f.shape.walk)]
            assert (f.parent, f.children, walk) == expected, entries
    assert maps == 8476


def _flat_labeled_forests(n: int, trees_only: bool = False):
    """The labeled forests on n nodes, one NFS walk each, in enumeration
    order (the enumerator before it labeled plane shapes).  Depth first
    over the canonical pair order: at each pair the branch that leaves the
    pair out comes first.  Every node carries the label of its component;
    a pair is taken only when its ends carry different labels, and taking
    it relabels the one component with the other's label."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    stack = [(0, tuple(range(n + 1)), ())]
    while stack:
        k, label, edges = stack.pop()
        if k == len(pairs):
            if not trees_only or len(edges) == n - 1:
                yield LabeledForest.from_edges(n, edges)
            continue
        i, j = pairs[k]
        old, new = label[i], label[j]
        if old != new:
            stack.append((k + 1, tuple(new if x == old else x for x in label), edges + ((i, j),)))
        stack.append((k + 1, label, edges))


def _public_fields(f: LabeledForest) -> tuple:
    return (
        f.node_count,
        f.parent,
        f.children,
        f.order,
        f.component_order,
        f.shape.walk,
        alpha(f),
        f.shape,
        f.shape.trees,
        f.to_parent_text(),
    )


@pytest.mark.parametrize("trees_only", [False, True])
def test_enumeration_matches_flat_reference_in_order(trees_only):
    for n in range(1, 8):
        expected = _flat_labeled_forests(n, trees_only)
        got = enumerate_labeled_forests(n, trees_only=trees_only)
        for ref, f in itertools.zip_longest(expected, got):
            assert ref is not None and f is not None, n
            assert _public_fields(f) == _public_fields(ref), ref


@pytest.mark.parametrize("trees_only", [False, True])
def test_enumeration_walks_each_shape_once(monkeypatch, trees_only):
    walks = []
    real_walk = forests._nfs_walk

    def counting_walk(roots, kids_of):
        walks.append(1)
        return real_walk(roots, kids_of)

    monkeypatch.setattr(forests, "_nfs_walk", counting_walk)
    for n in range(1, 7):
        walks.clear()
        for _ in enumerate_labeled_forests(n, trees_only=trees_only):
            pass
        assert len(walks) == (catalan(n - 1) if trees_only else catalan(n))


# sha256 of the to_parent_text() lines, each ending in a newline, of
# enumerate_labeled_forests(8), all forests and trees only.  8 nodes, the
# forest cap, is the only size whose labeling pools reach 7 labels and
# whose packed values reach 54 bits; the order reference above stops at
# 7 nodes.
_FOREST_CAP_SHA256 = {
    False: "d1c793689a5fdc75ab23f2b4378c90b51f50862a3e83a7467d42c25a9ceaf959",
    True: "7e256b0a176c454f125b92bb54076296e1c58355a8d6f6c8cafa00a996e60c70",
}


@pytest.mark.parametrize("trees_only", [False, True])
def test_enumeration_at_the_forest_cap(trees_only):
    digest = hashlib.sha256()
    by_shape = collections.Counter()
    for f in enumerate_labeled_forests(8, trees_only=trees_only):
        digest.update(f.to_parent_text().encode() + b"\n")
        by_shape[f.shape.walk] += 1
    assert digest.hexdigest() == _FOREST_CAP_SHA256[trees_only]
    shapes = enumerate_plane_trees(8) if trees_only else enumerate_plane_forests(8)
    assert by_shape == {pf.walk: pf.labeled_forest_count() for pf in shapes}
    assert sum(by_shape.values()) == (8**6 if trees_only else 561948)
