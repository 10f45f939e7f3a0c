"""Labeled graph enumeration and connectivity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleypoly import pair_index
from cayleypoly.graphs import pair_order

from oracles import (
    LabeledGraph,
    component_count,
    count_connected_graphs,
    enumerate_graphs,
    is_connected,
    nfs,
    partition_pattern,
)


def test_pair_order_is_lexicographic():
    assert pair_order(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for n in range(2, 8):
        for k, (i, j) in enumerate(pair_order(n)):
            assert pair_index(i, j, n) == k
            assert pair_index(j, i, n) == k


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(3, connected_only=True)) == 4
    assert sum(1 for _ in enumerate_graphs(4, connected_only=True)) == 38
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_graphs(n)) == 2 ** math.comb(n, 2)


def test_enumeration_is_restartable():
    first = [g.edges for g in enumerate_graphs(4)]
    second = [g.edges for g in enumerate_graphs(4)]
    assert first == second == sorted(first)


def test_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
    with pytest.raises(ValueError):
        list(enumerate_graphs(13))


def test_component_count_examples():
    assert component_count(LabeledGraph(5, 0)) == 5
    assert component_count(LabeledGraph.from_text("3:1-2,1-3,2-3")) == 1
    assert component_count(LabeledGraph.from_text("3:1-2")) == 2


def test_text_round_trip():
    g = LabeledGraph.from_text("3:1-2,1-3,2-3")
    assert g.to_text() == "3:1-2,1-3,2-3"
    assert LabeledGraph.from_text("4:").edges == 0


graphs_strategy = st.integers(2, 7).flatmap(
    lambda n: st.builds(
        LabeledGraph,
        st.just(n),
        st.integers(0, (1 << math.comb(n, 2)) - 1),
    )
)


@settings(max_examples=80, deadline=None)
@given(graphs_strategy)
def test_text_round_trip_random(g):
    assert LabeledGraph.from_text(g.to_text()) == g


@settings(max_examples=80, deadline=None)
@given(graphs_strategy)
def test_components_match_spanning_forest_rank(g):
    # The NFS forest of g is a spanning forest, so k = n - |E(forest)|.
    forest = nfs(g)
    assert component_count(g) == g.node_count - forest.edge_count()


def connected_count_recursion(n: int) -> int:
    """Exponential-formula recursion, an oracle independent of the sweep."""
    c = {1: 1}
    for m in range(2, n + 1):
        total = 2 ** math.comb(m, 2)
        for k in range(1, m):
            total -= math.comb(m - 1, k - 1) * c[k] * 2 ** math.comb(m - k, 2)
        c[m] = total
    return c[n]


def test_connected_counts_match_recursion():
    for n in range(1, 7):
        assert count_connected_graphs(n) == connected_count_recursion(n)


def test_is_connected_small():
    assert is_connected(LabeledGraph.from_text("2:1-2"))
    assert not is_connected(LabeledGraph(2, 0))


def test_invalid_graphs_rejected():
    with pytest.raises(ValueError):
        LabeledGraph(0, 0)
    with pytest.raises(ValueError):
        LabeledGraph(3, 1 << 3)  # mask wider than C(3,2)
    with pytest.raises(ValueError):
        pair_index(2, 2, 4)
    with pytest.raises(ValueError):
        pair_index(1, 5, 4)
    with pytest.raises(ValueError, match=r"^repeated pair \(2, 1\)$"):
        LabeledGraph.from_text("3:1-2,2-1")  # one pair given twice, not one edge
    with pytest.raises(ValueError, match="^bad edge '': expected 'i-j'$"):
        LabeledGraph.from_text("3:1-2,")
    with pytest.raises(ValueError, match="^bad header 'x': expected the node count$"):
        LabeledGraph.from_text("x:1-2")
    # int() alone would read these as 3:1-2, a node count of 12 and 3:1-2.
    with pytest.raises(ValueError, match="^bad header '\u0663': expected the node count$"):
        LabeledGraph.from_text("\u0663:\u0661-\u0662")
    with pytest.raises(ValueError, match="^bad header '1_2': expected the node count$"):
        LabeledGraph.from_text("1_2:1-2")
    with pytest.raises(ValueError, match="^bad edge '1-\u0662': expected 'i-j'$"):
        LabeledGraph.from_text("3:1-\u0662")
    assert LabeledGraph.from_text(" 3: 1-2, 2-3") == LabeledGraph.from_text("3:1-2,2-3")


def test_partition_pattern_numbers_components_by_first_node():
    assert partition_pattern(5, [(3, 1), (4, 2)]) == (0, 1, 2, 1, 2)
    assert partition_pattern(3, []) == (0, 1, 2)
    g = LabeledGraph.from_text("5:1-4,2-5")
    assert partition_pattern(5, [(i - 1, j - 1) for i, j in g.edge_list()]) == (0, 1, 2, 0, 1)
    assert component_count(g) == 3


class _RecordingPool:
    """Stand-in for multiprocessing.Pool: records the worker count and runs
    the calls in this process, so no process is started."""

    created: list = []

    def __init__(self, workers):
        self.created.append(workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, arg_lists):
        return [fn(*args) for args in arg_lists]


def test_jobs_flag_starts_no_pool(monkeypatch, capsys):
    import multiprocessing

    from cayleypoly.cli import main

    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    for argv in (
        ["zpoly", "--n", "7"],
        ["recursion", "--n", "7", "--mode", "both"],
        ["verify", "--check", "fiber", "--n", "5"],
        ["verify", "--all", "--nmax", "2", "--samples", "100"],
    ):
        outputs = []
        for jobs in ("1", "2"):
            assert main([*argv, "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
    assert _RecordingPool.created == []
