"""Acceptance criteria.

Each test is one criterion, checked at its stated size and with exact
(zero-tolerance) comparisons; a pass/fail line is printed per criterion.
Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines).
"""

import time
from fractions import Fraction

from cayleypoly import (
    BivariatePolynomial,
    alpha,
    build_hrep,
    catalan,
    cayley_vertices,
    closed_form_piece_total,
    closed_form_simplex_total,
    connected_gf,
    enumerate_labeled_forests,
    enumerate_plane_forests,
    enumerate_plane_trees,
    lattice_and_partition_counts,
    tutte_f_vector,
    tutte_vertices,
    verify_fiber,
    verify_subdivision,
    verify_triangulation,
    z_bruteforce,
)
from cayleypoly.geometry import VertexTable
from cayleypoly.volumes import integer_volume_scaled

from oracles import (
    component_count,
    conjecture_check,
    count_connected_graphs,
    enumerate_graphs,
    inversion_enumerator,
    tutte_from_z,
    vertices_are_extreme,
    z_from_tutte,
)
from poly_helpers import compose_t

P = BivariatePolynomial
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS", flush=True)


def test_criterion_01_connected_graph_volume():
    # n! vol of the chain polytope, three ways, equals the brute-force
    # count of connected graphs on n+1 nodes, for n = 1..5.
    started = time.time()
    for n in range(1, 6):
        referee = count_connected_graphs(n + 1)
        trees = list(enumerate_labeled_forests(n + 1, trees_only=True))
        by_alpha = sum(2 ** alpha(t) for t in trees)
        table = VertexTable(n + 1, 1, 1)
        by_det = sum(
            Fraction(integer_volume_scaled(table.numerators(t)), table.scale**n) for t in trees
        )
        by_pieces = sum(
            closed_form_piece_total((pf,)).evaluate(1, 1)
            for pf in enumerate_plane_trees(n + 1)
        )
        assert by_alpha == referee
        assert by_det == referee
        assert by_pieces == referee
    assert time.time() - started < 10
    _report(1, "connected-graph count = chain polytope volume, n<=5")


def test_criterion_02_subgraph_sum_volume():
    # Simplex closed forms over labeled forests sum to Z_{K_{n+1}}(q, t),
    # which equals t^n T_{K_{n+1}}(1 + q/t, 1 + t), exactly, for n = 1..5;
    # the optional n = 6 case (36961 forests, a 2^21 sweep) is cheap here.
    started = time.time()
    for n in range(1, 7):
        z = z_bruteforce(n + 1)
        total = P.zero()
        for f in enumerate_labeled_forests(n + 1):
            total += closed_form_simplex_total((f,))
        assert total == z
        assert z_from_tutte(tutte_from_z(z, n + 1), n) == z
    assert time.time() - started < 30
    _report(2, "forest simplex volumes = subgraph sum = Tutte evaluation, n<=6")


def test_criterion_03_two_dimensional_anchors(star3):
    # At n = 2: the star-tree simplex has 2! area t^2 (1+t) and the
    # two-component rectangle piece has 2! area 2qt, exactly.
    from cayleypoly import PlaneForest

    assert closed_form_simplex_total((star3,)) == P({(0, 2): 1, (0, 3): 1})
    for q, t in ((HALF, Fraction(1)), (THIRD, Fraction(2))):
        table = VertexTable(3, q, t)
        scaled = Fraction(integer_volume_scaled(table.numerators(star3)), table.scale**2)
        assert scaled == t * t * (1 + t)
    rect = PlaneForest.from_degree_sequence([1, 0, 0])
    assert closed_form_piece_total((rect,)) == P({(1, 1): 2})
    _report(3, "t^2(1+t) simplex and 2qt rectangle anchors")


def test_criterion_04_cell_counts():
    # Triangulations and subdivisions have the predicted cell counts.
    for n in range(1, 6):
        trees = sum(1 for _ in enumerate_labeled_forests(n + 1, trees_only=True))
        assert trees == (n + 1) ** (n - 1)
        assert sum(1 for _ in enumerate_plane_trees(n + 1)) == catalan(n)
        assert sum(1 for _ in enumerate_plane_forests(n + 1)) == catalan(n + 1)
        forests = sum(1 for _ in enumerate_labeled_forests(n + 1))
        acyclic = sum(
            1
            for g in enumerate_graphs(n + 1)
            if component_count(g) == (n + 1) - g.edge_count()
        )
        assert forests == acyclic
    _report(4, "cell counts: (n+1)^(n-1), cat(n), cat(n+1), #forests, n<=5")


def test_criterion_05_vertex_theorems():
    # 2^n distinct vertices inside the polytope; the printed three-
    # dimensional tables; no vertex in the hull of the others (n <= 4).
    w_t = Fraction(2)
    w = 1 + w_t
    q = THIRD
    mq = 1 - q
    assert set(tutte_vertices(3, q, w_t).points) == {
        (w, w**2, w**3), (w, w**2, mq), (w, 1, w), (w, mq, mq),
        (1, w, w**2), (1, w, mq), (1, 1, w), (mq, mq, mq),
    }
    assert set(cayley_vertices(3, w_t).points) == {
        (w, w**2, w**3), (w, w**2, 1), (w, 1, w), (w, 1, 1),
        (1, w, w**2), (1, w, 1), (1, 1, w), (1, 1, 1),
    }
    for n in range(1, 7):
        vs = tutte_vertices(n, HALF, 1)
        assert len(set(vs.points)) == 2**n
        hrep = build_hrep("tutte", n, HALF, 1)
        assert all(hrep.contains(p) for p in vs.points)
    for n in range(1, 5):
        assert vertices_are_extreme(
            tutte_vertices(n, HALF, 1), build_hrep("tutte", n, HALF, 1)
        )
    _report(5, "2^n vertices, printed tables, extremality")


F_TABLE = {
    1: (2,),
    2: (4, 4),
    3: (8, 13, 7),
    4: (16, 37, 32, 11),
    5: (32, 97, 117, 66, 16),
    6: (64, 241, 375, 297, 121, 22),
}


def test_criterion_06_f_vectors_and_count_formulas():
    started = time.time()
    for n in range(1, 7):
        for q, t in ((HALF, Fraction(1)), (THIRD, Fraction(2))):
            assert tutte_f_vector(n, q, t) == F_TABLE[n], (n, q, t)
    rows = conjecture_check(7)
    assert {r.n for r in rows} == set(range(2, 8))
    assert all(r.matches for r in rows)
    assert time.time() - started < 60
    _report(6, "f-vector table n<=6 and edge/2-face formulas n<=7")


def test_criterion_07_recursion_and_inversions():
    for n in range(2, 8):
        assert connected_gf(n, "recursion") == connected_gf(n, "bruteforce")
    shift = P.one_plus_t_power(1)
    for n in range(1, 8):
        inv = inversion_enumerator(n)
        assert P.monomial(0, n - 1) * compose_t(inv, shift) == connected_gf(n)
    _report(7, "recursion = brute force and inversion identity, n<=7")


def test_criterion_08_integer_points_and_partitions():
    values = []
    for n in range(1, 11):
        lattice, partitions = lattice_and_partition_counts(n)
        assert lattice == partitions
        values.append(lattice)
    assert values[:3] == [2, 6, 26]
    _report(8, "integer-point count = partition count, n<=10")


def test_criterion_09_fiber_lemma():
    started = time.time()
    for nodes in range(1, 7):
        report = verify_fiber(nodes)
        assert report.passed, report.checks
    assert time.time() - started < 120
    _report(9, "NFS preimages = forest plus cane-edge subsets, <=6 nodes")


def test_criterion_10_partition_certificates():
    # 1000 seeded generic interior points per polytope land in exactly one
    # simplex and one piece; volume sums match the closed forms exactly.
    for family in ("cayley", "gayley", "tcayley", "tgayley", "tutte"):
        for n in range(1, 5):
            tri = verify_triangulation(family, n, HALF, 1, samples=1000)
            assert tri.passed, (family, n, tri.checks)
            assert tri.checks["sampling"]["samples"] == 1000
            sub = verify_subdivision(family, n, HALF, 1, samples=1000)
            assert sub.passed, (family, n, sub.checks)
            assert sub.checks["sampling"]["samples"] == 1000
    _report(10, "1000-point partition certificates, all families, n<=4")
