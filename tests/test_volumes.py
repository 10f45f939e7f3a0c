"""Volumes, generating functions, recursion, inversions, and counts."""

import math
import random
from fractions import Fraction

import pytest

from cayleypoly import (
    FAMILIES,
    BivariatePolynomial,
    DegenerateSimplexError,
    LabeledForest,
    PlaneForest,
    alpha,
    closed_form_piece_total,
    closed_form_simplex_total,
    connected_gf,
    count_labeled_forests,
    enumerate_labeled_forests,
    enumerate_plane_forests,
    family_total_polynomial,
    get_family,
    lattice_and_partition_counts,
    vertex_set,
    volume_report,
    z_bruteforce,
)
from cayleypoly.geometry import VertexTable, family_parameters
from cayleypoly.volumes import steps_volume_scaled, subgraph_tally

from oracles import (
    fraction_points,
    integer_volume_scaled,
    inversion_enumerator,
    partition_pattern,
    tree_inversions,
    tutte_from_z,
    volume_scaled,
)
from poly_helpers import compose_t

P = BivariatePolynomial
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


# ----------------------------------------------------------------------
# Determinant volumes
# ----------------------------------------------------------------------


def simplex_volume(vertices) -> Fraction:
    """|det(v_i - v_0)| / n! of integer vertices."""
    return Fraction(integer_volume_scaled(vertices), math.factorial(len(vertices) - 1))


def test_orthoscheme_volume():
    # The gayley vertices at n = 2: the orthoscheme with legs 2 and 4.
    orthoscheme = [[int(x) for x in v] for v in fraction_points(vertex_set("gayley", 2))]
    assert orthoscheme == [[0, 0], [2, 0], [2, 4]]
    assert simplex_volume(orthoscheme) == 4  # the 2-leg orthoscheme
    assert integer_volume_scaled(orthoscheme) == 8


def test_unit_simplex_volume():
    assert simplex_volume(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))) == Fraction(1, 6)


def test_star_simplex_volume(star3):
    table = VertexTable(3, 1, 1)
    scaled = Fraction(integer_volume_scaled(table.numerators(star3)), table.scale**2)
    assert scaled == 2  # 2 = 2^alpha at t = 1
    assert scaled / math.factorial(2) == 1


def test_degenerate_simplex_rejected():
    with pytest.raises(DegenerateSimplexError):
        simplex_volume(((0, 0), (1, 1), (2, 2)))


def test_point_simplex_volume():
    assert simplex_volume(((),)) == 1


def _triangular_steps(rng, n, density):
    """n random sparse steps in R^n, triangular in row order up to a
    column permutation: step k has a nonzero pivot in column columns[k],
    entries in the columns of the steps before it with the given
    probability, and no other entry.  Returns the steps, the columns and
    the pivots."""
    columns = rng.sample(range(n), n)
    pivots = [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in range(n)]
    steps = []
    for k, (column, pivot) in enumerate(zip(columns, pivots)):
        entries = {c: rng.choice([-4, -1, 1, 3]) for c in columns[:k] if rng.random() < density}
        entries[column] = pivot
        steps.append(tuple(sorted(entries.items())))
    return steps, columns, pivots


def _vertices_of_steps(rng, n, steps):
    """A random first vertex and the vertices its steps lead to."""
    vertices = [[rng.randint(-9, 9) for _ in range(n)]]
    for step in steps:
        vertex = list(vertices[-1])
        for c, a in step:
            vertex[c] += a
        vertices.append(vertex)
    return vertices


@pytest.mark.parametrize("n", range(7))
def test_steps_volume_matches_elimination_on_triangular_steps(n):
    # The product of the pivots is the dense |det|, from the steps and
    # from the vertices they lead to.
    rng = random.Random(f"triangular:{n}")
    for density in (1.0, 0.5, 0.0):
        for _ in range(40):
            steps, _, pivots = _triangular_steps(rng, n, density)
            vertices = _vertices_of_steps(rng, n, steps)
            expected = volume_scaled(vertices)
            assert expected == abs(math.prod(pivots))
            assert steps_volume_scaled(steps) == expected, steps
            assert integer_volume_scaled(vertices) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_steps_volume_rejects_a_step_with_no_new_column(n):
    # A step inside the columns of the steps before it, or no step at
    # all (a repeated vertex), makes a singular set, which both raise on.
    rng = random.Random(f"no-new-column:{n}")
    for _ in range(40):
        steps, columns, _ = _triangular_steps(rng, n, rng.choice([1.0, 0.5]))
        k = rng.randrange(n)
        steps[k] = tuple(sorted((c, rng.choice([-2, 1, 3])) for c in columns[:k] if rng.random() < 0.7))
        vertices = _vertices_of_steps(rng, n, steps)
        for volume, argument in ((steps_volume_scaled, steps), (volume_scaled, vertices)):
            with pytest.raises(DegenerateSimplexError):
                volume(argument)


@pytest.mark.parametrize("n", range(2, 7))
def test_steps_volume_rejects_a_step_with_two_new_columns(n):
    # Step k takes the pivot column of a later step as well, which the
    # one ordered pass does not decide: it raises, whatever the |det|.
    rng = random.Random(f"two-new-columns:{n}")
    for _ in range(40):
        steps, columns, _ = _triangular_steps(rng, n, rng.choice([1.0, 0.5, 0.0]))
        k = rng.randrange(n - 1)
        steps[k] = tuple(sorted(steps[k] + ((rng.choice(columns[k + 1 :]), 1),)))
        with pytest.raises(DegenerateSimplexError, match="not triangular"):
            steps_volume_scaled(steps)


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
@pytest.mark.parametrize("name", FAMILIES)
def test_determinant_matches_elimination_on_every_simplex(name, q, t):
    # Every simplex of the family's triangulation, from its vertices and
    # from the vertex table's memoised steps.
    _, q_eff, t_eff = family_parameters(name, q, t)
    for n in range(1, 6):
        table = VertexTable(n + 1, q_eff, t_eff)
        for f in get_family(name).labeled_cells(n):
            vertices = table.numerators(f)
            expected = volume_scaled(vertices)
            assert integer_volume_scaled(vertices) == expected
            assert steps_volume_scaled(table.steps(table.add(f))) == expected


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))])
@pytest.mark.parametrize("name", FAMILIES)
def test_forest_steps_are_triangular_with_the_lemma_pivots(name, q, t):
    # The step from vertex p to p+1 leaves one new column, that of the
    # node labelled p at position i (column i - 1), and its entry is
    # -t(1+t)^j s for a non-root at cane exponent j and -q s for a root,
    # s the table scale: the factors of q^(k-1) t^|E| (1+t)^alpha.
    _, q_eff, t_eff = family_parameters(name, q, t)
    for n in range(1, 6):
        table = VertexTable(n + 1, q_eff, t_eff)
        for f in get_family(name).labeled_cells(n):
            position = {label: i for i, label in enumerate(f.order)}
            used = set()
            for p, step in enumerate(table.steps(table.add(f)), 1):
                i = position[p]
                up, j, _ = f.shape.walk[i]
                pivot = -q_eff if up is None else -t_eff * (1 + t_eff) ** j
                assert [(c, a) for c, a in step if c not in used] == [(i - 1, pivot * table.scale)], (f, p)
                used.add(i - 1)


# ----------------------------------------------------------------------
# Closed forms
# ----------------------------------------------------------------------


def test_closed_form_simplex_examples(star3):
    assert closed_form_simplex_total((star3,)) == P({(0, 2): 1, (0, 3): 1})  # t^2 (1+t)
    pair = LabeledForest.from_edges(3, [(3, 1)])
    assert closed_form_simplex_total((pair,)) == P({(1, 1): 1})  # q t
    edgeless = LabeledForest.from_edges(4, [])
    assert closed_form_simplex_total((edgeless,)) == P({(3, 0): 1})  # q^3


def test_closed_form_piece_examples():
    rect = PlaneForest.from_degree_sequence([1, 0, 0])
    assert closed_form_piece_total((rect,)) == P({(1, 1): 2})  # 2 q t
    path = PlaneForest.from_degree_sequence([1, 1, 1, 0])
    assert closed_form_piece_total((path,)) == P({(0, 3): 6})  # 3! t^3
    singleton = PlaneForest.from_degree_sequence([0])
    assert closed_form_piece_total((singleton,)) == P.constant(1)


def test_determinant_matches_closed_form():
    for params in ((HALF, Fraction(1)), (THIRD, Fraction(2))):
        for n in range(1, 5):
            table = VertexTable(n + 1, *params)
            for f in enumerate_labeled_forests(n + 1):
                scaled = Fraction(integer_volume_scaled(table.numerators(f)), table.scale**n)
                assert scaled == closed_form_simplex_total((f,)).evaluate(*params)


# ----------------------------------------------------------------------
# Spanning-subgraph sums
# ----------------------------------------------------------------------


def test_z_small_values():
    assert z_bruteforce(2) == P({(1, 0): 1, (0, 1): 1})
    assert z_bruteforce(3) == P({(2, 0): 1, (1, 1): 3, (0, 2): 3, (0, 3): 1})
    for n in range(2, 7):
        assert z_bruteforce(n).evaluate(1, 1) == 2 ** math.comb(n, 2)


def test_z_against_naive_sweep():
    for n in range(2, 7):
        tally = _mask_sweep_tally(n)
        assert z_bruteforce(n) == P({(k - 1, e): c for (k, e), c in tally.items()})


def _mask_sweep_tally(n: int) -> dict[tuple[int, int], int]:
    """subgraph_tally by the earlier mask sweep (without its shard range),
    kept as the reference: one union-find per edge mask of K_{n-1},
    bucketed by partition pattern, then every star of node n attached."""
    if n == 1:
        return {(1, 0): 1}
    m = n - 1
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    # Bucket the K_{n-1} masks by partition pattern and edge count.
    buckets: dict[tuple[int, ...], list[int]] = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
        pattern = partition_pattern(m, edges)
        counts = buckets.setdefault(pattern, [0] * (len(pairs) + 1))
        counts[len(edges)] += 1
    # Attach every subset of edges from node n to {1..n-1}.
    tally: dict[tuple[int, int], int] = {}
    for pattern, by_edges in buckets.items():
        k_base = len(set(pattern))
        for star in range(1 << m):
            star_size = bin(star).count("1")
            touched = len({pattern[v] for v in range(m) if star >> v & 1})
            k = k_base - touched + 1
            for e_base, count in enumerate(by_edges):
                if count:
                    key = (k, e_base + star_size)
                    tally[key] = tally.get(key, 0) + count
    return tally


def test_subgraph_tally_matches_mask_sweep():
    for n in range(1, 8):
        assert subgraph_tally(n) == _mask_sweep_tally(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_subgraph_tally_closed_forms(n):
    # Counts known in closed form, independent of any sweep: all 2^C(n,2)
    # subgraphs, Cayley's n^(n-2) spanning trees, the forests (k + e = n)
    # and the one complete graph.
    tally = subgraph_tally(n)
    assert sum(tally.values()) == 2 ** math.comb(n, 2)
    assert tally[1, n - 1] == n ** max(n - 2, 0)
    assert sum(c for (k, e), c in tally.items() if k + e == n) == count_labeled_forests(n)
    assert tally[1, math.comb(n, 2)] == 1


def test_z_matches_exponential_formula():
    # Z_n = sum_k C(n-1, k-1) F_k(t) q^[n>k] Z_{n-k}: node 1 lies in a
    # connected component of k nodes (Stanley, EC2 5.1).
    z = [P.constant(1)]
    for n in range(1, 8):
        z_n = P.zero()
        for k in range(1, n + 1):
            component = connected_gf(k, "recursion") * P.monomial(int(n > k), 0)
            z_n += component * z[n - k] * math.comb(n - 1, k - 1)
        z.append(z_n)
    for n in range(2, 8):
        assert z_bruteforce(n) == z[n]


def test_z_domain():
    with pytest.raises(ValueError):
        z_bruteforce(1)
    with pytest.raises(ValueError):
        z_bruteforce(8)


def test_family_totals():
    assert family_total_polynomial(get_family("gayley"), 2) == P.constant(8)
    assert family_total_polynomial(get_family("cayley"), 3) == P.constant(38)
    assert family_total_polynomial(get_family("tgayley"), 2) == P.one_plus_t_power(3)
    assert family_total_polynomial(get_family("tcayley"), 2) == P({(0, 2): 3, (0, 3): 1})


# ----------------------------------------------------------------------
# Connected generating function
# ----------------------------------------------------------------------


def test_connected_gf_examples():
    assert connected_gf(2) == P({(0, 1): 1})  # F_2 = t
    assert connected_gf(3) == P({(0, 2): 3, (0, 3): 1})
    assert connected_gf(4) == P({(0, 3): 16, (0, 4): 15, (0, 5): 6, (0, 6): 1})


def test_recursion_first_steps():
    # r_1 = -1 gives F_2 = (1+t)^0 r_1 + (1+t) r_0 = t.
    assert connected_gf(2, "recursion") == P({(0, 1): 1})
    assert connected_gf(1, "recursion") == P.constant(1)


def test_recursion_matches_bruteforce():
    for n in range(1, 7):
        assert connected_gf(n, "recursion") == connected_gf(n, "bruteforce")


def test_connected_gf_mode_validation():
    with pytest.raises(ValueError):
        connected_gf(3, "guess")
    with pytest.raises(ValueError):
        connected_gf(31, "recursion")


# ----------------------------------------------------------------------
# Inversion enumerator
# ----------------------------------------------------------------------


def test_inversion_enumerator_small():
    assert inversion_enumerator(2) == P.constant(1)
    assert inversion_enumerator(3) == P({(0, 0): 2, (0, 1): 1})  # 2 + y


def test_inversion_enumerator_is_capped_by_the_forest_cap():
    # It enumerates labeled trees, so the labeled-forest cap (8) bounds
    # it, not the graph-sweep cap Z_MAX_NODES.
    assert inversion_enumerator(1) == P.constant(1)
    for n in (0, 9):
        with pytest.raises(ValueError, match=f"labeled trees need n in 1..8, got {n}"):
            inversion_enumerator(n)


def test_inversion_identity_with_connected_gf():
    # t^(n-1) Inv_n(1+t) = F_n(t).
    shift = P.one_plus_t_power(1)
    for n in range(2, 7):
        inv = inversion_enumerator(n)
        lhs = P.monomial(0, n - 1) * compose_t(inv, shift)
        assert lhs == connected_gf(n)


def test_inversion_equals_tutte_at_x_one():
    for n in range(2, 6):
        tutte = tutte_from_z(z_bruteforce(n), n)
        at_x1 = P.zero()
        for (dx, dy), coeff in tutte.terms():
            at_x1 += P.monomial(0, dy, coeff)
        assert at_x1 == inversion_enumerator(n)


def test_tree_inversions_examples(star3, path3):
    assert tree_inversions(star3) == 0
    assert tree_inversions(path3) == 1
    with pytest.raises(ValueError):
        tree_inversions(LabeledForest.from_edges(3, []))


# ----------------------------------------------------------------------
# Integer points and partitions
# ----------------------------------------------------------------------


def _chains(n: int) -> list[tuple[int, ...]]:
    """Every integer chain 1 <= a_1 <= 2, 1 <= a_{i+1} <= 2 a_i of length n."""
    chains = [(1,), (2,)]
    for _ in range(n - 1):
        chains = [c + (s,) for c in chains for s in range(1, 2 * c[-1] + 1)]
    return chains


def test_lattice_and_partition_examples():
    assert lattice_and_partition_counts(1) == (2, 2)
    assert lattice_and_partition_counts(2) == (6, 6)
    assert lattice_and_partition_counts(3) == (26, 26)
    for n in range(1, 7):
        count = len(_chains(n))
        assert lattice_and_partition_counts(n) == (count, count)
    # n = 11 and 12 as a DP over every (a_i, a_{i+1}) pair counts them.
    assert lattice_and_partition_counts(11) == (77160820913242, 77160820913242)
    assert lattice_and_partition_counts(12) == (34317392762489766, 34317392762489766)


def test_lattice_domain():
    with pytest.raises(ValueError):
        lattice_and_partition_counts(0)


# ----------------------------------------------------------------------
# The volume identities at small n
# ----------------------------------------------------------------------


def test_simplex_sum_equals_subgraph_sum():
    for n in range(1, 5):
        total = P.zero()
        for f in enumerate_labeled_forests(n + 1):
            total += closed_form_simplex_total((f,))
        assert total == z_bruteforce(n + 1)


def test_piece_sum_equals_subgraph_sum():
    for n in range(1, 5):
        total = P.zero()
        for pf in enumerate_plane_forests(n + 1):
            total += closed_form_piece_total((pf,))
        assert total == z_bruteforce(n + 1)


def test_gayley_total_power():
    for n in range(1, 5):
        total = P.zero()
        for f in enumerate_labeled_forests(n + 1):
            total += closed_form_simplex_total((f,)).substitute(q=1)
        assert total == P.one_plus_t_power(math.comb(n + 1, 2))


@pytest.mark.parametrize("family", FAMILIES)
def test_closed_form_totals_equal_per_cell_sums(family):
    fam = get_family(family)
    for n in range(0, 5):
        simplex_sum = P.zero()
        for f in fam.labeled_cells(n):
            simplex_sum += closed_form_simplex_total((f,))
        assert closed_form_simplex_total(fam.labeled_cells(n)) == simplex_sum
        piece_sum = P.zero()
        for pf in fam.plane_cells(n):
            piece_sum += closed_form_piece_total((pf,))
        assert closed_form_piece_total(fam.plane_cells(n)) == piece_sum


def test_piece_total_equals_per_cell_sum_up_to_eight_nodes():
    for nodes in range(1, 9):
        piece_sum = P.zero()
        for pf in enumerate_plane_forests(nodes):
            piece_sum += closed_form_piece_total((pf,))
        assert closed_form_piece_total(enumerate_plane_forests(nodes)) == piece_sum


def test_closed_forms_match_their_formulas_cell_by_cell():
    # Independent per-cell references: the simplex formula by polynomial
    # products, and the piece prefactor worked out as the multinomial
    # n! / prod d_i! / prod_{j >= 2} (a_j + ... + a_m).
    for f in enumerate_labeled_forests(5):
        expected = P.monomial(f.component_count() - 1, f.edge_count())
        expected *= P.one_plus_t_power(alpha(f))
        assert closed_form_simplex_total((f,)) == expected
    for nodes in range(1, 9):
        for pf in enumerate_plane_forests(nodes):
            # A component spans the positions from its root to the next.
            ends = pf.roots[1:] + (nodes,)
            sizes = [end - root for root, end in zip(pf.roots, ends)]
            reduced = pf.reduced_degree_sequence()
            prefactor = Fraction(math.factorial(nodes - 1))
            for d in reduced:
                prefactor /= math.factorial(d)
            for j in range(1, len(sizes)):
                prefactor /= sum(sizes[j:])
            m = len(sizes)
            exponent = math.comb(nodes + 1 - m, 2) - sum(i * d for i, d in enumerate(reduced, 1))
            expected = P.monomial(m - 1, sum(reduced), prefactor) * P.one_plus_t_power(exponent)
            assert closed_form_piece_total((pf,)) == expected


def test_volume_report_tutte():
    report = volume_report("tutte", 2, HALF, 1)
    assert report.agree()
    assert report.by_determinant == Fraction(23, 4)


def test_volume_report_symbolic():
    report = volume_report("tcayley", 3, with_determinant=False)
    assert report.agree()
    assert report.by_graph_sum == connected_gf(4)
