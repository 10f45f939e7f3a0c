"""Polytope H-reps, triangulation simplices, pieces, cones and products."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleypoly import (
    FAMILIES,
    Family,
    HRep,
    ParameterDomainError,
    PlaneForest,
    alpha,
    build_hrep,
    catalan,
    cone_q,
    enumerate_hrep_vertices,
    enumerate_labeled_forests,
    enumerate_plane_forests,
    get_family,
    piece_for_plane_forest_via_cones,
    product,
)
from cayleypoly import cli, faces, geometry, verify, volumes
from cayleypoly.exact import clear_denominators, format_rational
from cayleypoly.forests import MAX_PLANE_NODES
from cayleypoly.geometry import MAX_DIMENSION, DimensionError, VertexTable, family_parameters

from oracles import (
    AffineForm,
    chain_forms,
    chain_hrep_forms,
    cone_q_forms,
    contains,
    fraction_points,
    hrep_forms,
    hrep_from_forms,
    hrep_from_text,
    hrep_to_text,
    integer_volume_scaled,
    piece_forms,
    placement_form,
    point_keys,
    product_forms,
    tutte_hrep_forms,
    volume_scaled,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def _points(f, q, t):
    """The vertices of the forest's simplex as Fractions, in vertex order."""
    table = VertexTable(f.node_count, q, t)
    return tuple(table.point(k) for k in table.add(f))


def _chain(f, q, t):
    """The forest's chain as an H-rep of the table's coprime rows."""
    return HRep(f.node_count - 1, 1, VertexTable(f.node_count, q, t).chain_rows(f))


def _piece(pf, q, t):
    return VertexTable(pf.node_count(), q, t).piece(pf)


# ----------------------------------------------------------------------
# Family H-representations
# ----------------------------------------------------------------------


def test_cayley_segment():
    hrep = build_hrep("cayley", 1)
    assert fraction_points(enumerate_hrep_vertices(hrep)) == ((Fraction(1),), (Fraction(2),))


def test_tutte_inequality_count():
    assert len(build_hrep("tutte", 3, HALF, 1).forms) == 7
    assert len(build_hrep("tutte", 5, HALF, 1).forms) == 16


def _reference_hrep_forms(name, n, q, t):
    """The family's H-rep built in Fractions, form by form."""
    _, q_eff, t_eff = family_parameters(name, q, t)
    if get_family(name).connected:
        return chain_hrep_forms(n, t_eff)
    return tutte_hrep_forms(n, q_eff, t_eff)


def _assert_forms_format(hrep):
    """Each form holds int entries only, nonzero coefficients only, at
    increasing indices below the dimension, over a positive int scale."""
    assert type(hrep.scale) is int and hrep.scale > 0
    for b, terms in hrep.forms:
        assert type(b) is int
        assert all(type(a) is int and a for _, a in terms)
        indices = [i for i, _ in terms]
        assert indices == sorted(set(indices)) and all(0 <= i < hrep.dimension for i in indices)


def _assert_matches_forms(hrep, reference):
    """The H-rep's coprime rows and texts are those of the Fraction forms."""
    _assert_forms_format(hrep)
    assert hrep.integer_rows == tuple(form.integer_row for form in reference)
    assert [tuple(row) for row in hrep.texts()] == [form.texts for form in reference]


# Every family at a small- and a large-denominator draw, and tutte at q = 1,
# where t(1-q) = 0 is left out of every row.
_HREP_CASES = [(name, q, t) for name in FAMILIES for q, t in ((HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17)))]
_HREP_CASES += [("tutte", Fraction(1), Fraction(1)), ("tutte", Fraction(1), Fraction(53, 17))]


@pytest.mark.parametrize("name,q,t", _HREP_CASES)
def test_family_hreps_match_fraction_references(name, q, t):
    for n in (*range(1, 9), MAX_DIMENSION):
        hrep = build_hrep(name, n, q, t)
        assert hrep.dimension == n
        _assert_matches_forms(hrep, _reference_hrep_forms(name, n, q, t))


def _reference_cones_forms(pf, q, t):
    """piece_for_plane_forest_via_cones in Fractions: the q = 1 pieces of
    the trees, from the last, each taken in product with the skew cone
    over the assembly so far."""
    trees = [PlaneForest((tree,)) for tree in pf.trees]
    current, size = piece_forms(trees[-1], Fraction(1), t), trees[-1].node_count() - 1
    for tree in reversed(trees[:-1]):
        dim = tree.node_count() - 1
        current = product_forms(piece_forms(tree, Fraction(1), t), dim, cone_q_forms(current, size, q), size + 1)
        size += dim + 1
    return current


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17)), (Fraction(1), Fraction(2))])
def test_cones_assembly_matches_fraction_reference(q, t):
    checked = 0
    for nodes in range(1, 6):
        for pf in enumerate_plane_forests(nodes):
            hrep = piece_for_plane_forest_via_cones(pf, q, t)
            assert hrep.dimension == nodes - 1
            _assert_matches_forms(hrep, _reference_cones_forms(pf, q, t))
            checked += 1
    assert checked == sum(catalan(nodes) for nodes in range(1, 6))


# A small- and a large-denominator draw, and q = 1 at t != 1.
_THREE_DRAWS = [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17)), (Fraction(1), Fraction(53, 17))]


def _chain_bound_rows(fam, n, q, t):
    """The family's H-rep in R^n written from `Family.chain_bounds` at its
    effective (q, t), as coprime rows: x_i >= lo and w x_{i-1} >= x_i for
    a connected family; else w x_{i-1} - slack (1 - x_{j-1}) >= x_i for
    each j <= i, and then x_n >= lo.  Each row is given as its entries
    (k, a), for a x_k with x_0 = 1."""
    lo, w, slack = fam.chain_bounds(q, t)

    def row(*entries):
        form = [Fraction(0)] * (n + 1)
        for k, a in entries:
            form[k] += a
        return AffineForm(form[0], tuple(form[1:])).integer_row

    rows = []
    for i in range(1, n + 1):
        if fam.connected:
            rows += [row((i, 1), (0, -lo)), row((i - 1, w), (i, -1))]
        else:
            rows += [row((i - 1, w), (0, -slack), (j - 1, slack), (i, -1)) for j in range(1, i + 1)]
    return rows if fam.connected else rows + [row((n, 1), (0, -lo))]


@pytest.mark.parametrize("q,t", _THREE_DRAWS)
@pytest.mark.parametrize("name", FAMILIES)
def test_family_hreps_are_their_chain_bounds(name, q, t):
    # The builders' rows, in order, are the chain of the family record.
    fam, q_eff, t_eff = family_parameters(name, q, t)
    for n in range(1, 7):
        assert list(build_hrep(name, n, q, t).integer_rows) == _chain_bound_rows(fam, n, q_eff, t_eff)


@pytest.mark.parametrize("q,t", _THREE_DRAWS)
def test_cones_assembly_is_the_direct_piece_and_root_floors(q, t):
    # The assembled piece's rows are the direct piece's rows, each with its
    # multiplicity, and x_l >= 1-q at each root position l other than the
    # first and the last: a missing or changed cone row breaks the equality.
    checked = 0
    for nodes in range(1, 9):
        table = VertexTable(nodes, q, t)
        for pf in enumerate_plane_forests(nodes):
            floors = [AffineForm.linear(nodes - 1, l, 1, q - 1).integer_row for l in pf.roots[1:-1]]
            assembled = piece_for_plane_forest_via_cones(pf, q, t).integer_rows
            assert sorted(assembled) == sorted([*table.piece_rows(pf), *floors]), pf.to_text()
            checked += 1
    assert checked == sum(catalan(nodes) for nodes in range(1, 9))


def test_tutte_equals_gayley_at_one_one():
    for n in (1, 2, 3):
        tutte = enumerate_hrep_vertices(build_hrep("tutte", n, 1, 1))
        gayley = enumerate_hrep_vertices(build_hrep("gayley", n))
        assert tutte == gayley


def test_gayley_is_orthoscheme():
    for n in (1, 2, 3):
        hrep = build_hrep("gayley", n)
        # The prefix points (2, 4, ..., 2^k, 0, ..., 0) for k = 0..n.
        prefixes = [tuple(Fraction(2) ** i for i in range(1, k + 1)) + (Fraction(0),) * (n - k) for k in range(n + 1)]
        assert enumerate_hrep_vertices(hrep) == point_keys(prefixes)


@pytest.mark.parametrize(
    "name,q,t,counts",
    [
        ("gayley", None, None, {3: (7, 4), 12: (79, 13)}),
        ("tgayley", None, Fraction(53, 17), {3: (7, 4), 12: (79, 13)}),
        ("tutte", HALF, 1, {3: (7, 7), 12: (79, 79)}),
        ("tutte", Fraction(37, 101), Fraction(53, 17), {3: (7, 7), 12: (79, 79)}),
        ("cayley", None, None, {3: (6, 6), 12: (24, 24)}),
        ("tcayley", None, Fraction(53, 17), {3: (6, 6), 12: (24, 24)}),
    ],
)
def test_hrep_form_counts(name, q, t, counts):
    # At q = 1 the tutte rows for j < i coincide: C(n+1, 2) + 1 forms, n + 1
    # of them distinct.  They are kept as generated, since `hrep` prints them.
    for n, expected in counts.items():
        forms = build_hrep(name, n, q, t).forms
        assert (len(forms), len(set(forms))) == expected


def test_parameter_domains():
    with pytest.raises(ParameterDomainError):
        build_hrep("tutte", 2, 2, 1)  # q > 1
    with pytest.raises(ParameterDomainError):
        build_hrep("tutte", 2, 0, 1)  # q = 0 degenerates
    with pytest.raises(ParameterDomainError):
        build_hrep("tcayley", 2, t=-1)
    with pytest.raises(ParameterDomainError):
        build_hrep("mystery", 2)
    with pytest.raises(ParameterDomainError):
        build_hrep("cayley", 0)


def test_family_parameters_fixed_values():
    assert family_parameters("cayley", HALF, 7)[1:] == (1, 1)
    assert family_parameters("tgayley", HALF, 3)[1:] == (1, 3)
    assert family_parameters("tutte", HALF, 3)[1:] == (HALF, 3)


def test_family_table():
    assert FAMILIES == ("cayley", "gayley", "tcayley", "tgayley", "tutte")
    assert [get_family(name).connected for name in FAMILIES] == [True, False, True, False, False]
    assert get_family("tgayley") == Family("tgayley", False, Fraction(1), None)
    assert get_family("tutte").q is None and get_family("tutte").t is None
    with pytest.raises(ParameterDomainError, match="unknown family"):
        get_family("mystery")


@pytest.mark.parametrize("name", ["cayley", "gayley", "tcayley", "tgayley", "tutte"])
def test_family_cells_match_expected_counts(name):
    fam = get_family(name)
    for n in range(1, 5):
        simplices, pieces = fam.cell_counts(n)
        assert sum(1 for _ in fam.labeled_cells(n)) == simplices
        assert sum(1 for _ in fam.plane_cells(n)) == pieces
        if fam.connected:
            assert all(f.is_tree() for f in fam.labeled_cells(n))


def _command(command, *flags):
    def run(name):
        assert cli.main([command, "--family", name, "--n", "2", *flags]) == 0

    return run


# Each entry point below takes a family name and passes the record down.
_ONE_LOOKUP_CALLS = {
    "verify_triangulation": lambda name: verify.verify_triangulation(name, 2, HALF, 2, samples=10),
    "verify_subdivision": lambda name: verify.verify_subdivision(name, 2, HALF, 2, samples=10),
    "verify_refinement": lambda name: verify.verify_refinement(name, 2, HALF, 2),
    "volume_report": lambda name: volumes.volume_report(name, 2, HALF, 2),
    "hrep json": _command("hrep", "--q", "1/2", "--t", "2"),
    "hrep text": _command("hrep", "--format", "text"),
    "vertices json": _command("vertices", "--q", "1/2", "--t", "2"),
    "vertices text": _command("vertices", "--q", "37/101", "--t", "53/17", "--format", "text"),
    "vertex_set": lambda name: faces.vertex_set(name, 2, HALF, 2),
}


@pytest.fixture
def looked_up(monkeypatch):
    """The names passed to get_family, through every module's binding,
    also one a module does not hold now."""
    names = []
    lookup = geometry.get_family

    def counted(family):
        names.append(family)
        return lookup(family)

    for module in (geometry, verify, volumes, faces, cli):
        monkeypatch.setattr(module, "get_family", counted, raising=False)
    return names


@pytest.mark.parametrize("call", _ONE_LOOKUP_CALLS)
@pytest.mark.parametrize("name", FAMILIES)
def test_each_entry_point_looks_its_family_up_once(looked_up, capsys, name, call):
    _ONE_LOOKUP_CALLS[call](name)
    assert looked_up == [name]


def test_fvector_looks_tutte_up_once(looked_up, capsys):
    # The vertex set and the H-rep come from one record.
    assert cli.main(["fvector", "--n", "3", "--q", "37/101", "--t", "53/17"]) == 0
    assert looked_up == ["tutte"]


def test_specializations_look_each_family_up_once(looked_up):
    assert verify.verify_specializations(3).passed
    assert sorted(looked_up) == ["gayley", "tcayley", "tutte"]


# ----------------------------------------------------------------------
# Simplices
# ----------------------------------------------------------------------


def test_star_simplex_vertices(star3):
    t = Fraction(2)
    w = 1 + t
    assert set(_points(star3, 1, t)) == {(1, w), (w, w), (w, w * w)}
    table = VertexTable(3, 1, t)
    assert Fraction(integer_volume_scaled(table.numerators(star3)), table.scale**2) == t * t * w  # t^2 (1+t)


def test_chain_polytope_vertices_appear_in_simplices():
    # Every vertex of the three-dimensional chain polytope shows up as a
    # vertex of some triangulation simplex.
    t = Fraction(2)
    w = 1 + t
    expected = {
        (w, w**2, w**3), (w, w**2, 1), (w, 1, w), (w, 1, 1),
        (1, w, w**2), (1, w, 1), (1, 1, w), (1, 1, 1),
    }
    seen = set()
    for tree in enumerate_labeled_forests(4, trees_only=True):
        seen.update(_points(tree, 1, t))
    assert expected <= seen


WORKED_ROWS = [
    (1, 2, 3, 3, 2, 3, 1, "one", 1, 2, 3),
    (1, 2, 3, 3, 2, 3, 1, "one", 1, 2, 2),
    (1, 2, 3, 3, 2, 2, 1, "one", 1, 2, 2),
    (1, 2, 3, 3, 2, 2, 1, "one", 1, 1, 2),
    (1, 2, 3, 3, 1, 2, 1, "one", 1, 1, 2),
    (1, 2, 3, 3, 1, 2, 0, "one", 1, 1, 2),
    (1, 2, 2, 3, 1, 2, 0, "one", 1, 1, 2),
    (1, 2, 2, 3, 1, 2, 0, "one", 0, 1, 2),
    (1, 2, 2, 2, 1, 2, 0, "one", 0, 1, 2),
    (1, 2, 2, 2, 1, 2, 0, "mq", "mq", "mq", "mq"),
    (1, 1, 2, 2, 1, 2, 0, "mq", "mq", "mq", "mq"),
    (0, 1, 2, 2, 1, 2, 0, "mq", "mq", "mq", "mq"),
]


def _expected_vertex(row, q, t):
    w = 1 + t
    out = []
    for entry in row:
        if entry == "mq":
            out.append(1 - q)
        elif entry == "one":
            out.append(Fraction(1))
        else:
            out.append(w**entry)
    return tuple(out)


@pytest.mark.parametrize("q,t", [(Fraction(1), Fraction(1)), (THIRD, Fraction(2))])
def test_worked_forest_vertex_table(worked_forest12, q, t):
    vertices = _points(worked_forest12, q, t)
    for p, row in enumerate(WORKED_ROWS):
        assert vertices[p] == _expected_vertex(row, q, t), f"vertex {p + 1}"


def _walk_coordinates(f):
    """(is_root, position, cane exponent, root position, root label) by
    label, read off the forest's shape walk."""
    order = f.order
    return {order[i]: (up is None, i, j, top, order[top]) for i, (up, j, top) in enumerate(f.shape.walk)}


def test_chain_solve_pattern():
    # Vertex p zeroes the chain coordinates below p and saturates the rest.
    # The coordinate forms are integers over the table's form_scale and
    # the vertices integers over its scale.
    q, t = THIRD, Fraction(2)
    for size in (2, 3, 4, 5):
        table = VertexTable(size, q, t)
        for f in enumerate_labeled_forests(size):
            coords = _walk_coordinates(f)
            # The table keys a coordinate by (position, j, root position).
            forms = [table._form(coords[k][1:4]) for k in range(1, size + 1)]
            for p, vertex in enumerate(table.numerators(f), start=1):
                for k, (b, terms) in enumerate(forms, start=1):
                    value = b * table.scale + sum(a * vertex[i] for i, a in terms)
                    expected = Fraction(0) if k < p else q * t
                    assert Fraction(value, table.form_scale * table.scale) == expected


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (THIRD, Fraction(2)), (Fraction(1), Fraction(1))])
def test_simplex_vertices_inside_polytope(q, t):
    for n in range(1, 5):
        polytope = build_hrep("tutte", n, q, t)
        for f in enumerate_labeled_forests(n + 1):
            for v in _points(f, q, t):
                assert contains(polytope, v)


def test_simplex_vertices_inside_polytope_six_nodes():
    q, t = HALF, Fraction(1)
    polytope = build_hrep("tutte", 5, q, t)
    for f in enumerate_labeled_forests(6):
        for v in _points(f, q, t):
            assert contains(polytope, v)


def test_order_simplex_map_gives_tree_vertices():
    # Mapping the vertices of the standard order simplex through
    # x_i = (1+t)^j (1 + t y) reproduces the tree simplex vertices.
    t = Fraction(2)
    w = 1 + t
    for tree in enumerate_labeled_forests(4, trees_only=True):
        coords = _walk_coordinates(tree)
        n = tree.node_count - 1
        expected = _points(tree, 1, t)
        for p in range(1, tree.node_count + 1):
            x = [Fraction(0)] * n
            for label in range(1, tree.node_count):
                _, position, j, _, _ = coords[label]
                y = 0 if label < p else 1
                x[position - 1] = w**j * (1 + t * y)
            assert tuple(x) == expected[p - 1]


def test_skew_shift_maps_one_parameter_simplex_to_two_parameter():
    # The affine shift x_i -> x_i + (1-q)(1 - x_l), with x_l read at the
    # component root's position, carries every vertex of the q = 1 simplex
    # onto the matching vertex of the (q, t) simplex.
    q, t = THIRD, Fraction(2)
    for n in range(2, 6):
        for f in enumerate_labeled_forests(n):
            for v_base, v_target in zip(_points(f, 1, t), _points(f, q, t)):
                mapped = list(v_base)
                for i, (_, _, top) in enumerate(f.shape.walk[1:], start=1):
                    x_l = Fraction(1) if top == 0 else v_base[top - 1]
                    mapped[i - 1] = v_base[i - 1] + (1 - q) * (1 - x_l)
                assert tuple(mapped) == v_target


@pytest.mark.parametrize("t", [Fraction(1), Fraction(2)])
def test_tree_chain_matches_classical_form(t):
    # For trees the chain H-rep at q = 1 is the shifted version of the
    # plain coordinate chain 1 <= x/(1+t)^j <= ... <= 1+t; at t = 1 this
    # is the classical powers-of-two chain.
    w = 1 + t
    for tree in enumerate_labeled_forests(4, trees_only=True):
        n = tree.node_count - 1
        coords = _walk_coordinates(tree)
        forms = []
        for label in range(1, tree.node_count):
            _, position, j, _, _ = coords[label]
            forms.append(AffineForm.linear(n, position, Fraction(1, w**j)))
        rows = [forms[0] - AffineForm.constant_form(n, 1)]
        for a, b in zip(forms, forms[1:]):
            rows.append(b - a)
        rows.append(AffineForm.constant_form(n, w) - forms[-1])
        classical = hrep_from_forms(n, rows)
        chain = _chain(tree, 1, t)
        assert enumerate_hrep_vertices(classical) == enumerate_hrep_vertices(chain)


# ----------------------------------------------------------------------
# Pieces
# ----------------------------------------------------------------------


def test_rectangle_piece():
    # Two-node tree next to a singleton: [1, 1+t] x [1-q, 1].
    pf = PlaneForest.from_degree_sequence([1, 0, 0])
    q, t = HALF, Fraction(1)
    piece = _piece(pf, q, t)
    verts = set(fraction_points(enumerate_hrep_vertices(piece)))
    assert verts == {
        (Fraction(1), HALF), (Fraction(1), Fraction(1)),
        (Fraction(2), HALF), (Fraction(2), Fraction(1)),
    }


def test_path_piece_is_cube():
    # A plane path yields independent bounds 1 <= x_i <= 1+t.
    pf = PlaneForest.from_degree_sequence([1, 1, 1, 0])
    piece = _piece(pf, 1, Fraction(1))
    verts = set(fraction_points(enumerate_hrep_vertices(piece)))
    assert verts == {(Fraction(a), Fraction(b), Fraction(c)) for a in (1, 2) for b in (1, 2) for c in (1, 2)}


def test_worked_forest_piece_matches_printed_system(worked_forest12):
    # The eleven-dimensional system printed for the worked forest, checked
    # by membership agreement on simplex vertices and perturbations.
    import random

    t = Fraction(2)
    w = 1 + t
    pf = worked_forest12.shape
    piece = _piece(pf, 1, t)

    def printed(x):
        x = (None,) + tuple(x)
        return (
            1 <= x[1] <= w
            and w <= x[2] <= w * x[1]
            and w**2 <= x[3] <= w * x[2]
            and w**2 <= x[4] <= w**3
            and w <= x[5] <= w**2
            and w**2 <= x[6] <= w * x[5]
            and 1 <= x[7] <= w
            and 0 <= x[8] <= 1
            and x[8] <= x[9] <= w * x[8]
            and w * x[8] <= x[10] <= w * x[9]
            and w**2 * x[8] <= x[11] <= w * x[10]
        )

    rng = random.Random(11)
    points = list(_points(worked_forest12, 1, t))
    for _ in range(400):
        base = rng.choice(points[:12])
        jitter = tuple(Fraction(rng.randint(-2, 2), rng.choice([3, 5, 7])) for _ in base)
        points.append(tuple(b + d for b, d in zip(base, jitter)))
    for point in points:
        assert contains(piece, point) == printed(point)


def test_piece_counts():
    for n in range(1, 5):
        assert sum(1 for _ in enumerate_plane_forests(n + 1)) == catalan(n + 1)


@pytest.mark.parametrize("q,t", [(HALF, Fraction(1)), (THIRD, Fraction(2))])
def test_piece_combinator_agrees_with_direct(q, t):
    for n in range(1, 4):
        table = VertexTable(n + 1, q, t)
        for pf in enumerate_plane_forests(n + 1):
            direct = table.piece(pf)
            combined = piece_for_plane_forest_via_cones(pf, q, t)
            assert enumerate_hrep_vertices(direct) == enumerate_hrep_vertices(combined)


# ----------------------------------------------------------------------
# Vertex table: per-cell Fraction references
# ----------------------------------------------------------------------

DRAWS = [(HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17))]


def _reference_simplex(f, q, t):
    """Vertex by vertex, every coordinate computed afresh."""
    n = f.node_count - 1
    w = 1 + t
    coords = _walk_coordinates(f)
    vertices = []
    for p in range(1, f.node_count + 1):
        x = [Fraction(0)] * n
        for label, (is_root, position, j, _, r) in coords.items():
            if position == 0:
                continue
            if is_root:
                x[position - 1] = Fraction(1) if p <= r else 1 - q
            elif p <= label:
                x[position - 1] = w ** (j + 1)
            elif p <= r:
                x[position - 1] = w**j
            else:
                x[position - 1] = 1 - q
        vertices.append(tuple(x))
    return tuple(vertices)


def _entries(hrep):
    """Every constant and coefficient of the H-rep's integer forms."""
    return [x for b, terms in hrep.forms for x in (b, *(a for _, a in terms))]


def _all_fractions(values):
    return all(type(x) is Fraction for x in values)


def _all_ints(values):
    return all(type(x) is int for x in values)


@pytest.mark.parametrize("q,t", DRAWS)
@pytest.mark.parametrize("name", FAMILIES)
def test_cells_match_per_cell_references(name, q, t):
    # The pieces' integer forms are those built node by node in Fractions,
    # their texts are the Fraction forms' texts, and the table's
    # integer chain and piece rows are the forms' coprime rows.
    fam = get_family(name)
    _, q_eff, t_eff = family_parameters(name, q, t)
    for n in range(1, 5):
        table = VertexTable(n + 1, q_eff, t_eff)
        for f in fam.labeled_cells(n):
            reference = chain_forms(f, q_eff, t_eff)
            assert table.chain_rows(f) == tuple(form.integer_row for form in reference)
        for pf in fam.plane_cells(n):
            piece = table.piece(pf)
            reference = piece_forms(pf, q_eff, t_eff)
            assert piece.dimension == n
            assert list(hrep_forms(piece)) == reference
            assert _all_ints(_entries(piece))
            assert table.piece_texts(pf) == tuple(form.texts for form in reference)
            assert table.piece_rows(pf) == piece.integer_rows == tuple(form.integer_row for form in reference)


@pytest.mark.parametrize("q,t", [*DRAWS, (Fraction(1), Fraction(53, 17))])
def test_placement_forms_match_the_reference(q, t):
    # Every placement up to the plane-forest node cap: the global root,
    # each root, and each non-root at position i with cane exponent
    # j <= N - 2 and root position l < i, read back in Fractions.
    for nodes in range(2, MAX_PLANE_NODES + 1):
        n = nodes - 1
        table = VertexTable(nodes, q, t)
        keys = [(0, 0, 0), *((i, 0, i) for i in range(1, nodes))]
        keys += [(i, j, l) for i in range(1, nodes) for j in range(nodes - 1) for l in range(i)]
        forms = hrep_forms(HRep(n, table.form_scale, tuple(map(table._form, keys))))
        assert list(forms) == [placement_form(n, q, t, *key) for key in keys]


def test_simplex_coordinates_are_the_tables_values():
    # At one (n, q, t) every coordinate of every simplex is one of
    # 1, 1-q and the powers of 1+t, as numerators over the table's scale:
    # at most n + 4 distinct ints in all.
    q, t = Fraction(37, 101), Fraction(53, 17)
    table = VertexTable(5, q, t)
    for f in enumerate_labeled_forests(5):
        table.add(f)
    assert len({x for v in table.vertices for x in v}) <= 4 + 4


_TABLE_CASES = [
    (name, n, q, t)
    for name in FAMILIES
    for q, t in ((HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17)))
    for n in (1, 2, 3, 4)
] + [("tutte", 5, q, t) for q, t in ((HALF, Fraction(1)), (Fraction(37, 101), Fraction(53, 17)))]


@pytest.mark.parametrize("name,n,q,t", _TABLE_CASES)
def test_vertex_table_matches_fraction_simplices(name, n, q, t):
    # The integer table over one scale s is the reference Fraction
    # simplices: the same vertices, n+1 distinct indices each, and the
    # n!-volume of the closed form q^(k-1) t^|E| (1+t)^alpha.
    _, q_eff, t_eff = family_parameters(name, q, t)
    table = VertexTable(n + 1, q_eff, t_eff)
    fraction_vertices = set()
    for f in get_family(name).labeled_cells(n):
        reference = _reference_simplex(f, q_eff, t_eff)
        indices = table.add(f)
        assert len(indices) == n + 1 and len(set(indices)) == n + 1
        assert tuple(table.point(k) for k in indices) == reference
        rows = [table.vertices[k] for k in indices]
        closed_form = q_eff ** (f.component_count() - 1) * t_eff ** f.edge_count() * (1 + t_eff) ** alpha(f)
        assert Fraction(integer_volume_scaled(rows), table.scale**n) == closed_form
        fraction_vertices.update(reference)
    points = [table.point(k) for k in range(len(table.vertices))]
    assert len(set(points)) == len(points)
    assert set(points) == fraction_vertices
    assert all(type(x) is int for v in table.vertices for x in v)


@pytest.mark.parametrize("name,n,q,t", [case for case in _TABLE_CASES if case[1] <= 4])
def test_simplex_texts_format_the_fraction_simplices(name, n, q, t):
    _, q_eff, t_eff = family_parameters(name, q, t)
    table = VertexTable(n + 1, q_eff, t_eff)
    for f in get_family(name).labeled_cells(n):
        expected = tuple(tuple(map(format_rational, v)) for v in _reference_simplex(f, q_eff, t_eff))
        assert table.texts(f) == expected


def test_vertex_table_rejects_other_node_counts():
    table = VertexTable(4, HALF, 1)
    forest = next(iter(enumerate_labeled_forests(3)))
    with pytest.raises(DimensionError):
        table.add(forest)
    with pytest.raises(DimensionError):
        table.texts(forest)
    with pytest.raises(DimensionError):
        table.chain_rows(forest)
    with pytest.raises(DimensionError):
        table.piece(next(iter(enumerate_plane_forests(3))))
    with pytest.raises(DimensionError):
        table.piece_texts(next(iter(enumerate_plane_forests(3))))


_BUILDERS = [
    (_points, lambda: next(iter(enumerate_labeled_forests(4))),
     lambda s: [x for v in s for x in v], _all_fractions),
    (_chain, lambda: list(enumerate_labeled_forests(4))[20], _entries, _all_ints),
    (_piece, lambda: list(enumerate_plane_forests(4))[5], _entries, _all_ints),
]


@pytest.mark.parametrize("builder,cell,values,typed", _BUILDERS)
@pytest.mark.parametrize("first,second", [((1, 1), (Fraction(1), Fraction(1))), ((Fraction(1), Fraction(1)), (1, 1))])
def test_int_and_fraction_parameters_share_typed_values(builder, cell, values, typed, first, second):
    # The table reads q and t as checked Fractions, so the call order
    # cannot leak an int into a later call's points, nor a Fraction into
    # a later call's integer forms.
    a = builder(cell(), *first)
    b = builder(cell(), *second)
    assert a == b
    assert values(a) == values(b)
    assert typed(values(a)) and typed(values(b))


def test_builders_keep_their_domain_checks():
    for q, t in ((0, 1), (2, 1), (HALF, 0), (HALF, -1)):
        with pytest.raises(ParameterDomainError):
            VertexTable(3, q, t)


# ----------------------------------------------------------------------
# Cones and products
# ----------------------------------------------------------------------


def _interval(lo, hi) -> HRep:
    return hrep_from_forms(1, (AffineForm.linear(1, 1, 1, -lo), AffineForm.linear(1, 1, -1, hi)))


def test_cone_over_segment():
    triangle = cone_q(_interval(1, 2), 1)
    assert set(fraction_points(enumerate_hrep_vertices(triangle))) == {
        (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)),
    }


def test_cone_q_apex():
    skew = cone_q(_interval(1, 2), HALF)
    verts = set(fraction_points(enumerate_hrep_vertices(skew)))
    assert (HALF, HALF) in verts  # apex (1-q, ..., 1-q)
    assert (Fraction(1), Fraction(1)) in verts and (Fraction(1), Fraction(2)) in verts


def test_cone_volume_lemma_on_rectangle():
    # vol(cone(P)) = vol(P) / (n+1) for a rectangle P, via a hand split of
    # the pyramid into two tetrahedra.
    rect = product(_interval(1, 3), _interval(2, 5))  # area 6
    pyramid = cone_q(rect, 1)
    verts = fraction_points(enumerate_hrep_vertices(pyramid))
    apex = (Fraction(0), Fraction(0), Fraction(0))
    base = [v for v in verts if v != apex]
    assert len(base) == 4
    b00, b01, b10, b11 = sorted(base)

    def scaled_volume(vertices):
        entries, scale = clear_denominators([x for v in vertices for x in v])
        return Fraction(volume_scaled([entries[k : k + 3] for k in range(0, 12, 3)]), scale**3)

    scaled = scaled_volume((apex, b00, b01, b10)) + scaled_volume((apex, b01, b10, b11))
    assert scaled / math.factorial(3) == Fraction(6, 3)


def test_product_dimensions():
    box = product(_interval(0, 1), _interval(0, 2))
    assert box.dimension == 2
    assert len(enumerate_hrep_vertices(box)) == 4


# ----------------------------------------------------------------------
# Membership and file forms
# ----------------------------------------------------------------------


def test_contains_examples():
    c1 = build_hrep("cayley", 1)
    assert contains(c1, (Fraction(3, 2),))
    assert not contains(c1, (Fraction(5, 2),))
    with pytest.raises(ValueError):
        contains(c1, (Fraction(1), Fraction(1)))


def test_strict_membership():
    c1 = build_hrep("cayley", 1)
    assert not contains(c1, (Fraction(1),), strict=True)
    assert contains(c1, (Fraction(3, 2),), strict=True)


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)
positive_factor = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=7)
# Coordinates on a coarse grid, so that points often sit on a hyperplane.
grid_coordinate = st.sampled_from(
    [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]
)


@st.composite
def hrep_with_point(draw):
    """A small H-rep with a zero row, a positive multiple of another row
    and a row with a negative constant among its rows, and a grid point."""
    d = draw(st.integers(1, 4))

    def form(constant=small_fraction):
        return AffineForm(draw(constant), tuple(draw(small_fraction) for _ in range(d)))

    forms = [form() for _ in range(draw(st.integers(1, 4)))]
    source, multiple = draw(st.integers(0, len(forms) - 1)), len(forms)
    base, factor = forms[source], draw(positive_factor)
    forms.append(AffineForm(base.constant * factor, tuple(a * factor for a in base.coefficients)))
    forms.append(form(st.fractions(min_value=-3, max_value=Fraction(-1, 4), max_denominator=4)))
    forms.append(AffineForm.constant_form(d, 0))
    order = draw(st.permutations(range(len(forms))))
    hrep = hrep_from_forms(d, [forms[k] for k in order])
    point = tuple(draw(grid_coordinate) for _ in range(d))
    return hrep, point, (order.index(source), order.index(multiple))


def _fraction_contains(hrep, point, strict):
    values = [f.evaluate(point) for f in hrep_forms(hrep)]
    return all(v > 0 for v in values) if strict else all(v >= 0 for v in values)


@settings(max_examples=150, deadline=None)
@given(hrep_with_point(), st.booleans())
def test_integer_contains_matches_fraction_reference(case, strict):
    hrep, point, (row, multiple) = case
    assert contains(hrep, point, strict) == _fraction_contains(hrep, point, strict)
    # The zero row makes every strict test fail; without it strict can hold.
    nonzero = hrep_from_forms(hrep.dimension, [f for f in hrep_forms(hrep) if f.constant or any(f.coefficients)])
    assert contains(nonzero, point, strict) == _fraction_contains(nonzero, point, strict)
    # Positive multiples clear to one coprime row, and every row keeps its sign.
    rows = hrep.integer_rows
    assert rows[row] == rows[multiple]
    for (b, terms), form in zip(rows, hrep_forms(hrep)):
        assert all(a for _, a in terms)
        assert math.gcd(b, *(a for _, a in terms)) in (0, 1)
        value = b + sum(a * point[i] for i, a in terms)
        expected = form.evaluate(point)
        assert (value > 0, value < 0) == (expected > 0, expected < 0)


def test_integer_rows_are_coprime_and_keep_signs():
    hrep = hrep_from_forms(2, (
        AffineForm(Fraction(-3, 2), (Fraction(3, 4), Fraction(0))),
        AffineForm(Fraction(6), (Fraction(-9), Fraction(3, 5))),
        AffineForm.constant_form(2, 0),
    ))
    assert hrep.integer_rows == ((-2, ((0, 1),)), (10, ((0, -15), (1, 1))), (0, ()))


def test_integer_rows_reject_an_entry_beyond_the_dimension():
    with pytest.raises(DimensionError, match="form dimension mismatch"):
        HRep(2, 1, ((0, ((0, 1),)), (1, ((2, -1),)))).integer_rows
    with pytest.raises(DimensionError, match="point dimension mismatch"):
        HRep(2, 1, ((0, ((1, 1),)),)).contains_numerators([1], 1)


def test_hrep_text_round_trip():
    hrep = build_hrep("tutte", 3, HALF, Fraction(2))
    again = hrep_from_text(hrep_to_text(hrep))
    assert again.dimension == hrep.dimension
    assert hrep_forms(again) == hrep_forms(hrep)


def test_hrep_text_rejects_non_ascii_digits():
    with pytest.raises(ValueError, match="not an exact rational"):
        hrep_from_text("1 1\n\u0663 1\n")


def test_hrep_text_rejects_bad_row_width():
    with pytest.raises(ValueError):
        hrep_from_text("2 1\n1 2\n")


@pytest.mark.parametrize("text", ["", "2\n"])
def test_hrep_text_rejects_missing_header(text):
    with pytest.raises(ValueError, match="^expected the header line 'dimension rows'$"):
        hrep_from_text(text)


def test_hrep_text_names_a_bad_header():
    with pytest.raises(ValueError, match="^bad header 'a 1': expected 'dimension rows'$"):
        hrep_from_text("a 1\n1 2")


@pytest.mark.parametrize("header", ["\u0661 1", "1_0 0", "1 \u0661"])
def test_hrep_text_header_takes_ascii_digits_only(header):
    # int() alone would read these as dimension 1, dimension 10 and one row.
    with pytest.raises(ValueError, match=f"^bad header '{header}': expected 'dimension rows'$"):
        hrep_from_text(f"{header}\n0 1")


def test_hrep_text_rejects_row_count_mismatch():
    with pytest.raises(ValueError, match="header declares dimension -1"):
        hrep_from_text("-1 0")
    with pytest.raises(ValueError, match="declares 3 rows, found 1"):
        hrep_from_text("2 3\n1 0 0\n")  # truncated
    with pytest.raises(ValueError, match="declares 1 rows, found 2"):
        hrep_from_text("2 1\n1 0 0\n0 1 0\n")  # padded


def test_tutte_inequality_counts_formula():
    for n in range(1, 7):
        hrep = build_hrep("tutte", n, HALF, 1)
        assert len(hrep.forms) == 1 + n * (n + 1) // 2
