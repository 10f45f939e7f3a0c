"""Exact arithmetic core: polynomials, elimination, Tutte conversion."""

import re
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleypoly import BivariatePolynomial, format_rational, parse_rational
from cayleypoly.exact import clear_denominators, parse_integer

from oracles import count_connected_graphs, eliminate, tutte_from_z, var_q, var_t, z_from_tutte
from poly_helpers import compose_t

P = BivariatePolynomial

Z_K3 = P({(2, 0): 1, (1, 1): 3, (0, 2): 3, (0, 3): 1})
Z_K2 = P({(1, 0): 1, (0, 1): 1})
T_K3 = P({(2, 0): 1, (1, 0): 1, (0, 1): 1})  # x^2 + x + y


# ----------------------------------------------------------------------
# Rational text form
# ----------------------------------------------------------------------


def test_parse_rational():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3") == Fraction(-3)
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def _reference_format(value) -> str:
    """The rendering through Fraction(value) for every input."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


rational_input = st.one_of(
    st.integers(-10**30, 10**30),
    st.booleans(),
    st.fractions(max_denominator=10**12),
    st.integers(-10**6, 10**6).map(Fraction),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-50, 50), st.integers(1, 50)),
    st.integers(-10**6, 10**6).map(str),
)


@settings(max_examples=300, deadline=None)
@given(rational_input)
def test_format_rational_fast_path_matches_fraction_rendering(value):
    assert format_rational(value) == _reference_format(value)


def test_format_rational_examples():
    assert format_rational(True) == "1"
    assert format_rational(False) == "0"
    assert format_rational("3/6") == "1/2"
    assert format_rational("-4/2") == "-2"
    assert format_rational(Fraction(-7, 3)) == "-7/3"
    assert format_rational(-12) == "-12"


# A zero denominator is a ValueError, not ZeroDivisionError, so the CLI
# reports a usage error.
@pytest.mark.parametrize(
    "bad", ["0.5", "1e3", "1/2/3", "", "q", "1/0", "-3/00", "\u0663/4", "\uff11/2", "1/\uff12"]
)
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("text,value", [("12", 12), ("-1", -1), ("+3", 3), (" 0 ", 0), ("007", 7)])
def test_parse_integer_reads_ascii_integers_as_int_does(text, value):
    assert parse_integer(text) == int(text) == value


# int() would take three of these: "1_0", "\u0663" and "\uff11\uff12", as 10, 3 and 12.
@pytest.mark.parametrize("bad", ["", "1.0", "1_0", "\u0663", "\uff11\uff12", "--1", "1 2"])
def test_parse_integer_rejects(bad):
    with pytest.raises(ValueError, match=f"^not an integer: {re.escape(repr(bad))}$"):
        parse_integer(bad)


# ----------------------------------------------------------------------
# Determinants through the elimination kernel
# ----------------------------------------------------------------------


def _determinant(rows) -> Fraction:
    """Exact determinant of a square matrix of ints and Fractions, read off
    `eliminate`: every entry is cleared over one common denominator s, and
    the determinant is sign * last pivot / s^n (0 below full rank)."""
    rows = [tuple(row) for row in rows]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("determinant requires a square matrix of dimension >= 1")
    entries, scale = clear_denominators([x for row in rows for x in row])
    ints = [entries[k : k + n] for k in range(0, n * n, n)]
    pivots, sign = eliminate(ints)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * ints[-1][-1], scale**n)


def test_determinant_identity():
    assert _determinant([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_determinant_orthoscheme_matrix():
    # Divided by 2! this is the area 4 of the orthoscheme with legs 2, 4.
    assert _determinant([[2, 0], [2, 4]]) == 8


def test_determinant_star_simplex_differences():
    # Simplex (1,1+t), (1+t,1+t), (1+t,(1+t)^2) at t=1: rows of differences
    # are (t, 0) and (t, t(1+t)), so the determinant is t^2 (1+t) = 2.
    v0, v1, v2 = (1, 2), (2, 2), (2, 4)
    rows = [[a - b for a, b in zip(v1, v0)], [a - b for a, b in zip(v2, v0)]]
    assert _determinant(rows) == 2


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        _determinant([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        _determinant([])


small_fraction = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(small_fraction, min_size=3, max_size=3), min_size=3, max_size=3))
def test_determinant_row_swap_flips_sign(rows):
    swapped = [rows[1], rows[0], rows[2]]
    assert _determinant(swapped) == -_determinant(rows)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(small_fraction, min_size=3, max_size=3), min_size=3, max_size=3),
    small_fraction,
)
def test_determinant_row_scaling(rows, scale):
    scaled = [list(rows[0]), list(rows[1]), [scale * x for x in rows[2]]]
    assert _determinant(scaled) == scale * _determinant(rows)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_fraction, min_size=6, max_size=6))
def test_determinant_upper_triangular(entries):
    a, b, c, d, e, f = entries
    m = [[a, b, c], [0, d, e], [0, 0, f]]
    assert _determinant(m) == a * d * f


# Large primes, one denominator per row, so that the common denominator
# of a matrix is their product and no two rows share a factor.
ROW_PRIMES = (1_000_003, 998_244_353, 2_147_483_647)


def _leibniz(m):
    """Sum over permutations of sign * product: the determinant by definition."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-10**12, 10**12), min_size=3, max_size=3), min_size=3, max_size=3))
def test_determinant_matches_leibniz_over_large_prime_denominators(numerators):
    rows = [[Fraction(a, p) for a in row] for row, p in zip(numerators, ROW_PRIMES)]
    assert _determinant(rows) == _leibniz(rows)
    # A third row that is the sum of the first two: singular, so zero.
    dependent = [rows[0], rows[1], [a + b for a, b in zip(rows[0], rows[1])]]
    assert _determinant(dependent) == _leibniz(dependent) == 0


# ----------------------------------------------------------------------
# Polynomial ring
# ----------------------------------------------------------------------


def poly_strategy():
    monomial = st.tuples(st.integers(0, 4), st.integers(0, 4))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    return st.dictionaries(monomial, coeff, max_size=5).map(P)


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == P.zero()
    assert a * P.constant(1) == a


@settings(max_examples=40, deadline=None)
@given(poly_strategy())
def test_json_round_trip(p):
    encoded = p.to_json_obj()
    assert encoded == sorted(encoded)
    assert P({(dq, dt): parse_rational(c) for dq, dt, c in encoded}) == p


def test_poly_eval_examples():
    assert Z_K3.evaluate(1, 1) == 8  # 2^C(3,2)
    assert P.zero().evaluate(Fraction(3, 7), 5) == 0
    assert P.one_plus_t_power(3).evaluate(0, 1) == 8


def test_poly_canonical_form():
    assert P({(1, 1): Fraction(0)}) == P.zero()
    assert (var_q() - var_q()).terms() == []
    assert P({(0, 0): 2}) == 2


def test_integer_coefficients_stay_int():
    three, fraction_three = P({(0, 0): 3}), P({(0, 0): Fraction(3)})
    assert three == fraction_three
    assert hash(three) == hash(fraction_three)
    assert all(type(c) is int for _, c in (Z_K3 * Z_K3 + P.one_plus_t_power(5)).terms())
    assert all(type(c) is int for _, c in Z_K3.substitute(q=1).terms())


def test_float_coefficient_becomes_exact_fraction():
    p = P({(1, 0): 0.5, (0, 1): 2.0})
    assert p.coefficient(1, 0) == Fraction(1, 2)
    assert type(p.coefficient(1, 0)) is Fraction
    assert p.to_json_obj() == [[0, 1, "2"], [1, 0, "1/2"]]


def test_evaluate_returns_fraction():
    assert type(Z_K3.evaluate(1, 1)) is Fraction
    assert type(P.zero().evaluate(2, 3)) is Fraction
    assert Z_K3.evaluate(Fraction(1, 2), 2) == Fraction(1, 4) + 3 + 12 + 8


optional_rational = st.one_of(st.none(), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), optional_rational, optional_rational)
def test_substitute_matches_per_term_reference(p, q, t):
    reference = P.zero()
    for (dq, dt), c in p.terms():
        term = P.constant(c)
        term *= var_q() ** dq if q is None else P.constant(q**dq)
        term *= var_t() ** dt if t is None else P.constant(t**dt)
        reference += term
    assert p.substitute(q=q, t=t) == reference


def test_restrict_and_substitute():
    assert Z_K3.restrict_q_power(0) == P({(0, 2): 3, (0, 3): 1})
    assert Z_K3.substitute(q=1, t=1) == P.constant(8)
    assert Z_K3.substitute(q=1) == P({(0, 0): 1, (0, 1): 3, (0, 2): 3, (0, 3): 1})


def test_compose_t():
    # (2 + y) at y = 1 + t
    p = P({(0, 0): 2, (0, 1): 1})
    assert compose_t(p, P.one_plus_t_power(1)) == P({(0, 0): 3, (0, 1): 1})


# ----------------------------------------------------------------------
# Z -> Tutte conversion
# ----------------------------------------------------------------------


def test_tutte_from_z_k3():
    assert tutte_from_z(Z_K3, 3) == T_K3


def test_tutte_from_z_k2():
    assert tutte_from_z(Z_K2, 2) == P({(1, 0): 1})  # x


def test_tutte_round_trip():
    # t^2 T_{K_3}(1 + q/t, 1 + t) recovers the spanning-subgraph sum.
    assert z_from_tutte(T_K3, 2) == Z_K3


def test_tutte_from_z_rejects_invalid():
    # q alone is not the spanning-subgraph sum of a connected 3-node graph.
    with pytest.raises(ValueError):
        tutte_from_z(var_q(), 3)


def test_tutte_counts_connected_subgraphs():
    # T_{K_n}(1, 2) equals the number of connected graphs on n nodes.
    from cayleypoly.volumes import z_bruteforce

    for n in range(2, 7):
        tut = tutte_from_z(z_bruteforce(n), n)
        assert tut.evaluate(1, 2) == count_connected_graphs(n)
