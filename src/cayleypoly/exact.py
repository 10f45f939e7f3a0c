"""Exact rational arithmetic: bivariate polynomials and integer elimination.

Everything downstream (volumes, generating functions, vertex coordinates)
runs over arbitrary-precision rationals.  A polynomial in the two formal
variables q and t is a dict mapping exponent pairs (deg_q, deg_t) to
nonzero coefficients, ints or (when not integral) Fractions; the zero
polynomial is the empty dict.  Univariate polynomials (in t alone, or in a
renamed variable such as y) use the same type with deg_q == 0 throughout.

Linear algebra is in integers only: `clear_denominators` writes rationals
over one common denominator, and `bareiss_step` is the one fraction-free
elimination step.  The vertex oracle of `verify` runs it row by row
down its tree of row subsets; the tests' dense reference runs it column
by column.
`sparse_difference` writes a simplex's vertex steps as sparse rows for
`volumes.steps_volume_scaled`, which needs no elimination: a forest's
steps are triangular in vertex order.

No floating point is used anywhere in this package.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping

Monomial = tuple[int, int]
Coefficient = int | Fraction

_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def parse_integer(text: str) -> int:
    """Parse an integer as int() does, but in ASCII digits only: an
    optional sign and surrounding whitespace are allowed, and other
    scripts' digits and underscores, which int() takes, are a ValueError.
    """
    if not _INTEGER_RE.fullmatch(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational of the form "num" or "num/den", in ASCII
    digits.

    Decimal notation is rejected on purpose: all command-line and file
    inputs stay exact.  A zero denominator is a ValueError too.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not an exact rational: {text!r} (use e.g. '1/2')")
    if not int(text.partition("/")[2] or 1):
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(text)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "num/den", or "num" when the denominator is 1.

    An int or a Fraction is rendered by its own str(), which has exactly
    this form; other input (a bool, a string such as "3/6", a Fraction
    subclass) goes through Fraction first."""
    if type(value) is not int and type(value) is not Fraction:
        value = Fraction(value)
    return str(value)


class BivariatePolynomial:
    """Immutable polynomial in q and t with rational coefficients.

    Canonical form: no zero coefficients are stored, so two polynomials are
    equal exactly when their monomial dicts are equal.  The constructor sums
    repeated monomials and stores a non-int value as a Fraction, or as an
    int when integral; arithmetic does not renormalise, as 3 == Fraction(3)
    and both hash alike.
    """

    __slots__ = ("_terms",)

    def __init__(
        self, terms: Mapping[Monomial, Coefficient] | Iterable[tuple[Monomial, Coefficient]] = ()
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Coefficient] = {}
        for (dq, dt), coeff in items:
            if dq < 0 or dt < 0:
                raise ValueError(f"negative exponent in monomial ({dq}, {dt})")
            if type(coeff) is not int:
                coeff = Fraction(coeff)
                if coeff.denominator == 1:
                    coeff = coeff.numerator
            if coeff:
                key = (int(dq), int(dt))
                acc = clean.get(key, 0) + coeff
                if acc:
                    clean[key] = acc
                else:
                    del clean[key]
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariatePolynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "BivariatePolynomial":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, deg_q: int, deg_t: int, coeff=1) -> "BivariatePolynomial":
        return cls({(deg_q, deg_t): coeff})

    @classmethod
    def one_plus_t_power(cls, k: int) -> "BivariatePolynomial":
        """(1 + t)**k expanded by the binomial theorem."""
        if k < 0:
            raise ValueError("negative power")
        return cls({(0, i): math.comb(k, i) for i in range(k + 1)})

    # -- inspection ---------------------------------------------------

    def terms(self) -> list[tuple[Monomial, Coefficient]]:
        """Monomials sorted lexicographically by (deg_q, deg_t)."""
        return sorted(self._terms.items())

    def coefficient(self, deg_q: int, deg_t: int) -> Coefficient:
        return self._terms.get((deg_q, deg_t), 0)

    def restrict_q_power(self, deg_q: int) -> "BivariatePolynomial":
        """The coefficient of q**deg_q, as a polynomial in t."""
        return BivariatePolynomial(
            {(0, dt): c for (dq, dt), c in self._terms.items() if dq == deg_q}
        )

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "BivariatePolynomial":
        other = _coerce(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        result = BivariatePolynomial.zero()
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "BivariatePolynomial":
        result = BivariatePolynomial.zero()
        result._terms = {key: -coeff for key, coeff in self._terms.items()}
        return result

    def __sub__(self, other) -> "BivariatePolynomial":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "BivariatePolynomial":
        other = _coerce(other)
        out: dict[Monomial, Coefficient] = {}
        for (aq, at), ca in self._terms.items():
            for (bq, bt), cb in other._terms.items():
                key = (aq + bq, at + bt)
                acc = out.get(key, 0) + ca * cb
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        result = BivariatePolynomial.zero()
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BivariatePolynomial":
        if exponent < 0:
            raise ValueError("negative power")
        result = BivariatePolynomial.constant(1)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BivariatePolynomial.constant(other)
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, q, t) -> Fraction:
        """Exact evaluation at rational q and t."""
        q = Fraction(q)
        t = Fraction(t)
        total = Fraction(0)
        for (dq, dt), coeff in self._terms.items():
            total += coeff * q**dq * t**dt
        return total

    def substitute(self, q=None, t=None) -> "BivariatePolynomial":
        """Substitute rational values for q and/or t; None keeps the variable."""
        if q is None and t is None:
            return self
        # A kept variable keeps its exponent and contributes the factor 1.
        q_value = 1 if q is None else Fraction(q)
        t_value = 1 if t is None else Fraction(t)
        return BivariatePolynomial(
            ((dq if q is None else 0, dt if t is None else 0), c * q_value**dq * t_value**dt)
            for (dq, dt), c in self._terms.items()
        )

    # -- serialization --------------------------------------------------

    def to_json_obj(self) -> list:
        """[[deg_q, deg_t, "num/den"], ...] sorted lexicographically."""
        return [[dq, dt, format_rational(c)] for (dq, dt), c in self.terms()]

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (dq, dt), coeff in self.terms():
            factors = []
            if coeff != 1 or (dq == 0 and dt == 0):
                factors.append(format_rational(coeff))
            if dq:
                factors.append("q" if dq == 1 else f"q^{dq}")
            if dt:
                factors.append("t" if dt == 1 else f"t^{dt}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _coerce(value) -> BivariatePolynomial:
    if isinstance(value, BivariatePolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return BivariatePolynomial.constant(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to polynomial")


# ----------------------------------------------------------------------
# Exact linear algebra
# ----------------------------------------------------------------------


def clear_denominators(values) -> tuple[list[int], int]:
    """Integers n_i and the least common denominator s with values[i] = n_i / s."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def bareiss_step(rows: list[list[int]], top: list[int], col: int, previous: int) -> list[list[int]]:
    """One fraction-free elimination step of each row against the pivot
    row top, whose pivot is top[col], over the previous pivot.

    A row becomes (pivot * row - row[col] * top) // previous, a division
    that is exact (Bareiss, Math. Comp. 22 (1968)); a row whose entry is
    already zero is only rescaled, and kept as it is when the pivot did
    not change.  After k steps, against the pivot rows of k rows in turn,
    a row's entry in column j is the minor of those k rows and the row, as
    first given, on the k pivot columns and column j.  Returns the new
    rows; no list is mutated."""
    pivot = top[col]
    stepped = []
    for row in rows:
        factor = row[col]
        if factor:
            row = [(pivot * a - factor * b) // previous for a, b in zip(row, top)]
        elif pivot != previous:
            row = [pivot * a // previous for a in row]
        stepped.append(row)
    return stepped


def sparse_difference(v, u) -> tuple[tuple[int, int], ...]:
    """v - u as a sparse row ((i, v_i - u_i), ...), nonzero entries only."""
    return tuple([(i, x - y) for i, (x, y) in enumerate(zip(v, u)) if x != y])
