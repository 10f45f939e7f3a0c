"""Polynomial helpers the tests share and the package does not need."""

from cayleypoly import BivariatePolynomial


def compose_t(p: BivariatePolynomial, replacement: BivariatePolynomial) -> BivariatePolynomial:
    """p with the polynomial replacement substituted for t (q left
    untouched): the sum of c q^a replacement^b over the terms c q^a t^b."""
    out = BivariatePolynomial.zero()
    for (dq, dt), coeff in p.terms():
        out += BivariatePolynomial.monomial(dq, 0, coeff) * replacement**dt
    return out
