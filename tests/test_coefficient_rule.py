"""The coefficient rule over Q: a coefficient is an int exactly when it is
integral, and a Fraction with denominator > 1 otherwise.

Every public operation must keep the rule, and must compute what the same
operation computes on Fraction-only inputs, whose integral coefficients
are Fraction(k, 1): the same polynomial, with the same str and hash, and
a str that parses back to it.  The Fraction-only inputs are built past the
constructor (`Polynomial._from_dict`), which would turn their integral
coefficients into ints.
"""

from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from jonq import groebner  # noqa: E402
from jonq.polycore import (  # noqa: E402
    Polynomial,
    RingSpec,
    dot,
    format_polynomial,
    parse_polynomial,
    substitution,
    transport,
)

Q = RingSpec(["x1", "x2", "x3"])
WIDER = RingSpec(["x0", "x1", "x2", "x3", "x4"])

# about half of these are integral, as Fraction(k, 1) or as k*d / d
COEFFS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 4, 6)))


def term_lists(degree):
    """Lists of (monomial, Fraction) terms of one degree in Q, with repeated
    monomials and zero coefficients, which the constructor merges and drops."""
    monos = [m for m in product(range(degree + 1), repeat=3) if sum(m) == degree]
    return st.lists(st.tuples(st.sampled_from(monos), COEFFS), max_size=4)


def fraction_only(terms) -> Polynomial:
    """The polynomial of `terms`, merged in Fractions and kept as Fractions."""
    merged: dict = {}
    for m, c in terms:
        merged[m] = merged.get(m, Fraction(0)) + c
    return Polynomial._from_dict(Q, {m: c for m, c in merged.items() if c})


def ruled(p: Polynomial) -> bool:
    return all(type(c) is int if c.denominator == 1 else type(c) is Fraction
               for _, c in p.terms)


def check(result: Polynomial, reference: Polynomial):
    assert ruled(result), result.terms
    assert result == reference and hash(result) == hash(reference)
    assert str(result) == str(reference)
    back = parse_polynomial(str(result), result.ring)
    assert back == result and ruled(back)


@settings(max_examples=80, deadline=None)
@given(term_lists(2), term_lists(2), term_lists(1), COEFFS)
def test_every_operation_keeps_the_rule_and_the_fraction_only_values(ta, tb, tc, scalar):
    a, b, c = (Polynomial(Q, t) for t in (ta, tb, tc))
    fa, fb, fc = (fraction_only(t) for t in (ta, tb, tc))
    for p, fp in ((a, fa), (b, fb), (c, fc)):
        check(p, fp)
        check(transport(p, WIDER), transport(fp, WIDER))
    check(a + b, fa + fb)
    check(a - c * c, fa - fc * fc)
    check(a * b, fa * fb)
    check(a * scalar, fa * scalar)
    check(a * int(scalar), fa * Fraction(int(scalar)))
    check(a.monic(), fa.monic())
    check(dot(Q, [a, b, c], [c, a, b]), dot(Q, [fa, fb, fc], [fc, fa, fb]))
    image_of = substitution(Q, {"x1": b, "x3": c})
    check(image_of(a), substitution(Q, {"x1": fb, "x3": fc})(fa))
    basis = groebner.buchberger([a, b, c], ring=Q)
    reference = groebner.buchberger([fa, fb, fc], ring=Q)
    assert len(basis.basis) == len(reference.basis)
    for g, fg in zip(basis.basis, reference.basis):
        check(g, fg)
    check(basis.reduce(a * c + b), reference.reduce(fa * fc + fb))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([(1, 0, 0), (0, 2, 1), (0, 0, 0)]),
                          st.integers(-12, 12), st.integers(1, 6)), min_size=1, max_size=4))
def test_parsed_coefficients_keep_the_rule(spelled):
    # "6/3*x1" is the int 2, "-4/6*x2^2*x3" the Fraction -2/3
    names = Q.names
    text = " + ".join(
        f"{num}/{den}" + "".join(f"*{names[i]}^{e}" for i, e in enumerate(m) if e)
        for m, num, den in spelled)
    check(parse_polynomial(text, Q),
          fraction_only([(m, Fraction(num, den)) for m, num, den in spelled]))


def test_coefficients_are_made_by_the_rule():
    assert type(Q.coeff(Fraction(6, 3))) is int and Q.coeff(Fraction(6, 3)) == 2
    assert type(Q.coeff(True)) is int
    assert Q.coeff(Fraction(2, 4)) == Fraction(1, 2)
    # cinv stays exact: 1 / 3 would be a float
    assert Q.cinv(3) == Fraction(1, 3) and isinstance(Q.cinv(3), Fraction)
    assert Q.cinv(Fraction(1, 5)) == 5 and type(Q.cinv(Fraction(-1, 5))) is int
    half = Polynomial(Q, [((1, 0, 0), Fraction(1, 2)), ((1, 0, 0), Fraction(1, 2))])
    assert half.terms == (((1, 0, 0), 1),) and type(half.lc()) is int


def test_a_negative_int_prints_with_its_sign():
    p = Polynomial(Q, [((1, 0, 0), 1), ((0, 1, 0), -5), ((0, 0, 1), Fraction(-2, 3))])
    assert format_polynomial(p) == "x1 - 5*x2 - 2/3*x3"
    assert format_polynomial(-p) == "-x1 + 5*x2 + 2/3*x3"
