"""Implicitization: the degree-d kernel against elimination.

`rees.specialization_check` finds the implicit equation of a specialized
map by linear algebra: `rees._kernel_in_degree` spans the degree-d forms in
the kernel of y -> F(x) by Gaussian elimination on the products F^alpha,
|alpha| = d.  Elimination stays the oracle: the kernel computed by
eliminating x from (y_i - F_i(x)) in one ring must contain those forms, its
Hilbert series must give their number, and a one-form basis of degree d
must be exactly the helper's form.  That one-ring elimination is itself
checked against the blowup construction, which eliminates (t, x) from
(y_i - t F_i(x)) and keeps the t-free part; for forms F_i of one degree both
give the same reduced basis of the kernel of y -> F(x).
"""

from itertools import combinations_with_replacement
from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from jonq import groebner, rees  # noqa: E402
from jonq.polycore import Polynomial, RingSpec, transport  # noqa: E402


def monomials(nvars, degree):
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        mono = [0] * nvars
        for i in combo:
            mono[i] += 1
        out.append(tuple(mono))
    return out


def with_rees_variable(forms, target):
    src = forms[0].ring
    big = RingSpec(("t",) + src.names + target.names, src.modulus)
    t = big.variable("t")
    gens = [big.variable(y) - t * transport(f, big) for y, f in zip(target.names, forms)]
    return [transport(p, target) for p in groebner.eliminate(gens, 1 + src.nvars)]


def in_one_ring(forms, target):
    src = forms[0].ring
    work = RingSpec(src.names + target.names, src.modulus)
    gens = [work.variable(y) - transport(f, work) for y, f in zip(target.names, forms)]
    return [transport(p, target) for p in groebner.eliminate(gens, src.nvars)]


@st.composite
def equal_degree_forms(draw):
    """k + 1 nonzero forms of one degree in k = 2 or 3 variables, over Q or GF(32003)."""
    modulus = draw(st.sampled_from((None, 32003)))
    k = draw(st.integers(2, 3))
    degree = draw(st.integers(1, 3 if k == 2 else 2))
    coeffs = (st.integers(-5, 5) if modulus is None
              else st.integers(0, modulus - 1))
    ring = RingSpec([f"x{i}" for i in range(1, k + 1)], modulus)
    monos = monomials(k, degree)
    forms = []
    for _ in range(k + 1):
        terms = draw(st.lists(st.tuples(st.sampled_from(monos), coeffs),
                              min_size=1, max_size=3))
        form = Polynomial(ring, terms)
        hypothesis.assume(form)
        forms.append(form)
    return forms


@settings(max_examples=40, deadline=None)
@given(equal_degree_forms())
def test_one_ring_elimination_equals_rees_variable_elimination(forms):
    target = RingSpec([f"y{i}" for i in range(1, len(forms) + 1)], forms[0].ring.modulus)
    assert in_one_ring(forms, target) == with_rees_variable(forms, target)


@settings(max_examples=40, deadline=None)
@given(equal_degree_forms())
def test_kernel_in_degree_matches_elimination(forms):
    target = RingSpec([f"y{i}" for i in range(1, len(forms) + 1)], forms[0].ring.modulus)
    basis = in_one_ring(forms, target)
    kernel = groebner.buchberger(basis)
    numerator = groebner.hilbert_series_numerator(kernel)
    k = target.nvars - 1
    for d in (1, 2, 3):
        found = rees._kernel_in_degree(forms, target, d)
        assert all(f.total_degree() == d and kernel.contains(f) for f in found)
        # HS(k[y]/K) = N(t) / (1-t)^(k+1) gives dim of the degree-d part of k[y]/K
        quotient = sum(c * comb(d - i + k, k) for i, c in numerator.items() if i <= d)
        assert len(found) == comb(d + k, k) - quotient
        if len(basis) == 1 and basis[0].total_degree() == d:
            assert found == basis
