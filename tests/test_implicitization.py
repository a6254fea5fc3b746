"""Implicitization in one ring against the Rees-variable construction.

`rees.specialization_check` eliminates x from (y_i - F_i(x)) with no extra
variable.  The reference below is the blowup construction: eliminate
(t, x) from (y_i - t F_i(x)) and keep the t-free part.  For forms
F_i of one degree both give the same reduced basis of the kernel of
y -> F(x).
"""

from itertools import combinations_with_replacement

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from jonq import groebner  # noqa: E402
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
