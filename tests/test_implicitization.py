"""Implicitization: the degree-d kernel against elimination.

`rees.specialization_check` finds the implicit equation of a specialized
map by linear algebra: `rees._implicit_equation` takes the degree-d kernel
from point evaluations when the certified candidate spans their null space,
and otherwise from `rees._kernel_in_degree`, which spans the degree-d forms
in the kernel of y -> F(x) by Gaussian elimination on the products F^alpha,
|alpha| = d.  The products are the points' oracle, and elimination stays the
products' oracle: the kernel computed by eliminating x from (y_i - F_i(x))
in one ring must contain those forms, its Hilbert series must give their
number, and a one-form basis of degree d must be exactly the helper's form.
That one-ring elimination is itself checked against the blowup construction,
which eliminates (t, x) from (y_i - t F_i(x)) and keeps the t-free part; for
forms F_i of one degree both give the same reduced basis of the kernel of
y -> F(x).
"""

import random
from itertools import combinations_with_replacement
from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from jonq import dejonq, groebner, rees  # noqa: E402
from jonq.polycore import Polynomial, RingSpec, parse_polynomial, transport  # noqa: E402


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


@settings(max_examples=30, deadline=None)
@given(equal_degree_forms())
def test_implicit_equation_matches_the_products_for_any_candidate(forms):
    # a kernel form as candidate is taken only when it spans the degree-d
    # kernel, and a form off the kernel is never taken
    target = RingSpec([f"y{i}" for i in range(1, len(forms) + 1)], forms[0].ring.modulus)
    for d in (1, 2, 3):
        expected = rees._kernel_in_degree(forms, target, d)
        off = target.variable(0) ** d
        candidates = [target.zero(), off] + [c * 3 for c in expected] + [c + off for c in expected]
        for candidate in candidates:
            assert rees._implicit_equation(forms, target, d, candidate) == expected


@pytest.mark.parametrize("modulus", [None, 32003])
def test_implicit_equation_needs_a_one_form_null_space(modulus):
    # F_3 = F_1 + F_2: K_2 = (y3 - y1 - y2) times the linear forms, so a
    # form of K_2 vanishes at every point while the rows stay of rank N - 3
    ring = RingSpec(["x1", "x2"], modulus)
    target = RingSpec(["y1", "y2", "y3"], modulus)
    forms = [parse_polynomial(t, ring) for t in ("x1*x2", "x2^2", "x1*x2 + x2^2")]
    candidate = parse_polynomial("y1*y3 - y1^2 - y1*y2", target)  # (y3 - y1 - y2) y1
    found = rees._implicit_equation(forms, target, 2, candidate)
    assert found == rees._kernel_in_degree(forms, target, 2)
    assert len(found) == 3


@pytest.mark.parametrize("modulus", [None, 32003])
def test_implicit_equation_rejects_a_candidate_off_the_kernel(modulus):
    # the conic (x1^2 : x1 x2 : x2^2): K_2 = (y1 y3 - y2^2), one form
    ring = RingSpec(["x1", "x2"], modulus)
    target = RingSpec(["y1", "y2", "y3"], modulus)
    forms = [parse_polynomial(t, ring) for t in ("x1^2", "x1*x2", "x2^2")]
    conic = parse_polynomial("y2^2 - y1*y3", target)
    for candidate in (conic * 5, conic + parse_polynomial("y1^2", target)):
        assert rees._implicit_equation(forms, target, 2, candidate) == [conic]


@st.composite
def small_maps(draw):
    """(map, seed): a random map at (n, d) up to (3, 4), over Q or GF(32003)."""
    modulus = draw(st.sampled_from((None, 32003)))
    n, d = draw(st.sampled_from(((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))))
    seed = draw(st.integers(0, 2**32))
    return dejonq.random_map(n, d, random.Random(seed), modulus), seed


@settings(max_examples=20, deadline=None)
@given(small_maps())
def test_points_and_products_give_one_specialization_report(case):
    j, seed = case
    by_points = rees.specialization_check(j, rng=random.Random(seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rees, "_implicit_equation",
                   lambda forms, target, d, candidate: rees._kernel_in_degree(forms, target, d))
        by_products = rees.specialization_check(j, rng=random.Random(seed))
    assert by_points == by_products
