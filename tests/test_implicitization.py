"""Implicitization: the degree-d kernel against elimination.

`rees.specialization_check` finds the implicit equation of a specialized
map in one degree d: `rees._implicit_equation` returns the monic candidate
exactly when the candidate spans K_d, the degree-d forms in the kernel of
y -> F(x), and None otherwise.  Point evaluations decide when they can;
otherwise the products F^alpha, |alpha| = d, decide, by sending the
candidate to zero and by their rank, their minimal generator count in the
Groebner engine.  Elimination is the oracle of both paths: the kernel's
reduced basis (`groebner.kernel`) decides membership, and its Hilbert series
gives dim K_d.  The one-ring elimination is itself checked against the
blowup construction, which eliminates (t, x) from (y_i - t F_i(x)) and keeps
the t-free part; for forms F_i of one degree both give the same reduced
basis of the kernel of y -> F(x).
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


def kernel_dimension(kernel, d):
    """dim K_d, K given by its reduced basis: HS(k[y]/K) = N(t) / (1-t)^(k+1)
    with k + 1 the number of y gives the dimension of the degree-d part of
    k[y]/K, and K_d is the rest of the C(d+k, k) forms of degree d."""
    k = kernel.ring.nvars - 1
    numerator = groebner.hilbert_series_numerator(kernel)
    return comb(d + k, k) - sum(c * comb(d - i + k, k) for i, c in numerator.items() if i <= d)


def kernel_of(forms, target):
    """Reduced basis of the kernel of y -> forms, by `groebner.kernel`."""
    return groebner.buchberger(groebner.kernel(target, dict(zip(target.names, forms))))


def decided(forms, d, candidate):
    """`_implicit_equation` from the points and from the products, the
    latter forced by points that never decide."""
    by_points = rees._implicit_equation(forms, d, candidate)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rees, "_spans_kernel", lambda forms, d, candidate: False)
        by_products = rees._implicit_equation(forms, d, candidate)
    return by_points, by_products


@settings(max_examples=40, deadline=None)
@given(equal_degree_forms())
def test_kernel_in_degree_matches_elimination(forms):
    # the products' rank, which the fallback reads, is N - dim K_d by the
    # Hilbert series of the eliminated kernel, and a one-form basis of
    # degree d is the equation that either path finds
    target = RingSpec([f"y{i}" for i in range(1, len(forms) + 1)], forms[0].ring.modulus)
    basis = in_one_ring(forms, target)
    kernel = groebner.buchberger(basis)
    for d in (1, 2, 3):
        products = rees._products(forms, d, forms[0].ring.one())
        assert len(products) == comb(d + target.nvars - 1, d)
        rank = rees.minimal_generator_count(products.values())
        assert rank == len(products) - kernel_dimension(kernel, d)
        if len(basis) == 1 and basis[0].total_degree() == d:
            assert decided(forms, d, basis[0] * 3) == (basis[0], basis[0])


@settings(max_examples=30, deadline=None)
@given(equal_degree_forms())
def test_implicit_equation_matches_the_products_for_any_candidate(forms):
    # a kernel form as candidate is taken only when it spans the degree-d
    # kernel, and a form off the kernel is never taken, by either path
    target = RingSpec([f"y{i}" for i in range(1, len(forms) + 1)], forms[0].ring.modulus)
    kernel = kernel_of(forms, target)
    for d in (1, 2, 3):
        one_form = kernel_dimension(kernel, d) == 1
        off = target.variable(0) ** d
        multiples = [g * target.variable(0) ** (d - g.total_degree()) * 3
                     for g in kernel.basis if g.total_degree() <= d]
        candidates = [target.zero(), off] + multiples + [c + off for c in multiples]
        for candidate in candidates:
            taken = candidate and one_form and kernel.contains(candidate)
            expected = candidate.monic() if taken else None
            assert decided(forms, d, candidate) == (expected, expected)


@pytest.mark.parametrize("modulus", [None, 32003])
def test_implicit_equation_needs_a_one_form_null_space(modulus):
    # F_3 = F_1 + F_2: K_2 = (y3 - y1 - y2) times the linear forms, so a
    # form of K_2 vanishes at every point while the rows stay of rank N - 3
    ring = RingSpec(["x1", "x2"], modulus)
    target = RingSpec(["y1", "y2", "y3"], modulus)
    forms = [parse_polynomial(t, ring) for t in ("x1*x2", "x2^2", "x1*x2 + x2^2")]
    candidate = parse_polynomial("y1*y3 - y1^2 - y1*y2", target)  # (y3 - y1 - y2) y1
    kernel = kernel_of(forms, target)
    assert kernel.contains(candidate)
    assert kernel_dimension(kernel, 2) == 3
    assert decided(forms, 2, candidate) == (None, None)


@pytest.mark.parametrize("modulus", [None, 32003])
def test_implicit_equation_rejects_a_candidate_off_the_kernel(modulus):
    # the conic (x1^2 : x1 x2 : x2^2): K_2 = (y1 y3 - y2^2), one form
    ring = RingSpec(["x1", "x2"], modulus)
    target = RingSpec(["y1", "y2", "y3"], modulus)
    forms = [parse_polynomial(t, ring) for t in ("x1^2", "x1*x2", "x2^2")]
    conic = parse_polynomial("y2^2 - y1*y3", target)
    assert kernel_of(forms, target).basis == (conic,)
    assert decided(forms, 2, conic * 5) == (conic, conic)
    assert decided(forms, 2, conic + parse_polynomial("y1^2", target)) == (None, None)


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
        mp.setattr(rees, "_spans_kernel", lambda forms, d, candidate: False)
        by_products = rees.specialization_check(j, rng=random.Random(seed))
    assert by_points == by_products
