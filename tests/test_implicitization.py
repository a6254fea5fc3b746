"""Implicitization: the closed-form implicit equation against elimination.

`rees.specialization_check` cuts a map F = (x_1 f : .. : x_n f : g) by
x_{n+1} = lam, takes lam exactly when f_H = f(x, lam) and g_H = g(x, lam)
are coprime, and then reads the implicit equation of
F_H = F(x, lam) as h = f_H(y') y_{n+1} - g_H(y').  Elimination is the
oracle: the kernel's reduced basis (`oracles.kernel`) must be (monic h),
and it must have more than one form in degree d when the cut is rejected;
`groebner.is_regular` on R/I is the oracle of which cuts are taken.  The
one-ring elimination is itself checked against the blowup construction,
which eliminates (t, x) from (y_i - t F_i(x)) and keeps the t-free part;
for forms F_i of one degree both give the same reduced basis of the kernel
of y -> F(x).
"""

import random
from itertools import combinations_with_replacement, product
from math import comb

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

import oracles  # noqa: E402
from conftest import make_map  # noqa: E402
from jonq import dejonq, groebner, rees  # noqa: E402
from jonq.polycore import Polynomial, RingSpec, substitute, transport  # noqa: E402


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


def cut_images(j, lam):
    """{y_i: F_i(x, lam)}, the specialized map in k[x_1..x_n]."""
    cut = RingSpec(j.source.names[:j.n], j.source.modulus)
    on_cut = {j.source.names[j.n]: transport(lam, cut)}
    return {y: substitute(form, on_cut) for y, form in zip(j.target.names, j.base_forms)}


def kernel_of(j, lam):
    """Reduced basis of the kernel of y -> F(x, lam), by `oracles.kernel`."""
    return groebner.buchberger(oracles.kernel(j.target, cut_images(j, lam)))


def ell_on_inverse(j, lam):
    """ell = x_{n+1} - lam on the inverse coordinates, a form in k[y]."""
    inv, _ = dejonq.inverse(j)
    ell = j.source.variable(j.n) - lam
    return substitute(ell, dict(zip(j.source.names, inv.base_forms)))


def is_regular_cut(base, j, lam):
    """ell = x_{n+1} - lam is a nonzerodivisor on R/I, `base` the reduced
    basis of the base ideal I."""
    return groebner.is_regular(base, j.source.variable(j.n) - lam)


@st.composite
def maps_and_cuts(draw):
    """(map, lam, seed): a random map at (n, d) up to (3, 4) over Q or
    GF(32003), with lam None (random candidates drawn from the seed) or a
    0/1 combination of x_1..x_n, which often leaves f_H and g_H a common
    factor."""
    modulus = draw(st.sampled_from((None, 32003)))
    n, d = draw(st.sampled_from(((1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))))
    seed = draw(st.integers(0, 2**32))
    j = dejonq.random_map(n, d, random.Random(seed), modulus)
    coeffs = draw(st.none() | st.lists(st.integers(0, 1), min_size=n, max_size=n))
    lam = None if coeffs is None else sum(
        (c * x for c, x in zip(coeffs, j.source.variables()[:n])), j.source.zero())
    return j, lam, seed


@settings(max_examples=40, deadline=None)
@given(maps_and_cuts())
def test_regular_cut_is_a_nonzerodivisor_on_the_base_ring(case):
    # the coprimality of f_H and g_H that takes a cut agrees with ell being
    # regular on R/I, for the cut taken and for every cut rejected
    j, lam, seed = case
    report = rees.specialization_check(j, lam=lam, rng=random.Random(seed))
    base = groebner.buchberger(list(j.base_forms))
    for cand in report.rejected:
        assert not is_regular_cut(base, j, cand)
    if report.regular:
        assert is_regular_cut(base, j, report.lam)
    assert report.ok == report.regular


@settings(max_examples=25, deadline=None)
@given(maps_and_cuts())
def test_kernel_in_degree_matches_elimination(case):
    # when the check passes, the kernel of y -> F(x, lam) is the one form
    # ell on the inverse, made monic, and the scalar is its lead coefficient
    j, lam, seed = case
    report = rees.specialization_check(j, lam=lam, rng=random.Random(seed))
    if report.ok:
        equation = ell_on_inverse(j, report.lam)
        assert kernel_of(j, report.lam).basis == (equation.monic(),)
        assert report.scalar == equation.lc()


@pytest.mark.parametrize("n, d, k", [(n, d, k) for n, d in ((2, 2), (2, 3), (3, 2))
                                     for k in range(2)])
def test_every_cut_over_gf7(n, d, k):
    # all 7^n cuts: the check takes exactly the cuts regular on R/I, passes
    # on each, and every rejected cut has a common factor of f_H and g_H,
    # so the degree-d kernel holds more than one form
    j = dejonq.random_map(n, d, random.Random(k), 7)
    base = groebner.buchberger(list(j.base_forms))
    units = [x.lm() for x in j.source.variables()[:n]]
    rejected = 0
    for coeffs in product(range(7), repeat=n):
        lam = Polynomial(j.source, list(zip(units, coeffs)))
        report = rees.specialization_check(j, lam=lam)
        assert report.regular == is_regular_cut(base, j, lam), coeffs
        assert report.ok == report.regular, coeffs
        if not report.regular:
            rejected += 1
            assert kernel_dimension(kernel_of(j, lam), j.d) > 1, coeffs
    assert rejected


@pytest.mark.parametrize("modulus", [None, 32003])
def test_implicit_equation_needs_a_one_form_null_space(modulus):
    # e1 cut by lam = x1 gives f_H = x1, g_H = x1 (x1 - x2), and e3 cut by
    # lam = x2 gives f_H = x2 (x1 + x2), g_H = x2 (x1^2 + x2^2): a common
    # factor leaves a degree-d kernel of more than one form, and the cut is
    # rejected; the coprime cut lam = x2 of e1 has a one-form kernel
    e1 = make_map(2, "x3", "x1^2 - x2*x3", modulus)
    e3 = make_map(2, "x1*x3 + x2^2", "x1^2*x3 + x2^3", modulus)
    for j, lam in ((e1, "x1"), (e3, "x2")):
        lam = j.source.variable(lam)
        report = rees.specialization_check(j, lam=lam)
        assert not report.regular and not report.ok and report.scalar is None
        assert kernel_dimension(kernel_of(j, lam), j.d) > 1
    lam = e1.source.variable("x2")
    assert kernel_dimension(kernel_of(e1, lam), 2) == 1
    assert rees.specialization_check(e1, lam=lam).ok


@pytest.mark.parametrize("modulus", [None, 32003])
def test_implicit_equation_rejects_a_candidate_off_the_kernel(modulus, monkeypatch):
    # with another map's inverse, ell on the inverse coordinates is a form
    # of degree d off the kernel of y -> F(x, lam): the cut is still
    # regular, but no equation is read off
    e1 = make_map(2, "x3", "x1^2 - x2*x3", modulus)
    other = make_map(2, "x3", "x1^2 + x1*x2 - x2*x3", modulus)
    lam = e1.source.variable("x2")
    off = ell_on_inverse(other, lam)
    assert off.total_degree() == e1.d and not kernel_of(e1, lam).contains(off)
    monkeypatch.setattr(rees, "inverse", lambda j: dejonq.inverse(other))
    report = rees.specialization_check(e1, lam=lam)
    assert report.regular
    assert not report.degree_ok and report.scalar is None and not report.ok
