"""Colons and regular cuts read off Hilbert numerators.

`dejonq.structural_checks` decides I : f = (x_1..x_n) and
`rees.colon_lemma_checks` decides P_i : F_i = (x_1..x_n) from Hilbert
numerators (and, for the colon lemmas, the containment x_k F_i in P_i).
Random valid maps pass every check, so each property also perturbs the
input where the criteria still apply, to make the checks fail:

- I : f: g gains x_{n+1}^d, leaving gcd(f, g) = 1 but g outside
  (x_1..x_n), so that I : f = (x_1..x_n, g) and only the numerator differs;
- the colon lemmas: the chain is rebuilt from P_0 with F_i replaced by
  x_1 F_i (that lies in P_i, so P_i : F_i is the unit ideal and only the
  numerator differs), or with x_1 and y_1 swapped in every link (the
  colons become (y_1, x_2..x_n), with the numerators of (x_1..x_n), so only
  the containment differs).

`groebner.colon` is the oracle for both.  The generation theorem's
minimality is read off the same link bases; a planted extra link whose form
lies in the link before it must be named, with the module greedy
`resolutions.minimal_generators` as the oracle.  Another property checks the
fact `rees._certified_section` rests on at k = 1: any cut of the last
variable of S by a linear form in the others keeps J's numerator.  The last
checks the certificate's clause (a), P in J, which pulls each generator back
through the shape of the map (`cremona.pullback`) instead of expanding
y -> F: the full substitution is the oracle, on P's generators, which lie
in J, and on a generator plus a random form of its bidegree, which mostly
does not.
"""

import random
from dataclasses import replace
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from jonq import dejonq, groebner as gb, rees  # noqa: E402
from jonq.cremona import ladder, pullback  # noqa: E402
from jonq.polycore import (  # noqa: E402
    Polynomial,
    RingSpec,
    _from_numerators,
    _nonzero,
    _product,
    substitute,
)
from jonq.resolutions import minimal_generators  # noqa: E402

FIELDS = st.sampled_from((None, 32003))


def support(ring, n):
    return [ring.variable(i) for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))), FIELDS,
       st.integers(0, 10 ** 6), st.booleans())
def test_support_colon_from_the_numerator_matches_the_oracle(point, modulus, seed, outside):
    n, d = point
    j = dejonq.random_map(n, d, random.Random(seed), modulus)
    if outside:
        j = replace(j, g=j.g + j.source.variable(n) ** d)
        hypothesis.assume(gb.is_regular(gb.buchberger([j.f]), j.g))
    oracle = gb.ideal_equal(gb.colon(list(j.base_forms), j.f), support(j.source, n))
    assert oracle == (not outside)
    assert dejonq.structural_checks(j).colon_contains_support == oracle


def rebuilt_chain(links, forms):
    out = [links[0]]
    for form in forms:
        out.append(out[-1] + (form,))
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((2, 3), (3, 3), (2, 4))), FIELDS, st.integers(0, 10 ** 6),
       st.sampled_from(("none", "multiple", "swap")), st.data())
def test_colon_lemmas_from_numerators_match_the_oracle(point, modulus, seed, change, data):
    n, d = point
    j = dejonq.random_map(n, d, random.Random(seed), modulus)
    links = rees.chain(j)
    ring = j.working_ring()
    forms = [link[-1] for link in links[1:]]
    if change == "multiple":
        i = data.draw(st.integers(1, d - 2))
        forms[i] = ring.variable("x1") * forms[i]
        links = rebuilt_chain(links, forms)
    elif change == "swap":
        x1, y1 = ring.variable("x1"), ring.variable(j.target.names[0])
        links = tuple(tuple(substitute(p, {"x1": y1, j.target.names[0]: x1}) for p in link)
                      for link in links)
    with mock.patch.object(rees, "chain", lambda m: links):
        report = rees.colon_lemma_checks(j)
    oracle = tuple(gb.ideal_equal(gb.colon(list(links[i]), links[i + 1][-1]), support(ring, n))
                   for i in range(1, d - 1))
    assert report.support_colons == oracle
    if change == "swap":
        assert not any(oracle)
    elif change == "multiple":
        assert not oracle[i - 1]
    else:
        assert all(oracle)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))), FIELDS,
       st.integers(0, 10 ** 6), st.sampled_from(("none", "multiple", "sum", "minors")),
       st.data())
def test_minimality_from_the_link_bases_matches_the_oracle(point, modulus, seed, change, data):
    # an extra link whose form lies in the link before it: x1 F_i or
    # F_0 + F_{d-2} at the end, or the sum of the minors as the first link
    # after P_0; the module greedy over the whole generator set is the oracle
    n, d = point
    hypothesis.assume(change != "sum" or d >= 3)
    j = dejonq.random_map(n, d, random.Random(seed), modulus)
    links = rees.chain(j)
    ring = j.working_ring()
    forms = [link[-1] for link in links[1:]]
    planted = None
    if change == "multiple":
        planted = ring.variable("x1") * forms[data.draw(st.integers(0, d - 2))]
        links = rebuilt_chain(links, forms + [planted])
    elif change == "sum":
        planted = forms[0] + forms[-1]
        links = rebuilt_chain(links, forms + [planted])
    elif change == "minors":
        planted = sum(links[0][1:], links[0][0])
        links = rebuilt_chain(links, [planted] + forms)
    with mock.patch.object(rees, "chain", lambda m: links):
        report = rees.verify_main_theorem(j)
    gens = links[-1]
    oracle = len(minimal_generators([(g,) for g in gens], ring, (0,))) == len(gens)
    assert report.minimal == oracle == (planted is None)
    assert report.witnesses == (() if planted is None else (
        f"redundant generator: {planted}", f"generator count {len(gens)} != {len(gens) - 1}"))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))), FIELDS,
       st.integers(0, 10 ** 6), st.data())
def test_one_cut_form_is_always_regular_on_the_rees_algebra(point, modulus, seed, data):
    # J is prime and holds no linear form, so any cut y_{n+1} -> l(x, y')
    # is regular on S/J: the section's numerator is J's, as
    # `rees._certified_section` needs at k = 1
    n, d = point
    j = dejonq.random_map(n, d, random.Random(seed), modulus)
    ideal = rees.rees_ideal(j)
    ring = ideal.ring
    keep = RingSpec(ring.names[:-1], ring.modulus)
    top = 1000 if modulus is None else modulus - 1
    coefficients = data.draw(st.lists(st.integers(0, top), min_size=keep.nvars,
                                      max_size=keep.nvars))
    cut = {ring.names[-1]: Polynomial(keep, zip([v.lm() for v in keep.variables()],
                                                coefficients))}
    section = gb.buchberger([substitute(p, cut) for p in ideal.basis], ring=keep)
    assert gb.hilbert_series_numerator(section) == gb.hilbert_series_numerator(ideal)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(((1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))),
       st.sampled_from((None, 32003, 7)), st.integers(0, 10 ** 6), st.data())
def test_pullback_membership_matches_the_full_substitution(point, modulus, seed, data):
    # p(x, x' f, g) = f^s P / den, so over the domain k[x] p lies in J, the
    # kernel of y -> F, exactly when the int dict P is 0 in the field
    n, d = point
    j = dejonq.random_map(n, d, random.Random(seed), modulus)
    gens = rees.chain(j)[-1]
    p = gens[data.draw(st.integers(0, len(gens) - 1))]
    member = data.draw(st.booleans())
    if not member:
        ring, (a, b) = p.ring, p.bidegree()
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        terms = []
        for _ in range(rng.randrange(1, 5)):
            mono = [0] * ring.nvars
            for lo, hi, k in ((0, n + 1, a), (n + 1, 2 * n + 2, b)):
                for _ in range(k):
                    mono[rng.randrange(lo, hi)] += 1
            terms.append((mono, rng.randrange(1, 1000)))
        p = p + Polynomial(ring, terms)
    power = ladder(j.f, j.g)
    s, pulled = pullback(p, power)
    image = substitute(p, dict(zip(j.target.names, j.base_forms)))
    assert image == _from_numerators(j.source, *_product(power(s, 0), pulled))
    zero = not _nonzero(pulled[0], j.source.modulus)
    assert zero == image.is_zero()
    if member:
        assert zero
