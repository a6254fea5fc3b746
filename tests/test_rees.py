"""Blowup presentation ideal: generation theorem, colon lemmas, cone data."""

import functools
import hashlib
import json
import random
from math import comb

import pytest

import oracles
from conftest import make_map
from jonq import dejonq, groebner as gb, rees, resolutions
from jonq.polycore import JonqError, RingSpec, parse_polynomial, substitute, transport


def P(text, ring):
    return parse_polynomial(text, ring)


# ---------- the eliminated ideal ----------

def test_rees_ideal_e1_equals_predicted_pair(e1):
    ideal = rees.rees_ideal(e1)
    W = ideal.ring
    p12 = P("x2*y1 - x1*y2", W)
    f0 = P("x3*y3 + x3*y2 - x1*y1", W)
    assert gb.ideal_equal(ideal, [p12, f0])


def test_rees_ideal_saturation_stable(e1, e3):
    # the presentation ideal is prime, so saturating by the source variables
    # changes nothing
    for j in (e1, e3):
        ideal = rees.rees_ideal(j)
        W = ideal.ring
        xs = [W.variable(nm) for nm in j.source.names]
        sat = gb.saturate(list(ideal.basis), xs)
        assert gb.ideal_equal(sat, ideal)


def minimal_generator_count(ideal):
    return len(resolutions.minimal_generators([(g,) for g in ideal.basis], ideal.ring, (0,)))


def test_minimal_generator_counts(e1, e2, e3):
    for j, count in ((e1, 2), (e2, 4), (e3, 3)):
        ideal = rees.rees_ideal(j)
        assert minimal_generator_count(ideal) == count


def test_downgraded_forms_in_ideal(e1, e2, e3):
    for j in (e1, e2, e3):
        ideal = rees.rees_ideal(j)
        for form in dejonq.downgraded_sequence(j).forms:
            assert ideal.contains(form)


def test_normal_form_of_f0_is_zero(e1):
    ideal = rees.rees_ideal(e1)
    seq = dejonq.downgraded_sequence(e1)
    assert gb.normal_form(seq.forms[0], ideal).is_zero()


# ---------- the certificate P_{d-1} = J ----------

def _spy_eliminate(monkeypatch):
    """Record the ring of every groebner.eliminate call."""
    calls = []
    eliminate = gb.eliminate

    def spy(gens, nblock):
        calls.append(gens[0].ring)
        return eliminate(gens, nblock)
    monkeypatch.setattr(gb, "eliminate", spy)
    return calls


@pytest.mark.parametrize("modulus", [None, 32003, 7])
def test_certified_rees_ideal_is_the_eliminated_ideal(modulus, monkeypatch):
    # oracle: the t-elimination (oracles.eliminated); the library runs none
    rng = random.Random(17)
    maps = [dejonq.random_map(n, d, rng, modulus)
            for n, d in ((1, 2), (2, 3), (2, 5), (3, 4), (4, 2), (4, 4))]
    calls = _spy_eliminate(monkeypatch)
    for j in maps:
        certified = rees.rees_ideal(j)
        assert calls == [], (j.n, j.d)
        assert certified == oracles.eliminated(j), (j.n, j.d)
        calls.clear()


def test_zero_divisor_f_on_p1_without_f1(e3):
    # e3 has d = 3: without F_1, P_1 : f contains F_1, so f is a zero divisor
    links = rees.chain(e3)
    p1 = gb.buchberger(links[1])
    f = transport(e3.f, p1.ring)
    assert not gb.is_regular(p1, f)
    assert not gb.ideal_equal(gb.colon(list(p1.basis), f), p1)
    assert gb.is_regular(gb.buchberger(links[2]), f)


def _rejects(j, predicted, clause, monkeypatch):
    """rees_ideal with P replaced by `predicted` raises NotCertified naming
    `clause`, and the oracle agrees that P is not J."""
    monkeypatch.setattr(rees, "chain", lambda j: (tuple(predicted),))
    with pytest.raises(rees.NotCertified) as raised:
        rees.rees_ideal(j)
    assert str(raised.value) == clause
    assert gb.buchberger(predicted) != oracles.eliminated(j)


def test_rees_ideal_rejects_without_the_last_link(e3, monkeypatch):
    # P_1 lies in J and holds a y_3 - g y_1, but x_1 F_1 lies in P_1 and F_1
    # does not, so x_1 is already a zero divisor, as f is
    p1 = gb.buchberger(rees.chain(e3)[1])
    assert not gb.is_regular(p1, transport(e3.f, p1.ring))
    _rejects(e3, p1.gens, "x_1 is a zero divisor on S/P", monkeypatch)


def test_rees_ideal_rejects_without_f0(e1, e3, monkeypatch):
    # P_0, the minors, is a prime ideal inside J that x_1 f avoids; only the
    # check that a y_{n+1} - g y_1 lies in P rejects it
    for j in (e1, e3):
        p0 = gb.buchberger(rees.chain(j)[0])
        ring = p0.ring
        assert gb.is_regular(p0, ring.variable(0))
        assert gb.is_regular(p0, transport(j.f, ring))
        with monkeypatch.context() as patch:
            _rejects(j, p0.gens, "a y_{n+1} - g y_1 is not in P", patch)


def test_rees_ideal_rejects_a_generator_outside_j(e1, e3, monkeypatch):
    # (P, x_2 + y_3) holds a y_3 - g y_1, and x_1 and f are regular on it;
    # only the check that P lies in J rejects it
    for j in (e1, e3):
        ideal = rees.rees_ideal(j)
        ring = ideal.ring
        outside = gb.buchberger(rees.chain(j)[-1] + (P("x2 + y3", ring),))
        assert not ideal.contains(outside.gens[-1])
        assert gb.is_regular(outside, ring.variable(0))
        assert gb.is_regular(outside, transport(j.f, ring))
        with monkeypatch.context() as patch:
            _rejects(j, outside.gens, "predicted generator not in J: x2 + y3", patch)


@pytest.mark.parametrize("modulus", [None, 32003])
def test_certificate_rejects_j_cut_by_f_and_y1(modulus):
    # P' = J meet (f, y_1) lies in J and holds a y_{n+1} - g y_1, and x_1 is
    # regular on it, so only the f clause rejects it: f J lies in P', J not
    maps = [make_map(2, "x3", "x1^2 - x2*x3", modulus),
            make_map(2, "x1*x3 + x2^2", "x1^2*x3 + x2^3", modulus)]
    for j in maps:
        ideal = rees.rees_ideal(j)
        ring = ideal.ring
        f = transport(j.f, ring)
        cut = gb.buchberger(gb.intersect(list(ideal.basis), [f, ring.variable("y1")]))
        assert cut != ideal and gb.is_regular(cut, ring.variable(0))
        assert rees._uncertified(j, cut) == "f is a zero divisor on S/P"


# ---------- main generation theorem ----------

def test_main_theorem_worked_examples(e1, e2, e3):
    for j, count in ((e1, 2), (e2, 4), (e3, 3)):
        report = rees.verify_main_theorem(j)
        assert report.ok, report.witnesses
        assert report.count == count == report.expected_count


def test_main_theorem_reads_minimality_off_the_link_bases(e3, monkeypatch):
    # no second pass: neither the module greedy nor a per-generator normal
    # form runs under the theorem check on a passing map
    calls = []
    for module, name in ((resolutions, "minimal_generators"), (gb, "normal_form")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert rees.verify_main_theorem(e3).ok
    assert calls == []


def test_main_theorem_randomized():
    rng = random.Random(91)
    from math import comb
    for n in (2, 3):
        for d in (2, 3):
            j = dejonq.random_map(n, d, rng)
            report = rees.verify_main_theorem(j)
            assert report.ok, (n, d, report.witnesses)
            assert report.count == comb(n, 2) + d - 1


def test_main_theorem_names_redundant_generator(e2, monkeypatch):
    # a generator that lies in the span of the others fails minimality, and
    # the report names exactly that generator; it comes as its own link,
    # since each link adds one form
    real = rees.chain

    def padded(j):
        links = real(j)
        last = links[-1]
        return links + (last + (last[0] * last[0].ring.variable(0),),)
    monkeypatch.setattr(rees, "chain", padded)
    report = rees.verify_main_theorem(e2)
    extra = padded(e2)[-1][-1]
    assert report.ideal_matches and not report.minimal and not report.ok
    assert report.witnesses == (f"redundant generator: {extra}",
                                f"generator count 5 != 4")


def test_main_theorem_names_ideal_mismatch(e3, monkeypatch):
    # e3 has d = 3, so the predicted set is P_2 = (P_1, F_1)
    links = rees.chain(e3)

    # without F_1 the predicted set P_1 misses J's element F_1, and x_1 F_1
    # lies in P_1: the certificate names its x_1 clause
    monkeypatch.setattr(rees, "chain", lambda j: links[:-1] + (links[1],))
    report = rees.verify_main_theorem(e3)
    assert not report.ideal_matches and not report.ok
    assert report.witnesses == ("P != J: x_1 is a zero divisor on S/P",
                                "generator count 2 != 3")

    # x2 + y3 in place of F_1 is a generator outside J
    outside = P("x2 + y3", e3.working_ring())
    monkeypatch.setattr(rees, "chain", lambda j: links[:-1] + (links[1] + (outside,),))
    report = rees.verify_main_theorem(e3)
    assert not report.ideal_matches and not report.ok
    assert report.witnesses == (f"P != J: predicted generator not in J: {outside}",)


@pytest.mark.parametrize("modulus", [None, 32003])
def test_p0_basis_in_closed_form_is_the_buchberger_basis(modulus):
    # the 2-minors of the generic 2 x n matrix are a universal Groebner
    # basis, and reduced under grevlex: `link_bases` takes them, sorted, for
    # P_0's reduced basis with no Buchberger run
    for n in range(1, 9):
        j = dejonq.random_map(n, 2, random.Random(n), modulus)
        minors = rees.chain(j)[0]
        closed = rees.link_bases(j)[0]
        run = gb.buchberger(minors, ring=j.working_ring())
        assert (closed, closed.basis, closed.gens) == (run, run.basis, run.gens)
        assert len(closed.basis) == comb(n, 2)


def test_presentation_chain(e3):
    links = rees.chain(e3)
    eliminated = rees.rees_ideal(e3)
    predicted = links[-1]
    # every predicted generator lies in the eliminated ideal
    for p in predicted:
        assert eliminated.contains(p)
    # the chain ends at the full predicted set, and it equals the ideal
    assert predicted == links[0] + dejonq.downgraded_sequence(e3).forms
    assert gb.ideal_equal(list(links[-1]), eliminated)
    # p_ij shape: x_j y_i - x_i y_j
    W = eliminated.ring
    assert predicted[0] == P("x2*y1 - x1*y2", W)


# ---------- linear type ----------

def test_linear_type_iff_degree_two(e1, e2, e3):
    assert rees.linear_type(e1)
    assert rees.linear_type(e2)
    assert not rees.linear_type(e3)
    rng = random.Random(14)
    for d in (2, 3, 4):
        j = dejonq.random_map(2, d, rng)
        assert rees.linear_type(j) == (d == 2)


# ---------- colon lemmas ----------

def test_colon_lemma_e1(e1):
    report = rees.colon_lemma_checks(e1)
    assert report.base_stable
    assert report.support_colons == ()  # d = 2: no second family
    assert report.ok


def test_colon_lemma_e3(e3):
    report = rees.colon_lemma_checks(e3)
    assert report.ok
    assert report.support_colons == (True,)
    # direct check: P_1 : F_1 = (x1, x2)
    links = rees.chain(e3)
    got = gb.colon(list(links[1]), links[2][-1])
    W = e3.working_ring()
    assert gb.ideal_equal(got, [W.variable("x1"), W.variable("x2")])


@pytest.mark.parametrize("name", ["e1", "e3"])
def test_colon_lemma_base_check_fails_when_f0_is_a_zero_divisor(monkeypatch, request, name):
    # F_0 replaced by x1 times the 2-minor x1 y2 - x2 y1 lies in P_0, so it
    # is zero on S/P_0 and P_0 : F_0 is the whole ring
    j = request.getfixturevalue(name)
    real_chain = rees.chain
    links = real_chain(j)
    W = j.working_ring()
    bad = W.variable("x1") * links[0][0]
    assert gb.ideal_equal(gb.colon(list(links[0]), links[1][-1]), list(links[0]))

    def broken_chain(m):
        out = real_chain(m)
        return (out[0],) + tuple(link[:len(out[0])] + (bad,) + link[len(out[0]) + 1:]
                                 for link in out[1:])

    monkeypatch.setattr(rees, "chain", broken_chain)
    report = rees.colon_lemma_checks(j)
    assert report.base_stable is False and not report.ok
    assert report.witnesses[0] == "P_0 : F_0 enlarged P_0"
    # the colon oracle agrees: P_0 : F_0 is strictly larger than P_0
    assert not gb.ideal_equal(gb.colon(list(links[0]), bad), list(links[0]))


def test_colon_lemma_randomized():
    rng = random.Random(23)
    for (n, d) in ((2, 3), (3, 3), (2, 4)):
        j = dejonq.random_map(n, d, rng)
        report = rees.colon_lemma_checks(j)
        assert report.ok, (n, d, report.witnesses)


# ---------- cone Betti data ----------

def test_cone_table_e1(e1):
    data = rees.cone_betti(e1)
    assert data.hilbert_match
    assert data.table.rows == (((0, 1),), ((2, 2),), ((4, 1),))


def test_cone_table_e3(e3):
    data = rees.cone_betti(e3)
    assert data.hilbert_match
    # one extra Koszul layer on top of the d=2 pattern
    assert data.table.rows[1:] == (((2, 1), (3, 2)), ((4, 2), (5, 1)), ((5, 1),))


def test_cone_seed_ranks_n3():
    # Eagon-Northcott seed: position i carries i*C(n, i+1) at shift i+1
    # (d = 3 keeps the seed shifts clear of the cone layers)
    table = rees.cone_betti_table(3, 3)
    assert dict(table.rows[1])[2] == 3  # 1 * C(3,2)
    assert dict(table.rows[2])[3] == 2  # 2 * C(3,3)
    # d = 2: the F_0 layer lands on the same shift as the seed at position 1
    assert rees.cone_betti_table(3, 2).rows[1] == ((2, 4),)


def test_cone_hilbert_match_randomized():
    rng = random.Random(61)
    for (n, d) in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
        j = dejonq.random_map(n, d, rng)
        data = rees.cone_betti(j)
        assert data.hilbert_match, (n, d)
        length = n if d == 2 else n + 1
        assert len(data.table.rows) - 1 == length
        assert data.table.ranks()[0] == 1
        # position-1 ranks match the minimal generator count
        assert data.table.ranks()[1] == minimal_generator_count(rees.rees_ideal(j))


# ---------- projective dimension probe ----------

def test_projdim_worked_examples(e1, e3):
    for j in (e1, e3):
        pd = rees.projdim_probe(j)
        assert pd == 2 == j.n
        assert rees.is_cohen_macaulay(j, pd)


def test_projdim_bound_and_verdict_recorded():
    rng = random.Random(71)
    j = dejonq.random_map(2, 4, rng)   # d = 4 > n + 1 = 3
    pd = rees.projdim_probe(j)
    assert pd <= j.n + 1  # almost Cohen-Macaulay
    verdict = rees.is_cohen_macaulay(j, pd)
    # recorded outcome; the conjecture expects non-CM here
    assert verdict == (pd == 2)


@pytest.mark.parametrize("modulus", [32003, None])
@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_certified_section_keeps_the_betti_table(n, d, modulus):
    # second computation: the full resolution of J in all 2n+2 variables
    rng = random.Random(100 * n + d)
    for _ in range(2):
        j = dejonq.random_map(n, d, rng, modulus)
        ideal = rees.rees_ideal(j)
        section = rees._certified_section(ideal, n)
        cut = ideal.ring.nvars - section.ring.nvars
        # dim S/J = n+2, so cutting n+2 forms certifies CM; the non-CM
        # (d > n+1) maps must refuse that cut and stop at depth n+1
        assert cut == (n + 2 if d <= n + 1 else n + 1), (n, d, modulus)
        full = gb.minimal_free_resolution(list(ideal.basis))
        assert gb.minimal_free_resolution(list(section.basis)).betti == full.betti
        # Auslander-Buchsbaum: the certified depth is the whole depth
        assert full.length() == ideal.ring.nvars - cut


@pytest.mark.parametrize("modulus", [None, 32003, 7])
def test_certified_section_of_generators_is_that_of_the_basis(modulus):
    # J's generators and its reduced basis generate one ideal, so the same
    # cuts give one section
    rng = random.Random(41)
    for n, d in ((2, 2), (2, 4), (3, 3)):
        ideal = rees.rees_ideal(dejonq.random_map(n, d, rng, modulus))
        of_basis = gb.GroebnerBasis(ideal.ring, ideal.basis, ideal.basis)
        assert ideal.gens != ideal.basis
        assert rees._certified_section(ideal, n) == rees._certified_section(of_basis, n)


def test_projdim_raises_when_no_section_matches(monkeypatch):
    # J is prime and holds no linear form, so the k = 1 cut always matches
    # J's numerator; a mismatch there breaks that invariant and must raise,
    # not resolve J itself
    j = dejonq.random_map(2, 4, random.Random(73))
    numerator = gb.hilbert_series_numerator
    whole = j.working_ring().nvars
    monkeypatch.setattr(gb, "hilbert_series_numerator",
                        lambda ideal: numerator(ideal) if ideal.ring.nvars == whole else {})
    monkeypatch.setattr(gb, "minimal_free_resolution",
                        lambda gens: pytest.fail("resolved without a certified section"))
    with pytest.raises(JonqError, match="not the prime J"):
        rees.projdim_probe(j)


def test_projdim_frontier_slice():
    # beyond the acceptance grid: projdim n+1 at (3,5), where d > n+1, and n
    # (Cohen-Macaulay) at (4,3)
    rng = random.Random(5)
    for (n, d), expected in (((3, 5), 4), ((4, 3), 4)):
        for _ in range(2):
            assert rees.projdim_probe(dejonq.random_map(n, d, rng)) == expected, (n, d)
    # the seed-0, trial-0 `jonq explore` maps at (4,6) and (3,7): non-CM,
    # projdim n+1
    for (n, d), expected in (((4, 6), 5), ((3, 7), 4)):
        j = dejonq.random_map(n, d, random.Random(n * 10_007 + d * 101))
        assert rees.projdim_probe(j) == expected, (n, d)


# ---------- specialization ----------

def test_specialization_e1_regular_choice(e1):
    R = e1.source
    report = rees.specialization_check(e1, lam=R.variable("x2"))
    assert report.ok
    assert report.degree_ok
    assert report.scalar is not None


def test_specialization_e1_zerodivisor_choices_rejected(e1):
    R = e1.source
    # x3 - x1 lies in the associated prime (x1, x3): not regular
    rep1 = rees.specialization_check(e1, lam=R.variable("x1"))
    assert not rep1.regular
    # lam = 0 gives ell = x3, also a zerodivisor here
    rep0 = rees.specialization_check(e1, lam=R.zero())
    assert not rep0.regular
    I = list(e1.base_forms)
    x3 = R.variable("x3")
    assert not gb.ideal_equal(gb.colon(I, x3), I)


def test_specialization_depth_zero_rejects_every_candidate():
    # n = 1: I = x1 (x1, x2) has depth 0, so every random form is a zerodivisor
    j = dejonq.random_map(1, 2, random.Random(3))
    report = rees.specialization_check(j, rng=random.Random(4))
    assert not report.regular and not report.ok
    assert report.lam is None
    assert len(report.rejected) == rees.SPECIALIZATION_TRIES


def test_specialization_equation_is_the_kernel_without_elimination(e1, e3, monkeypatch):
    # h is read off f_H and g_H: no elimination runs in a ring holding both
    # x_1 and y_1, and ell on the inverse coordinates, made monic, is the
    # reduced basis that eliminating x from (y_i - F_i(x, lam)) gives
    calls = []
    eliminate = gb.eliminate

    def spy_eliminate(gens, nblock):
        calls.append(gens[0].ring)
        return eliminate(gens, nblock)

    monkeypatch.setattr(gb, "eliminate", spy_eliminate)
    rng = random.Random(82)
    maps = [e1, e3] + [dejonq.random_map(n, d, rng, modulus)
                       for modulus in (32003, None)
                       for (n, d) in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 4))]
    for j in maps:
        calls.clear()
        report = rees.specialization_check(j, rng=random.Random(5))
        assert report.ok and report.degree_ok, (j.n, j.d)
        assert not [ring for ring in calls
                    if {j.source.names[0], j.target.names[0]} <= set(ring.names)]
        inv, _ = dejonq.inverse(j)
        ell = j.source.variable(j.n) - report.lam
        equation = substitute(ell, dict(zip(j.source.names, inv.base_forms)))
        cut = RingSpec(j.source.names[:j.n], j.source.modulus)
        lam = transport(report.lam, cut)
        images = {y: substitute(form, {j.source.names[j.n]: lam})
                  for y, form in zip(j.target.names, j.base_forms)}
        assert [equation.monic()] == oracles.kernel(j.target, images), (j.n, j.d)
        assert report.scalar == equation.lc()


def test_specialization_randomized():
    rng = random.Random(81)
    for (n, d) in ((2, 2), (2, 3), (3, 2)):
        j = dejonq.random_map(n, d, rng)
        report = rees.specialization_check(j, rng=random.Random(5))
        assert report.ok, (n, d)
        assert report.degree_ok


def test_specialization_logs_what_decided_the_equation(e1, caplog):
    # one DEBUG line per check names lam, the rejected candidates and the verdict
    R = e1.source
    with caplog.at_level("DEBUG", logger="jonq.rees"):
        rees.specialization_check(e1, lam=R.variable("x2"))
        rees.specialization_check(e1, lam=R.variable("x1"))
        rees.specialization_check(dejonq.random_map(1, 2, random.Random(3)),
                                  rng=random.Random(4))
    assert caplog.messages == [
        "specialization: lam = x2, 0 rejected, pass",
        "specialization: lam = x1, 1 rejected, no regular cut",
        f"specialization: lam = None, {rees.SPECIALIZATION_TRIES} rejected, no regular cut",
    ]


def test_specialization_frontier_slice():
    # the seed-0 `jonq explore` maps at (5,5), (6,8) and (8,10), trial 0
    for n, d in ((5, 5), (6, 8), (8, 10)):
        seed = n * 10_007 + d * 101
        j = dejonq.random_map(n, d, random.Random(seed))
        assert rees.specialization_check(j, rng=random.Random(seed)).ok, (n, d)


# ---------- case report plumbing ----------

def test_case_report_schema(e1):
    report = rees.case_report(e1, seed=9)
    assert report["case"] == {"n": 2, "d": 2, "seed": 9, "f": "x3",
                              "g": "x1^2 - x2*x3"}
    for key in ("theorem", "colon", "cone_hilbert", "projdim", "cm", "runtime_ms"):
        assert key in report
    assert report["theorem"] == "pass"
    assert report["cm"] is True


def test_case_report_builds_the_rees_ideal_once_per_call(monkeypatch):
    # within one case_report, the downgrading runs once, shared by chain and
    # the inverse, and each link basis P_0..P_{d-1} is built once: P_0 in
    # closed form, with no `extend`, and every later one by extending the
    # link before; a second call on the same map object builds them again
    j = dejonq.random_map(3, 4, random.Random(5), 32003)
    links = rees.chain(j)
    downgradings, built = [], []
    downgrade, extend = dejonq.downgraded_sequence, gb.extend

    def spy_downgrade(j):
        downgradings.append(j)
        return downgrade(j)

    def spy_extend(basis, forms):
        out = extend(basis, forms)
        if out.gens in links:
            built.append((basis.gens, out.gens))
        return out
    monkeypatch.setattr(dejonq, "downgraded_sequence", spy_downgrade)
    monkeypatch.setattr(gb, "extend", spy_extend)
    once = list(zip(links, links[1:]))
    first = rees.case_report(j, seed=5)
    assert (len(downgradings), built) == (1, once)
    second = rees.case_report(j, seed=5)
    assert (len(downgradings), built) == (2, once + once)
    for report in (first, second):
        report.pop("runtime_ms")
    assert first == second


def test_case_report_computes_each_hilbert_numerator_once(monkeypatch):
    # the certified J is the last link's basis object itself, and
    # `is_regular` computes no numerator, so each basis's numerator is
    # computed once, by the first check that reads it
    computed = []
    cached = gb.GroebnerBasis.__dict__["_hilbert_numerator"]

    def spy(basis):
        computed.append((basis.ring, basis.basis))
        return cached.func(basis)
    spied = functools.cached_property(spy)
    spied.__set_name__(gb.GroebnerBasis, "_hilbert_numerator")
    monkeypatch.setattr(gb.GroebnerBasis, "_hilbert_numerator", spied)
    rees.case_report(dejonq.random_map(3, 4, random.Random(5), 32003), seed=5)
    assert computed and len(computed) == len(set(computed))


def test_case_report_leaves_no_memo_behind_an_error(e3, monkeypatch):
    def fail(j):
        raise JonqError("probe failed")
    monkeypatch.setattr(rees, "projdim_probe", fail)
    with pytest.raises(JonqError, match="probe failed"):
        rees.case_report(e3)
    real, chains = rees.chain, []

    def spy(j):
        chains.append(j)
        return real(j)
    monkeypatch.setattr(rees, "chain", spy)
    assert rees.rees_ideal(e3) == oracles.eliminated(e3)
    assert chains == [e3]


def test_case_report_skips_cone_and_projdim_when_j_is_not_certified(e3, monkeypatch):
    # the predicted set P_1 of e3 is not J: the theorem fails, and no check
    # that reads J runs
    p1 = rees.chain(e3)[1]
    monkeypatch.setattr(rees, "chain", lambda j: (p1[:-1], p1))
    uncertified, calls = rees._uncertified, []

    def spy(j, predicted):
        calls.append(j)
        return uncertified(j, predicted)
    monkeypatch.setattr(rees, "_uncertified", spy)
    report = rees.case_report(e3)
    assert report["theorem"] == "fail" and report["skipped"] == "J not certified"
    assert not {"cone_hilbert", "projdim", "cm"} & set(report)
    assert report["colon"] == "pass" and report["special"] == "pass"
    # the failing certificate runs once: cone reads the memoized raise
    assert calls == [e3]


# sha256 of the case_report JSON lines (runtime_ms removed) of e1, e2, e3 and
# four seeded maps over GF(32003): any change in a verdict shows here
PINNED_REPORTS_DIGEST = "cec8a7564c7861105bb602a0c06d2a0457983da18806a002c8c3b5b9368a1536"


def test_pinned_case_reports(e1, e2, e3):
    cases = [(e1, None), (e2, None), (e3, None)]
    for seed, (n, d) in enumerate(((2, 2), (2, 3), (3, 2), (3, 3)), start=91):
        cases.append((dejonq.random_map(n, d, random.Random(seed), 32003), seed))
    lines = []
    for j, seed in cases:
        report = rees.case_report(j, seed=seed)
        report.pop("runtime_ms")
        lines.append(json.dumps(report, sort_keys=True))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PINNED_REPORTS_DIGEST
