"""Identity-support maps: construction, sequences, inverses, resolutions."""

import hashlib
import pickle
import random
import re
from dataclasses import replace

import pytest

from jonq import cremona, dejonq, groebner as gb, polycore, rees, resolutions
from jonq.cli import main
from jonq.cremona import CertificateFailure, InversionCertificate, inversion_certificate
from jonq.dejonq import ConstructionError
from jonq.polycore import degree_in, parse_polynomial, substitute, transport, xprime_order
from conftest import make_map


def P(text, ring):
    return parse_polynomial(text, ring)


def base_assignment(j):
    return {name: form for name, form in zip(j.target.names, j.base_forms)}


# ---------- construct ----------

def test_construct_e1(e1):
    assert (e1.n, e1.d) == (2, 2)
    R = e1.source
    assert e1.base_forms == (P("x1*x3", R), P("x2*x3", R), P("x1^2 - x2*x3", R))


def test_base_forms_are_built_once_per_map(capsys):
    # the same tuple comes back; equality and hashing read the fields alone,
    # with or without the cached forms; `replace` builds a map of its own,
    # with forms of its own
    j = make_map(3, "x1*x4 + x2^2", "x1^2*x4 + x3^3")
    fresh = make_map(3, "x1*x4 + x2^2", "x1^2*x4 + x3^3")
    forms = j.base_forms
    assert j.base_forms is forms and len(forms) == 4
    assert j == fresh and hash(j) == hash(fresh)
    assert fresh.base_forms == forms and fresh.base_forms is not forms
    other = replace(j, g=parse_polynomial("x1^2*x4 + x2^3", j.source))
    assert other.base_forms[:3] == forms[:3] and other.base_forms[3] == other.g != j.g
    # a map does not pickle, the ring's order key being a closure, before
    # its forms are built or after; explore's workers pickle reports, and
    # two of them print what one does
    for m in (j, make_map(2, "x3", "x1^2 - x2*x3")):
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(m)
    outputs = []
    for jobs in ("1", "2"):
        assert main(["explore", "--n-range", "2", "--d-range", "2..3", "--trials", "2",
                     "--seed", "0", "--jobs", jobs]) == 0
        outputs.append(re.sub(r', "runtime_ms": [0-9]+', "", capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_construct_rejects_common_factor():
    with pytest.raises(ConstructionError, match="gcd"):
        make_map(2, "x3", "x3^2")


@pytest.mark.parametrize("modulus", [None, 32003])
def test_coprimality_check_agrees_with_gcd(modulus):
    # construct asks gb.coprime, whose fallback and oracle asks whether g is
    # regular modulo f; the reference is polycore.gcd.  Half the pairs share
    # a planted factor h
    ring = dejonq.source_ring(2, modulus)
    rng = random.Random(53)
    verdicts = []
    for _ in range(20):
        f = polycore.random_form(ring, rng.randrange(1, 3), rng, terms=2)
        g = polycore.random_form(ring, rng.randrange(1, 4), rng, terms=3)
        if rng.random() < 0.5:
            h = polycore.random_form(ring, 1, rng, terms=2)
            f, g = f * h, g * h
        coprime = polycore.gcd(f, g).total_degree() == 0
        assert gb.is_regular(gb.buchberger([f]), g) == coprime, (f, g)
        assert gb.coprime(f, g) == coprime, (f, g)
        verdicts.append(coprime)
    assert True in verdicts and False in verdicts
    # a factor in the support variables keeps every other condition
    for n, d in ((2, 3), (3, 2)):
        j = dejonq.random_map(n, d, rng, modulus)
        h = polycore.random_form(j.source, 1, rng, terms=2, block=j.support_block())
        assert polycore.gcd(h * j.f, h * j.g).total_degree() == 1
        with pytest.raises(ConstructionError, match=r"^gcd\(f,g\) != 1$"):
            dejonq.construct(h * j.f, h * j.g, n)


@pytest.mark.parametrize("modulus", [None, 32003])
def test_explore_maps_are_built_without_buchberger(monkeypatch, modulus):
    # the trial-0 draws of `jonq explore --n-range 2..5 --d-range 2..5
    # --seed 0`: every rejected pair shares a variable, and every accepted
    # pair is coprime on its first line, so no gcd needs a Buchberger run
    calls, constructed = [], []
    buchberger, construct = gb.buchberger, dejonq.construct

    def spy_buchberger(*args, **kwargs):
        calls.append(args)
        return buchberger(*args, **kwargs)

    def spy_construct(*args):
        constructed.append(args)
        return construct(*args)

    monkeypatch.setattr(gb, "buchberger", spy_buchberger)
    monkeypatch.setattr(dejonq, "construct", spy_construct)
    maps = [dejonq.random_map(n, d, random.Random(n * 10_007 + d * 101), modulus)
            for n in range(2, 6) for d in range(2, 6)]
    assert calls == []
    assert len(constructed) > len(maps)  # some draws were rejected
    # a common variable is rejected without a run as well
    j = maps[-1]
    x1 = j.source.variable(0)
    with pytest.raises(ConstructionError, match=r"^gcd\(f,g\) != 1$"):
        dejonq.construct(x1 * j.f, x1 * j.g, j.n)
    assert calls == []


def test_construct_rejects_missing_distinguished_variable():
    with pytest.raises(ConstructionError, match="involves"):
        make_map(2, "x1", "x1^2 + x2^2")


def test_construct_rejects_degree_mismatch():
    with pytest.raises(ConstructionError, match="degree mismatch"):
        make_map(2, "x3^2", "x1^2 - x2*x3")


def test_construct_rejects_non_monoid():
    with pytest.raises(ConstructionError, match="monoid"):
        make_map(2, "x3^2", "x1^3 - x2*x3^2")


def test_construct_rejects_g_monoid_violation():
    # degree 2 in the distinguished variable; the gcd check passes first
    with pytest.raises(ConstructionError, match="monoid"):
        make_map(2, "x2^2", "x1*x3^2")


# ---------- q decomposition ----------

def test_q_decomposition_examples(e1, e2, e3):
    R1, R2, R3 = e1.source, e2.source, e3.source
    assert dejonq.q_decomposition(e1) == (P("x1", R1), P("0 - x3", R1))
    assert dejonq.q_decomposition(e2) == (P("x2", R2), R2.zero(), P("0 - x4", R2))
    assert dejonq.q_decomposition(e3) == (P("x1*x3", R3), P("x2^2", R3))


def test_q_decomposition_reexpands(e1, e2, e3):
    for j in (e1, e2, e3):
        q = dejonq.q_decomposition(j)
        acc = j.source.zero()
        for qi, name in zip(q, j.source.names):
            acc = acc + qi * j.source.variable(name)
        assert acc == j.g


# ---------- downgraded sequences ----------

def test_sequence_e1(e1):
    seq = dejonq.downgraded_sequence(e1)
    W = seq.ring
    assert len(seq.forms) == 1
    assert seq.forms[0] == P("x3*y3 + x3*y2 - x1*y1", W)


def test_sequence_e3(e3):
    seq = dejonq.downgraded_sequence(e3)
    W = seq.ring
    f0 = P("x1*x3 + x2^2", W) * P("y3", W) - P("x1*x3*y1 + x2^2*y2", W)
    f1 = P("x3", W) * P("y1", W) * P("y3 - y1", W) + P("x2", W) * P("y2", W) * P("y3 - y2", W)
    assert seq.forms == (f0, f1)


def test_sequence_length_is_d_minus_one(e1, e2, e3):
    for j in (e1, e2, e3):
        assert len(dejonq.downgraded_sequence(j).forms) == j.d - 1


def _sequence_invariants(j):
    seq = dejonq.downgraded_sequence(j)
    W = seq.ring
    # F_0 = f y_{n+1} - sum_i q_i y_i
    ys = [W.variable(name) for name in j.target.names]
    f0 = transport(j.f, W) * ys[j.n]
    for qi, yi in zip(dejonq.q_decomposition(j), ys):
        f0 = f0 - transport(qi, W) * yi
    assert seq.forms[0] == f0
    assignment = {name: transport(form, W)
                  for name, form in zip(j.target.names, j.base_forms)}
    last_target = j.target.names[j.n]
    for i, form in enumerate(seq.forms):
        assert substitute(form, assignment).is_zero()
        assert form.bidegree() == (j.d - 1 - i, i + 1)
        assert degree_in(form, last_target) == 1
        # measured content order: at least d - (i+2); the exact value is logged
        order = xprime_order(form, block=j.support_block())
        assert order >= j.d - (i + 2)
    # recurrence: x_j F_i - y_j F_{i-1} = sum_k (x_j y_k - x_k y_j) F_{i-1,k}
    for i in range(1, j.d - 1):
        for jj in range(j.n):
            xj = W.variable(j.source.names[jj])
            yj = W.variable(j.target.names[jj])
            lhs = xj * seq.forms[i] - yj * seq.forms[i - 1]
            rhs = W.zero()
            for k in range(j.n):
                xk = W.variable(j.source.names[k])
                yk = W.variable(j.target.names[k])
                rhs = rhs + (xj * yk - xk * yj) * seq.content[i - 1][k]
            assert lhs == rhs
    # final form depends effectively on the distinguished source variable
    assert degree_in(seq.forms[-1], j.source.names[j.n]) >= 1
    return seq


def test_sequence_invariants_worked_examples(e1, e2, e3):
    for j in (e1, e2, e3):
        _sequence_invariants(j)


def test_sequence_invariants_randomized():
    rng = random.Random(55)
    for n in (2, 3):
        for d in (2, 3, 4):
            for _ in range(3):
                _sequence_invariants(dejonq.random_map(n, d, rng))
    # one map over GF(32003) and one over Q per point, longer sequences included
    rng = random.Random(56)
    for n, d in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                 (2, 5), (3, 5), (4, 2), (4, 3)]:
        for modulus in (32003, None):
            _sequence_invariants(dejonq.random_map(n, d, rng, modulus))


# ---------- inverse ----------

def test_inverse_e1(e1):
    inv, cert = dejonq.inverse(e1)
    Ry = e1.target
    assert inv.base_forms == (P("y1*y2 + y1*y3", Ry), P("y2^2 + y2*y3", Ry),
                              P("y1^2", Ry))
    assert cert.factor == P("x1^2*x3", e1.source)
    assert cert.degree == 3


def test_inverse_e2(e2):
    inv, cert = dejonq.inverse(e2)
    Ry = e2.target
    assert inv.base_forms == (P("y1*y3 + y1*y4", Ry), P("y2*y3 + y2*y4", Ry),
                              P("y3^2 + y3*y4", Ry), P("y1*y2", Ry))
    assert cert.factor == P("x1*x2*x4", e2.source)
    assert cert.degree == 3


def test_inverse_e3(e3):
    inv, cert = dejonq.inverse(e3)
    Ry = e3.target
    assert inv.f == P("y1*y3 - y1^2", Ry)
    assert inv.g == P("y2^3 - y2^2*y3", Ry)
    # delta = x1*x2^2*(x2-x1)*f^2 of degree d^2-1 = 8
    f = e3.f
    R = e3.source
    delta = P("x1", R) * P("x2^2", R) * P("x2 - x1", R) * f * f
    assert cert.factor == delta
    assert cert.degree == 8


def test_inverse_is_dejonquieres(e1, e2, e3):
    for j in (e1, e2, e3):
        inv, cert = dejonq.inverse(j)
        assert (inv.n, inv.d) == (j.n, j.d)
        assert cert.degree == j.d ** 2 - 1


def test_double_inverse_proportional(e1, e3):
    for j in (e1, e3):
        inv, _ = dejonq.inverse(j)
        back, cert = dejonq.inverse(inv)
        assert cert.degree == j.d ** 2 - 1
        # n >= 2, so the base forms have gcd 1: the double inverse is j up to
        # one scalar
        scale = back.base_forms[0].lc() * j.source.cinv(j.base_forms[0].lc())
        assert back.base_forms == tuple(form * scale for form in j.base_forms)
        # the double inverse is still inverted by the first inverse
        cert2 = inversion_certificate(back.f, back.g, inv.f, inv.g)
        assert isinstance(cert2, InversionCertificate)


def test_inverse_certifies_one_candidate(monkeypatch, e1, e2, e3):
    calls = []
    real = dejonq.inversion_certificate

    def counting(*forms):
        calls.append(forms)
        return real(*forms)

    monkeypatch.setattr(dejonq, "inversion_certificate", counting)
    maps = [e1, e2, e3]
    for modulus in (None, 101, 32003):
        for n in (2, 3, 4):
            for d in (2, 3, 4, 5):
                maps.append(dejonq.random_map(n, d, random.Random(10 * n + d), modulus))
    for j in maps:
        calls.clear()
        inv, cert = dejonq.inverse(j)
        assert len(calls) == 1, j
        assert calls[0] == (j.f, j.g, inv.f, inv.g) and cert.degree == j.d ** 2 - 1


def test_inverse_neither_composes_nor_divides(monkeypatch, e1, e2, e3):
    """The certificate pulls back through the shape of the map: `inverse`
    calls no coordinatewise composition, substitution, exact division or
    gcd (construct checks the inverse's coprimality by `groebner.coprime`,
    which restricts to a line without substituting)."""
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    originals = {"compose": cremona.compose, "substitute": polycore.substitute,
                 "substitution": polycore.substitution,
                 "exact_div": polycore.exact_div, "gcd": polycore.gcd}
    for module in (polycore, gb, cremona, dejonq, rees, resolutions):
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, spy(name, fn))
    maps = [e1, e2, e3] + [dejonq.random_map(n, d, random.Random(n + d), modulus)
                           for modulus in (None, 32003) for n, d in ((2, 4), (3, 3))]
    for j in maps:
        dejonq.inverse(j)
    assert calls == []
    # the spies are live: the generic composition, one prepared substitution
    # for all its coordinates, is still seen
    cremona.compose(e1.base_forms, tuple(e1.source.variables()))
    assert calls == ["compose", "substitution"]


def test_inverse_error_names_failing_coordinate(monkeypatch, e1):
    monkeypatch.setattr(dejonq, "inversion_certificate",
                        lambda *forms: CertificateFailure(2, "coordinate is not proportional"))
    with pytest.raises(dejonq.InverseError,
                       match=r"coordinate 2 \(coordinate is not proportional\)"):
        dejonq.inverse(e1)


# ---------- resolution ----------

def test_resolution_e1_shifts(e1):
    fc = dejonq.resolution(e1)
    assert fc.shifts == ((0,), (2, 2, 2), (3, 3))
    assert fc.verify()


def test_complex_missing_a_shift_list_does_not_verify(e1):
    fc = dejonq.resolution(e1)
    assert not replace(fc, shifts=fc.shifts[:-1]).verify()


def test_complex_with_a_shift_list_past_its_maps_does_not_verify(e1):
    fc = dejonq.resolution(e1)
    assert not replace(fc, shifts=fc.shifts + ((4,),)).verify()


def test_resolution_e2_shifts(e2):
    fc = dejonq.resolution(e2)
    assert fc.shifts == ((0,), (2, 2, 2, 2), (3, 3, 3, 3), (4,))
    assert fc.verify()
    oracle = gb.minimal_free_resolution(list(e2.base_forms))
    assert fc.betti() == oracle.betti


def test_resolution_matches_oracle(e1, e2, e3):
    for j in (e1, e2, e3):
        fc = dejonq.resolution(j)
        assert fc.verify()
        oracle = gb.minimal_free_resolution(list(j.base_forms))
        assert fc.betti() == oracle.betti
        # Auslander-Buchsbaum: projdim n forces depth 1 over n+1 variables
        assert oracle.length() == j.n


def test_resolution_verify_rejects_wrong_degree_and_nonzero_composition(e2):
    fc = dejonq.resolution(e2)
    x1 = e2.source.variable(0)
    # scaling one map by x1 keeps every composition zero but breaks the degrees
    scaled = tuple(tuple(entry * x1 for entry in col) for col in fc.matrices[1])
    assert not replace(fc, matrices=(fc.matrices[0], scaled) + fc.matrices[2:]).verify()
    # one entry of the right degree, but the first two maps no longer compose to zero
    first = fc.matrices[1][0]
    broken = ((first[0] + x1,) + first[1:],) + fc.matrices[1][1:]
    assert not replace(fc, matrices=(fc.matrices[0], broken) + fc.matrices[2:]).verify()


def test_resolution_random_n3_d3():
    rng = random.Random(33)
    j = dejonq.random_map(3, 3, rng)
    fc = dejonq.resolution(j)
    assert fc.shifts[2] == (4, 4, 4, 5)
    assert fc.shifts[3] == (5,)
    assert fc.verify()
    oracle = gb.minimal_free_resolution(list(j.base_forms))
    assert fc.betti() == oracle.betti


def test_resolution_closed_form_randomized():
    rng = random.Random(44)
    from math import comb
    for n in (2, 3):
        for d in (2, 3, 4):
            j = dejonq.random_map(n, d, rng)
            fc = dejonq.resolution(j)
            assert fc.verify()
            assert fc.shifts[1] == (d,) * (n + 1)
            expected2 = tuple(sorted([d + 1] * comb(n, 2) + [2 * d - 1]))
            assert tuple(sorted(fc.shifts[2])) == expected2
            for p in range(3, n + 1):
                assert fc.shifts[p] == (d + p - 1,) * comb(n, p)
            oracle = gb.minimal_free_resolution(list(j.base_forms))
            assert fc.betti() == oracle.betti


# ---------- structural checks ----------

def test_structural_e1(e1):
    rep = dejonq.structural_checks(e1)
    assert rep.ok
    assert rep.saturated and rep.colon_contains_support
    assert rep.cm and rep.projdim == 2
    assert rep.multiplicity == 3 == rep.multiplicity_expected


def test_structural_e2(e2):
    rep = dejonq.structural_checks(e2)
    assert rep.ok
    assert not rep.cm  # n = 3
    assert rep.projdim == 3


def test_structural_e3(e3):
    rep = dejonq.structural_checks(e3)
    assert rep.ok
    assert rep.multiplicity == 7  # d(d-1) + 1 with d = 3


def test_structural_support_check_is_not_vacuous():
    # f = x1 divides g, so I = x1 (x1, x2, x3) and I : f is the maximal ideal;
    # each x_i is still in I : f
    R = dejonq.source_ring(2)
    f, g = P("x1", R), P("x1*x3", R)
    j = dejonq.DeJonquieresMap(n=2, d=2, f=f, g=g, source=R, target=dejonq.target_ring(2))
    rep = dejonq.structural_checks(j)
    assert not rep.colon_contains_support and not rep.ok
    assert "I : f != (x_1..x_2)" in rep.witnesses


def test_structural_unsaturated_ideal_is_named_by_projdim():
    # I = x1 (x1, x2, x3) = x1 m: x1 lies in I : m but not in I, so depth
    # R/I = 0 and the resolution has full length 3
    R = dejonq.source_ring(2)
    f, g = P("x1", R), P("x1*x3", R)
    j = dejonq.DeJonquieresMap(n=2, d=2, f=f, g=g, source=R, target=dejonq.target_ring(2))
    rep = dejonq.structural_checks(j)
    assert not rep.saturated and rep.projdim == 3
    assert "projdim 3 = 3: I is not saturated" in rep.witnesses
    base = list(j.base_forms)
    assert not gb.ideal_equal(gb.saturate(base, R.variables()), base)


def test_structural_checks_never_saturate(e1, e2, monkeypatch):
    # nor build a basis: N(I) comes from the oracle resolution and
    # N(x_1..x_n) = (1 - t)^n in closed form
    calls = []
    saturate, buchberger = gb.saturate, gb.buchberger
    monkeypatch.setattr(gb, "saturate", lambda *a: calls.append(a) or saturate(*a))
    monkeypatch.setattr(gb, "buchberger", lambda *a, **k: calls.append(a) or buchberger(*a, **k))
    for j in (e1, e2, dejonq.random_map(3, 3, random.Random(5)),
              dejonq.random_map(3, 3, random.Random(5), None)):
        rep = dejonq.structural_checks(j)
        assert rep.saturated and rep.colon_contains_support
    assert calls == []


# ---------- random map generation ----------

def test_random_map_validity():
    rng = random.Random(2)
    for n in (2, 3):
        for d in (2, 3, 4):
            j = dejonq.random_map(n, d, rng)
            assert (j.n, j.d) == (n, d)
            assert j.source.modulus == 32003
            # re-validates all conditions
            dejonq.construct(j.f, j.g, n)


@pytest.mark.parametrize("n, d", [(0, 2), (2, 1), (-1, 3), (3, 0)])
def test_random_map_rejects_impossible_grid_points(n, d):
    with pytest.raises(ConstructionError, match="need n >= 1 and d >= 2"):
        dejonq.random_map(n, d, random.Random(0))


@pytest.mark.parametrize("d", [3, 4, 6])
def test_random_map_rejects_n1_beyond_degree_2_before_sampling(d):
    class NoDraws:
        def __getattr__(self, name):
            pytest.fail("random_map sampled for an impossible grid point")

    with pytest.raises(ConstructionError, match=r"no valid map for n = 1.*divides both f and g"):
        dejonq.random_map(1, d, NoDraws())


# sha256 of the exact path over Q at the certify-q grid points: each map,
# its inverse, the inversion factor D and its degree, the closed-form and
# oracle Betti tables, verify() and the structural report.  Computed with
# every coefficient a Fraction; integral coefficients are ints now, and
# every printed form must stay byte for byte.
Q_PATH_DIGEST = "1df991e668c56e4a233a352800e5daa9948dbb5cda63ce663b0a12e0c323a155"


def test_pinned_q_path():
    lines = []
    for n, d in ((2, 6), (3, 4), (4, 3)):
        for seed in range(4):
            j = dejonq.random_map(n, d, random.Random(seed), None)
            inv, cert = dejonq.inverse(j)
            closed = dejonq.resolution(j)
            oracle = gb.minimal_free_resolution(list(j.base_forms))
            lines.append(" | ".join([
                f"({n},{d}) seed {seed}", str(j.f), str(j.g), str(inv.f), str(inv.g),
                str(cert.factor), str(cert.degree), str(closed.betti()), str(oracle.betti),
                str(closed.verify()), repr(dejonq.structural_checks(j))]))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == Q_PATH_DIGEST
