"""Groebner engine: bases, elimination, colon/saturation, Hilbert series."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from jonq import groebner as gb  # noqa: E402
from jonq.orders import LEX  # noqa: E402
from jonq.polycore import (  # noqa: E402
    JonqError, Polynomial, RingMismatchError, RingSpec, mono_div, mono_divides,
    parse_polynomial, random_form)


@pytest.fixture
def R():
    return RingSpec(["x1", "x2", "x3"])


def P(text, ring):
    return parse_polynomial(text, ring)


# ---------- buchberger ----------

def test_twisted_cubic_lex():
    # oracle: textbook elimination by hand gives the four-element reduced basis
    RL = RingSpec(["x1", "x2", "x3"], order=LEX)
    G = gb.buchberger([P("x1^2 - x2", RL), P("x1*x2 - x3", RL)])
    expected = {P("x1^2 - x2", RL), P("x1*x2 - x3", RL),
                P("x1*x3 - x2^2", RL), P("x2^3 - x3^2", RL)}
    assert set(G.basis) == expected
    assert any(g == P("x2^3 - x3^2", RL) for g in G.basis)


def test_already_reduced(R):
    G = gb.buchberger([R.variable(0)])
    assert G.basis == (R.variable(0),)


def test_interreduction(R):
    x1, x2 = R.variable(0), R.variable(1)
    G = gb.buchberger([x1, x1 + x2])
    assert set(G.basis) == {x1, x2}


def test_zero_ideal(R):
    G = gb.buchberger([R.zero()], ring=R)
    assert G.basis == ()
    G2 = gb.buchberger([], ring=R)
    assert G2.basis == ()


def test_spair_reduction_randomized():
    # every S-polynomial of the output basis reduces to zero
    rng = random.Random(12)
    Rp = RingSpec(["x1", "x2", "x3"], modulus=32003)
    for trial in range(100):
        ring = Rp if trial % 4 else RingSpec(["x1", "x2", "x3"])
        gens = [random_form(ring, rng.randrange(1, 4), rng, terms=rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 4))]
        G = gb.buchberger(gens)
        for i in range(len(G.basis)):
            for j in range(i + 1, len(G.basis)):
                s = gb.spolynomial(G.basis[i], G.basis[j])
                assert G.reduce(s).is_zero()
        for g in gens:
            assert G.contains(g)


def test_basis_is_reduced_randomized():
    rng = random.Random(13)
    ring = RingSpec(["x1", "x2", "x3"], modulus=101)
    from jonq.polycore import mono_divides
    for _ in range(50):
        gens = [random_form(ring, rng.randrange(1, 4), rng, terms=2) for _ in range(2)]
        G = gb.buchberger(gens)
        lms = [g.lm() for g in G.basis]
        for i, g in enumerate(G.basis):
            assert g.lc() == 1
            for m, _ in g.terms:
                for k, lm in enumerate(lms):
                    if k != i:
                        assert not mono_divides(lm, m)


# ---------- normal form ----------

def test_normal_form_examples(R):
    G = gb.buchberger([R.variable(0)])
    assert gb.normal_form(R.variable(0) ** 2, G).is_zero()
    assert gb.normal_form(R.variable(1), G) == R.variable(1)


def test_normal_form_huge_exponent_is_exact():
    # packed with a fixed 16-bit exponent field, x^70000 once wrapped to x^4464
    R = RingSpec(["x", "y"], modulus=101)
    x = P("x^70000", R)
    assert gb.normal_form(x, [P("y", R)]) == x


def test_exponents_growing_past_the_fields_are_exact():
    # the fields are sized from the input terms; reducing x^200 by x - y^3
    # under lex carries y far past them, so the engine must widen them and
    # redo the reduction, both in a normal form and inside Buchberger
    RL = RingSpec(["x", "y"], modulus=101, order=LEX)
    assert gb.normal_form(P("x^200", RL), [P("x - y^3", RL)]) == P("y^600", RL)
    G = gb.buchberger([P("x - y^3", RL), P("x^200 - x", RL)])
    assert set(G.basis) == {P("x - y^3", RL), P("y^600 - y^3", RL)}
    # here the growth comes from S-pairs: x^(50-k) z^(3k) climbs to z^150
    RL3 = RingSpec(["x", "y", "z"], modulus=101, order=LEX)
    G = gb.buchberger([P("x*y - z^3", RL3), P("x^50 - 1", RL3)])
    assert len(G.basis) == 52
    assert G.basis[0] == P("y^50 - z^150", RL3)
    assert G.contains(P("x^50 - 1", RL3)) and G.contains(P("x*y - z^3", RL3))
    RQ = RingSpec(["x", "y"], order=LEX)
    assert gb.normal_form(P("x^100 + 1/2*x", RQ), [P("x - y^3", RQ)]) == \
        P("y^300 + 1/2*y^3", RQ)
    # here interreducing carries z past the fields, so the basis `extend`
    # keeps packed must be packed again, all of it, on the widened fields
    RQ3 = RingSpec(["x", "y", "z"], order=LEX)
    G = gb.buchberger([P("3*x^8*y^2 + 3*x^3", RQ3), P("3*x^8*y^2*z^7 + 3", RQ3),
                       P("2*y*z^9 + 2*z^2", RQ3)])
    assert G.basis == (P("z^77 + 1", RQ3), P("y - z^70", RQ3), P("x - z^49", RQ3))
    assert G.reduce(P("x*y", RQ3)) == P("-z^42", RQ3)


def test_a_term_that_overflows_at_every_width_is_an_error(R):
    # a negative exponent borrows into a guard bit at every field width, so
    # the engine stops widening at _MAX_BITS instead of doubling forever
    engine = gb._Engine(R)
    engine.extend([{(1, 0, 0): Fraction(1)}])
    with pytest.raises(JonqError, match="overflow"):
        engine._nf(lambda: {engine.pk.pack((-1, 1, 0)): 1})
    assert engine.pk.bits == gb._MAX_BITS


def test_normal_form_idempotent_randomized(R):
    rng = random.Random(21)
    for _ in range(100):
        gens = [random_form(R, rng.randrange(1, 3), rng) for _ in range(2)]
        G = gb.buchberger(gens)
        p = random_form(R, rng.randrange(1, 4), rng, terms=4)
        r = gb.normal_form(p, G)
        assert gb.normal_form(r, G) == r
        assert gb.normal_form(p - r, G).is_zero()


def fraction_remainder(p, basis):
    """Remainder of p on division by a Groebner basis, in plain field
    arithmetic: the largest term divisible by a lead is cancelled first."""
    ring, rem = p.ring, p.ring.zero()
    while p:
        m, c = p.terms[0]
        g = next((g for g in basis if mono_divides(g.lm(), m)), None)
        if g is None:
            rem = rem + ring.monomial(m, c)
            p = p - ring.monomial(m, c)
        else:
            p = p - ring.monomial(mono_div(m, g.lm()), c * ring.cinv(g.lc())) * g
    return rem


rationals = st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 100))


@st.composite
def field_division(draw):
    """(reduced basis, p, c) over Q, GF(7) or GF(32003): 1-3 forms of degree
    1..3 in three variables and a polynomial p of degree up to 4, with
    denominators up to 100 over Q, and a nonzero scalar c."""
    modulus = draw(st.sampled_from([None, 7, 32003]))
    ring = RingSpec(["x1", "x2", "x3"], modulus)
    scalars = rationals if modulus is None else st.integers(1, modulus - 1)

    def mono(degree):
        return st.lists(st.integers(0, 2), min_size=degree, max_size=degree).map(
            lambda vs: tuple(vs.count(v) for v in range(3)))

    def poly(degrees):
        terms = st.tuples(st.sampled_from(degrees).flatmap(mono), scalars)
        return Polynomial(ring, draw(st.lists(terms, min_size=1, max_size=4)))

    gens = [poly((draw(st.integers(1, 3)),)) for _ in range(draw(st.integers(1, 3)))]
    hypothesis.assume(any(gens))
    return gb.buchberger(gens), poly(range(5)), draw(scalars)


@settings(max_examples=150, deadline=None)
@given(field_division())
def test_fraction_free_reduce_is_the_exact_remainder(case):
    # over Q the engine reduces primitive integer vectors and tracks a scale;
    # reduce must divide it out again.  Over GF(p) pending coefficients are
    # plain ints, reduced mod p only when popped: over GF(7) a pending
    # nonzero int is often zero in the field
    basis, p, c = case
    assert basis.reduce(p) == fraction_remainder(p, basis.basis)
    assert basis.reduce(p * c) == basis.reduce(p) * c
    for g in basis.basis:
        assert g.lc() == 1 and basis.reduce(g).is_zero()


# ---------- ideal equality ----------

def test_ideal_equal(R):
    x1, x2 = R.variable(0), R.variable(1)
    assert gb.ideal_equal([x1, x2], [x2, x1 + x2])
    assert not gb.ideal_equal([x1 ** 2], [x1])


# ---------- elimination ----------

def test_eliminate_determinant():
    # oracle: t*x1 = y1 and t*x2 = y2 force the 2x2 determinant to vanish
    RT = RingSpec(["t", "x1", "x2", "y1", "y2"])
    gens = [P("t*x1 - y1", RT), P("t*x2 - y2", RT)]
    E = gb.eliminate(gens, 1)
    assert len(E) == 1
    assert E[0] == P("x2*y1 - x1*y2", RT).monic()


def test_eliminate_everything_gone():
    RT = RingSpec(["x1", "x2"])
    assert gb.eliminate([RT.variable(0)], 1) == []


def test_elimination_order_block_property():
    # free of the first block iff the leading monomial is
    rng = random.Random(67)
    from jonq.orders import elimination_order
    ring = RingSpec(["t", "u", "x1", "x2"], order=elimination_order(2))
    for _ in range(100):
        p = random_form(ring, rng.randrange(1, 4), rng, terms=3)
        lm_free = all(e == 0 for e in p.lm()[:2])
        poly_free = all(all(e == 0 for e in m[:2]) for m, _ in p.terms)
        assert lm_free == poly_free


def test_eliminate_unused_variable_is_identity(R):
    # eliminating a variable absent from the ideal leaves the ideal alone
    RT = RingSpec(["t", "x1", "x2", "x3"])
    from jonq.polycore import transport
    gens = [transport(P("x1^2 - x2*x3", R), RT), transport(P("x1*x3", R), RT)]
    E = gb.eliminate(gens, 1)
    assert gb.ideal_equal(E, gens)


# ---------- colon / saturation ----------

def test_colon_monomial(R):
    x1, x2 = R.variable(0), R.variable(1)
    C = gb.colon([x1 * x2], x1)
    assert C == [x2]


def test_colon_chain_and_saturation_randomized(R):
    rng = random.Random(31)
    for _ in range(25):
        gens = [random_form(R, rng.randrange(1, 3), rng, terms=2) for _ in range(2)]
        I = list(gb.buchberger(gens).basis)
        if not I:
            continue
        J = [R.variable(0), R.variable(1)]
        CJ = gb.colon_ideal(I, J)
        S = gb.saturate(I, J)
        sat_gb = gb.buchberger(S)
        colon_gb = gb.buchberger(CJ)
        # I <= (I : J) <= (I : J^inf), by generator membership
        for p in I:
            assert colon_gb.contains(p)
        for p in CJ:
            assert sat_gb.contains(p)
        # saturation is stable: (I : J^inf) : J = (I : J^inf)
        assert gb.ideal_equal(gb.colon_ideal(S, J), S)


def test_saturate_stabilizes(R):
    x1, x2, x3 = R.variables()
    I = [x1 * x3 ** 3, x2 * x3 ** 2]
    S = gb.saturate(I, [x3])
    assert gb.ideal_equal(S, [x1, x2])


# ---------- regular elements ----------

@pytest.mark.parametrize("modulus", [None, 32003])
def test_is_regular_matches_the_colon_oracle(modulus):
    # oracle: u is regular on R/I iff I : u = I.  Half the cases plant u as a
    # factor of every generator, which makes u a zero divisor
    ring = RingSpec(["x1", "x2", "x3", "x4"], modulus)
    rng = random.Random(41)
    verdicts = []
    for _ in range(16):
        u = random_form(ring, rng.randrange(1, 3), rng, terms=2)
        gens = [random_form(ring, rng.randrange(1, 3), rng, terms=3) for _ in range(2)]
        if rng.random() < 0.5:
            gens = [u * g for g in gens]
        ideal = gb.buchberger(gens)
        oracle = gb.ideal_equal(gb.colon(list(ideal.basis), u), ideal)
        assert gb.is_regular(ideal, u) == oracle, (gens, u)
        verdicts.append(oracle)
    assert True in verdicts and False in verdicts


def test_is_regular_edge_cases(R):
    x1, x2, x3 = R.variables()
    ideal = gb.buchberger([x1 * x2])
    assert gb.is_regular(ideal, x3)
    assert not gb.is_regular(ideal, x1)
    # an element of I is zero on R/I, and R/I is not zero
    assert not gb.is_regular(ideal, x1 * x2)
    # a nonzero constant is a unit; on the zero ring every form is regular
    assert gb.is_regular(ideal, R.constant(3))
    assert gb.is_regular(gb.buchberger([R.one()]), x1)
    # the zero ideal: R is a domain
    assert gb.is_regular(gb.buchberger([], ring=R), x1 + x2)
    with pytest.raises(gb.JonqError):
        gb.is_regular(ideal, R.zero())
    with pytest.raises(gb.InhomogeneousError):
        gb.is_regular(ideal, x1 + R.one())


def test_is_regular_closes_only_the_new_pairs(R, monkeypatch):
    # the signature run reduces by the reduced basis of I as it stands and
    # never interreduces: no Buchberger run and no `_reduced`
    ideal = gb.buchberger([P("x1^2 - x2*x3", R), P("x1*x3 - x2^2", R)])
    monkeypatch.setattr(gb, "_reduced", None)
    assert gb.is_regular(ideal, R.variable(2))


def hilbert_is_regular(ideal, u):
    """The Hilbert-series nonzerodivisor test, the oracle of `is_regular`.

    For u of degree e, HS(R/(I, u)) = (1 - t^e) HS(R/I) + t^e HS(0 :_{R/I} u)
    (Stanley, Adv. Math. 1978), so u is regular exactly when the Hilbert
    numerators satisfy N(I) = N(I, u) + t^e N(I).
    """
    numerator = gb.hilbert_series_numerator(ideal)
    with_u = gb.hilbert_series_numerator(gb.extend(ideal, [u]))
    return numerator == gb.numerator_from_colon(with_u, u.total_degree(), numerator)


def colon_is_regular(ideal, u):
    """u is regular on R/I iff I : u = I."""
    return gb.ideal_equal(gb.colon(list(ideal.basis), u), ideal)


def sparse_form(ring, degree, rng, terms):
    # a constant gets one term: over GF(2) two of them may cancel
    return random_form(ring, degree, rng, terms=1 if degree == 0 else terms)


REGULARITY_KINDS = ("random", "planted", "member", "unit", "zero")


@settings(max_examples=800, deadline=None)
@given(st.sampled_from((None, 32003, 7, 2)), st.integers(2, 5), st.sampled_from(REGULARITY_KINDS),
       st.integers(0, 10 ** 6))
def test_is_regular_matches_the_hilbert_and_colon_oracles(modulus, n, kind, seed):
    # u is a form of degree 0-3.  A planted u multiplies the first generator
    # or every one, which makes it a zero divisor unless it lies in I; u in
    # I is regular only on the unit ideal, where every u is
    ring = RingSpec([f"x{i}" for i in range(1, n + 1)], modulus)
    rng = random.Random(seed)
    u = sparse_form(ring, rng.randrange(4), rng, rng.randrange(1, 4))
    gens = [sparse_form(ring, rng.randrange(1, 4), rng, rng.randrange(1, 5))
            for _ in range(rng.randrange(1, 5))]
    if kind == "planted":
        gens = [u * g for g in gens] if rng.random() < 0.5 else [u * gens[0]] + gens[1:]
    elif kind == "member":
        gens.append(u)
    elif kind == "unit":
        gens.append(ring.one())
    elif kind == "zero":
        gens = []
    ideal = gb.buchberger(gens, ring=ring)
    verdict = gb.is_regular(ideal, u)
    assert verdict == hilbert_is_regular(ideal, u) == colon_is_regular(ideal, u), (gens, u)
    if kind in ("unit", "zero"):
        assert verdict
    elif kind == "member":
        assert verdict == (u.total_degree() == 0)


@pytest.mark.parametrize("modulus, gens, u, regular", [
    # a reducer whose multiple has the J-pair's own signature may cancel that
    # signature; allowing it (<= for <) gives a false False
    (7, "x1^2*x3 + 4*x1*x2*x4, x1^3 + 6*x1*x2*x3, x1*x2*x3^2 + 4*x1^2*x2*x4",
     "5*x1 + 5*x2 + 2*x4", True),
    # a J-pair that reduces to zero, whose lead is also singular top-reducible:
    # dropping it before every signature-safe reducer was tried gives a false True
    (None, "x1^2 + 5/2*x1*x2, x1*x2^3", "8*x1 + 6*x2", False),
    (7, "x1*x3 + x3^2, x1*x2 + 5*x3^2, x2*x3^2 + 2*x3^3", "2*x1 + 6*x3", False),
])
def test_is_regular_on_cases_a_careless_signature_run_gets_wrong(modulus, gens, u, regular):
    ring = RingSpec(["x1", "x2", "x3", "x4"], modulus)
    ideal = gb.buchberger([P(g, ring) for g in gens.split(", ")])
    u = P(u, ring)
    assert gb.is_regular(ideal, u) == regular
    assert hilbert_is_regular(ideal, u) == colon_is_regular(ideal, u) == regular


def test_is_regular_widens_the_packing_and_starts_again(monkeypatch):
    # u's exponents fit the basis's 8-bit fields (up to 127), and a J-pair's
    # multiple here needs more: the run raises _Overflow, widens the fields
    # and starts again
    ring = RingSpec(["x1", "x2", "x3"], 7)
    ideal = gb.buchberger([P("2*x1 + x3", ring), P("2*x2^3 + x1^2*x3", ring)])
    u = P("x1^117*x3^9 + 3*x1^29*x2^55*x3^42", ring)
    widths = []
    repack = gb._Engine._repack
    monkeypatch.setattr(gb._Engine, "_repack",
                        lambda engine, bits: widths.append(bits) or repack(engine, bits))
    assert gb.is_regular(ideal, u)
    assert widths and widths[-1] > 8
    assert hilbert_is_regular(ideal, u) and colon_is_regular(ideal, u)


def test_is_regular_computes_no_hilbert_numerator(R, monkeypatch):
    x1, x2, x3 = R.variables()
    cases = [(gb.buchberger([x1 * x2, x2 * x3 ** 2]), u) for u in (x1 + x3, x2, x3 ** 2)]
    cases.append((gb.buchberger([P("x1^2 - x2*x3", R), P("x1*x3 - x2^2", R)]), x3))
    expected = [hilbert_is_regular(ideal, u) for ideal, u in cases]
    assert True in expected and False in expected

    def forbidden(*args):
        raise AssertionError("is_regular computed a Hilbert numerator")
    monkeypatch.setattr(gb, "_hilb_rec", forbidden)
    assert [gb.is_regular(ideal, u) for ideal, u in cases] == expected
    # a form of another ring, or an inhomogeneous one, still raises
    with pytest.raises(RingMismatchError):
        gb.is_regular(cases[0][0], RingSpec(["y1", "y2"]).variable(0))
    with pytest.raises(gb.InhomogeneousError):
        gb.is_regular(cases[0][0], x1 ** 2 + x2)


@pytest.mark.parametrize("modulus", (None, 32003, 7))
def test_extend_from_a_packed_basis_equals_extend_from_tuples(modulus, monkeypatch):
    # `extend` leaves its packed basis on the result, and the next engine
    # installs it as it stands; a copy without it is packed from tuples
    ring = RingSpec(["x1", "x2", "x3"], modulus)
    base = gb.buchberger([P("x1^2 - x2*x3", ring), P("2*x1*x3 - x2^2", ring)])
    assert base.packed is not None
    repacked = []
    repack = gb._Engine._repack
    monkeypatch.setattr(gb._Engine, "_repack",
                        lambda self, bits: repacked.append(len(self.elems)) or repack(self, bits))
    # the second form's exponents pass the fields of the first packing, so
    # the engine repacks the elements it installed
    for forms in ([P("x2^3 + 3*x1*x3^2", ring)], [P("x3^200 - 5*x1^150*x2^50", ring)]):
        repacked.clear()
        packed = gb.extend(base, forms)
        assert bool(repacked) == (forms[0].total_degree() == 200) and all(repacked)
        from_tuples = gb.extend(gb.GroebnerBasis(ring, base.gens, base.basis), forms)
        assert packed == from_tuples and packed.basis == from_tuples.basis
        assert packed.gens == from_tuples.gens
        # and again from each result: the packing carries on down a chain
        more = [P("x1*x2*x3 - x3^3", ring)]
        assert gb.extend(packed, more).basis == gb.extend(
            gb.GroebnerBasis(ring, packed.gens, packed.basis), more).basis
        probe = P("x1^3*x3^2 + x2^5", ring)
        assert packed.reduce(probe) == from_tuples.reduce(probe)


# ---------- coprimality ----------

COPRIME_PLANTS = ("none", "variable", "linear", "quadratic")


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((None, 32003, 7)), st.integers(1, 5), st.sampled_from(COPRIME_PLANTS),
       st.integers(0, 10 ** 6))
def test_coprime_matches_the_buchberger_oracle(modulus, n, plant, seed):
    # oracle: in the UFD R, gcd(f, g) = 1 iff g is regular modulo f.  A plant
    # is a common variable or a common linear or quadratic form that is not
    # a monomial (one variable has none)
    hypothesis.assume(n >= 2 or plant in ("none", "variable"))
    ring = RingSpec([f"x{i}" for i in range(1, n + 1)], modulus)
    rng = random.Random(seed)
    f = random_form(ring, rng.randrange(0, 3), rng, terms=3)
    g = random_form(ring, rng.randrange(1, 4), rng, terms=3)
    if plant == "variable":
        h = ring.variable(rng.randrange(n))
    elif plant != "none":
        h = random_form(ring, 1 if plant == "linear" else 2, rng, terms=3)
        hypothesis.assume(len(h.terms) >= 2)
    if plant != "none":
        f, g = f * h, g * h
    verdict = gb.coprime(f, g)
    assert verdict == gb.is_regular(gb.buchberger([f]), g), (f, g)
    if plant != "none":
        assert not verdict


@pytest.mark.parametrize("modulus", [None, 32003])
def test_coprime_line_step_needs_the_top_coefficient(modulus):
    # h = x1 - x2 vanishes at a = (1, 1, 1), so on the line s a + b it
    # restricts to the constant b1 - b2 and the restrictions of h u and h v
    # are those of u and v up to a unit: coprime.  Only the check f(a) != 0
    # keeps the line from a wrong True
    ring = RingSpec(["x1", "x2", "x3"], modulus)
    u, v, h = P("x1 + x3", ring), P("x2^2 + 2*x3^2", ring), P("x1 - x2", ring)
    a, b = (1, 1, 1), (3, 5, 11)
    assert gb._coprime_on_line(u, v, a, b)
    assert not gb._coprime_on_line(h * u, h * v, a, b)
    assert not gb.coprime(h * u, h * v)
    # a line through a point off h shows the common root
    assert not gb._coprime_on_line(h * u, h * v, (1, 2, 3), b)


def test_coprime_edge_cases(R, monkeypatch):
    x1, x2, x3 = R.variables()
    # no Buchberger run: a unit is coprime to everything, a common variable
    # decides False, and a generic line decides True
    monkeypatch.setattr(gb, "buchberger", None)
    assert gb.coprime(R.constant(3), x1 * x2)
    assert not gb.coprime(x1 * x2, x1 * x3 + x1 * x2)
    assert gb.coprime(x1 * x2 + x3 ** 2, x1 ** 3 - x2 * x3 ** 2)
    with pytest.raises(gb.JonqError):
        gb.coprime(x1, R.zero())
    with pytest.raises(gb.InhomogeneousError):
        gb.coprime(x1, x2 + R.one())
    with pytest.raises(RingMismatchError):
        gb.coprime(x1, RingSpec(["y1", "y2", "y3"]).variable(0))


@st.composite
def reordered_generators(draw):
    """(generators, the same generators permuted with repeats and zeros) over
    Q or GF(32003): 2-4 forms of degree 1..3 in three variables."""
    ring = RingSpec(["x1", "x2", "x3"], draw(st.sampled_from((None, 32003))))
    monos = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(
        lambda vs: tuple(vs.count(v) for v in range(3)))
    term = st.tuples(monos, st.integers(-5, 5))
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        terms = draw(st.lists(term, min_size=1, max_size=3))
        degree = sum(terms[0][0])
        gens.append(Polynomial(ring, [(m, c) for m, c in terms if sum(m) == degree]))
    extra = draw(st.lists(st.sampled_from(gens + [ring.zero()]), max_size=3))
    return gens, draw(st.permutations(gens + extra))


@settings(max_examples=100, deadline=None)
@given(reordered_generators(), st.data())
def test_reduced_basis_ignores_generator_order_and_repeats(case, data):
    gens, reordered = case
    ring = gens[0].ring
    expected = gb.buchberger(gens).basis
    assert gb.buchberger(reordered, ring=ring).basis == expected
    # extending the basis of A = a prefix by B = the rest is the basis of A + B
    k = data.draw(st.integers(0, len(reordered)))
    head = gb.buchberger(reordered[:k], ring=ring)
    assert gb.extend(head, reordered[k:]).basis == expected
    with pytest.raises(RingMismatchError):
        gb.extend(head, [RingSpec(["y1", "y2", "y3"], ring.modulus).variable(0)])


# ---------- hilbert series ----------

def test_hilbert_single_variable():
    R2 = RingSpec(["x1", "x2"])
    assert gb.hilbert_series_numerator([R2.variable(0)]) == {0: 1, 1: -1}


@pytest.mark.parametrize("modulus", [None, 32003])
def test_variables_numerator_matches_the_hilbert_recursion(modulus):
    # R/(x_1..x_k) in k, k+1 and k+2 variables: (1 - t)^k each time
    for k in range(1, 7):
        for extra in range(3):
            ring = RingSpec([f"x{i}" for i in range(1, k + extra + 1)], modulus)
            support = [ring.variable(i) for i in range(k)]
            assert gb.variables_numerator(k) == gb.hilbert_series_numerator(support)


def test_hilbert_zero_ideal():
    R2 = RingSpec(["x1", "x2"])
    G = gb.buchberger([], ring=R2)
    assert gb.hilbert_series_numerator(G) == {0: 1}


def test_hilbert_rejects_inhomogeneous(R):
    with pytest.raises(gb.InhomogeneousError):
        gb.hilbert_series_numerator([P("x1^2 + x2", R)])
    # a basis keeps its numerator but not a failed homogeneity check
    inhomogeneous = gb.buchberger([P("x1^2 + x2", R)])
    for _ in range(2):
        with pytest.raises(gb.InhomogeneousError):
            gb.hilbert_series_numerator(inhomogeneous)


def test_hilbert_numerator_is_kept_per_basis_and_copied_out(R):
    G = gb.buchberger([P("x1^2", R), P("x1*x2", R)])
    first = gb.hilbert_series_numerator(G)
    assert first == {0: 1, 2: -2, 3: 1}
    first[0] = 0
    assert gb.hilbert_series_numerator(G) == {0: 1, 2: -2, 3: 1}
    assert gb.is_regular(G, R.variable(2))
    assert G._hilbert_numerator is G._hilbert_numerator


def test_hilbert_matches_direct_count_randomized():
    # oracle: brute-force dimension count of graded pieces of R/LT(I)
    rng = random.Random(41)
    R2 = RingSpec(["x1", "x2", "x3"], modulus=101)
    from itertools import combinations_with_replacement
    from jonq.polycore import mono_divides
    for _ in range(25):
        gens = [random_form(R2, rng.randrange(1, 4), rng, terms=2) for _ in range(2)]
        G = gb.buchberger(gens)
        num = gb.hilbert_series_numerator(G)
        lts = [g.lm() for g in G.basis]
        # series of R/I up to degree 6 from the numerator (divide by (1-t)^3)
        series = [0] * 7
        for d, c in num.items():
            if d <= 6:
                series[d] += c
        for _ in range(3):  # multiply by 1/(1-t) = prefix sums
            for k in range(1, 7):
                series[k] += series[k - 1]
        for deg in range(7):
            count = 0
            for combo in combinations_with_replacement(range(3), deg):
                mono = [0, 0, 0]
                for i in combo:
                    mono[i] += 1
                if not any(mono_divides(lt, tuple(mono)) for lt in lts):
                    count += 1
            assert series[deg] == count


def test_hilbert_independent_of_order():
    # the numerator comes from the leading-term ideal, which depends on the
    # order, but the series itself does not
    rng = random.Random(51)
    from jonq.orders import GREVLEX, GRLEX, LEX
    for _ in range(10):
        seed_a, seed_b = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
        values = None
        for order in (GREVLEX, GRLEX, LEX):
            ring = RingSpec(["x1", "x2", "x3"], modulus=101, order=order)
            gens = [random_form(ring, 2, random.Random(seed_a), terms=2),
                    random_form(ring, 3, random.Random(seed_b), terms=2)]
            num = gb.hilbert_series_numerator(gens)
            if values is None:
                values = num
            else:
                assert num == values


def test_dim_and_multiplicity():
    R2 = RingSpec(["x1", "x2"])
    num = gb.hilbert_series_numerator([R2.variable(0)])
    assert gb.dim_and_multiplicity(num, 2) == (1, 1)
    assert gb.dim_and_multiplicity({0: 1}, 2) == (2, 1)
    assert gb.dim_and_multiplicity({}, 2) == (-1, 0)
