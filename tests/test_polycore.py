"""Polynomial layer: arithmetic, decomposition primitives, text grammar."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
example, given, settings = hypothesis.example, hypothesis.given, hypothesis.settings

from jonq.orders import GREVLEX, LEX  # noqa: E402
from jonq.polycore import (  # noqa: E402
    ArityError,
    DecompositionError,
    JonqError,
    ParseError,
    Polynomial,
    RingMismatchError,
    RingSpec,
    ZERO_DEGREE,
    ZeroDegree,
    degree_in,
    dot,
    exact_div,
    format_polynomial,
    gcd,
    mono_divides,
    mono_minimal,
    parse_polynomial,
    random_form,
    substitute,
    substitution,
    transport,
    x_decompose,
    xprime_order,
)


@pytest.fixture
def R():
    return RingSpec(["x1", "x2", "x3"])


@pytest.fixture
def W():
    """Bigraded ring on (x1,x2,x3 | y1,y2,y3)."""
    return RingSpec(["x1", "x2", "x3", "y1", "y2", "y3"], split=(3, 3))


def P(text, ring):
    return parse_polynomial(text, ring)


FIELDS = (None, 32003)
RINGS = [RingSpec(["x1", "x2", "x3"], modulus) for modulus in FIELDS]


@st.composite
def polynomials(draw, ring):
    """Any polynomial of `ring`: inhomogeneous, constant or zero, with signed
    fractional coefficients (denominators prime to 32003)."""
    monos = st.tuples(*[st.integers(0, 3)] * ring.nvars)
    coeffs = st.fractions(-20, 20, max_denominator=12)
    return Polynomial(ring, draw(st.dictionaries(monos, coeffs, max_size=5)))


@st.composite
def ring_and_polynomials(draw, count):
    ring = draw(st.sampled_from(RINGS))
    return (ring,) + tuple(draw(polynomials(ring)) for _ in range(count))


# ---------- ring construction invariants ----------

def test_ring_rejects_duplicate_names():
    with pytest.raises(ArityError):
        RingSpec(["x1", "x1"])


def test_ring_rejects_composite_modulus():
    with pytest.raises(JonqError):
        RingSpec(["x1"], modulus=32001)
    RingSpec(["x1"], modulus=32003)  # prime: fine


def test_ring_rejects_the_strong_pseudoprime_to_bases_2_to_37():
    # 399165290221 * 798330580441 passes Miller-Rabin for every base 2..37
    with pytest.raises(JonqError, match="is not prime"):
        RingSpec(["x1"], modulus=318665857834031151167461)
    RingSpec(["x1"], modulus=2**61 - 1)  # prime: fine


def test_ring_rejects_a_modulus_beyond_the_exact_primality_bound():
    # the test is exact below 3317044064679887385961981, a strong
    # pseudoprime to every base 2..41
    # the primality test is memoized, but a raise is never cached: it fires
    # on every ring
    for _ in range(2):
        with pytest.raises(JonqError, match="not below 3317044064679887385961981"):
            RingSpec(["x1"], modulus=3317044064679887385961981)


def test_ring_rejects_bad_split():
    with pytest.raises(ArityError):
        RingSpec(["x1", "x2"], split=(2, 1))


# ---------- canonical form (the Polynomial constructor) ----------

def test_normalize_cancellation(R):
    x1 = (1, 0, 0)
    assert Polynomial(R, [(x1, 1), (x1, -1)]).is_zero()


def test_normalize_merge_mod5():
    R5 = RingSpec(["x1", "x2"], modulus=5)
    assert Polynomial(R5, [((1, 1), 2), ((1, 1), 3)]).is_zero()


def test_normalize_grevlex_order(R):
    # oracle: direct order-comparator check (total degree 2 beats 1)
    key = GREVLEX.key_function(3)
    assert key((0, 2, 0)) > key((1, 0, 0))
    p = Polynomial(R, [((0, 2, 0), 1), ((1, 0, 0), 1)])
    assert [m for m, _ in p.terms] == [(0, 2, 0), (1, 0, 0)]


def test_normalize_arity_mismatch(R):
    with pytest.raises(ArityError):
        Polynomial(R, [((1, 0), 1)])


# ---------- multiplication ----------

def test_multiply_difference_of_squares(R):
    x1, x2 = R.variable(0), R.variable(1)
    assert (x1 + x2) * (x1 - x2) == x1 ** 2 - x2 ** 2


def test_multiply_identity(R):
    p = P("x1^2 - x2*x3", R)
    assert p * R.one() == p


def test_multiply_char2():
    R2 = RingSpec(["x1", "x2"], modulus=2)
    x1, x2 = R2.variables()
    assert (x1 + x2) ** 2 == x1 ** 2 + x2 ** 2


def test_multiply_ring_mismatch(R):
    other = RingSpec(["x1", "x2"])
    from jonq.polycore import RingMismatchError
    with pytest.raises(RingMismatchError):
        R.one() * other.one()


def test_dot_is_the_sum_of_products_randomized():
    rng = random.Random(12)
    for modulus in (None, 5):
        ring = RingSpec(["x1", "x2", "x3"], modulus)
        for _ in range(30):
            ps = [random_form(ring, rng.randrange(0, 3), rng) for _ in range(3)]
            qs = [random_form(ring, rng.randrange(0, 3), rng) for _ in range(3)]
            assert dot(ring, ps, qs) == ps[0] * qs[0] + ps[1] * qs[1] + ps[2] * qs[2]
            assert dot(ring, ps, [-q for q in qs]) + dot(ring, ps, qs) == ring.zero()
        assert dot(ring, [], []) == ring.zero()


@settings(max_examples=50, deadline=None)
@given(ring_and_polynomials(6))
def test_dot_matches_termwise_field_arithmetic(case):
    # the reference multiplies and adds coefficients one at a time in the
    # field (Fractions over Q), where dot clears denominators first
    ring, ps, qs = case[0], case[1:4], case[4:]
    acc: dict = {}
    for a, b in zip(ps, qs):
        for m1, c1 in a.terms:
            for m2, c2 in b.terms:
                m = tuple(x + y for x, y in zip(m1, m2))
                acc[m] = acc.get(m, 0) + c1 * c2
    assert dot(ring, ps, qs) == Polynomial(ring, acc)


# ---------- substitute ----------

def test_substitute_e1_relation_vanishes(R, W):
    # oracle: hand expansion of x3*g + x3*(x2*x3) - x1*(x1*x3), written out
    # term by term: x1^2*x3 - x2*x3^2 + x2*x3^2 - x1^2*x3 = 0
    f0 = P("x3*y3 - x1*y1 + x3*y2", W)
    image = substitute(f0, {"y1": P("x1*x3", R), "y2": P("x2*x3", R),
                            "y3": P("x1^2 - x2*x3", R)})
    hand = {}
    for mono, c in [((2, 0, 1), 1), ((0, 1, 2), -1), ((0, 1, 2), 1), ((2, 0, 1), -1)]:
        hand[mono] = hand.get(mono, 0) + c
    assert all(v == 0 for v in hand.values())
    assert image.is_zero()


def test_substitute_identity(W):
    p = P("x3*y3 - x1*y1 + x3*y2", W)
    assert substitute(p, {}) == p


def test_substitute_linear_shift(R):
    x1, x2 = R.variable(0), R.variable(1)
    image = substitute(x1 ** 2, {"x1": x1 + x2})
    assert image == x1 ** 2 + 2 * x1 * x2 + x2 ** 2


def test_substitute_is_morphism_randomized(R):
    rng = random.Random(100)
    target = RingSpec(["x1", "x2", "x3"])
    for _ in range(100):
        p = random_form(R, rng.randrange(1, 3), rng)
        q = random_form(R, rng.randrange(1, 3), rng)
        images = {"x1": random_form(target, 2, rng),
                  "x2": random_form(target, 2, rng),
                  "x3": random_form(target, 2, rng)}
        assert substitute(p + q, images) == substitute(p, images) + substitute(q, images)
        assert substitute(p * q, images) == substitute(p, images) * substitute(q, images)
    assert substitute(R.one(), {"x1": target.variable(0)}) == target.one()


def test_substitute_composition_is_substitution_of_composite(R):
    rng = random.Random(5)
    p = random_form(R, 2, rng)
    a = {"x1": P("x1 + x2", R), "x2": P("x3", R), "x3": P("x1", R)}
    b = {"x1": P("x2^2", R), "x2": P("x1*x3", R), "x3": P("x3^2", R)}
    composite = {k: substitute(v, b) for k, v in a.items()}
    assert substitute(substitute(p, a), b) == substitute(p, composite)


def reference_substitute(p, assignment):
    """The image of p built term by term from Polynomial products: each
    term's coefficient times the product of its variables' image powers."""
    images = {p.ring.var_index(v): img for v, img in assignment.items()}
    target = next(iter(images.values())).ring if images else p.ring
    for i, name in enumerate(p.ring.names):
        if i not in images:
            images[i] = target.variable(name)
    acc = target.zero()
    for mono, c in p.terms:
        image = target.constant(c)
        for i, e in enumerate(mono):
            if e:
                image = image * images[i] ** e
        acc = acc + image
    return acc


@st.composite
def substitutions(draw):
    """(p, assignment): p of degree <= 4 in 3-4 variables over Q, GF(32003) or
    GF(7); a drawn subset of its variables goes to images of degree 0-2 in a
    target ring with other variables and order.  Images repeat or negate
    earlier ones, so terms often cancel."""
    modulus = draw(st.sampled_from((None, 32003, 7)))
    nv = draw(st.integers(3, 4))
    names = [f"x{i}" for i in range(1, nv + 1)]
    src = RingSpec(names, modulus)
    target = RingSpec(["t"] + names[::-1], modulus, order=draw(st.sampled_from((GREVLEX, LEX))))
    coeffs = st.fractions(-6, 6, max_denominator=6)

    def poly(ring, degree, size):
        exps = st.lists(st.integers(0, ring.nvars - 1), max_size=degree).map(
            lambda vs: tuple(vs.count(i) for i in range(ring.nvars)))
        return Polynomial(ring, draw(st.dictionaries(exps, coeffs, max_size=size)))

    p = poly(src, 4, 6)
    assignment: dict = {}
    for name in draw(st.lists(st.sampled_from(names), min_size=1, unique=True)):
        earlier = list(assignment.values())
        if earlier and draw(st.booleans()):
            assignment[name] = draw(st.sampled_from(earlier)) * draw(st.sampled_from((1, -1)))
        else:
            assignment[name] = poly(target, 2, 3)
    return p, assignment


@settings(max_examples=150, deadline=None)
@given(substitutions())
@example((parse_polynomial("x1 - x2 + x3", RingSpec(["x1", "x2", "x3"], 7)),
          {"x1": parse_polynomial("t + x3", RingSpec(["t", "x3"], 7)),
           "x2": parse_polynomial("t", RingSpec(["t", "x3"], 7))}))
@example((parse_polynomial("x1^2*x2 + 6*x1*x2^2 + x2", RingSpec(["x1", "x2", "x3"], 7)),
          {"x1": parse_polynomial("2*t", RingSpec(["t", "x2", "x3"], 7))}))
def test_substitute_matches_termwise_products(case):
    # equality of terms pins the coefficients to the field, the zeros out and
    # the target's order
    p, assignment = case
    assert substitute(p, assignment) == reference_substitute(p, assignment)


@settings(max_examples=80, deadline=None)
@given(substitutions())
def test_one_substitution_maps_many_polynomials(case):
    # the prepared form caches powers and prefix images across the
    # polynomials it maps; each image is still exactly the termwise one
    p, assignment = case
    one = substitution(p.ring, assignment)
    for q in (p, p * p, p + p.ring.one(), -p, p.ring.zero()):
        assert one(q) == reference_substitute(q, assignment)
    other = RingSpec(["z"] + list(p.ring.names), p.ring.modulus)
    with pytest.raises(RingMismatchError):
        one(other.variable(0))


# ---------- degree_in / xprime_order ----------

def test_degree_in_examples(R):
    assert degree_in(P("x1*x3 + x2^2", R), "x3") == 1
    assert degree_in(P("x1^2 - x2*x3", R), "x3") == 1
    assert degree_in(P("x1^2*x2", R), "x3") == 0


def test_degree_in_zero_sentinel(R):
    d = degree_in(R.zero(), "x1")
    assert d == -1
    assert isinstance(d, ZeroDegree)
    assert d is ZERO_DEGREE


def test_xprime_order_block_choice(W):
    p = P("x3*y3 - x1*y1 + x3*y2", W)
    assert xprime_order(p, block=["x1", "x2"]) == 0
    assert xprime_order(p, block=["x1", "x2", "x3"]) == 1


def test_xprime_order_more(W):
    assert xprime_order(P("x1^2*y1 + x1*x2*y2", W), block=["x1", "x2"]) == 2
    assert xprime_order(P("y1", W), block=["x1", "x2"]) == 0


def test_xprime_order_zero_rejected(W):
    with pytest.raises(JonqError):
        xprime_order(W.zero(), block=["x1"])


# ---------- gcd ----------

def test_gcd_coprime(R):
    # independent oracle: the two forms cut out points (affine dim 1), which is
    # impossible when a common factor exists (that would force dim >= 2)
    from jonq import groebner
    p, q = P("x1*x3", R), P("x1^2 - x2*x3", R)
    num = groebner.hilbert_series_numerator([p, q])
    dim, _ = groebner.dim_and_multiplicity(num, 3)
    assert dim == 1
    assert gcd(p, q) == R.one()


def test_gcd_self(R):
    p = P("2*x1^2 - 2*x2*x3", R)
    assert gcd(p, p) == p.monic()


def test_gcd_monomials(R):
    assert gcd(P("x1^2*x2", R), P("x1*x2^2", R)) == P("x1*x2", R)


def test_gcd_divides_and_planted_factor_randomized(R):
    rng = random.Random(42)
    for _ in range(100):
        h = random_form(R, rng.randrange(1, 3), rng, terms=2)
        a = random_form(R, rng.randrange(1, 3), rng, terms=2)
        b = random_form(R, rng.randrange(1, 3), rng, terms=2)
        g = gcd(h * a, h * b)
        # gcd divides both inputs exactly
        assert exact_div(h * a, g) is not None
        assert exact_div(h * b, g) is not None
        # the planted common divisor divides the gcd
        assert exact_div(g, h.monic()) is not None


# ---------- x_decompose ----------

def test_x_decompose_e1(R):
    g = P("x1^2 - x2*x3", R)
    parts = x_decompose(g, block=["x1", "x2"])
    assert parts == (R.variable(0), -R.variable(2))
    assert parts[0] * R.variable(0) + parts[1] * R.variable(1) == g


def test_x_decompose_single_variable(R):
    assert x_decompose(R.variable(0), block=["x1", "x2"]) == (R.one(), R.zero())


def test_x_decompose_e3_relation(W):
    f0 = P("x1*x3 + x2^2", W) * P("y3", W) - P("x1*x3*y1 + x2^2*y2", W)
    parts = x_decompose(f0, block=["x1", "x2"])
    assert parts == (P("x3*y3 - x3*y1", W), P("x2*y3 - x2*y2", W))
    assert parts[0] * W.variable("x1") + parts[1] * W.variable("x2") == f0


def test_x_decompose_error(R):
    with pytest.raises(DecompositionError):
        x_decompose(P("x3^2", R), block=["x1", "x2"])


def test_x_decompose_reexpansion_randomized():
    rng = random.Random(17)
    W = RingSpec(["x1", "x2", "x3", "y1", "y2", "y3"], split=(3, 3))
    for _ in range(100):
        p = random_form(W, 2, rng, block=["x1", "x2"]) * random_form(W, 1, rng)
        parts = x_decompose(p, block=["x1", "x2"])
        acc = W.zero()
        for part, name in zip(parts, ("x1", "x2")):
            acc = acc + part * W.variable(name)
        assert acc == p


# ---------- ring axioms / bidegree properties ----------

def test_ring_axioms_randomized(R):
    rng = random.Random(3)
    for _ in range(100):
        a = random_form(R, rng.randrange(0, 3), rng)
        b = random_form(R, rng.randrange(0, 3), rng)
        c = random_form(R, rng.randrange(0, 3), rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_bidegree_additivity_randomized(W):
    rng = random.Random(9)
    for _ in range(100):
        p = random_form(W, rng.randrange(1, 3), rng, block=["x1", "x2", "x3"]) \
            * random_form(W, rng.randrange(1, 3), rng, block=["y1", "y2", "y3"])
        q = random_form(W, rng.randrange(1, 3), rng, block=["x1", "x2", "x3"]) \
            * random_form(W, rng.randrange(1, 3), rng, block=["y1", "y2", "y3"])
        bp, bq = p.bidegree(), q.bidegree()
        assert bp is not None and bq is not None
        assert (p * q).bidegree() == (bp[0] + bq[0], bp[1] + bq[1])


def test_homogeneous_flag(W):
    assert P("x1*y1 + x2*y2", W).is_homogeneous()
    assert not P("x1 + x2*y2", W).is_homogeneous()
    assert P("x1*y1 + x2*y2", W).bidegree() == (1, 1)
    assert P("x1*x2 + x3*y3", W).bidegree() is None


# ---------- transport / exact_div ----------

def test_transport_by_name(R, W):
    p = P("x1^2 - x2*x3", R)
    q = transport(p, W)
    assert q.ring == W
    assert transport(q, R) == p


def test_transport_missing_variable(R):
    from jonq.polycore import RingMismatchError
    small = RingSpec(["x1", "x2"])
    with pytest.raises(RingMismatchError):
        transport(P("x3", R), small)


def test_exact_div(R):
    p, q = P("x1^2 - x2^2", R), P("x1 + x2", R)
    assert exact_div(p, q) == P("x1 - x2", R)
    assert exact_div(P("x1^2 + x2", R), q) is None


# ---------- text grammar ----------

def test_parse_rational_coefficients(R):
    p = P("1/2*x1 - 3/4*x2", R)
    assert p.coefficient((1, 0, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 1, 0)) == Fraction(-3, 4)


def test_parse_implicit_multiplication(R):
    assert P("2x1^2", R) == P("2*x1^2", R)


def test_parse_errors(R):
    for bad in ("x1^^2", "", "x9", "1/0", "x1 +", "^2", "x1^x2"):
        with pytest.raises(ParseError):
            parse_polynomial(bad, R)


def test_parse_rejects_denominator_divisible_by_modulus():
    Rp = RingSpec(["x1", "x2", "x3"], modulus=101)
    assert P("x1^2 - 1/2*x2*x3", Rp) == P("x1^2 + 50*x2*x3", Rp)
    with pytest.raises(JonqError):
        Rp.coeff(Fraction(-1, 101))
    with pytest.raises(ParseError, match="at position 7"):
        parse_polynomial("x1^2 - 1/101*x2*x3", Rp)


@pytest.mark.parametrize("text, message", [
    ("x1 + x9", "unknown variable 'x9' at position 5"),
    ("x1 +  @", "unexpected character '@' at position 6"),
    ("  x1 * *x2", "dangling '*' at position 5"),
    ("x1^2 + 3/0*x2", "zero denominator at position 7"),
    ("x1 ^ x2", "expected integer exponent after '^' at position 5"),
    ("x1 -", "dangling sign at position 3"),
])
def test_parse_error_positions_point_at_the_token(R, text, message):
    with pytest.raises(ParseError) as info:
        parse_polynomial(text, R)
    assert str(info.value) == message


# the dense homogeneous forms the library samples: random_form over Q and
# GF(32003) in degrees 0..3 with 4 terms
random_forms = st.builds(lambda ring, degree, seed: random_form(ring, degree, random.Random(seed),
                                                               terms=4),
                         st.sampled_from(RINGS), st.integers(0, 3), st.integers(0, 2 ** 32))


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_forms, ring_and_polynomials(1).map(lambda t: t[1])))
@example(RINGS[0].zero())
@example(P("-1/2*x1^3 + 3/4*x2 - 5/3", RINGS[0]))
@example(P("-7/2", RINGS[0]))
@example(P("x1 - 1", RINGS[1]))
def test_format_round_trip_randomized(p):
    text = format_polynomial(p)
    assert parse_polynomial(text, p.ring) == p
    assert (text == "0") == p.is_zero()


@settings(max_examples=100, deadline=None)
@given(ring_and_polynomials(3))
def test_ring_axioms(case):
    ring, a, b, c = case
    zero, one = ring.zero(), ring.one()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a and a - a == zero and a + (-a) == zero
    assert a - b == a + (-b) and -a == a * -1 == zero - a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a and (a * zero).is_zero()
    assert a * (b + c) == a * b + a * c
    assert a ** 2 == a * a


def test_lex_order_differs_from_grevlex():
    RL = RingSpec(["x1", "x2", "x3"], order=LEX)
    p = parse_polynomial("x1 + x2^2", RL)
    assert [m for m, _ in p.terms] == [(1, 0, 0), (0, 2, 0)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), unique=True, max_size=12),
       st.sampled_from([lambda m: (sum(m), m), RingSpec(["x1", "x2", "x3"]).key]))
@example([(1, 1, 0), (1, 0, 0)], lambda m: (sum(m), m))
def test_mono_minimal_keeps_the_monomials_no_other_divides(monos, key):
    # under a degree-compatible key, whatever order the monomials come in
    minimal = [m for m in monos if not any(o != m and mono_divides(o, m) for o in monos)]
    assert mono_minimal(monos, key) == tuple(sorted(minimal, key=key))
