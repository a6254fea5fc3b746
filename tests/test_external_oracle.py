"""Cross-check the Groebner engine against sympy on random ideals.

The reduced Groebner basis under a fixed order is unique, so the two
implementations must produce identical bases.  Elimination ideals,
intersections, colons and kernels are checked against an independent
recipe: a sympy lex basis with the eliminated block first, its block-free
elements, then sympy's reduced grevlex basis of those.  Skipped when sympy
is not installed; the library itself never imports it.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

import oracles
from jonq import groebner as gb
from jonq.orders import GREVLEX, LEX
from jonq.polycore import JonqError, Polynomial, RingSpec, random_form, transport


def to_sympy(p, sring, sgens):
    expr = 0
    for mono, c in p.terms:
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else int(c)
        for g, e in zip(sgens, mono):
            if e:
                term *= g ** e
        expr += term
    return expr


def from_sympy(poly, ring):
    terms = []
    for mono, c in zip(poly.monoms(), poly.coeffs()):
        if ring.modulus is None:
            val = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
        else:
            val = int(c) % ring.modulus
        terms.append((tuple(mono), val))
    return Polynomial(ring, terms)


@pytest.mark.parametrize("modulus,order,sympy_order", [
    (None, GREVLEX, "grevlex"),
    (None, LEX, "lex"),
    (32003, GREVLEX, "grevlex"),
])
def test_reduced_basis_matches_sympy(modulus, order, sympy_order):
    rng = random.Random(1234 if modulus else 4321)
    ring = RingSpec(["x1", "x2", "x3"], modulus=modulus, order=order)
    domain = sympy.QQ if modulus is None else sympy.GF(modulus)
    sgens = sympy.symbols("x1 x2 x3")
    for _ in range(40):
        gens = [random_form(ring, rng.randrange(1, 4), rng, terms=rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 4))]
        ours = gb.buchberger(gens)
        theirs = sympy.groebner([to_sympy(g, None, sgens) for g in gens],
                                *sgens, order=sympy_order, domain=domain)
        converted = sorted((from_sympy(p.as_poly(*sgens, domain=domain), ring).monic()
                            for p in theirs.exprs),
                           key=lambda p: ring.key(p.lm()))
        assert list(ours.basis) == converted, (gens, ours.basis, converted)


# ---------- elimination, intersection, colon, kernel ----------

FIELDS = [(None, 2024), (32003, 2025)]


def sympy_domain(modulus):
    return sympy.QQ if modulus is None else sympy.GF(modulus)


def sympy_eliminate(exprs, block, rest, domain):
    """Reduced grevlex basis of (exprs) contracted to k[rest], block eliminated."""
    lex = sympy.groebner(exprs, *block, *rest, order="lex", domain=domain)
    kept = [p for p in lex.exprs if not p.free_symbols & set(block)]
    if not kept:
        return []
    return list(sympy.groebner(kept, *rest, order="grevlex", domain=domain).exprs)


def converted(exprs, rest, ring, domain):
    """sympy expressions in `rest` as monic polynomials of `ring`, sorted by lead term."""
    small = RingSpec([str(s) for s in rest], ring.modulus)
    polys = [transport(from_sympy(sympy.Poly(e, *rest, domain=domain), small), ring).monic()
             for e in exprs]
    return sorted(polys, key=lambda p: ring.key(p.lm()))


def random_ideal(ring, rng):
    return [random_form(ring, rng.randrange(1, 3), rng, terms=rng.randrange(1, 4))
            for _ in range(rng.randrange(1, 4))]


@pytest.mark.parametrize("modulus,seed", FIELDS)
def test_eliminate_matches_sympy(modulus, seed):
    rng = random.Random(seed)
    ring = RingSpec(["x1", "x2", "x3", "x4"], modulus=modulus)
    domain = sympy_domain(modulus)
    sgens = sympy.symbols("x1 x2 x3 x4")
    for _ in range(20):
        gens = random_ideal(ring, rng)
        nblock = rng.randrange(1, 3)
        theirs = sympy_eliminate([to_sympy(g, None, sgens) for g in gens],
                                 sgens[:nblock], sgens[nblock:], domain)
        expected = converted(theirs, sgens[nblock:], ring, domain)
        assert gb.eliminate(gens, nblock) == expected, (gens, nblock)


@pytest.mark.parametrize("modulus,seed", FIELDS)
def test_intersect_and_colon_match_sympy(modulus, seed):
    rng = random.Random(seed)
    ring = RingSpec(["x1", "x2", "x3"], modulus=modulus)
    domain = sympy_domain(modulus)
    sgens = sympy.symbols("x1 x2 x3")
    t = sympy.Symbol("t")
    for _ in range(10):
        gens_a, gens_b = random_ideal(ring, rng), random_ideal(ring, rng)
        a = [to_sympy(g, None, sgens) for g in gens_a]
        b = [to_sympy(g, None, sgens) for g in gens_b]
        theirs = sympy_eliminate([t * e for e in a] + [(1 - t) * e for e in b],
                                 (t,), sgens, domain)
        assert gb.intersect(gens_a, gens_b) == converted(theirs, sgens, ring, domain)

        f = gens_b[0]
        inter = sympy_eliminate([t * e for e in a] + [(1 - t) * b[0]], (t,), sgens, domain)
        quotients = [sympy.Poly(h, *sgens, domain=domain).exquo(
            sympy.Poly(b[0], *sgens, domain=domain)).as_expr() for h in inter]
        reduced = sympy.groebner(quotients, *sgens, order="grevlex", domain=domain).exprs
        assert gb.colon(gens_a, f) == converted(reduced, sgens, ring, domain), (gens_a, f)


@pytest.mark.parametrize("modulus,seed", FIELDS)
def test_kernel_matches_sympy(modulus, seed):
    # implicit equations of random maps P^1 -> P^2 by forms of degree 1..3,
    # then a Rees-shaped kernel that fixes the shared variables x1, x2
    rng = random.Random(seed)
    source = RingSpec(["s1", "s2"], modulus=modulus)
    target = RingSpec(["y1", "y2", "y3"], modulus=modulus)
    domain = sympy_domain(modulus)
    xs = sympy.symbols("s1 s2")
    ys = sympy.symbols("y1 y2 y3")
    for _ in range(8):
        degree = rng.randrange(1, 4)
        forms = [random_form(source, degree, rng, terms=rng.randrange(1, 4)) for _ in ys]
        theirs = sympy_eliminate([y - to_sympy(f, None, xs) for y, f in zip(ys, forms)],
                                 xs, ys, domain)
        images = dict(zip(target.names, forms))
        assert oracles.kernel(target, images) == converted(theirs, ys, target, domain), forms

    tx = RingSpec(["t", "x1", "x2"], modulus=modulus)
    t = tx.variable("t")
    shared = RingSpec(["x1", "x2", "y1", "y2"], modulus=modulus)
    sgens = sympy.symbols("t x1 x2")
    rest = sympy.symbols("x1 x2 y1 y2")
    for _ in range(4):
        degree = rng.randrange(1, 3)
        forms = [random_form(tx, degree, rng, terms=rng.randrange(1, 4), block=["x1", "x2"])
                 for _ in range(2)]
        theirs = sympy_eliminate([y - sgens[0] * to_sympy(f, None, sgens)
                                  for y, f in zip(rest[2:], forms)],
                                 sgens[:1], rest, domain)
        kernel = oracles.kernel(shared, {"y1": t * forms[0], "y2": t * forms[1]})
        assert kernel == converted(theirs, rest, shared, domain), forms
    # a mapped target variable that also names a source variable is refused:
    # the elimination ring would identify the two
    with pytest.raises(JonqError):
        oracles.kernel(shared, {"x2": t * tx.variable("x1")})
