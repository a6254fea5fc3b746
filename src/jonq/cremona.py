"""Birationality certificates for identity-support maps, and composition.

Every map here has the shape (x_1 f : .. : x_n f : g) in n+1 variables, so
it is given by its two forms f and g.  Birationality is certified
constructively: composing a candidate inverse with the map must return the
identity up to a single nonzero form, the inversion factor.  Given the four
forms of the map and its candidate inverse, the first n coordinates of the
composition hold by construction and one identity of degree about 2d - 1 is
left to check (inversion_certificate), by pulling forms back through the
shape (`pullback`), as the Rees certificate tests P in J.  The powers of
the map's forms and the pulled-back forms stay {monomial: int} dicts over a
denominator (1 over GF(p)), products of `polycore._product`; only the
inversion factor becomes a Polynomial.  `compose`, the generic
coordinatewise composition of two tuples of forms, is the reference the
tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .polycore import Polynomial, RingMismatchError, substitution
from .polycore import _dot_numerators, _from_numerators, _nonzero, _numerators, _product


@dataclass(frozen=True)
class InversionCertificate:
    """Witness that the candidate inverts the map: its composition with the
    map is factor * (coordinate variables)."""

    factor: Polynomial
    degree: int


@dataclass(frozen=True)
class CertificateFailure:
    index: int
    reason: str


def compose(outer, inner) -> tuple[Polynomial, ...]:
    """Coordinatewise substitution: variable i of the outer forms' ring goes
    to inner[i]; no normalization is applied."""
    ring = outer[0].ring
    if len(inner) != ring.nvars:
        raise RingMismatchError("the inner map needs one form per variable of the outer ring")
    image_of = substitution(ring, dict(zip(ring.names, inner)))
    return tuple(image_of(p) for p in outer)


def ladder(h: Polynomial, k: Polynomial):
    """power(a, b) = h^a k^b as an ({monomial: int}, denominator) pair, unreduced
    over GF(p); each is built once, from one below it, by `polycore._product`."""
    hk = [(dict(terms), den) for terms, den in map(_numerators, (h, k))]
    built = {(0, 0): ({(0,) * h.ring.nvars: 1}, 1)}

    def power(a: int, b: int) -> tuple:
        got = built.get((a, b))
        if got is None:
            got = built[(a, b)] = (_product(power(a - 1, b), hk[0]) if a
                                   else _product(power(0, b - 1), hk[1]))
        return got
    return power


def pullback(u: Polynomial, power) -> tuple[int, tuple]:
    """(s, (P, den)) with u(x, x_1 h, .., x_n h, k) = h^s P / den, P an
    unreduced {monomial: int} dict, power(a, b) = h^a k^b (see `ladder`).
    u's ring is k[y_1..y_{n+1}] or k[x, y], x the n+1 variables of h's
    ring, which stay.  A term x^a y'^b y_{n+1}^e goes to x^a x'^b h^|b| k^e;
    with u_{e,t} the terms of y_{n+1}-degree e and y'-degree t, read with y'
    as x', and s the least t, P / den = sum u_{e,t}(x, x') h^(t - s) k^e.
    For h != 0, u goes to 0 exactly when P is 0 in the field
    (`polycore._nonzero`), k[x] being a domain."""
    no_x = next(iter(power(0, 0)[0]))
    if not u:
        return 0, ({}, 1)
    n = len(no_x) - 1
    nx = u.ring.nvars - n - 1  # 0, or n+1: the x that stay
    terms, den = _numerators(u)
    parts: dict[tuple[int, int], dict] = {}
    for mono, c in terms:
        ys = mono[nx:]
        part = parts.setdefault((ys[n], sum(ys[:n])), {})
        m = tuple(map(add, mono[:nx] or no_x, ys[:n] + (0,)))
        part[m] = part.get(m, 0) + c
    low = min(s for _, s in parts)
    pairs = []
    for (e, s), part in parts.items():
        pw, dp = power(s - low, e)
        pairs.append(((part.items(), den), (pw.items(), dp)))
    return low, _dot_numerators(pairs)


def inversion_certificate(f: Polynomial, g: Polynomial,
                          fprime: Polynomial, gprime: Polynomial):
    """Certificate that G = (y_1 f' : .. : y_n f' : g') inverts
    J = (x_1 f : .. : x_n f : g), or the first coordinate where it breaks.

    f and g share one ring in n+1 variables x; f' and g' share one ring in
    n+1 variables y over the same field (RingMismatchError otherwise), and
    variable i of it is sent to coordinate i of J.  G(J)_i = x_i f f'(J) for
    i <= n, so the factor is f f'(J) and the one identity left is
    g'(J) = f f'(J) x_{n+1}.  Both sides are pulled back through the shape,
    f'(J) = f^ea pa and g'(J) = f^eb pb (see `pullback`), and the common
    power of f is cancelled before comparing; that is exact because k[x] is
    a domain and f != 0 once the factor is nonzero.  The check runs in
    degree about 2d - 1 instead of the d^2 of the composed coordinates, on
    int dicts: reduced mod p over GF(p), with the denominators
    cross-multiplied over Q.  Only the factor f^(ea+1) pa is made a
    Polynomial.
    Failures: index 0 when the composition is zero, index n when g'(J) is
    not f f'(J) x_{n+1}.
    """
    ring = f.ring
    if g.ring != ring:
        raise RingMismatchError("f and g live in different rings")
    if (gprime.ring != fprime.ring or fprime.ring.nvars != ring.nvars
            or fprime.ring.modulus != ring.modulus):
        raise RingMismatchError(
            "f' and g' need one ring with as many variables as the ring of f, over its field")
    mod, n = ring.modulus, ring.nvars - 1
    power = ladder(f, g)
    ea, pa = pullback(fprime, power)
    eb, pb = pullback(gprime, power)
    factor = _product(power(ea + 1, 0), pa)
    if not _nonzero(factor[0], mod):
        if _nonzero(_product(power(eb, 0), pb)[0], mod):
            return CertificateFailure(n, "coordinate is not proportional")
        return CertificateFailure(0, "composition is identically zero")
    common = min(ea + 1, eb)
    (lhs, dl), (rhs, dr) = (_product(power(eb - common, 0), pb),
                            _product(power(ea + 1 - common, 0), pa))
    rhs = {m[:n] + (m[n] + 1,): v for m, v in rhs.items()}  # times x_{n+1}
    if _nonzero(lhs, mod, dr) != _nonzero(rhs, mod, dl):
        return CertificateFailure(n, "coordinate is not proportional")
    factor = _from_numerators(ring, *factor)
    return InversionCertificate(factor, int(factor.total_degree()))
