"""Birationality certificates for identity-support maps, and composition.

Every map here has the shape (x_1 f : .. : x_n f : g) in n+1 variables, so
it is given by its two forms f and g.  Birationality is certified
constructively: composing a candidate inverse with the map must return the
identity up to a single nonzero form, the inversion factor.  Given the four
forms of the map and its candidate inverse, the first n coordinates of the
composition hold by construction and one identity of degree about 2d - 1 is
left to check (inversion_certificate); `compose`, the generic coordinatewise
composition of two tuples of forms, is the reference the tests compare it
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polycore import Polynomial, RingMismatchError, dot, substitute


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
    assignment = dict(zip(ring.names, inner))
    return tuple(substitute(p, assignment) for p in outer)


def _pullback(u: Polynomial, h: Polynomial, k: Polynomial) -> tuple[int, Polynomial]:
    """(e, P) with u(x_1 h, .., x_n h, k) = h^e P for a form u in n+1 variables.

    With u = sum_j u_j(y_1..y_n) y_{n+1}^j of degree t and top power m,
    u(x' h, k) = h^(t-m) sum_j u_j(x') h^(m-j) k^j; variable i of u's ring
    goes to variable i of h's ring."""
    ring = h.ring
    if not u:
        return 0, ring.zero()
    n = ring.nvars - 1
    parts: dict[int, list] = {}
    for mono, c in u.terms:
        parts.setdefault(mono[n], []).append((mono[:n] + (0,), c))
    top = max(parts)
    return (sum(u.terms[0][0]) - top,
            dot(ring, [Polynomial(ring, terms) for terms in parts.values()],
                [h ** (top - j) * k ** j for j in parts]))


def inversion_certificate(f: Polynomial, g: Polynomial,
                          fprime: Polynomial, gprime: Polynomial):
    """Certificate that G = (y_1 f' : .. : y_n f' : g') inverts
    J = (x_1 f : .. : x_n f : g), or the first coordinate where it breaks.

    f and g share one ring in n+1 variables x; f' and g' share one ring in
    n+1 variables y over the same field (RingMismatchError otherwise), and
    variable i of it is sent to coordinate i of J.  G(J)_i = x_i f f'(J) for
    i <= n, so the factor is f f'(J) and the one identity left is
    g'(J) = f f'(J) x_{n+1}.  Both sides are pulled back through the shape,
    f'(J) = f^ea pa and g'(J) = f^eb pb (see _pullback), and the common
    power of f is cancelled before comparing; that is exact because k[x] is
    a domain and f != 0 once the factor is nonzero.  The check runs in
    degree about 2d - 1 instead of the d^2 of the composed coordinates.
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
    ea, pa = _pullback(fprime, f, g)
    eb, pb = _pullback(gprime, f, g)
    factor = f ** (ea + 1) * pa
    n = ring.nvars - 1
    if not factor:
        if f ** eb * pb:
            return CertificateFailure(n, "coordinate is not proportional")
        return CertificateFailure(0, "composition is identically zero")
    common = min(ea + 1, eb)
    if f ** (eb - common) * pb != f ** (ea + 1 - common) * pa * ring.variable(n):
        return CertificateFailure(n, "coordinate is not proportional")
    return InversionCertificate(factor, int(factor.total_degree()))
