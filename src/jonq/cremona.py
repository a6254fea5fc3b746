"""Rational maps between projective spaces and birationality certificates.

A map is an ordered tuple of equal-degree forms in its source ring; the
target ring names the coordinates it maps to.  Birationality is certified
constructively: composing a candidate inverse with the map must return the
identity up to a single nonzero form, the inversion factor.  The certificate
takes both maps in the identity-support shape (x_1 h : .. : x_n h : k), so
the first n coordinates of the composition hold by construction and one
identity of degree about 2d - 1 is left to check (inversion_certificate);
`compose`, the generic coordinatewise composition, is the reference the
tests compare it against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polycore import (
    JonqError,
    Polynomial,
    RingSpec,
    RingMismatchError,
    dot,
    substitute,
)


class MapError(JonqError):
    pass


class RationalMap:
    """Tuple of equal-degree forms from Proj(source) to Proj(target)."""

    __slots__ = ("source", "target", "forms", "degree")

    def __init__(self, source: RingSpec, target: RingSpec, forms):
        forms = tuple(forms)
        if len(forms) != target.nvars:
            raise MapError("coordinate count does not match the target space")
        if all(f.is_zero() for f in forms):
            raise MapError("the zero tuple defines no rational map")
        degree = None
        for f in forms:
            if f.ring != source:
                raise RingMismatchError("coordinate forms must live in the source ring")
            if f.is_zero():
                continue
            if not f.is_homogeneous():
                raise MapError(f"coordinate {f} is not homogeneous")
            d = f.total_degree()
            if degree is None:
                degree = d
            elif d != degree:
                raise MapError("coordinate forms have different degrees")
        self.source = source
        self.target = target
        self.forms = forms
        self.degree = degree

    def __repr__(self):
        return "(" + " : ".join(str(f) for f in self.forms) + ")"

    def __eq__(self, other):
        return (isinstance(other, RationalMap) and self.source == other.source
                and self.target == other.target and self.forms == other.forms)


@dataclass(frozen=True)
class InversionCertificate:
    """Witness that G inverts a map: G(F) = factor * (coordinate variables)."""

    inverse: RationalMap
    factor: Polynomial
    degree: int


@dataclass(frozen=True)
class CertificateFailure:
    index: int
    reason: str


def compose(g: RationalMap, f: RationalMap) -> tuple[Polynomial, ...]:
    """Coordinatewise substitution g(f); no normalization is applied."""
    if f.target != g.source:
        raise RingMismatchError("target of the inner map must be the source of the outer")
    assignment = {name: form for name, form in zip(g.source.names, f.forms)}
    return tuple(substitute(p, assignment) for p in g.forms)


def _shifted(p: Polynomial, i: int, step: int) -> Polynomial | None:
    """p with the exponent of variable i moved by step, or None if one goes
    negative.  Monomial orders are multiplicative, so the term order holds."""
    terms = []
    for mono, c in p.terms:
        e = mono[i] + step
        if e < 0:
            return None
        terms.append((mono[:i] + (e,) + mono[i + 1:], c))
    return Polynomial._raw(p.ring, terms)


def _shape(m: RationalMap) -> tuple[Polynomial, Polynomial]:
    """(h, k) with m = (x_1 h : .. : x_n h : k), x the n+1 source variables."""
    n = m.source.nvars - 1
    h = _shifted(m.forms[0], 0, -1) if n >= 1 and len(m.forms) == n + 1 else None
    if h is None or any(_shifted(h, i, 1) != m.forms[i] for i in range(1, n)):
        raise MapError(f"{m} is not of the form (x_1 h : .. : x_n h : k)")
    return h, m.forms[n]


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


def inversion_certificate(f: RationalMap, g: RationalMap):
    """Certificate that g inverts f, or the first coordinate where it breaks.

    Both maps must have the shape (x_1 h : .. : x_n h : k) (MapError
    otherwise): f = (x_1 a : .. : x_n a : b), g = (y_1 a' : .. : y_n a' : b').
    Then g(f)_i = x_i a a'(f) for i <= n, so the factor is a a'(f) and the
    one identity left is b'(f) = a a'(f) x_{n+1}.  Both sides are pulled back
    through the shape, a'(f) = a^ea pa and b'(f) = a^eb pb (see _pullback),
    and the common power of a is cancelled before comparing; that is exact
    because k[x] is a domain and a != 0 once the factor is nonzero.  The
    check runs in degree about 2d - 1 instead of the d^2 of the composed
    coordinates.  Failures: index 0 when the composition is zero, index n
    when b'(f) is not a a'(f) x_{n+1}.
    """
    if f.target != g.source:
        raise RingMismatchError("target of the inner map must be the source of the outer")
    a, b = _shape(f)
    a2, b2 = _shape(g)
    ea, pa = _pullback(a2, a, b)
    eb, pb = _pullback(b2, a, b)
    factor = a ** (ea + 1) * pa
    n = f.source.nvars - 1
    if not factor:
        if a ** eb * pb:
            return CertificateFailure(n, "coordinate is not proportional")
        return CertificateFailure(0, "composition is identically zero")
    common = min(ea + 1, eb)
    if a ** (eb - common) * pb != a ** (ea + 1 - common) * pa * f.source.variable(n):
        return CertificateFailure(n, "coordinate is not proportional")
    return InversionCertificate(g, factor, int(factor.total_degree()))
