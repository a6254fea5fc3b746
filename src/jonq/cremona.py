"""Rational maps between projective spaces and birationality certificates.

A map is an ordered tuple of equal-degree forms in its source ring; the
target ring names the coordinates it maps to.  Birationality is certified
constructively: composing a candidate inverse with the map must return the
identity up to a single nonzero form, the inversion factor.

`downgrade_general` is the one downgrading loop: it trades content in the
first n source variables for support-inverse forms, starting from a syzygy
of the coordinates.  The identity-support sequence of dejonq is the case
of the identity support map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polycore import (
    JonqError,
    Polynomial,
    RingSpec,
    RingMismatchError,
    dot,
    exact_div,
    substitute,
    transport,
    x_decompose,
    xprime_order,
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

    def base_ideal(self) -> list[Polynomial]:
        return [f for f in self.forms if f]

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


def gcd_many(forms) -> Polynomial:
    from .polycore import gcd
    nz = [f for f in forms if f]
    if not nz:
        raise MapError("all forms are zero")
    acc = nz[0]
    for f in nz[1:]:
        if acc.total_degree() == 0:
            break
        acc = gcd(acc, f)
    return acc.monic()


def normalize_map(forms, source: RingSpec, target: RingSpec) -> RationalMap:
    """Divide out the common factor of the coordinates; idempotent."""
    forms = tuple(forms)
    if all(not f for f in forms):
        raise MapError("cannot normalize the zero map")
    g = gcd_many(forms)
    if g.total_degree() == 0:
        return RationalMap(source, target, forms)
    out = []
    for f in forms:
        if f.is_zero():
            out.append(f)
            continue
        q = exact_div(f, g)
        if q is None:
            raise MapError("common factor does not divide a coordinate")
        out.append(q)
    return RationalMap(source, target, out)


def inversion_certificate(f: RationalMap, g: RationalMap):
    """Certificate that g inverts f, or the first coordinate where it breaks.

    Success means g(f) = factor * (x_1, ..., x_m) exactly for one nonzero
    factor, computed as the exact quotient of the first nonzero composed
    coordinate by its variable.
    """
    comp = compose(g, f)
    xs = f.source.variables()
    if len(comp) != len(xs):
        raise MapError("composition does not land back in the source space")
    pivot = next((i for i, c in enumerate(comp) if c), None)
    if pivot is None:
        return CertificateFailure(0, "composition is identically zero")
    factor = exact_div(comp[pivot], xs[pivot])
    if factor is None:
        return CertificateFailure(pivot, "composed coordinate not divisible by its variable")
    for i, c in enumerate(comp):
        if c != factor * xs[i]:
            return CertificateFailure(i, "coordinate is not proportional")
    return InversionCertificate(g, factor, int(factor.total_degree()))


def downgrade_general(j: RationalMap, syzygy, support_inverse) -> list[Polynomial]:
    """Fully downgraded sequence attached to a syzygy of j's coordinates.

    `syzygy` is a tuple of forms in j's source ring with nonzero last entry
    satisfying sum_i syzygy_i * j_i = 0; `support_inverse` lists the n forms
    (in the first n target variables) inverting the support map.  Trades one
    order of content in the first n source variables for support forms per
    step; returns the biforms F_1 .. F_{delta+1} in the combined bigraded
    ring, where delta is the largest k with every syzygy entry inside the
    k-th power of the ideal of the first n source variables.
    """
    n = j.source.nvars - 1
    syzygy = tuple(syzygy)
    if len(syzygy) != n + 1:
        raise MapError("syzygy length does not match the coordinate count")
    if syzygy[-1].is_zero():
        raise MapError("syzygy must have a nonzero last coordinate")
    if dot(j.source, syzygy, j.forms):
        raise MapError("input is not a syzygy of the coordinate forms")
    degrees = {z.total_degree() for z in syzygy if z}
    if len(degrees) != 1 or any(not z.is_homogeneous() for z in syzygy if z):
        raise MapError("syzygy entries must be homogeneous of one degree")
    support_inverse = tuple(support_inverse)
    if len(support_inverse) != n:
        raise MapError("support inverse must have n coordinates")
    if any(h.is_zero() or not h.is_homogeneous() for h in support_inverse):
        raise MapError("support inverse coordinates must be nonzero forms")
    if len({h.total_degree() for h in support_inverse}) > 1:
        raise MapError("support inverse coordinates have inconsistent degrees")

    xblock = j.source.names[:n]
    delta = min(xprime_order(z, block=xblock) for z in syzygy if z)

    work = RingSpec(j.source.names + j.target.names, j.source.modulus,
                    split=(j.source.nvars, j.target.nvars))
    ys = [work.variable(nm) for nm in j.target.names]
    hs = [transport(h, work) for h in support_inverse]
    current = dot(work, ys, [transport(z, work) for z in syzygy])
    out = [current]
    for step in range(delta):
        nxt = dot(work, x_decompose(current, block=xblock), hs)
        if nxt.is_zero():
            raise MapError(f"downgrading collapsed to zero at step {step + 1}")
        out.append(nxt)
        current = nxt
    return out
