"""Rational maps between projective spaces and birationality certificates.

A map is an ordered tuple of equal-degree forms in its source ring; the
target ring names the coordinates it maps to.  Birationality is certified
constructively: composing a candidate inverse with the map must return the
identity up to a single nonzero form, the inversion factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polycore import (
    JonqError,
    Polynomial,
    RingSpec,
    RingMismatchError,
    exact_div,
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

