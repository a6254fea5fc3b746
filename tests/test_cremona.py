"""Rational maps: composition, inversion certificates."""

import random

import pytest

from jonq import dejonq
from jonq.cremona import (
    CertificateFailure,
    InversionCertificate,
    MapError,
    RationalMap,
    compose,
    inversion_certificate,
)
from jonq.polycore import RingSpec, exact_div, parse_polynomial


def P(text, ring):
    return parse_polynomial(text, ring)


@pytest.fixture
def rx():
    return RingSpec(["x1", "x2", "x3"])


@pytest.fixture
def ry():
    return RingSpec(["y1", "y2", "y3"])


def e1_map(rx, ry):
    forms = (P("x1*x3", rx), P("x2*x3", rx), P("x1^2 - x2*x3", rx))
    return RationalMap(rx, ry, forms)


def e1_inverse(rx, ry):
    forms = (P("y1*y2 + y1*y3", ry), P("y2^2 + y2*y3", ry), P("y1^2", ry))
    return RationalMap(ry, rx, forms)


# ---------- compose ----------

def test_compose_identity(rx, ry):
    j = e1_map(rx, ry)
    comp = compose(RationalMap(ry, ry, ry.variables()), j)
    assert comp == j.forms


def test_compose_e1_with_inverse(rx, ry):
    # oracle: hand expansion, e.g. y1*(y2+y3) at (x1*x3, x2*x3, x1^2-x2*x3)
    # gives x1*x3 * x1^2 = x1^3*x3
    j, g = e1_map(rx, ry), e1_inverse(rx, ry)
    comp = compose(g, j)
    assert comp == (P("x1^3*x3", rx), P("x1^2*x2*x3", rx), P("x1^2*x3^2", rx))


def test_compose_projection(rx, ry):
    proj = RationalMap(ry, RingSpec(["y1", "y2"]), (P("y1", ry), P("y2", ry)))
    comp = compose(proj, e1_map(rx, ry))
    assert comp == (P("x1*x3", rx), P("x2*x3", rx))


# ---------- inversion certificates ----------

def test_certificate_identity(rx):
    identity = RationalMap(rx, rx, rx.variables())
    cert = inversion_certificate(identity, identity)
    assert isinstance(cert, InversionCertificate)
    assert cert.factor == rx.one()
    assert cert.degree == 0


def test_certificate_e2():
    rx4 = RingSpec(["x1", "x2", "x3", "x4"])
    ry4 = RingSpec(["y1", "y2", "y3", "y4"])
    f, g = P("x4", rx4), P("x1*x2 - x3*x4", rx4)
    j = RationalMap(rx4, ry4, (P("x1", rx4) * f, P("x2", rx4) * f, P("x3", rx4) * f, g))
    ginv = RationalMap(ry4, rx4, (P("y1*y3 + y1*y4", ry4), P("y2*y3 + y2*y4", ry4),
                                  P("y3^2 + y3*y4", ry4), P("y1*y2", ry4)))
    cert = inversion_certificate(j, ginv)
    assert isinstance(cert, InversionCertificate)
    assert cert.factor == P("x1*x2*x4", rx4)
    assert cert.degree == 3  # d^2 - 1 with d = 2


def test_certificate_sign_failure(rx, ry):
    # the displayed inverse with last coordinate -y1^2 breaks at coordinate 3
    g = RationalMap(ry, rx, (P("y1*y2 + y1*y3", ry), P("y2^2 + y2*y3", ry),
                             P("0 - y1^2", ry)))
    cert = inversion_certificate(e1_map(rx, ry), g)
    assert isinstance(cert, CertificateFailure)
    assert cert.index == 2


def test_certificate_symmetric(rx, ry):
    # composing the other way around also certifies, with equal factor degree
    j, g = e1_map(rx, ry), e1_inverse(rx, ry)
    cert = inversion_certificate(j, g)
    cert_rev = inversion_certificate(g, j)
    assert isinstance(cert, InversionCertificate)
    assert isinstance(cert_rev, InversionCertificate)
    assert cert.degree == cert_rev.degree == 3


def test_certificate_rejects_map_without_shape(rx, ry):
    j, g = e1_map(rx, ry), e1_inverse(rx, ry)
    swapped = RationalMap(rx, ry, (j.forms[2], j.forms[1], j.forms[0]))
    with pytest.raises(MapError, match="not of the form"):
        inversion_certificate(swapped, g)
    # y1 (y2 + y3) and y2 y2 share no h
    broken = RationalMap(ry, rx, (g.forms[0], P("y2^2", ry), g.forms[2]))
    with pytest.raises(MapError, match="not of the form"):
        inversion_certificate(j, broken)
    with pytest.raises(MapError, match="not of the form"):
        inversion_certificate(j, RationalMap(ry, rx, (g.forms[1], g.forms[0], g.forms[2])))


def composed_certificate(f, g):
    """Reference: compose coordinate by coordinate, divide the first nonzero
    coordinate by its variable, and return (factor, first failing index)."""
    comp = compose(g, f)
    xs = f.source.variables()
    pivot = next(i for i, c in enumerate(comp) if c)
    factor = exact_div(comp[pivot], xs[pivot])
    bad = next((i for i, c in enumerate(comp) if factor is None or c != factor * xs[i]), None)
    return factor, bad


@pytest.mark.parametrize("modulus", [None, 101, 32003])
def test_certificate_matches_composition_randomized(modulus):
    rng = random.Random(17 if modulus is None else modulus)
    grid = [(1, 2)] + [(n, d) for n in (2, 3, 4) for d in (2, 3, 4, 5)]
    for n, d in grid:
        j = dejonq.random_map(n, d, rng, modulus)
        _, cert = dejonq.inverse(j)
        f, g = j.rational_map(), cert.inverse
        assert composed_certificate(f, g) == (cert.factor, None)
        assert inversion_certificate(f, g) == cert
        # a different last coordinate keeps the shape and breaks coordinate n
        ys = g.source.variables()
        wrong = RationalMap(g.source, g.target, g.forms[:n] + (g.forms[n] + ys[0] ** d,))
        assert inversion_certificate(f, wrong) == CertificateFailure(
            n, "coordinate is not proportional")
        assert composed_certificate(f, wrong) == (cert.factor, n)


def test_certificate_degenerate_compositions(rx, ry):
    # (0 : 0 : x1^2) sends the inverse of e1 to (0, 0, 0)
    flat = RationalMap(rx, ry, (rx.zero(), rx.zero(), P("x1^2", rx)))
    assert inversion_certificate(flat, e1_inverse(rx, ry)) == CertificateFailure(
        0, "composition is identically zero")
    # (0 : 0 : y1^2) composes to (0, 0, x1^2 x3^2), not proportional to x
    last_only = RationalMap(ry, rx, (ry.zero(), ry.zero(), P("y1^2", ry)))
    assert inversion_certificate(e1_map(rx, ry), last_only) == CertificateFailure(
        2, "coordinate is not proportional")
    assert compose(last_only, e1_map(rx, ry)) == (rx.zero(), rx.zero(), P("x1^2*x3^2", rx))
