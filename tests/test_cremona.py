"""Composition and inversion certificates."""

import random

import pytest

from jonq import dejonq
from jonq.cremona import (
    CertificateFailure,
    InversionCertificate,
    compose,
    inversion_certificate,
)
from jonq.polycore import RingMismatchError, RingSpec, exact_div, parse_polynomial


def P(text, ring):
    return parse_polynomial(text, ring)


def shape(h, k):
    """The coordinates (x_1 h : .. : x_n h : k) in the n+1 variables of k's ring."""
    xs = k.ring.variables()
    return tuple(x * h for x in xs[:-1]) + (k,)


@pytest.fixture
def rx():
    return RingSpec(["x1", "x2", "x3"])


@pytest.fixture
def ry():
    return RingSpec(["y1", "y2", "y3"])


def e1_forms(rx):
    """(f, g) of e1 = (x1 x3 : x2 x3 : x1^2 - x2 x3)."""
    return P("x3", rx), P("x1^2 - x2*x3", rx)


def e1_inverse_forms(ry):
    """(f', g') of its inverse (y1 y2 + y1 y3 : y2^2 + y2 y3 : y1^2)."""
    return P("y2 + y3", ry), P("y1^2", ry)


# ---------- compose ----------

def test_compose_identity(rx, ry):
    j = shape(*e1_forms(rx))
    assert compose(tuple(ry.variables()), j) == j


def test_compose_e1_with_inverse(rx, ry):
    # oracle: hand expansion, e.g. y1*(y2+y3) at (x1*x3, x2*x3, x1^2-x2*x3)
    # gives x1*x3 * x1^2 = x1^3*x3
    j, g = shape(*e1_forms(rx)), shape(*e1_inverse_forms(ry))
    assert g == (P("y1*y2 + y1*y3", ry), P("y2^2 + y2*y3", ry), P("y1^2", ry))
    comp = compose(g, j)
    assert comp == (P("x1^3*x3", rx), P("x1^2*x2*x3", rx), P("x1^2*x3^2", rx))


def test_compose_projection(rx, ry):
    comp = compose((P("y1", ry), P("y2", ry)), shape(*e1_forms(rx)))
    assert comp == (P("x1*x3", rx), P("x2*x3", rx))


def test_compose_needs_one_form_per_outer_variable(rx, ry):
    j = shape(*e1_forms(rx))
    with pytest.raises(RingMismatchError, match="one form per variable"):
        compose(tuple(ry.variables()), j[:2])
    with pytest.raises(RingMismatchError, match="one form per variable"):
        compose((P("y1", ry),), j + (P("x1^2", rx),))


# ---------- inversion certificates ----------

def test_certificate_identity(rx):
    # (x1 : x2 : x3) = (x1 * 1 : x2 * 1 : x3)
    cert = inversion_certificate(rx.one(), P("x3", rx), rx.one(), P("x3", rx))
    assert isinstance(cert, InversionCertificate)
    assert cert.factor == rx.one()
    assert cert.degree == 0


def test_certificate_e2():
    rx4 = RingSpec(["x1", "x2", "x3", "x4"])
    ry4 = RingSpec(["y1", "y2", "y3", "y4"])
    f, g = P("x4", rx4), P("x1*x2 - x3*x4", rx4)
    fprime, gprime = P("y3 + y4", ry4), P("y1*y2", ry4)
    assert shape(fprime, gprime) == (P("y1*y3 + y1*y4", ry4), P("y2*y3 + y2*y4", ry4),
                                     P("y3^2 + y3*y4", ry4), P("y1*y2", ry4))
    cert = inversion_certificate(f, g, fprime, gprime)
    assert isinstance(cert, InversionCertificate)
    assert cert.factor == P("x1*x2*x4", rx4)
    assert cert.degree == 3  # d^2 - 1 with d = 2


def test_certificate_sign_failure(rx, ry):
    # the displayed inverse with last coordinate -y1^2 breaks at coordinate 3
    fprime, _ = e1_inverse_forms(ry)
    cert = inversion_certificate(*e1_forms(rx), fprime, P("0 - y1^2", ry))
    assert isinstance(cert, CertificateFailure)
    assert cert.index == 2


def test_certificate_symmetric(rx, ry):
    # composing the other way around also certifies, with equal factor degree
    j, g = e1_forms(rx), e1_inverse_forms(ry)
    cert = inversion_certificate(*j, *g)
    cert_rev = inversion_certificate(*g, *j)
    assert isinstance(cert, InversionCertificate)
    assert isinstance(cert_rev, InversionCertificate)
    assert cert.degree == cert_rev.degree == 3


def test_certificate_rejects_mismatched_rings(rx, ry):
    f, g = e1_forms(rx)
    fprime, gprime = e1_inverse_forms(ry)
    # f and g in different rings
    with pytest.raises(RingMismatchError, match="f and g"):
        inversion_certificate(f, P("y1^2", ry), fprime, gprime)
    # f' and g' in different rings
    with pytest.raises(RingMismatchError, match="f' and g'"):
        inversion_certificate(f, g, fprime, P("x1^2", rx))
    # f' and g' share a ring, but it has one variable too many
    ry4 = RingSpec(["y1", "y2", "y3", "y4"])
    with pytest.raises(RingMismatchError, match="f' and g'"):
        inversion_certificate(f, g, P("y2 + y3", ry4), P("y1^2", ry4))
    # the same variables over another field
    ry101 = RingSpec(["y1", "y2", "y3"], 101)
    with pytest.raises(RingMismatchError, match="f' and g'"):
        inversion_certificate(f, g, P("y2 + y3", ry101), P("y1^2", ry101))


def composed_certificate(j, g):
    """Reference: compose coordinate by coordinate, divide the first nonzero
    coordinate by its variable, and return (factor, first failing index)."""
    comp = compose(g, j)
    xs = j[0].ring.variables()
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
        inv, cert = dejonq.inverse(j)
        assert composed_certificate(j.base_forms, inv.base_forms) == (cert.factor, None)
        assert inversion_certificate(j.f, j.g, inv.f, inv.g) == cert
        # a different last coordinate keeps the shape and breaks coordinate n
        wrong = inv.g + inv.source.variable(0) ** d
        assert inversion_certificate(j.f, j.g, inv.f, wrong) == CertificateFailure(
            n, "coordinate is not proportional")
        assert composed_certificate(j.base_forms, shape(inv.f, wrong)) == (cert.factor, n)


def test_certificate_degenerate_compositions(rx, ry):
    # (0 : 0 : x1^2) sends the inverse of e1 to (0, 0, 0)
    assert inversion_certificate(rx.zero(), P("x1^2", rx),
                                 *e1_inverse_forms(ry)) == CertificateFailure(
        0, "composition is identically zero")
    # (0 : 0 : y1^2) composes to (0, 0, x1^2 x3^2), not proportional to x
    last_only = (ry.zero(), P("y1^2", ry))
    assert inversion_certificate(*e1_forms(rx), *last_only) == CertificateFailure(
        2, "coordinate is not proportional")
    assert compose(shape(*last_only), shape(*e1_forms(rx))) == (
        rx.zero(), rx.zero(), P("x1^2*x3^2", rx))
