"""Rational maps: composition, normalization, inversion certificates."""

import pytest

from jonq.cremona import (
    CertificateFailure,
    InversionCertificate,
    MapError,
    RationalMap,
    compose,
    inversion_certificate,
    normalize_map,
)
from jonq.polycore import RingSpec, parse_polynomial


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


# ---------- normalize_map ----------

def test_normalize_map_common_factor(rx, ry):
    small = RingSpec(["y1", "y2"])
    m = normalize_map((P("x1*x3", rx), P("x2*x3", rx)), rx, small)
    assert m.forms == (P("x1", rx), P("x2", rx))


def test_normalize_map_idempotent(rx, ry):
    m = normalize_map(e1_map(rx, ry).forms, rx, ry)
    again = normalize_map(m.forms, rx, ry)
    assert m.forms == again.forms == e1_map(rx, ry).forms


def test_normalize_map_composition_is_identity(rx, ry):
    j, g = e1_map(rx, ry), e1_inverse(rx, ry)
    m = normalize_map(compose(g, j), rx, rx)
    assert m.forms == tuple(rx.variables())


def test_normalize_map_zero_rejected(rx, ry):
    with pytest.raises(MapError):
        normalize_map((rx.zero(), rx.zero()), rx, RingSpec(["y1", "y2"]))


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
