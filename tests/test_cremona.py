"""Rational maps: composition, normalization, inversion certificates, downgrading."""

import pytest

from jonq import dejonq
from jonq.cremona import (
    CertificateFailure,
    InversionCertificate,
    MapError,
    RationalMap,
    compose,
    downgrade_general,
    inversion_certificate,
    normalize_map,
)
from jonq.polycore import RingSpec, parse_polynomial, substitute, transport


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


# ---------- downgrade_general ----------

def test_downgrade_identity_support_matches_dejonq(e3):
    j = e3.rational_map()
    q = dejonq.q_decomposition(e3)
    z = tuple(-qi for qi in q) + (e3.f,)
    h = [e3.target.variable(i) for i in range(2)]
    seq = downgrade_general(j, z, h)
    expected = dejonq.downgraded_sequence(e3)
    assert len(seq) == len(expected.forms) == 2
    assert tuple(seq) == expected.forms


def test_downgrade_koszul_syzygy_e1(rx, ry):
    # Koszul syzygy between x1*f and g: one downgrade step is possible
    j = e1_map(rx, ry)
    f = P("x3", rx)
    g = P("x1^2 - x2*x3", rx)
    z = (g, rx.zero(), -(rx.variable(0) * f))
    h = [ry.variable(0), ry.variable(1)]
    seq = downgrade_general(j, z, h)
    assert len(seq) == 2  # F_1 plus one downgrade
    work = seq[0].ring
    assert seq[0].bidegree() == (2, 1)
    assignment = {"y1": P("x1*x3", rx), "y2": P("x2*x3", rx), "y3": g}
    for form in seq:
        assert substitute(form, assignment).is_zero()


def test_downgrade_no_content():
    # an entry outside (x1,..,xn) stops the sequence at F_1
    rx = RingSpec(["x1", "x2", "x3"])
    ry = RingSpec(["y1", "y2", "y3"])
    j = RationalMap(rx, ry, rx.variables())
    z = (P("x3", rx), rx.zero(), -P("x1", rx))
    seq = downgrade_general(j, z, [ry.variable(0), ry.variable(1)])
    assert len(seq) == 1
    assert seq[0] == transport(P("x3", rx), seq[0].ring) * seq[0].ring.variable("y1") \
        - transport(P("x1", rx), seq[0].ring) * seq[0].ring.variable("y3")


def test_downgrade_rejects_non_syzygy(rx, ry):
    j = e1_map(rx, ry)
    with pytest.raises(MapError):
        downgrade_general(j, (rx.one(), rx.zero(), rx.one()),
                          [ry.variable(0), ry.variable(1)])


def test_downgrade_bidegrees_and_final_x_degree(e3):
    # F_k has bidegree (e-k+1, (k-1)d'+1) in 1-based position k; the last one
    # has x-degree e - delta
    j = e3.rational_map()
    q = dejonq.q_decomposition(e3)
    z = tuple(-qi for qi in q) + (e3.f,)
    h = [e3.target.variable(i) for i in range(2)]
    seq = downgrade_general(j, z, h)
    e = e3.d - 1
    from jonq.polycore import xprime_order
    delta = min(xprime_order(zi, block=["x1", "x2"]) for zi in z if zi)
    for k, form in enumerate(seq, start=1):
        assert form.bidegree() == (e - k + 1, (k - 1) + 1)
    assert seq[-1].bidegree()[0] == e - delta
