"""Blowup presentation ideal of a de Jonquieres base ideal and its structure.

The presentation ideal J lives in the bigraded ring S = k[x_1..x_{n+1},
y_1..y_{n+1}]: it is the kernel of y_i -> t F_i.  `chain` builds every
generator set the checks use: P_0 = the 2-minors p_ij = x_j y_i - x_i y_j
of the generic (x | y) matrix and P_{i+1} = (P_i, F_i) along the downgraded
sequence F_0..F_{d-2}, so P_1 is the symmetric-algebra part and P_{d-1} the
predicted generating set.  `rees_ideal` returns the reduced basis of
P = P_{d-1} when a certificate shows P = J: with a = x_1 f, P lies in J,
a y_{n+1} - g y_1 lies in P, and x_1 and f are nonzerodivisors on S/P
(`groebner.is_regular`), so J = P : a^infinity = P (see `_certifies`).
Only when the certificate fails is t eliminated from
(y_i - t x_i f, y_{n+1} - t g) (`groebner.kernel`); that elimination is also
the tests' oracle for J.
`case_report` builds J once per map: while it runs, `chain`, the reduced
basis of P and `rees_ideal` are computed on the first call for its map and
looked up on the later ones (`_once_per_case`).  The memo is dropped when
`case_report` returns or raises, so a check called alone builds J from j.
Verification compares reduced bases, decides minimality by one
minimal-generator pass (`minimal_generator_count`), and cross-checks the
iterated mapping-cone Betti data against the Hilbert series.
The projective-dimension probe resolves not the presentation ideal J but a
linear section of S/J in fewer variables, certified regular by its Hilbert
series, so its ResolutionBoundError carries a partial resolution over the
section's ring (see `projdim_probe`).  The specialization check finds the
implicit equation of y -> F(x, lam) by linear algebra in degree d, not by
elimination: the inversion factor certifies that this kernel is principal,
so it is the one kernel form of degree d, and ell = x_{n+1} - lam on the
inverse is such a form.  Evaluations of F(x, lam) at points show that it
spans the degree-d kernel (interpolation-based implicitization, after
Corless, Giesbrecht, Kotsireas & Watt, AISC 2000, in exact arithmetic);
only when they cannot do the degree-d products F^alpha decide, by sending
the candidate to zero and by their minimal generator count, which is their
rank (`_implicit_equation`; see `specialization_check`).
"""

from __future__ import annotations

import functools
import logging
import random
from dataclasses import dataclass
from math import comb, lcm
from operator import mul

from . import groebner
from .dejonq import DeJonquieresMap, downgraded_sequence, inverse
from .polycore import (
    Polynomial,
    RingSpec,
    substitute,
    transport,
)


log = logging.getLogger(__name__)

# (map, {function: result}) while `case_report` runs on that map, else None
_case_memo: tuple[DeJonquieresMap, dict] | None = None


def _once_per_case(fn):
    """fn(j), computed once for the map of the running `case_report` and
    looked up on later calls; computed afresh for any other map or outside
    `case_report`."""
    @functools.wraps(fn)
    def memoized(j):
        memo = _case_memo  # read once: a report in another thread may swap it
        if memo is None or memo[0] is not j:
            return fn(j)
        results = memo[1]
        if fn not in results:
            results[fn] = fn(j)
        return results[fn]
    return memoized


@_once_per_case
def rees_ideal(j: DeJonquieresMap) -> groebner.GroebnerBasis:
    """Reduced Groebner basis of the presentation ideal J, the kernel of
    y_i -> t F_i from S to k[t, x_1..x_{n+1}].

    It is the reduced basis of P = P_{d-1} when `_certifies` passes, and the
    t-elimination of `_eliminated` otherwise.  Both give J's unique reduced
    basis, so the result does not depend on the path.
    """
    predicted = _predicted_basis(j)
    if _certifies(j, predicted):
        return groebner.GroebnerBasis(predicted.ring, predicted.basis, predicted.basis)
    return _eliminated(j)


@_once_per_case
def _predicted_basis(j: DeJonquieresMap) -> groebner.GroebnerBasis:
    """Reduced basis of P = P_{d-1}, the predicted generating set."""
    return groebner.buchberger(chain(j)[-1])


def _certifies(j: DeJonquieresMap, predicted: groebner.GroebnerBasis) -> bool:
    """True when P = J, `predicted` the reduced basis of P = P_{d-1}.

    With a = x_1 f, the first base form: (a) P lies in J, checked by y -> F
    on each generator; (b) a y_{n+1} - g y_1 lies in P; (c) x_1 and f are
    nonzerodivisors on S/P.  Inverting a makes I the unit ideal, so J S_a is
    generated by the a y_i - F_i y_1 (Vasconcelos, Arithmetic of Blowup
    Algebras, 1994), and for 1 < i <= n these are f (x_1 y_i - x_i y_1), in
    P_0.  With (a) and (b), J S_a = P S_a; J is prime and a is not in J, so
    J = P : a^infinity, which is P by (c).  Conversely all three hold when
    P = J, so a failure means P != J.
    """
    ring = predicted.ring
    images = dict(zip(j.target.names, j.base_forms))
    x1, f = ring.variable(0), transport(j.f, ring)
    y1, top = ring.variable(j.target.names[0]), ring.variable(j.target.names[-1])
    return (all(substitute(p, images).is_zero() for p in predicted.gens)
            and predicted.contains(x1 * f * top - transport(j.g, ring) * y1)
            and groebner.is_regular(predicted, x1)
            and groebner.is_regular(predicted, f))


def _eliminated(j: DeJonquieresMap) -> groebner.GroebnerBasis:
    """J by eliminating t from (y_i - t F_i) (`groebner.kernel`)."""
    s_ring = j.working_ring()
    tx = RingSpec(("t",) + j.source.names, s_ring.modulus)
    t = tx.variable("t")
    basis = tuple(groebner.kernel(s_ring, {
        name: t * transport(form, tx) for name, form in zip(j.target.names, j.base_forms)}))
    return groebner.GroebnerBasis(s_ring, basis, basis)


@_once_per_case
def chain(j: DeJonquieresMap) -> tuple[tuple[Polynomial, ...], ...]:
    """(P_0, .., P_{d-1}): P_0 = (x_j y_i - x_i y_j, 1 <= i < j <= n) and
    P_{i+1} = (P_i, F_i); the last link is the predicted generator set."""
    s_ring = j.working_ring()
    xs = [s_ring.variable(nm) for nm in j.source.names]
    ys = [s_ring.variable(nm) for nm in j.target.names]
    links = [tuple(xs[k] * ys[i] - xs[i] * ys[k]
                   for i in range(j.n) for k in range(i + 1, j.n))]
    for form in downgraded_sequence(j).forms:
        links.append(links[-1] + (form,))
    return tuple(links)


def minimal_generator_count(gens) -> int:
    """Number of minimal generators of the homogeneous ideal spanned by gens."""
    from .resolutions import minimal_generators
    gens = [g for g in gens if g]
    if not gens:
        return 0
    ring = gens[0].ring
    kept = minimal_generators([(g,) for g in gens], ring, (0,))
    return len(kept)


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the generation theorem check for one map."""

    ideal_matches: bool
    minimal: bool
    count: int
    expected_count: int
    witnesses: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.ideal_matches and self.minimal and self.count == self.expected_count


def verify_main_theorem(j: DeJonquieresMap) -> TheoremReport:
    """Predicted generators equal the presentation ideal, minimally, with
    count C(n,2) + d - 1.

    On the certified path `rees_ideal` returns the reduced basis of the
    predicted set itself, so `ideal_matches` rests on its certificate (P in
    J, a y_{n+1} - g y_1 in P, x_1 and f regular on S/P); the t-elimination
    decides it only when the certificate fails, and is the tests' oracle.
    """
    predicted = chain(j)[-1]
    eliminated = rees_ideal(j)
    pred_gb = _predicted_basis(j)
    witnesses = []

    matches = groebner.ideal_equal(pred_gb, eliminated)
    if not matches:
        for p in predicted:
            if not eliminated.contains(p):
                witnesses.append(f"predicted generator not in the ideal: {p}")
        for p in eliminated.basis:
            if not pred_gb.contains(p):
                witnesses.append(f"ideal element not generated: {p}")

    # one minimal-generator pass decides minimality (graded Nakayama); the
    # per-generator membership tests only name the redundant generators
    minimal = minimal_generator_count(predicted) == len(predicted)
    if not minimal:
        for k, p in enumerate(predicted):
            others = predicted[:k] + predicted[k + 1:]
            if groebner.normal_form(p, others).is_zero():
                witnesses.append(f"redundant generator: {p}")

    count = len(predicted)
    expected = comb(j.n, 2) + j.d - 1
    if count != expected:
        witnesses.append(f"generator count {count} != {expected}")
    return TheoremReport(ideal_matches=matches, minimal=minimal, count=count,
                         expected_count=expected, witnesses=tuple(witnesses))


def linear_type(j: DeJonquieresMap) -> bool:
    """The presentation ideal is generated in y-degree one: P_1 = (P_0, F_0)."""
    return groebner.ideal_equal(chain(j)[1], rees_ideal(j))


@dataclass(frozen=True)
class ColonReport:
    base_stable: bool
    support_colons: tuple[bool, ...]
    witnesses: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.base_stable and all(self.support_colons)


def colon_lemma_checks(j: DeJonquieresMap) -> ColonReport:
    """P_0 : F_0 = P_0, and P_i : F_i = (x_1..x_n) for 1 <= i <= d-2.

    The first says F_0 is regular on S/P_0, which `groebner.is_regular`
    decides.  The support colons are read off Hilbert numerators: with
    P_{i+1} = (P_i, F_i) and e = deg F_i, the exact sequence
    0 -> S/(P_i : F_i)(-e) -> S/P_i -> S/P_{i+1} -> 0 gives
    HS(S/(P_i : F_i)) t^e = HS(S/P_i) - HS(S/P_{i+1}) (Stanley, Adv. Math.
    1978).  So P_i : F_i = (x_1..x_n) exactly when x_k F_i lies in P_i for
    every k and N(P_i) - N(P_{i+1}) = t^e (1 - t)^n.  P_{d-1}'s basis is
    `_predicted_basis`; `groebner.colon` is the test oracle.
    """
    links = chain(j)
    s_ring = j.working_ring()
    witnesses = []

    base_stable = groebner.is_regular(groebner.buchberger(links[0], ring=s_ring),
                                      links[1][-1])
    if not base_stable:
        witnesses.append("P_0 : F_0 enlarged P_0")

    support = [s_ring.variable(nm) for nm in j.source.names[: j.n]]
    bases = [groebner.buchberger(links[i], ring=s_ring) for i in range(1, j.d - 1)]
    if bases:
        bases.append(_predicted_basis(j))
    support_num = groebner.hilbert_series_numerator(support)
    results = []
    for i, (here, after) in enumerate(zip(bases, bases[1:]), start=1):
        form = links[i + 1][-1]
        ok = (groebner.hilbert_series_numerator(here) == groebner.numerator_from_colon(
                  groebner.hilbert_series_numerator(after), form.total_degree(), support_num)
              and all(here.contains(x * form) for x in support))
        results.append(ok)
        if not ok:
            witnesses.append(f"P_{i} : F_{i} != (x_1..x_{j.n})")
    return ColonReport(base_stable=base_stable, support_colons=tuple(results),
                       witnesses=tuple(witnesses))


@dataclass(frozen=True)
class ConeBettiData:
    """Shift/rank data of the iterated mapping cone resolving S/(presentation ideal).

    Seeded by the 2-linear resolution of the minors ideal, one cone for F_0
    twisted by its degree d, then d-2 Koszul layers; the alternating shift
    sum must reproduce the Hilbert numerator of the quotient.
    """

    n: int
    d: int
    table: groebner.BettiTable
    hilbert_match: bool

    @property
    def ok(self) -> bool:
        return self.hilbert_match


def cone_betti_table(n: int, d: int) -> groebner.BettiTable:
    """The combinatorial cone table alone (no Hilbert cross-check)."""
    length = n if d == 2 else n + 1
    shifts: list[list[int]] = [[0]] + [[] for _ in range(length)]
    for i in range(1, n):
        shifts[i].extend([i + 1] * (i * comb(n, i + 1)))
    # one cone for F_0: the seed table again, twisted by deg F_0 = d
    shifts[1].append(d)
    for i in range(2, n + 1):
        shifts[i].extend([d + i] * ((i - 1) * comb(n, i)))
    for _ in range(d - 2):
        for i in range(1, n + 2):
            rank = comb(n, i - 1)
            if rank and i < len(shifts):
                shifts[i].extend([d + i - 1] * rank)
    return groebner.BettiTable.from_shift_lists(shifts)


def cone_betti(j: DeJonquieresMap) -> ConeBettiData:
    table = cone_betti_table(j.n, j.d)
    ideal = rees_ideal(j)
    numerator = groebner.hilbert_series_numerator(ideal)
    return ConeBettiData(n=j.n, d=j.d, table=table,
                         hilbert_match=table.alternating_numerator() == numerator)


def _random_point(ring: RingSpec, rng: random.Random) -> list[int]:
    """A point with coordinates in [1, p) over GF(p), in [1, 1000] over Q."""
    top = 1001 if ring.modulus is None else ring.modulus
    return [rng.randrange(1, top) for _ in range(ring.nvars)]


def _certified_section(ideal: groebner.GroebnerBasis, n: int) -> groebner.GroebnerBasis:
    """Reduced basis of the linear section of S/J that `projdim_probe` resolves.

    For k = n+2 = dim S/J down to 1, the last k variables v of S are replaced
    by random linear forms l_v in the others, and the first section whose
    Hilbert numerator (in k[first 2n+2-k variables]) equals that of J is
    returned: equal numerators mean HS(S/(J, v - l_v)) = (1-t)^k HS(S/J),
    which holds exactly when the forms v - l_v are a regular sequence on S/J
    (Stanley, Adv. Math. 1978).  If no k passes, k = 0 returns J itself.
    The forms come from a fixed random.Random(0).
    """
    ring = ideal.ring
    numerator = groebner.hilbert_series_numerator(ideal)
    rng = random.Random(0)
    for k in range(n + 2, -1, -1):
        keep = RingSpec(ring.names[:ring.nvars - k], ring.modulus)
        forms = {name: Polynomial(keep, zip([v.lm() for v in keep.variables()],
                                            _random_point(keep, rng)))
                 for name in ring.names[ring.nvars - k:]}
        section = groebner.buchberger([substitute(p, forms) for p in ideal.basis], ring=keep)
        if k == 0 or groebner.hilbert_series_numerator(section) == numerator:
            return section


def projdim_probe(j: DeJonquieresMap, length_bound: int | None = None) -> int:
    """Length of the minimal free resolution of S/J, J the presentation ideal.

    What is resolved is the linear section of `_certified_section`: modulo a
    regular sequence of linear forms the graded Betti table is unchanged
    (Bruns & Herzog, Cohen-Macaulay Rings, Prop. 1.1.5), so the section has
    the Betti table, and the projective dimension, of S/J whatever the random
    draw; a bad draw only cuts fewer variables.  A ResolutionBoundError
    carries the partial resolution of the section, over its ring k[first
    2n+2-k variables of S].
    """
    section = _certified_section(rees_ideal(j), j.n)
    bound = length_bound if length_bound is not None else 2 * j.n + 2
    res = groebner.minimal_free_resolution(list(section.basis), length_bound=bound)
    return res.length()


def is_cohen_macaulay(j: DeJonquieresMap, projdim: int) -> bool:
    return projdim == j.n


def _products(factors, d: int, one) -> dict:
    """{alpha: factors^alpha} over |alpha| = d, each product built once as
    factors^(alpha - e_i) factors_i with i the last index in alpha; the
    factors are forms or field values."""
    level = {(0,) * len(factors): one}
    for _ in range(d):
        level = {alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]: prod * factors[i]
                 for alpha, prod in level.items()
                 for i in range(max((k for k, e in enumerate(alpha) if e), default=0),
                                len(factors))}
    return level


# evaluation points beyond the N - 1 that can reach rank N - 1, against bad draws
_EXTRA_POINTS = 8
# over Q the rank of the evaluation rows is taken modulo this prime, 2^61 - 1
_RANK_PRIME = 2**61 - 1


def _value(form: Polynomial, point):
    """form at point, exactly: a residue over GF(p), a Fraction over Q."""
    p = form.ring.modulus
    total = 0
    for mono, c in form.terms:
        for x, e in zip(point, mono):
            if e:
                c *= x ** e
        total += c
    return total % p if p else total


class _Values(tuple):
    """Values at the evaluation points, multiplied pointwise."""

    def __mul__(self, other):
        return _Values(map(mul, self, other))


def _spans_kernel(forms, d: int, candidate: Polynomial) -> bool:
    """True when the candidate, a nonzero form of degree d, spans the null
    space of the evaluation rows (y^alpha(F(x)))_{|alpha| = d}.

    The N - 1 + _EXTRA_POINTS points x come from a fixed random.Random(0),
    N the number of y^alpha.  The candidate must vanish exactly at each one,
    and the N columns of values must have rank N - 1.  Over Q each point's
    values are cleared of denominators, so the vanishing is checked in
    integers, and the rank is taken modulo _RANK_PRIME, which can only lower
    it.  A column is one int with one slot per point, wide enough that the
    up to N - 1 updates column += (p - c) * pivot never carry out of a slot,
    so only a new pivot's slots are reduced mod p.
    """
    field = candidate.ring.modulus
    p = field or _RANK_PRIME
    rng = random.Random(0)
    npoints = comb(len(forms) - 1 + d, d) - 1 + _EXTRA_POINTS
    points = [_random_point(forms[0].ring, rng) for _ in range(npoints)]
    images = [[_value(form, x) for form in forms] for x in points]
    scale = 1
    if not field:  # clear denominators: the candidate is checked in integers
        scale = lcm(*(c.denominator for _, c in candidate.terms))
        for image in images:
            common = lcm(*(v.denominator for v in image))
            image[:] = [int(v * common) for v in image]
    columns = _products([_Values(vals) for vals in zip(*images)], d, _Values([1] * npoints))
    total = [0] * npoints
    for alpha, c in candidate.terms:
        total = [t + int(c * scale) * v for t, v in zip(total, columns[alpha])]
    if any(t % field if field else t for t in total):
        return False
    nbytes = (2 * p.bit_length() + len(columns).bit_length() + 7) // 8
    mask = (1 << 8 * nbytes) - 1

    def pack(residues):
        return int.from_bytes(b"".join(r.to_bytes(nbytes, "little") for r in residues),
                              "little")

    pivots = []  # (point, column with 1 there and every slot in [0, p))
    for vals in columns.values():
        col = pack([v % p for v in vals])
        for at, pivot in pivots:
            c = ((col >> 8 * nbytes * at) & mask) % p
            if c:
                col += (p - c) * pivot
        raw = col.to_bytes(npoints * nbytes, "little")
        residues = [int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little") % p
                    for k in range(npoints)]
        at = next((k for k, r in enumerate(residues) if r), None)
        if at is not None:
            inv = pow(residues[at], -1, p)
            pivots.append((at, pack([r * inv % p for r in residues])))
    return len(pivots) == len(columns) - 1


def _implicit_equation(forms, d: int, candidate: Polynomial) -> Polynomial | None:
    """The monic candidate when it spans K_d, the degree-d forms in the
    kernel of y -> forms, else None; the candidate is zero or a form of
    degree d.

    K_d lies in the null space of the evaluation rows, so when `_spans_kernel`
    shows that null space to be the candidate's span, K_d is that span.
    Otherwise the products F^alpha, |alpha| = d, decide: the candidate lies
    in K_d when sum c_alpha F^alpha = 0, and K_d is one form when the
    products span N - 1 dimensions, which for forms of one degree is their
    minimal generator count.
    """
    if not candidate:
        return None
    if _spans_kernel(forms, d, candidate):
        log.debug("implicit equation of degree %d decided by points", d)
        return candidate.monic()
    log.debug("implicit equation of degree %d decided by products", d)
    level = _products(forms, d, forms[0].ring.one())
    if (sum((level[alpha] * c for alpha, c in candidate.terms), forms[0].ring.zero())
            or minimal_generator_count(level.values()) != len(level) - 1):
        return None
    return candidate.monic()


SPECIALIZATION_TRIES = 25


@dataclass(frozen=True)
class SpecializationReport:
    lam: Polynomial | None
    regular: bool
    degree_ok: bool
    scalar: object | None
    rejected: tuple[Polynomial, ...] = ()

    @property
    def ok(self) -> bool:
        return self.regular and self.degree_ok


def specialization_check(j: DeJonquieresMap, lam: Polynomial | None = None,
                         rng: random.Random | None = None) -> SpecializationReport:
    """Implicit equation of the specialized map versus the inverse coordinates.

    Cuts by a linear form ell = x_{n+1} - lam regular on R/I and certifies
    that ell evaluated on the inverse coordinates spans the degree-d part of
    the kernel of y -> F(x, lam), so that its monic form is the implicit
    equation h and its leading coefficient the scalar.  The
    inversion factor D certifies that the kernel of y -> F(x, lam) is
    principal: the inverse sends F(x, lam) to D_H (x, lam) with
    D_H = D(x, lam), so when D_H != 0 the image contains the algebraically
    independent D_H x_1, .., D_H x_n, and the kernel is a height-1 prime of
    the UFD k[y], i.e. (h0).  Its degree-d part is then one form exactly when
    deg h0 = d (a generator of lower degree times the forms of the remaining
    degree gives at least n+1 of them), and that form, made monic in
    grevlex, is the reduced basis of the kernel.  ell on the inverse
    coordinates lies in that degree-d part, since G(F) = D x gives
    ell(G(F(x, lam))) = D_H ell(x, lam) = 0, so it is the candidate that
    `_implicit_equation` tests, from point evaluations or else from the
    products F^alpha through the Groebner engine.  One nonzero value of
    D_H at a point shows D_H != 0; a zero value is settled by substitution.
    When D_H = 0 or the degree-d part is not one form, degree_ok is False.
    Without a given lam, up to SPECIALIZATION_TRIES random forms are tried
    (`groebner.is_regular` tests each); if all are rejected (as when R/I has
    depth 0, e.g. n = 1), the report has regular=False, lam=None and the
    rejected forms.
    """
    ring = j.source
    n = j.n
    last = ring.names[n]
    base = list(j.base_forms)
    base_gb = groebner.buchberger(base)
    rng = rng or random.Random(0)

    def random_candidates():
        units = [ring.variable(k).lm() for k in range(n)]
        for _ in range(SPECIALIZATION_TRIES):
            yield Polynomial(ring, [(u, rng.randrange(1, 1001) if ring.modulus is None
                                     else rng.randrange(0, ring.modulus)) for u in units])

    rejected = []
    for cand in ((lam,) if lam is not None else random_candidates()):
        if groebner.is_regular(base_gb, ring.variable(last) - cand):
            lam = cand
            break
        rejected.append(cand)
    else:
        return SpecializationReport(lam=lam, regular=False, degree_ok=False, scalar=None,
                                    rejected=tuple(rejected))

    ell = ring.variable(last) - lam
    cut = RingSpec(ring.names[:n], ring.modulus)
    lam_cut = transport(lam, cut)
    inv, cert = inverse(j)
    ell_of_inverse = substitute(ell, dict(zip(ring.names, inv.base_forms)))
    implicit = None
    point = _random_point(cut, random.Random(0))
    if (_value(cert.factor, point + [_value(lam_cut, point)])
            or substitute(cert.factor, {last: lam_cut})):
        implicit = _implicit_equation(
            [substitute(form, {last: lam_cut}) for form in base], j.d, ell_of_inverse)
    else:
        log.debug("D(x, lam) = 0: no implicit equation of degree %d", j.d)
    found = implicit is not None
    return SpecializationReport(lam=lam, regular=True, degree_ok=found,
                                scalar=ell_of_inverse.lc() if found else None,
                                rejected=tuple(rejected))


REPORT_CHECKS = ("theorem", "colon", "cone", "projdim", "special")


def case_report(j: DeJonquieresMap, seed=None, checks=REPORT_CHECKS) -> dict:
    """JSON-ready report for one map; schema used by the CLI and the probe.

    The checks share one J: while they run, `chain`, the basis of P and
    `rees_ideal` are computed once for j (`_once_per_case`).
    """
    import time

    global _case_memo
    start = time.monotonic()
    report: dict = {
        "case": {
            "n": j.n,
            "d": j.d,
            "seed": seed,
            "f": str(j.f),
            "g": str(j.g),
        },
        "modulus": j.source.modulus,
    }
    _case_memo = (j, {})
    try:
        if "theorem" in checks:
            report["theorem"] = "pass" if verify_main_theorem(j).ok else "fail"
        if "colon" in checks:
            report["colon"] = "pass" if colon_lemma_checks(j).ok else "fail"
        if "cone" in checks:
            report["cone_hilbert"] = "pass" if cone_betti(j).ok else "fail"
        if "projdim" in checks:
            try:
                pd = projdim_probe(j)
                report["projdim"] = pd
                report["cm"] = is_cohen_macaulay(j, pd)
                report["conjecture_expected_cm"] = j.d <= j.n + 1
                if report["cm"] != report["conjecture_expected_cm"]:
                    report["conjecture_counterexample"] = True
            except groebner.ResolutionBoundError:
                report["projdim"] = None
                report["cm"] = None
                report["skipped"] = "resolution bound exceeded"
        if "special" in checks:
            rng = random.Random(seed if seed is not None else 0)
            report["special"] = "pass" if specialization_check(j, rng=rng).ok else "fail"
    finally:
        _case_memo = None
    report["runtime_ms"] = int((time.monotonic() - start) * 1000)
    return report
