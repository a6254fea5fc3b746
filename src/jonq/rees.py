"""Blowup presentation ideal of a de Jonquieres base ideal and its structure.

The presentation ideal lives in the bigraded ring S = k[x_1..x_{n+1},
y_1..y_{n+1}]; `rees_ideal` computes it exactly as the kernel of
y_i -> t F_i, i.e. by eliminating t from (y_i - t x_i f, y_{n+1} - t g)
(`groebner.kernel`).  `chain` builds every generator set the checks use:
P_0 = the 2-minors p_ij = x_j y_i - x_i y_j of the generic (x | y) matrix
and P_{i+1} = (P_i, F_i) along the downgraded sequence F_0..F_{d-2}, so P_1
is the symmetric-algebra part and P_{d-1} the predicted generating set.
Verification compares reduced bases, certifies minimality by exclusion, and
cross-checks the iterated mapping-cone Betti data against the Hilbert series.
The projective-dimension probe resolves not the presentation ideal J but a
linear section of S/J in fewer variables, certified regular by its Hilbert
series, so its ResolutionBoundError carries a partial resolution over the
section's ring (see `projdim_probe`).  The specialization check finds the
implicit equation of y -> F(x, lam) by linear algebra in degree d, not by
elimination: the inversion factor certifies that this kernel is principal,
so it is the one kernel form of degree d (see `specialization_check`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from . import groebner
from .dejonq import DeJonquieresMap, downgraded_sequence, inverse
from .polycore import (
    Polynomial,
    RingSpec,
    exact_div,
    substitute,
    transport,
)


def rees_ideal(j: DeJonquieresMap) -> groebner.GroebnerBasis:
    """Reduced Groebner basis of the presentation ideal: the kernel of
    y_i -> t F_i from S to k[t, x_1..x_{n+1}] (see `groebner.kernel`)."""
    s_ring = j.working_ring()
    tx = RingSpec(("t",) + j.source.names, s_ring.modulus)
    t = tx.variable("t")
    basis = tuple(groebner.kernel(s_ring, {
        name: t * transport(form, tx) for name, form in zip(j.target.names, j.base_forms)}))
    return groebner.GroebnerBasis(s_ring, basis, basis)


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
    """Predicted generators equal the eliminated ideal, minimally, with
    count C(n,2) + d - 1."""
    predicted = chain(j)[-1]
    eliminated = rees_ideal(j)
    pred_gb = groebner.buchberger(predicted)
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
    """P_0 : F_0 = P_0, and P_i : F_i = (x_1..x_n) for 1 <= i <= d-2."""
    links = chain(j)
    s_ring = j.working_ring()
    witnesses = []

    base = list(links[0])
    first = groebner.colon(base, links[1][-1])
    base_stable = groebner.ideal_equal(first, base)
    if not base_stable:
        witnesses.append("P_0 : F_0 enlarged P_0")

    support = [s_ring.variable(nm) for nm in j.source.names[: j.n]]
    results = []
    for i in range(1, j.d - 1):
        got = groebner.colon(list(links[i]), links[i + 1][-1])
        ok = groebner.ideal_equal(got, support)
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
    top = 1001 if ring.modulus is None else ring.modulus
    for k in range(n + 2, -1, -1):
        keep = RingSpec(ring.names[:ring.nvars - k], ring.modulus)
        forms = {name: Polynomial(keep, [(v.lm(), rng.randrange(1, top))
                                         for v in keep.variables()])
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


def _kernel_in_degree(forms, target: RingSpec, d: int) -> list[Polynomial]:
    """Monic basis of the degree-d forms in the kernel of y -> forms.

    Gaussian elimination over the field on the products F^alpha, |alpha| = d
    (the columns of the degree-d Macaulay matrix), each built once as
    F^(alpha - e_i) F_i with i the last index in alpha and carried with its
    combination of the y^alpha.  Each product that reduces to zero gives one
    kernel form, so there are as many forms as the kernel's degree-d dimension.
    """
    p = target.modulus
    level = {(0,) * len(forms): forms[0].ring.one()}
    for _ in range(d):
        level = {alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]: prod * forms[i]
                 for alpha, prod in level.items()
                 for i in range(max((k for k, e in enumerate(alpha) if e), default=0),
                                len(forms))}
    pivots = []  # (monomial, row monic there, combination of the y^alpha)
    kernel = []
    for alpha, prod in level.items():
        row, comb = dict(prod.terms), {alpha: 1}
        for mono, prow, pcomb in pivots:
            c = row.get(mono)
            if c:
                for vec, pvec in ((row, prow), (comb, pcomb)):
                    for m, pc in pvec.items():
                        v = vec.get(m, 0) - c * pc
                        vec[m] = v % p if p else v
        lead = next((m for m, c in row.items() if c), None)
        if lead is None:
            kernel.append(Polynomial(target, comb).monic())
            continue
        inv = target.cinv(row[lead])
        row, comb = ({m: c * inv % p if p else c * inv for m, c in vec.items() if c}
                     for vec in (row, comb))
        pivots.append((lead, row, comb))
    return kernel


SPECIALIZATION_TRIES = 25


@dataclass(frozen=True)
class SpecializationReport:
    lam: Polynomial | None
    regular: bool
    degree_ok: bool
    proportional: bool
    scalar: object | None
    rejected: tuple[Polynomial, ...] = ()

    @property
    def ok(self) -> bool:
        return self.regular and self.degree_ok and self.proportional


def specialization_check(j: DeJonquieresMap, lam: Polynomial | None = None,
                         rng: random.Random | None = None) -> SpecializationReport:
    """Implicit equation of the specialized map versus the inverse coordinates.

    Cuts by a linear form ell = x_{n+1} - lam regular on R/I, finds the
    implicit equation h of F(x, lam) in degree d, and certifies that ell
    evaluated on the inverse coordinates is a scalar multiple of h.  The
    inversion factor D certifies that the kernel of y -> F(x, lam) is
    principal: the inverse sends F(x, lam) to D_H (x, lam) with
    D_H = D(x, lam), so when D_H != 0 the image contains the algebraically
    independent D_H x_1, .., D_H x_n, and the kernel is a height-1 prime of
    the UFD k[y], i.e. (h0).  Its degree-d part is then one form exactly when
    deg h0 = d (a generator of lower degree times the forms of the remaining
    degree gives at least n+1 of them), and that form, made monic in
    grevlex, is the reduced basis of the kernel (`_kernel_in_degree`).  When
    D_H = 0 or the degree-d part is not one form, degree_ok is False.
    Without a given lam, up to SPECIALIZATION_TRIES random forms are tried; if
    all are rejected (as when R/I has depth 0, e.g. n = 1), the report has
    regular=False, lam=None and the rejected forms.
    """
    ring = j.source
    n = j.n
    last = ring.names[n]
    base = list(j.base_forms)
    base_gb = groebner.buchberger(base)
    rng = rng or random.Random(0)

    def candidate_regular(cand: Polynomial) -> bool:
        ell_ = ring.variable(last) - cand
        return groebner.ideal_equal(groebner.colon(list(base_gb.basis), ell_), base_gb)

    def random_candidates():
        units = [ring.variable(k).lm() for k in range(n)]
        for _ in range(SPECIALIZATION_TRIES):
            yield Polynomial(ring, [(u, rng.randrange(1, 1001) if ring.modulus is None
                                     else rng.randrange(0, ring.modulus)) for u in units])

    rejected = []
    for cand in ((lam,) if lam is not None else random_candidates()):
        if candidate_regular(cand):
            lam = cand
            break
        rejected.append(cand)
    else:
        return SpecializationReport(lam=lam, regular=False, degree_ok=False,
                                    proportional=False, scalar=None,
                                    rejected=tuple(rejected))

    ell = ring.variable(last) - lam
    lam_cut = transport(lam, RingSpec(ring.names[:n], ring.modulus))
    inv, cert = inverse(j)
    implicit = []
    if substitute(cert.factor, {last: lam_cut}):
        implicit = _kernel_in_degree(
            [substitute(form, {last: lam_cut}) for form in base], j.target, j.d)
    if len(implicit) != 1:
        return SpecializationReport(lam=lam, regular=True, degree_ok=False,
                                    proportional=False, scalar=None,
                                    rejected=tuple(rejected))
    ell_of_inverse = substitute(ell, dict(zip(ring.names, inv.base_forms)))
    quotient = exact_div(ell_of_inverse, implicit[0])
    proportional = quotient is not None and quotient.total_degree() == 0
    scalar = quotient.lc() if proportional else None
    return SpecializationReport(lam=lam, regular=True, degree_ok=True,
                                proportional=proportional,
                                scalar=scalar, rejected=tuple(rejected))


REPORT_CHECKS = ("theorem", "colon", "cone", "projdim", "special")


def case_report(j: DeJonquieresMap, seed=None, checks=REPORT_CHECKS) -> dict:
    """JSON-ready report for one map; schema used by the CLI and the probe."""
    import time

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
    report["runtime_ms"] = int((time.monotonic() - start) * 1000)
    return report
