"""Blowup presentation ideal of a de Jonquieres base ideal and its structure.

The presentation ideal J lives in the bigraded ring S = k[x_1..x_{n+1},
y_1..y_{n+1}]: it is the kernel of y_i -> t F_i.  `chain` builds every
generator set the checks use: P_0 = the 2-minors p_ij = x_j y_i - x_i y_j
of the generic (x | y) matrix and P_{i+1} = (P_i, F_i) along the downgraded
sequence F_0..F_{d-2}, so P_1 is the symmetric-algebra part and P_{d-1} the
predicted generating set.  `link_bases` holds their reduced bases, P_0's
in closed form and each later link's extending the one before
(`groebner.extend`), and every check reads them.  A certificate is the one
route to J: with a = x_1 f, P = P_{d-1} lies in J (read at the map's own
degrees), a y_{n+1} - g y_1 lies in P, and x_1 and f are nonzerodivisors
on S/P (`groebner.is_regular`) exactly when P = J (see `_uncertified`).
`rees_ideal` returns P's reduced basis, or raises `NotCertified` naming the
first failing clause; then the theorem fails.
`case_report` builds J once per map: while it runs, the downgraded
sequence, `link_bases` and `rees_ideal` are computed on the first call for
its map and looked up on the later ones (`dejonq.case_scope`).  The memo is
dropped when `case_report`
returns or raises, so a check called alone builds J from j.
Verification compares reduced bases, reads minimality off the link bases
(a form is redundant exactly when its link leaves the basis unchanged), and
cross-checks the iterated mapping-cone Betti data against the Hilbert series.
The projective-dimension probe resolves not the presentation ideal J but a
linear section of S/J in 2n+2-k variables, certified regular by its Hilbert
series (see `_certified_section`); by Hilbert's syzygy theorem that
resolution has length at most 2n+2-k.  The specialization check reads the
implicit equation of y -> F(x, lam) in closed form: when f(x, lam) and
g(x, lam) are coprime, which holds exactly when ell = x_{n+1} - lam is
regular on R/I, the kernel is (h) with h = f(y', lam) y_{n+1} - g(y', lam),
and ell on the inverse coordinates must be a multiple of h (see
`specialization_check`).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from math import comb

from . import groebner
from .cremona import ladder, pullback
from .dejonq import DeJonquieresMap, case_scope, inverse, once_per_case, shared_sequence
from .polycore import JonqError, Polynomial, RingSpec, substitute, substitution, transport
from .polycore import _nonzero


log = logging.getLogger(__name__)

class NotCertified(JonqError):
    """The certificate failed, so the predicted set P is not J."""


@once_per_case
def rees_ideal(j: DeJonquieresMap) -> groebner.GroebnerBasis:
    """Reduced Groebner basis of the presentation ideal J, the kernel of
    y_i -> t F_i from S to k[t, x_1..x_{n+1}].

    It is the basis of P = P_{d-1} itself, with the engine its membership
    and regularity tests built on it, once `_uncertified` shows P = J; else
    P != J and NotCertified names the first failing clause.
    """
    predicted = link_bases(j)[-1]
    clause = _uncertified(j, predicted)
    if clause is not None:
        raise NotCertified(clause)
    return predicted


def _uncertified(j: DeJonquieresMap, predicted: groebner.GroebnerBasis) -> str | None:
    """None when P = J, `predicted` the reduced basis of P = P_{d-1}; else
    the first failing clause.

    With a = x_1 f, the first base form: (a) P lies in J, read off the
    pullback p(x, x' f, g) = f^s P_p of each generator (`cremona.pullback`,
    the powers f^a g^b shared), which is 0 exactly when the form P_p, of
    degree about 2d - 1 and kept as an int dict, is 0 in the field; (b)
    a y_{n+1} - g y_1 lies in P; (c) x_1 and f are nonzerodivisors on S/P.
    Inverting a makes I the unit ideal, so
    J S_a is generated by the a y_i - F_i y_1 (Vasconcelos, Arithmetic of
    Blowup Algebras, 1994), and for 1 < i <= n these are f (x_1 y_i -
    x_i y_1), in P_0.  With (a) and (b), J S_a = P S_a; J is prime and a is not in J, so
    J = P : a^infinity, which is P by (c).  Conversely, let P = J: (a) is
    trivial; a y_{n+1} - g y_1 goes to x_1 f t g - g t x_1 f = 0, which is
    (b); and J meets k[x] only in 0 (x_i -> x_i), so x_1 and f are nonzero
    in the domain S/J, which is (c).  So a failing clause means P != J.
    """
    ring = predicted.ring
    x1, f = ring.variable(0), transport(j.f, ring)
    y1, top = ring.variable(j.target.names[0]), ring.variable(j.target.names[-1])
    power = ladder(j.f, j.g)
    for p in predicted.gens:
        if _nonzero(pullback(p, power)[1][0], ring.modulus):
            return f"predicted generator not in J: {p}"
    if not predicted.contains(x1 * f * top - transport(j.g, ring) * y1):
        return "a y_{n+1} - g y_1 is not in P"
    if not groebner.is_regular(predicted, x1):
        return "x_1 is a zero divisor on S/P"
    if not groebner.is_regular(predicted, f):
        return "f is a zero divisor on S/P"
    return None


def chain(j: DeJonquieresMap) -> tuple[tuple[Polynomial, ...], ...]:
    """(P_0, .., P_{d-1}): P_0 = (x_j y_i - x_i y_j, 1 <= i < j <= n) and
    P_{i+1} = (P_i, F_i); the last link is the predicted generator set."""
    s_ring = j.working_ring()
    xs = [s_ring.variable(nm) for nm in j.source.names]
    ys = [s_ring.variable(nm) for nm in j.target.names]
    links = [tuple(xs[k] * ys[i] - xs[i] * ys[k]
                   for i in range(j.n) for k in range(i + 1, j.n))]
    for form in shared_sequence(j).forms:
        links.append(links[-1] + (form,))
    return tuple(links)


@once_per_case
def link_bases(j: DeJonquieresMap) -> tuple[groebner.GroebnerBasis, ...]:
    """Reduced bases of P_0..P_{d-1}, whose `.gens` are the links of `chain`.

    P_0's is its minors, sorted, with no Buchberger run: the maximal minors
    of a generic matrix are a universal Groebner basis (Sturmfels &
    Zelevinsky, Adv. Math. 98, 1993), and these are monic with lead
    x_j y_i, i < j, dividing no other term, so reduced.  Each later link
    adds one form, F_i of total degree d, in ascending degree, and its basis
    extends the one before by it (`groebner.extend`), so the pairs of P_i
    are never formed again; the last is the basis of P = P_{d-1}.
    """
    links, ring = chain(j), j.working_ring()
    bases = [groebner.GroebnerBasis(ring, links[0], tuple(sorted(
        links[0], key=lambda p: ring.key(p.lm()))))]
    for link in links[1:]:
        bases.append(groebner.extend(bases[-1], link[len(bases[-1].gens):]))
    return tuple(bases)


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

    `ideal_matches` says that `rees_ideal` did not raise: its certificate
    (P in J, a y_{n+1} - g y_1 in P, x_1 and f regular on S/P) holds exactly
    when P = J, and a failing clause is the witness.

    Minimality is read off `link_bases`: the form a link adds is redundant
    exactly when the link's basis equals the one before, i.e. when the form
    lies in the ideal of the forms before it.  The minors are linearly
    independent (only x_j y_i - x_i y_j contains x_j y_i), and the links add
    the F_i, of total degree d >= 2, one at a time, so this is the
    ascending-degree greedy, which keeps beta_0 forms by graded Nakayama.
    """
    bases = link_bases(j)
    witnesses = []
    try:
        rees_ideal(j)
    except NotCertified as exc:
        witnesses.append(f"P != J: {exc}")
    matches = not witnesses

    redundant = [form for here, after in zip(bases, bases[1:]) if after.basis == here.basis
                 for form in after.gens[len(here.gens):]]
    witnesses.extend(f"redundant generator: {p}" for p in redundant)
    minimal = not redundant

    count = len(bases[-1].gens)
    expected = comb(j.n, 2) + j.d - 1
    if count != expected:
        witnesses.append(f"generator count {count} != {expected}")
    return TheoremReport(ideal_matches=matches, minimal=minimal, count=count,
                         expected_count=expected, witnesses=tuple(witnesses))


def linear_type(j: DeJonquieresMap) -> bool:
    """The presentation ideal is generated in y-degree one: P_1 = (P_0, F_0)."""
    return groebner.ideal_equal(link_bases(j)[1], rees_ideal(j))


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

    Every colon is read off the Hilbert numerators of two neighbouring links
    (`link_bases`): with P_{i+1} = (P_i, F_i) and e = deg F_i, the exact
    sequence 0 -> S/(P_i : F_i)(-e) -> S/P_i -> S/P_{i+1} -> 0 gives
    HS(S/(P_i : F_i)) t^e = HS(S/P_i) - HS(S/P_{i+1}) (Stanley, Adv. Math.
    1978).  A candidate C_i inside P_i : F_i is the colon exactly when
    N(P_i) = N(P_{i+1}) + t^e N(C_i).  C_0 = P_0, which the colon always
    contains, so the first check says F_0 is regular on S/P_0.  For i >= 1,
    C_i = (x_1..x_n), which lies in P_i : F_i when x_k F_i lies in P_i for
    every k; N(C_i) = (1 - t)^n (`groebner.variables_numerator`).
    `groebner.colon` is the test oracle.
    """
    bases = link_bases(j)
    s_ring = bases[0].ring
    support = [s_ring.variable(nm) for nm in j.source.names[: j.n]]
    support_num = groebner.variables_numerator(j.n)
    checks, witnesses = [], []
    for i, (here, after) in enumerate(zip(bases, bases[1:])):
        form, num = after.gens[-1], groebner.hilbert_series_numerator(here)
        ok = (num == groebner.numerator_from_colon(
                  groebner.hilbert_series_numerator(after), form.total_degree(),
                  num if i == 0 else support_num)
              and (i == 0 or all(here.contains(x * form) for x in support)))
        checks.append(ok)
        if not ok:
            witnesses.append(f"P_{i} : F_{i} != (x_1..x_{j.n})" if i
                             else "P_0 : F_0 enlarged P_0")
    return ColonReport(base_stable=checks[0], support_colons=tuple(checks[1:]),
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
    (Stanley, Adv. Math. 1978).  The forms come from a fixed random.Random(0).
    The k = 1 cut always passes: J, the kernel of S -> k[t, x], is prime and
    holds no linear form (x_1 f..x_n f, g are linearly independent), so every
    nonzero linear form is regular on S/J.  A k = 1 mismatch raises JonqError.
    The forms go into J's generators (for `rees_ideal`, the chain's C(n,2) +
    d - 1 forms), not its longer reduced basis: both generate J, so the
    section and its reduced basis are the same.
    """
    ring = ideal.ring
    numerator = groebner.hilbert_series_numerator(ideal)
    rng = random.Random(0)
    for k in range(n + 2, 0, -1):
        keep = RingSpec(ring.names[:ring.nvars - k], ring.modulus)
        forms = {name: Polynomial(keep, zip([v.lm() for v in keep.variables()],
                                            _random_point(keep, rng)))
                 for name in ring.names[ring.nvars - k:]}
        section = groebner.buchberger(map(substitution(ring, forms), ideal.gens), ring=keep)
        if groebner.hilbert_series_numerator(section) == numerator:
            return section
    raise JonqError("no linear form is regular on S/J: the ideal is not the prime J")


def projdim_probe(j: DeJonquieresMap) -> int:
    """Length of the minimal free resolution of S/J, J the presentation ideal.

    What is resolved is the linear section of `_certified_section`: modulo a
    regular sequence of linear forms the graded Betti table is unchanged
    (Bruns & Herzog, Cohen-Macaulay Rings, Prop. 1.1.5), so the section has
    the Betti table, and the projective dimension, of S/J whatever the random
    draw; a bad draw only cuts fewer variables.
    """
    section = _certified_section(rees_ideal(j), j.n)
    return groebner.minimal_free_resolution(list(section.basis)).length()


def is_cohen_macaulay(j: DeJonquieresMap, projdim: int) -> bool:
    return projdim == j.n


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

    Cuts by ell = x_{n+1} - lam.  With f_H = f(x, lam) and g_H = g(x, lam) in
    k[x_1..x_n], lam is taken exactly when gcd(f_H, g_H) = 1, decided by
    `groebner.coprime` (a common variable, a line, or else g_H regular
    modulo f_H by a Buchberger run); then the implicit equation
    of F_H = (x_1 f_H : .. : x_n f_H : g_H) is h = f_H(y') y_{n+1} - g_H(y'),
    degree_ok says that ell on the inverse coordinates is a multiple of h,
    and scalar is its leading coefficient.  This one test decides both
    verdicts (Bruns & Herzog, Cohen-Macaulay Rings, 1.2 and 1.5):

    - ell is regular on R/I exactly when gcd(f_H, g_H) = 1.  `construct`
      certifies gcd(f, g) = 1 and g in m' = (x_1..x_n), so I : f = m' and
      (f, g)/I is (R/m')(-(d-1)).  At a minimal prime of (f, g) other than
      m', I = (f, g) locally, so Ass(R/I) = {m'} u Min(f, g).  ell is not in
      m', so it is regular on R/I exactly when it avoids Min(f, g), which is
      Ass(R/(f, g)) since f, g is a regular sequence; that is, when f, g,
      ell, and so ell, f, g, is a regular sequence, i.e. when f_H, g_H is
      one in R/(ell) = k[x_1..x_n].  At n = 1 both fail for every lam: f_H
      and g_H are both multiples of x_1.
    - The kernel of y -> F_H is (h).  A form Phi(y', y_{n+1}) of degree e
      goes to f_H^e Phi(x, g_H / f_H), so it lies in the kernel exactly when
      f_H T - g_H divides Phi(x, T) in k[x][T]; f_H T - g_H is primitive and
      linear in T, so irreducible by Gauss's lemma.  ell on the inverse G
      lies in the kernel, since G(F) = D x gives
      ell(G(F_H)) = D(x, lam) ell(x, lam) = 0, and it has degree d = deg h,
      so it is c h; monic forms compare it, and a nonzero c is the scalar.

    Without a given lam, up to SPECIALIZATION_TRIES random forms are tried;
    if all are rejected (as when R/I has depth 0, e.g. n = 1), the report
    has regular=False, lam=None and the rejected forms.
    """
    ring = j.source
    n = j.n
    last = ring.names[n]
    cut = RingSpec(ring.names[:n], ring.modulus)
    rng = rng or random.Random(0)

    def random_candidates():
        units = [ring.variable(k).lm() for k in range(n)]
        for _ in range(SPECIALIZATION_TRIES):
            yield Polynomial(ring, [(u, rng.randrange(1, 1001) if ring.modulus is None
                                     else rng.randrange(0, ring.modulus)) for u in units])

    rejected, regular = [], False
    for cand in ((lam,) if lam is not None else random_candidates()):
        on_cut = substitution(ring, {last: transport(cand, cut)})
        fh, gh = on_cut(j.f), on_cut(j.g)
        if fh and gh and groebner.coprime(fh, gh):
            lam, regular = cand, True
            break
        rejected.append(cand)

    degree_ok, scalar, verdict = False, None, "no regular cut"
    if regular:
        inv, _ = inverse(j)
        ell = ring.variable(last) - lam
        ell_of_inverse = substitute(ell, dict(zip(ring.names, inv.base_forms)))
        to_y = substitution(cut, dict(zip(cut.names, j.target.variables())))
        h = to_y(fh) * j.target.variable(n) - to_y(gh)
        degree_ok = ell_of_inverse.monic() == h.monic()
        scalar = ell_of_inverse.lc() if degree_ok else None
        verdict = "pass" if degree_ok else "equation differs"
    log.debug("specialization: lam = %s, %d rejected, %s", lam, len(rejected), verdict)
    return SpecializationReport(lam=lam, regular=regular, degree_ok=degree_ok, scalar=scalar,
                                rejected=tuple(rejected))


REPORT_CHECKS = ("theorem", "colon", "cone", "projdim", "special")
# the report keys that `case_report` gives a "pass"/"fail" verdict
VERDICT_KEYS = ("theorem", "colon", "cone_hilbert", "special")


def case_report(j: DeJonquieresMap, seed=None, checks=REPORT_CHECKS) -> dict:
    """JSON-ready report for one map; schema used by the CLI and the probe.

    The checks share one J: while they run, the downgraded sequence,
    `link_bases` and `rees_ideal` are computed once for j (`dejonq.case_scope`),
    and so is a failing certificate.  When J is not certified, cone and
    projdim are "skipped".
    """
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
    with case_scope(j):
        if "theorem" in checks:
            report["theorem"] = "pass" if verify_main_theorem(j).ok else "fail"
        if "colon" in checks:
            report["colon"] = "pass" if colon_lemma_checks(j).ok else "fail"
        try:
            if "cone" in checks:
                report["cone_hilbert"] = "pass" if cone_betti(j).ok else "fail"
            if "projdim" in checks:
                pd = projdim_probe(j)
                report["projdim"] = pd
                report["cm"] = is_cohen_macaulay(j, pd)
                report["conjecture_expected_cm"] = j.d <= j.n + 1
                if report["cm"] != report["conjecture_expected_cm"]:
                    report["conjecture_counterexample"] = True
        except NotCertified:
            report["skipped"] = "J not certified"
        if "special" in checks:
            rng = random.Random(seed if seed is not None else 0)
            report["special"] = "pass" if specialization_check(j, rng=rng).ok else "fail"
    report["runtime_ms"] = int((time.monotonic() - start) * 1000)
    return report
