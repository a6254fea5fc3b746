"""Identity-support generalized de Jonquieres maps.

A map of degree d >= 2 on P^n is determined by a pair of relatively prime
forms f (degree d-1) and g (degree d) in k[x_1..x_{n+1}] that are monoids in
the distinguished last variable (degree <= 1 in it, at least one degree
exactly 1) with g inside (x_1,..,x_n); the map is (x_1 f : .. : x_n f : g).

The downgraded sequence F_0,..,F_{d-2} in the bigraded ring k[x, y] starts
at F_0 = f y_{n+1} - sum q_i y_i and trades the greedy x-content of each
form for y-variables; `downgraded_sequence` is the one downgrading loop, run
once per `case_scope` (one Rees case report) through `shared_sequence`.
The module reads the inverse map off the x-coefficients of the last member
(one candidate, certified once: the sign of its last coordinate is forced
because the last member vanishes on the graph of the map), writes down the
closed-form minimal free resolution of the base ideal (a FreeComplex,
whose matrices resolutions.is_graded_complex checks; `jonq resolve` compares
its Betti table with the Groebner oracle's, which keeps only shifts), and
checks the structural consequences (saturation, (x_1..x_n) = I : f as the
associated support prime, Cohen-Macaulayness exactly in the plane case,
plane multiplicity d(d-1)+1).  Saturation needs no saturation run: by
Auslander-Buchsbaum, depth R/I = (n+1) - projdim R/I, so I is saturated
(depth R/I >= 1) iff the oracle resolution has length below n+1.  Nor does
I : f need a colon run, or I a Groebner basis of its own: I : f is read off
the Hilbert numerator of I, which is the alternating sum of the oracle
resolution's Betti table (see `structural_checks`).
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from math import comb

from . import groebner
from .cremona import InversionCertificate, inversion_certificate
from .polycore import (
    JonqError,
    Polynomial,
    RingSpec,
    degree_in,
    dot,
    transport,
    x_decompose,
    xprime_order,
)
from .resolutions import is_graded_complex


class ConstructionError(JonqError):
    """A proposed (f, g, n) violates the de Jonquieres conditions."""


def source_ring(n: int, modulus: int | None = None) -> RingSpec:
    if n < 1:
        raise ConstructionError("n must be at least 1")
    return RingSpec([f"x{i}" for i in range(1, n + 2)], modulus)


def target_ring(n: int, modulus: int | None = None, stem: str = "y") -> RingSpec:
    return RingSpec([f"{stem}{i}" for i in range(1, n + 2)], modulus)


@dataclass(frozen=True)
class DeJonquieresMap:
    """Validated identity-support de Jonquieres map (x_1 f : .. : x_n f : g)."""

    n: int
    d: int
    f: Polynomial
    g: Polynomial
    source: RingSpec
    target: RingSpec

    @functools.cached_property
    def base_forms(self) -> tuple[Polynomial, ...]:
        """(x_1 f, .., x_n f, g), built once per map: a frozen dataclass
        still has an instance dict, which the cache writes past __setattr__
        and which equality and hashing, read off the fields, never see."""
        xs = self.source.variables()
        return tuple(xs[i] * self.f for i in range(self.n)) + (self.g,)

    def working_ring(self) -> RingSpec:
        """Bigraded ring on source then target variables."""
        return RingSpec(self.source.names + self.target.names,
                        self.source.modulus,
                        split=(self.source.nvars, self.target.nvars))

    def support_block(self) -> tuple[str, ...]:
        return self.source.names[: self.n]

    def __repr__(self):
        return f"DeJonquieresMap(n={self.n}, d={self.d}, f={self.f}, g={self.g})"


def construct(f: Polynomial, g: Polynomial, n: int,
              target: RingSpec | None = None) -> DeJonquieresMap:
    """Validate (f, g, n) and build the map; raises ConstructionError with the
    first violated condition otherwise."""
    if f.ring != g.ring:
        raise ConstructionError("f and g live in different rings")
    ring = f.ring
    if ring.nvars != n + 1:
        raise ConstructionError(f"ring must have n+1 = {n + 1} variables")
    if n < 1:
        raise ConstructionError("n must be at least 1")
    if f.is_zero() or g.is_zero():
        raise ConstructionError("f and g must be nonzero")
    if not f.is_homogeneous() or not g.is_homogeneous():
        raise ConstructionError("f and g must be homogeneous")
    d = g.total_degree()
    if d < 2:
        raise ConstructionError(f"deg g = {d} < 2")
    if f.total_degree() != d - 1:
        raise ConstructionError(
            f"degree mismatch: deg f = {f.total_degree()} but deg g - 1 = {d - 1}")
    # decided by a common variable or a line, rarely by a Buchberger run
    if not groebner.coprime(f, g):
        raise ConstructionError("gcd(f,g) != 1")
    last = ring.names[n]
    rf, rg = degree_in(f, last), degree_in(g, last)
    if rf > 1:
        raise ConstructionError(f"f has degree {rf} > 1 in {last} (not a monoid)")
    if rg > 1:
        raise ConstructionError(f"g has degree {rg} > 1 in {last} (not a monoid)")
    if rf != 1 and rg != 1:
        raise ConstructionError(f"neither f nor g involves {last}")
    block = ring.names[:n]
    if xprime_order(g, block=block) < 1:
        raise ConstructionError(f"g is not inside ({', '.join(block)})")
    tgt = target or target_ring(n, ring.modulus, stem="y" if ring.names[0][0] != "y" else "z")
    return DeJonquieresMap(n=n, d=d, f=f, g=g, source=ring, target=tgt)


def q_decomposition(j: DeJonquieresMap) -> tuple[Polynomial, ...]:
    """The greedy decomposition g = q_1 x_1 + .. + q_n x_n."""
    return x_decompose(j.g, block=j.support_block())


@dataclass(frozen=True)
class DowngradedSequence:
    """Forms F_0..F_{d-2} in the bigraded working ring.

    content[i] = (c_{i,1}, .., c_{i,n}) is the greedy decomposition
    F_i = sum_k c_{i,k} x_k, so that F_{i+1} = sum_k c_{i,k} y_k; one entry
    per i < d-2.
    """

    q: tuple[Polynomial, ...]
    forms: tuple[Polynomial, ...]
    content: tuple[tuple[Polynomial, ...], ...]

    @property
    def ring(self) -> RingSpec:
        return self.forms[0].ring


def downgraded_sequence(j: DeJonquieresMap) -> DowngradedSequence:
    """F_0 = f y_{n+1} - sum q_i y_i, then d-2 steps, each trading the greedy
    x-content of F_i for y-variables.  f and every q_i lie in the (d-2)-th
    power of (x_1..x_n), and f or some q_i has a term x_{n+1} times a form of
    degree d-2 in x_1..x_n, so there are exactly d-2 steps."""
    q = q_decomposition(j)
    work = j.working_ring()
    ys = [work.variable(y) for y in j.target.names]
    coefficients = [transport(-qi, work) for qi in q] + [transport(j.f, work)]
    forms = [dot(work, coefficients, ys)]
    content = []
    for step in range(1, j.d - 1):
        content.append(x_decompose(forms[-1], block=j.support_block()))
        forms.append(dot(work, content[-1], ys[: j.n]))
        if forms[-1].is_zero():
            raise JonqError(f"downgrading collapsed to zero at step {step}")
    return DowngradedSequence(q=q, forms=tuple(forms), content=tuple(content))


# (map, {function: result}) while `case_scope` is open on that map, else None
_case_memo: tuple[DeJonquieresMap, dict] | None = None


@contextlib.contextmanager
def case_scope(j: DeJonquieresMap):
    """While open, `once_per_case` functions compute once for j; the memo is
    dropped on exit, a raise included."""
    global _case_memo
    _case_memo = (j, {})
    try:
        yield
    finally:
        _case_memo = None


def once_per_case(fn):
    """fn(j), computed once for the map of the open `case_scope`, and afresh
    for any other map or outside a scope; a JonqError raise is kept too."""
    @functools.wraps(fn)
    def memoized(j):
        memo = _case_memo  # read once: a scope in another thread may swap it
        if memo is None or memo[0] is not j:
            return fn(j)
        results = memo[1]
        if fn not in results:
            try:
                results[fn] = fn(j)
            except JonqError as exc:
                results[fn] = exc
        if isinstance(results[fn], JonqError):
            raise results[fn]
        return results[fn]
    return memoized


@once_per_case
def shared_sequence(j: DeJonquieresMap) -> DowngradedSequence:
    """`downgraded_sequence(j)`, shared by the Rees chain and `inverse`."""
    return downgraded_sequence(j)


class InverseError(JonqError):
    pass


def inverse(j: DeJonquieresMap) -> tuple[DeJonquieresMap, InversionCertificate]:
    """Inverse map from the x-coefficients of the last downgraded form.

    F_{d-2} has bidegree (1, d-1): every term has exactly one x, so its greedy
    x-content over x_1..x_{n+1} writes F_{d-2} = sum_{i <= n+1} A_i(y) x_i
    with A_i its partial derivatives.  The inverse is
    (f' y_1 : .. : f' y_n : g') with f' = A_{n+1} and
    g' = -sum_{i <= n} A_i y_i.  The sign is forced: F_{d-2} vanishes on the
    graph of the map, so sum_{i <= n} A_i(J) x_i = -A_{n+1}(J) x_{n+1}, and
    composing gives G(J) = f A_{n+1}(J) (x_1, .., x_{n+1}).  The one candidate
    is certified once by cremona.inversion_certificate(f, g, f', g'), which
    pulls f' and g' back through the shape of J and checks the one identity
    g'(J) = f f'(J) x_{n+1}; neither map is expanded into its n+1
    coordinates.
    """
    last = shared_sequence(j).forms[-1]
    work = last.ring
    n = j.n
    *coefficients, fprime_w = x_decompose(last, block=j.source.names)
    if fprime_w.is_zero():
        raise InverseError("last downgraded form does not involve the last variable")
    gprime_w = -dot(work, coefficients, [work.variable(y) for y in j.target.names[:n]])
    fprime = transport(fprime_w, j.target)
    gprime = transport(gprime_w, j.target)
    cert = inversion_certificate(j.f, j.g, fprime, gprime)
    if not isinstance(cert, InversionCertificate):
        raise InverseError(f"inversion certificate fails at coordinate {cert.index} ({cert.reason})")
    return construct(fprime, gprime, n, target=j.source), cert


@dataclass(frozen=True)
class FreeComplex:
    """Explicit graded free complex; matrices[k] maps position k+1 to k.

    Each matrix is stored as a tuple of columns of polynomials;
    shifts[k] lists the generator degrees of the position-k free module,
    as in resolutions.Resolution.
    """

    ring: RingSpec
    shifts: tuple[tuple[int, ...], ...]
    matrices: tuple[tuple[tuple[Polynomial, ...], ...], ...]

    def betti(self) -> groebner.BettiTable:
        return groebner.BettiTable.from_shift_lists(self.shifts)

    def length(self) -> int:
        return len(self.shifts) - 1

    def verify(self) -> bool:
        """Entries are homogeneous of the degree dictated by the shifts and
        consecutive products vanish."""
        return is_graded_complex(self.ring, self.shifts, self.matrices)


def _koszul_differential(ring: RingSpec, n: int, p: int) -> list[tuple[Polynomial, ...]]:
    """Columns of the p-th Koszul differential of the first n variables.

    Columns are indexed by p-subsets, rows by (p-1)-subsets, both in
    lexicographic order; entry signs follow the alternating convention.
    """
    from itertools import combinations
    rows = {s: i for i, s in enumerate(combinations(range(n), p - 1))}
    columns = []
    for subset in combinations(range(n), p):
        col = [ring.zero()] * len(rows)
        for t, elem in enumerate(subset):
            entry = ring.variable(elem)
            col[rows[subset[:t] + subset[t + 1:]]] = entry if t % 2 == 0 else -entry
        columns.append(tuple(col))
    return columns


def resolution(j: DeJonquieresMap) -> FreeComplex:
    """Closed-form minimal graded free resolution of R / (base ideal).

    Position 1 is R(-d)^{n+1}; position 2 is R(-(d+1))^C(n,2) + R(-(2d-1))
    with matrix [Koszul(x_1..x_n) | (-q_1,..,-q_n,f)^T]; the tail repeats the
    Koszul tail of (x_1..x_n) shifted by d-1.
    """
    ring = j.source
    n, d = j.n, j.d
    zero = ring.zero()
    extra = tuple(-qi for qi in q_decomposition(j)) + (j.f,)
    shifts = [(0,), (d,) * (n + 1), (d + 1,) * comb(n, 2) + (2 * d - 1,)]
    matrices = [tuple((form,) for form in j.base_forms),
                tuple(col + (zero,) for col in _koszul_differential(ring, n, 2)) + (extra,)]
    for p in range(3, n + 1):
        columns = _koszul_differential(ring, n, p)
        if p == 3:  # the zero row of the extra summand R(-(2d-1))
            columns = [col + (zero,) for col in columns]
        matrices.append(tuple(columns))
        shifts.append((d + p - 1,) * comb(n, p))
    return FreeComplex(ring=ring, shifts=tuple(shifts), matrices=tuple(matrices))


@dataclass(frozen=True)
class StructuralReport:
    """Outcome of the structural corollaries for one map."""

    saturated: bool
    colon_contains_support: bool  # I : f = (x_1..x_n), an associated prime of I
    projdim: int
    cm: bool
    cm_iff_plane: bool
    multiplicity: int | None
    multiplicity_expected: int | None
    witnesses: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        mult_ok = (self.multiplicity is None
                   or self.multiplicity == self.multiplicity_expected)
        return (self.saturated and self.colon_contains_support
                and self.cm_iff_plane and mult_ok)


def structural_checks(j: DeJonquieresMap) -> StructuralReport:
    """Saturation, the associated support prime, CM iff n = 2, plane multiplicity.

    Saturation and the Hilbert numerator N(I) are read off the oracle
    resolution, which projdim needs anyway: N(I) is the alternating sum of
    its graded Betti numbers (`BettiTable.alternating_numerator`).
    R = k[x_1..x_{n+1}] and I is a proper homogeneous ideal, so
    Auslander-Buchsbaum gives depth R/I = (n+1) - projdim R/I, and
    I : m^infinity = I iff m is not associated to R/I, iff depth R/I >= 1:
    I is saturated iff projdim < n+1.

    I : f = (x_1..x_n) holds for every valid map (gcd(f, g) = 1 and g lies
    in (x_1..x_n)); x_i in I : f alone would be vacuous, as x_i f generates I.
    It is read off the Hilbert numerator of I, from the exact sequence
    0 -> R/(I : f)(-(d-1)) -> R/I -> R/(I, f) -> 0.  Here (I, f) = (f, g), a
    complete intersection because `construct` certifies gcd(f, g) = 1, and
    (x_1..x_n) lies in I : f by construction, so I : f = (x_1..x_n) exactly
    when N(I) = (1 - t^(d-1))(1 - t^d) + t^(d-1) (1 - t)^n (Stanley, Adv.
    Math. 1978), (1 - t)^n being the closed-form numerator of (x_1..x_n)
    (`groebner.variables_numerator`); `groebner.colon` is the test oracle.
    """
    ring = j.source
    n = j.n
    oracle = groebner.minimal_free_resolution(list(j.base_forms))
    projdim = oracle.length()
    witnesses = []

    saturated = projdim < ring.nvars
    if not saturated:
        witnesses.append(f"projdim {projdim} = {ring.nvars}: I is not saturated")

    num = oracle.betti.alternating_numerator()
    complete_intersection = {0: 1, j.d - 1: -1, j.d: -1, 2 * j.d - 1: 1}  # N(f, g)
    support_ok = num == groebner.numerator_from_colon(
        complete_intersection, j.d - 1, groebner.variables_numerator(n))
    if not support_ok:
        witnesses.append(f"I : f != (x_1..x_{n})")

    cm = projdim == 2
    cm_iff_plane = cm == (n == 2)
    if not cm_iff_plane:
        witnesses.append(f"projdim {projdim} contradicts CM iff n=2 (n={n})")

    multiplicity = expected = None
    if n == 2:
        _, multiplicity = groebner.dim_and_multiplicity(num, ring.nvars)
        expected = j.d * (j.d - 1) + 1
        if multiplicity != expected:
            witnesses.append(f"multiplicity {multiplicity} != {expected}")

    return StructuralReport(
        saturated=saturated,
        colon_contains_support=support_ok,
        projdim=projdim,
        cm=cm,
        cm_iff_plane=cm_iff_plane,
        multiplicity=multiplicity,
        multiplicity_expected=expected,
        witnesses=tuple(witnesses),
    )


def random_map(n: int, d: int, rng, modulus: int = 32003) -> DeJonquieresMap:
    """Random valid map: f = f0 + f1 x_{n+1}, g = g0 + g1 x_{n+1} with sparse
    random forms f0, f1, g0, g1 in the support variables, resampled until the
    gcd, monoid and effectivity conditions hold."""
    from .polycore import random_form
    if n < 1 or d < 2:
        raise ConstructionError(f"need n >= 1 and d >= 2, got n = {n}, d = {d}")
    if n == 1 and d >= 3:
        raise ConstructionError(
            f"no valid map for n = 1, d = {d}: x1^(d-2) divides both f and g")
    ring = source_ring(n, modulus)
    last = ring.variable(n)
    block = ring.names[:n]
    for _ in range(1000):
        f0 = random_form(ring, d - 1, rng, terms=min(3, d), block=block)
        f1 = random_form(ring, d - 2, rng, terms=2, block=block)
        g0 = random_form(ring, d, rng, terms=3, block=block)
        g1 = random_form(ring, d - 1, rng, terms=2, block=block)
        drop_f1 = rng.random() < 0.25
        f = f0 if drop_f1 else f0 + f1 * last
        g = g0 + g1 * last
        try:
            return construct(f, g, n)
        except ConstructionError:
            continue
    raise JonqError(f"failed to sample a valid map for n={n}, d={d}")
