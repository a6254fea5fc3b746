"""Groebner-basis engine: Buchberger, elimination, kernels, colon ideals, Hilbert series.

One Buchberger engine (`_Engine`) serves both ideals and submodules of free
modules.  At its boundary a vector is a {term: coefficient} dict.  For an
ideal a term is a monomial (exponent tuple); for a module a term of
component c is the flat tuple (c, -c) + monomial, ordered by a key the
caller supplies (see resolutions.py).

Inside the engine every term is one int (packed exponent vectors, after
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007; see `_Packing`).  The high part holds
the digits of the term's order key in a balanced mixed radix, so int
comparison is the term order.  The low part holds one non-negative field per
exponent, each with a clear guard bit on top, and for a module term the
fields c and K - c, so divisibility never relates two components.  Every
order key is linear in the exponents within a component, so multiplying
terms is adding ints, the reducer's heap holds negated ints, `max` finds a
lead term, and divisibility is one subtraction and a mask test.  Fields are
sized from the input terms.  A reduction that carries a field into its guard
bit raises `_Overflow`; the engine then widens its fields and redoes that
reduction, so exponents never wrap.

Coefficients are monic ints over GF(p).  Over Q the engine is fraction-free:
every element is a primitive integer vector with a positive lead
coefficient, a reduction step scales the pending terms by a / gcd(a, c)
instead of dividing by the reducer's lead a (`_nf_dict`), and an S-pair
cross-multiplies by the two lead coefficients over their gcd.  Fractions
appear only at the boundary: `_pack` clears denominators, `element` and the
interreduced basis are made monic, and `reduce` divides by the tracked scale,
so it returns the exact normal form.  Every intermediate is a nonzero
rational multiple of the monic one and the reducer chosen depends only on
supports, so bases and syzygies are those of monic arithmetic.

Tuples remain at the boundary (`Polynomial.terms`, `GroebnerBasis.basis`,
`_Engine.element`/`reduce`/`add`/`extend`) and in the Gebauer-Moeller pair
update, which works on the lead tuples `_Engine.leads`.  Pair selection is
normal, which for homogeneous input is degree-by-degree.  The chain rule
applies to both kinds; the coprime-leading-terms (product) criterion holds
only for ideals.  Module pairs are formed only between elements of one
component, never on a key's tag block (see `_Engine`), and reducers are
bucketed by component.  Minimalizing and interreducing the final basis is a
step only `buchberger` runs.

`kernel` is the one elimination-based implicitization routine: the kernel
of a ring map, by one `eliminate` in the ring of the source-only variables
followed by the target's.  The presentation ideal of a blowup is such a
kernel, but `rees.rees_ideal` certifies its predicted generators instead and
runs `kernel` only when that certificate fails; the implicit equation of a
specialized map is read off the specialized forms in closed form
(`rees.specialization_check`).  `kernel` is the test oracle of both.

`is_regular` is the one nonzerodivisor test: it compares Hilbert numerators
after extending a reduced basis by the form, closing only the new pairs.
The colons the library needs are read off Hilbert numerators in the same
way (`dejonq.structural_checks`, `rees.colon_lemma_checks`); `intersect`,
`colon`, `colon_ideal` and `saturate` have no library caller and are the
tests' oracles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import gcd, lcm
from operator import mul

from .orders import elimination_order
from .polycore import (
    ArityError,
    JonqError,
    Polynomial,
    RingSpec,
    RingMismatchError,
    exact_div,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    transport,
)


class InhomogeneousError(JonqError):
    pass


class _Overflow(Exception):
    """A reduction carried an exponent field into its guard bit."""


class _Packing:
    """Packs the terms of one ring (or free module) into ints and back.

    Every coordinate of a term gets a field of `bits` bits whose top (guard)
    bit stays clear, so a field holds 0..cap.  An ideal term has one field
    per variable.  A module term (`comps` > 0 components) has the fields c
    and comps - 1 - c below its exponent fields.  Above the fields sit the
    digits of `key(term)`, digit i weighted by `weights[i]`; each radix is
    2 * bound + 1 for a bound on |digit| over all terms that fit, so int
    comparison of packed terms is comparison of their keys.
    """

    def __init__(self, key, nvars: int, comps: int, bits: int):
        self.key, self.comps, self.bits = key, comps, bits
        nfields = nvars + 2 if comps else nvars
        self.cap = (1 << (bits - 1)) - 1
        self.fmask = (1 << bits) - 1
        self.lobits = bits * nfields
        self.lomask = (1 << self.lobits) - 1
        self.guard = sum(1 << (s + bits - 1) for s in range(0, self.lobits, bits))
        self.cmask = self.fmask if comps else 0
        zero = (0,) * nvars
        units = [zero[:i] + (1,) + zero[i + 1:] for i in range(nvars)]
        if comps:
            consts = [key((c, -c) + zero) for c in range(comps)]
            units = [(0, 0) + u for u in units]
        else:
            consts = [key(zero)]
        slopes = [[a - b for a, b in zip(key(u), consts[0])] for u in units]
        weights = []
        w = 1 << self.lobits
        for d in reversed(range(len(consts[0]))):
            weights.append(w)
            w *= 2 * (max(abs(k[d]) for k in consts)
                      + self.cap * sum(abs(s[d]) for s in slopes)) + 1
        self.weights = weights[::-1]

    def pack(self, t) -> int:
        lo = 0
        for v in reversed((t[0], self.comps - 1 - t[0]) + t[2:] if self.comps else t):
            lo = lo << self.bits | v
        return sum(map(mul, self.key(t), self.weights)) + lo

    def unpack(self, m: int) -> tuple:
        f = tuple(m >> s & self.fmask for s in range(0, self.lobits, self.bits))
        return (f[0], -f[0]) + f[2:] if self.comps else f


def _nf_dict(work: dict, reducers: dict, mod, pk: _Packing) -> tuple[dict, int]:
    """Full normal form of the packed dict `work` (consumed): (remainder, scale).

    reducers: component -> list of (lead & lomask, lead, tail, a), a the
    lead coefficient: 1 over GF(p), where the remainder is the normal form
    and scale is 1; over Q the reducers are primitive integer vectors and
    the remainder is scale times the normal form of `work`.  A term with
    coefficient c meets a reducer lead a with g = gcd(a, c): the pending
    terms are multiplied by a/g, which grows the scale, and (c/g) x^shift
    tail is subtracted.  Each remainder term keeps the scale at which it was
    set aside and is brought to the final one at the end.  Raises _Overflow
    when a term does not fit `pk`.
    """
    lomask, guard, cmask = pk.lomask, pk.guard, pk.cmask
    if any(m & guard for m in work):
        raise _Overflow
    heap = [-m for m in work]
    heapq.heapify(heap)
    push, pop, get = heapq.heappush, heapq.heappop, work.get
    remainder: dict = {}
    scale = 1
    while heap:
        m = -pop(heap)
        c = work.pop(m, None)
        if not c:
            continue
        lo = m & lomask
        for llo, lm, tail, a in reducers.get(m & cmask, ()):
            d = lo - llo
            if d >= 0 and not d & guard:
                break
        else:
            remainder[m] = (c, scale) if mod is None else c
            continue
        shift = m - lm
        if mod is None:
            if a != 1:
                g = gcd(a, c)
                if g != a:
                    k = a // g
                    for t in work:
                        work[t] *= k
                    scale *= k
                c //= g
            for tm, tc in tail:
                m2 = tm + shift
                old = get(m2)
                if old is None:
                    if m2 & guard:
                        raise _Overflow
                    push(heap, -m2)
                    work[m2] = -c * tc
                else:
                    nc = old - c * tc
                    if nc:
                        work[m2] = nc
                    else:
                        del work[m2]
        else:
            negc = mod - c
            for tm, tc in tail:
                m2 = tm + shift
                old = get(m2)
                if old is None:
                    if m2 & guard:
                        raise _Overflow
                    push(heap, -m2)
                    work[m2] = negc * tc % mod
                else:
                    nc = (old + negc * tc) % mod
                    if nc:
                        work[m2] = nc
                    else:
                        del work[m2]
    if mod is None:
        return {m: c * (scale // s) for m, (c, s) in remainder.items()}, scale
    return remainder, 1


def _normalized(d: dict, mod) -> dict:
    """The nonzero packed dict d made monic over GF(p), or over Q made a
    primitive integer vector with a positive lead coefficient."""
    c = d[max(d)]
    if mod is None:
        g = gcd(*d.values())
        if c < 0:
            g = -g
        return d if g == 1 else {m: co // g for m, co in d.items()}
    if c == 1:
        return d
    inv = pow(c, mod - 2, mod)
    return {m: co * inv % mod for m, co in d.items()}


class _Engine:
    """Incremental Buchberger state: packed elements, lead tuples, pending pairs.

    `key` orders terms (the ring's monomial order for an ideal).  With
    `module` set, terms are encoded module terms (c, -c) + monomial: the
    product criterion is off and reducers and pairs are kept per component.

    A module key may carry a tag block, `key.block` (components >= block,
    ordered below all others; see `resolutions._module_key`).  An element
    whose lead lies on it is a reducer but forms no pair, so the run is
    Buchberger off the tag block only (`resolutions.syzygies` says why that
    suffices).

    `_saturate` and `add` take an optional degree limit d.  Under a key
    that leads with the degree, closing only the pairs whose key leads with
    at most d gives a d-truncated Groebner basis of homogeneous input.
    """

    def __init__(self, ring: RingSpec, key=None, module: bool = False):
        self.ring = ring
        self.key = key or ring.key
        self.module = module
        self.pk = _Packing(self.key, ring.nvars, 1 if module else 0, 8)
        self.elems: list[tuple] = []  # basis index -> (lead & lomask, lead, tail, lc)
        self.leads: list[tuple] = []
        self.reducers: dict = {}  # component -> [elems entries]
        self.members: dict = {}  # component -> basis indices that form pairs
        self.pairs: list[tuple] = []  # (key(lcm), lcm, i, j)
        self.block = getattr(self.key, "block", None)

    def element(self, k: int) -> dict:
        """Basis element k as a monic {term: coefficient} dict."""
        return self._unpack(self._element(k), self.elems[k][3])

    def reduce(self, v: dict) -> dict:
        """The normal form of v modulo the basis."""
        self._fit((v,))
        r, scale = self._nf(lambda: self._pack(v))
        if self.ring.modulus is None:
            scale *= lcm(*(c.denominator for c in v.values()))  # `_pack` cleared them
        return self._unpack(r, scale)

    def add(self, v: dict, degree: int | None = None) -> bool:
        """Adjoin v; False if it was already in the span (basis unchanged).

        With `degree` (the leading key digit of every term of v), only the
        pending pairs up to that degree are closed, before v is reduced:
        for homogeneous input that decides membership exactly, and the
        pairs above it stay pending.  Without it the basis is closed.
        """
        self._saturate(degree)
        self._fit((v,))
        if not self._insert(self._nf(lambda: self._pack(v))[0]):
            return False
        if degree is None:
            self._saturate()
        return True

    def extend(self, vectors) -> "_Engine":
        """Adjoin all vectors, in ascending order of lead, then close under pairs."""
        vectors = [v for v in vectors if v]
        self._fit(vectors)
        pack = self.pk.pack
        for v in sorted(vectors, key=lambda v: max(map(pack, v))):
            self._insert(self._nf(lambda: self._pack(v))[0])
        self._saturate()
        return self

    def adopt(self, vectors) -> "_Engine":
        """Adjoin the monic vectors of a basis already closed under its pairs.

        They become elements and reducers, and no pair among them is formed;
        a later `add` pairs only its own remainder with them.
        """
        self._fit(vectors)
        for v in vectors:
            comp = self._install(self._pack(v))
            self.members.setdefault(comp, []).append(len(self.elems) - 1)
        return self

    def _pack(self, v: dict) -> dict:
        """v with packed terms; over Q, times the lcm of its denominators."""
        pack = self.pk.pack
        if self.ring.modulus is not None:
            return {pack(t): c for t, c in v.items()}
        den = lcm(*(c.denominator for c in v.values()))
        return {pack(t): c.numerator * (den // c.denominator) for t, c in v.items()}

    def _unpack(self, d: dict, divisor: int = 1) -> dict:
        """The packed dict d with tuple terms; over Q, divided by `divisor`."""
        unpack = self.pk.unpack
        if self.ring.modulus is not None:
            return {unpack(m): c for m, c in d.items()}
        return {unpack(m): Fraction(c, divisor) for m, c in d.items()}

    def _element(self, k: int) -> dict:
        _, lead, tail, a = self.elems[k]
        d = {lead: a}
        d.update(tail)
        return d

    def _fit(self, dicts):
        """Widen the fields, if need be, so that every term of `dicts` fits."""
        pk = self.pk
        top = max((e for d in dicts for t in d for e in t[2 if self.module else 0:]),
                  default=0)
        comps = max((t[0] + 1 for d in dicts for t in d), default=0) if self.module else 0
        if top > pk.cap or comps > pk.comps:
            comps = max(pk.comps, 2 * comps)
            self._repack(max(pk.bits, (2 * top).bit_length() + 1, comps.bit_length() + 1),
                         comps)

    def _repack(self, bits: int, comps: int):
        old = [self.element(k) for k in range(len(self.elems))]
        self.pk = _Packing(self.key, self.ring.nvars, comps, bits)
        self.elems.clear()
        self.leads.clear()
        self.reducers.clear()
        for d in old:
            self._install(self._pack(d))

    def _nf(self, make, reducers=None) -> tuple[dict, int]:
        """(remainder, scale) of the packed dict make() builds, modulo reducers()
        or the basis (see `_nf_dict`).

        On overflow the fields are widened, and the dict rebuilt and reduced again.
        """
        while True:
            try:
                return _nf_dict(make(), reducers() if reducers else self.reducers,
                                self.ring.modulus, self.pk)
            except _Overflow:
                self._repack(2 * self.pk.bits, self.pk.comps)

    def _install(self, d: dict) -> int:
        """Append the normalized packed dict d as an element and reducer; returns
        its component."""
        pk = self.pk
        lead = max(d)
        entry = (lead & pk.lomask, lead, tuple((m, c) for m, c in d.items() if m != lead),
                 d[lead])
        comp = lead & pk.cmask
        self.elems.append(entry)
        self.leads.append(pk.unpack(lead))
        self.reducers.setdefault(comp, []).append(entry)
        return comp

    def _insert(self, r: dict) -> bool:
        """Adjoin the reduced packed dict r as a basis element, if it is nonzero."""
        if not r:
            return False
        comp = self._install(_normalized(r, self.ring.modulus))
        if self.block is None or comp < self.block:
            new = len(self.elems) - 1
            members = self.members.setdefault(comp, [])
            self._update_pairs(new, members)
            members.append(new)
        return True

    def _update_pairs(self, new: int, members):
        """Gebauer-Moeller pair update after appending basis element `new`.

        members: earlier basis indices in the component of `new`.
        """
        lms, key = self.leads, self.key
        lmf = lms[new]
        kept = []
        for pair in self.pairs:
            _, lij, i, j = pair
            if (not mono_divides(lmf, lij)
                    or mono_lcm(lms[i], lmf) == lij
                    or mono_lcm(lms[j], lmf) == lij):
                kept.append(pair)
        groups: dict = {}
        for i in members:
            groups.setdefault(mono_lcm(lms[i], lmf), []).append(i)
        minimal = []
        for lcm in sorted(groups, key=key):
            if not any(mono_divides(m, lcm) for m in minimal):
                minimal.append(lcm)
        for lcm in minimal:
            grp = groups[lcm]
            if not self.module and any(
                    mono_lcm(lms[i], lmf) == mono_mul(lms[i], lmf) for i in grp):
                continue
            kept.append((key(lcm), lcm, min(grp), new))
        self.pairs = kept

    def _spoly(self, i: int, j: int, lcm: tuple) -> dict:
        """S-polynomial of the basis elements i and j, from their tails.

        `lcm` is the lcm of their leads, as a tuple.  The elements are
        cross-multiplied by their lead coefficients over their gcd, which
        over GF(p), where both are 1, changes nothing.
        """
        _, li, ti, ai = self.elems[i]
        _, lj, tj, aj = self.elems[j]
        gamma = self.pk.pack(lcm)
        si, sj, mod = gamma - li, gamma - lj, self.ring.modulus
        g = gcd(ai, aj)
        ci, cj = aj // g, ai // g
        out = {si + m: ci * c for m, c in ti}
        for m, c in tj:
            m2 = sj + m
            nc = out.get(m2, 0) - cj * c
            if mod is not None:
                nc %= mod
            if nc:
                out[m2] = nc
            else:
                out.pop(m2, None)
        return out

    def _saturate(self, degree: int | None = None):
        """Close the basis under its pairs, or only those up to `degree`."""
        while self.pairs:
            keys = [p[0] for p in self.pairs]
            k = keys.index(min(keys))  # ties go to the earliest pair
            if degree is not None and keys[k][0] > degree:
                return
            _, lcm, i, j = self.pairs.pop(k)
            self._insert(self._nf(lambda: self._spoly(i, j, lcm))[0])


def _buchberger_dicts(inputs, ring: RingSpec):
    """Reduced Groebner basis (list of monic dicts) of the input dicts."""
    engine = _Engine(ring).extend(inputs)
    lms = engine.leads
    # minimalize: drop elements whose lead is divisible by another kept lead
    kept: list[int] = []
    for k in sorted(range(len(lms)), key=lambda k: engine.elems[k][1]):
        if not any(mono_divides(lms[i], lms[k]) for i in kept):
            kept.append(k)
    # interreduce tails; leads stay, so the result ascends by lead like `kept`
    final = []
    for k in kept:
        r, _ = engine._nf(lambda k=k: engine._element(k),
                          lambda k=k: {0: [engine.elems[i] for i in kept if i != k]})
        final.append(engine._unpack(r, r[max(r)]))
    return final


def _to_dict(p: Polynomial) -> dict:
    return dict(p.terms)


def _common_ring(gens) -> RingSpec:
    rings = {g.ring for g in gens}
    if len(rings) != 1:
        raise RingMismatchError("generators live in different rings")
    return rings.pop()


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis of an ideal under the ring's active order."""

    ring: RingSpec
    gens: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...]

    @cached_property
    def _engine(self) -> _Engine:
        return _Engine(self.ring).adopt([_to_dict(g) for g in self.basis])

    @cached_property
    def _hilbert_numerator(self) -> dict[int, int]:
        """Hilbert numerator of R/I; `is_regular` reads it, the rest get copies."""
        for g in self.gens if self.gens else self.basis:
            if not g.is_homogeneous():
                raise InhomogeneousError(f"generator {g} is not homogeneous")
        return _hilb_rec(_mono_minimalize([g.lm() for g in self.basis]), {})

    def reduce(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial not in the basis ring")
        return Polynomial._from_dict(self.ring, self._engine.reduce(_to_dict(p)))

    def contains(self, p: Polynomial) -> bool:
        return self.reduce(p).is_zero()

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)


def buchberger(gens, order=None, ring: RingSpec | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    An empty or all-zero generator list yields the zero ideal (empty basis);
    `ring` is only needed when it cannot be inferred from the generators.
    """
    gens = list(gens)
    if not gens and ring is None:
        raise JonqError("cannot infer the ring of an empty generator list")
    if gens:
        ring = _common_ring(gens)
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        gens = [Polynomial(ring, g.terms) for g in gens]
    dicts = [_to_dict(g) for g in gens if g]
    basis = _buchberger_dicts(dicts, ring)
    return GroebnerBasis(ring, tuple(gens), tuple(Polynomial._from_dict(ring, d) for d in basis))


def normal_form(p: Polynomial, gb) -> Polynomial:
    """Unique remainder of p modulo a Groebner basis (or generators)."""
    if not isinstance(gb, GroebnerBasis):
        gb = buchberger(list(gb))
    return gb.reduce(p)


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """x^(gamma/lm f) f/lc f - x^(gamma/lm g) g/lc g, gamma = lcm(lm f, lm g)."""
    if f.ring != g.ring:
        raise RingMismatchError("polynomials live in different rings")
    ring = f.ring
    gamma = mono_lcm(f.lm(), g.lm())
    return (ring.monomial(mono_div(gamma, f.lm())) * f.monic()
            - ring.monomial(mono_div(gamma, g.lm())) * g.monic())


def ideal_equal(gens_a, gens_b) -> bool:
    """True iff both generator sets span the same ideal (reduced bases coincide)."""
    def reduced(g):
        if isinstance(g, GroebnerBasis):
            return g.basis
        nz = [x for x in g if x]
        return buchberger(nz).basis if nz else ()
    return reduced(gens_a) == reduced(gens_b)


def eliminate(gens, nblock: int) -> list[Polynomial]:
    """Generators of (ideal) intersected with the subring without the first nblock variables.

    Returns polynomials in the original ring, free of the first block; they
    form a reduced Groebner basis of the contraction under the order obtained
    by restricting the block order (grevlex on the remaining variables).
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = _common_ring(gens)
    if nblock < 1 or nblock >= ring.nvars:
        raise ArityError("elimination block must be a proper nonempty prefix")
    gb = buchberger(gens, order=elimination_order(nblock))
    out = []
    for g in gb.basis:
        if all(all(e == 0 for e in m[:nblock]) for m, _ in g.terms):
            out.append(Polynomial(ring, g.terms))
    keyf = ring.key
    out.sort(key=lambda p: keyf(p.lm()))
    return out


def kernel(target: RingSpec, images: dict) -> list[Polynomial]:
    """Reduced grevlex basis, in `target`, of the kernel of a ring map.

    `images` sends target variable names to polynomials of one source ring;
    every other target variable goes to the source variable of the same name,
    as in `polycore.substitute`.  The kernel is (y - image(y)) contracted to
    the target variables, in the ring of the source-only variables followed
    by `target`'s (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms,
    3.3).  The part of the reduced elimination basis free of the source-only
    variables is itself the reduced grevlex basis of the contraction, so one
    `eliminate` and no second Buchberger run is needed.
    """
    source = _common_ring(list(images.values()))
    if any(nm in source.names for nm in images):
        raise JonqError("a mapped target variable must not name a source variable")
    extra = tuple(nm for nm in source.names if nm not in target.names)
    big = RingSpec(extra + target.names, target.modulus)
    gens = [big.variable(nm) - transport(img, big) for nm, img in images.items()]
    return [transport(p, target) for p in eliminate(gens, len(extra))]


def intersect(gens_a, gens_b) -> list[Polynomial]:
    """Generators of the intersection of two ideals (one-new-variable elimination)."""
    gens_a = [g for g in gens_a if g]
    gens_b = [g for g in gens_b if g]
    if not gens_a or not gens_b:
        return []
    ring = _common_ring(gens_a + gens_b)
    tname = next(f"_t{k}" for k in count() if f"_t{k}" not in ring.names)
    big = RingSpec((tname,) + ring.names, ring.modulus, None, elimination_order(1))
    t = big.variable(0)
    one_minus_t = big.one() - t
    lifted = [t * transport(g, big) for g in gens_a]
    lifted += [one_minus_t * transport(g, big) for g in gens_b]
    return [transport(g, ring) for g in eliminate(lifted, 1)]


def colon(gens, f: Polynomial) -> list[Polynomial]:
    """Generators of (I : f), via (I intersect (f)) / f."""
    if f.is_zero():
        raise JonqError("colon by the zero polynomial")
    inter = intersect(gens, [f])
    out = []
    for h in inter:
        q = exact_div(h, f)
        if q is None:
            raise JonqError("intersection element not divisible by f")
        out.append(q)
    if not out:
        return []
    gb = buchberger(out)
    return list(gb.basis)


def colon_ideal(gens, gens_j) -> list[Polynomial]:
    """Generators of (I : J) = intersection of (I : j) over generators j of J."""
    gens_j = [g for g in gens_j if g]
    if not gens_j:
        raise JonqError("colon by the zero ideal")
    result = colon(gens, gens_j[0])
    for j in gens_j[1:]:
        nxt = colon(gens, j)
        result = intersect(result, nxt) if result and nxt else []
        if not result:
            break
    return result


def saturate(gens, gens_j) -> GroebnerBasis:
    """Reduced basis of (I : J^infinity), by iterated colon; a GroebnerBasis I is used as is."""
    current = gens if isinstance(gens, GroebnerBasis) else buchberger(gens)
    while current.basis:
        nxt = buchberger(colon_ideal(current.basis, gens_j), ring=current.ring)
        if nxt.basis == current.basis:
            break
        current = nxt
    return current


# ---------- Hilbert series ----------

def _mono_minimalize(monos) -> tuple:
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    kept: list = []
    for m in monos:
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return tuple(kept)


def _p1_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            out[d] = out.get(d, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def _p1_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, c in b.items():
        nc = out.get(d, 0) + c
        if nc:
            out[d] = nc
        else:
            out.pop(d, None)
    return out


def _p1_shift(a: dict, k: int) -> dict:
    return {d + k: c for d, c in a.items()}


def _hilb_rec(gens: tuple, cache: dict) -> dict:
    if not gens:
        return {0: 1}
    if any(sum(m) == 0 for m in gens):
        return {}
    got = cache.get(gens)
    if got is not None:
        return got
    nv = len(gens[0])
    counts = [0] * nv
    for m in gens:
        for i, e in enumerate(m):
            if e:
                counts[i] += 1
    pivot = max(range(nv), key=lambda i: counts[i])
    if counts[pivot] <= 1:
        # pairwise coprime: product formula
        out = {0: 1}
        for m in gens:
            out = _p1_mul(out, {0: 1, sum(m): -1})
    else:
        unit = tuple(1 if i == pivot else 0 for i in range(nv))
        j1 = _mono_minimalize([unit] + [m for m in gens if m[pivot] == 0])
        j2 = _mono_minimalize(
            [tuple(e - 1 if i == pivot and e else e for i, e in enumerate(m)) for m in gens])
        out = _p1_add(_hilb_rec(j1, cache), _p1_shift(_hilb_rec(j2, cache), 1))
    cache[gens] = out
    return out


def hilbert_series_numerator(gens) -> dict[int, int]:
    """Numerator N(t) with HS(R/I) = N(t) / (1-t)^nvars.

    Input must be homogeneous; computed from the leading-term ideal, so the
    result is independent of the (degree-compatible) order.  A GroebnerBasis
    computes it once and keeps it; each call returns a fresh dict.
    """
    if not isinstance(gens, GroebnerBasis):
        gens = [g for g in gens if g]
        if not gens:
            return {0: 1}
        gens = buchberger(gens)
    return dict(gens._hilbert_numerator)


def numerator_from_colon(num_with_u: dict, e: int, num_colon: dict) -> dict[int, int]:
    """Hilbert numerator of R/K from those of R/(K, u) and R/(K : u), u a form
    of degree e: num_with_u + t^e num_colon, by the exact sequence
    0 -> R/(K : u)(-e) -> R/K -> R/(K, u) -> 0.  So a candidate C inside
    K : u is K : u exactly when N(K) = numerator_from_colon(N(K, u), e, N(C)).
    """
    return _p1_add(num_with_u, _p1_shift(num_colon, e))


def is_regular(gb: GroebnerBasis, u: Polynomial) -> bool:
    """True iff the form u is a nonzerodivisor on R/I, `gb` the reduced basis of I.

    For u of degree e, HS(R/(I, u)) = (1 - t^e) HS(R/I) + t^e HS(0 :_{R/I} u)
    (Stanley, Adv. Math. 1978), so u is regular, I : u = I, exactly when the
    Hilbert numerators satisfy N(I) = N(I, u) + t^e N(I)
    (`numerator_from_colon`).  The basis of (I, u) extends
    `gb`: its elements are adopted as they stand and only the pairs that u's
    remainder forms are closed.  `colon` is the test oracle: u is regular
    iff I : u = I.
    """
    if u.ring != gb.ring:
        raise RingMismatchError("form not in the basis ring")
    if u.is_zero():
        raise JonqError("regularity of the zero polynomial")
    if not u.is_homogeneous():
        raise InhomogeneousError(f"form {u} is not homogeneous")
    numerator = gb._hilbert_numerator
    engine = _Engine(gb.ring).adopt([_to_dict(g) for g in gb.basis])
    engine.add(_to_dict(u))
    return numerator == numerator_from_colon(_hilb_rec(_mono_minimalize(engine.leads), {}),
                                             u.total_degree(), numerator)


def dim_and_multiplicity(num: dict, nvars: int) -> tuple[int, int]:
    """(Krull dimension, multiplicity) read off the Hilbert numerator.

    Strips (1-t) factors; the remaining value at t=1 is the multiplicity and
    the number of stripped factors is the codimension.  The unit ideal gets
    the sentinel (-1, 0).
    """
    if not num:
        return (-1, 0)
    current = dict(num)
    codim = 0
    while current and sum(current.values()) == 0:
        top = max(current)
        run = 0
        quotient = {}
        for d in range(top + 1):
            run += current.get(d, 0)
            if run:
                quotient[d] = run
        current = quotient
        codim += 1
    mult = sum(current.values())
    return (nvars - codim, mult)


# re-exported resolution layer (BettiTable, syzygies, minimal_free_resolution)
from .resolutions import (  # noqa: E402
    BettiTable,
    Resolution,
    ResolutionBoundError,
    minimal_free_resolution,
    syzygies,
)

__all__ = [
    "GroebnerBasis", "buchberger", "normal_form", "spolynomial", "ideal_equal",
    "eliminate", "intersect", "colon", "colon_ideal", "saturate",
    "hilbert_series_numerator", "numerator_from_colon", "is_regular", "dim_and_multiplicity",
    "InhomogeneousError",
    "BettiTable", "Resolution", "ResolutionBoundError",
    "minimal_free_resolution", "syzygies",
]
