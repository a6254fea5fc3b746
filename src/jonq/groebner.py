"""Groebner-basis engine: Buchberger, elimination, colon ideals, Hilbert series,
a signature-based regularity test, coprimality.

One Buchberger engine (`_Engine`) serves both ideals and submodules of free
modules.  At its boundary a vector is a {term: coefficient} dict.  For an
ideal a term is a monomial (exponent tuple); for a module a term of
component c is the flat tuple (c, -c) + monomial, ordered by a key the
caller supplies along with the number of components (see resolutions.py).

Inside the engine every term is one int (packed exponent vectors, after
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007; see `_Packing`).  The high part holds
the digits of the term's order key in a balanced mixed radix, so int
comparison is the term order.  The low part holds one non-negative field per
exponent, each with a clear guard bit on top, and for a module term of K
components the fields c and K - 1 - c, so divisibility never relates two
components.  Every order key is linear in the exponents within a component,
so multiplying terms is adding ints, the reducer's heap holds negated ints,
`max` finds a lead term, and divisibility is one subtraction and a mask
test.  The same linearity makes packing a precomputed linear form: the key
is evaluated only when the packing is built, and packing a term is one dot
product of its exponents with per-variable ints.  An engine builds its
packing on its first input, with exponent fields sized from those terms.  A
reduction that carries a field into its guard bit raises `_Overflow`; the
engine then widens its fields, up to _MAX_BITS, and redoes that reduction,
so exponents never wrap.

Coefficients are ints.  One reduction loop serves both fields (`_nf_dict`):
pending coefficients are plain ints, and the field is applied once, when a
term is popped (delayed reduction; Monagan & Pearce, JSC 2011).  Over GF(p)
elements are monic.  Over Q the engine is fraction-free: every element is a
primitive integer vector with a positive lead coefficient, a reduction step
scales the pending terms by a / gcd(a, c) instead of dividing by the
reducer's lead a, and an S-pair cross-multiplies by the two lead
coefficients over their gcd.  Fractions appear only at the boundary: `_pack`
clears denominators, `element` and the interreduced basis are made monic,
and `reduce` divides by their lcm times the tracked scale, so it returns the
exact normal form.  Every intermediate is a nonzero rational multiple of the
monic one and the reducer chosen depends only on supports, so bases and
syzygies are those of monic arithmetic.

Tuples remain at the boundary (`Polynomial.terms`, `GroebnerBasis.basis`,
`_Engine.element`/`reduce`/`extend`) and in the Gebauer-Moeller pair
update, which works on the lead tuples `_Engine.leads`.  Pair selection is
normal, which for homogeneous input is degree-by-degree, and
`_Engine.extend`, the one way to adjoin vectors, interleaves them with it:
each vector meets a basis closed up to its degree, so `extend` reports
exactly the vectors outside the span of those before them.  The chain rule
applies to both kinds; the coprime-leading-terms (product) criterion holds
only for ideals.  Module pairs are formed only between elements of one
component, and reducers are bucketed by component.

`extend` is the one way an ideal's basis is built: given I's reduced basis
and new forms, the engine adopts I's elements as they stand, closes only
the pairs the new forms make, and then minimalizes and interreduces
(`_reduced`).  The basis it returns keeps those elements packed, with their
packing, so the next engine on it installs them without packing them again.
`buchberger` extends the zero ideal, and `rees.link_bases` grows the Rees
chain one link at a time.

`is_regular` is the one nonzerodivisor test: one incremental signature run
(Gao, Volny & Wang, Math. Comp. 2016) that reduces by I's reduced basis as
it stands, returns False at its first reduction to zero, and computes no
Hilbert numerator.  Its top reductions are `_nf_dict`'s, under a signature
bound.  The colons the library needs are read off Hilbert numerators
(`dejonq.structural_checks`, `rees.colon_lemma_checks`), and no library path
eliminates: `rees.rees_ideal` certifies the presentation ideal instead, and
the implicit equation of a specialized map is read off in closed form
(`rees.specialization_check`).  `eliminate`, `intersect`, `colon`,
`colon_ideal` and `saturate` have no library caller and are the tests'
oracles; so is the `kernel` of tests/oracles.py, one `eliminate`.
R/(x_1..x_k) needs no basis: its numerator is (1 - t)^k
(`variables_numerator`).  `coprime` decides gcd(f, g) = 1 by a common
variable or a line, and only otherwise by `is_regular(buchberger([f]), g)`.
"""

from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import comb, gcd, lcm
from operator import mul

from .orders import elimination_order
from .polycore import (
    ArityError,
    JonqError,
    Polynomial,
    RingSpec,
    RingMismatchError,
    _numerators,
    exact_div,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_minimal,
    mono_mul,
    transport,
)


class InhomogeneousError(JonqError):
    pass


class _Overflow(Exception):
    """A reduction carried an exponent field into its guard bit."""


_MAX_BITS = 1024  # the widest exponent field (`_widening`)


class _Packing:
    """Packs the terms of one ring (or free module) into ints and back.

    Every coordinate of a term gets a field of `bits` bits whose top (guard)
    bit stays clear, so a field holds 0..cap.  An ideal term has one field
    per variable.  A module term of component c, 0 <= c < comps, has the
    fields c and comps - 1 - c below its exponent fields.  Above them sit the
    digits of `key(term)`, digit i weighted by `weights[i]`; each radix is
    2 * bound + 1 for a bound on |digit| over all terms that fit, so int
    comparison of packed terms is comparison of their keys.

    The key is read once, here: it is linear in the exponents within a
    component, so the packed term is the linear form
    bases[c] + sum_i e_i * units[i], where bases[c] packs (c, -c) + 0 (or
    the zero monomial) and units[i] is variable i's key slope times the
    weights plus its field bit.  For a module term the first two units are
    0, so `pack` reads the whole flat term.
    """

    def __init__(self, key, nvars: int, comps: int, bits: int):
        self.key, self.comps, self.bits = key, comps, bits
        nfields = nvars + 2 if comps else nvars
        self.cap = (1 << (bits - 1)) - 1
        self.fmask = (1 << bits) - 1
        self.lobits = bits * nfields
        self.lomask = (1 << self.lobits) - 1
        self.fields = range(0, self.lobits, bits)
        self.guard = sum(1 << (s + bits - 1) for s in self.fields)
        self.cmask = self.fmask if comps else 0
        if key is None:  # the caller weighs it and sets its bases (resolutions._layout)
            return
        zero = (0,) * nvars
        unit_terms = [zero[:i] + (1,) + zero[i + 1:] for i in range(nvars)]
        if comps:
            consts = [key((c, -c) + zero) for c in range(comps)]
            unit_terms = [(0, 0) + u for u in unit_terms]
        else:
            consts = [key(zero)]
        self._weigh([max(map(abs, k)) for k in zip(*consts)],
                    [[a - b for a, b in zip(key(u), consts[0])] for u in unit_terms])
        lows = [c + ((comps - 1 - c) << bits) for c in range(comps)] or [0]
        self.bases = [sum(map(mul, k, self.weights)) + lo for k, lo in zip(consts, lows)]

    def _weigh(self, reach, slopes):
        """The weights and units: digit i's radix is
        2 * (reach[i] + cap * sum_j |slopes[j][i]|) + 1, reach[i] bounding
        |digit i| at every component's zero term and slopes[j] the digits'
        slopes in variable j."""
        weights = []
        w = 1 << self.lobits
        for r, s in reversed(list(zip(reach, zip(*slopes)))):
            weights.append(w)
            w *= 2 * (r + self.cap * sum(map(abs, s))) + 1
        self.weights = weights[::-1]
        first = 2 if self.comps else 0
        self.units = [0] * first + [sum(map(mul, s, self.weights)) + (1 << self.bits * (first + i))
                                    for i, s in enumerate(slopes)]

    def pack(self, t) -> int:
        return self.bases[t[0] if self.comps else 0] + sum(map(mul, t, self.units))

    def lead_digit(self, m: int) -> int:
        """The first digit of the key of the packed term m.  What lies below
        weights[0], the other digits and the fields, spans one window of
        weights[0] ints that starts at -(weights[0] - 2^lobits) / 2, so the
        digit is a floor division."""
        w = self.weights[0]
        return (m + (w - (1 << self.lobits)) // 2) // w

    def unpack(self, m: int) -> tuple:
        fmask = self.fmask
        f = [m >> s & fmask for s in self.fields]
        if self.comps:
            f[1] = -f[0]
        return tuple(f)


def _nf_dict(work: dict, reducers: dict, mod, pk: _Packing,
             bound: tuple[int, dict] | None = None) -> tuple[dict, int]:
    """Full normal form of the packed dict `work` (consumed): (remainder, scale).

    reducers: component -> list of (lead & lomask, lead, tail, a), a the
    lead coefficient: 1 over GF(p), where scale stays 1; over Q the reducers
    are primitive integer vectors.  The remainder is scale times the normal
    form of `work`.  Pending coefficients are plain ints, and a popped one
    is reduced mod p over GF(p); a cancelled term stays pending as a zero.
    A popped term with coefficient c meets a reducer lead a with
    g = gcd(a, c): the pending terms are multiplied by a/g, which grows the
    scale, and (c/g) x^shift tail is subtracted.  Each remainder term keeps
    the scale at which it was set aside and is brought to the final one at
    the end.  Raises _Overflow when a term does not fit `pk`.

    With `bound` = (sigma, ratios) it is a signature-safe top reduction
    instead (see `_signature_run`).  A reducer whose lead lm is a key of
    `ratios` has the signature lm - ratios[lm], and x^shift times it may
    cancel the term m only when x^shift times that signature,
    m - ratios[lm], is below sigma; the other reducers have signature 0 and
    always may.  The reduction stops at the first term no reducer may
    cancel and returns that lead and the pending terms as they stand.
    """
    lomask, guard, cmask = pk.lomask, pk.guard, pk.cmask
    sigma, ratios = bound or (None, None)
    if any(m & guard for m in work):
        raise _Overflow
    heap = [-m for m in work]
    heapq.heapify(heap)
    push, pop, get = heapq.heappush, heapq.heappop, work.get
    remainder: dict = {}
    scale = 1
    while heap:
        m = -pop(heap)
        c = work.pop(m)
        if mod is not None:
            c %= mod
        if not c:
            continue
        lo = m & lomask
        for llo, lm, tail, a in reducers.get(m & cmask, ()):
            d = lo - llo
            if d >= 0 and not d & guard:
                if ratios is None or lm not in ratios:
                    break
                msig = m - ratios[lm]
                if msig & guard:
                    raise _Overflow
                if msig < sigma:
                    break
        else:
            if bound:
                work[m] = c
                if mod is not None:
                    for t in work:
                        work[t] %= mod
                return {t: w for t, w in work.items() if w}, scale
            remainder[m] = (c, scale)
            continue
        if a != 1:
            g = gcd(a, c)
            if g != a:
                k = a // g
                for t in work:
                    work[t] *= k
                scale *= k
            c //= g
        shift = m - lm
        for tm, tc in tail:
            m2 = tm + shift
            old = get(m2)
            if old is None:
                if m2 & guard:
                    raise _Overflow
                push(heap, -m2)
                work[m2] = -c * tc
            else:
                work[m2] = old - c * tc
    return {m: c * (scale // s) for m, (c, s) in remainder.items()}, scale


def _normalized(d: dict, mod, lead=None) -> dict:
    """The nonzero int dict d made monic at `lead` over GF(p), or over Q made
    a primitive integer vector positive at `lead`; `lead` defaults to max(d),
    the lead of a packed dict."""
    c = d[max(d) if lead is None else lead]
    if mod is None:
        g = gcd(*d.values())
        if c < 0:
            g = -g
        return d if g == 1 else {m: co // g for m, co in d.items()}
    if c == 1:
        return d
    inv = pow(c, mod - 2, mod)
    return {m: co * inv % mod for m, co in d.items()}


def _entry(pk: _Packing, d: dict) -> tuple:
    """The normalized packed dict d as a reducer: (lead & lomask, lead, tail, a),
    a the lead coefficient, as `_nf_dict` reads it."""
    lead = max(d)
    return lead & pk.lomask, lead, tuple((m, c) for m, c in d.items() if m != lead), d[lead]


def _spoly(ei: tuple, ej: tuple, gamma: int) -> dict:
    """S-polynomial of the reducers ei and ej (`_entry`), from their tails.

    `gamma` is the lcm of their leads, packed.  The elements are
    cross-multiplied by their lead coefficients over their gcd, which over
    GF(p), where both are 1, changes nothing.  Coefficients are plain ints,
    possibly zero; `_nf_dict` applies the field.
    """
    _, li, ti, ai = ei
    _, lj, tj, aj = ej
    si, sj = gamma - li, gamma - lj
    g = gcd(ai, aj)
    ci, cj = aj // g, ai // g
    out = {si + m: ci * c for m, c in ti}
    for m, c in tj:
        m2 = sj + m
        out[m2] = out.get(m2, 0) - cj * c
    return out


def _widening(run, bits: int, repack):
    """run(), which reads the packing afresh, and after each `_Overflow`
    repack(2 * bits), on doubled fields, and run() again; past _MAX_BITS,
    JonqError, since a term may overflow at every width (a negative exponent
    does)."""
    while True:
        try:
            return run()
        except _Overflow:
            bits *= 2
            if bits > _MAX_BITS:
                raise JonqError(f"exponents overflow {_MAX_BITS}-bit fields") from None
            repack(bits)


class _Engine:
    """Incremental Buchberger state: packed elements, lead tuples, pending pairs.

    `key` orders terms (the ring's monomial order for an ideal).  With
    `comps` > 0, terms are module terms (c, -c) + monomial, 0 <= c < comps:
    the product criterion is off and reducers and pairs are kept per
    component.
    """

    def __init__(self, ring: RingSpec, key=None, comps: int = 0):
        self.ring = ring
        self.key = key or ring.key
        self.comps = comps
        self.pk: _Packing | None = None  # sized by the first `_fit`
        self.elems: list[tuple] = []  # basis index -> (lead & lomask, lead, tail, lc)
        self.leads: list[tuple] = []
        self.reducers: dict = {}  # component -> [elems entries]
        self.pairs: list[tuple] = []  # (packed lcm, lcm, i, j)

    def element(self, k: int) -> dict:
        """Basis element k as a monic {term: coefficient} dict."""
        return self._unpack(self._element(k), self.elems[k][3])

    def reduce(self, v: dict) -> dict:
        """The normal form of v modulo the basis."""
        self._fit((v,))
        r, scale = self._nf(lambda: self._pack(v))
        return self._unpack(r, scale * lcm(*(c.denominator for c in v.values())))

    def extend(self, vectors) -> list[bool]:
        """Adjoin the remainders of the vectors, stably by the leading key
        digit of their leads, closing the pending pairs whose key leads with
        at most that digit before each; then close the basis.  Returns, per
        vector, whether its remainder joined the basis.  Each vector is packed
        once, and that dict is reduced unless the packing has widened since."""
        self._fit(vectors)
        pk = self.pk
        packed = {i: self._pack(v) for i, v in enumerate(vectors) if v}
        digits = {i: pk.lead_digit(max(d)) for i, d in packed.items()}
        added = [False] * len(vectors)
        for i in sorted(digits, key=digits.get):
            self._saturate(digits[i])
            # `_nf_dict` consumes the dict, so a retry, on a wider packing, packs afresh
            r, _ = self._nf(lambda: packed[i] if self.pk is pk else self._pack(vectors[i]))
            added[i] = self._insert(r)
        self._saturate()
        return added

    def adopt(self, vectors, pk: "_Packing | None" = None) -> "_Engine":
        """Adjoin the monic vectors of a basis already closed under its pairs.

        They become elements and reducers, and no pair among them is formed;
        a later `extend` pairs only its own remainders with them.  With `pk`,
        the vectors are normalized dicts packed by it, as `_reduced` leaves
        them, and are installed as they stand, on that packing.
        """
        if pk is None:
            self._fit(vectors)
            vectors = [self._pack(v) for v in vectors]
        else:
            self.pk = pk
        for d in vectors:
            self._install(d)
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
        """Size the packing to the first input (at least 8 bits, room for twice
        its exponents and for the component fields); later widen it, if need
        be, so that every exponent of `dicts` fits."""
        pk = self.pk
        top = max((e for d in dicts for t in d for e in t[2 if self.comps else 0:]),
                  default=0)
        if pk is None or top > pk.cap:
            self._repack(max(8 if pk is None else pk.bits, (2 * top).bit_length() + 1,
                             self.comps.bit_length() + 1))

    def _repack(self, bits: int):
        old = [self.element(k) for k in range(len(self.elems))]
        self.pk = _Packing(self.key, self.ring.nvars, self.comps, bits)
        self.elems.clear()
        self.leads.clear()
        self.reducers.clear()
        for d in old:
            self._install(self._pack(d))
        self.pairs = [(self.pk.pack(lcm), lcm, i, j) for _, lcm, i, j in self.pairs]

    def _nf(self, make) -> tuple[dict, int]:
        """(remainder, scale) of the packed dict make() builds, modulo the
        reducers (see `_nf_dict`), widening the fields on overflow."""
        return _widening(lambda: _nf_dict(make(), self.reducers, self.ring.modulus, self.pk),
                         self.pk.bits, self._repack)

    def _install(self, d: dict):
        """Append the normalized packed dict d as an element and reducer."""
        entry = _entry(self.pk, d)
        self.elems.append(entry)
        self.leads.append(self.pk.unpack(entry[1]))
        self.reducers.setdefault(entry[1] & self.pk.cmask, []).append(entry)

    def _insert(self, r: dict) -> bool:
        """Adjoin the reduced packed dict r as a basis element, if it is nonzero."""
        if not r:
            return False
        self._install(_normalized(r, self.ring.modulus))
        self._update_pairs(len(self.elems) - 1)
        return True

    def _update_pairs(self, new: int):
        """Gebauer-Moeller pair update after appending basis element `new`,
        which pairs with every earlier element of its component.  The lcms
        go by degree, which ranks a monomial after its divisors, and each
        pair's lcm is packed once: pairs compare by that int."""
        lms = self.leads
        lmf = lms[new]
        lcms = {i: mono_lcm(lms[i], lmf) for i in range(new)
                if not self.comps or lms[i][0] == lmf[0]}
        kept = []
        for pair in self.pairs:
            _, lij, i, j = pair
            # lmf divides no lcm of another component, so lcms has i and j
            if not mono_divides(lmf, lij) or lcms[i] == lij or lcms[j] == lij:
                kept.append(pair)
        groups: dict = {}
        for i, lcm in lcms.items():
            groups.setdefault(lcm, []).append(i)
        for lcm in mono_minimal(groups, sum):
            grp = groups[lcm]
            if not self.comps and any(lcm == mono_mul(lms[i], lmf) for i in grp):
                continue
            kept.append((self.pk.pack(lcm), lcm, min(grp), new))
        self.pairs = kept

    def _saturate(self, digit: int | None = None):
        """Close the basis under its pairs, or those whose key leads with at most `digit`."""
        while self.pairs:
            keys = [p[0] for p in self.pairs]
            k = keys.index(min(keys))  # ties go to the earliest pair
            if digit is not None and self.pk.lead_digit(keys[k]) > digit:
                return
            _, lcm, i, j = self.pairs.pop(k)
            self._insert(self._nf(
                lambda: _spoly(self.elems[i], self.elems[j], self.pk.pack(lcm)))[0])


def _reduced(engine: _Engine) -> list[dict]:
    """The reduced Groebner basis of a closed engine, which this spends, as
    normalized dicts packed by the engine's packing (`_normalized`),
    ascending by lead."""
    # minimalize by lead; the leads are distinct, each element being a remainder
    index = {lead: k for k, lead in enumerate(engine.leads)}
    kept = [index[lead] for lead in mono_minimal(engine.leads, engine.pk.pack)]
    # reduce each tail by the kept elements; no tail term reaches its own lead;
    # a reduction that widens the packing packs every element again and makes
    # each a reducer, so the pass is redone
    while True:
        pk, final = engine.pk, []
        engine.reducers = {0: [engine.elems[k] for k in kept]}
        for k in kept:
            r, scale = engine._nf(lambda k=k: dict(engine.elems[k][2]))
            _, lead, _, a = engine.elems[k]
            r[lead] = a * scale
            final.append(_normalized(r, engine.ring.modulus))
        if engine.pk is pk:
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
    """Reduced Groebner basis of an ideal under the ring's active order.

    Two are equal when their rings and reduced bases are, so whatever
    generators built them, equal objects are the same ideal.  `extend`
    keeps in `packed` the basis as its engine packed it, with that packing,
    so the next engine on this basis installs those elements as they
    stand; `packed` takes no part in equality.
    """

    ring: RingSpec
    gens: tuple[Polynomial, ...] = dataclass_field(compare=False)
    basis: tuple[Polynomial, ...]
    packed: tuple | None = dataclass_field(default=None, compare=False, repr=False)

    @cached_property
    def _engine(self) -> _Engine:
        return _extension(self, ())

    @cached_property
    def _hilbert_numerator(self) -> dict[int, int]:
        """Hilbert numerator of R/I, computed once; `hilbert_series_numerator`
        hands out copies."""
        for g in self.gens if self.gens else self.basis:
            if not g.is_homogeneous():
                raise InhomogeneousError(f"generator {g} is not homogeneous")
        return _hilb_rec(mono_minimal([g.lm() for g in self.basis], _by_degree), {})

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


def buchberger(gens, ring: RingSpec | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    An empty or all-zero generator list yields the zero ideal (empty basis);
    `ring` is only needed when it cannot be inferred from the generators.
    """
    gens = list(gens)
    if not gens and ring is None:
        raise JonqError("cannot infer the ring of an empty generator list")
    if gens:
        ring = _common_ring(gens)
    return extend(GroebnerBasis(ring, (), ()), gens)


def _extension(gb: GroebnerBasis, forms) -> _Engine:
    """An engine whose elements are a Groebner basis of (I, forms), `gb` the
    reduced basis of I, not yet interreduced: gb's elements are adopted as
    they stand and form no pair among themselves, and only the pairs the
    remainders of `forms` make are closed."""
    if any(p.ring != gb.ring for p in forms):
        raise RingMismatchError("form not in the basis ring")
    vectors, pk = gb.packed or ([_to_dict(g) for g in gb.basis], None)
    engine = _Engine(gb.ring).adopt(vectors, pk)
    engine.extend([_to_dict(p) for p in forms])
    return engine


def extend(gb: GroebnerBasis, forms) -> GroebnerBasis:
    """Reduced Groebner basis of (I, forms), `gb` the reduced basis of I, by
    `_extension`; its generators are gb's followed by `forms`."""
    forms = tuple(forms)
    engine = _extension(gb, forms)
    packed = _reduced(engine)
    basis = tuple(Polynomial._from_dict(gb.ring, engine._unpack(d, d[max(d)])) for d in packed)
    return GroebnerBasis(gb.ring, gb.gens + forms, basis, (packed, engine.pk))


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
    block_ring = ring.with_order(elimination_order(nblock))
    gb = buchberger([Polynomial(block_ring, g.terms) for g in gens])
    out = []
    for g in gb.basis:
        if all(all(e == 0 for e in m[:nblock]) for m, _ in g.terms):
            out.append(Polynomial(ring, g.terms))
    keyf = ring.key
    out.sort(key=lambda p: keyf(p.lm()))
    return out


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

def _by_degree(m) -> tuple:
    """The key `_hilb_rec` orders its minimal generators by."""
    return sum(m), m


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
        j1 = mono_minimal([unit] + [m for m in gens if m[pivot] == 0], _by_degree)
        j2 = mono_minimal(
            [tuple(e - 1 if i == pivot and e else e for i, e in enumerate(m)) for m in gens],
            _by_degree)
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


def variables_numerator(k: int) -> dict[int, int]:
    """Hilbert numerator (1 - t)^k of R/(x_1..x_k), in any number of
    variables: R/(x_1..x_k) is a polynomial ring in the other variables."""
    return {i: (-1) ** i * comb(k, i) for i in range(k + 1)}


def numerator_from_colon(num_with_u: dict, e: int, num_colon: dict) -> dict[int, int]:
    """Hilbert numerator of R/K from those of R/(K, u) and R/(K : u), u a form
    of degree e: num_with_u + t^e num_colon, by the exact sequence
    0 -> R/(K : u)(-e) -> R/K -> R/(K, u) -> 0.  So a candidate C inside
    K : u is K : u exactly when N(K) = numerator_from_colon(N(K, u), e, N(C)).
    """
    return _p1_add(num_with_u, _p1_shift(num_colon, e))


def is_regular(gb: GroebnerBasis, u: Polynomial) -> bool:
    """True iff the form u is a nonzerodivisor on R/I, `gb` the reduced basis of I.

    u is regular exactly when I : u = I.  The test is one incremental
    signature run (Gao, Volny & Wang, "A new framework for computing Groebner
    bases", Math. Comp. 2016), with the criterion of Faugere's F5 (ISSAC
    2002); `_signature_run` carries it out.  Each element the run makes is
    f = b u + h with h in I, and its signature is LT(b); I's basis elements
    (b = 0) rank below every signature.

    Theorem (GVW 2016).  Take the J-pairs in increasing signature and reduce
    each only by multiples t g with t sig(g) below its signature sigma, so
    that the signature stays sigma.  Drop a J-pair when sigma lies in LT(I)
    (the Koszul syzygy g e_u - u e_g has the signature LT(g)), when it is
    rewritable, or when it ends singular top-reducible; under the rewrite
    rule here the last never happens (`_signature_run`).  Once no J-pair is
    left, LT(I : u) is generated by LT(I) and the signatures of the J-pairs
    that reduced to zero.

    So the first zero reduction decides False: it gives b u in I with
    LT(b) = sigma outside LT(I), so b lies in I : u but not in I, and no
    later pair can undo that.  When the J-pairs run out with no zero
    reduction, LT(I : u) = LT(I); I lies inside I : u and has the same lead
    ideal, so the two are equal: True.  No Hilbert numerator is computed,
    and I need not be homogeneous.  The unit ideal is decided first: R/I = 0,
    so every u is regular.  `colon` and the Hilbert-series identity
    HS(R/(I, u)) = (1 - t^e) HS(R/I) (Stanley, Adv. Math. 1978) are the
    test oracles.
    """
    if u.is_zero():
        raise JonqError("regularity of the zero polynomial")
    if not u.is_homogeneous():
        raise InhomogeneousError(f"form {u} is not homogeneous")
    if u.ring != gb.ring:
        raise RingMismatchError("form not in the basis ring")
    if any(not g.total_degree() for g in gb.basis):
        return True
    engine, v = gb._engine, _to_dict(u)
    engine._fit((v,))
    return _widening(lambda: _signature_run(engine, engine._pack(v)), engine.pk.bits,
                     engine._repack)


def _signature_run(engine: _Engine, u: dict) -> bool:
    """`is_regular` on the packed form u, the engine's elements being the
    reduced basis of I, not the unit ideal: False at the first zero
    reduction, True when the J-pairs run out.

    Signatures are packed monomials of the engine's packing, compared as
    ints: one position, above I's.  Element k has the signature sigs[k] and
    the ratio rats[k] = lead - sigs[k], so at a signature sigma divisible by
    sigs[k] its multiple has the lead sigma + rats[k].  The J-pair of
    elements k and j (or of k and one of I's elements, signature 0) is
    x^(lcm/lead) times the one whose multiple at the lcm of their leads has
    the larger signature; when both are equal there is none.  The J-pairs
    popped at sigma are rewritten to the element whose multiple at sigma
    has the least lead, the latest on ties: the first entry of `by_ratio`
    whose signature divides sigma, since every element a J-pair at sigma
    came from has such a signature.  When no J-pair came from that element,
    its multiple's lead has no signature-safe reducer and there is nothing
    to do.  Otherwise the multiple is top-reduced (`_nf_dict` with a bound):
    only leads enter the theorem, so tails are left as they stand.  A
    nonzero result is adjoined; none is singular top-reducible.  The J-pair
    that chose the element k pairs it with one whose lead divides sigma +
    rats[k] at a signature below sigma (pairs of equal ratio are never
    formed, and I's elements have signature 0), so the reduction takes at
    least one step; every step lowers the lead, so the final one lies below
    sigma + rats[k], the least lead of a multiple at sigma, and is none of
    them.  Raises _Overflow when a signature does not fit the packing.
    """
    pk, mod = engine.pk, engine.ring.modulus
    lomask, guard = pk.lomask, pk.guard
    reducers = list(engine.reducers.get(0, ()))
    koszul = [entry[0] for entry in reducers]  # I's leads & lomask
    ratios: dict = {}  # lead of an element -> its ratio, for `_nf_dict`
    sigs, rats, elems, tuples = [], [], [], []
    by_ratio: list = []  # (ratio, -k, signature & lomask), ascending
    pairs: list = []  # heap of (signature, element)

    def adjoin(r: dict, sig: int):
        d = _normalized(r, mod)
        lead = max(d)
        lt, new, ratio = pk.unpack(lead), len(elems), lead - sig
        jpairs = [(pk.pack(mono_lcm(lt, lg)) - ratio, new) for lg in engine.leads]
        for j, lj in enumerate(tuples):
            if rats[j] != ratio:
                lcm = pk.pack(mono_lcm(lt, lj))
                jpairs.append(max((lcm - ratio, new), (lcm - rats[j], j)))
        for s, k in jpairs:
            if s & guard:
                raise _Overflow
            lo = s & lomask
            if not any(lo >= g and not (lo - g) & guard for g in koszul):
                heapq.heappush(pairs, (s, k))
        sigs.append(sig)
        rats.append(ratio)
        bisect.insort(by_ratio, (ratio, -new, sig & lomask))
        elems.append(d)
        tuples.append(lt)
        ratios[lead] = ratio
        reducers.append(_entry(pk, d))

    r, _ = _nf_dict(u, {0: reducers}, mod, pk)
    if not r:
        return False
    adjoin(r, pk.pack((0,) * engine.ring.nvars))
    while pairs:
        sig, k = heapq.heappop(pairs)
        made = {k}
        while pairs and pairs[0][0] == sig:
            made.add(heapq.heappop(pairs)[1])
        # rewriting: go on only when the least lead at sig is a J-pair's
        lo = sig & lomask
        k = next(-neg for _, neg, s in by_ratio if lo >= s and not (lo - s) & guard)
        if k not in made:
            continue
        shift = sig - sigs[k]
        r, _ = _nf_dict({m + shift: c for m, c in elems[k].items()}, {0: reducers}, mod, pk,
                        (sig, ratios))
        if not r:
            return False
        adjoin(r, sig)
    return True


# ---------- coprimality ----------

# Over Q the restrictions to a line are compared modulo this prime (2^61 - 1)
_LINE_PRIME = (1 << 61) - 1
_LINE_TRIES = 3


def coprime(f: Polynomial, g: Polynomial) -> bool:
    """True iff gcd(f, g) = 1, for nonzero forms f and g of one ring.

    Every verdict is exact.  A variable dividing every term of f and of g is
    a common factor: False.  A line on which the restrictions share no root
    gives True (`_coprime_on_line`); up to _LINE_TRIES lines come from a
    random.Random(0) of this test's own, never a caller's.  Otherwise, in
    the UFD R, g is regular modulo f exactly when gcd(f, g) = 1
    (`is_regular`), the oracle of this test.
    """
    if f.ring != g.ring:
        raise RingMismatchError("polynomials live in different rings")
    if f.is_zero() or g.is_zero():
        raise JonqError("coprimality of the zero polynomial")
    for p in (f, g):
        if not p.is_homogeneous():
            raise InhomogeneousError(f"form {p} is not homogeneous")
    contents = [map(min, zip(*(m for m, _ in p.terms))) for p in (f, g)]
    if any(a and b for a, b in zip(*contents)):
        return False
    rng = random.Random(0)
    field, nvars = f.ring.modulus or _LINE_PRIME, f.ring.nvars
    for _ in range(_LINE_TRIES):
        a, b = ([rng.randrange(field) for _ in range(nvars)] for _ in "ab")
        if _coprime_on_line(f, g, a, b):
            return True
    return is_regular(buchberger([f]), g)


def _coprime_on_line(f: Polynomial, g: Polynomial, a, b) -> bool:
    """True when the line s a + b (a, b integer points) shows gcd(f, g) = 1.

    F(s) = f(s a + b) has top coefficient f(a), f being a form.  When
    f(a) != 0, a common factor h of f and g has h(a) != 0, so h(s a + b) has
    degree deg h and divides both F and G(s) = g(s a + b): if F and G are
    coprime, then so are f and g (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, ch. 6).  Univariate Euclid decides that.  Over GF(p) it runs in
    GF(p).  Over Q, F and G are taken with cleared denominators, in Z[s], and
    Euclid runs modulo q = _LINE_PRIME: f(a) != 0 mod q keeps deg F, so
    Res(F, G) mod q is a unit times Res(F mod q, G mod q), which is nonzero
    when F and G are coprime mod q; then Res(F, G) != 0, and F and G are
    coprime over Q.  False decides nothing.
    """
    field = f.ring.modulus or _LINE_PRIME
    powers: dict = {}

    def restriction(p: Polynomial) -> list[int]:
        """p(s a + b) (times its denominators over Q) mod field, lowest degree first."""
        out = [0] * (p.total_degree() + 1)
        for m, c in _numerators(p)[0]:
            poly = [c % field]
            for i, e in enumerate(m):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = [comb(e, k) * pow(a[i], k, field) * pow(b[i], e - k, field)
                                        % field for k in range(e + 1)]
                    poly = _umul(poly, powers[i, e], field)
            for k, v in enumerate(poly):
                out[k] += v
        return _ustrip([v % field for v in out])

    big = restriction(f)
    if len(big) != f.total_degree() + 1:  # f(a) = 0 mod field: deg F dropped
        return False
    small = restriction(g)
    while small:
        big, small = small, _urem(big, small, field)
    return len(big) == 1


def _ustrip(u: list[int]) -> list[int]:
    while u and not u[-1]:
        u.pop()
    return u


def _umul(u: list[int], v: list[int], field: int) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return [c % field for c in out]


def _urem(u: list[int], v: list[int], field: int) -> list[int]:
    """Remainder of u by v != 0 (coefficient lists, lowest first, v stripped)."""
    u = list(u)
    inv, top = pow(v[-1], -1, field), len(v) - 1
    while len(u) > top:
        c = u.pop() * inv % field
        if c:
            shift = len(u) - top
            for k in range(top):
                u[shift + k] = (u[shift + k] - c * v[k]) % field
    return _ustrip(u)


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


# re-exported resolution layer (BettiTable, Resolution, syzygies,
# minimal_free_resolution)
from .resolutions import (  # noqa: E402
    BettiTable,
    Resolution,
    minimal_free_resolution,
    syzygies,
)

__all__ = [
    "GroebnerBasis", "buchberger", "extend", "normal_form", "spolynomial", "ideal_equal",
    "eliminate", "intersect", "colon", "colon_ideal", "saturate",
    "hilbert_series_numerator", "variables_numerator", "numerator_from_colon", "is_regular",
    "coprime", "dim_and_multiplicity",
    "InhomogeneousError",
    "BettiTable", "Resolution",
    "minimal_free_resolution", "syzygies",
]
