"""Groebner-basis engine: Buchberger, elimination, colon ideals, Hilbert series.

One Buchberger engine (`_Engine`) serves both ideals and submodules of free
modules.  It works on plain {term: coefficient} dicts with monic reducers;
`Polynomial` objects appear only at the API boundary.  For an ideal a term is
a monomial (exponent tuple).  For a module a term of component c is the flat
tuple (c, -c) + monomial, so `mono_divides` and `mono_lcm` only ever relate
terms of one component and the reducer and S-polynomial code is shared as is;
the module's term order is supplied by the caller (see resolutions.py).

Pair management uses the Gebauer-Moeller criteria with normal selection,
which for homogeneous input is degree-by-degree.  The chain rule applies to
both kinds; the coprime-leading-terms (product) criterion holds only for
ideals.  Module pairs are formed only between elements of one component, and
reducers are bucketed by component.  Minimalizing and interreducing the
final basis is a step only `buchberger` runs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .orders import elimination_order
from .polycore import (
    ArityError,
    JonqError,
    Polynomial,
    RingSpec,
    RingMismatchError,
    exact_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    transport,
)


class InhomogeneousError(JonqError):
    pass


def _negkey(key):
    return tuple(-v for v in key)


def _nf_dict(work: dict, reducers: dict, key, mod, width: int = 0) -> dict:
    """Full normal form of `work` (consumed) modulo monic reducers.

    reducers: component -> list of (lead, tail_terms), each reducer monic; a
    term's component is its first `width` entries (none for an ideal).
    """
    heap = [(_negkey(key(m)), m) for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if not c:
            continue
        for lm, tail in reducers.get(m[:width], ()):
            if mono_divides(lm, m):
                break
        else:
            remainder[m] = c
            continue
        shift = tuple(a - b for a, b in zip(m, lm))
        if mod is None:
            for tm, tc in tail:
                m2 = tuple(a + b for a, b in zip(shift, tm))
                nc = work.get(m2, 0) - c * tc
                if nc:
                    if m2 not in work:
                        heapq.heappush(heap, (_negkey(key(m2)), m2))
                    work[m2] = nc
                else:
                    work.pop(m2, None)
        else:
            for tm, tc in tail:
                m2 = tuple(a + b for a, b in zip(shift, tm))
                nc = (work.get(m2, 0) - c * tc) % mod
                if nc:
                    if m2 not in work:
                        heapq.heappush(heap, (_negkey(key(m2)), m2))
                    work[m2] = nc
                else:
                    work.pop(m2, None)
    return remainder


def _monic_dict(d: dict, key, ring: RingSpec) -> dict:
    c = d[max(d, key=key)]
    if c == 1:
        return d
    inv = ring.cinv(c)
    mod = ring.modulus
    if mod is None:
        return {m: co * inv for m, co in d.items()}
    return {m: co * inv % mod for m, co in d.items()}


def _reducer(d: dict, key):
    """(lead, tail) pair for a monic dict."""
    lm = max(d, key=key)
    tail = tuple((m, c) for m, c in d.items() if m != lm)
    return (lm, tail)


def _spoly_dict(di, dj, lmi, lmj, mod) -> dict:
    gamma = mono_lcm(lmi, lmj)
    si = tuple(a - b for a, b in zip(gamma, lmi))
    sj = tuple(a - b for a, b in zip(gamma, lmj))
    out: dict = {}
    for m, c in di.items():
        out[tuple(a + b for a, b in zip(si, m))] = c
    for m, c in dj.items():
        m2 = tuple(a + b for a, b in zip(sj, m))
        nc = out.get(m2, 0) - c
        if mod is not None:
            nc %= mod
        if nc:
            out[m2] = nc
        else:
            out.pop(m2, None)
    return out


class _Engine:
    """Incremental Buchberger state: basis, leads, reducers and pending pairs.

    `key` orders terms (the ring's monomial order for an ideal).  With
    `module` set, terms are encoded module terms (c, -c) + monomial: the
    product criterion is off and reducers and pairs are kept per component.
    """

    def __init__(self, ring: RingSpec, key=None, module: bool = False):
        self.ring = ring
        self.key = key or ring.key
        self.module = module
        self.width = 1 if module else 0
        self.basis: list[dict] = []
        self.leads: list[tuple] = []
        self.reducers: dict = {}  # component -> [(lead, tail)]
        self.members: dict = {}  # component -> basis indices
        self.pairs: list[tuple[int, int]] = []

    def reduce(self, v: dict) -> dict:
        return _nf_dict(dict(v), self.reducers, self.key, self.ring.modulus, self.width)

    def add(self, v: dict) -> bool:
        """Adjoin v; False if it was already in the span (basis unchanged)."""
        if not self._insert(dict(v)):
            return False
        self._saturate()
        return True

    def extend(self, vectors) -> "_Engine":
        """Adjoin all vectors, in ascending order of lead, then close under pairs."""
        key = self.key
        for v in sorted((v for v in vectors if v), key=lambda v: key(max(v, key=key))):
            self._insert(dict(v))
        self._saturate()
        return self

    def _insert(self, work: dict) -> bool:
        r = _nf_dict(work, self.reducers, self.key, self.ring.modulus, self.width)
        if not r:
            return False
        r = _monic_dict(r, self.key, self.ring)
        lead, tail = _reducer(r, self.key)
        comp = lead[:self.width]
        new = len(self.basis)
        self.basis.append(r)
        self.leads.append(lead)
        members = self.members.setdefault(comp, [])
        self._update_pairs(new, members)
        members.append(new)
        self.reducers.setdefault(comp, []).append((lead, tail))
        return True

    def _update_pairs(self, new: int, members):
        """Gebauer-Moeller pair update after appending basis element `new`.

        members: earlier basis indices in the component of `new`.
        """
        lms = self.leads
        lmf = lms[new]
        kept = []
        for i, j in self.pairs:
            lij = mono_lcm(lms[i], lms[j])
            if (not mono_divides(lmf, lij)
                    or mono_lcm(lms[i], lmf) == lij
                    or mono_lcm(lms[j], lmf) == lij):
                kept.append((i, j))
        groups: dict = {}
        for i in members:
            groups.setdefault(mono_lcm(lms[i], lmf), []).append(i)
        minimal = []
        for lcm in sorted(groups, key=self.key):
            if not any(mono_divides(m, lcm) for m in minimal):
                minimal.append(lcm)
        for lcm in minimal:
            grp = groups[lcm]
            if not self.module and any(
                    mono_lcm(lms[i], lmf) == mono_mul(lms[i], lmf) for i in grp):
                continue
            kept.append((min(grp), new))
        self.pairs = kept

    def _saturate(self):
        lms, key = self.leads, self.key
        while self.pairs:
            pairs = self.pairs
            best = min(range(len(pairs)),
                       key=lambda k: key(mono_lcm(lms[pairs[k][0]], lms[pairs[k][1]])))
            i, j = pairs.pop(best)
            self._insert(_spoly_dict(self.basis[i], self.basis[j], lms[i], lms[j],
                                     self.ring.modulus))


def _buchberger_dicts(inputs, ring: RingSpec):
    """Reduced Groebner basis (list of monic dicts) of the input dicts."""
    keyf = ring.key
    engine = _Engine(ring).extend(inputs)
    basis, lms = engine.basis, engine.leads
    # minimalize: drop elements whose lead is divisible by another kept lead
    order = sorted(range(len(basis)), key=lambda k: keyf(lms[k]))
    kept: list[int] = []
    for k in order:
        if not any(mono_divides(lms[i], lms[k]) for i in kept):
            kept.append(k)
    # interreduce tails
    final = []
    for k in kept:
        others = {(): [_reducer(basis[i], keyf) for i in kept if i != k]}
        r = _nf_dict(dict(basis[k]), others, keyf, ring.modulus)
        final.append(_monic_dict(r, keyf, ring))
    final.sort(key=lambda d: keyf(max(d, key=keyf)))
    return final


def _to_dict(p: Polynomial) -> dict:
    return dict(p.terms)


def _to_poly(d: dict, ring: RingSpec) -> Polynomial:
    keyf = ring.key
    return Polynomial._raw(ring, sorted(d.items(), key=lambda t: keyf(t[0]), reverse=True))


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
    def _reducers(self):
        return {(): [_reducer(_to_dict(g), self.ring.key) for g in self.basis]}

    def reduce(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial not in the basis ring")
        ring = self.ring
        return _to_poly(_nf_dict(_to_dict(p), self._reducers, ring.key, ring.modulus), ring)

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
    return GroebnerBasis(ring, tuple(gens), tuple(_to_poly(d, ring) for d in basis))


def normal_form(p: Polynomial, gb) -> Polynomial:
    """Unique remainder of p modulo a Groebner basis (or generators)."""
    if not isinstance(gb, GroebnerBasis):
        gb = buchberger(list(gb))
    return gb.reduce(p)


def spolynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.ring != g.ring:
        raise RingMismatchError("polynomials live in different rings")
    ring = f.ring
    keyf = ring.key
    df, dg = _monic_dict(_to_dict(f), keyf, ring), _monic_dict(_to_dict(g), keyf, ring)
    return _to_poly(_spoly_dict(df, dg, max(df, key=keyf), max(dg, key=keyf), ring.modulus),
                    ring)


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
    elim_ring = ring.with_order(elimination_order(nblock))
    gb = buchberger([Polynomial(elim_ring, g.terms) for g in gens])
    out = []
    for g in gb.basis:
        if all(all(e == 0 for e in m[:nblock]) for m, _ in g.terms):
            out.append(Polynomial(ring, g.terms))
    keyf = ring.key
    out.sort(key=lambda p: keyf(p.lm()))
    return out


def _fresh_name(ring: RingSpec, stem: str = "_t") -> str:
    name = stem
    k = 0
    while name in ring.names:
        name = f"{stem}{k}"
        k += 1
    return name


def intersect(gens_a, gens_b) -> list[Polynomial]:
    """Generators of the intersection of two ideals (one-new-variable elimination)."""
    gens_a = [g for g in gens_a if g]
    gens_b = [g for g in gens_b if g]
    if not gens_a or not gens_b:
        return []
    ring = _common_ring(gens_a + gens_b)
    tname = _fresh_name(ring)
    big = RingSpec((tname,) + ring.names, ring.modulus, None, elimination_order(1))
    t = big.variable(0)
    one_minus_t = big.one() - t
    lifted = [t * transport(g, big) for g in gens_a]
    lifted += [one_minus_t * transport(g, big) for g in gens_b]
    gb = buchberger(lifted)
    out = []
    for g in gb.basis:
        if all(m[0] == 0 for m, _ in g.terms):
            out.append(transport(g, ring))
    keyf = ring.key
    out.sort(key=lambda p: keyf(p.lm()))
    return out


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


def saturate(gens, gens_j) -> list[Polynomial]:
    """Generators of (I : J^infinity): iterated colon until stabilization."""
    current = list(buchberger([g for g in gens if g]).basis) if any(gens) else []
    while True:
        if not current:
            return current
        nxt = colon_ideal(current, gens_j)
        if ideal_equal(nxt, current):
            return current
        current = nxt


# ---------- Hilbert series ----------

def _weighted_degree(mono, weights) -> int:
    return sum(e * w for e, w in zip(mono, weights))


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


def _hilb_rec(gens: tuple, weights, cache: dict) -> dict:
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
            out = _p1_mul(out, {0: 1, _weighted_degree(m, weights): -1})
    else:
        unit = tuple(1 if i == pivot else 0 for i in range(nv))
        j1 = _mono_minimalize([unit] + [m for m in gens if m[pivot] == 0])
        j2 = _mono_minimalize(
            [tuple(e - 1 if i == pivot and e else e for i, e in enumerate(m)) for m in gens])
        out = _p1_add(_hilb_rec(j1, weights, cache),
                      _p1_shift(_hilb_rec(j2, weights, cache), weights[pivot]))
    cache[gens] = out
    return out


def hilbert_series_numerator(gens, weights=None) -> dict[int, int]:
    """Numerator N(t) with HS(R/I) = N(t) / prod_i (1 - t^{w_i}).

    With unit weights (the default) the denominator is (1-t)^nvars.  Input
    must be homogeneous under the weights; computed from the leading-term
    ideal, so the result is independent of the (degree-compatible) order.
    """
    if isinstance(gens, GroebnerBasis):
        gb = gens
        ring = gb.ring
    else:
        gens = [g for g in gens if g]
        if not gens:
            return {0: 1}
        ring = _common_ring(gens)
        gb = buchberger(gens)
    weights = tuple(weights) if weights is not None else (1,) * ring.nvars
    if len(weights) != ring.nvars:
        raise ArityError("weight vector does not match ring arity")
    for g in gb.gens if gb.gens else gb.basis:
        if not g:
            continue
        degs = {_weighted_degree(m, weights) for m, _ in g.terms}
        if len(degs) > 1:
            raise InhomogeneousError(f"generator {g} is not homogeneous under the weights")
    lts = _mono_minimalize([g.lm() for g in gb.basis])
    return _hilb_rec(lts, weights, {})


def numerator_eval_at_one(num: dict) -> int:
    return sum(num.values())


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
    "hilbert_series_numerator", "dim_and_multiplicity", "numerator_eval_at_one",
    "InhomogeneousError", "BettiTable", "Resolution", "ResolutionBoundError",
    "minimal_free_resolution", "syzygies",
]
