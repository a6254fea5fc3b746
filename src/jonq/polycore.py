"""Exact sparse multivariate polynomials over Q or a prime field.

A polynomial is a tuple of (monomial, coefficient) pairs kept in strictly
descending order under the ring's active monomial order; a monomial is an
exponent tuple with one nonnegative int per ring variable.  Coefficients
are plain ints in [1, p) over F_p; over Q a coefficient is an int when it is
integral and a `fractions.Fraction` with denominator > 1 otherwise
(`_rational` applies this rule wherever a coefficient is made), so integral
polynomials are computed on in ints.  Zero coefficients are never stored.

Rings and polynomials are immutable after construction, so values can be
shared freely between threads; every operation is a pure function.

Text grammar (parse_polynomial / format_polynomial): variables are ring
variable names such as x1..x4, y1..y4; coefficients are integers or a/b
rationals; '^' marks exponents and '*' is optional, e.g. "x1^2 - x2*x3".
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, le

from .orders import GREVLEX, MonomialOrder


class JonqError(Exception):
    """Base class for all errors raised by this package."""


class ArityError(JonqError):
    pass


class RingMismatchError(JonqError):
    pass


class ParseError(JonqError):
    pass


class DecompositionError(JonqError):
    pass


class ZeroDegree(int):
    """Degree sentinel for the zero polynomial: compares equal to -1 but is taggable."""

    def __repr__(self):
        return "ZERO_DEGREE"


ZERO_DEGREE = ZeroDegree(-1)


# Miller-Rabin on the 13 prime bases 2..41 is exact below this bound, itself
# a strong pseudoprime to all 13 (Sorenson & Webster, Math. Comp. 2017)
_PRIME_BOUND = 3317044064679887385961981


@lru_cache  # every RingSpec asks; a raise is never cached, so it fires every time
def _is_prime(p: int) -> bool:
    if p >= _PRIME_BOUND:
        raise JonqError(f"modulus {p} is not below {_PRIME_BOUND}, "
                        "the bound of the exact primality test")
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------- monomial helpers (exponent tuples) ----------

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    """a / b as a monomial, or None if b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def mono_divides(b, a) -> bool:
    return all(map(le, b, a))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_minimal(monos, key) -> tuple:
    """The monomials no other one divides, in `key` order: sorted by `key`,
    each is kept unless a kept one divides it.  `key` must rank a monomial
    after its proper divisors, as a degree-compatible order does; of equal
    monomials the first is kept."""
    kept: list = []
    for m in sorted(monos, key=key):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return tuple(kept)


def _rational(c):
    """c, an int or a Fraction, as a coefficient over Q: an int when c is
    integral, else c."""
    return c.numerator if c.denominator == 1 else c


class RingSpec:
    """A polynomial ring: named variables over Q or F_p with an active order.

    `split`, when given, is (n_x, n_y): the variables are partitioned into a
    leading x-block and a trailing y-block and bidegrees become available.
    """

    __slots__ = ("names", "modulus", "split", "order", "key", "_index")

    def __init__(self, names, modulus: int | None = None,
                 split: tuple[int, int] | None = None,
                 order: MonomialOrder = GREVLEX):
        names = tuple(names)
        if not names:
            raise ArityError("a ring needs at least one variable")
        if any(not n for n in names) or len(set(names)) != len(names):
            raise ArityError("variable names must be distinct and nonempty")
        if modulus is not None and not _is_prime(modulus):
            raise JonqError(f"modulus {modulus} is not prime")
        if split is not None:
            nx, ny = split
            if nx < 0 or ny < 0 or nx + ny != len(names):
                raise ArityError("bigrading split sizes must sum to the variable count")
            split = (nx, ny)
        self.names = names
        self.modulus = modulus
        self.split = split
        self.order = order
        self.key = order.key_function(len(names))
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def var_index(self, var) -> int:
        if isinstance(var, int):
            if not 0 <= var < self.nvars:
                raise ArityError(f"variable index {var} out of range")
            return var
        try:
            return self._index[var]
        except KeyError:
            raise ArityError(f"unknown variable {var!r}") from None

    def coeff(self, value):
        """Coerce an int/Fraction into the coefficient field (may be zero).

        Over Q an integral value becomes an int (`_rational`).  A fraction
        whose denominator the modulus divides has no image in F_p and raises
        JonqError.
        """
        if self.modulus is None:
            return _rational(value if isinstance(value, (int, Fraction)) else Fraction(value))
        if isinstance(value, Fraction):
            num = value.numerator % self.modulus
            den = value.denominator % self.modulus
            if not den:
                raise JonqError(f"coefficient {value} is undefined over GF({self.modulus})")
            return num * pow(den, self.modulus - 2, self.modulus) % self.modulus
        return value % self.modulus

    def cinv(self, value):
        if self.modulus is None:
            return _rational(Fraction(1, value))
        return pow(value, self.modulus - 2, self.modulus)

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.coeff(c)
        if not c:
            return Polynomial._raw(self, ())
        return Polynomial._raw(self, (((0,) * self.nvars, c),))

    def variable(self, var) -> "Polynomial":
        i = self.var_index(var)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial._raw(self, ((mono, self.coeff(1)),))

    def variables(self) -> tuple["Polynomial", ...]:
        return tuple(self.variable(i) for i in range(self.nvars))

    def monomial(self, exps, c=1) -> "Polynomial":
        return Polynomial(self, [(tuple(exps), c)])

    def with_order(self, order: MonomialOrder) -> "RingSpec":
        if order == self.order:
            return self
        return RingSpec(self.names, self.modulus, self.split, order)

    def __eq__(self, other):
        return (isinstance(other, RingSpec) and self.names == other.names
                and self.modulus == other.modulus and self.split == other.split
                and self.order == other.order)

    def __hash__(self):
        return hash((self.names, self.modulus, self.split, self.order))

    def __repr__(self):
        field = "QQ" if self.modulus is None else f"GF({self.modulus})"
        return f"RingSpec({','.join(self.names)}; {field}; {self.order!r})"


class Polynomial:
    """Immutable sparse polynomial attached to a RingSpec."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms):
        merged: dict = {}
        nv = ring.nvars
        for mono, c in (terms.items() if isinstance(terms, dict) else terms):
            mono = tuple(mono)
            if len(mono) != nv:
                raise ArityError(f"exponent vector {mono} does not match ring arity {nv}")
            if any(e < 0 for e in mono):
                raise ArityError(f"negative exponent in {mono}")
            c = ring.coeff(c)
            if mono in merged:
                c = ring.coeff(merged[mono] + c)
            if c:
                merged[mono] = c
            else:
                merged.pop(mono, None)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", Polynomial._from_dict(ring, merged).terms)

    @classmethod
    def _raw(cls, ring: RingSpec, sorted_terms) -> "Polynomial":
        """Internal: wrap terms already merged, coerced and sorted."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", tuple(sorted_terms))
        return p

    @classmethod
    def _from_dict(cls, ring: RingSpec, d: dict) -> "Polynomial":
        """Internal: wrap a merged, coerced {monomial: coefficient} dict, sorting it."""
        key = ring.key
        return cls._raw(ring, sorted(d.items(), key=lambda t: key(t[0]), reverse=True))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # ---------- basic queries ----------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def lm(self):
        """Leading monomial (exponent tuple)."""
        if not self.terms:
            raise JonqError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lc(self):
        if not self.terms:
            raise JonqError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def total_degree(self):
        if not self.terms:
            return ZERO_DEGREE
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        d = sum(self.terms[0][0])
        return all(sum(m) == d for m, _ in self.terms)

    def bidegree(self):
        """(x-degree, y-degree) if bihomogeneous and nonzero, else None."""
        if not self.terms or self.ring.split is None:
            return None
        nx = self.ring.split[0]
        bds = {(sum(m[:nx]), sum(m[nx:])) for m, _ in self.terms}
        return bds.pop() if len(bds) == 1 else None

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.lc()
        if c == 1:
            return self
        return self * self.ring.cinv(c)

    def coefficient(self, mono):
        mono = tuple(mono)
        for m, c in self.terms:
            if m == mono:
                return c
        return self.ring.coeff(0)

    # ---------- arithmetic ----------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check(other)
        return Polynomial(self.ring, self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ring.coeff(other)
            if not c:
                return self.ring.zero()
            p = self.ring.modulus
            if p is None:
                return Polynomial._raw(self.ring,
                                       tuple((m, _rational(co * c)) for m, co in self.terms))
            return Polynomial._raw(self.ring, tuple((m, co * c % p) for m, co in self.terms))
        return dot(self.ring, (self,), (other,))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise JonqError("polynomial powers must be nonnegative integers")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        return format_polynomial(self)


# ---------- core operations ----------

def _numerators(p: Polynomial) -> tuple:
    """(terms of den * p with int coefficients, den): den is the lcm of p's
    denominators over Q and 1 over GF(p).  With den 1 they are p's own
    terms, whose coefficients are ints by the coefficient rule."""
    if p.ring.modulus is None:
        den = lcm(*(c.denominator for _, c in p.terms))
        if den > 1:
            return [(m, c.numerator * (den // c.denominator)) for m, c in p.terms], den
    return p.terms, 1


def _nonzero(d: dict, mod: int | None, k: int = 1) -> dict:
    """The nonzero terms of k * d, d an {monomial: int} dict, reduced mod p
    over GF(p): over one field, two such dicts over denominators a and b
    are equal exactly when _nonzero(d_a, mod, b) == _nonzero(d_b, mod, a)."""
    if mod is None:
        return {m: v * k for m, v in d.items() if v}
    return {m: r for m, v in d.items() if (r := v * k % mod)}


def _from_numerators(ring: RingSpec, d: dict, den: int) -> Polynomial:
    """The polynomial d / den, d an {monomial: int} dict: the field applies here, once."""
    d = _nonzero(d, ring.modulus)
    if den > 1:
        d = {m: _rational(Fraction(v, den)) for m, v in d.items()}
    return Polynomial._from_dict(ring, d)


def dot(ring: RingSpec, ps, qs) -> Polynomial:
    """sum_i ps[i] * qs[i] in `ring`, merged in one dict and sorted once.

    Each factor is scaled to integer coefficients (`_numerators`), the
    products are summed as ints over the common denominator
    (`_dot_numerators`), and the field applies once per output term.
    """
    scaled = []
    for a, b in zip(ps, qs):
        if a.ring != ring or b.ring != ring:
            raise RingMismatchError("polynomials live in different rings")
        scaled.append((_numerators(a), _numerators(b)))
    return _from_numerators(ring, *_dot_numerators(scaled))


def _dot_numerators(pairs) -> tuple:
    """(d, den), d / den the sum of the products a * b over `pairs`, each
    factor a (monomial, int) pair sequence over its denominator, as
    `_numerators` gives: d is an unreduced {monomial: int} dict."""
    den = lcm(*(da * db for (_, da), (_, db) in pairs))
    d: dict = {}
    get = d.get
    for (at, da), (bt, db) in pairs:
        k = den // (da * db)
        for m1, c1 in at:
            c1 *= k
            for m2, c2 in bt:
                m = tuple(map(add, m1, m2))
                d[m] = get(m, 0) + c1 * c2
    return d, den


def _product(a: tuple, b: tuple) -> tuple:
    """The product of two ({monomial: int} dict, denominator) pairs, the one
    product of such pairs (`substitution`'s powers, `cremona.ladder`)."""
    (da, na), (db, nb) = a, b
    return _dot_numerators([((da.items(), na), (db.items(), nb))])


def substitution(src: RingSpec, assignment: dict):
    """image_of(p), the image of any p in `src` under the ring morphism
    sending variables per `assignment`, which is prepared once.

    Keys are variable names (or indices) of `src`; values are polynomials
    in one common target ring.  Unassigned variables must exist by name in
    the target ring.

    An image is expanded into one {monomial: coefficient} dict.  Each value
    is scaled to integer coefficients over a denominator (1 over GF(p)), and
    each power value(x_i)^e and the image of each monomial prefix (e_1..e_k)
    is cached as a dict over its denominator, for all the polynomials mapped.
    Coefficients are reduced mod p, or put over their common denominator
    over Q, once per image, and each image is sorted once.
    """
    images: dict[int, Polynomial] = {}
    target = None
    for var, val in assignment.items():
        i = src.var_index(var)
        if not isinstance(val, Polynomial):
            raise JonqError("substitution values must be polynomials")
        if target is None:
            target = val.ring
        elif val.ring != target:
            raise RingMismatchError("substitution values live in different rings")
        images[i] = val
    if target is None:
        target = src
    zero = (0,) * target.nvars
    # (i, e) -> image(x_i)^e and prefix -> its image, as (int dict, denominator)
    powers = {}
    for i, name in enumerate(src.names):
        if i not in images:
            j = target._index.get(name)
            if j is None:
                raise RingMismatchError(
                    f"unassigned variable {name!r} does not exist in the target ring")
            powers[(i, 1)] = ({zero[:j] + (1,) + zero[j + 1:]: 1}, 1)
    if src.modulus != target.modulus:
        raise RingMismatchError("source and target coefficient fields differ")
    for i, img in images.items():
        terms, den = _numerators(img)
        powers[(i, 1)] = (dict(terms), den)
    prefixes: dict = {(): ({zero: 1}, 1)}

    def power(i: int, e: int) -> tuple:
        got = powers.get((i, e))
        if got is None:
            got = powers[(i, e)] = _product(power(i, e - 1), powers[(i, 1)])
        return got

    def image_of(p: Polynomial) -> Polynomial:
        if p.ring != src:
            raise RingMismatchError("polynomial not in the source ring of the substitution")
        parts = []
        for mono, c in p.terms:
            image = prefixes[()]
            for k, e in enumerate(mono, 1):
                got = prefixes.get(mono[:k])
                if got is None:
                    got = prefixes[mono[:k]] = _product(image, power(k - 1, e)) if e else image
                image = got
            parts.append((c, image))
        den = lcm(*(c.denominator * d for c, (_, d) in parts))
        out: dict = {}
        get = out.get
        for c, (terms, d) in parts:
            c = c.numerator * (den // (c.denominator * d))
            for m, v in terms.items():
                out[m] = get(m, 0) + c * v
        return _from_numerators(target, out, den)
    return image_of


def substitute(p: Polynomial, assignment: dict) -> Polynomial:
    """The one-polynomial case of `substitution`."""
    return substitution(p.ring, assignment)(p)


def transport(p: Polynomial, target: RingSpec) -> Polynomial:
    """Re-home p into `target`, matching variables by name.

    Every variable appearing in p must exist in the target; this covers both
    subring restriction and extension.  Matching by name is injective and
    keeps the field, so p's terms need no merging or coercion.
    """
    if p.ring.modulus != target.modulus:
        raise RingMismatchError("coefficient fields differ")
    idx = []
    for name in p.ring.names:
        idx.append(target._index.get(name))
    out = {}
    nv = target.nvars
    for mono, c in p.terms:
        new = [0] * nv
        for i, e in enumerate(mono):
            if e:
                if idx[i] is None:
                    raise RingMismatchError(
                        f"variable {p.ring.names[i]!r} does not exist in the target ring")
                new[idx[i]] = e
        out[tuple(new)] = c
    return Polynomial._from_dict(target, out)


def degree_in(p: Polynomial, var):
    """Maximal exponent of var over the terms; ZERO_DEGREE for the zero polynomial."""
    i = p.ring.var_index(var)
    if not p.terms:
        return ZERO_DEGREE
    return max(m[i] for m, _ in p.terms)


def xprime_order(p: Polynomial, block) -> int:
    """Largest k with p inside the k-th power of the ideal of the block variables.

    Equals the minimum over terms of the total degree in the block.
    """
    if not p.terms:
        raise JonqError("xprime_order of the zero polynomial is undefined")
    idx = [p.ring.var_index(v) for v in block]
    return min(sum(m[i] for i in idx) for m, _ in p.terms)


def x_decompose(p: Polynomial, block) -> tuple[Polynomial, ...]:
    """Write p = sum_k c_k * v_k over the block variables v_k, greedily.

    Each term is assigned to the smallest-index block variable dividing it;
    raises DecompositionError if some term is divisible by no block variable.
    """
    idx = [p.ring.var_index(v) for v in block]
    parts: list[list] = [[] for _ in idx]
    for mono, c in p.terms:
        for slot, i in enumerate(idx):
            if mono[i]:
                m = list(mono)
                m[i] -= 1
                parts[slot].append((tuple(m), c))
                break
        else:
            raise DecompositionError(
                f"term {mono} is divisible by no block variable")
    # a part's terms are p's own divided by one variable: distinct, in the
    # field, and still descending, since dividing by a common monomial
    # preserves any monomial order
    return tuple(Polynomial._raw(p.ring, part) for part in parts)


def exact_div(p: Polynomial, f: Polynomial):
    """p / f when f divides p exactly, else None."""
    if f.is_zero():
        raise JonqError("division by the zero polynomial")
    if p.ring != f.ring:
        raise RingMismatchError("polynomials live in different rings")
    ring = p.ring
    rem = dict(p.terms)
    key = ring.key
    lmf, lcf = f.terms[0]
    inv_lcf = ring.cinv(lcf)
    mod = ring.modulus
    quot: dict = {}
    while rem:
        m = max(rem, key=key)
        q = mono_div(m, lmf)
        if q is None:
            return None
        c = rem[m] * inv_lcf
        if mod is not None:
            c %= mod
        quot[q] = c
        for mf, cf in f.terms:
            mm = mono_mul(q, mf)
            nc = rem.get(mm, 0) - c * cf
            if mod is not None:
                nc %= mod
            if nc:
                rem[mm] = nc
            else:
                rem.pop(mm, None)
    return Polynomial(ring, quot)


def gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor, via lcm = generator of (p) cap (q)."""
    if p.ring != q.ring:
        raise RingMismatchError("polynomials live in different rings")
    if p.is_zero() or q.is_zero():
        raise JonqError("gcd requires nonzero inputs")
    if p.total_degree() == 0 or q.total_degree() == 0:
        return p.ring.one()
    from . import groebner
    inter = groebner.intersect([p], [q])
    if len(inter) != 1:
        raise JonqError("intersection of principal ideals is not principal")
    g = exact_div(p * q, inter[0])
    if g is None:
        raise JonqError("lcm does not divide the product")
    return g.monic()


def random_form(ring: RingSpec, degree: int, rng, terms: int = 3, block=None) -> Polynomial:
    """Random nonzero homogeneous form of the given degree (sparse)."""
    if degree < 0:
        raise JonqError("degree must be nonnegative")
    idx = tuple(range(ring.nvars)) if block is None \
        else tuple(ring.var_index(v) for v in block)
    for _ in range(200):
        raw = []
        for _ in range(max(1, terms)):
            mono = [0] * ring.nvars
            for _ in range(degree):
                mono[rng.choice(idx)] += 1
            if ring.modulus is None:
                c = rng.choice([c for c in range(-9, 10) if c])
            else:
                c = rng.randrange(1, ring.modulus)
            raw.append((tuple(mono), c))
        p = Polynomial(ring, raw)
        if p:
            return p
    raise JonqError("failed to sample a nonzero form")


# ---------- text grammar ----------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<op>[\^*+/-]))")


def _tokenize(text: str):
    """(kind, value, start) triples; start is the token's own index in text."""
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r} "
                                 f"at position {len(text) - len(rest)}")
            break
        kind = m.lastgroup
        value = int(m.group(kind)) if kind == "int" else m.group(kind)
        out.append((kind, value, m.start(kind)))
        pos = m.end()
    return out


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse the ASCII polynomial grammar into a polynomial of `ring`."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty polynomial text")
    nv = ring.nvars
    terms: list[tuple[tuple, object]] = []
    i = 0

    def fail(msg, at):
        raise ParseError(f"{msg} at position {at}")

    while i < len(toks):
        sign = 1
        while i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
            if toks[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(toks):
            fail("dangling sign", toks[-1][2])
        term_at = toks[i][2]
        coeff: object = sign
        mono = [0] * nv
        saw_factor = False
        while i < len(toks):
            kind, val, at = toks[i]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                i += 1
                if i >= len(toks) or (toks[i][0] == "op" and toks[i][1] in "*^/"):
                    fail("dangling '*'", at)
                continue
            if kind == "int":
                num = val
                i += 1
                if i < len(toks) and toks[i][0] == "op" and toks[i][1] == "/":
                    i += 1
                    if i >= len(toks) or toks[i][0] != "int":
                        fail("expected integer denominator", at)
                    den = toks[i][1]
                    if den == 0:
                        fail("zero denominator", at)
                    i += 1
                    coeff = coeff * Fraction(num, den)
                else:
                    coeff = coeff * num
                saw_factor = True
                continue
            if kind == "name":
                if val not in ring._index:
                    fail(f"unknown variable {val!r}", at)
                vi = ring._index[val]
                i += 1
                e = 1
                if i < len(toks) and toks[i][0] == "op" and toks[i][1] == "^":
                    i += 1
                    if i >= len(toks) or toks[i][0] != "int":
                        fail("expected integer exponent after '^'",
                             toks[i][2] if i < len(toks) else at)
                    e = toks[i][1]
                    i += 1
                mono[vi] += e
                saw_factor = True
                continue
            fail(f"unexpected {val!r}", at)
        if not saw_factor:
            fail("empty term", toks[i - 1][2] if i else 0)
        try:
            coeff = ring.coeff(coeff)
        except JonqError as exc:
            fail(str(exc), term_at)
        terms.append((tuple(mono), coeff))
    return Polynomial(ring, terms)


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form; round-trips through parse_polynomial."""
    if not p.terms:
        return "0"
    names = p.ring.names
    parts = []
    for k, (mono, c) in enumerate(p.terms):
        if c < 0:
            sep = "-" if k == 0 else " - "
            c = -c
        else:
            sep = "" if k == 0 else " + "
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append(f"{names[i]}^{e}")
        if not factors:
            body = str(c)
        elif c == 1:
            body = "*".join(factors)
        else:
            body = str(c) + "*" + "*".join(factors)
        parts.append(sep + body)
    return "".join(parts)
