"""Exact sparse multivariate polynomials over Q or a prime field.

A polynomial is a tuple of (monomial, coefficient) pairs kept in strictly
descending order under the ring's active monomial order; a monomial is an
exponent tuple with one nonnegative int per ring variable.  Coefficients
are `fractions.Fraction` over Q and plain ints in [1, p) over F_p; zero
coefficients are never stored.

Rings and polynomials are immutable after construction, so values can be
shared freely between threads; every operation is a pure function.

Text grammar (parse_polynomial / format_polynomial): variables are ring
variable names such as x1..x4, y1..y4; coefficients are integers or a/b
rationals; '^' marks exponents and '*' is optional, e.g. "x1^2 - x2*x3".
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add

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
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b as a monomial, or None if b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def mono_divides(b, a) -> bool:
    return all(y <= x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


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

        A fraction whose denominator the modulus divides has no image in
        F_p and raises JonqError.
        """
        if self.modulus is None:
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, Fraction):
            num = value.numerator % self.modulus
            den = value.denominator % self.modulus
            if not den:
                raise JonqError(f"coefficient {value} is undefined over GF({self.modulus})")
            return num * pow(den, self.modulus - 2, self.modulus) % self.modulus
        return value % self.modulus

    def cinv(self, value):
        if self.modulus is None:
            return 1 / value
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

    def bidegree_of(self, mono) -> tuple[int, int]:
        if self.split is None:
            raise JonqError("ring has no bigrading split")
        nx = self.split[0]
        return (sum(mono[:nx]), sum(mono[nx:]))

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
                c = merged[mono] + c
                if ring.modulus is not None:
                    c %= ring.modulus
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
        bd = self.ring.bidegree_of(self.terms[0][0])
        for m, _ in self.terms[1:]:
            if self.ring.bidegree_of(m) != bd:
                return None
        return bd

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
        d = dict(self.terms)
        p = self.ring.modulus
        for m, c in other.terms:
            nc = d.get(m, 0) + c
            if p is not None:
                nc %= p
            if nc:
                d[m] = nc
            else:
                d.pop(m, None)
        return Polynomial._from_dict(self.ring, d)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.modulus
        if p is None:
            return Polynomial._raw(self.ring, tuple((m, -c) for m, c in self.terms))
        return Polynomial._raw(self.ring, tuple((m, (-c) % p) for m, c in self.terms))

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
                return Polynomial._raw(self.ring, tuple((m, co * c) for m, co in self.terms))
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

def _integral(p: Polynomial) -> tuple[list, int]:
    """(terms of den * p with int coefficients, den), den the lcm of p's denominators."""
    den = lcm(*(c.denominator for _, c in p.terms))
    return [(m, c.numerator * (den // c.denominator)) for m, c in p.terms], den


def dot(ring: RingSpec, ps, qs) -> Polynomial:
    """sum_i ps[i] * qs[i] in `ring`, merged in one dict and sorted once.

    Over Q each factor is scaled to integer coefficients, the products are
    summed as ints over the common denominator, and each output term makes
    one Fraction.
    """
    p = ring.modulus
    d: dict = {}
    if p is None:
        scaled = []
        for a, b in zip(ps, qs):
            if a.ring != ring or b.ring != ring:
                raise RingMismatchError("polynomials live in different rings")
            scaled.append((_integral(a), _integral(b)))
        den = lcm(*(da * db for (_, da), (_, db) in scaled))
        get = d.get
        for (at, da), (bt, db) in scaled:
            k = den // (da * db)
            for m1, c1 in at:
                c1 *= k
                for m2, c2 in bt:
                    m = tuple(map(add, m1, m2))
                    d[m] = get(m, 0) + c1 * c2
        return Polynomial._from_dict(ring, {m: Fraction(c, den) for m, c in d.items() if c})
    for a, b in zip(ps, qs):
        if a.ring != ring or b.ring != ring:
            raise RingMismatchError("polynomials live in different rings")
        for m1, c1 in a.terms:
            for m2, c2 in b.terms:
                m = tuple(x + y for x, y in zip(m1, m2))
                nc = (d.get(m, 0) + c1 * c2) % p
                if nc:
                    d[m] = nc
                else:
                    d.pop(m, None)
    return Polynomial._from_dict(ring, d)


def substitute(p: Polynomial, assignment: dict) -> Polynomial:
    """Image of p under the ring morphism sending variables per `assignment`.

    Keys are variable names (or indices) of p's ring; values are polynomials
    in one common target ring.  Unassigned variables must exist by name in
    the target ring.
    """
    src = p.ring
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
    for i, name in enumerate(src.names):
        if i not in images:
            if name not in target._index:
                raise RingMismatchError(
                    f"unassigned variable {name!r} does not exist in the target ring")
            images[i] = target.variable(name)
    if src.modulus != target.modulus:
        raise RingMismatchError("source and target coefficient fields differ")

    powers: dict[tuple[int, int], Polynomial] = {}

    def power(i: int, e: int) -> Polynomial:
        got = powers.get((i, e))
        if got is None:
            got = images[i] ** e
            powers[(i, e)] = got
        return got

    coefficients, monomials = [], []
    for mono, c in p.terms:
        image = target.one()
        for i, e in enumerate(mono):
            if e:
                image = image * power(i, e)
        coefficients.append(target.constant(c))
        monomials.append(image)
    return dot(target, coefficients, monomials)


def transport(p: Polynomial, target: RingSpec) -> Polynomial:
    """Re-home p into `target`, matching variables by name.

    Every variable appearing in p must exist in the target; this covers both
    subring restriction and extension.
    """
    if p.ring.modulus != target.modulus:
        raise RingMismatchError("coefficient fields differ")
    idx = []
    for name in p.ring.names:
        idx.append(target._index.get(name))
    out = []
    nv = target.nvars
    for mono, c in p.terms:
        new = [0] * nv
        for i, e in enumerate(mono):
            if e:
                if idx[i] is None:
                    raise RingMismatchError(
                        f"variable {p.ring.names[i]!r} does not exist in the target ring")
                new[idx[i]] = e
        out.append((tuple(new), c))
    return Polynomial(target, out)


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
    return tuple(Polynomial(p.ring, part) for part in parts)


def exact_div(p: Polynomial, f: Polynomial):
    """p / f when f divides p exactly, else None."""
    if f.is_zero():
        raise JonqError("division by the zero polynomial")
    if p.ring != f.ring:
        raise RingMismatchError("polynomials live in different rings")
    ring = p.ring
    rem = dict(p.terms)
    key = ring.key
    lmf, lcf = f.terms[0] if f.terms else (None, None)
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
        coeff: object = Fraction(sign)
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
        if isinstance(c, Fraction) and c < 0:
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
