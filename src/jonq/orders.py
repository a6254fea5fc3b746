"""Monomial orders as flat integer sort keys.

A monomial is an exponent tuple.  An order turns it into a key tuple such
that key(a) > key(b) iff a > b under the order.  Keys are flat int tuples
of fixed length per ring, and every key is linear in the exponents:
key(a * b) = key(a) + key(b) elementwise.  The Groebner engine relies on
that: it packs a term's key digits into one int, so that multiplying terms
is adding their packed ints (see groebner._Packing).
"""

from __future__ import annotations

from operator import neg

_KINDS = ("grevlex", "lex", "grlex", "elim")


class MonomialOrder:
    """Total order on exponent tuples, compatible with multiplication.

    kind is one of 'grevlex', 'lex', 'grlex' (lex refined by total degree)
    or 'elim' (block elimination: the first `block` variables dominate,
    grevlex within each block, so a polynomial is free of the first block
    iff its leading monomial is).
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown monomial order {kind!r}")
        if (kind == "elim") != (block is not None):
            raise ValueError("block boundary is required exactly for 'elim'")
        if block is not None and block < 1:
            raise ValueError("elimination block must be a nonempty prefix")
        self.kind = kind
        self.block = block

    def key_function(self, nvars: int):
        """Return a monomial -> flat int tuple key for rings with nvars variables."""
        if self.kind == "lex":
            return lambda m: m
        if self.kind == "grlex":
            return lambda m: (sum(m),) + m
        if self.kind == "grevlex":
            def key(m):
                return (sum(m),) + tuple(map(neg, reversed(m)))
            return key
        k = self.block
        if k >= nvars:
            raise ValueError("elimination block must be a proper prefix")

        def key(m):
            a, b = m[:k], m[k:]
            return ((sum(a),) + tuple(map(neg, reversed(a)))
                    + (sum(b),) + tuple(map(neg, reversed(b))))
        return key

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind and self.block == other.block)

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        if self.kind == "elim":
            return f"MonomialOrder('elim', block={self.block})"
        return f"MonomialOrder({self.kind!r})"


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")
GRLEX = MonomialOrder("grlex")


def elimination_order(block: int) -> MonomialOrder:
    return MonomialOrder("elim", block)
