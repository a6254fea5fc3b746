"""Syzygies and minimal graded free resolutions over free modules.

Module elements run on the Buchberger engine of groebner.py.  An element of
R^s is a dict {term: coefficient} whose term of component c and monomial m
is the flat tuple (c, -c) + m.  Syzygies of columns f_1..f_m inside R^s are
computed by running the engine on the augmented vectors (f_i, e_i) in
R^(s+m) under an order whose first s components dominate: the basis
elements supported entirely on the tag block (components s..s+m-1)
generate the syzygy module.  The engine applies only the chain criterion to
modules, since the product criterion does not hold over free modules.

Resolutions iterate: take a minimal generating set of the current syzygy
module (ascending-degree greedy, so minimality holds by graded Nakayama),
record the matrix, continue with its syzygies.  Matrices therefore have all
entries in the maximal ideal and the resulting resolution is minimal; no
unit-stripping pass is needed.

Two facts keep each step from doing more than the greedy needs:

- The syzygy engine forms no S-pair between two tag-block elements; they
  serve only as reducers.  This is exact.  A pair needs two leads in one
  component, so no pair mixes a tag-block element with one off the tag
  block, and tag-block terms sit below every other term, so the elements
  off the tag block are those of a full run: a Groebner basis of the
  column module.  Every tag-block element is then reduced from an input
  vector or from an S-pair off the tag block, and differs from that pair's
  lifted syzygy only by earlier tag-block elements.  By induction the
  tag-block elements span what those lifts span, which by Schreyer's
  theorem is the whole syzygy module.  They generate it but are not a
  Groebner basis of it.  (La Scala & Stillman, "Strategies for computing
  minimal free resolutions", JSC 1998, build minimal resolutions from
  these syzygies alone.)
- Membership of a homogeneous column of degree d needs only a d-truncated
  Groebner basis: before each test the greedy closes the pending pairs up
  to d, under a key that leads with the shifted degree, and no pair above
  the largest column degree is ever processed.

A matrix is a tuple of columns.  `is_graded_complex` is the one check that
such matrices form a graded complex for given shifts; both
Resolution.verify_complex and dejonq.FreeComplex.verify run it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polycore import (
    JonqError,
    Polynomial,
    RingSpec,
    RingMismatchError,
    dot,
)


class ResolutionBoundError(JonqError):
    """Raised when the length bound is hit before the resolution terminates."""

    def __init__(self, partial):
        super().__init__("length bound exceeded before the resolution terminated")
        self.partial = partial


def _module_key(ring: RingSpec, block: int | None, shifts=None):
    """Sort key on module terms (c, -c) + mono; components c < block dominate.

    With a block the key carries it as `key.block`, and the engine forms no
    pairs on the tag block c >= block.  With `shifts` (and no block) the key
    leads with the shifted degree |mono| + shifts[c], 0 for components past
    the end of `shifts`.
    """
    ringkey = ring.key
    if shifts is not None:
        shift = dict(enumerate(shifts)).get

        def key(term):
            return ((sum(term[2:]) + shift(term[0], 0),) + ringkey(term[2:])
                    + (term[1],))
    elif block is None:
        def key(term):
            return ringkey(term[2:]) + (term[1],)
    else:
        def key(term):
            return (1 if term[0] < block else 0,) + ringkey(term[2:]) + (term[1],)
        key.block = block
    return key


def _module_groebner(vectors, ring: RingSpec, block: int | None = None):
    """Groebner basis of the submodule spanned by `vectors` (an engine to extend)."""
    return groebner._Engine(ring, _module_key(ring, block), module=True).extend(vectors)


# ---------- columns <-> module dicts ----------

def _column_to_dict(column, ring: RingSpec) -> dict:
    out: dict = {}
    for comp, p in enumerate(column):
        if p.ring != ring:
            raise RingMismatchError("column entries live in different rings")
        for mono, c in p.terms:
            out[(comp, -comp) + mono] = c
    return out


def _dict_to_column(v: dict, ring: RingSpec, first: int, length: int):
    """Column of components first..first+length-1 of a module dict."""
    parts: list[dict] = [dict() for _ in range(length)]
    for term, c in v.items():
        parts[term[0] - first][term[2:]] = c
    return tuple(Polynomial(ring, d) for d in parts)


def _column_degree(column, shifts) -> int:
    """Common degree of a homogeneous column; raises if not homogeneous."""
    degs = set()
    for comp, p in enumerate(column):
        for mono, _ in p.terms:
            degs.add(sum(mono) + shifts[comp])
    if len(degs) != 1:
        raise JonqError("column is not homogeneous for the given shifts")
    return degs.pop()


def syzygies(gens) -> list[tuple[Polynomial, ...]]:
    """Generating syzygies of scalar polynomials or of module columns.

    `gens` is either a list of polynomials (syzygies of an ideal's
    generators) or a list of equal-length polynomial columns.  Returns a
    list of syzygy columns of length len(gens) that generate the syzygy
    module; they are not a Groebner basis of it (see the module docstring).
    """
    gens = list(gens)
    if not gens:
        return []
    if isinstance(gens[0], Polynomial):
        columns = [(g,) for g in gens]
    else:
        columns = [tuple(col) for col in gens]
    rank = len(columns[0])
    if any(len(c) != rank for c in columns):
        raise JonqError("columns have inconsistent lengths")
    ring = next(p.ring for c in columns for p in c)
    m = len(columns)
    zero_mono = (0,) * ring.nvars
    augmented = []
    for i, col in enumerate(columns):
        v = _column_to_dict(col, ring)
        v[(rank + i, -rank - i) + zero_mono] = ring.coeff(1)
        augmented.append(v)
    gb = _module_groebner(augmented, ring, block=rank)
    # components below rank dominate the order: an element lies on the tag
    # block iff its lead does
    return [_dict_to_column(gb.element(k), ring, rank, m)
            for k, lead in enumerate(gb.leads) if lead[0] >= rank]


def minimal_generators(columns, ring: RingSpec, shifts):
    """Minimal generating subset of homogeneous columns (ascending degree greedy).

    Columns go in (shifted degree, index) order, and a column is kept iff
    it is not in the span of the columns before it.  Before a column of
    degree d is tested, only the pending pairs up to degree d are closed,
    under a key that leads with the shifted degree: that decides membership
    exactly, and no pair above the largest column degree is processed.
    """
    degreed = [( _column_degree(c, shifts), i, c) for i, c in enumerate(columns)
               if any(p for p in c)]
    degreed.sort(key=lambda t: (t[0], t[1]))
    gb = groebner._Engine(ring, _module_key(ring, None, shifts), module=True)
    kept = []
    for deg, _, col in degreed:
        if gb.add(_column_to_dict(col, ring), deg):
            kept.append((deg, col))
    return kept


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti data: per homological position, sorted (shift, rank) pairs."""

    rows: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_shift_lists(cls, shift_lists) -> "BettiTable":
        rows = []
        for shifts in shift_lists:
            counts: dict[int, int] = {}
            for s in shifts:
                counts[s] = counts.get(s, 0) + 1
            rows.append(tuple(sorted(counts.items())))
        return cls(tuple(rows))

    def ranks(self) -> tuple[int, ...]:
        return tuple(sum(r for _, r in row) for row in self.rows)

    def shifts(self, i: int) -> dict[int, int]:
        return dict(self.rows[i])

    def length(self) -> int:
        return len(self.rows) - 1

    def alternating_numerator(self) -> dict[int, int]:
        """Sum_i (-1)^i sum_shifts rank * t^shift; equals the Hilbert numerator
        of the resolved module when the rows come from one of its resolutions."""
        out: dict[int, int] = {}
        for i, row in enumerate(self.rows):
            sign = -1 if i % 2 else 1
            for shift, rank in row:
                nc = out.get(shift, 0) + sign * rank
                if nc:
                    out[shift] = nc
                else:
                    out.pop(shift, None)
        return out

    def __str__(self):
        parts = []
        for row in self.rows:
            parts.append(",".join(f"{s}^{r}" if r > 1 else str(s) for s, r in row))
        return " | ".join(parts)


@dataclass(frozen=True)
class Resolution:
    """A minimal graded free resolution of R^rank0 / im(gens).

    matrices[k] presents the map from position k+1 to position k as a tuple
    of columns, each column a tuple of polynomials over position k's rank.
    """

    ring: RingSpec
    shifts: tuple[tuple[int, ...], ...]
    matrices: tuple[tuple[tuple[Polynomial, ...], ...], ...]
    complete: bool

    @property
    def betti(self) -> BettiTable:
        return BettiTable.from_shift_lists(self.shifts)

    def length(self) -> int:
        return len(self.shifts) - 1

    def verify_complex(self) -> bool:
        return is_graded_complex(self.ring, self.shifts, self.matrices)


def is_graded_complex(ring: RingSpec, shifts, matrices) -> bool:
    """True iff `matrices` is a graded complex of free modules with these shifts.

    matrices[k] maps position k+1 to position k as a tuple of columns, one
    per generator of position k+1.  Every nonzero entry in row r of column c
    must be homogeneous of degree shifts[k+1][c] - shifts[k][r], and
    consecutive maps must compose to zero.
    """
    for k, mat in enumerate(matrices):
        rows, cols = shifts[k], shifts[k + 1]
        if len(mat) != len(cols) or any(len(col) != len(rows) for col in mat):
            return False
        for col, top in zip(mat, cols):
            for entry, low in zip(col, rows):
                if entry and (not entry.is_homogeneous()
                              or entry.total_degree() != top - low):
                    return False
    for k in range(len(matrices) - 1):
        for col in matrices[k + 1]:
            for r in range(len(shifts[k])):
                if dot(ring, [column[r] for column in matrices[k]], col):
                    return False
    return True


def minimal_free_resolution(gens, length_bound: int | None = None) -> Resolution:
    """Minimal graded free resolution of R/I (or of R^s modulo column span).

    `gens` is a list of homogeneous polynomials (ideal case) or of
    homogeneous columns.  Raises ResolutionBoundError (carrying the partial
    resolution) if the bound is hit before the syzygies vanish.
    """
    gens = list(gens)
    if not gens:
        raise JonqError("need at least one generator")
    if isinstance(gens[0], Polynomial):
        columns = [(g,) for g in gens if g]
        ring = gens[0].ring
        rank0 = 1
    else:
        columns = [tuple(c) for c in gens]
        ring = next(p.ring for c in columns for p in c)
        rank0 = len(columns[0])
    if length_bound is not None and length_bound < 1:
        raise JonqError("length bound must be at least 1")
    shifts: list[tuple[int, ...]] = [(0,) * rank0]
    matrices: list = []
    current = minimal_generators(columns, ring, shifts[0])
    while current:
        if length_bound is not None and len(matrices) >= length_bound:
            partial = Resolution(ring, tuple(shifts), tuple(matrices), False)
            raise ResolutionBoundError(partial)
        matrices.append(tuple(col for _, col in current))
        shifts.append(tuple(deg for deg, _ in current))
        current = minimal_generators(syzygies([col for _, col in current]), ring,
                                     shifts[-1])
    return Resolution(ring, tuple(shifts), tuple(matrices), True)


# Imported last: groebner re-exports names of this module at its own end, so
# either module can be imported first.
from . import groebner  # noqa: E402
