"""Syzygies and minimal graded free resolutions over free modules.

Module elements run on the Buchberger engine of groebner.py.  An element of
R^s is a dict {term: coefficient} whose term of component c and monomial m
is the flat tuple (c, -c) + m.  Syzygies of columns f_1..f_m inside R^s are
computed by running the engine on the augmented vectors (f_i, e_i) in
R^(s+m) under an order whose first s components dominate the tag block
(components s..s+m-1): like an elimination order, it makes the basis
elements supported entirely on the tag block a Groebner basis of the
syzygy module.  Each engine is told its number of components when it is
built: s + m for `syzygies` and the s components of the shifts in the
greedy.  The engine applies only the chain criterion to modules, since the
product criterion does not hold over free modules.

`minimal_generators` is the ascending-degree greedy: a column is kept iff
it is not in the span of the columns before it, so the kept columns are
minimal generators by graded Nakayama.  Membership of a homogeneous column
of degree d needs only a d-truncated Groebner basis, and that is what
`_Engine.extend` reduces it by under a key that leads with the shifted
degree: the greedy is one `extend` call, which reports the columns it kept
and leaves the engine closed.

`minimal_free_resolution` resolves from a Schreyer frame (Schreyer's
theorem, Eisenbud, *Commutative Algebra*, Thm 15.10; La Scala & Stillman,
"Strategies for computing minimal free resolutions", JSC 1998), built on a
Groebner basis G of the module: a `GroebnerBasis`'s own reduced basis, or,
for a list of polynomials or columns, the closed basis of the greedy
(`_closed_basis`):

- Level k + 1 comes from the elements f_1..f_M of level k, vectors of the
  free module F with basis e_1.. ordered by a key.  The induced order on
  R^M ranks m e_u as the term m lead(f_u) ranks in F, and a tie goes to the
  smaller u.  For u < v with leads in one component, the S-pair of f_u and
  f_v reduces to zero, and its quotients give the syzygy
  m_uv e_u - m_vu e_v - sum q_w e_w, led by m_uv e_u, m_uv = lcm / lead(f_u)
  (Schreyer).  Only the pairs whose m_uv minimally generate the ideal of
  such monomials for u are formed: their leads generate the lead module
  of the syzygies, so they are a Groebner basis of it.  Each pair is
  reduced once by the level's elements, f_u carrying its own e_u, and the
  e_u part of the remainder is the syzygy.
- Level 1 is G.  The greedy's engine holds the remainder of each kept
  column, and `_Engine.extend` left it closed; a GroebnerBasis is adopted
  as it stands, with no greedy, since a homogeneous reduced basis under
  any ring order is one under the degree-led module key too.  Every lead
  of the frame is known from G's leads before any reduction (`_skeleton`):
  a syzygy's lead is its pair's m_uv e_u.  No level forms a pair update or
  a new basis element.
- The whole frame runs on one packing (`_layout`; Monagan & Pearce's
  packed exponents, see groebner.py).  Unrolled, the induced orders are
  one linear order: m e_u ranks by the key of m times the product of the
  leads down to R^s, then by the frame positions of that chain.  So the
  packed m e_u is base(e_u) + packed(m), with base(e_u) the key digits of
  u's packed lead, u's tie digit and u's component field; a term m e_u
  ranks just below m lead(f_u), and no e_u meets a reducer on its own
  level.  The e_u part of each remainder is then the next level's vector
  as it stands, reduced on without a repack, and no vector is unpacked: G
  moves from its engine's packing to the layout once, and the frame is
  read packed.
- Each level is sorted by lead component and then by descending exponent
  of variable k in the lead, so the leads of level k + 1 lose variable k
  (Eisenbud, Cor. 15.11): the frame has at most nvars + 1 levels.
- The frame is a free resolution but not a minimal one, and its minimal
  Betti numbers are the homology of F (x) k, k = R/m (Eisenbud, *The
  Geometry of Syzygies*, ch. 1), so they are read off the ranks of the
  frame's constant entries with nothing cancelled:
  beta_{i,j} = f_{i,j} - r_{i,j} - r_{i+1,j}, where f_{i,j} counts the
  level-i elements of degree j and r_{i,j} is the rank of the degree-j
  block of the constant part of the map from level i (`_rank_shifts`).  A
  packed term is constant iff it equals its component's base.  Position 0
  is R^s and position 1 is |G_j| - r_{1,j}; on a list, that must be the
  degrees of the kept columns.
- A `Resolution` keeps only these shifts: no matrix is built, and the
  frame is dropped once its ranks are read.

A matrix is a tuple of columns.  `is_graded_complex` is the one check that
such matrices form a graded complex for given shifts; dejonq.FreeComplex.verify
runs it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .polycore import (
    JonqError,
    Polynomial,
    RingSpec,
    RingMismatchError,
    dot,
    mono_minimal,
)


def _module_key(ring: RingSpec, block: int | None, shifts=None):
    """Sort key on module terms (c, -c) + mono; components c < block dominate.

    The components c >= block are the tag block.  With `shifts` (and no
    block) the key leads with the shifted degree |mono| + shifts[c], one
    shift per component.
    """
    ringkey = ring.key
    if shifts is not None:
        def key(term):
            return (sum(term[2:]) + shifts[term[0]],) + ringkey(term[2:]) + (term[1],)
    else:
        def key(term):
            return (1 if term[0] < block else 0,) + ringkey(term[2:]) + (term[1],)
    return key


# ---------- columns <-> module dicts ----------

def _columns(gens) -> tuple[list[tuple], RingSpec | None]:
    """(columns, ring): `gens`, polynomials or equal-length polynomial
    columns, as columns, and the ring of their entries (None for no
    column); raises JonqError when there are columns but no entry."""
    columns = [(g,) if isinstance(g, Polynomial) else tuple(g) for g in gens]
    if any(len(c) != len(columns[0]) for c in columns):
        raise JonqError("columns have inconsistent lengths")
    ring = next((p.ring for c in columns for p in c), None)
    if columns and ring is None:
        raise JonqError("the columns have no entry to name their ring")
    return columns, ring


def _column_to_dict(column, ring: RingSpec) -> dict:
    out: dict = {}
    for comp, p in enumerate(column):
        if p.ring != ring:
            raise RingMismatchError("column entries live in different rings")
        for mono, c in p.terms:
            out[(comp, -comp) + mono] = c
    return out


def _dict_to_column(v: dict, ring: RingSpec, first: int, length: int):
    """Column of components first..first+length-1 of a module dict whose
    coefficients are nonzero and in the field, as engine output is."""
    parts: list[dict] = [dict() for _ in range(length)]
    for term, c in v.items():
        parts[term[0] - first][term[2:]] = c
    return tuple(Polynomial._from_dict(ring, d) for d in parts)


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
    list of syzygy columns of length len(gens): the tag-block elements of
    a full run on the augmented vectors, a Groebner basis of the syzygy
    module (see the module docstring).
    """
    columns, ring = _columns(gens)
    if not columns:
        return []
    rank, m = len(columns[0]), len(columns)
    zero_mono = (0,) * ring.nvars
    augmented = []
    for i, col in enumerate(columns):
        v = _column_to_dict(col, ring)
        v[(rank + i, -rank - i) + zero_mono] = ring.coeff(1)
        augmented.append(v)
    gb = groebner._Engine(ring, _module_key(ring, rank), rank + m)
    gb.extend(augmented)
    # components below rank dominate the order: an element lies on the tag
    # block iff its lead does
    return [_dict_to_column(gb.element(k), ring, rank, m)
            for k, lead in enumerate(gb.leads) if lead[0] >= rank]


class _Kept(list):
    """The (degree, column) pairs `minimal_generators` keeps.  `engine` is
    its greedy's engine, which holds their remainders."""


def minimal_generators(columns, ring: RingSpec, shifts):
    """Minimal generating subset of homogeneous columns (ascending degree greedy).

    Columns go in (shifted degree, index) order, and a column is kept iff
    it is not in the span of the columns before it.  One `_Engine.extend`
    call decides that, under a key that leads with the shifted degree:
    before a column of degree d it closes only the pending pairs up to
    degree d, which decides membership exactly, and it reports the columns
    whose remainders joined.  Then it closes the engine, so `kept.engine`
    holds a Groebner basis of the kept columns' module, and `_frame` builds
    on it.
    """
    degreed = [(_column_degree(c, shifts), i, c) for i, c in enumerate(columns)
               if any(p for p in c)]
    degreed.sort(key=lambda t: (t[0], t[1]))
    engine = groebner._Engine(ring, _module_key(ring, None, shifts), len(shifts))
    added = engine.extend([_column_to_dict(col, ring) for _, _, col in degreed])
    kept = _Kept((deg, col) for (deg, _, col), new in zip(degreed, added) if new)
    kept.engine = engine
    return kept


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti data: per homological position, sorted (shift, rank) pairs."""

    rows: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def from_shift_lists(cls, shift_lists) -> "BettiTable":
        return cls(tuple(tuple(sorted(Counter(shifts).items())) for shifts in shift_lists))

    def ranks(self) -> tuple[int, ...]:
        return tuple(sum(r for _, r in row) for row in self.rows)

    def alternating_numerator(self) -> dict[int, int]:
        """Sum_i (-1)^i sum_shifts rank * t^shift; equals the Hilbert numerator
        of the resolved module when the rows come from one of its resolutions."""
        out: dict[int, int] = {}
        for i, row in enumerate(self.rows):
            out = groebner._p1_add(out, {shift: (-1) ** i * rank for shift, rank in row})
        return out

    def __str__(self):
        parts = []
        for row in self.rows:
            parts.append(",".join(f"{s}^{r}" if r > 1 else str(s) for s, r in row))
        return " | ".join(parts)


@dataclass(frozen=True)
class Resolution:
    """The shifts of a minimal graded free resolution of R^rank0 / im(gens):
    shifts[k] lists the generator degrees of position k."""

    ring: RingSpec
    shifts: tuple[tuple[int, ...], ...]

    @property
    def betti(self) -> BettiTable:
        return BettiTable.from_shift_lists(self.shifts)

    def length(self) -> int:
        return len(self.shifts) - 1


def is_graded_complex(ring: RingSpec, shifts, matrices) -> bool:
    """True iff `matrices` is a graded complex of free modules with these shifts.

    matrices[k] maps position k+1 to position k as a tuple of columns, one
    per generator of position k+1.  Every nonzero entry in row r of column c
    must be homogeneous of degree shifts[k+1][c] - shifts[k][r], and
    consecutive maps must compose to zero; each row of a composition is
    summed over its nonzero products only.  There must be one more shift
    list than matrices.
    """
    if len(shifts) != len(matrices) + 1:
        return False
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
                nonzero = [(column[r], entry) for column, entry in zip(matrices[k], col)
                           if column[r] and entry]
                if nonzero and dot(ring, *zip(*nonzero)):
                    return False
    return True


def minimal_free_resolution(gens) -> Resolution:
    """Minimal graded free resolution of R/I (or of R^s modulo column span).

    `gens` is the `GroebnerBasis` of a homogeneous ideal, or a list of
    homogeneous polynomials (ideal case) or of homogeneous columns.  The
    shifts are beta_{i,j} = f_{i,j} - r_{i,j} - r_{i+1,j}, read off the
    Schreyer frame (`_frame`) on a Groebner basis G of the module by
    `_rank_shifts`; position 1 is |G_j| - r_{1,j}.  G is a GroebnerBasis's
    own basis, or the closed basis of the greedy on a list, whose kept
    columns must then have position 1's degrees (`_closed_basis`).
    """
    ring, rank, kept, basis = _closed_basis(gens)
    shifts = ((0,) * rank,)
    if basis.elems:
        _, pk, levels = _frame(basis)
        shifts += _rank_shifts(pk, levels, ring.modulus)
        if kept is not None and shifts[1] != tuple(deg for deg, _ in kept):
            raise JonqError("the first syzygy map's rank leaves a basis element that is not kept")
    return Resolution(ring, shifts)


def _closed_basis(gens):
    """(ring, rank, kept, basis): `basis` an engine whose elements are a
    Groebner basis of the module to resolve, a submodule of R^rank.

    A GroebnerBasis is adopted as it stands (`GroebnerBasis._engine`), with
    no greedy, and kept is None: a homogeneous reduced basis under the
    ring's order, whatever it is, is one under the degree-led module key
    as well, since on a form both orders pick the same lead.  A list goes
    to `minimal_generators`, whose kept columns are `kept`, and its closed
    engine is `basis`.
    """
    if isinstance(gens, groebner.GroebnerBasis):
        if not all(g.is_homogeneous() for g in gens.basis):
            raise JonqError("the basis is not homogeneous")
        return gens.ring, 1, None, gens._engine
    columns, ring = _columns(gens)
    if not columns:
        raise JonqError("need at least one generator")
    rank = len(columns[0])
    kept = minimal_generators(columns, ring, (0,) * rank)
    return ring, rank, kept, kept.engine


def _rank_shifts(pk, levels, mod) -> tuple:
    """Positions 1.. of the minimal resolution's shifts, from ranks of the
    frame's constant part: per degree j, levels[k] keeps
    f_{k,j} - r_{k,j} - r_{k+1,j} of its f_{k,j} elements of degree j,
    r_{k,j} the rank of their constant entries (r_{0,j} = 0).  A packed
    term is constant iff it is its component's base,
    t == pk.bases[t & pk.cmask], and that component is its row."""
    bases, cmask = pk.bases, pk.cmask
    ranks: list = [{}]
    for level in levels[1:]:
        blocks: dict = {}
        for v, shift in level:
            col = {t & cmask: c for t, c in v.items() if t == bases[t & cmask]}
            if col:
                blocks.setdefault(shift, []).append(col)
        ranks.append({j: _rank(cols, mod) for j, cols in blocks.items()})
    ranks.append({})
    shifts = []
    for level, here, above in zip(levels, ranks, ranks[1:]):
        betti = []
        for j, f in sorted(Counter(shift for _, shift in level).items()):
            betti += [j] * (f - here.get(j, 0) - above.get(j, 0))
        if not betti:
            break
        shifts.append(tuple(betti))
    return tuple(shifts)


def _rank(columns, mod) -> int:
    """Rank of the sparse int vectors {row: c}: mod p over GF(p), and exact
    over Q, fraction-free (a vector meeting the pivot a of an earlier one b
    with entry c becomes a v - c b)."""
    basis: list = []  # (pivot row, vector), each zero in the pivot rows before it
    for v in columns:
        for r, b in basis:
            c = v.get(r)
            if c:
                a, out = b[r], {}
                for row in v.keys() | b.keys():
                    e = a * v.get(row, 0) - c * b.get(row, 0)
                    if mod is not None:
                        e %= mod
                    if e:
                        out[row] = e
                v = out
        if v:
            basis.append((next(iter(v)), v))
    return len(basis)


def _losing_order(leads, variable: int) -> list[int]:
    """Frame order of a level with these leads: by lead component, then by
    descending exponent of `variable` in the lead."""
    def rank(k):
        lead = leads[k]
        return lead[0], -lead[2 + variable] if variable < len(lead) - 2 else 0
    return sorted(range(len(leads)), key=rank)


def _minimal_pairs(leads) -> list[tuple]:
    """(a, b, m) for each element a and each monomial m that minimally
    generates the ideal of m_ab = lcm(lead_a, lead_b) / lead_a over the
    b > a with lead in a's component; b is the first such b with m_ab = m."""
    members: dict = {}
    for u, lead in enumerate(leads):
        members.setdefault(lead[0], []).append(u)
    pairs = []
    for group in members.values():
        for i, a in enumerate(group):
            na = leads[a][2:]
            first: dict = {}
            for b in group[i + 1:]:
                first.setdefault(tuple([y - x if y > x else 0 for x, y in zip(na, leads[b][2:])]), b)
            pairs += [(a, first[m], m) for m in mono_minimal(first, sum)]
    return pairs


def _skeleton(leads) -> list[tuple]:
    """(order, placed, pairs) per level of the frame whose level 1 has these
    leads: `_losing_order` on variable k puts level k + 1 in frame order,
    placed[i] = leads[order[i]], and `_minimal_pairs` names its pairs.  The
    Schreyer leads (a, -a) + m of the pairs are the next level's leads, so
    every level is known before any reduction."""
    levels = []
    while True:
        order = _losing_order(leads, len(levels))
        placed = [leads[k] for k in order]
        pairs = _minimal_pairs(placed)
        levels.append((order, placed, pairs))
        if not pairs:
            return levels
        leads = [(a, -a) + m for a, _, m in pairs]


def _layout(key, nvars: int, rank: int, skeleton, bits: int):
    """One packing for the terms of every free module of the frame, with
    `offsets` naming where each module's components start: e_c of R^rank is
    component c, and the element at frame position u of level k + 1 is
    component offsets[k + 1] + u, for each level that forms a pair.

    Unrolled, Schreyer's order ranks m e_u by `key` on m total_u, total_u
    the product of the leads from u down to R^rank, and then by the frame
    positions along that chain, the smaller first: one tie digit per level,
    -w - 1 for the chain's element w on that level and 0 past u's level, so
    that m e_u ranks just below m lead_u.  bases[g] is the key digits of
    g's packed lead plus its tie digit and component fields; the key is
    read at R^rank's components alone.  Digit i's reach is its value at
    R^rank's zero terms plus sum_j |slope_ij| times the largest exponent of
    variable j in a level-1 lead: a syzygy's total is the lcm of its pair's,
    so every total is an lcm of level-1 leads.
    """
    zero = (0,) * nvars
    sizes = [len(placed) for _, placed, _ in skeleton[:-1]]
    comps, ntie = rank + sum(sizes), len(sizes)
    pk = groebner._Packing(None, nvars, comps, max(bits, comps.bit_length() + 1))
    pk.offsets = list(accumulate([0, rank] + sizes))[:ntie + 1]
    consts = [key((c, -c) + zero) for c in range(rank)]
    slopes = [[a - b for a, b in zip(key((0, 0) + zero[:i] + (1,) + zero[i + 1:]), consts[0])]
              + [0] * ntie for i in range(nvars)]
    top = [max(e) for e in zip(*(lead[2:] for lead in skeleton[0][1]))]
    pk._weigh([max(map(abs, k)) + sum(map(mul, map(abs, s), top))
               for k, s in zip(zip(*consts), zip(*slopes))] + sizes, slopes)
    ties, units = pk.weights[len(consts[0]):], pk.units[2:]
    digits = [sum(map(mul, k, pk.weights)) for k in consts]
    for k, (_, placed, _) in enumerate(skeleton[:-1]):
        for u, lead in enumerate(placed):
            lead = digits[pk.offsets[k] + lead[0]] + sum(map(mul, lead[2:], units))
            digits.append((lead & ~pk.lomask) - (u + 1) * ties[k])
    pk.bases = [d + g + ((comps - 1 - g) << pk.bits) for g, d in enumerate(digits)]
    return pk


def _frame(basis):
    """(skeleton, pk, levels): the Schreyer frame on the elements G of the
    closed engine `basis` (`_closed_basis`), an ideal's as the module R^1.

    levels[k] lists level k + 1 in frame order as (vector, shift) pairs,
    the vectors packed by pk with int coefficients: level 1's rows are the
    components of R^rank, and level k + 1's are pk.offsets[k] + u for the
    frame positions u of level k.  `_skeleton` gives every level's leads
    and pairs, and `_layout` one packing for the whole frame, to which G
    moves from the engine's packing (`_repacked`).  Each level is reduced
    on as it stands: its element at position u carries its own e_u, and
    the S-pair of each pair `_minimal_pairs` names reduces to a remainder
    on the e_u alone, the next level's vector (`_syzygy`).  Reducers keep
    the order in which their level was made, and the frame position only
    names components.  An overflow redoes the frame on doubled fields
    (`groebner._widening`).
    """
    ring, src = basis.ring, basis.pk
    if basis.comps:
        key, rank, leads = basis.key, basis.comps, basis.leads
    else:
        key, rank, leads = _module_key(ring, None, (0,)), 1, [(0, 0) + m for m in basis.leads]
    elements = [basis._element(k) for k in range(len(leads))]
    skeleton = _skeleton(leads)

    def build(pk):
        units, cmask, mod = pk.units[2:], pk.cmask, ring.modulus
        order, placed, _ = skeleton[0]
        current = [_repacked(src, pk, d) for d in elements]
        levels = [[(current[i], sum(lead[2:])) for i, lead in zip(order, placed)]]
        for (order, _, pairs), (next_order, _, _), tags in zip(
                skeleton, skeleton[1:], pk.offsets[1:]):
            entries = [None] * len(order)
            reducers: dict = {}
            for u, i in enumerate(order):
                entries[i] = groebner._entry(pk, {**current[i], pk.bases[tags + u]: 1})
            for e in entries:
                reducers.setdefault(e[1] & cmask, []).append(e)
            current = []
            for a, b, m in pairs:
                shift = sum(map(mul, m, units))
                ea = entries[order[a]]
                r, _ = groebner._nf_dict(groebner._spoly(ea, entries[order[b]], ea[1] + shift),
                                         reducers, mod, pk)
                current.append(_syzygy(pk, r, tags, pk.bases[tags + a] + shift, mod))
            shifts = [levels[-1][a][1] + sum(m) for a, _, m in pairs]
            levels.append([(current[i], shifts[i]) for i in next_order])
        return levels
    layouts = [_layout(key, ring.nvars, rank, skeleton, src.bits)]
    levels = groebner._widening(
        lambda: build(layouts[-1]), layouts[0].bits,
        lambda bits: layouts.append(_layout(key, ring.nvars, rank, skeleton, bits)))
    return skeleton, layouts[-1], levels


def _repacked(src, pk, d: dict) -> dict:
    """The dict d, packed by the engine packing `src`, packed by the layout
    pk instead: component c of R^rank stays c (an ideal's terms go to 0)."""
    fields = src.fields[2:] if src.comps else src.fields
    fmask, cmask, bases, units = src.fmask, src.cmask, pk.bases, pk.units[2:]
    return {bases[m & cmask] + sum(map(mul, [m >> s & fmask for s in fields], units)): c
            for m, c in d.items()}


def _syzygy(pk, r: dict, tags: int, lead: int, mod) -> dict:
    """The remainder r of an S-pair as its syzygy, the next level's packed
    vector.  r must be led by `lead` and lie on the components from `tags`
    on, which fails when the frame's level 1 is not a Groebner basis; the
    syzygy is made monic there over GF(p), primitive and positive there
    over Q."""
    if max(r, default=None) != lead:
        raise JonqError("a syzygy is not led by its Schreyer lead")
    if min(map(pk.cmask.__and__, r)) < tags:
        raise JonqError("the closed basis left an S-pair remainder")
    return groebner._normalized(r, mod, lead)


# Imported last: groebner re-exports names of this module at its own end, so
# either module can be imported first.
from . import groebner  # noqa: E402
