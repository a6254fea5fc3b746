"""The resolution's shortcuts against the plain algorithm they replace.

`syzygies` forms no S-pair between two tag-block elements, so it returns
generators of the syzygy module, not a Groebner basis of it, and
`minimal_generators` closes pairs only up to the degree of the column it
tests.  The reference below is the plain algorithm: the tag-block part of a
full Groebner basis of the augmented vectors goes to a greedy that closes
the basis after each column it keeps.  Both must generate the same syzygy
modules and give the same shifts.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
example, given, settings = hypothesis.example, hypothesis.given, hypothesis.settings

from jonq import groebner, rees  # noqa: E402
from jonq.groebner import _Packing  # noqa: E402
from jonq.polycore import Polynomial, RingSpec, parse_polynomial  # noqa: E402
from jonq.resolutions import (  # noqa: E402
    _column_degree,
    _column_to_dict,
    _dict_to_column,
    _module_groebner,
    _module_key,
    minimal_free_resolution,
    minimal_generators,
    syzygies,
)

FIELDS = (None, 32003)


def reference_greedy(columns, ring, rank, shifts):
    """(kept (degree, column) pairs, rejected columns), closing the basis fully."""
    degreed = sorted(((_column_degree(c, shifts), i, c) for i, c in enumerate(columns)
                      if any(c)), key=lambda t: t[:2])
    gb = _module_groebner((), ring)
    kept, rejected = [], []
    for deg, _, col in degreed:
        if gb.add(_column_to_dict(col, ring)):
            kept.append((deg, col))
        else:
            rejected.append(col)
    return kept, rejected


def full_syzygies(columns, ring):
    """The tag-block elements of a full Groebner basis of the augmented
    vectors (f_i, e_i): a Groebner basis of the syzygy module of `columns`."""
    rank, m = len(columns[0]), len(columns)
    block_key = _module_key(ring, rank)
    # a plain function carries no `block`, so the engine closes every pair
    engine = groebner._Engine(ring, lambda term: block_key(term), module=True)
    unit = (0,) * ring.nvars
    engine.extend([{**_column_to_dict(col, ring), (rank + i, -rank - i) + unit: ring.coeff(1)}
                   for i, col in enumerate(columns)])
    return [_dict_to_column(engine.element(k), ring, rank, m)
            for k, lead in enumerate(engine.leads) if lead[0] >= rank]


def same_module(a, b, ring):
    """True iff the column lists a and b span the same submodule."""
    def inside(columns, span):
        basis = _module_groebner([_column_to_dict(c, ring) for c in span], ring)
        return all(not basis.reduce(_column_to_dict(c, ring)) for c in columns)
    return inside(a, b) and inside(b, a)


def reference_resolution(columns, ring, rank0):
    """(shifts, matrices) of the plain algorithm, fed the full syzygy bases."""
    shifts = [(0,) * rank0]
    matrices = []
    current, _ = reference_greedy(columns, ring, rank0, shifts[0])
    while current:
        matrices.append(tuple(col for _, col in current))
        shifts.append(tuple(deg for deg, _ in current))
        current, _ = reference_greedy(full_syzygies([col for _, col in current], ring),
                                      ring, len(shifts[-1]), shifts[-1])
    return tuple(shifts), tuple(matrices)


def assert_matches_reference(gens):
    if isinstance(gens[0], Polynomial):
        ring, columns = gens[0].ring, [(g,) for g in gens if g]
    else:
        ring, columns = gens[0][0].ring, [tuple(c) for c in gens]
    # Hilbert's syzygy theorem bounds the length by the number of variables
    res = minimal_free_resolution(gens, length_bound=ring.nvars)
    shifts, matrices = reference_resolution(columns, ring, len(columns[0]))
    assert res.complete
    assert res.shifts == shifts
    assert res.matrices[:1] == matrices[:1]
    # exact: each matrix spans the full syzygy module of the one before it,
    # and the last one has none
    for prev, mat in zip(res.matrices, res.matrices[1:]):
        assert same_module(mat, full_syzygies(prev, ring), ring)
    assert not res.matrices or not full_syzygies(res.matrices[-1], ring)


@st.composite
def forms(draw, ring, degree):
    """A nonzero homogeneous form of the given degree with 1..4 terms."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        factors = draw(st.lists(st.integers(0, ring.nvars - 1),
                                min_size=degree, max_size=degree))
        mono = tuple(factors.count(v) for v in range(ring.nvars))
        terms[mono] = draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1)))
    return Polynomial(ring, terms)


rings = st.builds(lambda nvars, modulus: RingSpec([f"x{i}" for i in range(1, nvars + 1)],
                                                  modulus),
                  st.integers(2, 4), st.sampled_from(FIELDS))


@st.composite
def ideals(draw):
    ring = draw(rings)
    return [draw(forms(ring, draw(st.integers(1, 3))))
            for _ in range(draw(st.integers(2, 5)))]


@st.composite
def column_sets(draw):
    """Columns of R^rank, each homogeneous of its own degree for zero shifts."""
    ring = draw(rings)
    rank = draw(st.integers(1, 3))
    columns = []
    for _ in range(draw(st.integers(2, 5))):
        deg = draw(st.integers(1, 2))
        columns.append(tuple(draw(forms(ring, deg)) if draw(st.booleans()) else ring.zero()
                             for _ in range(rank)))
    return columns


Q3 = RingSpec(["x1", "x2", "x3"])


@settings(max_examples=60, deadline=None)
@given(st.one_of(ideals(), column_sets()))
def test_syzygies_generate_the_full_basis_module(gens):
    if isinstance(gens[0], Polynomial):
        ring, columns = gens[0].ring, [(g,) for g in gens]
    else:
        ring, columns = gens[0][0].ring, [tuple(c) for c in gens]
    assert same_module(syzygies(gens), full_syzygies(columns, ring), ring)


@settings(max_examples=100, deadline=None)
@given(st.one_of(ideals(), column_sets()))
# an exponent above the initial 8-bit field cap: the greedy's engine repacks
# when that column arrives, after S-pair elements exist
@example([parse_polynomial(g, Q3) for g in ("x1^130 - x2^129*x3", "x1*x2 - x3^2",
                                             "x2^2 + x1*x3")])
def test_resolution_matches_full_saturation_reference(gens):
    assert_matches_reference(gens)


def test_primary_syzygies_survive_a_repack(monkeypatch):
    # exponents stay below 64, but the syzygy run overflows the initial
    # 8-bit fields, so the engine repacks after S-pair elements exist
    repacked_with = []
    repack = groebner._Engine._repack

    def recording_repack(self, bits, comps):
        repacked_with.append(len(self.elems))
        repack(self, bits, comps)

    monkeypatch.setattr(groebner._Engine, "_repack", recording_repack)
    for modulus in FIELDS:
        ring = RingSpec(["x1", "x2", "x3"], modulus)
        gens = [parse_polynomial(g, ring) for g in (
            "x1^38*x2^12*x3^13 - x1^17*x2^13*x3^33", "x1^3*x2^25*x3^35 - x1^27*x2^24*x3^12",
            "x1^50*x2^5*x3^8 - x1^17*x2^3*x3^43")]
        repacked_with.clear()
        syzygies(gens)
        assert any(count > len(gens) for count in repacked_with)
        assert_matches_reference(gens)


@st.composite
def shifted_columns(draw):
    """(ring, rank, shifts, columns): mixed degrees, zeros, duplicates, any order."""
    ring = draw(rings)
    rank = draw(st.integers(1, 3))
    shifts = tuple(draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        deg = max(shifts) + draw(st.integers(0, 2))
        columns.append(tuple(draw(forms(ring, deg - s)) if draw(st.booleans()) else ring.zero()
                             for s in shifts))
    columns += [tuple(ring.zero() for _ in shifts)] * draw(st.integers(0, 1))
    columns += draw(st.lists(st.sampled_from(columns), max_size=2))
    return ring, rank, shifts, draw(st.permutations(columns))


@st.composite
def ideals_in_few_variables(draw):
    """Ideals in 2..3 variables; half of them multiplied by the maximal ideal,
    which never leaves a nonzero ideal saturated."""
    ring = RingSpec([f"x{i}" for i in range(1, draw(st.integers(2, 3)) + 1)],
                    draw(st.sampled_from(FIELDS)))
    gens = [draw(forms(ring, draw(st.integers(1, 2))))
            for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        gens = [g * x for g in gens for x in ring.variables()]
    return gens


@settings(max_examples=40, deadline=None)
@given(ideals_in_few_variables())
def test_resolution_length_decides_saturation(gens):
    # Auslander-Buchsbaum: depth R/I = nvars - projdim R/I, and I : m^inf = I
    # iff depth R/I >= 1; `saturate` is the plain reference
    ring = gens[0].ring
    saturated = groebner.ideal_equal(groebner.saturate(gens, ring.variables()), gens)
    assert (minimal_free_resolution(gens).length() < ring.nvars) == saturated


R2 = RingSpec(["x1", "x2"], 32003)


@settings(max_examples=60, deadline=None)
@given(shifted_columns())
# x2^3 lies in (x1^2, x1*x2 + x2^2) only through the S-pair of degree 3
@example((R2, 1, (0,), [(parse_polynomial(g, R2),) for g in ("x2^3", "x1^2", "x1*x2 + x2^2")]))
def test_truncated_minimal_generators_match_reference(case):
    ring, rank, shifts, columns = case
    kept, _ = reference_greedy(columns, ring, rank, shifts)
    assert minimal_generators(columns, ring, shifts) == kept


@settings(max_examples=30, deadline=None)
@given(ideals())
def test_minimal_generator_count_matches_reference(gens):
    kept, _ = reference_greedy([(g,) for g in gens], gens[0].ring, 1, (0,))
    assert rees.minimal_generator_count(gens) == len(kept)


NVARS, BITS, COMPS = 3, 6, 4
CAP = (1 << (BITS - 1)) - 1
SHIFTED = [(shifts, _Packing(_module_key(RingSpec(["x1", "x2", "x3"]), None, shifts),
                             NVARS, COMPS, BITS))
           for shifts in ((0,), (3, 0, 5), (2, 2, 1, 0))]
monos = st.tuples(*[st.integers(0, CAP) for _ in range(NVARS)])


@given(st.sampled_from(SHIFTED), st.integers(0, COMPS - 1), monos,
       st.integers(0, COMPS - 1), monos)
def test_shifted_key_packs_in_order(scheme, ca, a, cb, b):
    # components past the end of shifts (the engine doubles its component
    # fields) pack with shift 0
    shifts, pk = scheme
    ta, tb = (ca, -ca) + a, (cb, -cb) + b
    assert (pk.pack(ta) < pk.pack(tb)) == (pk.key(ta) < pk.key(tb))
    assert pk.key(ta)[0] == sum(a) + (shifts[ca] if ca < len(shifts) else 0)
    assert pk.unpack(pk.pack(ta)) == ta
