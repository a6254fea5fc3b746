"""The resolution's shortcuts against the plain algorithm they replace.

`minimal_generators` is one `_Engine.extend` call, which closes pairs only
up to the degree of the column it tests, and `minimal_free_resolution`
reads its shifts off the ranks of a Schreyer frame's constant part instead
of resolving level by level.  The reference below is the plain algorithm:
the syzygies of each level (`syzygies`, a Groebner basis of the syzygy
module, checked here against Hilbert functions) go to a greedy that
reduces each column by a basis of the kept columns closed under all its
pairs.  Both must give the same shifts and span the same modules; the
matrices are those of the frame pruned by `oracles.resolve`, whose shifts
must also be the rank read-out's.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
example, given, settings = hypothesis.example, hypothesis.given, hypothesis.settings

import random  # noqa: E402
from itertools import combinations_with_replacement  # noqa: E402

import oracles  # noqa: E402
from jonq import dejonq, groebner, rees, resolutions  # noqa: E402
from jonq.groebner import _Packing  # noqa: E402
from jonq.cli import main  # noqa: E402
from jonq.orders import GREVLEX, LEX, elimination_order  # noqa: E402
from jonq.polycore import (  # noqa: E402
    JonqError,
    Polynomial,
    RingSpec,
    dot,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
)
from jonq.resolutions import (  # noqa: E402
    _column_degree,
    _column_to_dict,
    _module_key,
    minimal_free_resolution,
    minimal_generators,
    syzygies,
)

FIELDS = (None, 32003, 7)


def reference_greedy(columns, ring, rank, shifts):
    """(kept (degree, column) pairs, rejected columns): each column is
    reduced by a basis of the kept columns that is closed under all its
    pairs, never by one truncated at the column's degree."""
    degreed = sorted(((_column_degree(c, shifts), i, c) for i, c in enumerate(columns)
                      if any(c)), key=lambda t: t[:2])
    gb = groebner._Engine(ring, _module_key(ring, None, (0,) * rank), rank)
    kept, rejected = [], []
    for deg, _, col in degreed:
        v = _column_to_dict(col, ring)
        if gb.reduce(v):
            # one vector on a closed basis: no pending pair to truncate
            gb.extend([v])
            kept.append((deg, col))
        else:
            rejected.append(col)
    return kept, rejected


def same_module(a, b, ring, rank):
    """True iff the column lists a and b span the same submodule of R^rank."""
    def inside(columns, span):
        basis = groebner._Engine(ring, _module_key(ring, None, (0,) * rank), rank)
        basis.extend([_column_to_dict(c, ring) for c in span])
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
        current, _ = reference_greedy(syzygies([col for _, col in current]),
                                      ring, len(shifts[-1]), shifts[-1])
    return tuple(shifts), tuple(matrices)


def assert_matches_reference(gens):
    if isinstance(gens[0], Polynomial):
        ring, columns = gens[0].ring, [(g,) for g in gens if g]
    else:
        ring, columns = gens[0][0].ring, [tuple(c) for c in gens]
    res, pruned = oracles.resolve(gens)
    # Hilbert's syzygy theorem bounds the length by the number of variables
    assert res.length() <= ring.nvars
    shifts, matrices = reference_resolution(columns, ring, len(columns[0]))
    assert res.shifts == shifts
    # the first matrix is minimal generators of the column module: the
    # frame's basis elements that survive, not necessarily the kept columns
    assert len(pruned) == len(matrices)
    assert not pruned or same_module(pruned[0], matrices[0], ring, len(columns[0]))
    # exact: each matrix spans the syzygy module of the one before it, and
    # the last one has none
    for prev, mat in zip(pruned, pruned[1:]):
        assert same_module(mat, syzygies(prev), ring, len(prev))
    assert not pruned or not syzygies(pruned[-1])


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
# closing the greedy's engine adds four elements to these three generators,
# each an element of the frame's level 1
CLOSING = [[parse_polynomial(g, RingSpec(["x1", "x2", "x3"], modulus))
            for g in ("x1^2 - x2*x3", "x1*x2 - x3^2", "x2^3 + x1*x3^2")] for modulus in FIELDS]


def standard_terms(leads, shifts, degree, nvars):
    """The number of terms m e_c of R^len(shifts), |m| + shifts[c] = degree,
    that no lead (c, -c) + monomial of component c divides."""
    count = 0
    for c, s in enumerate(shifts):
        if degree < s:
            continue
        for combo in combinations_with_replacement(range(nvars), degree - s):
            m = tuple(combo.count(v) for v in range(nvars))
            count += not any(lead[0] == c and mono_divides(lead[2:], m) for lead in leads)
    return count


@settings(max_examples=60, deadline=None)
@given(st.one_of(ideals(), column_sets()))
def test_syzygies_are_a_groebner_basis_of_the_syzygy_module(gens):
    # Z = syz(f_1..f_m) is the kernel of F = sum R(-deg f_i) -> N, so
    # dim (F/Z)_t = dim N_t; the leads L of the returned columns S lie in
    # the lead module of Z, so (F/L)_t has that dimension iff S is a
    # Groebner basis of Z, under the order `syzygies` uses on the tag block
    if isinstance(gens[0], Polynomial):
        ring, columns = gens[0].ring, [(g,) for g in gens]
    else:
        ring, columns = gens[0][0].ring, [tuple(c) for c in gens]
    rank = len(columns[0])
    # a zero column's e_i is itself a syzygy, so any degree serves for it
    degrees = [_column_degree(c, (0,) * rank) if any(c) else 0 for c in columns]
    syz = syzygies(gens)
    for col in syz:
        assert len(col) == len(columns)
        for row in range(rank):
            assert not dot(ring, col, [c[row] for c in columns])
    key = _module_key(ring, None, (0,) * len(columns))
    leads = [max(_column_to_dict(col, ring), key=key) for col in syz]
    basis = groebner._Engine(ring, _module_key(ring, None, (0,) * rank), rank)
    basis.extend([_column_to_dict(c, ring) for c in columns])
    for t in range(max(degrees) + 4):
        image = (standard_terms([], (0,) * rank, t, ring.nvars)
                 - standard_terms(basis.leads, (0,) * rank, t, ring.nvars))
        assert standard_terms(leads, degrees, t, ring.nvars) == image, t


@settings(max_examples=100, deadline=None)
@given(st.one_of(ideals(), column_sets()))
# an exponent above the initial 8-bit field cap: the engines size their
# fields from every column at once
@example([parse_polynomial(g, Q3) for g in ("x1^130 - x2^129*x3", "x1*x2 - x3^2",
                                             "x2^2 + x1*x3")])
@example(CLOSING[0])
@example(CLOSING[1])
@example(CLOSING[2])
def test_resolution_matches_full_saturation_reference(gens):
    assert_matches_reference(gens)


def section_4_2():
    """The basis of the linear section `projdim_probe` resolves for a (4,2)
    map: 10 elements, 7 of them minimal generators."""
    j = dejonq.random_map(4, 2, random.Random(0))
    return list(rees._certified_section(rees.rees_ideal(j), j.n).basis)


def base_ideal(f, g):
    """The base forms x1 f, x2 f, g of the (2,3) map with these f and g over Q."""
    return list(dejonq.construct(parse_polynomial(f, Q3), parse_polynomial(g, Q3), 2).base_forms)


R3_7 = RingSpec(["x1", "x2", "x3"], 7)
# x1^2 joins the greedy's engine as its remainder x2^2, not with the lead of
# x1^2 + x2^2, so the basis is (x1^2, x2^2, x3^3) and the frame minimal
EQUAL_LEADS_7 = [parse_polynomial(g, R3_7) for g in ("x1^2 + x2^2", "x1^2", "x3^3")]
# the S-pair of x1^2 and x1*x2 + x2^2 adds x2^3 to the basis, which the
# frame's first syzygy map cancels with a constant entry
EXCESS_7 = [parse_polynomial(g, R3_7) for g in ("x1^2", "x1*x2 + x2^2", "x3^3")]


@pytest.mark.parametrize("make, larger", [
    # a (4,2) section: the basis has 10 elements, the minimal generators 7
    (section_4_2, True),
    # a (2,6) base ideal over Q: 3 generators, a basis of 7
    (lambda: list(dejonq.random_map(2, 6, random.Random(1), None).base_forms), True),
    (lambda: EQUAL_LEADS_7, False),
    (lambda: EXCESS_7, True),
    # two (2,3) base ideals over Q with Betti numbers 3 and 2: e3's frame is
    # minimal, and this map's has 6, 7 and 2 elements
    (lambda: base_ideal("x1*x3 + x2^2", "x1^2*x3 + x2^3"), False),
    (lambda: base_ideal("x1^2 + x2*x3", "x1^3 + x1^2*x3"), True),
], ids=["section-4-2", "base-ideal-2-6-over-Q", "equal-leads-over-GF7", "s-pair-over-GF7",
        "base-ideal-e3", "base-ideal-with-excess"])
def test_frame_larger_than_the_minimal_resolution_prunes_to_it(make, larger):
    gens = make()
    _, _, levels = oracles.frame_parts(gens)
    assert (len(levels[0]) > len(minimal_free_resolution(gens).shifts[1])) == larger
    assert_matches_reference(gens)
    assert_rank_read_out_is_pruned(gens)


def assert_rank_read_out_is_pruned(gens):
    # the oracle prunes the frame and raises unless its shifts are res.shifts
    res, matrices = oracles.resolve(gens)
    assert resolutions.is_graded_complex(res.ring, res.shifts, matrices)


# Over Q the S-pair of x1^2 and x1*x2 + N x2^2 reduces to N^2 x2^3, so the
# frame's one constant entry, in x2^3's row, is -N^2: its rank is 1 over Q
# and 0 modulo any prime that divides N, such as these.
N = 2 * 3 * 5 * 7 * 11 * 13 * 101 * 32003 * 65521 * (2 ** 31 - 1) * (2 ** 61 - 1)
BIG_UNIT = [parse_polynomial(g, Q3) for g in ("x1^2", f"x1*x2 + {N}*x2^2", "x3^3")]


@settings(max_examples=80, deadline=None)
@given(st.one_of(ideals(), column_sets()))
@example(EQUAL_LEADS_7)
@example(EXCESS_7)
@example(BIG_UNIT)
def test_rank_read_out_matches_the_pruned_shifts(gens):
    assert_rank_read_out_is_pruned(gens)


@st.composite
def ordered_ideals(draw):
    """Homogeneous ideals in 2..4 variables under grevlex, lex or an
    elimination order, over Q, GF(32003) or GF(7)."""
    nvars = draw(st.integers(2, 4))
    block = draw(st.integers(1, nvars - 1))
    order = draw(st.sampled_from((GREVLEX, LEX, elimination_order(block))))
    ring = RingSpec([f"x{i}" for i in range(1, nvars + 1)], draw(st.sampled_from(FIELDS)),
                    order=order)
    return [draw(forms(ring, draw(st.integers(1, 3)))) for _ in range(draw(st.integers(1, 5)))]


def assert_basis_input_resolves_alike(gb):
    # the frame on the reduced basis as it stands, the greedy's closed basis
    # of the same generators, and the pruned frame give one Betti table
    by_basis = minimal_free_resolution(gb)
    by_list = minimal_free_resolution(list(gb.basis) or [gb.ring.zero()])
    res, matrices = oracles.resolve(gb)
    assert by_basis.shifts == by_list.shifts == res.shifts
    assert resolutions.is_graded_complex(res.ring, res.shifts, matrices)


@settings(max_examples=60, deadline=None)
@given(ordered_ideals())
def test_basis_input_matches_list_input(gens):
    assert_basis_input_resolves_alike(groebner.buchberger(gens))


@pytest.mark.parametrize("make", [
    # 10 basis elements and 7 minimal generators: position 1 is |G_j| - r_{1,j}
    lambda: groebner.buchberger(section_4_2()),
    lambda: groebner.buchberger([], ring=Q3),
    lambda: groebner.buchberger([Q3.one()]),
    lambda: groebner.buchberger(EXCESS_7),
], ids=["section-4-2", "zero-ideal", "unit-ideal", "s-pair-over-GF7"])
def test_basis_input_pinned(make):
    gb = make()
    assert_basis_input_resolves_alike(gb)
    if len(gb.basis) == 10:
        assert len(minimal_free_resolution(gb).shifts[1]) == 7


def test_basis_input_must_be_a_homogeneous_groebner_basis():
    # a hand-made GroebnerBasis whose S-pair leaves a remainder on R^1, and
    # one that is not homogeneous
    x1, x2, x3 = Q3.variables()
    gens = (x1 ** 2 - x2 * x3, x1 * x2 - x3 ** 2)
    with pytest.raises(JonqError, match="S-pair remainder"):
        minimal_free_resolution(groebner.GroebnerBasis(Q3, gens, gens))
    with pytest.raises(JonqError, match="not homogeneous"):
        minimal_free_resolution(groebner.buchberger([x1 ** 2 - x2]))


def test_certified_section_resolves_alike_as_basis_and_list():
    # the section projdim_probe resolves, a reduced basis under an
    # elimination order, has the same shifts whichever way it goes in
    j = dejonq.random_map(4, 2, random.Random(0))
    section = rees._certified_section(rees.rees_ideal(j), j.n)
    res = minimal_free_resolution(section)
    assert res.shifts == minimal_free_resolution(list(section.basis)).shifts
    assert res.length() == rees.projdim_probe(j) == 4


def test_rank_over_q_is_exact():
    # x2^3 joins the basis, and the first syzygy map's constant entry -N^2
    # cancels it: the ideal is a complete intersection of degrees 2, 2, 3
    zero = (0,) * 3
    _, _, levels = oracles.frame_parts(BIG_UNIT)
    assert [len(level) for level in levels] == [4, 5, 2]
    assert [c for v, _, _ in levels[1] for t, c in v.items() if t[2:] == zero] == [-N ** 2]
    assert minimal_free_resolution(BIG_UNIT).shifts == ((0,), (2, 2, 3), (4, 5, 5), (7,))


def test_a_basis_element_left_over_is_an_error(monkeypatch):
    # x2^3 joins the basis, and only a constant entry in its row of the
    # first syzygy map cancels it; a frame without that entry leaves it
    # over.  Level 2's row of level 1's element u is component offsets[1] + u,
    # and its constant term there is that component's base
    build = resolutions._frame

    def broken(basis):
        skeleton, pk, levels = build(basis)
        (u,) = [u for u, lead in enumerate(skeleton[0][1]) if lead[2:] == (0, 3, 0)]
        constant = pk.bases[pk.offsets[1] + u]
        levels[1] = [({t: c for t, c in v.items() if t != constant}, shift)
                     for v, shift in levels[1]]
        return skeleton, pk, levels
    monkeypatch.setattr(resolutions, "_frame", broken)
    with pytest.raises(JonqError, match="leaves a basis element"):
        minimal_free_resolution(EXCESS_7)
    # the pruning leaves it over too: one more generator than the kept columns
    shifts, _ = oracles.prune(*oracles.frame_parts(EXCESS_7))
    assert shifts[1] == (2, 2, 3, 3)
    assert len(minimal_generators([(g,) for g in EXCESS_7], R3_7, (0,))) == 3


def test_frame_of_a_section_loses_a_variable_per_level():
    gens = section_4_2()
    *_, levels = oracles.frame_parts(gens)
    assert len(levels) <= gens[0].ring.nvars


@settings(max_examples=40, deadline=None)
@given(ideals())
def test_frame_leads_lose_one_variable_per_level(gens):
    # Eisenbud, Commutative Algebra, Cor. 15.11: level k + 1 (levels[k])
    # has no lead involving the first k variables
    ring = gens[0].ring
    *_, levels = oracles.frame_parts(gens)
    for k, level in enumerate(levels):
        assert not any(e for _, lead, _ in level for e in lead[2:2 + k])
    assert len(levels) <= ring.nvars + 1


# The greedy closes these on 8-bit fields, exponents up to 127, but the
# frame's S-pairs multiply tails by exponents near 60 as well
WIDENING = [(None, ("2*x1^5*x2^39*x3^11 - x1^16*x2^4*x3^35",
                    "2*x1^35*x2^9*x3^11 + 2*x1^27*x2*x3^27",
                    "2*x1^29*x2*x3^25 + x1^11*x2^3*x3^41")),
            (7, ("6*x1^16*x2^40*x3 + 2*x1^14*x2^4*x3^39",
                 "x1^15*x2^30*x3^12 + x1^12*x2^12*x3^33",
                 "2*x1^56*x2 + 2*x1^3*x2^28*x3^26")),
            (32003, ("x1^33*x2^3*x3^5 + 2*x2^34*x3^7",
                     "32002*x1^10*x2^13*x3^18 + 2*x1^2*x2*x3^38",
                     "2*x1^38*x2^2*x3 + 2*x1^12*x2^24*x3^5"))]
WIDE = [[parse_polynomial(g, RingSpec(["x1", "x2", "x3"], modulus)) for g in gens]
        for modulus, gens in WIDENING]


def greedy_case(gens):
    """(ring, rank, leads, bits) of the closed basis the frame builds on, or
    None when no column is kept."""
    columns, ring = resolutions._columns(gens)
    rank = len(columns[0])
    kept = minimal_generators(columns, ring, (0,) * rank)
    return kept and (ring, rank, kept.engine.leads, kept.engine.pk.bits)


@st.composite
def lead_cases(draw):
    """(ring, rank, leads, 8): up to five leads with exponents up to 100 in
    two or three variables, near the 8-bit field cap."""
    ring = RingSpec(["x1", "x2", "x3"][:draw(st.integers(2, 3))], draw(st.sampled_from(FIELDS)))
    rank = draw(st.integers(1, 2))
    terms = draw(st.lists(st.tuples(st.integers(0, rank - 1),
                                    st.tuples(*[st.integers(0, 100)] * ring.nvars)),
                          min_size=2, max_size=5, unique=True))
    return ring, rank, [(c, -c) + m for c, m in terms], 8


def frame_chain(skeleton, rank, nvars):
    """Per module of the frame, R^rank's and then each level's that forms a
    pair: (component of R^rank, total monomial) of each basis element, the
    total being the product of its chain of Schreyer leads."""
    chains = [[(c, (0,) * nvars) for c in range(rank)]]
    for _, placed, _ in skeleton[:-1]:
        chains.append([(chains[-1][lead[0]][0], mono_mul(chains[-1][lead[0]][1], lead[2:]))
                       for lead in placed])
    return chains


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.one_of(ideals(), column_sets()).map(greedy_case).filter(bool),
                 lead_cases()),
       st.data())
@example(greedy_case(CLOSING[0]), None)
@example(greedy_case(CLOSING[2]), None)
def test_layout_packs_schreyer_order(case, data):
    # the frame's one packing against Schreyer's order by its definition,
    # level by level (oracles.induced_key), on the leads of closed bases
    # over Q, GF(32003) and GF(7) and on drawn leads: two terms of one
    # module, drawn freely or with equal m lead in R^rank, so that only tie
    # digits decide, on the level of the terms or on one below; and a term
    # m e_u, a tag of the reduction that makes the next level, against a
    # term of the module before, where it must rank just below m lead_u
    ring, rank, leads, bits = case
    key = _module_key(ring, None, (0,) * rank)
    skeleton = resolutions._skeleton(leads)
    pk = resolutions._layout(key, ring.nvars, rank, skeleton, bits)
    keys = [key]
    for _, placed, _ in skeleton[:-1]:
        keys.append(oracles.induced_key(keys[-1], placed))
    chains = frame_chain(skeleton, rank, ring.nvars)
    assert len(keys) == len(chains) == len(pk.offsets)
    if data is None:  # the examples: every pair of equal-total terms
        draws = [(k, u, v) for k, chain in enumerate(chains)
                 for u in range(len(chain)) for v in range(len(chain))]
    else:
        k = data.draw(st.integers(0, len(chains) - 1))
        elements = st.integers(0, len(chains[k]) - 1)
        draws = [(k, data.draw(elements), data.draw(elements))]
    # exponents up to the field cap, where a digit reaches past the key's
    # value at R^rank's zero terms by cap times the total
    monos = st.tuples(*[st.integers(0, 4) | st.integers(pk.cap - 4, pk.cap)] * ring.nvars)

    def packed(k, u, m):
        g = pk.offsets[k] + u
        return pk.pack((g, -g) + m)

    def term(u, m):
        return (u, -u) + m
    for k, u, v in draws:
        (cu, tu), (cv, tv) = chains[k][u], chains[k][v]
        pairs = []
        if cu == cv:
            lcm = mono_lcm(tu, tv)
            pairs.append((mono_div(lcm, tu), mono_div(lcm, tv)))
        if data is not None:
            pairs.append((data.draw(monos), data.draw(monos)))
        for m, n in pairs:
            if max(m + n) > pk.cap:
                continue
            a, b = keys[k](term(u, m)), keys[k](term(v, n))
            assert (packed(k, u, m) < packed(k, v, n)) == (a < b)
            assert (packed(k, u, m) == packed(k, v, n)) == (a == b)
            if k and data is not None:
                # m e_u against m lead_u and a term t of the module before
                lead = skeleton[k - 1][1][u]
                w = data.draw(st.integers(0, len(chains[k - 1]) - 1))
                t, below = data.draw(monos), mono_mul(lead[2:], m)
                if max(below) > pk.cap:
                    continue
                assert packed(k - 1, lead[0], below) > packed(k, u, m)
                above = keys[k - 1](term(w, t)) >= keys[k - 1](lead[:2] + below)
                assert (packed(k - 1, w, t) > packed(k, u, m)) == above


def test_primary_syzygies_survive_a_repack(monkeypatch):
    # exponents stay below 64, but the syzygy run and the greedy's closing
    # overflow the initial 8-bit fields, so each engine repacks after
    # S-pair elements exist
    repacked_with = []
    repack = groebner._Engine._repack

    def recording_repack(self, bits):
        repacked_with.append(len(self.elems))
        repack(self, bits)

    monkeypatch.setattr(groebner._Engine, "_repack", recording_repack)
    for modulus in FIELDS:
        ring = RingSpec(["x1", "x2", "x3"], modulus)
        gens = [parse_polynomial(g, ring) for g in (
            "x1^38*x2^12*x3^13 - x1^17*x2^13*x3^33", "x1^3*x2^25*x3^35 - x1^27*x2^24*x3^12",
            "x1^50*x2^5*x3^8 - x1^17*x2^3*x3^43")]
        for run in (syzygies, lambda gens: minimal_generators([(g,) for g in gens], ring, (0,))):
            repacked_with.clear()
            run(gens)
            assert any(count > len(gens) for count in repacked_with)
        assert_matches_reference(gens)


@pytest.mark.parametrize("modulus, gens", WIDENING, ids=["Q", "GF7", "GF32003"])
def test_frame_widens_partway_to_the_oracle_shifts(monkeypatch, modulus, gens):
    # the frame overflows its 8-bit fields after it has made syzygies, and
    # redoes itself on 16-bit ones, one layout for the whole frame each time
    gens = WIDE[[m for m, _ in WIDENING].index(modulus)]
    layout, syzygy, events = resolutions._layout, resolutions._syzygy, []

    def recording_layout(*args):
        pk = layout(*args)
        events.append(pk.bits)
        return pk

    def recording_syzygy(*args):
        events.append("syzygy")
        return syzygy(*args)
    monkeypatch.setattr(resolutions, "_layout", recording_layout)
    monkeypatch.setattr(resolutions, "_syzygy", recording_syzygy)
    shifts = minimal_free_resolution(gens).shifts
    assert events[0] == 8 and events.count(16) == 1 and "syzygy" in events[:events.index(16)]
    assert [e for e in events if e != "syzygy"] == [8, 16]
    res, _ = oracles.resolve(gens)
    assert res.shifts == shifts
    assert_matches_reference(gens)


def test_a_frame_term_that_overflows_at_every_width_raises(monkeypatch):
    # a negative exponent borrows into a guard bit at every width: the frame
    # doubles its fields up to groebner._MAX_BITS and then raises
    ring = RingSpec(["x1", "x2", "x3"], 32003)
    gens = [parse_polynomial(g, ring) for g in ("x1^2", "x1*x2", "x2^3", "x3^2")]
    kept = minimal_generators([(g,) for g in gens], ring, (0,))
    nf, widths = groebner._nf_dict, []

    def negative(work, reducers, mod, pk, bound=None):
        widths.append(pk.bits)
        work[pk.bases[0] - pk.units[2]] = 1  # x1^-1 e_0
        return nf(work, reducers, mod, pk, bound)
    monkeypatch.setattr(groebner, "_nf_dict", negative)
    with pytest.raises(JonqError, match="overflow"):
        resolutions._frame(kept.engine)
    assert widths == [8 << k for k in range(8)] and widths[-1] == groebner._MAX_BITS


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
    assert len(minimal_generators([(g,) for g in gens], gens[0].ring, (0,))) == len(kept)


@settings(max_examples=60, deadline=None)
@given(st.one_of(ideals(), column_sets()))
@example(EQUAL_LEADS_7)
def test_greedy_leads_divide_no_other_lead(gens):
    columns = [(g,) if isinstance(g, Polynomial) else tuple(g) for g in gens]
    ring = columns[0][0].ring
    leads = minimal_generators(columns, ring, (0,) * len(columns[0])).engine.leads
    for i, a in enumerate(leads):
        for b in leads[i + 1:]:
            assert a[0] != b[0] or not (mono_divides(a[2:], b[2:]) or mono_divides(b[2:], a[2:]))


NVARS, BITS = 3, 6
CAP = (1 << (BITS - 1)) - 1
# one component per shift, as `minimal_generators` builds its engine
SHIFTED = [(shifts, _Packing(_module_key(RingSpec(["x1", "x2", "x3"]), None, shifts),
                             NVARS, len(shifts), BITS))
           for shifts in ((0,), (3, 0, 5), (2, 2, 1, 0))]
monos = st.tuples(*[st.integers(0, CAP) for _ in range(NVARS)])


@given(st.data())
def test_shifted_key_packs_in_order(data):
    shifts, pk = data.draw(st.sampled_from(SHIFTED))
    comps = st.integers(0, len(shifts) - 1)
    ca, a, cb, b = data.draw(comps), data.draw(monos), data.draw(comps), data.draw(monos)
    ta, tb = (ca, -ca) + a, (cb, -cb) + b
    assert (pk.pack(ta) < pk.pack(tb)) == (pk.key(ta) < pk.key(tb))
    assert pk.key(ta)[0] == sum(a) + shifts[ca]
    assert pk.unpack(pk.pack(ta)) == ta


def test_betti_tables_end_to_end(tmp_path, capsys):
    # reports and `jonq resolve` read resolutions as shifts only
    report = rees.case_report(dejonq.random_map(4, 2, random.Random(0)), seed=0)
    assert (report["projdim"], report["theorem"]) == (4, "pass")
    structural = dejonq.structural_checks(dejonq.random_map(3, 4, random.Random(1), None))
    assert structural.ok and structural.projdim == 3
    case = tmp_path / "e1.jonq"
    case.write_text("n: 2\nd: 2\nfield: rational\nf: x3\ng: x1^2 - x2*x3\n")
    assert main(["resolve", str(case)]) == 0
    assert "groebner oracle agrees: True" in capsys.readouterr().out
