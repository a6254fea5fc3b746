"""Packed terms of the Groebner engine against the tuple helpers of polycore."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from operator import mul  # noqa: E402

from jonq import groebner  # noqa: E402
from jonq.groebner import _Packing  # noqa: E402
from jonq.orders import GREVLEX, GRLEX, LEX, elimination_order  # noqa: E402
from jonq.polycore import RingSpec, mono_divides, mono_mul, parse_polynomial  # noqa: E402
from jonq.resolutions import (  # noqa: E402
    _module_key,
    minimal_free_resolution,
    minimal_generators,
    syzygies,
)

NVARS = 4
BITS = 6  # exponent fields hold 0..31
CAP = (1 << (BITS - 1)) - 1
COMPS = 5

ORDERS = [GREVLEX, LEX, GRLEX, elimination_order(1), elimination_order(3)]
# (key, comps): ideal keys have no components, module keys comps > 0
SCHEMES = ([(o.key_function(NVARS), 0) for o in ORDERS]
           + [(_module_key(RingSpec([f"x{i}" for i in range(NVARS)], order=o), *args), COMPS)
              for o in (GREVLEX, LEX) for args in ((None, (0,) * COMPS), (2,))])
PACKINGS = [_Packing(key, NVARS, comps, BITS) for key, comps in SCHEMES]

schemes = st.sampled_from(range(len(SCHEMES)))
monos = st.tuples(*[st.integers(0, CAP) for _ in range(NVARS)])
halves = st.tuples(*[st.integers(0, CAP // 2) for _ in range(NVARS)])
comps = st.integers(0, COMPS - 1)


def term(k, c, mono):
    """The boundary term of scheme k: a monomial, or (c, -c) + monomial."""
    return (c, -c) + mono if SCHEMES[k][1] else mono


def lo_divides(pk, a, b):
    """The engine's divisibility test on packed terms a, b."""
    d = (b & pk.lomask) - (a & pk.lomask)
    return d >= 0 and not d & pk.guard


@given(schemes, comps, monos)
def test_pack_is_the_key_digit_sum(k, c, mono):
    # the definition the linear form must agree with: the key's digits
    # times the weights, above one field per coordinate (c and comps - 1 - c
    # first for a module term)
    key, pk = SCHEMES[k][0], PACKINGS[k]
    t = term(k, c, mono)
    fields = (c, COMPS - 1 - c) + mono if pk.comps else mono
    lo = sum(f << BITS * i for i, f in enumerate(fields))
    assert pk.pack(t) == sum(map(mul, key(t), pk.weights)) + lo
    # the engine's degree truncation reads the first digit off the int
    assert pk.lead_digit(pk.pack(t)) == key(t)[0]


@given(schemes, comps, monos, comps, monos)
def test_int_order_is_key_order(k, ca, a, cb, b):
    key, pk = SCHEMES[k][0], PACKINGS[k]
    ta, tb = term(k, ca, a), term(k, cb, b)
    assert (pk.pack(ta) < pk.pack(tb)) == (key(ta) < key(tb))
    assert (pk.pack(ta) == pk.pack(tb)) == (ta == tb)


@given(schemes, comps, halves, halves, halves)
def test_adding_a_shift_multiplies(k, c, t, lead, q):
    # the reducer's step: shift = pack(lead * q) - pack(lead), then
    # pack(t) + shift = pack(t * q) for every t of lead's component
    pk = PACKINGS[k]
    shift = pk.pack(term(k, c, mono_mul(lead, q))) - pk.pack(term(k, c, lead))
    assert pk.pack(term(k, c, t)) + shift == pk.pack(term(k, c, mono_mul(t, q)))
    if not SCHEMES[k][1]:
        assert pk.pack(t) + pk.pack(q) == pk.pack(mono_mul(t, q))


@given(schemes, comps, monos, monos)
def test_carry_into_a_guard_bit_is_seen(k, c, t, q):
    # a product whose exponent leaves the fields never reads as a valid term
    pk = PACKINGS[k]
    zero = (0,) * NVARS
    shift = pk.pack(term(k, c, q)) - pk.pack(term(k, c, zero))
    over = any(e > CAP for e in mono_mul(t, q))
    assert bool((pk.pack(term(k, c, t)) + shift) & pk.guard) == over


@given(schemes, comps, monos, comps, monos)
def test_guard_bit_test_is_mono_divides(k, ca, a, cb, b):
    pk = PACKINGS[k]
    ta, tb = term(k, ca, a), term(k, cb, b)
    assert lo_divides(pk, pk.pack(ta), pk.pack(tb)) == mono_divides(ta, tb)


@given(schemes, comps, monos, monos)
def test_guard_bit_test_on_multiples(k, c, a, q):
    # random pairs rarely divide; a multiple always does, in its own component
    pk = PACKINGS[k]
    a = tuple(e // 2 for e in a)
    q = tuple(e // 2 for e in q)
    assert lo_divides(pk, pk.pack(term(k, c, a)), pk.pack(term(k, c, mono_mul(a, q))))
    if SCHEMES[k][1]:
        other = (c + 1) % COMPS
        assert not lo_divides(pk, pk.pack(term(k, c, a)),
                              pk.pack(term(k, other, mono_mul(a, q))))


@given(schemes, comps, monos)
def test_unpack_inverts_pack(k, c, mono):
    pk = PACKINGS[k]
    t = term(k, c, mono)
    assert pk.unpack(pk.pack(t)) == t


def count_packings(monkeypatch):
    """Count `_Packing` builds, in all and per engine."""
    built, per_engine = [], {}

    class Counted(_Packing):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    repack = groebner._Engine._repack

    def counted_repack(engine, *args):
        # the engine is kept as a key, so no later engine reuses its id
        per_engine[engine] = per_engine.get(engine, 0) + 1
        repack(engine, *args)

    monkeypatch.setattr(groebner, "_Packing", Counted)
    monkeypatch.setattr(groebner._Engine, "_repack", counted_repack)
    return built, per_engine


def test_an_engine_sizes_its_one_packing_to_its_first_input(monkeypatch):
    ring = RingSpec(["x1", "x2", "x3"], 32003)
    columns = [tuple(parse_polynomial(e, ring) for e in col)
               for col in (("x1", "x2"), ("x2", "x3"), ("x3", "x1"), ("x1 + x2", "x3"))]
    built, per_engine = count_packings(monkeypatch)
    assert syzygies(columns)
    assert len(built) == 1 and list(per_engine.values()) == [1]
    # the one module engine holds rank + m = 2 + 4 components, no more
    assert built[0][2] == 6

    built.clear()
    per_engine.clear()
    gens = [parse_polynomial(g, ring) for g in ("x1^2", "x1*x2", "x2^3", "x3^2")]
    assert minimal_free_resolution(gens).length() == 3
    # the greedy's engine, then the frame's one layout for all its levels,
    # which no engine holds
    assert len(built) == 2 and list(per_engine.values()) == [1]


def test_an_engine_packs_the_components_its_caller_names(monkeypatch):
    # the first column reaches only component 0, yet the packing is built
    # once, for all three components, and never repacked
    ring = RingSpec(["x1", "x2", "x3"], 32003)
    x1, x2, x3 = ring.variables()
    zero = ring.zero()
    built, per_engine = count_packings(monkeypatch)
    kept = minimal_generators([(x1, zero, zero), (zero, x2, zero), (zero, zero, x3)], ring,
                              (0, 0, 0))
    assert len(kept) == 3
    assert [args[2] for args in built] == [3] and list(per_engine.values()) == [1]
