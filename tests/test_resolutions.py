"""Syzygies, minimal free resolutions, Betti tables."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import jonq
import oracles
from jonq import groebner as gb
from jonq.polycore import JonqError, RingSpec, format_polynomial, parse_polynomial, random_form
from jonq.resolutions import (
    BettiTable,
    Resolution,
    is_graded_complex,
    minimal_free_resolution,
    syzygies,
)


def P(text, ring):
    return parse_polynomial(text, ring)


def test_koszul_two_variables():
    R = RingSpec(["x1", "x2"])
    gens = [R.variable(0), R.variable(1)]
    res = minimal_free_resolution(gens)
    assert res.betti.ranks() == (1, 2, 1)
    assert res.shifts == ((0,), (1, 1), (2,))
    assert oracles.verify_complex(gens)


def test_koszul_three_variables():
    R = RingSpec(["x1", "x2", "x3"])
    gens = list(R.variables())
    res = minimal_free_resolution(gens)
    assert res.betti.ranks() == (1, 3, 3, 1)
    assert res.shifts[3] == (3,)
    assert oracles.verify_complex(gens)


def test_resolution_is_its_ring_and_shifts():
    # equality, hashing and repr read only the shifts: no frame is kept
    R = RingSpec(["x1", "x2", "x3"])
    gens = [P("x1^2 - x2*x3", R), P("x1*x2 - x3^2", R), P("x2^2 - x1*x3", R)]
    a, b = minimal_free_resolution(gens), minimal_free_resolution(gens)
    assert a == b and hash(a) == hash(b)
    assert [f.name for f in dataclasses.fields(Resolution)] == ["ring", "shifts"]
    assert repr(a) == f"Resolution(ring={R!r}, shifts={a.shifts!r})"


def test_syzygies_are_syzygies():
    R = RingSpec(["x1", "x2", "x3"])
    gens = [P("x1*x3", R), P("x2*x3", R), P("x1^2 - x2*x3", R)]
    for col in syzygies(gens):
        acc = R.zero()
        for c, g in zip(col, gens):
            acc = acc + c * g
        assert acc.is_zero()


def test_syzygies_generate_randomized():
    # any ad-hoc syzygy must reduce to zero against the computed generators;
    # here: multiples of Koszul relations between pairs of generators
    rng = random.Random(8)
    R = RingSpec(["x1", "x2", "x3"], modulus=101)
    from jonq.groebner import _Engine
    from jonq.resolutions import _column_to_dict, _module_key
    for _ in range(25):
        gens = [random_form(R, rng.randrange(1, 3), rng, terms=2) for _ in range(3)]
        syz = syzygies(gens)
        gbm = _Engine(R, _module_key(R, None, (0,) * 3), 3)
        gbm.extend([_column_to_dict(col, R) for col in syz])
        for i in range(3):
            for j in range(i + 1, 3):
                koszul = [R.zero()] * 3
                koszul[i] = gens[j]
                koszul[j] = -gens[i]
                red = gbm.reduce(_column_to_dict(tuple(koszul), R))
                assert not red


def test_resolutions_imports_alone():
    # resolutions runs on groebner's engine while groebner re-exports
    # resolutions: importing resolutions first must still work
    src = str(Path(jonq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", "import jonq.resolutions"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_resolution_randomized_consistency():
    # the pruned matrices compose to zero; alternating Betti numerator
    # equals the Hilbert numerator; projdim <= number of variables
    rng = random.Random(77)
    R = RingSpec(["x1", "x2", "x3"], modulus=32003)
    for _ in range(100):
        gens = [random_form(R, rng.randrange(1, 4), rng, terms=rng.randrange(1, 3))
                for _ in range(rng.randrange(1, 4))]
        res, matrices = oracles.resolve(gens)
        assert res.length() <= 3
        assert is_graded_complex(res.ring, res.shifts, matrices)
        assert res.betti.alternating_numerator() == gb.hilbert_series_numerator(gens)


@pytest.mark.parametrize("call, gens", [(minimal_free_resolution, [()]),
                                        (minimal_free_resolution, [(), ()]),
                                        (syzygies, [()])])
def test_columns_without_entries_are_an_error(call, gens):
    # no entry names the ring
    with pytest.raises(JonqError):
        call(gens)


def test_betti_table_helpers():
    t = BettiTable.from_shift_lists([[0], [2, 2, 3], [4]])
    assert t.ranks() == (1, 3, 1)
    assert t.alternating_numerator() == {0: 1, 2: -2, 3: -1, 4: 1}
    assert str(t) == "0 | 2^2,3 | 4"


def test_module_column_resolution():
    # resolving a module given by columns: the maximal-ideal Koszul relations
    R = RingSpec(["x1", "x2"])
    x1, x2 = R.variables()
    columns = [(x1,), (x2,)]
    res = minimal_free_resolution(columns)
    assert res.betti.ranks() == (1, 2, 1)


# sha256 of the two parts of _pinned_outputs(); any change in pair order,
# reducer choice or output order shows up here even when Betti tables agree.
# The reduced bases are pinned as computed before the ideal and module
# Buchberger loops were merged into one engine.  The syzygy columns are
# pinned as computed once the syzygy engine stopped forming S-pairs on the
# tag block, and the resolution matrices as computed once the resolution
# came from a pruned Schreyer frame; the shifts and the first matrix of
# every resolution stayed.  The matrices now come from `oracles.resolve`,
# which prunes that frame as the library once did.  Once level 1 of the frame
# came from the greedy's own closed engine, reducing the named S-pairs like
# every other level, only the second Q ideal's pruned matrices changed: its
# shifts, its first matrix and every syzygy column stayed.  Once the engine
# adjoined every vector as its remainder and paired every element, the
# syzygy columns became the tag-block elements of a full run, a Groebner
# basis of the syzygy module, and the first matrix the frame's surviving
# basis elements rather than the caller's columns; the shifts of all six
# inputs stayed.  Once `_Engine.extend` closed the pending pairs up to each
# vector's leading key digit before adjoining it, the syzygy engine, whose
# key leads with the block flag, closed all pairs before each augmented
# vector: only the syzygy columns changed, still a Groebner basis of the
# syzygy module, from 3, 16, 5, 3, 8, 11 columns on the six inputs to
# 6, 9, 10, 4, 8, 10; every shift and pruned matrix stayed.
# RESOLUTIONS_DIGEST was 64047e2ab005dbfbee289da6814bce826cc5882be103736ca84ab293c8a2f93a
# before that change.
BASES_DIGEST = "71d94f7056e1de7fd312b25df79f515683653d11c0704747b6b471ba27d1286b"
RESOLUTIONS_DIGEST = "518c2b8d32055d26bbed594cfa88e6d6249cc8c213d1e4fa7e411c9a9a4a222c"


def _pinned_outputs():
    Q = RingSpec(["x1", "x2", "x3", "x4"])
    F = RingSpec(["x1", "x2", "x3"], modulus=32003)
    x1, x2, x3, x4 = Q.variables()
    rng = random.Random(31)
    ideals = [
        [P("x1*x3 - x2^2", Q), P("x2*x4 - x3^2", Q), P("x1*x4 - x2*x3", Q)],
        [P("x1^2 - 1/2*x2*x3", Q), P("x2^2 - 3*x1*x4", Q), P("x3^2 + x1*x2", Q),
         P("x1*x4 - x2*x4", Q)],
        [random_form(F, 2, rng, terms=3) for _ in range(4)],
        [random_form(F, rng.randrange(1, 4), rng, terms=2) for _ in range(3)],
    ]
    columns = [
        [(x1, x2), (x2, x3), (x3, x4), (x4, x1)],
        [tuple(random_form(F, d, rng, terms=2) for _ in range(3))
         for d in (1, 1, 2, 2, 2)],
    ]
    bases = [[format_polynomial(g) for g in gb.buchberger(gens).basis] for gens in ideals]
    resolutions = []
    for gens in ideals + columns:
        resolutions.append([[format_polynomial(p) for p in col] for col in syzygies(gens)])
        res, matrices = oracles.resolve(gens)
        resolutions.append((res.shifts, [[[format_polynomial(p) for p in col] for col in matrix]
                                         for matrix in matrices]))
    return bases, resolutions


def test_pinned_outputs():
    # reduced bases, syzygy columns and resolution matrices over Q and
    # GF(32003), for polynomial and column input
    bases, resolutions = _pinned_outputs()
    assert hashlib.sha256(repr(bases).encode()).hexdigest() == BASES_DIGEST
    assert hashlib.sha256(repr(resolutions).encode()).hexdigest() == RESOLUTIONS_DIGEST
