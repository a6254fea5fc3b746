"""Syzygies, minimal free resolutions, Betti tables."""

import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import jonq
from jonq import groebner as gb
from jonq.polycore import RingSpec, format_polynomial, parse_polynomial, random_form
from jonq.resolutions import BettiTable, ResolutionBoundError, minimal_free_resolution, syzygies


def P(text, ring):
    return parse_polynomial(text, ring)


def test_koszul_two_variables():
    R = RingSpec(["x1", "x2"])
    res = minimal_free_resolution([R.variable(0), R.variable(1)])
    assert res.betti.ranks() == (1, 2, 1)
    assert res.shifts == ((0,), (1, 1), (2,))
    assert res.complete
    assert res.verify_complex()


def test_koszul_three_variables():
    R = RingSpec(["x1", "x2", "x3"])
    res = minimal_free_resolution(list(R.variables()))
    assert res.betti.ranks() == (1, 3, 3, 1)
    assert res.shifts[3] == (3,)
    assert res.verify_complex()


def test_verify_complex_rejects_wrong_degree_and_nonzero_composition():
    R = RingSpec(["x1", "x2"])
    res = minimal_free_resolution([R.variable(0), R.variable(1)])
    x1 = R.variable(0)
    # scaling the second map by x1 keeps the composition zero but breaks the degrees
    scaled = tuple(tuple(entry * x1 for entry in col) for col in res.matrices[1])
    assert not replace(res, matrices=(res.matrices[0], scaled)).verify_complex()
    # entries of the right degree whose product with the first map is not zero
    (col,) = res.matrices[1]
    broken = ((col[0] + x1, col[1]),)
    assert not replace(res, matrices=(res.matrices[0], broken)).verify_complex()


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
    from jonq.resolutions import _column_to_dict, _module_groebner
    for _ in range(25):
        gens = [random_form(R, rng.randrange(1, 3), rng, terms=2) for _ in range(3)]
        syz = syzygies(gens)
        gbm = _module_groebner([_column_to_dict(col, R) for col in syz], R)
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


def test_resolution_bound_flagged():
    R = RingSpec(["x1", "x2", "x3"])
    with pytest.raises(ResolutionBoundError) as info:
        minimal_free_resolution(list(R.variables()), length_bound=1)
    partial = info.value.partial
    assert not partial.complete
    assert partial.betti.ranks() == (1, 3)


def test_resolution_randomized_consistency():
    # matrices compose to zero; alternating Betti numerator equals the
    # Hilbert numerator; projdim <= number of variables
    rng = random.Random(77)
    R = RingSpec(["x1", "x2", "x3"], modulus=32003)
    for _ in range(100):
        gens = [random_form(R, rng.randrange(1, 4), rng, terms=rng.randrange(1, 3))
                for _ in range(rng.randrange(1, 4))]
        res = minimal_free_resolution(gens)
        assert res.complete
        assert res.length() <= 3
        assert res.verify_complex()
        assert res.betti.alternating_numerator() == gb.hilbert_series_numerator(gens)


def test_betti_table_helpers():
    t = BettiTable.from_shift_lists([[0], [2, 2, 3], [4]])
    assert t.ranks() == (1, 3, 1)
    assert t.shifts(1) == {2: 2, 3: 1}
    assert t.length() == 2
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
# Buchberger loops were merged into one engine.  The syzygy columns and
# resolution matrices are pinned as computed once the syzygy engine stopped
# forming S-pairs on the tag block; the shifts of every resolution stayed.
BASES_DIGEST = "71d94f7056e1de7fd312b25df79f515683653d11c0704747b6b471ba27d1286b"
RESOLUTIONS_DIGEST = "01c2dda002f54800aa2572ba8263ca1e65efb8d6dba89a3b5dd0efc0e4d7a2c9"


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
        res = minimal_free_resolution(gens)
        resolutions.append((res.shifts, [[[format_polynomial(p) for p in col] for col in matrix]
                                         for matrix in res.matrices]))
    return bases, resolutions


def test_pinned_outputs():
    # reduced bases, syzygy columns and resolution matrices over Q and
    # GF(32003), for polynomial and column input
    bases, resolutions = _pinned_outputs()
    assert hashlib.sha256(repr(bases).encode()).hexdigest() == BASES_DIGEST
    assert hashlib.sha256(repr(resolutions).encode()).hexdigest() == RESOLUTIONS_DIGEST
