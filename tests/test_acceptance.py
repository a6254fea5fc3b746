"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (no numerical tolerances).  The tested grid is
n in {2, 3}, d in {2, 3, 4} over GF(32003), with the three worked examples
over Q as spot checks.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from math import comb

import pytest

import oracles
from jonq import dejonq, groebner as gb, rees
from jonq.polycore import degree_in, substitute, transport
from jonq.resolutions import is_graded_complex
from conftest import make_map

GRID = [(n, d) for n in (2, 3) for d in (2, 3, 4)]
MODULUS = 32003
SEED = 2026


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({label}): {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed {suffix}"


@pytest.fixture(scope="module")
def worked():
    return [make_map(2, "x3", "x1^2 - x2*x3"),
            make_map(3, "x4", "x1*x2 - x3*x4"),
            make_map(2, "x1*x3 + x2^2", "x1^2*x3 + x2^3")]


@pytest.fixture(scope="module")
def tested_cases(worked):
    """Worked examples plus two deterministic random maps per grid point."""
    rng = random.Random(SEED)
    cases = list(worked)
    for (n, d) in GRID:
        for _ in range(2):
            cases.append(dejonq.random_map(n, d, rng, MODULUS))
    return cases


def test_criterion_1_inverse_certification(worked):
    rng = random.Random(SEED + 1)
    cases = list(worked)
    for (n, d) in GRID:
        cases.extend(dejonq.random_map(n, d, rng, MODULUS) for _ in range(20))
    ok = True
    slowest = 0.0
    for j in cases:
        t0 = time.monotonic()
        _, cert = dejonq.inverse(j)
        slowest = max(slowest, time.monotonic() - t0)
        if cert.degree != j.d ** 2 - 1:
            ok = False
    _report(1, "inverse certification, deg delta = d^2-1", ok,
            f"{len(cases)} cases, slowest {slowest:.2f}s")


def test_criterion_2_resolution_correctness(tested_cases):
    ok = True
    for j in tested_cases:
        n, d = j.n, j.d
        t0 = time.monotonic()
        fc = dejonq.resolution(j)
        oracle = gb.minimal_free_resolution(list(j.base_forms))
        if time.monotonic() - t0 >= 5.0:
            ok = False
        if not fc.verify() or fc.betti() != oracle.betti:
            ok = False
        closed = [(0,), (d,) * (n + 1),
                  tuple(sorted([d + 1] * comb(n, 2) + [2 * d - 1]))]
        closed += [(d + p - 1,) * comb(n, p) for p in range(3, n + 1)]
        got = [tuple(sorted(s)) for s in fc.shifts]
        if got != [tuple(sorted(s)) for s in closed]:
            ok = False
    _report(2, "resolution equals oracle and closed-form shifts", ok,
            f"{len(tested_cases)} cases")


def test_criterion_3_structural_corollaries(tested_cases):
    ok = True
    for j in tested_cases:
        rep = dejonq.structural_checks(j)
        if not rep.ok:
            ok = False
        if j.n == 2 and rep.multiplicity != j.d * (j.d - 1) + 1:
            ok = False
    _report(3, "saturation, support colon, CM iff n=2, plane multiplicity", ok,
            f"{len(tested_cases)} cases")


def test_criterion_4_main_theorem(tested_cases):
    ok = True
    slowest = 0.0
    for j in tested_cases:
        t0 = time.monotonic()
        rep = rees.verify_main_theorem(j)
        if not rep.ok or rep.count != comb(j.n, 2) + j.d - 1:
            ok = False
        if j.d == 2 and not rees.linear_type(j):
            ok = False
        elapsed = time.monotonic() - t0
        if elapsed >= 60.0:
            ok = False
        slowest = max(slowest, elapsed)
    _report(4, "minimal generation of the blowup ideal, linear type at d=2", ok,
            f"{len(tested_cases)} cases, slowest {slowest:.1f}s")


def test_criterion_5_downgraded_sequence_identities(tested_cases):
    ok = True
    for j in tested_cases:
        seq = dejonq.downgraded_sequence(j)
        W = seq.ring
        assignment = {nm: transport(form, W)
                      for nm, form in zip(j.target.names, j.base_forms)}
        for i, form in enumerate(seq.forms):
            if not substitute(form, assignment).is_zero():
                ok = False
            if form.bidegree() != (j.d - 1 - i, i + 1):
                ok = False
            if degree_in(form, j.target.names[j.n]) != 1:
                ok = False
        for i in range(1, j.d - 1):
            for jj in range(j.n):
                xj = W.variable(j.source.names[jj])
                yj = W.variable(j.target.names[jj])
                lhs = xj * seq.forms[i] - yj * seq.forms[i - 1]
                rhs = W.zero()
                for k in range(j.n):
                    xk = W.variable(j.source.names[k])
                    yk = W.variable(j.target.names[k])
                    rhs = rhs + (xj * yk - xk * yj) * seq.content[i - 1][k]
                if lhs != rhs:
                    ok = False
    _report(5, "downgraded-sequence identities", ok, f"{len(tested_cases)} cases")


def test_criterion_6_colon_lemmas(tested_cases):
    cases = [j for j in tested_cases if j.d >= 3]
    ok = all(rees.colon_lemma_checks(j).ok for j in cases)
    # the base colon is checked on every case, including d = 2
    ok = ok and all(rees.colon_lemma_checks(j).base_stable for j in tested_cases)
    _report(6, "colon lemmas P_0:F_0 = P_0 and P_i:F_i = support ideal", ok,
            f"{len(cases)} cases with d >= 3")


def test_criterion_7_almost_cm_and_conjecture_table(worked):
    rng = random.Random(SEED + 7)
    cases = []
    for (n, d) in GRID:
        cases.extend((dejonq.random_map(n, d, rng, MODULUS), (n, d))
                     for _ in range(5))
    cases.extend((j, (j.n, j.d)) for j in worked)
    ok = True
    table: dict[tuple[int, int], list[int]] = {}
    counterexamples = []
    for j, (n, d) in cases:
        if not rees.cone_betti(j).hilbert_match:
            ok = False
        pd = rees.projdim_probe(j)
        if pd > n + 1:
            ok = False
        cm = pd == n
        row = table.setdefault((n, d), [0, 0])
        row[0 if cm else 1] += 1
        if cm != (d <= n + 1):
            counterexamples.append(
                {"n": n, "d": d, "f": str(j.f), "g": str(j.g), "projdim": pd})
    print("conjecture table (cm iff d <= n+1 is reported, not assumed):")
    print(f"  {'n':>2} {'d':>2} {'cm':>3} {'non-cm':>7} {'d<=n+1':>7}")
    for (n, d), (cm, noncm) in sorted(table.items()):
        print(f"  {n:>2} {d:>2} {cm:>3} {noncm:>7} {str(d <= n + 1):>7}")
    for cx in counterexamples:
        print(f"  counterexample artifact: {cx}")
    # the table these 33 maps give, pinned: a probe that calls every map CM
    # (or none) fails here, not only in the printout
    ok = ok and len(cases) == 33 and not counterexamples and table == {
        (2, 2): [6, 0], (2, 3): [6, 0], (2, 4): [0, 5],
        (3, 2): [6, 0], (3, 3): [5, 0], (3, 4): [5, 0]}
    _report(7, "cone Hilbert cross-check, projdim <= n+1 and the pinned table", ok,
            f"{len(cases)} cases, {len(counterexamples)} conjecture deviations")


def test_criterion_8_engine_self_consistency():
    from jonq.polycore import RingSpec, random_form
    rng = random.Random(SEED + 8)
    ring = RingSpec(["x1", "x2", "x3"], modulus=MODULUS)
    ok = True
    for trial in range(100):
        gens = [random_form(ring, rng.randrange(1, 4), rng,
                            terms=rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 4))]
        G = gb.buchberger(gens)
        for i in range(len(G.basis)):
            for k in range(i + 1, len(G.basis)):
                if not G.reduce(gb.spolynomial(G.basis[i], G.basis[k])).is_zero():
                    ok = False
        p = random_form(ring, rng.randrange(1, 4), rng, terms=4)
        r = G.reduce(p)
        if G.reduce(r) != r or not G.reduce(p - r).is_zero():
            ok = False
        # the frame pruned to matrices: a graded complex with the shifts
        res, matrices = oracles.resolve(gens)
        if not is_graded_complex(res.ring, res.shifts, matrices):
            ok = False
        if res.betti.alternating_numerator() != gb.hilbert_series_numerator(gens):
            ok = False
    _report(8, "S-pairs, normal-form idempotence, complexes, Hilbert identity",
            ok, "100 randomized trials")
