"""Workload inputs, per-case runners and the exact correctness gate.

Every workload is a list of cases generated from the workload seed; each
case is one de Jonquieres map.  The library only ever receives the
generated maps.  `run_case` returns a canonical verdict (a JSON-ready dict
with no timing fields), and `gate` lists the exact checks it fails.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

MODULUS = 32003
SRC = Path(__file__).resolve().parent.parent / "src"

# sweep-light and certify-q keep the monomial supports of the maps that
# `jonq explore --seed 0` draws (over Q for certify-q).  Seed 0 gives exactly
# those maps; any other seed redraws every coefficient.
SUPPORT_SEED = 0

# sweep-light: the everyday `jonq explore` sweep over cheap grid points.
SWEEP_GRID = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2))
SWEEP_TRIALS = 8

# cm-tail: the (3, 4) maps of acceptance criterion 7 (tests/test_acceptance.py),
# i.e. random.Random(2033) sampled 5 maps per point in that test's grid order.
CRITERION7_SEED = 2033
CRITERION7_GRID = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))
CRITERION7_PER_POINT = 5
# Maps #26 and #27 are left out: each one alone runs past a whole run's time
# budget at the seed commit (projdim_probe > 60 s), see bench/README.md.
CM_TAIL_MAPS = (25, 28, 29)

# certify-q: the exact path over Q, bypassing rees.  (3, 5) is left out:
# on about 1 map in 100 there, groebner.saturate in structural_checks runs
# for over a minute over Q (see bench/README.md), so runs would fail.
CERTIFY_GRID = ((2, 6), (3, 4), (4, 3))
CERTIFY_TRIALS = 15

# Wall-clock cap per case, in seconds: at least 4x the slowest case seen to
# finish at the seed commit (sweep-light ~2 s, cm-tail ~15 s, certify-q
# ~1.5 s), because the shared host runs up to 2.5x slower at times and a
# timeout must never depend on that.
CAPS = {"sweep-light": 30.0, "cm-tail": 75.0, "certify-q": 30.0}
# Time of one pass over every case at the seed commit on a 2-vCPU host.  A
# run makes round(--seconds / PASS_S) passes, at least one, so the number of
# passes depends only on the arguments, never on how fast the code under
# test is.
PASS_S = {"sweep-light": 15.0, "cm-tail": 38.0, "certify-q": 14.0}
WORKLOADS = tuple(CAPS)

REPORT_VERDICTS = ("theorem", "colon", "cone_hilbert", "special")


@dataclass(frozen=True)
class Case:
    n: int
    d: int
    seed: int
    map: object  # jonq.dejonq.DeJonquieresMap


def import_jonq():
    """Import the library from the checkout's `src`, never from elsewhere.

    Drops every cached `jonq` module first, so each call measures a fresh
    import.  Raises ImportError when the checkout has no library.
    """
    for name in [m for m in sys.modules if m == "jonq" or m.startswith("jonq.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jonq.cli  # noqa: F401  (pulls in every layer)
    import jonq
    if Path(jonq.__file__).resolve().parent != SRC / "jonq":
        raise ImportError(f"jonq imported from {jonq.__file__}, not from {SRC}")
    return jonq


def explore_case_seed(seed: int, n: int, d: int, trial: int) -> int:
    """The per-case seed `jonq explore --seed SEED` gives trial `trial` at (n, d)."""
    return seed * 1_000_003 + n * 10_007 + d * 101 + trial


def build_cases(workload: str, seed: int) -> list[Case]:
    from jonq import dejonq

    if workload in ("sweep-light", "certify-q"):
        grid, trials, modulus = ((SWEEP_GRID, SWEEP_TRIALS, MODULUS)
                                 if workload == "sweep-light"
                                 else (CERTIFY_GRID, CERTIFY_TRIALS, None))
        cases = []
        for n, d in grid:
            for trial in range(trials):
                cs = explore_case_seed(SUPPORT_SEED, n, d, trial)
                j = dejonq.random_map(n, d, random.Random(cs), modulus)
                if seed != SUPPORT_SEED:
                    j = redraw_coefficients(j, random.Random(f"{seed}/{cs}"))
                cases.append(Case(n, d, cs, j))
        return cases
    if workload == "cm-tail":
        rng = random.Random(CRITERION7_SEED)
        maps = [dejonq.random_map(n, d, rng, MODULUS)
                for n, d in CRITERION7_GRID for _ in range(CRITERION7_PER_POINT)]
        # pinned inputs: the seed changes nothing here; the case seed, which
        # picks the specialization form, is the map's criterion-7 index
        return [Case(3, 4, k, maps[k]) for k in CM_TAIL_MAPS]
    raise ValueError(f"unknown workload {workload!r}")


def redraw_coefficients(j, rng):
    """The map with f's and g's monomials kept and every coefficient redrawn.

    Coefficients come from the ranges `polycore.random_form` uses.  The cost
    of the exact computations depends mostly on the supports, so the work
    per run stays nearly the same from seed to seed.
    """
    from jonq import dejonq, polycore

    ring = j.f.ring

    def coeff():
        if ring.modulus is None:
            return rng.choice([c for c in range(-9, 10) if c])
        return rng.randrange(1, ring.modulus)

    for _ in range(100):
        f = polycore.Polynomial(ring, [(m, coeff()) for m, _ in j.f.terms])
        g = polycore.Polynomial(ring, [(m, coeff()) for m, _ in j.g.terms])
        try:
            return dejonq.construct(f, g, j.n)
        except dejonq.ConstructionError:
            continue
    raise ValueError(f"no valid coefficients for the supports of {j.f}, {j.g}")


def run_case(workload: str, case: Case) -> dict:
    """Run one case and return its verdict, free of timing fields."""
    from jonq import dejonq, groebner, rees

    if workload != "certify-q":
        report = rees.case_report(case.map, seed=case.seed)
        report.pop("runtime_ms")
        return report
    j = dejonq.construct(case.map.f, case.map.g, case.n)
    inv, cert = dejonq.inverse(j)
    closed = dejonq.resolution(j)
    oracle = groebner.minimal_free_resolution(list(j.base_forms))
    st = dejonq.structural_checks(j)
    return {
        "case": {"n": j.n, "d": j.d, "seed": case.seed, "f": str(j.f), "g": str(j.g)},
        "inverse": {"f": str(inv.f), "g": str(inv.g)},
        "delta": str(cert.factor),
        "delta_degree": cert.degree,
        "betti": str(closed.betti()),
        "oracle_betti": str(oracle.betti),
        "verify": closed.verify(),
        "structural": {
            "ok": st.ok,
            "saturated": st.saturated,
            "colon_contains_support": st.colon_contains_support,
            "projdim": st.projdim,
            "cm_iff_plane": st.cm_iff_plane,
            "multiplicity": st.multiplicity,
        },
    }


def gate(workload: str, case: Case, verdict: dict) -> list[str]:
    """The exact checks this verdict fails (empty when it passes)."""
    problems = []
    if workload != "certify-q":
        for key in REPORT_VERDICTS:
            if verdict.get(key) != "pass":
                problems.append(f"{key} = {verdict.get(key)!r}")
        if verdict.get("projdim") not in (case.n, case.n + 1):
            problems.append(f"projdim = {verdict.get('projdim')!r} not in "
                            f"{{{case.n}, {case.n + 1}}}")
        return problems
    if verdict["delta_degree"] != case.d ** 2 - 1:
        problems.append(f"deg delta = {verdict['delta_degree']} != {case.d ** 2 - 1}")
    if verdict["betti"] != verdict["oracle_betti"]:
        problems.append(f"closed-form betti {verdict['betti']} != "
                        f"oracle {verdict['oracle_betti']}")
    if not verdict["verify"]:
        problems.append("closed-form resolution fails verify()")
    if not verdict["structural"]["ok"]:
        problems.append("structural_checks not ok")
    return problems


def conjecture_deviation(verdict: dict) -> bool:
    """cm != (d <= n+1): printed as an artifact, never counted as a failure."""
    return bool(verdict.get("conjecture_counterexample"))
