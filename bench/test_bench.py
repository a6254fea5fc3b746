"""Self-test of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Checks that the sweep-light cases are exactly what `jonq explore --jobs 1`
computes, that other seeds keep those maps' supports, that running out of
the run budget skips cases instead of failing them, that tracing does not
change any verdict, that the host-speed samples also come from inside long
cases, and that the wrappers see calls made through names bound in other
modules.
"""

import contextlib
import io
import json
import sys
import time
from contextlib import redirect_stdout

import pytest

import calibration
import run
import tracing
import workloads as wl


@pytest.fixture(scope="module")
def jonq():
    # Reuse an already imported library, so that other test modules in the
    # same session keep seeing the same classes.
    return sys.modules.get("jonq") or wl.import_jonq()


def _first_trials(workload, seed, trials):
    """The workload's cases for trials 0..trials-1 at each grid point."""
    seen: dict = {}
    out = []
    for c in wl.build_cases(workload, seed):
        seen[(c.n, c.d)] = seen.get((c.n, c.d), 0) + 1
        if seen[(c.n, c.d)] <= trials:
            out.append(c)
    return out


def _explore(args) -> list[str]:
    from jonq import cli

    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["explore", *args, "--jobs", "1"]) == 0
    lines = out.getvalue().split("\n\n")[0].splitlines()
    reports = [json.loads(line) for line in lines]
    for rep in reports:
        rep.pop("runtime_ms")
    return [json.dumps(rep, sort_keys=True) for rep in reports]


def test_sweep_light_matches_explore(jonq):
    seed, trials = wl.SUPPORT_SEED, 2
    cases = _first_trials("sweep-light", seed, trials)
    ours = [json.dumps(wl.run_case("sweep-light", c), sort_keys=True) for c in cases]
    common = ["--trials", str(trials), "--seed", str(seed)]
    theirs = (_explore(["--n-range", "2..3", "--d-range", "2..3", *common])
              + _explore(["--n-range", "4", "--d-range", "2", *common]))
    assert len(ours) == 10
    assert sorted(ours) == sorted(theirs)
    assert all(wl.gate("sweep-light", c, json.loads(v)) == [] for c, v in zip(cases, ours))


def test_other_seeds_redraw_coefficients_only(jonq):
    pinned = _first_trials("sweep-light", wl.SUPPORT_SEED, 1)
    redrawn = _first_trials("sweep-light", 7, 1)
    again = _first_trials("sweep-light", 7, 1)
    assert [str(c.map.f) for c in redrawn] == [str(c.map.f) for c in again]
    for a, b in zip(pinned, redrawn):
        assert (a.n, a.d, a.seed) == (b.n, b.d, b.seed)
        for p, q in ((a.map.f, b.map.f), (a.map.g, b.map.g)):
            assert [m for m, _ in p.terms] == [m for m, _ in q.terms]
        assert (a.map.f, a.map.g) != (b.map.f, b.map.g)


def test_budget_skips_instead_of_failing(jonq):
    case = _first_trials("sweep-light", 0, 1)[0]
    past = time.perf_counter() - 1
    assert run.run_case("sweep-light", case, past, contextlib.nullcontext()) is run.SKIPPED
    ok = run.run_case("sweep-light", case, time.perf_counter() + 60,
                      contextlib.nullcontext())
    assert ok.status == "ok"
    assert run.best_of([ok, run.SKIPPED]).status == "ok"
    assert run.best_of([run.SKIPPED, run.SKIPPED]) is run.SKIPPED
    slow = run.Outcome("ok", dict(ok.verdict, theorem="fail"), [], 0.0)
    assert run.best_of([ok, slow]).problems == ["verdicts differ between passes"]


def test_sampler_samples_inside_long_work():
    with calibration.Sampler() as sampler:
        t0, c0 = time.perf_counter(), time.process_time()
        while time.process_time() - c0 < 4 * calibration.TICK_S:
            pass
        t1 = time.perf_counter()
    inside = [when for when, _ in sampler.samples if t0 <= when <= t1]
    assert len(inside) >= 2
    assert 0 < sampler.spent < t1 - t0
    assert sampler.scale(t0, t1) > 0


@pytest.mark.parametrize("workload", ["sweep-light", "certify-q"])
def test_tracing_keeps_verdicts(jonq, workload):
    cases = _first_trials(workload, 5, 1)
    deadline = time.perf_counter() + 120
    plain = run.run_pass(workload, cases, deadline)
    tracer = tracing.Tracer()
    with tracer:
        traced = run.run_pass(workload, cases, deadline, tracer)
    assert [o.status for o in plain + traced] == ["ok"] * (2 * len(cases))
    assert all(o.seconds > 0 and o.wall > 0 for o in plain + traced)
    assert run.digest(plain) == run.digest(traced)
    names = {span[0] for span in tracer.spans}
    if workload == "certify-q":
        assert {"dejonq.structural_checks", "cremona.inversion_certificate"} <= names
        assert not any(name.startswith("rees.") for name in names)


def test_wrappers_see_rebound_names_and_uninstall(jonq):
    from jonq import dejonq, groebner, polycore, rees

    before = (rees.rees_ideal, rees.inverse, groebner.syzygies,
              polycore.Polynomial.__mul__, polycore.Polynomial.__rmul__)
    j = _first_trials("sweep-light", 0, 1)[1].map
    tracer = tracing.Tracer()
    with tracer:
        assert rees.inverse is dejonq.inverse is not before[1]
        assert groebner.syzygies is not before[2]
        with tracer.case_span(0):
            rees.case_report(j, seed=0)
    assert before == (rees.rees_ideal, rees.inverse, groebner.syzygies,
                      polycore.Polynomial.__mul__, polycore.Polynomial.__rmul__)
    spans = tracer.spans
    calls = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    # case_report recomputes the Rees ideal in three of its checks
    assert calls["rees.rees_ideal"] == 3
    # rees binds `inverse` by name; groebner re-exports the resolution layer
    parents = {(spans[p][0] if p is not None else None, name)
               for name, _, _, p, _, _ in spans}
    assert ("rees.specialization_check", "dejonq.inverse") in parents
    assert ("rees.projdim_probe", "resolutions.minimal_free_resolution") in parents
    assert calls["polycore.Polynomial.mul"] > 0
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["rees.rees_ideal.calls_per_case"] == (3.0, "calls/case")
    assert 0 < metrics["resolutions.minimal_generators.kept_ratio"][0] <= 1


def test_metric_names_match_benchmark_json(jonq, capsys):
    spec = json.loads((wl.SRC.parent / "BENCHMARK.json").read_text())
    cases = _first_trials("sweep-light", 1, 1)
    assert run.timed_run("sweep-light", 1, 1, cases, 0.5) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    per_layer = list(tracing.layer_metrics(tracing.Tracer(), 1)) + ["trace.overhead_frac"]
    assert per_layer == [m["name"] for m in spec["per_layer"]]
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
