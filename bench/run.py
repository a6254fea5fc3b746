"""jonq benchmark: closed-loop workloads with an exact correctness gate.

    python3 bench/run.py --workload sweep-light --seed 0 --seconds 24 --trace 0

One process, one caller: each case starts only after the previous one has
finished.  A run sets the workload up several times (fresh import of `jonq`
plus input generation) and reports the median as `setup_s`.  It then makes
round(--seconds / PASS_S) passes over the cases, at least one, each in a
fixed shuffled order, and keeps each case's best time: the minimum filters
out the stretches in which other work on the host slows the process down.
All times are scaled to a reference host speed (see calibration.py).  Every run of a case is checked
exactly (see workloads.gate) and gets a wall-clock cap; a case that raises,
hits its cap, fails a check or gives different verdicts in two passes
counts as failed, and any failure makes the exit code 1.

With `--trace 1` the run makes one untraced pass and then the same pass with
span wrappers installed on every traced `jonq` function, prints the
per-layer metrics and writes the spans to bench/out/ as JSONL.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibration
import tracing
import workloads as wl

SETUPS = 5
OUT_DIR = Path(__file__).resolve().parent / "out"
# Measured time never exceeds this, so that a run ends within 180 s whatever
# the speed of the host.  Cases that the budget leaves no time for are
# "skipped": neither attempted nor failed.  A traced run gives this budget to
# each of its two passes.
RUN_BUDGET_S = 150.0
TRACE_PASS_BUDGET_S = 75.0


class CaseTimeout(BaseException):
    """Raised by SIGALRM when a case reaches its wall-clock cap.

    A BaseException, so that no `except Exception` in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise CaseTimeout()


@dataclass
class Outcome:
    status: str  # "ok", "fail", "timeout", "error" or "skipped"
    verdict: dict | None
    problems: list[str]
    wall: float  # wall seconds; the best over the passes that ran the case
    seconds: float = 0.0  # the same, scaled to the reference host speed
    runs: int = 1


SKIPPED = Outcome("skipped", None, ["run budget exhausted"], 0.0, 0.0, 0)


def run_case(workload: str, case: wl.Case, deadline: float, span) -> Outcome:
    """Run a case once under its cap, or under what is left of the budget.

    A case cut short by the budget, not by its own cap, is skipped.
    """
    left = deadline - perf_counter()
    if left <= 0:
        return SKIPPED
    alarm = min(wl.CAPS[workload], left)
    verdict, problems = None, []
    signal.setitimer(signal.ITIMER_REAL, alarm)
    t0 = perf_counter()
    try:
        with span:
            verdict = wl.run_case(workload, case)
        problems = wl.gate(workload, case, verdict)
        status = "fail" if problems else "ok"
    except CaseTimeout:
        if alarm < wl.CAPS[workload]:
            return SKIPPED
        status, problems = "timeout", [f"hit the {alarm:.0f} s cap"]
    except Exception as exc:  # a crashing case is recorded, the run goes on
        traceback.print_exc(file=sys.stderr)
        status, problems = "error", [f"{type(exc).__name__}: {exc}"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return Outcome(status, verdict, problems, perf_counter() - t0)


def run_pass(workload, cases, deadline, tracer=None, order=None) -> list[Outcome]:
    """One closed-loop pass over the cases, in the given order of indices.

    Returns the outcomes in the order of `cases`.
    """
    order = range(len(cases)) if order is None else order
    got, spans = {}, {}
    with calibration.Sampler() as sampler:
        for k in order:
            spent, t0 = sampler.spent, perf_counter()
            got[k] = run_case(workload, cases[k], deadline,
                              tracer.case_span(k) if tracer else contextlib.nullcontext())
            spans[k] = (t0, perf_counter())
            if got[k] is not SKIPPED:
                got[k].wall -= sampler.spent - spent
            sampler.take()
    for k, o in got.items():
        if o is not SKIPPED:
            o.seconds = o.wall * sampler.scale(*spans[k])
    return [got.get(k, SKIPPED) for k in range(len(cases))]


def shuffled(n: int, pass_index: int) -> list[int]:
    """The same permutation of range(n) for a pass index, whatever the seed.

    Spreading each grid point's cases over the whole pass keeps a burst of
    load on the host from slowing one grid point's cases all at once.
    """
    order = list(range(n))
    random.Random(pass_index).shuffle(order)
    return order


def best_of(runs: list[Outcome]) -> Outcome:
    """One case's outcome over several passes: its best time, or its failure."""
    done = [o for o in runs if o.status != "skipped"]
    if not done:
        return SKIPPED
    bad = [o for o in done if o.status != "ok"]
    if bad:
        return Outcome(bad[0].status, bad[0].verdict, bad[0].problems,
                       bad[0].wall, bad[0].seconds, len(done))
    if any(o.verdict != done[0].verdict for o in done):
        return Outcome("fail", done[0].verdict, ["verdicts differ between passes"],
                       done[0].wall, done[0].seconds, len(done))
    return Outcome("ok", done[0].verdict, [], min(o.wall for o in done),
                   min(o.seconds for o in done), len(done))


def digest(outcomes) -> str:
    canon = json.dumps([o.verdict for o in outcomes], sort_keys=True)
    return "sha256:" + hashlib.sha256(canon.encode()).hexdigest()


def report_failures(cases, outcomes, label=""):
    for case, o in zip(cases, outcomes):
        if o.status != "ok":
            tag = "SKIPPED" if o.status == "skipped" else "FAILED"
            print(f"{tag}{label} ({case.n},{case.d}) seed {case.seed} "
                  f"[{o.status}]: {'; '.join(o.problems)}")


def print_artifacts(cases, outcomes):
    for case, o in zip(cases, outcomes):
        if o.verdict is not None and wl.conjecture_deviation(o.verdict):
            art = {k: o.verdict[k] for k in ("case", "projdim", "cm",
                                             "conjecture_expected_cm")}
            print(f"artifact: conjecture deviation {json.dumps(art, sort_keys=True)}")


def describe(workload, seed, cases):
    counts: dict[tuple[int, int], int] = {}
    for c in cases:
        counts[(c.n, c.d)] = counts.get((c.n, c.d), 0) + 1
    grid = " ".join(f"({n},{d})x{k}" for (n, d), k in counts.items())
    print(f"workload {workload}  seed {seed}  grid {grid}  "
          f"cap {wl.CAPS[workload]:.0f} s/case")


def tail(times_sorted):
    """Highest percentile of the case times with at least ten cases beyond it."""
    n = len(times_sorted)
    if n <= 10:
        return times_sorted[-1], f"slowest case: only {n} cases"
    return times_sorted[n - 11], f"p{100 * (n - 10) / n:.1f}, 10 of {n} cases beyond"


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def timed_run(workload, seed, seconds, cases, setup_s) -> int:
    # depends only on the arguments, never on the speed of the code under test
    passes = max(1, round(seconds / wl.PASS_S[workload]))
    deadline = perf_counter() + RUN_BUDGET_S
    t0 = perf_counter()
    by_pass = [run_pass(workload, cases, deadline, order=shuffled(len(cases), k))
               for k in range(passes)]
    wall = perf_counter() - t0
    outcomes = [best_of(list(runs)) for runs in zip(*by_pass)]
    done = [o for o in outcomes if o.status != "skipped"]
    if not done:
        print("FAILED: the run budget left no time for any case")
        return 1
    attempted = len(done)
    failed = sum(o.status != "ok" for o in done)
    times = sorted(o.seconds for o in done)
    busy = sum(times)
    busy_wall = sum(o.wall for o in done)
    p50_ms = statistics.median(times) * 1000
    tail_s, tail_note = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "cases_per_s": (attempted / busy, "1/s"),
        "case_p50_ms": (p50_ms, "ms"),
        "case_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    describe(workload, seed, cases)
    report_failures(cases, outcomes)
    print_artifacts(cases, outcomes)
    runs = sum(o.runs for o in done)
    print(f"  setup_s       {setup_s:12.4f} s      median of {SETUPS} set-ups")
    print(f"  cases_per_s   {attempted / busy:12.4f} 1/s    "
          f"{attempted} cases, best of {passes} pass(es): {busy:.2f} s at reference "
          f"speed, {busy_wall:.2f} s wall ({runs} runs in {wall:.2f} s)")
    print(f"  case_p50_ms   {p50_ms:12.2f} ms     {attempted} cases")
    print(f"  case_tail_ms  {tail_s * 1000:12.2f} ms     {tail_note}")
    print(f"  failed_frac   {failed / attempted:12.4f} ratio  "
          f"{failed} of {attempted} cases")
    print(f"  peak_rss_mb   {rss_mb:12.2f} MB")
    print(f"  verdicts      {digest(outcomes)}")
    emit(failed == 0, attempted, failed, metrics)
    return 0 if failed == 0 else 1


def traced_run(workload, seed, cases) -> int:
    plain = run_pass(workload, cases, perf_counter() + TRACE_PASS_BUDGET_S)
    tracer = tracing.Tracer()
    with tracer:
        traced = run_pass(workload, cases, perf_counter() + TRACE_PASS_BUDGET_S, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write_jsonl(trace_path)
    both = [(p, t) for p, t in zip(plain, traced)
            if "skipped" not in (p.status, t.status)]
    done = [o for o in plain + traced if o.status != "skipped"]
    if not both:
        print("FAILED: the run budget left no time for any case")
        return 1
    metrics = tracing.layer_metrics(tracer, sum(t.status != "skipped" for t in traced))
    plain_s = sum(p.seconds for p, _ in both)
    traced_s = sum(t.seconds for _, t in both)
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    attempted = len(done)
    failed = sum(o.status != "ok" for o in done)
    same = [p.verdict for p, _ in both] == [t.verdict for _, t in both]
    describe(workload, seed, cases)
    report_failures(cases, plain, " (untraced)")
    report_failures(cases, traced, " (traced)")
    if not same:
        print("FAILED: traced verdicts differ from untraced verdicts")
    print(f"  {len(both)} cases at reference speed: untraced {plain_s:.2f} s, "
          f"traced {traced_s:.2f} s, "
          f"{len(tracer.spans)} spans in {trace_path.relative_to(OUT_DIR.parent.parent)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:52} {value:14.6g} {unit}")
    print(f"  verdicts {digest(plain)}")
    correct = failed == 0 and same
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def setup(workload: str, seed: int):
    """Import jonq fresh and build the inputs SETUPS times.

    Returns the cases and the median set-up time at reference speed.
    """
    spans = []
    with calibration.Sampler() as sampler:
        for _ in range(SETUPS):
            spent, t0 = sampler.spent, perf_counter()
            wl.import_jonq()
            cases = wl.build_cases(workload, seed)
            spans.append((t0, perf_counter(), sampler.spent - spent))
            sampler.take()
    return cases, statistics.median((t1 - t0 - paused) * sampler.scale(t0, t1)
                                    for t0, t1, paused in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="make round(SECONDS / PASS_S) passes, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cases, setup_s = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import jonq from this checkout: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.trace:
        return traced_run(args.workload, args.seed, cases)
    return timed_run(args.workload, args.seed, args.seconds, cases, setup_s)


if __name__ == "__main__":
    sys.exit(main())
