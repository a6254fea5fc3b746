"""Batch front end: validate maps from case files, run checks, emit reports.

Case files are UTF-8 text with `key: value` lines (# starts a comment):

    n: 2
    d: 2
    field: rational          # or: fp, fp 101
    f: x3
    g: x1^2 - x2*x3
    seed: 7                  # optional
    checks: theorem,colon    # optional, for the rees subcommand

Any other key, or a key given twice, is a parse error.
Exit codes: 0 success, 1 parse error, 2 rejected map, 3 computation error
or failed check.  `explore` exits 3 when some report fails a check or some
case raises a computation error, else 2 when some case has no map (none
exists at n = 1, d >= 3; `random_map` draws none over GF(2) at d = 2): such
cases become records with an `error` or a `rejected` reason, and the other
reports and the summary table are still printed.  A modulus that is no
prime is an error for the whole sweep (exit 3, nothing printed to stdout),
as it is for a single case.
Single-case subcommands print readable text (or JSON with --json); sweeps
write one JSON line per case followed by a summary table.  The prime used
for `fp` fields comes from, in order: the case file, --modulus, the
JONQ_MODULUS environment variable, 32003.  --modulus on a `field: rational`
case file is a parse error; JONQ_MODULUS does not apply to such files.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import dejonq, groebner, rees
from .dejonq import ConstructionError
from .polycore import JonqError, ParseError, parse_polynomial

DEFAULT_MODULUS = 32003
_CASE_KEYS = ("n", "d", "field", "f", "g", "seed", "checks")


class CaseFileError(ParseError):
    pass


def _parse_checks(text: str) -> tuple[str, ...]:
    """Comma list of report checks; empty entries are dropped."""
    checks = tuple(c.strip() for c in text.split(",") if c.strip())
    unknown = [c for c in checks if c not in rees.REPORT_CHECKS]
    if unknown:
        raise CaseFileError(f"unknown checks: {', '.join(unknown)}")
    return checks


@dataclass
class CaseFile:
    n: int
    d: int
    field: str
    modulus: int | None
    f_text: str
    g_text: str
    seed: int | None
    checks: tuple[str, ...] | None


def parse_case_file(text: str) -> CaseFile:
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise CaseFileError(f"line {lineno}: expected 'key: value'")
        key, value = line.split(":", 1)
        key = key.strip().lower()
        if key not in _CASE_KEYS:
            raise CaseFileError(f"line {lineno}: unknown key {key!r}")
        if key in data:
            raise CaseFileError(f"line {lineno}: duplicate key {key!r}")
        data[key] = value.strip()
    for required in ("n", "d", "f", "g"):
        if required not in data:
            raise CaseFileError(f"missing required key {required!r}")
    try:
        n = int(data["n"])
        d = int(data["d"])
    except ValueError as exc:
        raise CaseFileError(f"bad integer: {exc}") from None
    field = data.get("field", "fp").lower()
    modulus: int | None = None
    if field in ("rational", "qq", "q"):
        field = "rational"
    else:
        parts = field.replace("fp", "").replace("gf", "").strip("() ").strip()
        field = "fp"
        if parts:
            try:
                modulus = int(parts)
            except ValueError:
                raise CaseFileError(f"bad field spec {data['field']!r}") from None
    seed = None
    if "seed" in data:
        try:
            seed = int(data["seed"])
        except ValueError:
            raise CaseFileError(f"bad seed {data['seed']!r}") from None
    checks = None
    if "checks" in data:
        checks = _parse_checks(data["checks"])
    return CaseFile(n=n, d=d, field=field, modulus=modulus,
                    f_text=data["f"], g_text=data["g"], seed=seed, checks=checks)


def _env_modulus() -> int:
    """The JONQ_MODULUS environment variable, or DEFAULT_MODULUS when unset."""
    env = os.environ.get("JONQ_MODULUS")
    if not env:
        return DEFAULT_MODULUS
    try:
        return int(env)
    except ValueError:
        raise CaseFileError(f"bad JONQ_MODULUS value {env!r}") from None


def _effective_modulus(case: CaseFile, args) -> int | None:
    """None over Q; else the case file's prime, --modulus, JONQ_MODULUS or 32003.

    An explicit --modulus on a `field: rational` case file is an error, not
    ignored; JONQ_MODULUS is only a default for `fp` files.
    """
    if case.field == "rational":
        if args.modulus is not None:
            raise CaseFileError(f"--modulus {args.modulus} given for a field: rational case file")
        return None
    if case.modulus is not None:
        return case.modulus
    if args.modulus is not None:
        return args.modulus
    return _env_modulus()


def load_map(path: str, args) -> tuple[dejonq.DeJonquieresMap, CaseFile]:
    with open(path, encoding="utf-8") as fh:
        case = parse_case_file(fh.read())
    modulus = _effective_modulus(case, args)
    ring = dejonq.source_ring(case.n, modulus)
    forms = {}
    for name, text in (("f", case.f_text), ("g", case.g_text)):
        try:
            forms[name] = parse_polynomial(text, ring)
        except ParseError as exc:
            raise ParseError(f"{name}: {exc}") from None
    j = dejonq.construct(forms["f"], forms["g"], case.n)
    if j.d != case.d:
        raise ConstructionError(f"declared d = {case.d} but parsed degree is {j.d}")
    return j, case


def _print_json(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def cmd_validate(args) -> int:
    j, case = load_map(args.file, args)
    if args.json:
        _print_json({"accepted": True, "n": j.n, "d": j.d,
                     "f": str(j.f), "g": str(j.g),
                     "base_ideal": [str(p) for p in j.base_forms],
                     "modulus": j.source.modulus})
    else:
        print(f"accepted: n={j.n} d={j.d}")
        print(f"  f = {j.f}")
        print(f"  g = {j.g}")
        print("  base ideal: " + ", ".join(str(p) for p in j.base_forms))
    return 0


def cmd_invert(args) -> int:
    j, case = load_map(args.file, args)
    inv, cert = dejonq.inverse(j)
    if args.json:
        _print_json({"inverse": [str(p) for p in inv.base_forms],
                     "f": str(inv.f), "g": str(inv.g),
                     "delta": str(cert.factor), "delta_degree": cert.degree,
                     "modulus": j.source.modulus})
    else:
        print("inverse: (" + " : ".join(str(p) for p in inv.base_forms) + ")")
        print(f"delta = {cert.factor}")
        print(f"deg delta = {cert.degree} (d^2 - 1 = {j.d ** 2 - 1})")
    return 0


def cmd_downgrade(args) -> int:
    j, case = load_map(args.file, args)
    seq = dejonq.downgraded_sequence(j)
    if args.json:
        _print_json({"q": [str(p) for p in seq.q],
                     "forms": [str(p) for p in seq.forms],
                     "bidegrees": [list(p.bidegree()) for p in seq.forms],
                     "modulus": j.source.modulus})
    else:
        print("q-decomposition: (" + ", ".join(str(p) for p in seq.q) + ")")
        for i, p in enumerate(seq.forms):
            print(f"F_{i} (bidegree {p.bidegree()}): {p}")
    return 0


def cmd_resolve(args) -> int:
    j, case = load_map(args.file, args)
    fc = dejonq.resolution(j)
    betti = fc.betti()
    oracle = groebner.minimal_free_resolution(list(j.base_forms))
    agree = betti == oracle.betti
    if args.json:
        _print_json({"betti_ranks": list(betti.ranks()),
                     "shifts": [sorted(dict(row).items()) for row in betti.rows],
                     "matches_groebner": agree,
                     "modulus": j.source.modulus})
    else:
        print("betti:  " + " | ".join(str(r) for r in betti.ranks()))
        print("shifts: " + str(betti))
        print(f"groebner oracle agrees: {agree}")
    return 0 if agree else 3


def cmd_rees(args) -> int:
    j, case = load_map(args.file, args)
    checks = case.checks or rees.REPORT_CHECKS
    if args.checks:
        checks = _parse_checks(args.checks)
    report = rees.case_report(j, seed=case.seed, checks=checks)
    _print_json(report)
    return 3 if _failed(report) else 0


def _failed(report: dict) -> bool:
    return "skipped" in report or any(report.get(k) == "fail" for k in rees.VERDICT_KEYS)


def _parse_range(text: str, least: int) -> tuple[int, int]:
    """'lo..hi' or a single integer, as an inclusive (lo, hi) with least <= lo <= hi."""
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise CaseFileError(f"bad range {text!r}") from None
    if lo > hi:
        raise CaseFileError(f"empty range {text!r}")
    if lo < least:
        raise CaseFileError(f"range {text!r} starts below {least}")
    return lo, hi


def _explore_case(task):
    n, d, trial, case_seed, modulus, checks = task
    case = {"n": n, "d": d, "seed": case_seed}
    try:
        j = dejonq.random_map(n, d, random.Random(case_seed), modulus)
    except JonqError as exc:
        return {"case": case, "modulus": modulus, "rejected": str(exc)}
    try:
        return rees.case_report(j, seed=case_seed, checks=checks)
    except JonqError as exc:
        case.update(f=str(j.f), g=str(j.g))
        return {"case": case, "modulus": modulus, "error": str(exc)}


def cmd_explore(args) -> int:
    n_lo, n_hi = _parse_range(args.n_range, 1)
    d_lo, d_hi = _parse_range(args.d_range, 2)
    if args.trials < 1:
        raise CaseFileError(f"--trials must be at least 1, got {args.trials}")
    if args.jobs < 1:
        raise CaseFileError(f"--jobs must be at least 1, got {args.jobs}")
    modulus = args.modulus if args.modulus is not None else _env_modulus()
    dejonq.source_ring(n_lo, modulus)  # a modulus that is no prime fails here, not per case
    checks = _parse_checks(args.checks) if args.checks else rees.REPORT_CHECKS
    tasks = []
    for n in range(n_lo, n_hi + 1):
        for d in range(d_lo, d_hi + 1):
            for trial in range(args.trials):
                case_seed = args.seed * 1_000_003 + n * 10_007 + d * 101 + trial
                tasks.append((n, d, trial, case_seed, modulus, checks))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            reports = list(pool.map(_explore_case, tasks))
    else:
        reports = [_explore_case(t) for t in tasks]
    reports.sort(key=lambda r: (r["case"]["n"], r["case"]["d"], r["case"]["seed"]))
    for rep in reports:
        print(json.dumps(rep, sort_keys=True))
    summary: dict[tuple[int, int], list[int]] = {}
    for rep in reports:
        key = (rep["case"]["n"], rep["case"]["d"])
        row = summary.setdefault(key, [0, 0, 0])
        if rep.get("cm") is True:
            row[0] += 1
        elif rep.get("cm") is False:
            row[1] += 1
        if rep.get("conjecture_counterexample"):
            row[2] += 1
    print()
    print(f"{'n':>3} {'d':>3} {'cm':>4} {'non-cm':>7} {'counterexamples':>16}")
    for (n, d), (cm, noncm, cx) in sorted(summary.items()):
        print(f"{n:>3} {d:>3} {cm:>4} {noncm:>7} {cx:>16}")
    if any(_failed(rep) or "error" in rep for rep in reports):
        return 3
    return 2 if any("rejected" in rep for rep in reports) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jonq",
        description="Generalized de Jonquieres transformations: validation, "
                    "inverses, downgraded sequences, resolutions, blowup checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_case_command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="case file path")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--modulus", type=int, default=None,
                       help="prime for 'fp' case files without an explicit one")
        p.set_defaults(func=func)
        return p

    add_case_command("validate", cmd_validate, "check the de Jonquieres conditions")
    add_case_command("invert", cmd_invert, "certified inverse map and inversion factor")
    add_case_command("downgrade", cmd_downgrade, "q-decomposition and downgraded forms")
    add_case_command("resolve", cmd_resolve, "closed-form resolution vs Groebner oracle")
    p_rees = add_case_command("rees", cmd_rees, "blowup presentation ideal checks (JSON)")
    p_rees.add_argument("--checks", default=None,
                        help="comma list from: " + ",".join(rees.REPORT_CHECKS))

    p_explore = sub.add_parser("explore", help="random sweep over an (n, d) grid")
    p_explore.add_argument("--n-range", required=True, help="e.g. 2..3 or 2")
    p_explore.add_argument("--d-range", required=True, help="e.g. 2..4 or 3")
    p_explore.add_argument("--trials", type=int, default=5, help="random maps per grid point")
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.add_argument("--modulus", type=int, default=None)
    p_explore.add_argument("--checks", default=None,
                           help="comma list from: " + ",".join(rees.REPORT_CHECKS))
    p_explore.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_explore.set_defaults(func=cmd_explore)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ConstructionError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except (JonqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
