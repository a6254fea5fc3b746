"""Command line front end: case files, exit codes, reports, determinism."""

import json
from types import SimpleNamespace

import pytest

from jonq import rees
from jonq.cli import main, parse_case_file, CaseFileError
from jonq.polycore import JonqError

E1_CASE = """\
# plane map of degree 2
n: 2
d: 2
field: rational
f: x3
g: x1^2 - x2*x3
"""

E2_CASE = """\
n: 3
d: 2
field: rational
f: x4
g: x1*x2 - x3*x4
"""


E3_CASE = """\
n: 2
d: 3
field: rational
f: x1*x3 + x2^2
g: x1^2*x3 + x2^3
"""

# fractional and negative coefficients: integral ones are ints over Q, the
# others Fractions, and every printed form is as with Fractions alone
RATIONAL_CASE = """\
n: 2
d: 3
field: rational
f: -3*x1*x3 + 2/3*x2^2
g: x1^2*x3 - 5*x2^3
"""


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.jonq"
    path.write_text(E1_CASE)
    return str(path)


@pytest.fixture
def e2_file(tmp_path):
    path = tmp_path / "e2.jonq"
    path.write_text(E2_CASE)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- case file parsing ----------

def test_parse_case_file_full():
    case = parse_case_file("n: 2\nd: 3\nfield: fp 101\nf: x3\ng: x1^3\nseed: 4\n"
                           "checks: theorem,colon\n")
    assert (case.n, case.d, case.field, case.modulus) == (2, 3, "fp", 101)
    assert case.seed == 4
    assert case.checks == ("theorem", "colon")


def test_parse_case_file_errors():
    with pytest.raises(CaseFileError):
        parse_case_file("n: 2\nd: 2\nf: x3\n")  # missing g
    with pytest.raises(CaseFileError):
        parse_case_file("n: two\nd: 2\nf: x3\ng: x1^2\n")
    with pytest.raises(CaseFileError):
        parse_case_file("n: 2\nd: 2\nf: x3\ng: x1^2\nchecks: bogus\n")


@pytest.mark.parametrize("text, message", [
    # a misspelt key must not leave the case on the default field
    ("n: 2\nd: 2\nfielf: rational\nf: x3\ng: x1^2\n", "line 3: unknown key 'fielf'"),
    # a repeated key must not silently replace the first one
    ("n: 2\nd: 2\nf: x3\nf: x1\ng: x1^2\n", "line 4: duplicate key 'f'"),
    ("n: 2\nd: 2\nf: x3\ng: x1^2\nSeed: 1\nseed: 2\n", "line 6: duplicate key 'seed'"),
])
def test_parse_case_file_rejects_unknown_and_duplicate_keys(tmp_path, capsys, text, message):
    with pytest.raises(CaseFileError, match=f"^{message}$"):
        parse_case_file(text)
    path = tmp_path / "keys.jonq"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (1, "", f"parse error: {message}\n")


# ---------- validate ----------

def test_validate_accepts(e1_file, capsys):
    code, out, _ = run(capsys, "validate", e1_file)
    assert code == 0
    assert "accepted" in out and "x1*x3" in out


def test_validate_rejects_common_factor(tmp_path, capsys):
    path = tmp_path / "bad.jonq"
    path.write_text("n: 2\nd: 2\nfield: rational\nf: x3\ng: x3^2\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "gcd" in err


def test_validate_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "malformed.jonq"
    path.write_text("n: 2\nd: 2\nfield: rational\nf: x1^^2\ng: x1^2\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert err == "parse error: f: expected integer exponent after '^' at position 3\n"


def test_validate_rejects_coefficient_undefined_mod_p(tmp_path, capsys):
    # 1/101 has no image in GF(101); it must not silently become 0
    path = tmp_path / "fp.jonq"
    path.write_text("n: 2\nd: 2\nfield: fp 101\nf: x3\ng: x1^2 - 1/101*x2*x3\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and not out
    assert err == "parse error: g: coefficient -1/101 is undefined over GF(101) at position 7\n"


def test_validate_degree_mismatch(tmp_path, capsys):
    path = tmp_path / "mismatch.jonq"
    path.write_text("n: 2\nd: 3\nfield: rational\nf: x3\ng: x1^2 - x2*x3\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "declared d = 3" in err


# ---------- invert / downgrade / resolve ----------

def test_invert_e2(e2_file, capsys):
    code, out, _ = run(capsys, "invert", e2_file)
    assert code == 0
    assert "delta = x1*x2*x4" in out
    assert "y1*y2" in out


def test_invert_and_resolve_a_rational_case(tmp_path, capsys):
    path = tmp_path / "rational.jonq"
    path.write_text(RATIONAL_CASE)
    code, out, _ = run(capsys, "invert", str(path))
    assert code == 0
    assert ("delta = -8/27*x1^2*x2^6 + 20/3*x1*x2^7 + 8/3*x1^3*x2^4*x3 - 60*x1^2*x2^5*x3"
            " - 6*x1^4*x2^2*x3^2 + 135*x1^3*x2^3*x3^2") in out.splitlines()
    code, out, _ = run(capsys, "resolve", str(path))
    assert code == 0
    assert {"shifts: 0 | 3^3 | 4,5", "groebner oracle agrees: True"} <= set(out.splitlines())


def test_invert_json_round_trips(e1_file, capsys):
    code, out, _ = run(capsys, "invert", e1_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == "x1^2*x3"
    assert payload["delta_degree"] == 3
    # every printed polynomial re-parses to an equal polynomial
    from jonq import dejonq
    from jonq.polycore import parse_polynomial
    ring = dejonq.target_ring(2)
    inv_forms = [parse_polynomial(s, ring) for s in payload["inverse"]]
    assert [str(p) for p in inv_forms] == payload["inverse"]


def test_downgrade_e1(e1_file, capsys):
    code, out, _ = run(capsys, "downgrade", e1_file)
    assert code == 0
    assert "q-decomposition" in out
    assert "F_0" in out


def test_resolve_e1(e1_file, capsys):
    code, out, _ = run(capsys, "resolve", e1_file)
    assert code == 0
    assert "1 | 3 | 2" in out
    assert "2^3" in out and "3^2" in out
    assert "agrees: True" in out


def test_downgrade_and_resolve_json_e3(tmp_path, capsys):
    path = tmp_path / "e3.jonq"
    path.write_text(E3_CASE)
    code, out, _ = run(capsys, "downgrade", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {
        "bidegrees": [[2, 1], [1, 2]],
        "forms": ["-x1*x3*y1 - x2^2*y2 + x2^2*y3 + x1*x3*y3",
                  "-x3*y1^2 - x2*y2^2 + x3*y1*y3 + x2*y2*y3"],
        "modulus": None, "q": ["x1*x3", "x2^2"]}
    code, out, _ = run(capsys, "resolve", str(path), "--json")
    assert code == 0
    assert json.loads(out) == {
        "betti_ranks": [1, 3, 2], "matches_groebner": True, "modulus": None,
        "shifts": [[[0, 1]], [[3, 3]], [[4, 1], [5, 1]]]}


# ---------- rees ----------

def test_rees_report(e1_file, capsys):
    code, out, _ = run(capsys, "rees", e1_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "pass"
    assert payload["colon"] == "pass"
    assert payload["cone_hilbert"] == "pass"
    assert payload["projdim"] == 2
    assert payload["cm"] is True
    assert "runtime_ms" in payload


def test_rees_selected_checks(e1_file, capsys):
    code, out, _ = run(capsys, "rees", e1_file, "--checks", "theorem")
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "pass"
    assert "projdim" not in payload


# ---------- explore ----------

def _json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def test_explore_two_cases(capsys):
    code, out, _ = run(capsys, "explore", "--n-range", "2..2", "--d-range", "2..3",
                       "--trials", "1", "--seed", "7")
    assert code == 0
    lines = _json_lines(out)
    assert len(lines) == 2
    assert all(rep["cm"] is True for rep in lines)
    assert "non-cm" in out  # summary table


def test_explore_deterministic(capsys):
    args = ("explore", "--n-range", "2..2", "--d-range", "2..2",
            "--trials", "2", "--seed", "11", "--checks", "theorem,projdim")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0

    def strip(out):
        rows = []
        for rep in _json_lines(out):
            rep.pop("runtime_ms", None)
            rows.append(json.dumps(rep, sort_keys=True))
        return rows
    assert strip(out1) == strip(out2)


def test_rees_report_deterministic(tmp_path, capsys):
    path = tmp_path / "seeded.jonq"
    path.write_text("n: 2\nd: 3\nfield: fp\nf: x1^2 + x2*x3\ng: x1^3 + x2^3 + x2^2*x3\n"
                    "seed: 12\n")
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "rees", str(path))
        assert code == 0
        rep = json.loads(out)
        rep.pop("runtime_ms")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_explore_seed_echoed(capsys):
    code, out, _ = run(capsys, "explore", "--n-range", "2..2", "--d-range", "2..2",
                       "--trials", "1", "--seed", "3", "--checks", "projdim")
    assert code == 0
    rep = _json_lines(out)[0]
    assert rep["case"]["seed"] is not None
    assert rep["modulus"] == 32003


def test_modulus_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "fp.jonq"
    path.write_text("n: 2\nd: 2\nfield: fp\nf: x3\ng: x1^2 - x2*x3\n")
    monkeypatch.setenv("JONQ_MODULUS", "101")
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 0
    assert json.loads(out)["modulus"] == 101


@pytest.mark.parametrize("bad", ["a..b", "3..2", "3..", "x", "0", "0..2"])
def test_explore_bad_range_is_parse_error(capsys, bad):
    code, out, err = run(capsys, "explore", "--n-range", bad, "--d-range", "2",
                         "--trials", "1")
    assert code == 1
    assert err.startswith("parse error:") and "Traceback" not in err
    assert out == ""


def test_explore_checks_ignore_empty_entries(capsys):
    args = ("explore", "--n-range", "2", "--d-range", "2", "--trials", "1")
    code, out, _ = run(capsys, *args, "--checks", "theorem,")
    assert code == 0
    rep = _json_lines(out)[0]
    assert rep["theorem"] == "pass" and "cm" not in rep
    code, _, err = run(capsys, *args, "--checks", "theorem,bogus")
    assert code == 1 and "unknown checks: bogus" in err


@pytest.mark.parametrize("args", [("--d-range", "1", "--trials", "1"),
                                  ("--d-range", "2", "--trials", "0"),
                                  ("--d-range", "2", "--trials", "-1")])
def test_explore_impossible_degree_or_trials_is_parse_error(capsys, args):
    code, out, err = run(capsys, "explore", "--n-range", "2", *args)
    assert code == 1
    assert err.startswith("parse error:") and "Traceback" not in err
    assert out == ""


def test_explore_modulus_env(capsys, monkeypatch):
    monkeypatch.setenv("JONQ_MODULUS", "101")
    code, out, _ = run(capsys, "explore", "--n-range", "2", "--d-range", "2",
                       "--trials", "1", "--checks", "theorem")
    assert code == 0
    assert _json_lines(out)[0]["modulus"] == 101


@pytest.mark.parametrize("command", ["validate", "explore"])
def test_bad_modulus_env_is_parse_error(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "fp.jonq"
    path.write_text("n: 2\nd: 2\nfield: fp\nf: x3\ng: x1^2 - x2*x3\n")
    monkeypatch.setenv("JONQ_MODULUS", "p101")
    argv = ([command, str(path)] if command == "validate"
            else [command, "--n-range", "2", "--d-range", "2", "--trials", "1"])
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "parse error: bad JONQ_MODULUS value 'p101'\n"


def test_modulus_flag_zero_is_not_replaced_by_default(tmp_path, capsys):
    path = tmp_path / "fp.jonq"
    path.write_text("n: 2\nd: 2\nfield: fp\nf: x3\ng: x1^2 - x2*x3\n")
    code, out, err = run(capsys, "validate", str(path), "--modulus", "0", "--json")
    assert code == 3 and out == ""
    assert err == "error: modulus 0 is not prime\n"
    code, out, _ = run(capsys, "validate", str(path), "--modulus", "101", "--json")
    assert code == 0
    assert json.loads(out)["modulus"] == 101


def test_modulus_flag_on_a_rational_case_is_parse_error(e1_file, capsys, monkeypatch):
    code, out, err = run(capsys, "validate", e1_file, "--modulus", "32004")
    assert code == 1 and out == ""
    assert err == "parse error: --modulus 32004 given for a field: rational case file\n"
    # JONQ_MODULUS is only a default for fp case files: a rational one ignores it
    monkeypatch.setenv("JONQ_MODULUS", "32004")
    code, out, err = run(capsys, "validate", e1_file, "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["modulus"] is None

def test_validate_rejects_a_strong_pseudoprime_modulus(tmp_path, capsys):
    # 399165290221 * 798330580441 passes Miller-Rabin for every base 2..37
    path = tmp_path / "fp.jonq"
    path.write_text("n: 2\nd: 2\nfield: fp\nf: x3\ng: x1^2 - x2*x3\n")
    code, out, err = run(capsys, "validate", str(path), "--modulus", "318665857834031151167461")
    assert code == 3 and out == ""
    assert err == "error: modulus 318665857834031151167461 is not prime\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_explore_jobs_below_one_is_parse_error(capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        pytest.fail("a worker pool was started")

    monkeypatch.setattr("jonq.cli.ProcessPoolExecutor", no_pool)
    code, out, err = run(capsys, "explore", "--n-range", "2", "--d-range", "2",
                         "--trials", "1", "--jobs", jobs)
    assert code == 1 and out == ""
    assert err == f"parse error: --jobs must be at least 1, got {jobs}\n"


@pytest.mark.parametrize("jobs, trials, workers", [("8", "1", 1), ("2", "3", 2)])
def test_explore_pool_has_no_more_workers_than_tasks(capsys, monkeypatch, jobs, trials,
                                                     workers):
    # a fork pool launches every worker at the first submit, so --jobs is
    # capped by the number of cases; the fake pool maps serially
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("jonq.cli.ProcessPoolExecutor", SerialPool)
    code, out, err = run(capsys, "explore", "--n-range", "2", "--d-range", "2",
                         "--trials", trials, "--jobs", jobs)
    assert seen == [workers]
    assert code == 0 and err == ""
    assert len(_json_lines(out)) == int(trials)


def test_explore_n1_reports_failed_specialization(capsys):
    # I = x1 (x1, x2) has depth 0, so no linear form is regular on R/I
    code, out, err = run(capsys, "explore", "--n-range", "1", "--d-range", "2",
                         "--trials", "3")
    assert code == 3 and err == ""
    lines = _json_lines(out)
    assert len(lines) == 3
    assert all(rep["special"] == "fail" and rep["case"]["n"] == 1 for rep in lines)


def test_explore_failed_check_exits_3(capsys, monkeypatch):
    # a failed verdict outranks a rejected grid point: both give exit 3
    monkeypatch.setattr(rees, "verify_main_theorem", lambda j: SimpleNamespace(ok=False))
    code, out, err = run(capsys, "explore", "--n-range", "2", "--d-range", "2",
                         "--trials", "1", "--checks", "theorem", "--jobs", "1")
    assert code == 3 and err == ""
    assert [rep["theorem"] for rep in _json_lines(out)] == ["fail"]
    code, out, err = run(capsys, "explore", "--n-range", "1..2", "--d-range", "2..3",
                         "--trials", "1", "--checks", "theorem", "--jobs", "1")
    assert code == 3 and err == ""
    lines = _json_lines(out)
    assert "rejected" in lines[1]
    assert all(rep["theorem"] == "fail" for k, rep in enumerate(lines) if k != 1)


def test_explore_uncertified_j_exits_3(capsys, monkeypatch):
    # a chain cut to the minors P_0 is not J: projdim is skipped, which is
    # a failure even when the theorem check is not run
    real = rees.chain
    monkeypatch.setattr(rees, "chain", lambda j: real(j)[:1])
    code, out, err = run(capsys, "explore", "--n-range", "2", "--d-range", "2",
                         "--trials", "1", "--checks", "projdim", "--jobs", "1")
    assert code == 3 and err == ""
    [rep] = _json_lines(out)
    assert rep["skipped"] == "J not certified" and "projdim" not in rep


def test_explore_records_a_case_that_raises(capsys, monkeypatch):
    # the second of four cases raises: it becomes an `error` record, the
    # other three reports and the summary are still printed, and the exit is 3
    probe, calls = rees.projdim_probe, []

    def flaky(j):
        calls.append(j)
        if len(calls) == 2:
            raise JonqError("no linear form is regular")
        return probe(j)

    monkeypatch.setattr(rees, "projdim_probe", flaky)
    code, out, err = run(capsys, "explore", "--n-range", "2", "--d-range", "2..3",
                         "--trials", "2", "--checks", "projdim", "--jobs", "1")
    assert code == 3 and err == ""
    lines = _json_lines(out)
    assert len(lines) == 4
    failed = lines[1]
    assert set(failed) == {"case", "modulus", "error"}
    assert set(failed["case"]) == {"n", "d", "seed", "f", "g"}
    assert failed["case"]["f"] == str(calls[1].f)
    assert (failed["modulus"], failed["error"]) == (32003, "no linear form is regular")
    assert all(rep["projdim"] == 2 for k, rep in enumerate(lines) if k != 1)
    assert "non-cm" in out


def test_explore_counts_a_conjecture_counterexample(capsys, monkeypatch):
    # a map at d <= n + 1 with projdim n + 1 is not CM, against the conjecture
    monkeypatch.setattr(rees, "projdim_probe", lambda j: j.n + 1)
    code, out, err = run(capsys, "explore", "--n-range", "2", "--d-range", "2",
                         "--trials", "1", "--checks", "projdim", "--jobs", "1")
    assert code == 0 and err == ""
    [report] = _json_lines(out)
    assert (report["projdim"], report["cm"]) == (3, False)
    assert report["conjecture_counterexample"] is True
    assert out.splitlines()[-1].split() == ["2", "2", "0", "1", "1"]


def test_explore_records_grid_points_without_valid_maps(capsys):
    # n = 1, d = 3 has no valid map: that point becomes a record, the rest run
    code, out, err = run(capsys, "explore", "--n-range", "1..2", "--d-range", "2..3",
                         "--trials", "1", "--checks", "theorem")
    assert code == 2 and err == ""
    lines = _json_lines(out)
    assert [(rep["case"]["n"], rep["case"]["d"]) for rep in lines] == [
        (1, 2), (1, 3), (2, 2), (2, 3)]
    rejected = lines[1]
    assert set(rejected) == {"case", "modulus", "rejected"}
    assert set(rejected["case"]) == {"n", "d", "seed"}
    assert rejected["modulus"] == 32003
    assert rejected["rejected"].startswith("no valid map for n = 1, d = 3")
    assert all(rep["theorem"] == "pass" for k, rep in enumerate(lines) if k != 1)
    assert "non-cm" in out


def test_explore_records_a_map_the_sampler_cannot_draw(capsys):
    # over GF(2) at d = 2, random_map's f1 is 1 + 1 = 0: that case becomes a
    # record and the (2,3) report is still printed
    code, out, err = run(capsys, "explore", "--n-range", "2", "--d-range", "2..3",
                         "--trials", "1", "--modulus", "2")
    assert code == 2 and err == ""
    rejected, report = _json_lines(out)
    assert rejected == {"case": {"n": 2, "d": 2, "seed": 20216}, "modulus": 2,
                        "rejected": "failed to sample a nonzero form"}
    assert (report["case"]["d"], report["modulus"], report["projdim"]) == (3, 2, 2)
    assert report["theorem"] == "pass"


@pytest.mark.parametrize("source", ["flag", "env"])
def test_explore_modulus_that_is_no_prime_fails_the_sweep(capsys, monkeypatch, source):
    # the whole run fails like `validate --modulus 0`, not each case as a
    # `rejected` record
    argv = ["explore", "--n-range", "2", "--d-range", "2..3", "--trials", "1"]
    if source == "flag":
        argv += ["--modulus", "4"]
    else:
        monkeypatch.setenv("JONQ_MODULUS", "9")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: modulus {4 if source == 'flag' else 9} is not prime\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_case_file_n_below_one_is_rejected(tmp_path, capsys, n):
    path = tmp_path / "n.jonq"
    path.write_text(f"n: {n}\nd: 2\nfield: rational\nf: x1\ng: x1^2\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == "rejected: n must be at least 1\n"
