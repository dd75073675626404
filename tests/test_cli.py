"""Command-line interface: exit codes, report shape, determinism."""

import contextlib
import io
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time
from math import comb

import pytest
import test_acceptance

import dkpfields
from dkpfields import algebra as al
from dkpfields import cli, dkp, suites
from dkpfields.cli import main
from dkpfields.fields import FieldPoly


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def run_argv(argv):
    """(exit code, stdout, stderr) of main(argv); argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_dims_table():
    code, out = run_cli(["dims", "--n", "3"])
    assert code == 0
    assert "dim Z_(0) (4)" in out
    assert "dim Z_(1) (12)" in out
    assert "dim Z_(2) (12)" in out
    assert "dim Z_(3) (4)" in out


def test_dims_json():
    code, out = run_cli(["dims", "--n", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [r["detail"] for r in doc["results"]] == ["3", "6", "3"]


def test_verify_small_all_suites():
    code, out = run_cli(["verify", "--n", "2", "--suite", "all", "--seed", "42"])
    assert code == 0
    assert "RESULT: PASS" in out
    assert "FAIL" not in out.replace("RESULT: PASS", "")


def test_verify_single_suite():
    for suite in ("core", "dkp", "subspaces", "bracket"):
        code, out = run_cli(["verify", "--n", "2", "--suite", suite, "--seed", "1"])
        assert code == 0, (suite, out)


def test_verify_reports_are_byte_stable():
    args = ["verify", "--n", "2", "--suite", "core", "--seed", "7", "--format", "json"]
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seed_recorded():
    code, out = run_cli(
        ["verify", "--n", "2", "--suite", "subspaces", "--seed", "99", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["params"]["seed"] == 99
    assert doc["checks_run"] > 0 and doc["checks_failed"] == 0


def test_verify_reports_a_failed_check(monkeypatch):
    """A failing check makes verify exit 1 and names its first failure; an
    unknown suite name raises in run_suites before any group runs."""
    def one_failure(*args, **kwargs):
        check = suites.Check("demo")
        check.ok(True)
        check.ok(False, "first note")
        check.ok(False, "second note")
        return [check]

    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suites.run_suites(["nope"], 2, 0)
    monkeypatch.setattr(suites, "run_suites", one_failure)
    code, out = run_cli(["verify", "--n", "2", "--format", "json"])
    doc = json.loads(out)
    assert code == 1 and (doc["checks_run"], doc["checks_failed"], doc["pass"]) == (3, 2, False)
    assert doc["results"] == [
        {"name": "demo", "status": "FAIL", "detail": "3 checks, 2 failed (first: first note)"}]


def test_verify_with_metric_and_frame():
    code, out = run_cli(
        ["verify", "--n", "2", "--suite", "dkp", "--seed", "3",
         "--metric", "2,1;1,1", "--lambda", "1,1;0,1"]
    )
    assert code == 0


def test_derive_dwh_rank0():
    code, out = run_cli(
        ["derive-dwh", "--n", "2", "--p", "0", "--H", "1/2*(pi[1]^2+pi[2]^2)+y[]^2"]
    )
    assert code == 0
    assert "1 * d[1]p[1][] + 1 * d[2]p[2][] = -2 * y[]" in out
    assert "1 * d[1]y[] = 1 * p[1][]" in out
    assert "1 * d[2]y[] = 1 * p[2][]" in out


def test_derive_dwh_frame_invariant_output():
    base = ["derive-dwh", "--n", "2", "--p", "1", "--H",
            "y[1]*p[1][1] + 1/2*p[2][2]^2", "--format", "json"]
    _, out1 = run_cli(base + ["--lambda", "identity"])
    _, out2 = run_cli(base + ["--lambda", "1,1;0,1"])
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["results"] == d2["results"]


def test_bracket_command():
    code, out = run_cli(
        ["bracket", "--n", "2", "--p", "1", "--mu", "1", "--G", "y[1]", "--F", "p[1][1]"]
    )
    assert code == 0
    doc_lines = [line for line in out.splitlines() if "bracket" in line]
    assert any("(1)" in line for line in doc_lines)


def test_bracket_command_nontrivial():
    code, out = run_cli(
        ["bracket", "--n", "2", "--p", "0", "--mu", "2", "--format", "json",
         "--G", "y[]^2", "--F", "p[2][]", "--lambda", "2,1;1,1"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["detail"] == "2 * y[]"


def test_values_starting_with_minus():
    """A separate value may start with '-' and reads as in '--opt=value'."""
    cases = [
        ["derive-dwh", "--n", "1", "--H", "-y[]^2"],
        ["derive-dwh", "--n", "2", "--p", "1", "--H", "-y[1]*p[2][1]",
         "--lambda", "-1,1;0,2"],
        ["bracket", "--n", "1", "--G", "-y[]", "--F", "-p[1][]", "--lambda", "-2"],
        ["verify", "--n", "2", "--suite", "dkp", "--metric", "-1,0;0,1",
         "--lambda", "-1,0;1,1"],
    ]
    for argv in cases:
        code, out = run_cli(argv)
        assert code == 0, (argv, out)
        assert "RESULT: PASS" in out
        words = iter(argv)
        glued = [f"{w}={next(words)}" if w in ("--H", "--G", "--F", "--metric", "--lambda")
                 else w for w in words]
        assert run_cli(glued) == (code, out)
    assert "1 * d[1]p[1][] = 2 * y[]" in run_cli(cases[0])[1]
    assert "PASS bracket (1)" in run_cli(cases[2])[1]


def test_verify_core_runs_the_oracle_sweep():
    code, out = run_cli(["verify", "--n", "2", "--suite", "core", "--seed", "5"])
    assert code == 0
    assert "PASS core/representation oracle (309 checks)" in out


def test_usage_errors_exit_2():
    code, _ = run_cli(["verify", "--n", "2", "--metric", "1,1;1,1"])  # singular
    assert code == 2
    code, _ = run_cli(["derive-dwh", "--n", "2", "--p", "0", "--H", "y[  "])
    assert code == 2
    code, _ = run_cli(["derive-dwh", "--n", "2", "--p", "0", "--H", "y[1]"])
    assert code == 2  # rank mismatch
    code, _ = run_cli(["bracket", "--n", "2", "--p", "0", "--G", "y[]"])  # missing --F
    assert code == 2
    code, _ = run_cli(["verify", "--n", "2", "--lambda", "1,2"])  # not square
    assert code == 2


def test_malformed_matrix_entries_exit_2(capsys):
    """A matrix entry that is not a rational is a usage error, not a traceback."""
    commands = [["derive-dwh", "--n", "2", "--H", "y[]"],
                ["bracket", "--n", "2", "--G", "y[]", "--F", "p[1][]"]]
    argvs = [argv + ["--lambda", lam] for lam in ("1,x;0,1", "1,1/0;0,1", "1,;0,1")
             for argv in commands]
    for argv in argvs + [["verify", "--n", "2", "--metric", "1,1/0;0,1"]]:
        assert run_cli(argv) == (2, ""), argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_hostile_matrix_entries_exit_2_fast():
    """An entry above the cap exits 2 before any arithmetic.  Read as a
    Fraction, "1e1000000" made derive-dwh run for 23 s and exit 0."""
    src = pathlib.Path(dkpfields.__file__).resolve().parents[1]
    derive = ["derive-dwh", "--n", "2", "--p", "0", "--H", "y[]^2", "--lambda"]
    argvs = [derive + ["1e1000000,0;0,1"], derive + ["1e10000000,0;0,1"],
             ["bracket", "--n", "2", "--G", "y[]", "--F", "p[1][]", "--lambda", "1,9e101;0,1"],
             ["verify", "--n", "2", "--suite", "dkp", "--metric", "1e10000000,0;0,1"]]
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "dkpfields", *argv],
                              capture_output=True, text=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert (done.returncode, done.stdout) == (2, ""), argv
        assert "above the cap" in done.stderr, argv


def test_matrix_entries_at_the_cap_are_read():
    lam = "1" + "0" * 99 + ",0;0,1e100"
    assert run_cli(["derive-dwh", "--n", "2", "--H", "y[]", "--lambda", lam])[0] == 0
    assert run_cli(["verify", "--n", "2", "--suite", "dkp", "--metric", "1e-100,0;0,1"])[0] == 0


def test_unknown_suite_exits_2_and_names_the_suites(capsys):
    assert run_cli(["verify", "--n", "2", "--suite", "nosuch"]) == (2, "")
    err = capsys.readouterr().err
    assert "'nosuch'" in err and all(name in err for name in suites.SUITE_NAMES)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert ", ".join(suites.SUITE_NAMES) in " ".join(capsys.readouterr().out.split())


def test_parser_cap_exits_2(monkeypatch, capsys):
    def no_pow(poly, e):
        raise AssertionError("the power was expanded")

    monkeypatch.setattr(FieldPoly, "__pow__", no_pow)
    code, out = run_cli(["derive-dwh", "--n", "2", "--p", "0", "--H", "(y[]+pi[1])^3000"])
    assert (code, out) == (2, "")
    assert "exponent 3000 is above the cap" in capsys.readouterr().err


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["derive-dwh", "--n", "2", "--p", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--p", "0"])  # verify takes no rank
    assert exc.value.code == 2


def test_verify_n_ceiling_fails_fast(monkeypatch, capsys):
    def no_suites(*args, **kwargs):
        raise AssertionError("a suite ran above the n ceiling")

    monkeypatch.setattr(suites, "run_suites", no_suites)
    code, out = run_cli(["verify", "--n", str(cli.VERIFY_MAX_N + 1), "--seed", "42"])
    assert (code, out) == (2, "")
    assert f"n <= {cli.VERIFY_MAX_N}" in capsys.readouterr().err


def test_python_dash_m_entry_point():
    src = pathlib.Path(dkpfields.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "dkpfields", "dims", "--n", "2"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert "dim Z_(1) (6)" in done.stdout


_SUITES_UNLOADED = """
import sys
from dkpfields.cli import main
imported = "dkpfields.suites" in sys.modules
lam = ["--lambda", "2,1;1,1"]
codes = [main(["derive-dwh", "--n", "2", "--p", "1", "--H", "y[1]*p[1][1]"] + lam),
         main(["bracket", "--n", "2", "--G", "y[]", "--F", "p[1][]^2"] + lam)]
print(imported, codes, "dkpfields.suites" in sys.modules)
"""


def test_derive_dwh_and_bracket_leave_the_suites_unloaded():
    """Only verify loads the check-group registry."""
    src = pathlib.Path(dkpfields.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _SUITES_UNLOADED],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False [0, 0] False"


def readme_commands():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text().split("```sh\n")[1:]
    lines = [line for block in blocks for line in block.split("```")[0].splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("dkpfields ")]


def test_readme_commands_run():
    commands = readme_commands()
    assert len(commands) >= 8
    for argv in commands:
        code, out = run_cli(argv)
        assert code == 0, (argv, out)


def test_cached_parser_survives_a_usage_error():
    """The parser is built once per process; a usage error leaves it reusable."""
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["derive-dwh", "--n", "2", "--no-such-option"])
    assert exc.value.code == 2
    golden = json.loads(pathlib.Path(__file__).with_name("golden_reports.json").read_text())
    case = next(c for c in golden if c["argv"][0] == "bracket" and "--lambda" in " ".join(c["argv"]))
    assert run_cli(case["argv"]) == (case["exit"], case["stdout"])


class _Reached(Exception):
    pass


def _stub_work(monkeypatch):
    """Every work function of dims, derive-dwh and bracket raises _Reached."""
    def reached(*args, **kwargs):
        raise _Reached

    for name in ("_read_matrix", "parse_expr", "dwh_derive", "bracket", "dim_zp"):
        monkeypatch.setattr(cli, name, reached)


def test_size_policy_exits_2_before_any_work(monkeypatch, capsys):
    _stub_work(monkeypatch)
    over = [
        ["derive-dwh", "--n", "30", "--p", "15", "--H", "1"],
        ["bracket", "--n", "30", "--p", "15", "--G", "y[]", "--F", "y[]"],
        ["dims", "--n", str(cli.MAX_TERMS)],
        # n^2, the entries of a frame, identity included: 10 201 at n = 101
        ["derive-dwh", "--n", "101", "--p", "0", "--H", "y[]"],
        ["bracket", "--n", "101", "--G", "y[]", "--F", "y[]"],
        ["dims", "--n", "101"],
    ]
    for argv in over:
        assert run_cli(argv) == (2, ""), argv
        assert f"above the cap {cli.MAX_TERMS}" in capsys.readouterr().err
    for argv in (["dims", "--n", "100"],
                 ["derive-dwh", "--n", "100", "--p", "0", "--H", "y[]"]):
        with pytest.raises(_Reached):
            run_cli(argv)


def test_size_policy_bound_is_exact(monkeypatch, capsys):
    """(n+1) C(n,p) = 30 at n = 4, p = 2: a cap of 29 rejects, a cap of 30
    runs.  dims at n = 4 is bounded by n^2 = 16, its larger count."""
    _stub_work(monkeypatch)
    argvs = [["derive-dwh", "--n", "4", "--p", "2", "--H", "1"],
             ["bracket", "--n", "4", "--p", "2", "--G", "1", "--F", "1"]]
    monkeypatch.setattr(cli, "MAX_TERMS", 29)
    for argv in argvs:
        assert run_cli(argv) == (2, "")
        assert "= 30 entries, above the cap 29" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_TERMS", 30)
    for argv in argvs:
        with pytest.raises(_Reached):
            run_cli(argv)
    monkeypatch.setattr(cli, "MAX_TERMS", 15)
    assert run_cli(["dims", "--n", "4"]) == (2, "")
    assert "n^2 = 16, above the cap 15" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_TERMS", 16)
    with pytest.raises(_Reached):
        run_cli(["dims", "--n", "4"])


def test_huge_frame_exits_2_within_a_second():
    """At n = 9999 the keys of Z_(0) and the n + 1 rows of dims fit the cap
    but n^2 does not.  dims --n 9999 ran for 15 s and wrote 22 MB before
    dims took the n of derive-dwh and bracket."""
    src = pathlib.Path(dkpfields.__file__).resolve().parents[1]
    for argv in (["derive-dwh", "--n", "9999", "--p", "0", "--H", "y[]"], ["dims", "--n", "9999"]):
        done = subprocess.run(
            [sys.executable, "-m", "dkpfields", *argv],
            capture_output=True, text=True, timeout=1,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stdout) == (2, ""), argv
        assert "above the cap 10000" in done.stderr, argv


def test_hostile_powers_and_literals_exit_2_within_a_second():
    """Chained and nested powers, products past the exponent or coefficient
    cap, a literal past Python's int(str) limit and a frame-momentum power
    whose pi -> L^-1 p rewrite would pass MAX_TERMS exit 2 before the work,
    with an error line and no traceback.  Before the power bound the first
    ran for 6 s and the second died at once with a ValueError from
    int-to-str conversion; the literal died in int().  Before the product
    bound the products were accepted or refused only when the report was
    written; before the rewrite bound the last ran for 1.1 s and wrote
    6.9 MB."""
    src = pathlib.Path(dkpfields.__file__).resolve().parents[1]
    dense = "2,1,1,1;1,3,1,1;1,1,5,1;1,1,1,7"
    for extra, h in [(["--n", "1"], h) for h in (
            "(3*y[])^64^64^64^64", "(((3*y[])^64)^64)^64", "1" * 5000 + "*y[]", "y[]^64*y[]^64",
            "(y[]^40)*(y[]^40)", f"({'9' * 99})^43*{'9' * 99}*y[]")] + [
            (["--n", "4", "--lambda", dense], "pi[1][]^40")]:
        done = subprocess.run(
            [sys.executable, "-m", "dkpfields", "derive-dwh", "--p", "0", *extra, "--H", h],
            capture_output=True, text=True, timeout=1,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stdout) == (2, ""), h[:40]
        assert done.stderr.startswith("error:") and "above the cap" in done.stderr, done.stderr
        assert "Traceback" not in done.stderr


def test_coefficient_too_long_to_print_exits_2(capsys):
    """A power or a product whose coefficient would pass the digit cap
    stops at the parser; an answer that passes it from inputs under the cap
    stops when the report is written, in either format."""
    limit = sys.get_int_max_str_digits()
    c = "1234567890" * 7
    assert run_cli(["derive-dwh", "--n", "1", "--H", f"({c}*y[])^64"]) == (2, "")
    assert "coefficients of up to 4432 digits" in capsys.readouterr().err
    assert run_cli(["derive-dwh", "--n", "1", "--H", f"({'9' * 99})^43*{'9' * 99}*y[]"]) == (2, "")
    assert "product gives coefficients of up to 4357 digits" in capsys.readouterr().err
    a = f"({'9' * 99})^43*{'9' * 42}"  # 4299 digits
    for argv in (["derive-dwh", "--n", "1", "--H", f"{a}*y[]^64"],  # dH/dy[] = 64 a
                 ["bracket", "--n", "1", "--G", f"{a}*y[]", "--F", f"{a}*p[1][]"]):  # a^2
        for fmt in ("text", "json"):
            assert run_cli(argv + ["--format", fmt]) == (2, ""), argv
            err = capsys.readouterr().err
            assert err.startswith("error: the answer has a coefficient of more than")
    assert sys.get_int_max_str_digits() == limit  # the limit is not lifted


def _check_counts(out):
    """{group name: check count} of a verify text report."""
    return {line[5:line.rindex(" (")]: int(line[line.rindex("(") + 1:].split()[0])
            for line in out.splitlines() if line[:5] in ("PASS ", "FAIL ")}


def test_verify_frame_reaches_the_bracket_groups_at_n4(capsys):
    """A dense 4 x 4 --lambda runs in the two bracket groups that take a
    frame, each over one frame more than with identity; a singular one
    exits 2."""
    argv = ["verify", "--n", "4", "--suite", "bracket", "--seed", "42"]
    code, plain = run_cli(argv)
    assert code == 0
    code, framed = run_cli(argv + ["--lambda", "2,1,-1,3;1/2,3,1,-2;-1,1,5,1;1,-2/3,1,7"])
    assert code == 0
    plain, framed = _check_counts(plain), _check_counts(framed)
    n = 4
    per_frame = {
        # two checks per (p, I, J, mu)
        "bracket/canonical pairs": 2 * n * sum(comb(n, p) ** 2 for p in range(n + 1)),
        # five draws per rank
        "bracket/symmetrized jacobi identity": 5 * (n + 1),
    }
    assert {k: framed[k] - plain[k] for k in plain} == {
        k: per_frame.get(k, 0) for k in plain}
    singular = "1,2,3,4;2,4,6,8;1,0,0,1;0,1,1,0"
    assert run_cli(argv + ["--lambda", singular]) == (2, "")
    assert "invalid frame map: matrix is singular" in capsys.readouterr().err


def test_each_group_draws_the_same_alone_as_inside_all(monkeypatch):
    """Every group gets its own generator, so its first draw does not depend
    on which other groups run before it."""
    seen = {}

    def recording(group):
        def body(*args, **kwargs):
            rng = args[len(group.names) + 1]
            probe = random.Random()
            probe.setstate(rng.getstate())
            seen.setdefault(group.names[0], []).append(probe.random())
            return group.body(*args, **kwargs)
        return group._replace(body=body)

    monkeypatch.setattr(suites, "REGISTRY", [recording(group) for group in suites.REGISTRY])
    for suite in suites.SUITE_NAMES + ("all",):
        assert run_cli(["verify", "--n", "2", "--suite", suite, "--seed", "7"])[0] == 0
    assert len(seen) == len(suites.REGISTRY)
    for name, (alone, inside_all) in seen.items():
        assert alone == inside_all, name
    assert len({draws[0] for draws in seen.values()}) == len(seen)


def test_one_group_body_fails_verify_and_acceptance(monkeypatch):
    """verify and the acceptance criteria run the same registered group body."""
    monkeypatch.setattr(dkp, "ndkc_induced_residual", lambda lam, *idx: al.unit(lam.n))
    code, out = run_cli(["verify", "--n", "2", "--suite", "dkp", "--seed", "42"])
    assert code == 1
    assert "FAIL dkp/frame relation, generic frames (induced metric)" in out
    with pytest.raises(AssertionError, match="generic frames"):
        test_acceptance.test_criterion_05_frame_relation()


def _reports(monkeypatch, argvs):
    """The report dict of each argv, as the handler passes it to _emit."""
    seen = []
    monkeypatch.setattr(cli, "_emit", lambda report, fmt, out: seen.append(report))
    for argv in argvs:
        main(argv)
    return seen


def _dumps(report):
    return json.dumps(report, indent=2, sort_keys=True)


def test_json_writer_matches_json_dumps_on_every_subcommand(monkeypatch):
    reports = _reports(monkeypatch, [
        ["verify", "--n", "2", "--suite", "dkp", "--seed", "3", "--metric", "2,1;1,1"],
        ["dims", "--n", "3"],
        ["derive-dwh", "--n", "2", "--p", "1", "--H", "y[1]*p[1][1] - 1/2*p[2][2]^2",
         "--lambda", "1,1;0,1"],
        ["bracket", "--n", "2", "--p", "0", "--mu", "2", "--G", "y[]^2", "--F", "p[2][]"],
    ])
    reports += [cli._report("verify", {"n": 1}, [], 0, 0), cli._report("dims", {}, [], 1, 1)]
    assert [r["command"] for r in reports] == ["verify", "dims", "derive-dwh", "bracket",
                                               "verify", "dims"]
    for report in reports:
        assert cli._json(report) == _dumps(report)


def test_json_writer_matches_json_dumps_on_hostile_strings():
    """Quotes, backslashes, control characters and non-ASCII text, escaped
    as json.dumps escapes them."""
    rng = random.Random(23)
    alphabet = ('a', 'Z', '0', ' ', '"', "\\", '/', '\n', '\t', '\x00', '\x1f', '\x7f',
                'é', 'π', '∂', '\u2028', '\ud800', '😀', '{', ']', ',', ':')

    def text():
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))

    for _ in range(300):
        params = {text(): rng.choice((text(), rng.randint(-10**30, 10**30)))
                  for _ in range(rng.randint(0, 4))}
        results = [{"name": text(), "status": rng.choice(("PASS", "FAIL", text())),
                    "detail": text()} for _ in range(rng.randint(0, 3))]
        failed = rng.randint(0, 3)
        report = cli._report(text(), params, results, rng.randint(0, 10**6), failed)
        assert cli._json(report) == _dumps(report), report


def test_json_writer_refuses_a_float():
    with pytest.raises(TypeError):
        cli._json(cli._report("dims", {"n": 2.0}, [], 0, 0))


def _fuzz_symbol(rng, n, p, names):
    """A symbol of rank p over n, its indices now and then one past n."""
    idx = ",".join(str(rng.randint(1, n + (rng.random() < 0.05))) for _ in range(p))
    name = rng.choice(names)
    if name == "y":
        return f"y[{idx}]"
    return f"{name}[{rng.randint(1, n)}]" + (f"[{idx}]" if p or rng.random() < 0.5 else "")


def _fuzz_expr(rng, n, p, names, depth=0):
    """A well-formed sum of products of numbers, symbols and sums in
    parentheses, nested at most two deep."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.2:
                f = f"{rng.randint(0, 9)}" + (f"/{rng.randint(1, 5)}" if rng.random() < 0.3 else "")
            elif roll < 0.3 and depth < 2:
                f = f"({_fuzz_expr(rng, n, p, names, depth + 1)})"
            else:
                f = _fuzz_symbol(rng, n, p, names)
            factors.append(f + (f"^{rng.randint(0, 4)}" if rng.random() < 0.3 else ""))
        terms.append(rng.choice(("", "-")) + "*".join(factors))
    return rng.choice(("+", " - ")).join(terms)


_HOSTILE_TEXTS = [
    "", " ", "y[]^99999", "y[]^64^64", "y[]^64*y[]^64", "9" * 101, "1/0", "1/0*y[]",
    "(" * 400 + "y[]" + ")" * 400, "-" * 1500 + "y[]", "(" * 50, ")", "y[" + "1," * 300 + "1]",
    "p[1][" * 40, "y[]\x00", "\u00e9", "pi[99999999999]", "p[0][]", "y[-1]", "2^64^64^64",
    "(y[]+pi[1]+pi[2]+pi[3])^40", "(y[]+p[1])^64*(y[]+p[1])^64", "1e5", "0.5*y[]", "y[]**2",
]
_FUZZ_ALPHABET = "()[]^*/+-,. 0123456789ypi"


def _fuzz_text(rng, n, p, names=("y", "y", "p")):
    """A well-formed expression, now and then truncated, dented or replaced
    by a hostile text; bracket observables take y and p symbols only."""
    text = _fuzz_expr(rng, n, p, names)
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(_HOSTILE_TEXTS)
    if roll < 0.15:
        return text[:rng.randint(0, len(text))]
    if roll < 0.2:
        i = rng.randint(0, len(text))
        return text[:i] + rng.choice(_FUZZ_ALPHABET) + text[i + 1:]
    return text


def _fuzz_matrix(rng, n):
    roll = rng.random()
    if roll < 0.3:
        return "identity"
    if roll < 0.45:
        return rng.choice(["", "x", "1/0", "1e1000000", "9" * 150, "1,2;3", ";;", "0.5", "-1"])
    m = rng.choice((n, n, n, n + 1))
    entries = ["0", "1", "1", "2", "-1", "1/2", "0.5", "1e-2"]
    if rng.random() < 0.2:
        entries += ["", "x"]
    return ";".join(",".join(rng.choice(entries) for _ in range(m)) for _ in range(m))


def _fuzz_argv(rng):
    command = rng.choice(("verify", "dims", "derive-dwh", "derive-dwh", "bracket", "bracket"))
    n = rng.choice((1, 2, 3, 3)) if command != "verify" else rng.choice((1, 1, 2))
    p = rng.randint(0, n)
    argv = [command, "--n", str(n) if rng.random() < 0.9 else rng.choice(("0", "-1", "x", "1.5"))]
    if command == "verify":
        argv += ["--suite", rng.choice(("all", "core", "dkp", "subspaces", "bracket", "nosuch")),
                 "--seed", str(rng.randint(0, 99))]
        if rng.random() < 0.4:
            argv += [rng.choice(("--metric", "--lambda")), _fuzz_matrix(rng, n)]
    elif command == "derive-dwh":
        argv += ["--p", str(p), "--H", _fuzz_text(rng, n, p, ("y", "y", "p", "pi"))]
    elif command == "bracket":
        argv += ["--p", str(p), "--mu", str(rng.randint(1, n) if rng.random() < 0.9 else n + 1),
                 "--G", _fuzz_text(rng, n, p), "--F", _fuzz_text(rng, n, p)]
    if command in ("derive-dwh", "bracket") and rng.random() < 0.3:
        argv += ["--lambda", _fuzz_matrix(rng, n)]
    if rng.random() < 0.3:
        argv += ["--format", rng.choice(("text", "json", "json", "xml"))]
    if rng.random() < 0.1:
        del argv[rng.randrange(len(argv))]
    return argv


def test_seeded_argv_fuzz():
    """300 seeded argv over the four subcommands, malformed and hostile texts
    included: each exits 0, 1 or 2 within 1 s and prints no traceback."""
    rng = random.Random(1)
    codes = set()
    for _ in range(300):
        argv = _fuzz_argv(rng)
        start = time.perf_counter()
        code, _, err = run_argv(argv)
        assert code in (0, 1, 2) and "Traceback" not in err, argv
        assert time.perf_counter() - start < 1, argv
        codes.add(code)
    assert codes >= {0, 2}


# argv that argparse answers with help or a usage error, two that run, and
# --H texts the expression parser refuses; their exit codes and output are
# pinned in ARGV_PINS
PINNED_ARGVS = [
    [],
    ["-h"],
    ["nosuch"],
    ["derive-dwh", "--n", "2", "--H", "y[]", "--bogus", "1"],
    ["derive-dwh", "--n", "2", "--H", "y[]", "stray"],
    ["derive-dwh", "--n", "2", "--H", "y[]", "--", "stray"],
    ["derive-dwh", "--n", "x", "--H", "y[]"],
    ["derive-dwh", "--n", "2", "--H", "y[]", "--format", "xml"],
    ["derive-dwh", "-h"],
    ["derive-dwh", "--n", "2", "--H", "y[]^2", "--lam=1,0;0,1"],
    ["derive-dwh", "--n", "2", "--p", "3", "--H", "y[]"],
    ["derive-dwh", "--H", "y[]"],
    ["bracket", "--n", "2", "--mu", "3", "--G", "y[]", "--F", "p[1][]"],
    ["bracket", "--n=2", "--G=y[]", "--F=p[1][]", "--format=json", "extra"],
    ["dims", "--n", "2", "--p", "1"],
    ["verify", "--n", "2", "--seed", "1.5"],
    ["derive-dwh", "--n", "2", "--p", "1", "--H", "y[1"],
    ["derive-dwh", "--n", "2", "--H", "2*y[]^"],
    ["derive-dwh", "--n", "2", "--H", "p[x]"],
    ["derive-dwh", "--n", "2", "--H", "(y[]"],
    ["derive-dwh", "--n", "2", "--H", "y[]^65"],
    ["derive-dwh", "--n", "2", "--H", "1/0*y[]"],
    ["derive-dwh", "--n", "2", "--H", "y[] y[]"],
    ["derive-dwh", "--n", "4", "--p", "1", "--H", "y[5]"],
    ["derive-dwh", "--n", "4", "--H", "(y[]+p[1]+p[2]+p[3]+p[4])^16+(y[]+p[1]+p[2]+p[3]+p[4])^17"],
    ["derive-dwh", "--n", "2"],
]
ARGV_PINS = pathlib.Path(__file__).with_name("argv_pins.json")


def test_argv_behaviour_is_pinned(monkeypatch):
    """Help, usage errors and abbreviated options, byte for byte.

    Regenerate after a deliberate change with PYTHONPATH=src python tests/test_cli.py.
    """
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    pins = json.loads(ARGV_PINS.read_text())
    assert [pin["argv"] for pin in pins] == PINNED_ARGVS
    for pin in pins:
        assert run_argv(pin["argv"]) == (pin["exit"], pin["stdout"], pin["stderr"]), pin["argv"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    pins = [dict(zip(("argv", "exit", "stdout", "stderr"), (argv, *run_argv(argv))))
            for argv in PINNED_ARGVS]
    ARGV_PINS.write_text(json.dumps(pins, indent=1) + "\n")
