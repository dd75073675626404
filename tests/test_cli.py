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

    for name in ("_frame", "parse_expr", "dwh_derive", "bracket", "dim_zp"):
        monkeypatch.setattr(cli, name, reached)


def test_size_policy_exits_2_before_any_work(monkeypatch, capsys):
    _stub_work(monkeypatch)
    over = [
        ["derive-dwh", "--n", "30", "--p", "15", "--H", "1"],
        ["bracket", "--n", "30", "--p", "15", "--G", "y[]", "--F", "y[]"],
        ["dims", "--n", str(cli.MAX_TERMS)],
        # the n^2 entries of a frame, identity included: 10 201 at n = 101
        ["derive-dwh", "--n", "101", "--p", "0", "--H", "y[]"],
        ["bracket", "--n", "101", "--G", "y[]", "--F", "y[]"],
    ]
    for argv in over:
        assert run_cli(argv) == (2, ""), argv
        assert f"above the cap {cli.MAX_TERMS}" in capsys.readouterr().err
    for argv in (["dims", "--n", str(cli.MAX_TERMS - 1)],
                 ["derive-dwh", "--n", "100", "--p", "0", "--H", "y[]"]):
        with pytest.raises(_Reached):
            run_cli(argv)


def test_size_policy_bound_is_exact(monkeypatch, capsys):
    """(n+1) C(n,p) = 30 at n = 4, p = 2: a cap of 29 rejects, a cap of 30 runs."""
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
    monkeypatch.setattr(cli, "MAX_TERMS", 4)
    assert run_cli(["dims", "--n", "4"]) == (2, "")
    monkeypatch.setattr(cli, "MAX_TERMS", 5)
    with pytest.raises(_Reached):
        run_cli(["dims", "--n", "4"])


def test_huge_frame_exits_2_within_a_second():
    """At n = 9999 the keys of Z_(0) fit the cap but the frame does not."""
    src = pathlib.Path(dkpfields.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "dkpfields", "derive-dwh", "--n", "9999", "--p", "0", "--H", "y[]"],
        capture_output=True, text=True, timeout=1,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "above the cap 10000" in done.stderr


def test_hostile_powers_and_literals_exit_2_within_a_second():
    """Chained and nested powers and a literal past Python's int(str) limit
    exit 2 at the parser, with an error line and no traceback.  Before the
    power bound the first ran for 6 s and the second died at once with a
    ValueError from int-to-str conversion; the literal died in int()."""
    src = pathlib.Path(dkpfields.__file__).resolve().parents[1]
    for h in ("(3*y[])^64^64^64^64", "(((3*y[])^64)^64)^64", "1" * 5000 + "*y[]"):
        done = subprocess.run(
            [sys.executable, "-m", "dkpfields", "derive-dwh", "--n", "1", "--p", "0", "--H", h],
            capture_output=True, text=True, timeout=1,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (done.returncode, done.stdout) == (2, ""), h[:40]
        assert done.stderr.startswith("error:") and "above the cap" in done.stderr, done.stderr
        assert "Traceback" not in done.stderr


def test_coefficient_too_long_to_print_exits_2(capsys):
    """A power whose coefficient would pass the digit cap stops at the
    parser; a product that passes it after every power was accepted stops
    when the report is written, in either format."""
    limit = sys.get_int_max_str_digits()
    c = "1234567890" * 7
    assert run_cli(["derive-dwh", "--n", "1", "--H", f"({c}*y[])^64"]) == (2, "")
    assert "coefficients of up to 4432 digits" in capsys.readouterr().err
    big = f"({'9' * 99})^43*{'9' * 99}*y[]"
    for argv in (["derive-dwh", "--n", "1", "--H", big],
                 ["bracket", "--n", "1", "--G", big, "--F", "p[1][]"]):
        for fmt in ("text", "json"):
            assert run_cli(argv + ["--format", fmt]) == (2, ""), argv
            err = capsys.readouterr().err
            assert err.startswith("error: the answer has a coefficient of more than")
    assert sys.get_int_max_str_digits() == limit  # the limit is not lifted


def test_verify_lambda_above_frame_size_exits_2(monkeypatch, capsys):
    """Above n = 3 the bracket groups would ignore --lambda, so verify refuses it."""
    def no_suites(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(suites, "run_suites", no_suites)
    lam = "2,1,0,0;0,1,0,0;0,0,1,1;1,0,0,1"
    assert run_cli(["verify", "--n", "4", "--suite", "bracket", "--lambda", lam]) == (2, "")
    assert "--lambda for n <= 3" in capsys.readouterr().err
    with pytest.raises(_Reached):
        run_cli(["verify", "--n", "4", "--suite", "bracket", "--lambda", "identity"])
    with pytest.raises(_Reached):
        run_cli(["verify", "--n", "3", "--suite", "bracket", "--lambda", "2,1,0;0,1,0;0,0,1"])


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


# argv that argparse answers with help or a usage error, and two that run;
# their exit codes and output are pinned in ARGV_PINS
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
