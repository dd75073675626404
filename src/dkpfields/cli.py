"""Command-line front end.

Subcommands:

    verify        run the exact identity suites (exit 0 iff all pass)
    dims          table of invariant-subspace dimensions
    derive-dwh    derive the covariant Hamiltonian field equations
    bracket       evaluate the bracket of two expressions

The Fock-representation oracle sweep is the core/representation oracle
group of verify --suite core.

Reports are deterministic for a fixed seed and flag set; --format json
emits a stable sorted-key document.  Exit codes: 0 pass, 1 check failure,
2 usage error.

One size policy holds for every subcommand: a request whose answer would
be too large exits 2 before any work.  verify stops at VERIFY_MAX_N; dims
prints n + 1 rows, and derive-dwh and bracket work over the (n + 1) C(n, p)
keys of Z_(p) and an n x n frame, each at most the parser's MAX_TERMS.

Reading argv and writing the report stay cheap beside the answer.  An
argv that starts with a subcommand name is parsed by that subcommand's
parser alone, which is what the top-level parser would hand it; anything
else (no argv, -h, an unknown name) takes the full argparse pass.  The one
report shape is written as JSON directly, byte for byte what
json.dumps(report, indent=2, sort_keys=True) writes, with each string
quoted by json's C encoder; json.dumps with an indent walks the document
in pure Python.
"""

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _json_str
from math import comb

from . import algebra as al
from .dkp import FrameMap
from .fields import RankError, bracket, bracket_closed_form, dwh_derive
from .parser import MAX_TERMS, ParseError, parse_expr
from .subspaces import dim_zp


class UsageError(ValueError):
    pass


# verify --n 5 --suite all --seed 42 takes about 2.2 s on one core of an
# Intel Xeon, process start included, and its suites grow with the 4^n
# basis elements of G_n.
VERIFY_MAX_N = 5


def _check_size(n, p, frame):
    """UsageError when (n + 1) C(n, p), or the n^2 entries of a frame if the
    command takes one, exceed MAX_TERMS; C(n, 0) = 1 for dims."""
    size = n + 1
    if size <= MAX_TERMS:  # bounds the binomial that is computed
        size *= comb(n, p)
    if size > MAX_TERMS:
        raise UsageError(
            f"n={n}, p={p} asks for (n+1)*C(n,p) = {size} entries, above the cap {MAX_TERMS}"
        )
    if frame and n * n > MAX_TERMS:
        raise UsageError(
            f"n={n} asks for an n x n frame of {n * n} entries, above the cap {MAX_TERMS}"
        )


def _parse_matrix(text, n):
    """Entry strings of an n x n matrix.  Metric and FrameMap read them with
    one reader, _linalg._read_rows, which refuses an entry above
    MAX_ENTRY_DIGITS before any arithmetic."""
    if text == "identity":
        from ._linalg import identity

        return identity(n)
    rows = [chunk.split(",") for chunk in text.split(";")]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise UsageError(f"matrix must be {n}x{n}")
    return rows


def _metric(args):
    try:
        return al.Metric(_parse_matrix(args.metric, args.n))
    except (al.SingularMatrixError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid metric: {exc}") from exc


def _frame(args):
    try:
        return FrameMap(_parse_matrix(args.lam, args.n))
    except (al.SingularMatrixError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid frame map: {exc}") from exc


def _unprintable():
    return UsageError(f"the answer has a coefficient of more than {sys.get_int_max_str_digits()} "
                      "digits, the interpreter's limit for printing an integer")


def _report(command, params, results, checks_run, checks_failed):
    return {
        "command": command,
        "params": params,
        "results": results,
        "checks_run": checks_run,
        "checks_failed": checks_failed,
        "pass": checks_failed == 0,
    }


def _json_value(value):
    """A str or an int as JSON; any other type is a TypeError."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int:
        return str(value)
    raise TypeError(f"report value {value!r} is neither str nor int")


def _json(report):
    """json.dumps(report, indent=2, sort_keys=True) for the shape _report builds:
    str or int params, and results of detail/name/status strings."""
    params = ",\n".join(f"    {_json_str(k)}: {_json_value(v)}"
                        for k, v in sorted(report["params"].items()))
    results = ",\n".join(
        f'    {{\n      "detail": {_json_str(r["detail"])},\n'
        f'      "name": {_json_str(r["name"])},\n'
        f'      "status": {_json_str(r["status"])}\n    }}'
        for r in report["results"]
    )
    return "\n".join([
        "{",
        f'  "checks_failed": {_json_value(report["checks_failed"])},',
        f'  "checks_run": {_json_value(report["checks_run"])},',
        f'  "command": {_json_str(report["command"])},',
        f'  "params": {{\n{params}\n  }},' if params else '  "params": {},',
        f'  "pass": {"true" if report["pass"] else "false"},',
        f'  "results": [\n{results}\n  ]' if results else '  "results": []',
        "}",
    ])


def _emit(report, fmt, out):
    if fmt == "json":
        out.write(_json(report))
        out.write("\n")
        return
    out.write(f"command: {report['command']}\n")
    params = " ".join(f"{k}={v}" for k, v in sorted(report["params"].items()))
    out.write(f"params: {params}\n")
    for res in report["results"]:
        out.write(f"{res['status']:4s} {res['name']} ({res['detail']})\n")
    out.write(f"checks: {report['checks_run']} run, {report['checks_failed']} failed\n")
    out.write(f"RESULT: {'PASS' if report['pass'] else 'FAIL'}\n")


def _cmd_verify(args, out):
    from .suites import FRAME_MAX_N, SUITE_NAMES, run_suites  # only verify loads the suites

    if args.suite != "all" and args.suite not in SUITE_NAMES:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    if args.n > VERIFY_MAX_N:
        raise UsageError(
            f"verify runs for n <= {VERIFY_MAX_N} only; its suites grow with the 4^n basis elements"
        )
    if args.lam != "identity" and args.n > FRAME_MAX_N:
        raise UsageError(
            f"verify takes --lambda for n <= {FRAME_MAX_N} only; its frame groups run at that size"
        )
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    metric = _metric(args) if args.metric != "identity" else None
    lam = _frame(args) if args.lam != "identity" else None
    checks = run_suites(names, args.n, args.seed, metric=metric, lam=lam)
    results = [
        {"name": c.name, "status": "PASS" if c.passed else "FAIL", "detail": c.detail}
        for c in checks
    ]
    report = _report(
        "verify",
        {"n": args.n, "seed": args.seed, "suite": args.suite,
         "metric": args.metric, "lambda": args.lam},
        results,
        sum(c.run for c in checks),
        sum(c.failed for c in checks),
    )
    _emit(report, args.format, out)
    return 0 if report["pass"] else 1


def _cmd_dims(args, out):
    results = []
    for p in range(args.n + 1):
        results.append(
            {"name": f"dim Z_({p})", "status": "PASS",
             "detail": str(dim_zp(args.n, p))}
        )
    report = _report("dims", {"n": args.n}, results, args.n + 1, 0)
    _emit(report, args.format, out)
    return 0


def _cmd_derive_dwh(args, out):
    if args.H is None:
        raise UsageError("derive-dwh requires --H")
    lam = _frame(args)
    try:
        h = parse_expr(args.H, args.n, args.p)
        eqs = dwh_derive(h, args.p, lam, args.n)
    except (ParseError, RankError) as exc:
        raise UsageError(str(exc)) from exc
    try:
        results = [
            {"name": label, "status": "PASS", "detail": f"{lhs} = {rhs}"}
            for label, lhs, rhs in eqs.equations()
        ]
    except ValueError as exc:  # only int-to-str conversion raises it here
        raise _unprintable() from exc
    report = _report(
        "derive-dwh",
        {"n": args.n, "p": args.p, "H": args.H, "lambda": args.lam},
        results,
        len(results),
        0,
    )
    _emit(report, args.format, out)
    return 0


def _cmd_bracket(args, out):
    if args.G is None or args.F is None:
        raise UsageError("bracket requires --G and --F")
    lam = _frame(args)
    try:
        g = parse_expr(args.G, args.n, args.p)
        f = parse_expr(args.F, args.n, args.p)
        value = bracket(g, f, args.mu, args.p, lam, args.n)
        closed = bracket_closed_form(g, f, args.mu, args.p, args.n)
    except (ParseError, RankError) as exc:
        raise UsageError(str(exc)) from exc
    agree = value == closed
    try:
        results = [
            {"name": "bracket", "status": "PASS", "detail": str(value)},
            {"name": "closed form agreement", "status": "PASS" if agree else "FAIL",
             "detail": str(closed)},
        ]
    except ValueError as exc:  # only int-to-str conversion raises it here
        raise _unprintable() from exc
    report = _report(
        "bracket",
        {"n": args.n, "p": args.p, "mu": args.mu, "G": args.G, "F": args.F,
         "lambda": args.lam},
        results,
        2,
        0 if agree else 1,
    )
    _emit(report, args.format, out)
    return 0 if agree else 1


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dkpfields",
        description="Exact projector-basis Clifford/DKP algebra toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_p=True):
        p.add_argument("--n", type=int, required=True, help="dimension n >= 1")
        if with_p:
            p.add_argument("--p", type=int, default=0, help="antisymmetric rank 0..n")
        p.add_argument("--format", choices=("text", "json"), default="text")

    pv = sub.add_parser("verify", help="run exact identity suites")
    common(pv, with_p=False)
    pv.add_argument("--suite", default="all",
                    help="'all' or one suite: core, dkp, subspaces, bracket")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--metric", default="identity",
                    help="'identity' or row-major rationals 'a,b;c,d'")
    pv.add_argument("--lambda", dest="lam", default="identity",
                    help="'identity' or row-major rationals 'a,b;c,d'")

    pd = sub.add_parser("dims", help="invariant subspace dimension table")
    common(pd, with_p=False)

    pw = sub.add_parser("derive-dwh", help="derive the field equations for --H")
    common(pw)
    pw.add_argument("--H", help="Hamiltonian expression")
    pw.add_argument("--lambda", dest="lam", default="identity")

    pb = sub.add_parser("bracket", help="bracket of --G and --F")
    common(pb)
    pb.add_argument("--mu", type=int, default=1)
    pb.add_argument("--G")
    pb.add_argument("--F")
    pb.add_argument("--lambda", dest="lam", default="identity")
    return parser, sub.choices


_VALUE_OPTIONS = ("--H", "--G", "--F", "--metric", "--lambda")


def _glue_values(argv):
    """Rewrite '--H -y[]^2' as '--H=-y[]^2'.

    argparse takes a separate value that starts with '-' for an option, but
    always reads the '--opt=value' form as a value.
    """
    out, words = [], iter(argv)
    for word in words:
        value = next(words, None) if word in _VALUE_OPTIONS else None
        out.append(word if value is None else f"{word}={value}")
    return out


_HANDLERS = {
    "verify": _cmd_verify,
    "dims": _cmd_dims,
    "derive-dwh": _cmd_derive_dwh,
    "bracket": _cmd_bracket,
}


def _parse_args(argv):
    """parser.parse_args(argv), parsing a leading subcommand name with that
    subcommand's parser alone.  Left-over words get the top-level parser's
    usage error, as parse_args gives them."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser, parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return parser, args


def main(argv=None):
    parser, args = _parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
    if args.n < 1:
        parser.exit(2, "error: --n must be >= 1\n")
    p_rank = getattr(args, "p", 0)
    if not 0 <= p_rank <= args.n:
        parser.exit(2, f"error: --p must be in 0..{args.n}\n")
    mu = getattr(args, "mu", 1)
    if not 1 <= mu <= args.n:
        parser.exit(2, f"error: --mu must be in 1..{args.n}\n")
    try:
        if args.command != "verify":
            _check_size(args.n, p_rank, frame=args.command != "dims")
        return _HANDLERS[args.command](args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
