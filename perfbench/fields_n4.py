"""Workload fields-n4: the derive-dwh and bracket commands at n = 4.

Each case drives dkpfields.cli.main in-process with --format json, once
for derive-dwh and once for bracket, over a dense frame map (n = 4 is the
spacetime case).  The inputs are generated polynomial text of rank
p = 0, 1, 2 with a fixed monomial pattern per polynomial:

  H = c1 p_a p_b + c2 p_c^2 + c3 y_i p_d + c4 y_j^2
  G = c5 y_k p_e + c6 y_l^2          F = c7 p_f p_g + c8 y_m

where the seed picks only the symbol indices (p_a != p_b, p_f != p_g),
the nonzero coefficients, mu and the frame.  Checks:

  - both reports pass and exit 0;
  - the derive-dwh equations equal sum_mu d[mu]p[mu][I] = -dH/dy[I] and
    d[mu]y[I] = +dH/dp[mu][I], computed here;
  - they equal the identity-frame derivation;
  - the bracket equals the closed form, computed here.

Arguments are passed as --opt=value: argparse rejects a separate value
that starts with '-' (derive-dwh --H "-y[]^2" exits 2).
"""

import contextlib
import io
import json
import random
from itertools import combinations
from time import perf_counter
from typing import NamedTuple

import dkpfields as dk
from dkpfields import cli

import common
import exact
from exact import sym
from harness import Case

NAME = "fields-n4"
N = 4
RANKS = (0, 1, 2)
CASES_PER_RANK = 70
CONTROL_CASE = 0


class Inputs(NamedTuple):
    cases: list  # (p, mu, H, G, F, frame text)
    frames: list
    timings: dict  # command -> per case, the time of each call in pass order


def raising_call():
    return dk.parse_expr("y[1", N, 1)


def perturb(value):
    """Add +1 to the first derived equation's right-hand side."""
    name, status, detail = value[0]
    return [(name, status, detail + " + 1")] + value[1:]


def _mono(*factors):
    return tuple(sorted(factors))


def _polys(rng, p):
    ranks = list(combinations(range(1, N + 1), p))
    ys = [sym("y", (), ix) for ix in ranks]
    ps = [sym("p", (mu,), ix) for mu in range(1, N + 1) for ix in ranks]
    c = common.coeff
    pa, pb = rng.sample(ps, 2)
    h = {
        _mono((pa, 1), (pb, 1)): c(rng),
        _mono((rng.choice(ps), 2)): c(rng),
        _mono((rng.choice(ys), 1), (rng.choice(ps), 1)): c(rng),
        _mono((rng.choice(ys), 2)): c(rng),
    }
    g = {
        _mono((rng.choice(ys), 1), (rng.choice(ps), 1)): c(rng),
        _mono((rng.choice(ys), 2)): c(rng),
    }
    pf, pg = rng.sample(ps, 2)
    f = {_mono((pf, 1), (pg, 1)): c(rng), _mono((rng.choice(ys), 1)): c(rng)}
    return h, g, f


def build(seed):
    rng = random.Random(f"{NAME}:{seed}")
    out, frames = [], []
    for p in RANKS:
        for _ in range(CASES_PER_RANK):
            h, g, f = _polys(rng, p)
            rows = common.dense_frame_rows(rng, N)
            # the program's own FrameMap validates the frame, and puts its
            # inverse in setup_s as on the other workloads
            frames.append(dk.FrameMap(rows))
            text = ";".join(",".join(map(str, row)) for row in rows)
            out.append((p, rng.randint(1, N), h, g, f, text))
    return Inputs(out, frames, {cmd: [[] for _ in out] for cmd in ("derive-dwh", "bracket")})


def _field_poly(poly):
    return dk.FieldPoly({
        tuple((dk.FieldSymbol(kind, idx, index), e) for (_, kind, idx, index), e in mono): c
        for mono, c in poly.items()
    })


def _shape(poly):
    return tuple(sorted(tuple((s[1], e) for s, e in mono) for mono in poly))


def cases(inp, references=True):
    timings = inp.timings
    out = []
    for i, (p, mu, h, g, f, frame) in enumerate(inp.cases):
        h_text, g_text, f_text = (exact.poly_text(x) for x in (h, g, f))
        derive_argv = ["derive-dwh", "--n", str(N), "--p", str(p), f"--H={h_text}",
                       f"--lambda={frame}", "--format", "json"]
        bracket_argv = ["bracket", "--n", str(N), "--p", str(p), "--mu", str(mu),
                        f"--G={g_text}", f"--F={f_text}", f"--lambda={frame}",
                        "--format", "json"]
        if references:
            want_derive = [
                (label, "PASS", f"{_field_poly(lhs)} = {_field_poly(rhs)}")
                for label, lhs, rhs in exact.dwh_equations(h, N, p)
            ]
            eqs = dk.dwh_derive(dk.parse_expr(h_text, N, p), p, dk.FrameMap.identity(N), N)
            want_identity = [(label, f"{lhs} = {rhs}") for label, lhs, rhs in eqs.equations()]
            value = str(_field_poly(exact.bracket_closed_form(g, f, mu, N, p)))
            want_bracket = [("bracket", "PASS", value), ("closed form agreement", "PASS", value)]
        else:
            want_derive = want_identity = want_bracket = None

        def run(i=i, derive_argv=derive_argv, bracket_argv=bracket_argv):
            outputs = []
            for argv in (derive_argv, bracket_argv):
                buf = io.StringIO()
                t = perf_counter()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(argv)
                except SystemExit as exc:  # argparse usage errors exit
                    code = exc.code
                timings[argv[0]][i].append(perf_counter() - t)
                outputs += [code, buf.getvalue()]
            return outputs

        def check(res, want_derive=want_derive, want_identity=want_identity,
                  want_bracket=want_bracket):
            derive_code, derive_out, bracket_code, bracket_out = res
            derived = json.loads(derive_out)
            br = json.loads(bracket_out)
            return [
                ([(r["name"], r["status"], r["detail"]) for r in derived["results"]], want_derive),
                ([(r["name"], r["detail"]) for r in derived["results"]], want_identity),
                ([(r["name"], r["status"], r["detail"]) for r in br["results"]], want_bracket),
                ((derive_code, bracket_code, derived["pass"], br["pass"]), (0, 0, True, True)),
            ]

        shape = (p, _shape(h), _shape(g), _shape(f))
        out.append(Case(f"p={p}", shape, run, check))
    return out
