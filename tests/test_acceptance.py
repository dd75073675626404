"""Acceptance criteria.

Every criterion is checked with exact rational equality (zero tolerance)
and a wall-clock budget, printing one line per criterion; run with

    pytest tests/test_acceptance.py -v -s

The criteria run the registered check groups of dkpfields.suites, the same
bodies `dkpfields verify` runs, at their own n range, seed and sweep size:

- 1: core/representation oracle, n <= 3;
- 2: core/clifford relations, n <= 4;
- 3: core/projector algebra and core/zero divisors of the idempotent,
  10 draws each, n <= 4;
- 4: dkp/trilinear relations over the Euclidean and 20 random metrics, n <= 4;
- 5: both dkp/frame relation groups, 20 frames each, n <= 4;
- 6: subspaces/dimension formula, n <= 6;
- 7: subspaces/closure under the covector family, 100 draws per rank, with
  the action formula that shares its metric draw, n <= 4;
- 8: bracket/field equations frame invariance, n = 2..4;
- 9: bracket/word route equals closed form, 200 pairs per rank, and
  bracket/canonical pairs, n <= 4;
- 10: bracket/antisymmetry, leibniz rule and symmetrized jacobi identity,
  25, 13 and 7 draws per rank, n <= 4;
- 11: core/contraction, n = 3.

What stays here is independent of those bodies, so that a fault the group
shares with its own inputs or expected values still shows:

- criterion 1's dense elements, with every basis element present, where
  the group draws elements of at most 4 terms;
- criterion 8's full generic quadratic H, one more input to the group's
  field-equation check;
- criterion 11's integer form of the rank-2 contraction, written without
  gen_delta;
- criterion 12, the command line and the parser;
- the strict expected failure below and its counterexample.

Criterion 5 is split: the triple relation for the frame-mapped operators
holds exactly on orthonormal frames and in induced-metric form on all
invertible frames (both verified here), but its literal delta form over
generic invertible frames is mathematically false quite independently of
this implementation (contracting the trilinear relation with a frame map
replaces the Euclidean delta by the Gram matrix of the frame rows), so
that reading is kept as a strict expected failure with the counterexample
pinned.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from dkpfields import algebra as al
from dkpfields import fock
from dkpfields.dkp import ndkc_residual
from dkpfields.fields import FieldPoly, p_sym, y_sym
from dkpfields.parser import parse_expr
from dkpfields.suites import GROUPS, Check, check_field_equations, rand_frame


def report(num, name, detail, dt, budget):
    print(f"criterion {num:>2} {name}: PASS ({detail}; {dt:.2f}s < {budget}s)")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget ({dt:.2f}s)"


def run_group(rng, ns, name, size=None):
    """Run the registered group `name` at each n in ns; its check count."""
    checked = 0
    for n in ns:
        for check in GROUPS[name].run(n, rng, size):
            assert check.passed, f"{check.name} at n={n}: {check.detail}"
            checked += check.run
    return checked


def dense_element(n, rng):
    terms = {}
    for be in al.basis_elements(n):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[be] = c
    return al.AlgebraElement(n, terms)


def test_criterion_01_oracle_equivalence():
    """represent(a*b) == represent(a) @ represent(b): all basis pairs, random and dense pairs."""
    rng = random.Random(101)
    t0 = time.perf_counter()
    checked = run_group(rng, (1, 2, 3), "core/representation oracle")
    for n in (1, 2, 3):
        for _ in range(200):
            x, y = dense_element(n, rng), dense_element(n, rng)
            assert fock.represent(x * y) == fock.represent(x) @ fock.represent(y)
            checked += 1
    report(1, "oracle equivalence", f"{checked} exact pairs", time.perf_counter() - t0, 10)


def test_criterion_02_clifford_relations():
    t0 = time.perf_counter()
    checked = run_group(random.Random(102), (1, 2, 3, 4), "core/clifford relations")
    report(2, "clifford relations", f"{checked} identities, n<=4", time.perf_counter() - t0, 1)


def test_criterion_03_projector_suite():
    rng = random.Random(103)
    t0 = time.perf_counter()
    checked = sum(
        run_group(rng, (1, 2, 3, 4), name, 10)
        for name in ("core/projector algebra", "core/zero divisors of the idempotent")
    )
    report(3, "projector suite", f"{checked} identities, n<=4", time.perf_counter() - t0, 1)


def test_criterion_04_dkp_trilinear():
    t0 = time.perf_counter()
    checked = run_group(random.Random(104), (1, 2, 3, 4), "dkp/trilinear relations", 20)
    report(4, "dkp trilinear relations",
           f"{checked} residuals, 5 families, 21 metrics, n<=4",
           time.perf_counter() - t0, 30)


def test_criterion_05_frame_relation():
    """Delta form on orthonormal frames; induced form on 20 generic frames."""
    rng = random.Random(105)
    t0 = time.perf_counter()
    checked = sum(
        run_group(rng, (1, 2, 3, 4), name, 20)
        for name in ("dkp/frame relation, orthonormal frames",
                     "dkp/frame relation, generic frames (induced metric)")
    )
    report(5, "k-symplectic frame relation",
           f"{checked} residuals: delta form on 21 orthonormal frames,"
           " induced form on 20 generic frames, n<=4",
           time.perf_counter() - t0, 10)


@pytest.mark.xfail(
    strict=True,
    reason="the literal delta-form relation is not frame-covariant: contracting "
    "the trilinear relation with a frame map yields the Gram matrix of its rows "
    "in place of the Euclidean delta, so any frame with non-orthonormal rows "
    "violates it (the 1x1 frame [2] already gives 2*B^3 = -16*b against "
    "-2*B = -4*b); the relation is exact on orthonormal frames and, with the "
    "Gram matrix on the right-hand side, on all invertible frames "
    "(test_criterion_05_frame_relation)",
)
def test_criterion_05_literal_delta_form_generic_frames():
    """Literal reading: delta form over 20 generic random invertible frames."""
    rng = random.Random(105)
    failures = 0
    total = 0
    for n in (1, 2, 3):
        for _ in range(20):
            lam = rand_frame(n, rng)
            for mu, nu, ga in product(range(1, n + 1), repeat=3):
                total += 1
                if not ndkc_residual(lam, mu, nu, ga).is_zero:
                    failures += 1
    print(
        f"criterion  5 literal delta form, generic frames: FAIL "
        f"({failures}/{total} residuals nonzero; expected, the delta form "
        f"requires orthonormal frame rows)"
    )
    assert failures == 0


def test_criterion_06_subspace_dimensions():
    t0 = time.perf_counter()
    checked = run_group(random.Random(106), (6,), "subspaces/dimension formula")
    report(6, "subspace dimensions", f"{checked} (n,p) pairs, n<=6", time.perf_counter() - t0, 1)


def test_criterion_07_closure():
    t0 = time.perf_counter()
    checked = run_group(random.Random(107), (1, 2, 3, 4),
                        "subspaces/closure under the covector family", 100)
    report(7, "invariant subspace closure", f"{checked} random actions, n<=4",
           time.perf_counter() - t0, 5)


def _generic_quadratic(n, p, rng):
    """Full quadratic with all rank-p symbols present and nonzero coefficients."""
    syms = []
    for I in combinations(range(1, n + 1), p):
        syms.append(y_sym(I))
        for mu in range(1, n + 1):
            syms.append(p_sym(mu, I))
    h = FieldPoly.const(rng.randint(1, 5))

    def coeff():
        num = rng.randint(1, 6) * rng.choice((-1, 1))
        return Fraction(num, rng.randint(1, 3))

    for i, s in enumerate(syms):
        h = h + coeff() * FieldPoly.of(s)
        for s2 in syms[i:]:
            h = h + coeff() * FieldPoly.of(s) * FieldPoly.of(s2)
    return h


def test_criterion_08_field_equation_derivation():
    rng = random.Random(108)
    t0 = time.perf_counter()
    checked = run_group(rng, (2, 3, 4), "bracket/field equations frame invariance")
    for n in (2, 3, 4):
        for p in range(n + 1):
            check = Check("generic quadratic H")
            check_field_equations(check, _generic_quadratic(n, p, rng), p, n, rng, 3)
            assert check.passed, f"n={n} p={p}: {check.detail}"
            checked += check.run
    report(8, "field equation derivation",
           f"{checked} equations/frames, n<=4, every p, generic quadratic H",
           time.perf_counter() - t0, 5)


def test_criterion_09_bracket_closed_form():
    rng = random.Random(109)
    t0 = time.perf_counter()
    checked = run_group(rng, (1, 2, 3, 4), "bracket/word route equals closed form", 200)
    checked += run_group(rng, (1, 2, 3, 4), "bracket/canonical pairs")
    report(9, "bracket closed form",
           f"{checked} brackets, 200 random pairs per (n<=4, p<=n) + canonical pairs",
           time.perf_counter() - t0, 30)


def test_criterion_10_bracket_identities():
    rng = random.Random(110)
    t0 = time.perf_counter()
    anti = run_group(rng, (1, 2, 3, 4), "bracket/antisymmetry", 25)
    leib = run_group(rng, (1, 2, 3, 4), "bracket/leibniz rule", 13)
    jac = run_group(rng, (1, 2, 3, 4), "bracket/symmetrized jacobi identity", 7) // 2
    assert anti >= 200 and leib >= 100 and jac >= 50
    report(10, "bracket identities",
           f"antisymmetry {anti}, leibniz {leib}, jacobi {jac} x 2 frames",
           time.perf_counter() - t0, 60)


def test_criterion_11_contraction_anchors():
    t0 = time.perf_counter()
    n = 3
    checked = run_group(random.Random(111), (n,), "core/contraction")
    for k, t, a, b in product(range(1, n + 1), repeat=4):
        w = al.basis_word(n, (k, t), (a, b))
        got = al.contract(w, 2) if not w.is_zero else al.zero(n)
        want_c = int(k == b and t == a) - int(t == b and k == a)
        assert got == want_c * al.projector_p(n)
        checked += 1
    report(11, "contraction anchors", f"{checked} raw words", time.perf_counter() - t0, 1)


def test_criterion_12_cli_and_parser():
    import contextlib
    import io

    from dkpfields.cli import main

    t0 = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--suite", "all", "--n", "3", "--seed", "42"])
    assert code == 0
    text = out.getvalue()
    assert "RESULT: PASS" in text and "checks:" in text

    argv = ["verify", "--suite", "core", "--n", "2", "--seed", "42", "--format", "json"]
    out1, out2 = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out1):
        assert main(argv) == 0
    with contextlib.redirect_stdout(out2):
        assert main(argv) == 0
    assert out1.getvalue() == out2.getvalue()

    rng = random.Random(112)
    corpus = 0
    for n in (1, 2, 3):
        for p in range(n + 1):
            for _ in range(6):
                terms = []
                idxs = list(combinations(range(1, n + 1), p))
                for _ in range(rng.randint(1, 3)):
                    factors = [f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"]
                    for _ in range(rng.randint(0, 2)):
                        ilist = ",".join(map(str, rng.choice(idxs)))
                        kind = rng.choice(("y", "pi", "p"))
                        factors.append(
                            f"y[{ilist}]" if kind == "y"
                            else f"{kind}[{rng.randint(1, n)}][{ilist}]"
                        )
                    terms.append("*".join(factors))
                src = " + ".join(terms)
                poly = parse_expr(src, n, p)
                assert parse_expr(str(poly), n, p) == poly
                corpus += 1
    assert corpus >= 50
    report(12, "cli and parser round trip",
           f"verify all@n=3 exit 0, byte-stable reports, {corpus} round-trips",
           time.perf_counter() - t0, 60)
