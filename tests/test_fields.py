"""Field calculus: polynomials, derivative operators, field equations, bracket."""

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import dkpfields
from dkpfields._linalg import SingularMatrixError, _integer_rows, identity, invert
from dkpfields.algebra import BasisElement
from dkpfields.dkp import FrameMap
from dkpfields.fields import (
    DwhEquations,
    FieldPoly,
    FieldSymbol,
    KindError,
    RankError,
    bracket,
    bracket_closed_form,
    check_jacobi_sym,
    check_leibniz,
    dp_sym,
    dpi_sym,
    dwh_derive,
    dy_sym,
    nabla,
    nabla_adjoint,
    p_sym,
    pi_sym,
    _frame_subst,
    _gradient,
    _nabla,
    symbol_poly,
    y_sym,
)
from dkpfields.suites import rand_field_poly, rand_frame

Y = lambda *I: FieldPoly.of(y_sym(I))
PI = lambda a, *I: FieldPoly.of(pi_sym(a, I))
P = lambda mu, *I: FieldPoly.of(p_sym(mu, I))


# -- polynomial ring ----------------------------------------------------------


def test_poly_basic_arithmetic():
    f = Y(1) ** 2 + Fraction(1, 2) * P(1, 1)
    g = Y(1) ** 2 - Fraction(1, 2) * P(1, 1)
    assert f + g == 2 * Y(1) ** 2
    assert f - f == 0
    assert (Y(1) + 1) * (Y(1) - 1) == Y(1) ** 2 - 1


def test_poly_zero_identity():
    f = Y(1, 2)
    assert f + FieldPoly.zero() == f
    assert f * FieldPoly.const(1) == f
    assert f * 0 == 0
    assert not FieldPoly.zero()


@settings(max_examples=50)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_poly_ring_laws(a, b, c):
    x = a * Y(1) + b * P(1, 1)
    y = b * Y(1) ** 2 + c
    z = c * P(1, 1) + a
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


def test_poly_str_and_order():
    f = Fraction(3, 2) * Y(1) * P(2, 1) ** 2 + 1
    assert str(f) == "1 + 3/2 * y[1] * p[2][1]^2"
    assert str(FieldPoly.zero()) == "0"


def test_constructor_sorts_factors():
    y, p = y_sym((1,)), p_sym(1, (1,))
    f = FieldPoly({((p, 1), (y, 1)): 1, ((y, 1), (p, 1)): 2})
    assert f == 3 * Y(1) * P(1, 1)
    assert f * Y(1) == 3 * Y(1) ** 2 * P(1, 1)
    assert FieldPoly({((y, 1), (p, 1), (y, 2)): 1}) == Y(1) ** 3 * P(1, 1)
    assert FieldPoly({((p, 1), (y, 1)): 1, ((y, 1), (p, 1)): -1}).terms == {}


def test_float_rejected():
    with pytest.raises(TypeError):
        FieldPoly.const(0.5)


# -- partial derivative -------------------------------------------------------


def test_partial_power_rule():
    assert (Y(1) ** 2).partial(y_sym((1,))) == 2 * Y(1)


def test_partial_product_variables():
    f = Y(1) * PI(1)
    # rank mixing is fine inside the bare polynomial ring
    assert f.partial(pi_sym(1, ())) == Y(1)
    assert f.partial(y_sym((1,))) == PI(1)


def test_partial_constant_is_zero():
    assert FieldPoly.const(7).partial(y_sym(())) == 0


def test_partial_by_derivative_symbol_rejected():
    f = FieldPoly.of(dy_sym(1, ()))
    with pytest.raises(KindError):
        f.partial(dy_sym(1, ()))


def test_symbol_poly_canonicalization():
    assert symbol_poly("y", (), (2, 1), 3) == -1 * Y(1, 2)
    assert symbol_poly("y", (), (1, 1), 3) == 0
    assert symbol_poly("p", (1,), (3, 1), 3) == -1 * P(1, 1, 3)


# -- nabla and adjoint ----------------------------------------------------------


def test_nabla_rank0_quadratic():
    n = 2
    f = Fraction(1, 2) * (PI(1) ** 2 + PI(2) ** 2)
    el = nabla(f, 0, n)
    assert el.coefficient(BasisElement((1,), ())) == PI(1)
    assert el.coefficient(BasisElement((2,), ())) == PI(2)
    assert el.coefficient(BasisElement((), ())) == 0


def test_nabla_rank0_linear():
    el = nabla(FieldPoly.of(y_sym(())), 0, 2)
    assert el.coefficient(BasisElement((), ())) == FieldPoly.const(1)
    assert len(el) == 1


def test_nabla_rank1_mixed():
    el = nabla(Y(1) * PI(1, 1), 1, 2)
    assert el.coefficient(BasisElement((), (1,))) == PI(1, 1)
    assert el.coefficient(BasisElement((1,), (1,))) == Y(1)


def test_nabla_rank_validation():
    with pytest.raises(RankError):
        nabla(Y(1), 0, 2)
    with pytest.raises(RankError):
        nabla(P(1, 1), 1, 2)  # polymomenta not allowed inside nabla
    with pytest.raises(RankError):
        nabla(Y(3), 1, 2)  # index beyond n
    with pytest.raises(RankError):
        nabla(PI(3, 1), 1, 2)  # leading index beyond n


def test_nabla_adjoint_keys():
    el = nabla_adjoint(FieldPoly.of(y_sym(())), 0, 2)
    assert el.coefficient(BasisElement((), ())) == FieldPoly.const(1)
    el = nabla_adjoint(Y(1), 1, 2)
    assert el.coefficient(BasisElement((1,), ())) == FieldPoly.const(1)
    el = nabla_adjoint(PI(2, 1), 1, 2)
    assert el.coefficient(BasisElement((1,), (2,))) == FieldPoly.const(1)


def test_nabla_adjoint_is_core_adjoint_on_keys():
    """Transposing the metric adjunction onto nabla reproduces nabla_adjoint."""
    from dkpfields import algebra as al

    rng = random.Random(23)
    n = 3
    d = al.Metric.euclidean(n)
    for p in (0, 1, 2):
        f = rand_field_poly(n, p, rng, nterms=3, deg=1)
        # rewrite in pi symbols so nabla applies: linear p -> pi rename
        f = f.substitute(
            {s: FieldPoly.of(pi_sym(s.idx[0], s.index)) for s in f.symbols() if s.kind == "p"}
        )
        a = nabla(f, p, n)
        b = nabla_adjoint(f, p, n)
        keys_a = {(be.lower, be.upper) for be in a.support()}  # transposed keys
        keys_b = {(be.upper, be.lower) for be in b.support()}
        assert keys_a == keys_b
        # with constant coefficients the full metric adjunction agrees termwise
        if all(list(c.terms) == [()] for _, c in a.terms()):
            lifted = al.AlgebraElement(
                n, {be: list(c.terms.values())[0] for be, c in a.terms()}
            )
            adj = al.adjoint(lifted, d)
            for be, c in b.terms():
                assert adj.coefficient(be) == list(c.terms.values())[0]


# -- field equations -------------------------------------------------------------


def test_dwh_rank0_golden():
    n = 2
    h = Fraction(1, 2) * (P(1) ** 2 + P(2) ** 2) + Y() ** 2
    eqs = dwh_derive(h, 0, FrameMap.identity(n), n)
    assert len(eqs.momentum) == 1
    I, lhs, rhs = eqs.momentum[0]
    assert I == ()
    assert lhs == FieldPoly.of(dp_sym(1, 1, ())) + FieldPoly.of(dp_sym(2, 2, ()))
    assert rhs == -2 * Y()
    assert len(eqs.field) == 2
    for (mu, _I), lhs_f, rhs_f in eqs.field:
        assert lhs_f == FieldPoly.of(dy_sym(mu, ()))
        assert rhs_f == P(mu)


def test_dwh_accepts_frame_momenta_form():
    n = 2
    h_pi = Fraction(1, 2) * (PI(1) ** 2 + PI(2) ** 2) + Y() ** 2
    h_p = Fraction(1, 2) * (P(1) ** 2 + P(2) ** 2) + Y() ** 2
    lam = FrameMap.identity(n)
    assert dwh_derive(h_pi, 0, lam, n) == dwh_derive(h_p, 0, lam, n)


def test_dwh_frame_invariance():
    rng = random.Random(29)
    for n in (2, 3):
        for p in range(0, min(n, 2) + 1):
            h = rand_field_poly(n, p, rng, nterms=4, deg=2)
            base = dwh_derive(h, p, FrameMap.identity(n), n)
            for _ in range(4):
                lam = rand_frame(n, rng)
                assert dwh_derive(h, p, lam, n) == base


def test_dwh_matches_direct_partials():
    rng = random.Random(31)
    for n in (2, 3):
        for p in range(0, min(n, 2) + 1):
            h = rand_field_poly(n, p, rng, nterms=4, deg=2)
            lam = rand_frame(n, rng)
            eqs = dwh_derive(h, p, lam, n)
            for I, _lhs, rhs in eqs.momentum:
                assert rhs == -h.partial(y_sym(I))
            for (mu, I), _lhs, rhs in eqs.field:
                assert rhs == h.partial(p_sym(mu, I))


def test_dwh_equation_count():
    n = 3
    h = rand_field_poly(n, 2, random.Random(1), nterms=3)
    eqs = dwh_derive(h, 2, FrameMap.identity(n), n)
    assert len(eqs.momentum) == 3  # C(3,2) multi-indices
    assert len(eqs.field) == 9  # n * C(3,2)


def test_dwh_lines_render():
    n = 2
    h = Y() ** 2
    eqs = dwh_derive(h, 0, FrameMap.identity(n), n)
    lines = eqs.lines()
    assert lines[0] == "p-div[]: 1 * d[1]p[1][] + 1 * d[2]p[2][] = -2 * y[]"


def test_dwh_validation():
    with pytest.raises(RankError):
        dwh_derive(Y(1), 0, FrameMap.identity(2), 2)
    with pytest.raises(RankError):
        dwh_derive(Y() * FieldPoly.of(dy_sym(1, ())), 0, FrameMap.identity(2), 2)


_CORRUPT_INVERSE = """
if __debug__:
    raise SystemExit("not running under -O")
from dkpfields.dkp import FrameMap
from dkpfields.fields import dwh_derive
from dkpfields.parser import parse_expr

lam = FrameMap([[2, 1], [1, 1]])
lam._inv_rows = FrameMap([[1, 1], [0, 1]])._inv_rows
try:
    eqs = dwh_derive(parse_expr("y[]*p[1][] + p[2][]^2", 2, 0), 0, lam, 2)
except ArithmeticError:
    raise SystemExit(0)
raise SystemExit("no error; derived: " + repr(eqs))
"""


def test_dwh_inconsistent_frame_inverse_raises_under_O():
    """The L L^-1 = 1 check is an explicit raise, which python -O keeps."""
    src = str(pathlib.Path(dkpfields.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_INVERSE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


# -- bracket ----------------------------------------------------------------------


def test_bracket_canonical_pairs():
    rng = random.Random(37)
    for n in (1, 2, 3):
        frames = [FrameMap.identity(n), rand_frame(n, rng)]
        for p in range(0, min(n, 2) + 1):
            for lam in frames:
                for I in combinations(range(1, n + 1), p):
                    for J in combinations(range(1, n + 1), p):
                        for mu in range(1, n + 1):
                            got = bracket(
                                FieldPoly.of(y_sym(I)), FieldPoly.of(p_sym(mu, J)),
                                mu, p, lam, n,
                            )
                            assert got == (1 if I == J else 0)


def test_bracket_y_y_and_p_p_vanish():
    rng = random.Random(38)
    n, p = 3, 1
    lam = rand_frame(n, rng)
    for I in ((1,), (2,), (3,)):
        for J in ((1,), (2,), (3,)):
            assert bracket(FieldPoly.of(y_sym(I)), FieldPoly.of(y_sym(J)), 1, p, lam, n) == 0
            assert (
                bracket(
                    FieldPoly.of(p_sym(1, I)), FieldPoly.of(p_sym(2, J)), 1, p, lam, n
                )
                == 0
            )


def test_bracket_word_route_equals_closed_form():
    rng = random.Random(39)
    for n in (1, 2, 3):
        for p in range(0, min(n, 2) + 1):
            for _ in range(20):
                lam = rand_frame(n, rng)
                g = rand_field_poly(n, p, rng)
                f = rand_field_poly(n, p, rng)
                mu = rng.randint(1, n)
                assert bracket(g, f, mu, p, lam, n) == bracket_closed_form(g, f, mu, p, n)


def test_bracket_self_is_zero():
    rng = random.Random(40)
    n, p = 2, 1
    for _ in range(10):
        f = rand_field_poly(n, p, rng)
        lam = rand_frame(n, rng)
        assert bracket(f, f, 1, p, lam, n) == 0


def test_bracket_antisymmetry():
    rng = random.Random(41)
    for n in (2, 3):
        for p in range(0, min(n, 2) + 1):
            for _ in range(10):
                lam = rand_frame(n, rng)
                g, f = rand_field_poly(n, p, rng), rand_field_poly(n, p, rng)
                mu = rng.randint(1, n)
                assert bracket(g, f, mu, p, lam, n) + bracket(f, g, mu, p, lam, n) == 0


def test_bracket_rank2_closed_form_shape():
    """Rank 2: the bracket sums over increasing index pairs."""
    n = 3
    lam = FrameMap.identity(n)
    g = Y(1, 2) * P(1, 1, 3)
    f = P(1, 1, 2) * Y(1, 3)
    got = bracket(g, f, 1, 2, lam, n)
    want = FieldPoly.zero()
    for I in combinations(range(1, 4), 2):
        want = want + (
            g.partial(y_sym(I)) * f.partial(p_sym(1, I))
            - f.partial(y_sym(I)) * g.partial(p_sym(1, I))
        )
    assert got == want


def test_leibniz_rule():
    rng = random.Random(43)
    for n in (2, 3):
        for p in range(0, min(n, 2) + 1):
            for _ in range(6):
                lam = rand_frame(n, rng)
                g, f, k = (rand_field_poly(n, p, rng) for _ in range(3))
                assert check_leibniz(g, f, k, rng.randint(1, n), p, lam, n) == 0


def test_leibniz_constant_trivial():
    n, p = 2, 0
    lam = FrameMap.identity(n)
    g = FieldPoly.const(3)
    f, k = Y() * P(1), P(2) ** 2
    assert check_leibniz(g, f, k, 1, p, lam, n) == 0
    assert bracket(g, k, 1, p, lam, n) == 0


def test_leibniz_hand_case():
    n, p = 2, 1
    lam = FrameMap.identity(n)
    g, f = Y(1), P(1, 1)
    assert check_leibniz(g, f, g * f, 1, p, lam, n) == 0


def test_jacobi_linear_trivial():
    n, p = 2, 1
    lam = FrameMap.identity(n)
    g, f, k = Y(1), P(1, 2), Y(2)
    assert check_jacobi_sym(g, f, k, 1, 2, p, lam, n) == 0


def test_jacobi_symmetrized_quadratics():
    rng = random.Random(47)
    for n in (2, 3):
        for p in range(0, min(n, 2) + 1):
            for lam in (FrameMap.identity(n), rand_frame(n, rng)):
                for _ in range(4):
                    g, f, k = (rand_field_poly(n, p, rng, deg=2) for _ in range(3))
                    mu, nu = rng.randint(1, n), rng.randint(1, n)
                    assert check_jacobi_sym(g, f, k, mu, nu, p, lam, n) == 0


def test_jacobi_closed_route_agrees():
    """The symmetrized cyclic residual built from the closed form vanishes too."""
    rng = random.Random(48)
    n, p = 2, 1
    lam = rand_frame(n, rng)
    g, f, k = (rand_field_poly(n, p, rng, deg=2) for _ in range(3))

    def br(x, y, mu):
        return bracket_closed_form(x, y, mu, p, n)

    residual = FieldPoly.zero()
    for x, y, z in ((g, f, k), (f, k, g), (k, g, f)):
        residual = residual + Fraction(1, 2) * (br(br(x, y, 1), z, 2) + br(br(x, y, 2), z, 1))
    assert residual == 0
    assert check_jacobi_sym(g, f, k, 1, 2, p, lam, n) == residual


def test_unsymmetrized_double_bracket_needs_symmetrization():
    """The plain cyclic double bracket with mu != nu need not vanish."""
    n, p = 2, 0
    lam = FrameMap.identity(n)
    g = Y() ** 2
    f = P(1) * P(2)
    k = Y() * P(2)
    mu, nu = 1, 2

    def br(a, b, m):
        return bracket(a, b, m, p, lam, n)

    plain = (
        br(br(g, f, mu), k, nu) + br(br(f, k, mu), g, nu) + br(br(k, g, mu), f, nu)
    )
    assert plain != 0
    assert check_jacobi_sym(g, f, k, mu, nu, p, lam, n) == 0


def test_dwh_equations_type():
    eqs = dwh_derive(Y() ** 2, 0, FrameMap.identity(2), 2)
    assert isinstance(eqs, DwhEquations)
    assert eqs != dwh_derive(Y() ** 2 + Y(), 0, FrameMap.identity(2), 2)


# -- kernel against the reference bodies ---------------------------------------
#
# The bodies below compute with Fraction coefficients on plain
# {monomial: Fraction} dicts, the form FieldPoly had before it stored int
# numerators over one denominator.  They never call the FieldPoly kernel:
# they read .terms, and the kernel's results are compared through .terms.
# They are the earlier kernel, kept as the reference: a product that sorts
# every merged monomial, a power by repeated multiplication, a partial
# derivative that scans every term for one symbol, and a substitution that
# adds one product per monomial.


def _ref_merge(m1, m2):
    exps = {}
    for s, e in m1 + m2:
        exps[s] = exps.get(s, 0) + e
    return tuple(sorted(exps.items(), key=lambda t: t[0].sort_key()))


def _ref_clean(d):
    return {m: c for m, c in d.items() if c}


def _ref_add(a, b, k=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + k * c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _ref_merge(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return _ref_clean(out)


def _ref_pow(a, e):
    out = {(): Fraction(1)}
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _ref_partial(f, sym):
    out = {}
    for mono, c in f.items():
        for i, (s, e) in enumerate(mono):
            if s == sym:
                m = mono[:i] + (((s, e - 1),) if e > 1 else ()) + mono[i + 1 :]
                out[m] = out.get(m, 0) + c * e
                break
    return _ref_clean(out)


def _ref_substitute(f, mapping):
    out = {}
    for mono, c in f.items():
        prod = {(): c}
        for sym, e in mono:
            rep = mapping.get(sym)
            prod = _ref_mul(prod, _ref_pow(rep if rep is not None else {((sym, 1),): 1}, e))
        out = _ref_add(out, prod)
    return out


def _rand_poly(rng, syms, nterms, max_e=3, max_den=6):
    """Random polynomial over syms; a monomial with no factor is the constant."""
    terms = {}
    for _ in range(nterms):
        exps = {s: rng.randint(1, max_e) for s in rng.sample(syms, rng.randint(0, 3))}
        mono = tuple(sorted(exps.items(), key=lambda t: t[0].sort_key()))
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, max_den))
    return FieldPoly(terms)


def _field_syms(n, p, kinds):
    out = []
    for I in combinations(range(1, n + 1), p):
        if "y" in kinds:
            out.append(y_sym(I))
        for a in range(1, n + 1):
            out += [FieldSymbol(k, (a,), I) for k in kinds if k != "y"]
    return out


def _assert_canonical(f):
    """int numerators over one denominator: nonzero numerators, den > 0,
    gcd(den, *numerators) = 1; sorted monomials of distinct symbols."""
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c != 0 for c in f.num.values())
    assert gcd(f.den, *f.num.values()) == 1
    for mono in f.num:
        keys = [s.sort_key() for s, _ in mono]
        assert keys == sorted(set(keys))
        assert all(e >= 1 for _, e in mono)


def test_sum_scaling_and_negation_match_reference():
    rng = random.Random(47)
    syms = _field_syms(2, 1, ("y", "p"))
    for _ in range(60):
        a, b = _rand_poly(rng, syms, 4), _rand_poly(rng, syms, 3)
        k = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        for got, want in (
            (a + b, _ref_add(a.terms, b.terms)),
            (a - b, _ref_add(a.terms, b.terms, -1)),
            (a + b - b, a.terms),
            (-a, _ref_add({}, a.terms, -1)),
            (k * a, _ref_mul({(): k}, a.terms)),
            (a * k.numerator, _ref_mul({(): Fraction(k.numerator)}, a.terms)),
        ):
            assert got.terms == want
            _assert_canonical(got)


def test_product_power_and_partial_match_reference():
    rng = random.Random(53)
    syms = _field_syms(3, 1, ("y", "pi", "p"))
    for _ in range(40):
        a, b = _rand_poly(rng, syms, 4), _rand_poly(rng, syms, 3)
        assert (a * b).terms == _ref_mul(a.terms, b.terms)
        _assert_canonical(a * b)
        grad = _gradient(a)
        for s in syms:  # symbols of a and symbols a lacks alike
            want = _ref_partial(a.terms, s)
            assert a.partial(s).terms == want
            _assert_canonical(a.partial(s))
            # _gradient keeps every derivative over the denominator of a
            assert {m: Fraction(c, a.den) for m, c in grad.get(s, {}).items()} == want


def test_power_matches_repeated_multiplication():
    rng = random.Random(59)
    syms = _field_syms(2, 1, ("y", "pi"))
    for _ in range(12):
        a = _rand_poly(rng, syms, rng.randint(0, 4), max_e=2)
        for e in range(9):
            got = a**e
            assert got.terms == _ref_pow(a.terms, e)
            _assert_canonical(got)


def test_substitute_matches_reference():
    rng = random.Random(61)
    n, p = 3, 1
    syms = _field_syms(n, p, ("y", "p"))
    targets = _field_syms(n, p, ("y", "pi"))
    for _ in range(40):
        f = _rand_poly(rng, syms, 5)
        # some symbols of f are mapped (to constants and to zero as well),
        # the rest are missing from the mapping and stay; each replacement
        # has its own denominator
        mapping = {s: Fraction(1, d) * _rand_poly(rng, targets, rng.randint(0, 3), max_e=2)
                   for s, d in zip(rng.sample(syms, 3), (2, 9, 35))}
        got = f.substitute(mapping)
        assert got.terms == _ref_substitute(f.terms, {s: r.terms for s, r in mapping.items()})
        _assert_canonical(got)


def test_substitute_cancellation_stores_no_zero():
    # p[mu][1] -> pi[1][1] + pi[2][1] for both mu, so p[1][1] - p[2][1] maps to zero
    mapping = {p_sym(mu, (1,)): PI(1, 1) + PI(2, 1) for mu in (1, 2)}
    f = (P(1, 1) - P(2, 1)) * Y(1) ** 2 + Y(2) ** 3
    got = f.substitute(mapping)
    assert got.terms == {((y_sym((2,)), 3),): Fraction(1)}
    assert got.terms == _ref_substitute(f.terms, {s: r.terms for s, r in mapping.items()})
    assert (P(1, 1) - P(2, 1)).substitute(mapping).terms == {}
    _assert_canonical((P(1, 1) - P(2, 1)).substitute(mapping))


def _frame_with_uneven_inverse(rng, n):
    """FrameMap whose inverse is a random matrix with nonzero entries but
    one zero, and rows over different denominators."""
    while True:
        inv = [[Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 6)) for _ in range(n)]
               for _ in range(n)]
        inv[rng.randrange(n)][rng.randrange(n)] = Fraction(0)
        if len({_integer_rows([row])[1] for row in inv}) == 1:
            continue
        try:
            lam = FrameMap(invert(inv))
        except SingularMatrixError:
            continue
        assert lam.lam_inv == tuple(map(tuple, inv))
        return lam


def _ref_frame_map(kind, new_kind, m, n, I):
    """{kind[a][I]: {new_kind[b][I]: m[a][b]}} for the reference substitution."""
    return {FieldSymbol(kind, (a,), I): {((FieldSymbol(new_kind, (b,), I), 1),): m[a - 1][b - 1]
                                         for b in range(1, n + 1) if m[a - 1][b - 1]}
            for a in range(1, n + 1)}


def test_frame_round_trip_through_integer_rows():
    """p -> pi by the chain rule and pi -> p by substitution, with L and
    L^-1 each read once as the (int rows, den) pair of _integer_rows.

    The frame-momentum derivatives of f' = f(p = L pi), which _nabla keeps
    in y/p symbols, are checked against the reference: _ref_partial of
    _ref_substitute(f, p -> L pi), with the result of _nabla mapped to pi
    symbols the same way.  Each pi[a][I] maps to row a of L^-1, and
    bracket and dwh_derive do not see the frame."""
    rng = random.Random(73)
    for n in (2, 3, 4):
        for _ in range(4):
            lam = _frame_with_uneven_inverse(rng, n)
            p = rng.randint(0, min(n, 2))
            syms = _field_syms(n, p, ("y", "p"))
            f, g = _rand_poly(rng, syms, 5), _rand_poly(rng, syms, 3)
            to_pi = {}
            for I in combinations(range(1, n + 1), p):
                to_pi.update(_ref_frame_map("p", "pi", lam.lam, n, I))
            f_pi = _ref_substitute(f.terms, to_pi)
            got = dict(_nabla(f, p, n, "p", _integer_rows(lam.lam)).terms())
            to_p = _integer_rows(lam.lam_inv)
            for I in combinations(range(1, n + 1), p):
                for be, sym in [(BasisElement((), I), y_sym(I))] + [
                        (BasisElement((c,), I), pi_sym(c, I)) for c in range(1, n + 1)]:
                    d = got.get(be, FieldPoly.zero())
                    assert _ref_substitute(d.terms, to_pi) == _ref_partial(f_pi, sym)
                    assert d.symbols() <= set(syms)
                    _assert_canonical(d)
                for a in range(1, n + 1):
                    image = _frame_subst(FieldPoly.of(pi_sym(a, I)), to_p)
                    assert image.terms == _ref_frame_map("pi", "p", lam.lam_inv, n, I)[pi_sym(a, I)]
                    _assert_canonical(image)
            mu = rng.randint(1, n)
            assert bracket(g, f, mu, p, lam, n) == bracket_closed_form(g, f, mu, p, n)
            assert dwh_derive(f, p, lam, n) == dwh_derive(f, p, FrameMap.identity(n), n)


def _no_substitute(self, mapping):
    raise AssertionError(f"FieldPoly.substitute called on {self}")


def test_bracket_and_dwh_derive_make_no_substitution(monkeypatch):
    """Over a dense frame, y/p input reaches bracket and dwh_derive without
    a substitution.  Only an H written with frame momenta is rewritten,
    once, by pi -> L^-1 p."""
    rng = random.Random(79)
    for n, p in ((2, 0), (3, 1), (4, 2)):
        lam = _frame_with_uneven_inverse(rng, n)
        syms = _field_syms(n, p, ("y", "p"))
        g, f, h = (_rand_poly(rng, syms, 4) for _ in range(3))
        h_pi = h + _rand_poly(rng, _field_syms(n, p, ("pi",)), 4) + PI(n, *range(1, p + 1))
        to_p = {}
        for I in combinations(range(1, n + 1), p):
            to_p.update(_ref_frame_map("pi", "p", lam.lam_inv, n, I))
        h_p = FieldPoly(_ref_substitute(h_pi.terms, to_p))
        mu = rng.randint(1, n)
        with monkeypatch.context() as m:
            m.setattr(FieldPoly, "substitute", _no_substitute)
            assert bracket(g, f, mu, p, lam, n) == bracket_closed_form(g, f, mu, p, n)
            for q in (h, h_p):
                assert dwh_derive(q, p, lam, n) == dwh_derive(q, p, FrameMap.identity(n), n)
            with pytest.raises(AssertionError, match="substitute called"):
                dwh_derive(h_pi, p, lam, n)
        assert dwh_derive(h_pi, p, lam, n) == dwh_derive(h_p, p, lam, n)


def test_nabla_matches_reference_scan():
    rng = random.Random(67)
    for n, p in ((2, 0), (3, 1), (4, 2)):
        syms = _field_syms(n, p, ("y", "pi"))
        for _ in range(10):
            f = _rand_poly(rng, syms, 5)
            want = {}
            for I in combinations(range(1, n + 1), p):
                want[BasisElement((), I)] = _ref_partial(f.terms, y_sym(I))
                for a in range(1, n + 1):
                    want[BasisElement((a,), I)] = _ref_partial(f.terms, pi_sym(a, I))
            got = nabla(f, p, n)
            assert {be: c.terms for be, c in got.terms()} == {be: c for be, c in want.items() if c}
            for _, c in got.terms():
                _assert_canonical(c)


def _ref_nabla_by_keys(f, p, n, kind, m):
    """The key enumeration the gradient walk replaced: every (n+1) C(n,p)
    key of Z_(p) against every row of the Fraction matrix m, through
    partial and Fraction sums."""
    want = {}
    for I in combinations(range(1, n + 1), p):
        want[BasisElement((), I)] = f.partial(y_sym(I))
        for c in range(1, n + 1):
            want[BasisElement((c,), I)] = sum(
                (m[a - 1][c - 1] * f.partial(FieldSymbol(kind, (a,), I)) for a in range(1, n + 1)),
                FieldPoly.zero())
    return {be: d for be, d in want.items() if d}


def _dense_frame(rng, n):
    """Invertible frame whose entries are all nonzero, most not integers."""
    while True:
        try:
            nums = (-5, -3, -2, -1, 1, 2, 3, 4)
            return FrameMap([[Fraction(rng.choice(nums), rng.randint(1, 6)) for _ in range(n)]
                             for _ in range(n)])
        except SingularMatrixError:
            continue


def test_nabla_gradient_walk_matches_key_enumeration():
    """_nabla walks the gradient of f; the keys it forms, and their
    canonical coefficients, equal the enumeration of every key and row."""
    rng = random.Random(97)
    for n in range(1, 6):
        for p in range(min(n, 2) + 1):
            for _ in range(4):
                lam = _dense_frame(rng, n)
                f = rand_field_poly(n, p, rng, nterms=5, deg=3)
                got = dict(_nabla(f, p, n, "p", lam._rows).terms())
                assert got == _ref_nabla_by_keys(f, p, n, "p", lam.lam)
                f_pi = FieldPoly({tuple((pi_sym(*s.idx, s.index) if s.kind == "p" else s, e)
                                        for s, e in mono): c for mono, c in f.terms.items()})
                got_pi = dict(nabla(f_pi, p, n).terms())
                assert got_pi == _ref_nabla_by_keys(f_pi, p, n, "pi", identity(n))
                for d in (*got.values(), *got_pi.values()):
                    _assert_canonical(d)


def test_symbol_index_below_one_is_refused():
    """A leading index 0 would select frame row -1; every entry point refuses it."""
    lam = FrameMap([[2, 1], [1, 1]])
    for kind, call in (("p", lambda f: bracket(f, Y(), 1, 0, lam, 2)),
                       ("p", lambda f: dwh_derive(f, 0, lam, 2)),
                       ("pi", lambda f: nabla(f, 0, 2))):
        with pytest.raises(RankError, match="outside 1..2"):
            call(FieldPoly.of(FieldSymbol(kind, (0,), ())) * Y())


def test_bracket_closed_form_matches_reference_scan():
    rng = random.Random(71)
    for n, p in ((2, 0), (3, 1), (4, 2)):
        syms = _field_syms(n, p, ("y", "p"))
        for _ in range(10):
            g, f = _rand_poly(rng, syms, 4), _rand_poly(rng, syms, 4)
            mu = rng.randint(1, n)
            want = {}
            for I in combinations(range(1, n + 1), p):
                ys, ps = y_sym(I), p_sym(mu, I)
                want = _ref_add(want, _ref_mul(_ref_partial(g.terms, ys), _ref_partial(f.terms, ps)))
                want = _ref_add(want, _ref_mul(_ref_partial(f.terms, ys), _ref_partial(g.terms, ps)), -1)
            got = bracket_closed_form(g, f, mu, p, n)
            assert got.terms == want
            _assert_canonical(got)


def test_equal_polynomials_by_different_routes_hash_equal():
    x, y = Y(1), P(2, 1)
    half = Fraction(1, 2)
    routes = [
        (x * half * 2, x),
        (half * x + half * x, x),
        (Fraction(1, 3) * x + Fraction(1, 6) * x, half * x),
        (FieldPoly({((y_sym((1,)), 1),): Fraction(2, 4)}), half * x),
        ((3 * x + 6 * y) * Fraction(1, 3), x + 2 * y),
        (((x + y) * half) ** 2 * 4, x**2 + 2 * x * y + y**2),
        (half * x - half * x, FieldPoly.zero()),
        ((Fraction(2, 3) * x) * (Fraction(3, 4) * y), half * x * y),
    ]
    for a, b in routes:
        assert a == b and hash(a) == hash(b), (a, b)
        _assert_canonical(a)
    assert FieldPoly.zero().den == 1 and (half * x - half * x).den == 1
    assert half * x == half * x and half * x != x
    assert FieldPoly.const(Fraction(3, 6)) == half and FieldPoly.const(4) == 4
    assert str(Fraction(2, 3) * x * 3 + Fraction(-6, 4) * y) == "2 * y[1] + -3/2 * p[2][1]"


# -- the polynomial writer and the per-shape DWH skeleton --------------------


def _ref_symbol_text(s):
    I = "[" + ",".join(map(str, s.index)) + "]"
    lead = [f"[{a}]" for a in s.idx]
    if s.kind in ("y", "pi", "p"):
        return s.kind + "".join(lead) + I
    return f"d{lead[0]}{s.kind[1:]}{''.join(lead[1:])}{I}"


def _ref_str(f):
    """The text of f from its .terms: the terms sorted by the sort_key of
    their factors, each coefficient as str(Fraction), then its factors as
    sym or sym^e, joined by ' * ', the terms by ' + '; zero is '0'."""
    terms = sorted(f.terms.items(), key=lambda t: tuple((s.sort_key(), e) for s, e in t[0]))
    return " + ".join(" * ".join([str(c)] + [_ref_symbol_text(s) + (f"^{e}" if e > 1 else "")
                                             for s, e in mono])
                      for mono, c in terms) or "0"


def _all_kind_syms(n, p):
    out = []
    for I in combinations(range(1, n + 1), p):
        out.append(y_sym(I))
        for a in range(1, n + 1):
            out += [pi_sym(a, I), p_sym(a, I), dy_sym(a, I)]
            out += [f(a, b, I) for b in range(1, n + 1) for f in (dpi_sym, dp_sym)]
    return out


def _polys_by_every_route(rng):
    """Random polynomials over all six symbol kinds, made by the constructor,
    +, -, *, **, substitute and partial, and by dwh_derive and bracket."""
    n, p = 2, 1
    syms = _all_kind_syms(n, p)
    base = [_rand_poly(rng, syms, rng.randint(1, 6)) for _ in range(6)]
    a, b, c = base[:3]
    out = list(base)
    out += [a + b, a - b, -a, a * b, a * Fraction(-3, 7), 5 * b, a - a,
            FieldPoly.zero(), FieldPoly.const(Fraction(-5, 3)), FieldPoly.const(0)]
    out += [a ** e for e in range(4)] + [(a + c) ** 2]
    yp = [s for s in syms if s.kind in ("y", "pi", "p")]
    mapping = {s: _rand_poly(rng, syms, 3, max_e=2) for s in rng.sample(yp, 3)}
    out += [f.substitute(mapping) for f in base[:3]]
    out += [f.partial(s) for f in base for s in rng.sample(yp, 2)]
    lam = _dense_frame(rng, n)
    g, f, h = (_rand_poly(rng, _field_syms(n, p, ("y", "p")), 4) for _ in range(3))
    out += [bracket(g, f, 1, p, lam, n), bracket_closed_form(g, f, 2, p, n)]
    out += [q for _, lhs, rhs in dwh_derive(h, p, lam, n).equations() for q in (lhs, rhs)]
    return out


def test_str_matches_the_reference_writer_on_every_route():
    """str of a polynomial made by any route equals the reference writer, on
    the first print and every later one, and printed polynomials keep
    giving correctly printed results in further arithmetic."""
    rng = random.Random(131)
    for _ in range(20):
        polys = _polys_by_every_route(rng)
        for f in polys:
            assert str(f) == _ref_str(f)
        assert all(str(f) == _ref_str(f) for f in polys)
        for _ in range(10):
            a, b = rng.sample(polys, 2)
            for q in (a + b, a * b, b - a, a * Fraction(7, -2), a ** 2):
                assert str(q) == _ref_str(q)
                assert repr(q) == f"FieldPoly({_ref_str(q)})"
        assert all(str(f) == _ref_str(f) for f in polys)
    kinds = {s.kind for f in polys for mono in f.terms for s, _ in mono}
    assert kinds == {"y", "pi", "p", "Dy", "Dpi", "Dp"}


def _ref_dwh(h, p, lam, n):
    """(label, lhs terms, rhs terms) of the DWH equations by their
    definition: pi -> L^-1 p through _ref_substitute, the left-hand sides
    written out, the right-hand sides by _ref_partial."""
    Is = list(combinations(range(1, n + 1), p))
    to_p = {}
    for I in Is:
        to_p.update(_ref_frame_map("pi", "p", lam.lam_inv, n, I))
    hp = _ref_substitute(h.terms, to_p)
    out = []
    for I in Is:
        lhs = {((dp_sym(mu, mu, I), 1),): 1 for mu in range(1, n + 1)}
        rhs = {m: -c for m, c in _ref_partial(hp, y_sym(I)).items()}
        out.append((f"p-div[{','.join(map(str, I))}]", lhs, rhs))
    for I in Is:
        for nu in range(1, n + 1):
            out.append((f"y-deriv[{nu}][{','.join(map(str, I))}]",
                        {((dy_sym(nu, I), 1),): 1}, _ref_partial(hp, p_sym(nu, I))))
    return out


def test_dwh_derive_matches_the_reference_derivation_at_every_shape():
    """n = 1..5 and every p, the shapes interleaved, over dense non-integer
    frames: the equations, their keys and their text equal the reference."""
    rng = random.Random(137)
    shapes = [(n, p) for n in range(1, 6) for p in range(n + 1)] * 2
    rng.shuffle(shapes)
    for n, p in shapes:
        lam = _dense_frame(rng, n)
        h = _rand_poly(rng, _field_syms(n, p, ("y", "p", "pi")), 5, max_e=2)
        eqs = dwh_derive(h, p, lam, n)
        want = _ref_dwh(h, p, lam, n)
        assert [(label, lhs.terms, rhs.terms) for label, lhs, rhs in eqs.equations()] == want
        Is = list(combinations(range(1, n + 1), p))
        assert [I for I, _, _ in eqs.momentum] == Is
        assert [key for key, _, _ in eqs.field] == [(nu, I) for I in Is for nu in range(1, n + 1)]
        assert eqs.lines() == [f"{label}: {_ref_str(FieldPoly(lhs))} = {_ref_str(FieldPoly(rhs))}"
                               for label, lhs, rhs in want]


def test_dwh_skeleton_is_shared_per_shape_and_keyed_on_it_alone():
    """Two derivations of one shape share their left-hand sides and never
    their right-hand sides; the skeleton is built once per (n, p), whatever
    H and the frame are."""
    from dkpfields.fields import _dwh_skeleton

    rng = random.Random(139)
    _dwh_skeleton.cache_clear()
    shapes = [(2, 1), (3, 0), (3, 2)]
    for n, p in shapes * 3:
        h = _rand_poly(rng, _field_syms(n, p, ("y", "p")), 2)
        a = dwh_derive(h, p, _dense_frame(rng, n), n)
        b = dwh_derive(h, p, _dense_frame(rng, n), n)
        assert a == b
        for (_, lhs_a, rhs_a), (_, lhs_b, rhs_b) in zip(a.momentum + a.field,
                                                         b.momentum + b.field):
            assert lhs_a is lhs_b
            assert rhs_a is not rhs_b
    info = _dwh_skeleton.cache_info()
    assert (info.misses, info.currsize) == (len(shapes), len(shapes))
