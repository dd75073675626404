"""Expression grammar: anchors, errors with offsets, printer round-trip."""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from dkpfields.fields import FieldPoly, RankError, p_sym, pi_sym, y_sym
from dkpfields import parser
from dkpfields._linalg import MAX_ENTRY_DIGITS
from dkpfields.parser import MAX_EXPONENT, MAX_TERMS, ParseError, _tokenize, parse_expr

Y = lambda *I: FieldPoly.of(y_sym(I))
PI = lambda a, *I: FieldPoly.of(pi_sym(a, I))
P = lambda mu, *I: FieldPoly.of(p_sym(mu, I))


def test_grammar_anchor():
    got = parse_expr("y[1]^2 + 1/2*p[1][1]", 2, 1)
    assert got == Y(1) ** 2 + Fraction(1, 2) * P(1, 1)


def test_unary_minus_negates_the_following_factor():
    """'-' negates the factor after it, power included, wherever it stands."""
    cases = {
        "-y[]^2": -(Y() ** 2),
        "2*-y[]^2": -2 * Y() ** 2,
        "--y[]^2": Y() ** 2,
        "1 - -y[]^2": 1 + Y() ** 2,
        "y[]*-p[1][]^2": -(Y() * P(1) ** 2),
    }
    for src, want in cases.items():
        assert parse_expr(src, 1, 0) == want, src


def test_index_canonicalization_sign():
    assert parse_expr("y[2,1]", 2, 2) == -1 * Y(1, 2)


def test_repeated_index_is_zero():
    assert parse_expr("y[1,1]", 2, 2) == 0


def test_empty_multi_index():
    assert parse_expr("y[]", 2, 0) == Y()
    assert parse_expr("pi[1][]", 2, 0) == PI(1)


def test_momentum_shorthand():
    # a missing second bracket group means the empty multi-index
    assert parse_expr("pi[2]", 3, 0) == parse_expr("pi[2][]", 3, 0)
    assert parse_expr("p[1]", 3, 0) == parse_expr("p[1][]", 3, 0)


def test_rank0_hamiltonian():
    got = parse_expr("1/2*(pi[1]^2+pi[2]^2)+y[]^2", 2, 0)
    want = Fraction(1, 2) * (PI(1) ** 2 + PI(2) ** 2) + Y() ** 2
    assert got == want


def test_unary_minus_and_parens():
    assert parse_expr("-y[1] + 2", 2, 1) == 2 - Y(1)
    assert parse_expr("-(y[1] - p[1][1])^2", 2, 1) == -((Y(1) - P(1, 1)) ** 2)


def test_precedence():
    assert parse_expr("2 + 3 * y[1]^2", 2, 1) == 2 + 3 * Y(1) ** 2
    assert parse_expr("2 * y[1] + 3", 2, 1) == 2 * Y(1) + 3


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_expr("y[1] @ 2", 2, 1)
    assert err.value.pos == 5
    with pytest.raises(ParseError):
        parse_expr("y[1", 2, 1)
    with pytest.raises(ParseError):
        parse_expr("", 2, 1)
    with pytest.raises(ParseError):
        parse_expr("y[1] y[1]", 2, 1)
    with pytest.raises(ParseError):
        parse_expr("1/0", 2, 0)


def test_index_out_of_range():
    with pytest.raises(ParseError):
        parse_expr("y[3]", 2, 1)
    with pytest.raises(ParseError):
        parse_expr("pi[4][1]", 3, 1)


def test_symbol_is_one_token():
    """A symbol and its bracket groups are one token, whitespace allowed inside."""
    assert [tok[0] for tok in _tokenize("p[1][2,4]")] == ["sym", "eof"]
    assert parse_expr("p [ 1 ] [ 2 , 4 ]", 4, 2) == parse_expr("p[1][2,4]", 4, 2) == P(1, 2, 4)
    assert parse_expr(" y [ 2 ,1 ]^2*pi [3]\t[ 1, 2 ] ", 3, 2) == Y(1, 2) ** 2 * PI(3, 1, 2)


@pytest.mark.parametrize("src, n, p, pos", [
    ("y[1", 2, 1, 1),             # the '[' that is not closed
    ("p[x]", 2, 0, 2),
    ("pi[1][1,]", 2, 1, 8),
    ("y[1][2]", 2, 1, 4),
    ("pi", 2, 0, 0),
    ("p[]", 2, 0, 2),
    ("p[1,2]", 2, 0, 3),
    ("y[1 2]", 3, 2, 4),
    ("pi[1][1,", 2, 1, 5),
    ("p[1][2][3]", 3, 1, 7),
])
def test_symbol_errors_point_inside_the_symbol(src, n, p, pos):
    with pytest.raises(ParseError) as err:
        parse_expr("1 + " + src, n, p)
    assert err.value.pos == 4 + pos
    assert 4 <= err.value.pos < 4 + len(src)


def test_out_of_range_index_reports_its_offset():
    cases = [("y[1,5]", 2, 4), ("y[ 1 , 2 ,  9 ]", 3, 12), ("pi[4][1]", 1, 3),
             ("p[1][2, 7]", 2, 8), ("p[ 0 ]", 0, 3)]
    for src, p, pos in cases:
        with pytest.raises(ParseError, match="outside 1..3") as err:
            parse_expr(src, 3, p)
        assert err.value.pos == pos, src


def test_one_term_power_equals_repeated_multiplication():
    rng = random.Random(11)
    syms = [y_sym((1,)), y_sym((2,)), p_sym(2, (1,)), pi_sym(1, (3,)), p_sym(3, (2,))]
    t = Fraction(3, 4) * Y(1) * Y(1) * P(2, 1)
    assert t**5 == reduce(mul, [t] * 5)
    for _ in range(200):
        mono = FieldPoly.const(Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 40)))
        for s in rng.sample(syms, rng.randint(0, 3)):
            mono = reduce(mul, [FieldPoly.of(s)] * rng.randint(1, 3), mono)
        e = rng.randint(2, 9)
        assert mono**e == reduce(mul, [mono] * e)  # == compares the canonical num / den


def test_rank_mismatch():
    with pytest.raises(RankError):
        parse_expr("y[1,2]", 3, 1)
    with pytest.raises(RankError):
        parse_expr("y[]", 3, 1)


def test_exponent_must_be_natural():
    with pytest.raises(ParseError):
        parse_expr("y[1]^y[1]", 2, 1)


def test_expansion_caps_fail_before_expanding(monkeypatch):
    assert parse_expr(f"y[]^{MAX_EXPONENT}", 1, 0) == Y() ** MAX_EXPONENT

    def no_pow(poly, e):
        raise AssertionError("a power was expanded past the exponent cap")

    with monkeypatch.context() as m:
        m.setattr(FieldPoly, "__pow__", no_pow)
        with pytest.raises(ParseError, match=f"exponent {MAX_EXPONENT + 1} is above"):
            parse_expr(f"(y[]+pi[1])^{MAX_EXPONENT + 1}", 2, 0)

    mul = FieldPoly.__mul__

    def capped_mul(a, b):
        if isinstance(b, FieldPoly) and len(a.terms) * len(b.terms) > MAX_TERMS:
            raise AssertionError("a product was expanded past the term cap")
        return mul(a, b)

    monkeypatch.setattr(FieldPoly, "__mul__", capped_mul)
    # three terms to the 30th expand to up to C(32, 2) = 496 terms: accepted
    assert len(parse_expr("(y[]+pi[1]+pi[2])^30", 2, 0).terms) == 496
    # four terms to the 40th expand to up to C(43, 3) = 12341 terms
    with pytest.raises(ParseError, match="12341 terms"):
        parse_expr("(y[]+pi[1]+pi[2]+pi[3])^40", 3, 0)
    # two 110-term factors
    side = " + ".join(f"y[]^{i}*pi[{{a}}]^{j}" for i in range(11) for j in range(10))
    with pytest.raises(ParseError, match="12100 terms"):
        parse_expr(f"({side.format(a=1)})*({side.format(a=2)})", 2, 0)


def test_each_power_is_bounded_by_what_it_produces():
    """Chained and nested powers stop at the '^' whose result would raise a
    symbol above MAX_EXPONENT or hold a coefficient above
    MAX_COEFFICIENT_DIGITS digits, before that power is expanded."""
    for src, top, caret in (("(3*y[])^64^64^64^64", 4096, 10), ("(((3*y[])^64)^64)^64", 4096, 13),
                            ("y[]^64^2", 128, 6), ("(y[]^2)^33", 66, 7)):
        with pytest.raises(ParseError, match=f"symbol to the {top}, above the cap 64") as exc:
            parse_expr(src, 1, 0)
        assert (src[exc.value.pos], exc.value.pos) == ("^", caret)
    assert parse_expr("y[]^64", 1, 0) == Y() ** 64
    assert parse_expr("(y[]^2)^32", 1, 0) == Y() ** 64
    assert len(parse_expr("(y[]+pi[1])^64", 1, 0)) == 65
    c = "1234567890" * 7
    with pytest.raises(ParseError, match="coefficients of up to 4432 digits") as exc:
        parse_expr(f"({c}*y[])^64", 1, 0)
    assert exc.value.pos == len(f"({c}*y[])")
    assert parse_expr(f"({c}*y[])^60", 1, 0) == int(c) ** 60 * Y() ** 60
    with pytest.raises(ParseError, match="coefficients of up to"):
        parse_expr("2^64^64^64", 1, 0)  # a constant has no symbol to bound it
    with pytest.raises(ParseError, match="coefficients of up to"):
        parse_expr(f"(y[]+1/{c})^64", 1, 0)  # denominators count too


def test_power_coefficient_bound_is_never_below_the_result(monkeypatch):
    """With the cap one digit under the longest coefficient a power really
    gives, that power is refused."""
    rng = random.Random(151)
    syms = [Y(), PI(1), P(1)]
    for _ in range(40):
        f = sum((Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) * rng.choice(syms)
                 for _ in range(rng.randint(1, 3))), FieldPoly.zero())
        if not f:
            continue
        e = rng.randint(1, 30)
        longest = max(len(str(abs(c))) for c in (*(f ** e).num.values(), (f ** e).den))
        monkeypatch.setattr(parser, "MAX_COEFFICIENT_DIGITS", longest - 1)
        with pytest.raises(ParseError, match="coefficients of up to"):
            parse_expr(f"({f})^{e}", 1, 0)


def test_literals_above_the_entry_cap_are_refused_at_the_literal():
    big = "1" * (MAX_ENTRY_DIGITS + 1)
    for src, pos in ((f"{big}*y[]", 0), (f"y[]^{big}", 4), (f"1/{big}", 2), (f"y[{big}]", 2),
                     (f"p[{big}][]", 2), ("y[]+" + "7" * 5000, 4)):
        with pytest.raises(ParseError, match="digits is above the cap of 100 digits") as exc:
            parse_expr(src, 2, 0)
        assert exc.value.pos == pos, src
    top = "9" * MAX_ENTRY_DIGITS
    assert parse_expr(f"{top}/{top}*y[]", 1, 0) == Y()
    with pytest.raises(ParseError, match=f"index {top} outside 1..2"):
        parse_expr(f"y[{top}]", 2, 1)


def _random_source(rng, n, p):
    from itertools import combinations

    idxs = list(combinations(range(1, n + 1), p))
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [str(rng.randint(1, 9))]
        if rng.random() < 0.5:
            factors[0] += f"/{rng.randint(1, 9)}"
        for _ in range(rng.randint(0, 2)):
            ilist = ",".join(map(str, rng.choice(idxs)))
            kind = rng.choice(("y", "pi", "p"))
            if kind == "y":
                sym = f"y[{ilist}]"
            else:
                sym = f"{kind}[{rng.randint(1, n)}][{ilist}]"
            if rng.random() < 0.3:
                sym += f"^{rng.randint(1, 3)}"
            factors.append(sym)
        terms.append("*".join(factors))
    return " + ".join(terms)


def test_round_trip_corpus():
    """print(parse(s)) reparses to an equal polynomial; >= 50 expressions."""
    rng = random.Random(6)
    count = 0
    for n in (1, 2, 3):
        for p in range(n + 1):
            for _ in range(8):
                src = _random_source(rng, n, p)
                poly = parse_expr(src, n, p)
                assert parse_expr(str(poly), n, p) == poly
                count += 1
    assert count >= 50


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_fuzz(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    p = rng.randint(0, n)
    src = _random_source(rng, n, p)
    poly = parse_expr(src, n, p)
    assert parse_expr(str(poly), n, p) == poly
