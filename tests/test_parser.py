"""Expression grammar: anchors, errors with offsets, printer round-trip."""

import random
import re
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from dkpfields.fields import FieldPoly, FieldSymbol, RankError, p_sym, pi_sym, y_sym
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


def test_symbol_canonicalization_at_n3():
    """The sort sign and the zero of a repeated index, for y and p."""
    assert parse_expr("y[2,1]", 3, 2) == -1 * Y(1, 2)
    assert parse_expr("y[1,1]", 3, 2) == 0
    assert parse_expr("p[1][3,1]", 3, 2) == -1 * P(1, 1, 3)


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

    mul_into = parser._mul_into

    def capped_mul(out, t1, t2):
        if len(t1) * len(t2) > MAX_TERMS:
            raise AssertionError("a product was expanded past the term cap")
        return mul_into(out, t1, t2)

    monkeypatch.setattr(parser, "_mul_into", capped_mul)
    # three terms to the 30th expand to up to C(32, 2) = 496 terms: accepted
    assert len(parse_expr("(y[]+pi[1]+pi[2])^30", 2, 0).terms) == 496
    # four terms to the 40th expand to up to C(43, 3) = 12341 terms
    with pytest.raises(ParseError, match="12341 terms"):
        parse_expr("(y[]+pi[1]+pi[2]+pi[3])^40", 3, 0)
    # two 110-term factors
    side = " + ".join(f"y[]^{i}*pi[{{a}}]^{j}" for i in range(11) for j in range(10))
    with pytest.raises(ParseError, match="12100 terms"):
        parse_expr(f"({side.format(a=1)})*({side.format(a=2)})", 2, 0)


def test_each_sum_is_bounded_by_its_result(monkeypatch):
    """A sum whose result has more than MAX_TERMS terms is refused where it
    starts, bare or inside a factor, as a product of as many terms is."""
    five = "(y[]+p[1]+p[2]+p[3]+p[4])"
    for src, pos in ((f"{five}^16+{five}^17", 0), (f"({five}^16+{five}^17)*y[]", 1)):
        with pytest.raises(ParseError, match="sum of 10830 terms is above the cap") as exc:
            parse_expr(src, 4, 0)
        assert exc.value.pos == pos
    # terms that cancel leave a result under the cap
    assert len(parse_expr(f"{five}^16+{five}^17-{five}^17", 4, 0)) == 4845
    monomials = [f"y[]^{a}*p[1]^{b}*p[2]^{c}" for a in range(22) for b in range(22)
                 for c in range(22)]
    with pytest.raises(ParseError, match=f"sum of {MAX_TERMS + 1} terms"):
        parse_expr("+".join(monomials[:MAX_TERMS + 1]), 2, 0)
    monkeypatch.setattr(parser, "MAX_TERMS", 30)
    assert len(parse_expr("+".join(monomials[:30]), 2, 0)) == 30
    with pytest.raises(ParseError, match="sum of 31 terms is above the cap 30"):
        parse_expr("+".join(monomials[:31]), 2, 0)


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    """Parentheses and unary minuses nest by recursion; past the
    interpreter's limit the text is refused like any malformed one."""
    assert parse_expr("(" * 100 + "y[]" + ")" * 100, 1, 0) == Y()
    assert parse_expr("-" * 100 + "y[]", 1, 0) == Y()
    for src in ("(" * 5000 + "y[]" + ")" * 5000, "-" * 5000 + "y[]"):
        with pytest.raises(ParseError, match="expression nests too deeply"):
            parse_expr(src, 1, 0)


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


def test_each_product_is_bounded_by_what_it_produces(monkeypatch):
    """A product that would raise a symbol above MAX_EXPONENT, or hold a
    coefficient above MAX_COEFFICIENT_DIGITS digits, stops at its '*'
    before it is expanded, whether its sides are read into the term or
    are parenthesised polynomials."""
    nines = "9" * 99
    for src, message, star in (
            ("y[]^64*y[]^64", "symbol to the 128", 6),
            ("(y[]^40)*(y[]^40)", "symbol to the 80", 8),
            ("y[]^40*(y[]^30 + 1)", "symbol to the 70", 6),
            ("(1 + y[]^30)*2*y[]^40", "symbol to the 70", 14),
            ("p[1]*y[]^50*p[1]*y[]^20", "symbol to the 70", 16),
            (f"({nines})^43*{nines}*y[]", "coefficients of up to 4357 digits", 104),
            (f"({nines})^43*({nines}*y[] + 1)", "coefficients of up to 4357 digits", 104),
            (f"1/{nines}^43*1/{nines}", "coefficients of up to 4357 digits", 104)):
        with pytest.raises(ParseError, match=message) as exc:
            parse_expr(src, 1, 0)
        assert (src[exc.value.pos], exc.value.pos) == ("*", star), src
    assert parse_expr("y[]^32*y[]^32", 1, 0) == Y() ** 64
    assert parse_expr("(y[]^32)*(y[]^32 + p[1]^64)", 1, 0) == Y() ** 64 + Y() ** 32 * P(1) ** 64
    assert parse_expr(f"({nines})^43*{'9' * 42}*y[]^64", 1, 0) == (
        (10**99 - 1) ** 43 * (10**42 - 1) * Y() ** 64)
    # a product that is zero produces nothing to bound
    assert parse_expr("0*y[]^64*y[]^64", 1, 0) == 0
    assert parse_expr("y[1,1]*y[1,2]^64*y[1,2]^64", 2, 2) == 0
    assert parse_expr("(y[] - y[])*(y[]^64)*(y[]^64)", 1, 0) == 0

    mul_into = parser._mul_into

    def guarded(out, t1, t2):  # the sums of expr multiply by a constant
        if len(t1) > 1 and len(t2) > 1:
            raise AssertionError("a product was expanded past its bound")
        return mul_into(out, t1, t2)

    monkeypatch.setattr(parser, "_mul_into", guarded)
    with pytest.raises(ParseError, match="symbol to the 80"):
        parse_expr("(y[]^40 + 1)*(y[]^40 + 1)", 1, 0)


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


def _ref_symbol(kind, lead, seq):
    """The value of a symbol with an unsorted multi-index: the sign of the
    sort, counted by inversions, or zero when an index repeats."""
    if len(set(seq)) != len(seq):
        return FieldPoly.zero()
    inversions = sum(seq[i] > seq[j] for i in range(len(seq)) for j in range(i + 1, len(seq)))
    return (-1) ** inversions * FieldPoly.of(FieldSymbol(kind, lead, tuple(sorted(seq))))


def _draw(rng, n, p, depth):
    """(text, shape, value) of a random expression tree, its value computed
    with FieldPoly arithmetic.  shape says where the text needs parentheses:
    'sum', 'prod', 'neg', or 'atom' for what may take a power."""
    sp = lambda: rng.choice(("", "", " "))
    r = rng.random() if depth < 4 else rng.random() * 0.45
    if r < 0.15:
        a = rng.randint(0, 12)
        if rng.random() < 0.5:
            b = rng.randint(1, 12)
            return f"{a}/{b}", "atom", FieldPoly.const(Fraction(a, b))
        return str(a), "atom", FieldPoly.const(a)
    if r < 0.45:
        kind = rng.choice(("y", "pi", "p"))
        seq = [rng.randint(1, n) for _ in range(p)]  # unsorted, and repeats
        group = f"[{sp()}{(sp() + ',' + sp()).join(map(str, seq))}{sp()}]"
        lead = () if kind == "y" else (rng.randint(1, n),)
        if kind == "y":
            text = "y" + sp() + group
        elif p == 0 and rng.random() < 0.3:
            text = f"{kind}[{lead[0]}]"
        else:
            text = f"{kind}[{lead[0]}]{sp()}{group}"
        return text, "atom", _ref_symbol(kind, lead, seq)
    if r < 0.6:
        text, shape, value = _draw(rng, n, p, depth + 1)
        for _ in range(rng.randint(1, 2)):
            t, sh, v = _draw(rng, n, p, depth + 1)
            if rng.random() < 0.5:
                text, value = f"{text}{sp()}+{sp()}{t}", value + v
            else:
                text, value = f"{text}{sp()}-{sp()}{f'({t})' if sh == 'sum' else t}", value - v
        return text, "sum", value
    if r < 0.75:
        parts = [_draw(rng, n, p, depth + 1) for _ in range(rng.randint(2, 3))]
        text = (sp() + "*" + sp()).join(f"({t})" if sh == "sum" else t for t, sh, _ in parts)
        return text, "prod", reduce(mul, (v for *_, v in parts))
    t, sh, v = _draw(rng, n, p, depth + 1)
    if r < 0.85:
        return "-" + sp() + (f"({t})" if sh == "sum" else t), "neg", -v
    if r < 0.95:
        e = rng.choice((0, 1, 2, 3))
        return f"{f'({t})' if sh != 'atom' else t}^{e}", "atom", v**e
    return f"({sp()}{t}{sp()})", "atom", v


def test_parser_matches_the_tree_it_prints():
    """Seeded random trees of sums, products, parentheses, unary minus,
    chained powers and ^0 over numbers, rationals and y/pi/p symbols with
    unsorted and repeated multi-indices, n <= 5 and p <= 3: the parse of the
    printed text equals the tree's value, computed with FieldPoly
    arithmetic, and prints the same."""
    rng = random.Random(2024)
    texts = []
    while len(texts) < 400:
        n = rng.randint(1, 5)
        p = rng.randint(0, min(n, 3))
        text, _, value = _draw(rng, n, p, 0)
        if len(value) > 300 or max((e for m in value.num for _, e in m), default=0) > 16:
            continue  # keep the corpus small and every product under the bounds
        got = parse_expr(text, n, p)
        assert got == value, text
        assert str(got) == str(value), text
        texts.append(text)
    for part in (r"\^0", "/", r"pi\[", r"\bp\[", r"y\s*\[", r"\d\^\d\^", r"\)\^", r"\*\s*-",
                 r"-\s*-", r"-\s*\(", r"^-", r"\[\d*\s*(\d+)\s*,\s*\1\b", r"\[\s*[2-5]\s*,\s*1\b"):
        assert any(re.search(part, t) for t in texts), part
