"""Recursive-descent parser for field-variable polynomials.

Grammar (whitespace insignificant):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := primary ('^' nat)*
    primary  := rational | symbol | '(' expr ')' | '-' factor
    symbol   := 'y' '[' idxlist? ']'
              | ('pi' | 'p') '[' nat ']' ('[' idxlist? ']')?
    idxlist  := nat (',' nat)*
    rational := nat ('/' nat)?

A unary minus negates the factor after it, powers included, wherever it
stands: -y[]^2, 2*-y[]^2 and 1 - -y[]^2 read as -(y[]^2), 2*(-(y[]^2))
and 1 - (-(y[]^2)).

A momentum symbol without a second bracket group means the empty
multi-index (rank 0), so pi[1] is shorthand for pi[1][].  Multi-indices
are canonicalized on the fly: y[2,1] parses to -1 * y[1,2] and a repeated
index contributes the zero polynomial.  Indices are validated against the
dimension n and the rank p of the surrounding context.

A term multiplies its numbers, rationals and symbols, each read with its
powers and signs as a/b * s^k, into one int coefficient and one {symbol:
exponent} map, and a parenthesised factor in as a FieldPoly; the
expression adds its terms into one numerator dict over one denominator.

Expansion is bounded before it runs: an exponent above MAX_EXPONENT, or a
product or power whose term count could exceed MAX_TERMS, is a ParseError,
and so is a sum whose result has more than MAX_TERMS terms.
Each power and each nonzero product is bounded by what it produces, so
chained and nested powers and repeated factors are bounded too: no symbol
may reach an exponent above MAX_EXPONENT, and no coefficient more than
MAX_COEFFICIENT_DIGITS digits.  A literal (a number, an exponent or an
index) has at most MAX_ENTRY_DIGITS digits, the cap of a matrix entry, so
no literal reaches Python's own limit on converting long digit strings.

A symbol is one token: the tokenizer reads the name with its bracket
groups, so p[1][2,4] is one regex match, and the parser reads the
leading index, the multi-index and the rank off the match groups.  Every
error in a symbol is reported at an offset inside it: the first index or
character that leaves the grammar, an index outside 1..n, or the '[' that
is not closed.
"""

import re
from math import comb, gcd, lcm

from ._linalg import MAX_ENTRY_DIGITS
from .algebra import _sort_parity
from .fields import MAX_TERMS, FieldPoly, FieldSymbol, RankError, _mul_into

__all__ = ["MAX_COEFFICIENT_DIGITS", "MAX_EXPONENT", "MAX_TERMS", "ParseError", "parse_expr"]

MAX_EXPONENT = 64
# Python's default limit on converting an int to text, so that a coefficient
# a power builds can still be printed
MAX_COEFFICIENT_DIGITS = 4300


class ParseError(ValueError):
    """Syntax or validation error, with the byte offset where it occurred."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# every non-space character starts a match, so finditer skips only trailing
# space.  A symbol is its name and the bracket groups that close after it; a
# '[' after those takes the rest of the input into the token, so that
# symbol() reports it before any later character is read
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<sym>(?P<name>pi|p|y)(?:\s*\[(?P<g1>[^\[\]]*)\])?(?:\s*\[(?P<g2>[^\[\]]*)\])?"
    r"(?:\s*(?P<open>\[(?s:.*)))?)"
    r"|(?P<punct>[()^*/+-])|(?P<bad>\S))"
)
# inside a bracket group: one index, possibly absent, and the character after it
_INDEX = re.compile(r"\s*(\d*)\s*(\S?)")


def _tokenize(src):
    """(kind, text, offset, match) for every token, then an eof token."""
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup), m)
              for m in _TOKEN.finditer(src)]
    for kind, text, pos, _ in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
        if kind == "num" and len(text) > MAX_ENTRY_DIGITS:
            raise _long_literal(text, pos)
    tokens.append(("eof", "", len(src), None))
    return tokens


class _Parser:
    def __init__(self, src, n, p):
        self.src = src
        self.n = n
        self.p = p
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self):
        start = self.peek()[2]
        terms = [(1, *self.term())]
        while self.peek()[1] in ("+", "-"):
            terms.append((1 if self.next()[1] == "+" else -1, *self.term()))
        den, out = lcm(*(d for _, _, d in terms)), {}
        for sign, num, d in terms:
            _mul_into(out, num, {(): sign * (den // d)})
        if len(out) > MAX_TERMS:
            raise ParseError(f"sum of {len(out)} terms is above the cap {MAX_TERMS}", start)
        return FieldPoly._make(out, den)

    def term(self):
        """(numerators, den) of one term: each factor a/b * s^k goes into c / d
        and the {symbol: exponent} map, each FieldPoly into poly (whose _sizes
        are s, dn, top), and each nonzero product at a '*' is bounded."""
        c, d, powers, poly, star, s, dn, top = 1, 1, {}, None, None, 1, 1, {}
        while True:
            val = self.factor()
            # the terms so far: a monomial maps the terms of poly one to one
            size = (1 if poly is None else len(poly)) if c else 0
            tup = type(val) is tuple
            if tup:
                a, b, sym, k = val
            # +-s^k times read factors alone can only raise the exponent of s
            if star is not None and not (tup and poly is None and abs(a) == 1 == b
                                         and powers.get(sym, 0) + k <= MAX_EXPONENT):
                vt, vs, vd, vtop = _sizes(val)
                _check_terms(size * vt, star)
                if size and vt:
                    _check_bounds("product", max((powers.get(x, 0) + top.get(x, 0) + e
                                                  for x, e in vtop.items()), default=0),
                                  max((abs(c) * s * vs).bit_length(), (d * dn * vd).bit_length()),
                                  star)
            if tup:
                g = gcd(c * a, d * b)
                c, d = c * a // g, d * b // g
                if k:
                    powers[sym] = powers.get(sym, 0) + k
            elif c:  # a zero term takes no product
                poly = val if poly is None else FieldPoly._make(_mul_into({}, poly.num, val.num),
                                                                poly.den * val.den)
                _, s, dn, top = _sizes(poly)
            if self.peek()[1] != "*":
                break
            star = self.next()[2]
        mono = tuple(sorted(powers.items(), key=lambda t: t[0].sort_key()))
        num = ({mono: c} if poly is None else _mul_into({}, {mono: c}, poly.num)) if c else {}
        return num, d * (1 if poly is None else poly.den)

    def factor(self):
        """primary ('^' nat)*: a FieldPoly if the primary is parenthesised,
        else (a, b, symbol, k) for a/b * symbol^k in lowest terms, k = 0
        when no symbol is left."""
        val = self.primary()
        while self.peek()[1] == "^":
            caret = self.next()[2]
            kind, text, pos, _ = self.next()
            if kind != "num":
                raise ParseError("exponent must be a natural number", pos)
            e = int(text)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} is above the cap {MAX_EXPONENT}", pos)
            t, s, dn, top = _sizes(val)
            # a t-term polynomial to the e has at most C(e + t - 1, e) terms
            _check_terms(comb(e + t - 1, e) if t else 1, pos)
            _check_bounds("power", e * max(top.values(), default=0),
                          e * max(s.bit_length(), dn.bit_length()), caret)
            val = (val[0]**e, val[1]**e, val[2], val[3] * e) if type(val) is tuple else val**e
        return val

    def primary(self):
        kind, text, pos, m = self.next()
        if kind == "sym":
            return self.symbol(m)
        if text == "-":
            val = self.factor()
            return (-val[0], *val[1:]) if type(val) is tuple else -val
        if text == "(":
            poly = self.expr()
            kind, text, pos, _ = self.next()
            if text != ")":
                raise ParseError(f"expected ')', got {text or 'end of input'!r}", pos)
            return poly
        if kind == "num":
            if self.peek()[1] != "/":
                return int(text), 1, None, 0
            self.next()
            dkind, dtext, dpos, _ = self.next()
            if dkind != "num" or int(dtext) == 0:
                raise ParseError("denominator must be a positive integer", dpos)
            num, den = int(text), int(dtext)
            return num // gcd(num, den), den // gcd(num, den), None, 0
        raise ParseError(f"expected a factor, got {text or 'end of input'!r}", pos)

    def symbol(self, m):
        """y[I], or pi[a] / p[a] with an optional [I], from one token's match."""
        name, pos = m["name"], m.start("name")
        if m["open"] is not None and m["g2"] is None:
            raise ParseError("'[' without a closing ']'", m.start("open"))
        if m["g1"] is None:
            raise ParseError(f"{name} needs an index group '[..]'", pos)
        if name == "y" and m["g2"] is not None:
            raise ParseError("y takes one index group", m.start("g2") - 1)
        if m["open"] is not None:
            raise ParseError(f"{name} takes at most two index groups", m.start("open"))
        if name == "y":
            idx, seq = (), self.multi_index(m.start("g1"), m.end("g1"))
        else:
            lead = _INDEX.match(self.src, m.start("g1"), m.end("g1"))
            if not lead[1]:
                raise ParseError(f"{name} needs a numeric index", lead.start(1))
            if lead[2]:
                raise ParseError(f"expected ']', got {lead[2]!r}", lead.start(2))
            idx = (self.index(lead),)
            seq = () if m["g2"] is None else self.multi_index(m.start("g2"), m.end("g2"))
        if len(seq) != self.p:
            raise RankError(
                f"symbol at offset {pos} has rank {len(seq)}, context expects {self.p}"
            )
        if len(set(seq)) != len(seq):  # a repeated index gives zero
            return 0, 1, None, 0
        sign, ix = _sort_parity(seq)
        return sign, 1, FieldSymbol(name, idx, ix), 1

    def multi_index(self, start, end):
        """The comma-separated indices of src[start:end], the inside of a group."""
        item = _INDEX.match(self.src, start, end)
        if not item[0].strip():
            return ()
        seq = []
        while True:
            if not item[1]:
                raise ParseError("expected an index", item.start(1))
            seq.append(self.index(item))
            if item[2] != ",":
                if item[2]:
                    raise ParseError(f"expected ',' or ']', got {item[2]!r}", item.start(2))
                return tuple(seq)
            item = _INDEX.match(self.src, item.end(), end)

    def index(self, item):
        """The index an _INDEX match read, checked against 1..n."""
        if len(item[1]) > MAX_ENTRY_DIGITS:
            raise _long_literal(item[1], item.start(1))
        x = int(item[1])
        if not 1 <= x <= self.n:
            raise ParseError(f"index {x} outside 1..{self.n}", item.start(1))
        return x


def _long_literal(text, pos):
    """The error for a run of digits above MAX_ENTRY_DIGITS, raised before
    int() reads it."""
    return ParseError(
        f"literal of {len(text)} digits is above the cap of {MAX_ENTRY_DIGITS} digits", pos)


def _sizes(val):
    """(terms, sum of |numerators|, den, {symbol: highest exponent}) of a
    factor: a product's numerators are at most the product of the sums."""
    if type(val) is tuple:
        a, b, sym, k = val
        return (1 if a else 0), abs(a), b, ({sym: k} if k else {})
    top = {}
    for mono in val.num:
        for s, x in mono:
            top[s] = max(x, top.get(s, 0))
    return len(val), sum(map(abs, val.num.values())), val.den, top


def _check_bounds(what, top, bits, pos):
    """ParseError at the '^' or '*' at pos if a symbol would reach top >
    MAX_EXPONENT, or a coefficient of bits bits pass MAX_COEFFICIENT_DIGITS
    digits: b bits give at most b * 30103 // 100000 + 1, as log10 2 < 0.30103."""
    if top > MAX_EXPONENT:
        raise ParseError(f"{what} raises a symbol to the {top}, above the cap {MAX_EXPONENT}", pos)
    digits = bits * 30103 // 100_000 + 1
    if digits > MAX_COEFFICIENT_DIGITS:
        raise ParseError(f"{what} gives coefficients of up to {digits} digits, above the cap "
                         f"{MAX_COEFFICIENT_DIGITS}", pos)


def _check_terms(bound, pos):
    if bound > MAX_TERMS:
        raise ParseError(f"expansion to up to {bound} terms is above the cap {MAX_TERMS}", pos)


def parse_expr(src, n, p) -> FieldPoly:
    """Parse a polynomial in y/pi/p symbols of rank p over dimension n."""
    parser = _Parser(src, n, p)
    try:
        poly = parser.expr()
    except RecursionError:  # parentheses or unary minuses nested past the interpreter's limit
        raise ParseError("expression nests too deeply", parser.peek()[2]) from None
    kind, text, pos, _ = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing {text!r}", pos)
    return poly
