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

Expansion is bounded before it runs: an exponent above MAX_EXPONENT, or a
product or power whose term count could exceed MAX_TERMS, is a ParseError.
"""

import re
from fractions import Fraction
from math import comb

from .fields import FieldPoly, RankError, symbol_poly

__all__ = ["MAX_EXPONENT", "MAX_TERMS", "ParseError", "parse_expr"]

MAX_EXPONENT = 64
MAX_TERMS = 10_000


class ParseError(ValueError):
    """Syntax or validation error, with the byte offset where it occurred."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# every non-space character starts a match, so finditer skips only trailing space
_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>pi|p|y)|(?P<punct>[\[\],()^*/+-])|(?P<bad>\S))"
)


def _tokenize(src):
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup)) for m in _TOKEN.finditer(src)]
    for kind, text, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", pos)
    tokens.append(("eof", "", len(src)))
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

    def expect(self, value):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, got {text or 'end of input'!r}", pos)

    def parse(self):
        poly = self.expr()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing {text!r}", pos)
        return poly

    def expr(self):
        poly = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def term(self):
        poly = self.factor()
        while self.peek()[1] == "*":
            pos = self.next()[2]
            rhs = self.factor()
            _check_terms(len(poly) * len(rhs), pos)
            poly = poly * rhs
        return poly

    def factor(self):
        poly = self.primary()
        while self.peek()[1] == "^":
            self.next()
            kind, text, pos = self.next()
            if kind != "num":
                raise ParseError("exponent must be a natural number", pos)
            e, t = int(text), len(poly)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} is above the cap {MAX_EXPONENT}", pos)
            # a t-term polynomial to the e has at most C(e + t - 1, e) terms
            _check_terms(comb(e + t - 1, e) if t else 1, pos)
            poly = poly ** e
        return poly

    def primary(self):
        kind, text, pos = self.peek()
        if text == "-":
            self.next()
            return -self.factor()
        if text == "(":
            self.next()
            poly = self.expr()
            self.expect(")")
            return poly
        if kind == "num":
            self.next()
            num = int(text)
            if self.peek()[1] == "/":
                self.next()
                dkind, dtext, dpos = self.next()
                if dkind != "num" or int(dtext) == 0:
                    raise ParseError("denominator must be a positive integer", dpos)
                return FieldPoly.const(Fraction(num, int(dtext)))
            return FieldPoly.const(num)
        if kind == "name":
            return self.symbol()
        raise ParseError(f"expected a factor, got {text or 'end of input'!r}", pos)

    def symbol(self):
        kind, name, pos = self.next()
        if name == "y":
            seq = self.idx_group(pos)
            return self.make("y", (), seq, pos)
        # pi / p carry one leading index, then an optional multi-index group
        self.expect("[")
        akind, atext, apos = self.next()
        if akind != "num":
            raise ParseError(f"{name} needs a numeric index", apos)
        a = int(atext)
        if not 1 <= a <= self.n:
            raise ParseError(f"index {a} outside 1..{self.n}", apos)
        self.expect("]")
        if self.peek()[1] == "[":
            seq = self.idx_group(pos)
        else:
            seq = ()
        return self.make(name, (a,), seq, pos)

    def idx_group(self, at):
        self.expect("[")
        seq = []
        if self.peek()[1] != "]":
            while True:
                kind, text, pos = self.next()
                if kind != "num":
                    raise ParseError("expected an index", pos)
                x = int(text)
                if not 1 <= x <= self.n:
                    raise ParseError(f"index {x} outside 1..{self.n}", pos)
                seq.append(x)
                if self.peek()[1] == ",":
                    self.next()
                    continue
                break
        self.expect("]")
        return tuple(seq)

    def make(self, kindname, idx, seq, pos):
        if len(seq) != self.p:
            raise RankError(
                f"symbol at offset {pos} has rank {len(seq)}, context expects {self.p}"
            )
        return symbol_poly(kindname, idx, seq, self.n)


def _check_terms(bound, pos):
    if bound > MAX_TERMS:
        raise ParseError(f"expansion to up to {bound} terms is above the cap {MAX_TERMS}", pos)


def parse_expr(src, n, p) -> FieldPoly:
    """Parse a polynomial in y/pi/p symbols of rank p over dimension n."""
    return _Parser(src, n, p).parse()
