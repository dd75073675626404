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

A symbol is one token: the tokenizer reads the name with its bracket
groups, so p[1][2,4] is one regex match, and the parser reads the
leading index, the multi-index and the rank off the match groups.  Every
error in a symbol is reported at an offset inside it: the first index or
character that leaves the grammar, an index outside 1..n, or the '[' that
is not closed.
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

    def expect(self, value):
        kind, text, pos, _ = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, got {text or 'end of input'!r}", pos)

    def parse(self):
        poly = self.expr()
        kind, text, pos, _ = self.peek()
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
            kind, text, pos, _ = self.next()
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
        kind, text, pos, m = self.next()
        if kind == "sym":
            return self.symbol(m)
        if text == "-":
            return -self.factor()
        if text == "(":
            poly = self.expr()
            self.expect(")")
            return poly
        if kind == "num":
            num = int(text)
            if self.peek()[1] == "/":
                self.next()
                dkind, dtext, dpos, _ = self.next()
                if dkind != "num" or int(dtext) == 0:
                    raise ParseError("denominator must be a positive integer", dpos)
                return FieldPoly.const(Fraction(num, int(dtext)))
            return FieldPoly.const(num)
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
        return symbol_poly(name, idx, seq, self.n)

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
        x = int(item[1])
        if not 1 <= x <= self.n:
            raise ParseError(f"index {x} outside 1..{self.n}", item.start(1))
        return x


def _check_terms(bound, pos):
    if bound > MAX_TERMS:
        raise ParseError(f"expansion to up to {bound} terms is above the cap {MAX_TERMS}", pos)


def parse_expr(src, n, p) -> FieldPoly:
    """Parse a polynomial in y/pi/p symbols of rank p over dimension n."""
    return _Parser(src, n, p).parse()
