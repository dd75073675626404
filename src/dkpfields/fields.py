"""Exact polynomial field calculus over the invariant subspaces.

Field variables of rank p are indexed by strictly increasing multi-indices
I with |I| = p:

    y[I]        field components              kind 'y'
    pi[a][I]    frame momenta                 kind 'pi'
    p[mu][I]    polymomenta                   kind 'p'
    d[mu]y[I]   formal derivative symbols     kind 'Dy'
    d[mu]pi..   formal derivative symbols     kind 'Dpi'
    d[mu]p..    formal derivative symbols     kind 'Dp'

Polymomenta and frame momenta are related through an invertible frame map
L by p[mu][I] = L^mu_c pi[c][I].  The Latin metric is Euclidean
throughout, so raised and lowered field indices coincide.

A FieldPoly stores int numerators over one positive int denominator, in
lowest terms (the content/primitive-part form of Geddes, Czapor and
Labahn, Algorithms for Computer Algebra, 1992, ch. 2).  Products, powers,
substitutions, derivatives and the frame sums all run in ints: L and L^-1
are the (int rows, den) pairs that FrameMap keeps from one Bareiss pass,
read as they are.  Fractions appear only where a polynomial is built from
rational coefficients, in the .terms view, and in str.

All multi-index sums below run over strictly increasing tuples only; the
1/p! weights that would accompany sums over all index orderings are
absorbed by that convention (in nabla, nabla_adjoint, bracket and the
contraction step alike).

The derivative operator into Z_(p) and its adjoint are

    nabla F          = sum_I E([],I) dF/dy[I] + sum_{a,I} E([a],I) dF/dpi[a][I]
    nabla_adjoint G  = sum_I E(I,[]) dG/dy[I] + sum_{a,I} E(I,[a]) dG/dpi[a][I]

A y/p polynomial F enters them through the frame: F' = F(p = L pi) has,
by the chain rule,

    dF'/dpi[c][I] = sum_a L[a][c] dF/dp[a][I],

which is read off one gradient of F and stays in y/p symbols, so no
polynomial is ever rewritten in frame momenta.  The bracket of two rank-p
observables is the vacuum coefficient of

    contract( (nabla_adjoint G') * beta_mu * (nabla F'), p )

with beta_mu the inverse-frame contraction of the negative vector DKP
family, the one place where L^-1 enters.  It equals the closed form

    sum_I ( dG/dy[I] dF/dp[mu][I] - dF/dy[I] dG/dp[mu][I] )

exactly, is antisymmetric, satisfies the Leibniz rule, and satisfies the
symmetrized double-bracket cyclic identity.

The DWH equations are read off one y/p gradient of H, after a pi-written
H is rewritten once by pi -> L^-1 p.  Their left-hand sides are fixed by
construction: in y/p symbols the derivative side of each equation is
contracted with L L^-1, so it is sum_mu d[mu]p[mu][I] or d[nu]y[I] when
L L^-1 = 1.  dwh_derive checks that identity once per call with an
explicit raise (python -O keeps it) and writes those forms directly.
Everything in the equations that depends on (n, p) alone, the symbols,
the left-hand sides and the labels, is built once per shape and shared by
every derivation of that shape, so a call pays only for the gradient of H.
"""

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul
from typing import NamedTuple

from ._linalg import _integer_rows, identity
from .algebra import AlgebraElement, BasisElement, _coerce, canonicalize, contract_product
from .dkp import FrameMap, beta_mu

__all__ = [
    "DwhEquations",
    "FieldPoly",
    "FieldSymbol",
    "KindError",
    "RankError",
    "bracket",
    "bracket_closed_form",
    "check_jacobi_sym",
    "check_leibniz",
    "dwh_derive",
    "nabla",
    "nabla_adjoint",
    "dp_sym",
    "dpi_sym",
    "dy_sym",
    "p_sym",
    "pi_sym",
    "y_sym",
    "symbol_poly",
]


class KindError(ValueError):
    """Operation applied to an unsupported symbol kind."""


class RankError(ValueError):
    """Symbol rank or index range does not match the context."""


_KIND_ORDER = {"y": 0, "pi": 1, "p": 2, "Dy": 3, "Dpi": 4, "Dp": 5}
_DERIVATIVE_KINDS = ("Dy", "Dpi", "Dp")


class FieldSymbol(NamedTuple):
    """One field-variable symbol: kind, leading indices, multi-index."""

    kind: str
    idx: tuple
    index: tuple

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.idx, self.index)

    def __str__(self):
        ilist = ",".join(map(str, self.index))
        if self.kind == "y":
            return f"y[{ilist}]"
        if self.kind in ("pi", "p"):
            return f"{self.kind}[{self.idx[0]}][{ilist}]"
        if self.kind == "Dy":
            return f"d[{self.idx[0]}]y[{ilist}]"
        if self.kind == "Dpi":
            return f"d[{self.idx[0]}]pi[{self.idx[1]}][{ilist}]"
        return f"d[{self.idx[0]}]p[{self.idx[1]}][{ilist}]"


def _check_canonical(ix):
    ix = tuple(ix)
    if any(a >= b for a, b in zip(ix, ix[1:])) or any(x < 1 for x in ix):
        raise RankError(f"multi-index {ix} must be strictly increasing and positive")
    return ix


def y_sym(I):
    return FieldSymbol("y", (), _check_canonical(I))


def pi_sym(a, I):
    return FieldSymbol("pi", (a,), _check_canonical(I))


def p_sym(mu, I):
    return FieldSymbol("p", (mu,), _check_canonical(I))


def dy_sym(mu, I):
    return FieldSymbol("Dy", (mu,), _check_canonical(I))


def dpi_sym(mu, a, I):
    return FieldSymbol("Dpi", (mu, a), _check_canonical(I))


def dp_sym(mu, nu, I):
    return FieldSymbol("Dp", (mu, nu), _check_canonical(I))


def symbol_poly(kind, idx, seq, n):
    """Polynomial for a symbol with a possibly unsorted multi-index.

    Sorting contributes the permutation sign; a repeated index yields the
    zero polynomial.
    """
    sign, ix = canonicalize(seq, n)
    if sign == 0:
        return FieldPoly.zero()
    return FieldPoly._raw({((FieldSymbol(kind, tuple(idx), ix), 1),): sign})


class FieldPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Monomials are tuples of (FieldSymbol, exponent) pairs sorted by
    FieldSymbol.sort_key; the empty tuple is the constant monomial.  A
    polynomial is stored as int numerators over one int denominator,
    num / den, in canonical form: every numerator is nonzero, den > 0 and
    gcd(den, *numerators) = 1, so the zero polynomial has den 1.  Equality
    and hashing read that form.  Immutable after construction.

    Fractions appear only at the boundary: the constructor takes
    {monomial: Fraction or int}, sorts the factors of each monomial and
    adds up terms that then coincide; .terms is the {monomial: Fraction}
    view; str prints each coefficient as a reduced Fraction, and the text is
    kept after the first str, which immutability keeps valid.

    One kernel does the arithmetic, in ints.  _mul_into adds a product of
    two numerator dicts into a third; *, substitute, bracket_closed_form and
    the chain-rule sums of _nabla accumulate through it, and ** expands by
    the multinomial theorem through it.  _merge_monomials merges two sorted
    factor lists in one pass.  _gradient reads every partial derivative off
    one pass over the terms, for every derivative taken in this module.
    Every result is brought to canonical form by _make.
    """

    __slots__ = ("num", "den", "_text")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = _coerce(c)
                if len(mono) > 1:  # sort the factors and combine a repeated symbol
                    mono = reduce(lambda m, f: _merge_monomials(m, (f,)), mono, ())
                if mono in clean:
                    c += clean[mono]
                if c:
                    clean[mono] = c
                else:
                    clean.pop(mono, None)
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(1, *(c.denominator for c in clean.values()))
        self.num = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        self.den = den
        self._text = None

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def const(cls, c):
        if isinstance(c, (int, Fraction)):  # already in lowest terms, den > 0
            return cls._raw({(): c.numerator} if c else {}, c.denominator)
        return cls({(): c})

    @classmethod
    def of(cls, sym: FieldSymbol):
        return cls._raw({((sym, 1),): 1})

    @property
    def terms(self):
        """{monomial: Fraction coefficient}, without zeros."""
        return {m: Fraction(c, self.den) for m, c in self.num.items()}

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        den = lcm(self.den, other.den)
        k1, k2 = den // self.den, den // other.den
        out = dict(self.num) if k1 == 1 else {m: k1 * c for m, c in self.num.items()}
        for m, c in other.num.items():
            s = out.get(m, 0) + k2 * c
            if s:
                out[m] = s
            else:
                del out[m]
        return FieldPoly._make(out, den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return FieldPoly._raw({m: -c for m, c in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return FieldPoly.zero()
            return FieldPoly._make({m: other.numerator * v for m, v in self.num.items()},
                                   other.denominator * self.den)
        if not isinstance(other, FieldPoly):
            return NotImplemented
        return FieldPoly._make(_mul_into({}, self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e):
        """self**e by the multinomial theorem, one term per composition of e.

        A t-term polynomial costs C(e + t - 1, t - 1) monomial merges, the
        bound the parser checks before it expands a power.  One term c m / d
        goes straight to c**e m**e / d**e, already canonical: gcd(c, d) = 1
        gives gcd(c**e, d**e) = 1, and scaling the exponents of m keeps its
        factors sorted.
        """
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return FieldPoly.const(1)
        if e == 1 or not self.num:
            return self
        if len(self.num) == 1:
            ((m, c),) = self.num.items()
            return FieldPoly._raw({tuple((s, x * e) for s, x in m): c**e}, self.den**e)
        powers = [[((), 1), (m, c)] + [(tuple((s, x * k) for s, x in m), c**k)
                                       for k in range(2, e + 1)]
                  for m, c in self.num.items()]
        return FieldPoly._make(_pow_into({}, powers, 0, e, (), 1), self.den**e)

    def __bool__(self):
        return bool(self.num)

    def __len__(self):
        return len(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FieldPoly.const(other)
        if not isinstance(other, FieldPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    @staticmethod
    def _lift(other):
        if isinstance(other, (int, Fraction)):
            return FieldPoly.const(other)
        if isinstance(other, FieldPoly):
            return other
        return NotImplemented

    @classmethod
    def _raw(cls, num, den=1):
        """Wrap num / den, which must already be in canonical form."""
        poly = object.__new__(cls)
        poly.num = num
        poly.den = den
        poly._text = None
        return poly

    @classmethod
    def _make(cls, num, den):
        """num / den with nonzero numerators and den > 0, brought to canonical form."""
        if den != 1:
            g = gcd(den, *num.values())  # den itself when num is empty
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        return cls._raw(num, den)

    # -- calculus ---------------------------------------------------------

    def partial(self, sym: FieldSymbol):
        """Formal partial derivative by a y/pi/p symbol."""
        if sym.kind in _DERIVATIVE_KINDS:
            raise KindError(f"cannot differentiate by derivative symbol {sym}")
        return FieldPoly._make(_gradient(self).get(sym, {}), self.den)

    def substitute(self, mapping):
        """Replace symbols by polynomials; mapping: FieldSymbol -> FieldPoly.

        A monomial whose replaced factors have denominators d_1 .. d_k gets
        its numerator product over d_1 ... d_k; each is scaled to the lcm D of
        those products over all monomials, so every product is accumulated
        into one numerator dict over D times the denominator of self.
        Factors without a replacement stay in the monomial, and each replaced
        factor is multiplied in through _mul_into.
        """
        rows = []
        for mono, c in self.num.items():
            kept, reps, den = [], [], 1
            for s, e in mono:
                rep = mapping.get(s)
                if rep is None:
                    kept.append((s, e))
                else:
                    rep = rep**e
                    reps.append(rep.num)
                    den *= rep.den
            rows.append((tuple(kept), c, reps, den))
        scale = lcm(1, *(den for *_, den in rows))
        out = {}
        for kept, c, reps, den in rows:
            prod = {kept: c * (scale // den)}
            for rep in reps[:-1]:
                prod = _mul_into({}, prod, rep)
            _mul_into(out, prod, reps[-1] if reps else _ONE)
        return FieldPoly._make(out, scale * self.den)

    def symbols(self):
        return {s for mono in self.num for s, _ in mono}

    def __str__(self):
        if self._text is not None:
            return self._text
        parts = []
        for mono, c in sorted(
            self.num.items(), key=lambda t: tuple((s.sort_key(), e) for s, e in t[0])
        ):
            g = gcd(c, self.den)  # the reduced Fraction c / den, as str(Fraction) writes it
            factors = [f"{c // g}/{self.den // g}" if self.den != g else str(c // g)]
            for s, e in mono:
                factors.append(f"{s}^{e}" if e > 1 else str(s))
            parts.append(" * ".join(factors))
        self._text = " + ".join(parts) or "0"
        return self._text

    def __repr__(self):
        return f"FieldPoly({self})"


def _merge_monomials(m1, m2):
    """Product of two monomials, by one merge of their sorted factor lists."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        (s, e), (t, f) = m1[i], m2[j]
        if s == t:
            out.append((s, e + f))
            i += 1
            j += 1
        elif s.sort_key() < t.sort_key():
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return (*out, *m1[i:], *m2[j:])


_ONE = {(): 1}


def _mul_into(out, t1, t2):
    """Add the product of numerator dicts t1 and t2 into out; returns out.

    The one product loop of FieldPoly, over ints: a coefficient that
    cancels is removed, so out keeps no zero numerator.  The caller puts the
    result over its denominator.
    """
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = _merge_monomials(m1, m2) if m1 and m2 else m1 or m2
            s = out.get(m)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pow_into(out, powers, i, left, mono, coeff):
    """Add coeff * mono * (sum of the terms i, i+1, ...)**left into out.

    powers[i][k] is term i to the k, as a (monomial, int numerator) pair.  Each
    level picks the exponent k of one term, with weight C(left, k); the last
    term takes what is left, so every composition is visited once.
    """
    if i == len(powers) - 1:
        m, c = powers[i][left]
        return _mul_into(out, {mono: coeff}, {m: c})
    for k in range(left + 1):
        m, c = powers[i][k]
        _pow_into(out, powers, i + 1, left - k, _merge_monomials(mono, m),
                  coeff * (comb(left, k) * c) if k else coeff)
    return out


def _gradient(f: FieldPoly):
    """{symbol: numerators of df/dsymbol over f.den} for every symbol of f,
    in one pass over its terms.

    The symbols of a monomial are distinct, so two terms of f never give
    the same term of one derivative, and no numerator cancels.  All
    derivatives share the denominator of f, so products of derivatives of
    two polynomials share one denominator too.
    """
    grad = {}
    for mono, c in f.num.items():
        for i, (s, e) in enumerate(mono):
            m = mono[:i] + (((s, e - 1),) if e > 1 else ()) + mono[i + 1 :]
            grad.setdefault(s, {})[m] = c * e
    return grad


def _validate(f: FieldPoly, p, n, kinds):
    for s in f.symbols():
        if s.kind not in kinds:
            raise RankError(f"symbol {s} of kind {s.kind!r} not allowed here")
        if len(s.index) != p:
            raise RankError(f"symbol {s} has rank {len(s.index)}, expected {p}")
        if not all(1 <= x <= n for x in s.idx + s.index):
            raise RankError(f"symbol {s} has an index outside 1..{n}")


def _multi_indices(n, p):
    return list(combinations(range(1, n + 1), p))


def nabla(f: FieldPoly, p, n) -> AlgebraElement:
    """Z_(p)-valued derivative of a polynomial in y/pi symbols."""
    _validate(f, p, n, ("y", "pi"))
    return _nabla(f, p, n, "pi", _integer_rows(identity(n)))


def nabla_adjoint(g: FieldPoly, p, n) -> AlgebraElement:
    """Adjoint-placed derivative: nabla g with each key E(J,K) moved to E(K,J)."""
    return _adjoint_placed(nabla(g, p, n))


def _nabla(f: FieldPoly, p, n, kind, frame) -> AlgebraElement:
    """E([],I) -> df/dy[I] and E([c],I) -> sum_a m[a][c] df/dkind[a][I],
    for m given as an (int rows, den) pair.

    With kind 'pi' and m = 1 this is nabla f; with kind 'p' and m = L it is
    nabla of f(p = L pi) by the chain rule, left in y/p symbols.  The keys
    are read off one _gradient of f, so the cost follows the terms of f,
    not the (n+1) C(n,p) keys of Z_(p).
    """
    rows, den = frame
    terms, sums = {}, {}
    for s, d in _gradient(f).items():
        if s.kind == "y":
            terms[BasisElement((), s.index)] = FieldPoly._make(d, f.den)
        else:
            for c, w in enumerate(rows[s.idx[0] - 1], 1):
                if w:
                    _mul_into(sums.setdefault(BasisElement((c,), s.index), {}), {(): w}, d)
    for key, out in sums.items():
        if out:
            terms[key] = FieldPoly._make(out, f.den * den)
    return AlgebraElement._raw(n, terms)


def _adjoint_placed(el: AlgebraElement) -> AlgebraElement:
    return AlgebraElement._raw(el.n, {BasisElement(be.lower, be.upper): c
                                      for be, c in el._terms.items()})


def _frame_subst(f: FieldPoly, inverse) -> FieldPoly:
    """pi[a][I] -> sum_b L^-1[a][b] p[b][I], with L^-1 given as an
    (int rows, den) pair."""
    rows, den = inverse
    mapping = {s: FieldPoly._make({((FieldSymbol("p", (b,), s.index), 1),): w
                                   for b, w in enumerate(rows[s.idx[0] - 1], 1) if w}, den)
               for s in f.symbols() if s.kind == "pi"}
    return f.substitute(mapping) if mapping else f


# -- covariant Hamiltonian field equations --------------------------------


class DwhEquations:
    """Derived field equations for a rank-p Hamiltonian.

    momentum: one equation per multi-index I,
        sum_mu d[mu]p[mu][I]  =  - dH/dy[I];
    field: one equation per (mu, I),
        d[mu]y[I]  =  dH/dp[mu][I].

    Both sides are expressed in y/p symbols, so the set is identical for
    every invertible frame map used in the derivation.
    """

    __slots__ = ("n", "p", "momentum", "field")

    def __init__(self, n, p, momentum, field):
        self.n = n
        self.p = p
        self.momentum = tuple(momentum)
        self.field = tuple(field)

    def equations(self):
        """(label, lhs, rhs) triples in deterministic order."""
        _, momentum_labels, field_labels = _dwh_skeleton(self.n, self.p)
        return ([(momentum_labels[I], lhs, rhs) for I, lhs, rhs in self.momentum]
                + [(field_labels[key], lhs, rhs) for key, lhs, rhs in self.field])

    def lines(self):
        return [f"{label}: {lhs} = {rhs}" for label, lhs, rhs in self.equations()]

    def __eq__(self, other):
        if not isinstance(other, DwhEquations):
            return NotImplemented
        return (
            self.n == other.n
            and self.p == other.p
            and self.momentum == other.momentum
            and self.field == other.field
        )

    def __repr__(self):
        return "\n".join(self.lines())


@cache
def _dwh_skeleton(n, p):
    """The part of the rank-p DWH equations over dimension n that H does not
    change, built once per (n, p) and shared by every derivation.

    Returns (rows, momentum_labels, field_labels).  rows holds, for each
    canonical I in output order, (I, y[I], sum_mu d[mu]p[mu][I], field_rows),
    and field_rows holds ((nu, I), p[nu][I], d[nu]y[I]) for each nu.  The
    labels map I and (nu, I) to the report names p-div[I] and
    y-deriv[nu][I].  The polynomials are immutable, so sharing them is safe,
    and each one prints once per process.
    """
    rows, momentum_labels, field_labels = [], {}, {}
    for I in _multi_indices(n, p):  # canonical, so the symbols need no check
        ilist = ",".join(map(str, I))
        momentum_labels[I] = f"p-div[{ilist}]"
        field_rows = []
        for nu in range(1, n + 1):
            field_labels[nu, I] = f"y-deriv[{nu}][{ilist}]"
            field_rows.append(((nu, I), FieldSymbol("p", (nu,), I),
                               FieldPoly.of(FieldSymbol("Dy", (nu,), I))))
        lhs = FieldPoly._raw({((FieldSymbol("Dp", (mu, mu), I), 1),): 1
                              for mu in range(1, n + 1)})
        rows.append((I, FieldSymbol("y", (), I), lhs, tuple(field_rows)))
    return tuple(rows), momentum_labels, field_labels


def dwh_derive(h: FieldPoly, p, lam: FrameMap, n) -> DwhEquations:
    """Derive the covariant Hamiltonian equations for rank-p fields.

    h may be written in y/p symbols, in y/pi symbols or in both.  Frame
    momenta are rewritten once, by pi -> L^-1 p, and the right-hand sides
    -dH/dy[I] and dH/dp[nu][I] are read off one y/p gradient of h, so the
    output does not depend on the frame map.  Read through the frame they
    are the E([], I) and E([c], I) keys of nabla H', H' = H(p = L pi),
    with the chain-rule factor sum_nu L[nu][c] undone by L^-1 once
    L L^-1 = 1.  The left-hand sides are written down by the same
    identity (module docstring); deriving them from the DKP action is
    ROADMAP item 2.  They, the symbols and the labels come from the
    per-shape _dwh_skeleton, so each equation costs one gradient lookup.

    L = A / s and L^-1 = B / t, for integer matrices A and B, are the pairs
    the frame map keeps.  Raises ArithmeticError unless A B = s t I.
    """
    _validate(h, p, n, ("y", "p", "pi"))
    if lam.n != n:
        raise RankError("frame map dimension must match n")
    (a, s), (b, t) = lam._rows, lam._inv_rows
    cols, st = list(zip(*b)), s * t
    if any(sum(map(mul, row, col)) != (st if i == j else 0)
           for i, row in enumerate(a) for j, col in enumerate(cols)):
        raise ArithmeticError("frame map inverse is inconsistent: L L^-1 != 1")
    h = _frame_subst(h, (b, t))
    grad = _gradient(h)
    zero = FieldPoly.zero()

    momentum = []
    field = []
    rows, _, _ = _dwh_skeleton(n, p)
    for I, ys, lhs, field_rows in rows:
        d = grad.get(ys)
        momentum.append((I, lhs, FieldPoly._make({m: -c for m, c in d.items()}, h.den)
                         if d else zero))
        for key, ps, dy in field_rows:
            d = grad.get(ps)
            field.append((key, dy, FieldPoly._make(d, h.den) if d else zero))
    return DwhEquations(n, p, momentum, field)


# -- bracket ---------------------------------------------------------------


def bracket(g: FieldPoly, f: FieldPoly, mu, p, lam: FrameMap, n) -> FieldPoly:
    """Bracket of two rank-p observables in y/p symbols.

    Vacuum coefficient of contract((nabla_adjoint g') beta_mu (nabla f'), p)
    for g' = g(p = L pi) and f' = f(p = L pi).  The frame-momentum
    derivatives are taken by the chain rule (_nabla), so every coefficient
    stays in y/p symbols and L^-1 enters only through beta_mu.  Of the last
    product only the E(I,I) keys that reach the vacuum are formed
    (contract_product).  No 1/p! weight appears: the canonical-multi-index
    sums in the derivative operators absorb it.
    """
    _validate(g, p, n, ("y", "p"))
    _validate(f, p, n, ("y", "p"))
    beta = beta_mu(lam, mu, "lower_neg", n)
    left = _adjoint_placed(_nabla(g, p, n, "p", lam._rows))
    right = _nabla(f, p, n, "p", lam._rows)
    c = contract_product(left * beta, right, p)
    return FieldPoly.const(c) if isinstance(c, Fraction) else c  # Fraction(0) if absent


def bracket_closed_form(g: FieldPoly, f: FieldPoly, mu, p, n) -> FieldPoly:
    """sum_I ( dg/dy[I] df/dp[mu][I] - df/dy[I] dg/dp[mu][I] )."""
    _validate(g, p, n, ("y", "p"))
    _validate(f, p, n, ("y", "p"))
    dg, df = _gradient(g), _gradient(f)
    out = {}
    for I in _multi_indices(n, p):
        ys, ps = FieldSymbol("y", (), I), FieldSymbol("p", (mu,), I)
        if ys in dg and ps in df:
            _mul_into(out, dg[ys], df[ps])
        if ys in df and ps in dg:
            _mul_into(out, {m: -c for m, c in df[ys].items()}, dg[ps])
    return FieldPoly._make(out, g.den * f.den)


def check_leibniz(g, f, k, mu, p, lam, n):
    """Residual {g*f, k} - f*{g, k} - g*{f, k}; zero iff the rule holds."""
    return (
        bracket(g * f, k, mu, p, lam, n)
        - f * bracket(g, k, mu, p, lam, n)
        - g * bracket(f, k, mu, p, lam, n)
    )


def check_jacobi_sym(g, f, k, mu, nu, p, lam, n):
    """Symmetrized double-bracket cyclic residual.

    (1/2) [ {{g,f}_mu, k}_nu + {{g,f}_nu, k}_mu ]  +  cyclic(g, f, k);
    the zero polynomial iff the generalized Jacobi identity holds.
    """
    half = Fraction(1, 2)
    out = FieldPoly.zero()
    for x, y, z in ((g, f, k), (f, k, g), (k, g, f)):
        inner_mu = bracket(x, y, mu, p, lam, n)
        inner_nu = bracket(x, y, nu, p, lam, n)
        out = out + half * (
            bracket(inner_mu, z, nu, p, lam, n) + bracket(inner_nu, z, mu, p, lam, n)
        )
    return out
