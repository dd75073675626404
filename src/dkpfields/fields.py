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

The DWH equations are read off nabla H.  Their left-hand sides are fixed
by construction: in y/p symbols the derivative side of each equation is
contracted with L L^-1, so it is sum_mu d[mu]p[mu][I] or d[nu]y[I] when
L L^-1 = 1.  dwh_derive checks that identity once per call with an
explicit raise (python -O keeps it) and writes those forms directly.

All multi-index sums below run over strictly increasing tuples only; the
1/p! weights that would accompany sums over all index orderings are
absorbed by that convention (in nabla, nabla_adjoint, bracket and the
contraction step alike).

The derivative operator into Z_(p) and its adjoint are

    nabla F          = sum_I E([],I) dF/dy[I] + sum_{a,I} E([a],I) dF/dpi[a][I]
    nabla_adjoint G  = sum_I E(I,[]) dG/dy[I] + sum_{a,I} E(I,[a]) dG/dpi[a][I]

and the bracket of two rank-p observables written in y/p symbols is the
vacuum coefficient of

    contract( (nabla_adjoint G') * beta_mu * (nabla F'), p )

with G', F' rewritten in frame momenta and beta_mu the inverse-frame
contraction of the negative vector DKP family.  It equals the closed form

    sum_I ( dG/dy[I] dF/dp[mu][I] - dF/dy[I] dG/dp[mu][I] )

exactly, is antisymmetric, satisfies the Leibniz rule, and satisfies the
symmetrized double-bracket cyclic identity.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from typing import NamedTuple

from ._linalg import identity, mat_mul
from .algebra import AlgebraElement, BasisElement, _coerce, canonicalize, contract
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
    sym = FieldSymbol(kind, tuple(idx), ix)
    return FieldPoly({((sym, 1),): Fraction(sign)})


class FieldPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Monomials are tuples of (FieldSymbol, exponent) pairs sorted by
    FieldSymbol.sort_key; the empty tuple is the constant monomial.  terms
    maps monomials to nonzero coefficients.  The constructor sorts the
    factors of each monomial it is given and adds up terms that then
    coincide.  Immutable after construction.

    One kernel does the arithmetic, at a cost that follows the terms it
    touches.  _mul_into adds a product of two term dicts into a third; *,
    substitute and bracket_closed_form accumulate through it, and ** expands
    by the multinomial theorem through it.  _merge_monomials merges two
    sorted factor lists in one pass.  _gradient reads every partial
    derivative off one pass over the terms, for partial, nabla and
    bracket_closed_form.
    """

    __slots__ = ("terms",)

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
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def of(cls, sym: FieldSymbol):
        return cls({((sym, 1),): Fraction(1)})

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return FieldPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __neg__(self):
        return FieldPoly._raw({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if not c:
                return FieldPoly.zero()
            return FieldPoly._raw({m: c * v for m, v in self.terms.items()})
        if not isinstance(other, FieldPoly):
            return NotImplemented
        return FieldPoly._raw(_mul_into({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, e):
        """self**e by the multinomial theorem, one term per composition of e.

        A t-term polynomial costs C(e + t - 1, t - 1) monomial merges, the
        bound the parser checks before it expands a power.
        """
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return FieldPoly.const(1)
        if e == 1 or not self.terms:
            return self
        powers = [[((), 1), (m, c)] + [(tuple((s, x * k) for s, x in m), c**k)
                                       for k in range(2, e + 1)]
                  for m, c in self.terms.items()]
        return FieldPoly._raw(_pow_into({}, powers, 0, e, (), Fraction(1)))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FieldPoly.const(other)
        if not isinstance(other, FieldPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @staticmethod
    def _lift(other):
        if isinstance(other, (int, Fraction)):
            return FieldPoly.const(other)
        if isinstance(other, FieldPoly):
            return other
        return NotImplemented

    @classmethod
    def _raw(cls, terms):
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    # -- calculus ---------------------------------------------------------

    def partial(self, sym: FieldSymbol):
        """Formal partial derivative by a y/pi/p symbol."""
        if sym.kind in _DERIVATIVE_KINDS:
            raise KindError(f"cannot differentiate by derivative symbol {sym}")
        return _gradient(self).get(sym, FieldPoly.zero())

    def substitute(self, mapping):
        """Replace symbols by polynomials; mapping: FieldSymbol -> FieldPoly.

        Every monomial's product is accumulated into one term dict: factors
        without a replacement stay in the monomial, and each replaced factor
        is multiplied in through _mul_into.
        """
        out = {}
        for mono, c in self.terms.items():
            kept = tuple(f for f in mono if mapping.get(f[0]) is None)
            reps = [mapping[s] ** e for s, e in mono if mapping.get(s) is not None]
            prod = {kept: c}
            for rep in reps[:-1]:
                prod = _mul_into({}, prod, rep.terms)
            _mul_into(out, prod, reps[-1].terms if reps else _ONE)
        return FieldPoly._raw(out)

    def symbols(self):
        return {s for mono in self.terms for s, _ in mono}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(
            self.terms.items(), key=lambda t: tuple((s.sort_key(), e) for s, e in t[0])
        ):
            factors = [str(c)]
            for s, e in mono:
                factors.append(f"{s}^{e}" if e > 1 else str(s))
            parts.append(" * ".join(factors))
        return " + ".join(parts)

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


_ONE = {(): Fraction(1)}


def _mul_into(out, t1, t2):
    """Add the product of term dicts t1 and t2 into out; returns out.

    The one product loop of FieldPoly: a coefficient that cancels is
    removed, so out keeps no zero coefficient.
    """
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = _merge_monomials(m1, m2)
            s = out.get(m)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _pow_into(out, powers, i, left, mono, coeff):
    """Add coeff * mono * (sum of the terms i, i+1, ...)**left into out.

    powers[i][k] is term i to the k, as a (monomial, coefficient) pair.  Each
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
    """{symbol: df/dsymbol} for every symbol of f, in one pass over its terms.

    The symbols of a monomial are distinct, so two terms of f never give
    the same term of one derivative, and no coefficient cancels.
    """
    grad = {}
    for mono, c in f.terms.items():
        for i, (s, e) in enumerate(mono):
            m = mono[:i] + (((s, e - 1),) if e > 1 else ()) + mono[i + 1 :]
            grad.setdefault(s, {})[m] = c * e
    return {s: FieldPoly._raw(d) for s, d in grad.items()}


def _validate(f: FieldPoly, p, n, kinds):
    for s in f.symbols():
        if s.kind not in kinds:
            raise RankError(f"symbol {s} of kind {s.kind!r} not allowed here")
        if len(s.index) != p:
            raise RankError(f"symbol {s} has rank {len(s.index)}, expected {p}")
        if any(x > n for x in s.index) or any(x > n for x in s.idx):
            raise RankError(f"symbol {s} has an index outside 1..{n}")


def _multi_indices(n, p):
    return list(combinations(range(1, n + 1), p))


def nabla(f: FieldPoly, p, n) -> AlgebraElement:
    """Z_(p)-valued derivative of a polynomial in y/pi symbols.

    Every partial derivative is read from one pass over the terms of f
    (_gradient), so the cost follows the terms of f, not the (n+1) C(n,p)
    keys of Z_(p).
    """
    _validate(f, p, n, ("y", "pi"))
    grad = _gradient(f)
    terms = {}
    for I in _multi_indices(n, p):
        c = grad.get(FieldSymbol("y", (), I))
        if c:
            terms[BasisElement((), I)] = c
        for a in range(1, n + 1):
            c = grad.get(FieldSymbol("pi", (a,), I))
            if c:
                terms[BasisElement((a,), I)] = c
    return AlgebraElement(n, terms)


def nabla_adjoint(g: FieldPoly, p, n) -> AlgebraElement:
    """Adjoint-placed derivative: nabla g with each key E(J,K) moved to E(K,J)."""
    return AlgebraElement(n, {BasisElement(be.lower, be.upper): c
                              for be, c in nabla(g, p, n).terms()})


# -- frame-map substitution ----------------------------------------------


def _frame_subst(f: FieldPoly, kind, m, new_kind) -> FieldPoly:
    """kind[a][I] -> sum_b m[a][b] new_kind[b][I]; m = L for p -> pi, L^-1 for pi -> p."""
    mapping = {
        sym: FieldPoly({((FieldSymbol(new_kind, (b,), sym.index), 1),): w
                        for b, w in enumerate(m[sym.idx[0] - 1], start=1)})
        for sym in f.symbols()
        if sym.kind == kind
    }
    return f.substitute(mapping) if mapping else f


def _coefficient(el: AlgebraElement, be) -> FieldPoly:
    """Polynomial coefficient of one basis key (absent keys give 0)."""
    c = el.coefficient(be)
    return FieldPoly.const(c) if isinstance(c, Fraction) else c


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
        out = []
        for I, lhs, rhs in self.momentum:
            out.append((f"p-div[{','.join(map(str, I))}]", lhs, rhs))
        for (mu, I), lhs, rhs in self.field:
            out.append((f"y-deriv[{mu}][{','.join(map(str, I))}]", lhs, rhs))
        return out

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


def dwh_derive(h: FieldPoly, p, lam: FrameMap, n) -> DwhEquations:
    """Derive the covariant Hamiltonian equations for rank-p fields.

    h may be written in y/p symbols (polymomenta are substituted through the
    frame map internally) or directly in y/pi symbols.  The derivation
    equates, key by key, the coefficients of

        beta^mu d_mu Psi_(p)   and   nabla H,

    where Psi_(p) carries formal derivative symbols, and then normalizes
    the resulting equations to y/p symbols so the output does not depend on
    the frame map.

    The right-hand sides come from the E([], I) and E([c], I) coefficients
    of nabla H.  The left-hand sides are written down, not computed: their
    derivative side is sum_{mu,nu} (L L^-1)^mu_nu d[mu]p[nu][I], and
    sum_mu (L L^-1)^mu_nu d[mu]y[I] after recombining the E([c], I) keys
    with L^-1.  Raises ArithmeticError when L L^-1 != 1.
    """
    _validate(h, p, n, ("y", "p", "pi"))
    if lam.n != n:
        raise RankError("frame map dimension must match n")
    if mat_mul(lam.lam, lam.lam_inv) != identity(n):
        raise ArithmeticError("frame map inverse is inconsistent: L L^-1 != 1")
    rhs_el = nabla(_frame_subst(h, "p", lam.lam, "pi"), p, n)

    momentum = []
    field = []
    for I in _multi_indices(n, p):
        lhs = FieldPoly({((dp_sym(mu, mu, I), 1),): 1 for mu in range(1, n + 1)})
        rhs = -_frame_subst(_coefficient(rhs_el, BasisElement((), I)), "pi", lam.lam_inv, "p")
        momentum.append((I, lhs, rhs))
        by_c = [_coefficient(rhs_el, BasisElement((c,), I)) for c in range(1, n + 1)]
        for nu in range(1, n + 1):
            rhs_nu = {}
            for c in range(1, n + 1):
                w = lam.lam_inv[c - 1][nu - 1]
                if w:
                    _mul_into(rhs_nu, {(): w}, by_c[c - 1].terms)
            rhs_nu = _frame_subst(FieldPoly._raw(rhs_nu), "pi", lam.lam_inv, "p")
            field.append(((nu, I), FieldPoly.of(dy_sym(nu, I)), rhs_nu))
    return DwhEquations(n, p, momentum, field)


# -- bracket ---------------------------------------------------------------


def bracket(g: FieldPoly, f: FieldPoly, mu, p, lam: FrameMap, n) -> FieldPoly:
    """Bracket of two rank-p observables in y/p symbols.

    Vacuum coefficient of contract((nabla_adjoint g') beta_mu (nabla f'), p)
    with g', f' rewritten in frame momenta; the result is rewritten back in
    polymomenta.  No 1/p! weight appears: the canonical-multi-index sums in
    the derivative operators absorb it.
    """
    _validate(g, p, n, ("y", "p"))
    _validate(f, p, n, ("y", "p"))
    left = nabla_adjoint(_frame_subst(g, "p", lam.lam, "pi"), p, n)
    right = nabla(_frame_subst(f, "p", lam.lam, "pi"), p, n)
    beta = beta_mu(lam, mu, "lower_neg", n)
    c = _coefficient(contract(left * beta * right, p), BasisElement((), ()))
    return _frame_subst(c, "pi", lam.lam_inv, "p")


def bracket_closed_form(g: FieldPoly, f: FieldPoly, mu, p, n) -> FieldPoly:
    """sum_I ( dg/dy[I] df/dp[mu][I] - df/dy[I] dg/dp[mu][I] )."""
    _validate(g, p, n, ("y", "p"))
    _validate(f, p, n, ("y", "p"))
    dg, df = _gradient(g), _gradient(f)
    out = {}
    for I in _multi_indices(n, p):
        ys, ps = FieldSymbol("y", (), I), FieldSymbol("p", (mu,), I)
        if ys in dg and ps in df:
            _mul_into(out, dg[ys].terms, df[ps].terms)
        if ys in df and ps in dg:
            _mul_into(out, (-df[ys]).terms, dg[ps].terms)
    return FieldPoly._raw(out)


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
