"""Exact Clifford algebra of a split bilinear form in the projector basis.

The algebra G_n is generated by vectors (e_1 .. e_n) and covectors
(e^1 .. e^n) subject to

    (e_i)(e^j) + (e^j)(e_i) = delta_i^j * 1,
    (e_i)(e_j) + (e_j)(e_i) = 0,
    (e^i)(e^j) + (e^j)(e^i) = 0.

Around the vacuum idempotent (P) = (e_1)..(e_n)(e^n)..(e^1) one builds the
2^(2n) basis elements

    E(J, K)  =  (e^{j_1}) .. (e^{j_p}) (P) (e_{k_q}) .. (e_{k_1}),

where J = (j_1 < .. < j_p) and K = (k_1 < .. < k_q) are strictly increasing
multi-indices.  Note the vector word on the right runs through K in
*descending* order; an arbitrary word is brought to this form by
anticommuting factors, which only produces signs (see basis_word).  In this
storage the product collapses to the matrix-unit rule

    E(J, K) * E(J', K')  =  [K == J'] * E(J, K'),

so multiplication is exact, associative by construction, and sign-free.
All signs of the theory live in the embeddings of vectors/covectors, in
basis_word, and for the metric adjoint in the minors of the metric.
Coefficients are Fractions (or any exact ring element that
supports +, *, unary -, and truthiness testing for zero).
"""

from fractions import Fraction
from itertools import combinations
from operator import lt
from typing import NamedTuple

from ._linalg import SingularMatrixError, _apply_rows, _InvertibleMatrix, compound

__all__ = [
    "AlgebraElement",
    "BasisElement",
    "DimensionMismatchError",
    "GradeError",
    "IndexRangeError",
    "Metric",
    "SingularMatrixError",
    "adjoint",
    "basis_elements",
    "basis_word",
    "canonicalize",
    "contract",
    "embed_covector",
    "embed_vector",
    "gen_delta",
    "projector_p",
    "projector_pi",
    "single",
    "unit",
    "zero",
]


class IndexRangeError(ValueError):
    """Index outside 1..n or rank outside 0..n."""


class DimensionMismatchError(ValueError):
    """Operands live in algebras of different dimension."""


class GradeError(ValueError):
    """Element has support outside the requested grade."""


def _index(i, n):
    """An index in 1..n; a non-int or an index outside raises, so none wraps."""
    if not isinstance(i, int):
        raise TypeError(f"index must be an int, not {type(i).__name__}")
    if not 1 <= i <= n:
        raise IndexRangeError(f"index {i} outside 1..{n}")
    return i


def _check_rank(n, p):
    """The one rank check: p in 0..n, for projectors, subspaces and fields."""
    if not 0 <= p <= n:
        raise IndexRangeError(f"rank {p} outside 0..{n}")


def _multi_indices(n, p):
    """The strictly increasing multi-indices of length p over 1..n, in lexicographic order."""
    return list(combinations(range(1, n + 1), p))


def canonicalize(seq, n):
    """Sort an index tuple, tracking the permutation parity.

    Returns (sign, sorted_tuple) where sign is +1/-1 for the parity of the
    sorting permutation and 0 (with index ()) when an entry repeats, since a
    repeated index annihilates any antisymmetric component.
    """
    seq = tuple(_index(x, n) for x in seq)
    if len(set(seq)) != len(seq):
        return 0, ()
    return _sort_parity(seq)


def _sort_parity(seq):
    """(sign, sorted tuple) for distinct items; sign is the sorting parity."""
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return (-1 if inversions % 2 else 1), tuple(sorted(seq))


def gen_delta(jp, k):
    """Generalized Kronecker delta det(delta^{jp_a}_{k_b}).

    Zero unless the two tuples are equal as sets of distinct indices, in
    which case it is the sign of the permutation taking k onto jp: the
    product of the two sorting parities.
    """
    jp, k = tuple(jp), tuple(k)
    if len(jp) != len(k) or len(set(jp)) != len(jp) or set(jp) != set(k):
        return Fraction(0)
    return Fraction(_sort_parity(jp)[0] * _sort_parity(k)[0])


class BasisElement(NamedTuple):
    """One basis element E(upper, lower); both tuples strictly increasing."""

    upper: tuple
    lower: tuple

    def sort_key(self):
        return (len(self.upper), len(self.lower), self.upper, self.lower)

    def __str__(self):
        up = ",".join(map(str, self.upper))
        lo = ",".join(map(str, self.lower))
        return f"E[{up}|{lo}]"


def _check_multi_index(ix, n):
    ix = tuple(ix)
    if all(map(lt, ix, ix[1:])):  # strictly increasing: the ends bound every entry
        if not ix or 1 <= ix[0] and ix[-1] <= n:
            for x in ix:
                _index(x, n)  # refuses a non-int entry
            return ix
    elif all(1 <= x <= n for x in ix):  # a range error outranks an order error
        raise ValueError(f"multi-index {ix} must be strictly increasing")
    raise IndexRangeError(f"multi-index {ix} outside 1..{n}")


def basis_elements(n):
    """All 2^(2n) basis elements, in canonical order."""
    subsets = [c for p in range(n + 1) for c in _multi_indices(n, p)]
    return [BasisElement(j, k) for j in subsets for k in subsets]


def _coerce(c):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    return c


_ZERO = Fraction(0)  # Fractions are immutable: one shared default for coefficient()

# per n, one checked BasisElement of tuples for each basis element the
# constructor has accepted, mapped to itself, so at most 4^n entries per n
_KEYS = {}


class AlgebraElement:
    """Sparse exact linear combination of basis elements of G_n.

    Immutable after construction: every operation returns a new element.
    The term mapping never stores zero coefficients.  The constructor
    checks each key once per n and keeps one BasisElement of tuples for
    it, which every element built from an equal key then shares, so at
    most 4^n keys are kept per n.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n, terms=None):
        if n < 1:
            raise IndexRangeError("dimension n must be >= 1")
        self.n = n
        clean = {}
        if terms:
            keys = _KEYS.setdefault(n, {})
            for be, c in terms.items():
                c = _coerce(c)
                if c:
                    # a plain tuple equals a BasisElement, so only a BasisElement is looked up
                    key = keys.get(be) if type(be) is BasisElement else None
                    if key is None:
                        key = BasisElement(_check_multi_index(be.upper, n),
                                           _check_multi_index(be.lower, n))
                        # a key of other sequences, such as a range, is not equal to its
                        # tuples, so it is kept as given rather than merged with them
                        key = keys.setdefault(key, key) if key == be else be
                    clean[key] = c
        self._terms = clean

    # -- inspection ------------------------------------------------------

    def terms(self):
        """Terms as (BasisElement, coefficient) pairs in canonical order."""
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def coefficient(self, be):
        return self._terms.get(be, _ZERO)

    def support(self):
        return frozenset(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    # -- ring operations -------------------------------------------------

    def _require_same_n(self, other):
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension mismatch: {self.n} != {other.n}")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_n(other)
        out = dict(self._terms)
        for be, c in other._terms.items():
            s = out.get(be)
            s = c if s is None else s + c
            if s:
                out[be] = s
            else:
                out.pop(be, None)
        return AlgebraElement._raw(self.n, out)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return AlgebraElement._raw(self.n, {be: -c for be, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same_n(other)
            out = {}
            for (j, k), c1 in self._terms.items():
                for (j2, k2), c2 in other._terms.items():
                    if k != j2:
                        continue
                    be = BasisElement(j, k2)
                    s = out.get(be)
                    p = c1 * c2
                    s = p if s is None else s + p
                    if s:
                        out[be] = s
                    else:
                        out.pop(be, None)
            return AlgebraElement._raw(self.n, out)
        return self._scale(other)

    def __rmul__(self, other):
        return self._scale(other)

    def _scale(self, c):
        c = _coerce(c)
        if not c:
            return AlgebraElement._raw(self.n, {})
        return AlgebraElement._raw(self.n, {be: c * v for be, v in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    # -- construction ----------------------------------------------------

    @classmethod
    def _raw(cls, n, terms):
        """Build from an already-normalized term dict (no copies, no checks)."""
        el = object.__new__(cls)
        el.n = n
        el._terms = terms
        return el

    def __str__(self):
        if not self._terms:
            return "0"
        return " + ".join(f"{c} * {be}" for be, c in self.terms())

    def __repr__(self):
        return f"<G_{self.n}: {self}>"


def zero(n):
    return AlgebraElement._raw(n, {})


def single(n, upper, lower, coeff=1):
    """One validated basis term coeff * E(upper, lower)."""
    be = BasisElement(_check_multi_index(upper, n), _check_multi_index(lower, n))
    return AlgebraElement(n, {be: _coerce(coeff)})


def _canonical_lower(seq, n):
    """Sign and stored tuple for a vector word given in product order.

    The stored descending word for lower index K is (k_q .. k_1); sorting a
    q-element word contributes the usual parity, and the extra reversal
    contributes (-1)^(q(q-1)/2).
    """
    sign, ix = canonicalize(seq, n)
    if sign == 0:
        return 0, ()
    q = len(ix)
    if (q * (q - 1) // 2) % 2:
        sign = -sign
    return sign, ix


def basis_word(n, upper_seq, lower_seq, coeff=1):
    """Element for a raw generator word around the vacuum idempotent.

    upper_seq lists the covector factors left of the idempotent in product
    order; lower_seq lists the vector factors right of it in product order.
    Repeated factors annihilate the word.  Returns the canonical element,
    signs included.
    """
    su, up = canonicalize(upper_seq, n)
    if su == 0:
        return zero(n)
    sl, lo = _canonical_lower(lower_seq, n)
    if sl == 0:
        return zero(n)
    return single(n, up, lo, _coerce(coeff) * su * sl)


def projector_p(n):
    """The vacuum idempotent E([], [])."""
    return single(n, (), ())


def projector_pi(p, n):
    """Grade projector: sum of E(J, J) over all |J| = p."""
    _check_rank(n, p)
    return AlgebraElement._raw(n, {BasisElement(j, j): Fraction(1) for j in _multi_indices(n, p)})


def unit(n):
    """Two-sided identity: sum of all grade projectors."""
    return AlgebraElement._raw(n, {BasisElement(j, j): Fraction(1)
                                   for p in range(n + 1) for j in _multi_indices(n, p)})


def _embed_signs(j, n):
    """Yield (sign, J, J + {j}) over subsets J avoiding j.

    sign = (-1)^(number of elements of J below j), the parity of sorting
    (j,) + J; fixed against the fermionic oracle so the anticommutation
    relations hold exactly.
    """
    others = [x for x in range(1, n + 1) if x != j]
    for p in range(len(others) + 1):
        for sub in combinations(others, p):
            sign, merged = _sort_parity((j,) + sub)
            yield sign, sub, merged


def _components(v, n=None):
    """Coerced component tuple; its length must equal n when n is given."""
    v = tuple(_coerce(c) for c in v)
    if n is not None and len(v) != n:
        raise DimensionMismatchError("component count must equal n")
    return v


def _embed(v, n, covector):
    """Shared body of the embeddings; each key determines its j, so no sums."""
    v = _components(v, n)
    n = len(v)
    terms = {}
    for j, c in enumerate(v, start=1):
        if c:
            for sign, sub, merged in _embed_signs(j, n):
                be = BasisElement(merged, sub) if covector else BasisElement(sub, merged)
                terms[be] = sign * c
    return AlgebraElement._raw(n, terms)


def embed_vector(v, n=None):
    """Image of the vector v^j e_j in the projector basis.

    Expands e_j = sum over subsets J (j not in J) of +/- E(J, J + {j}).
    """
    return _embed(v, n, covector=False)


def embed_covector(a, n=None):
    """Image of the covector a_j e^j in the projector basis.

    Expands e^j = sum over subsets J (j not in J) of +/- E(J + {j}, J).
    """
    return _embed(a, n, covector=True)


class Metric(_InvertibleMatrix):
    """Symmetric invertible matrix g with exact inverse; raises if singular.

    flat, sharp, pair and pair_inv run in ints on the (int rows, den) pairs
    of g and g^-1 and build one Fraction per result component.
    """

    __slots__ = ()
    g = _InvertibleMatrix._matrix
    g_inv = _InvertibleMatrix._inverse

    def _check(self):
        a = self._rows[0]
        if a != [list(col) for col in zip(*a)]:
            raise ValueError("metric must be symmetric")

    @classmethod
    def euclidean(cls, n):
        return cls.identity(n)

    def flat(self, v):
        """Lower an index: vector components -> covector components."""
        return self._image(self._rows, _components(v, self.n))

    def sharp(self, a):
        """Raise an index: covector components -> vector components."""
        return self._image(self._inv_rows, _components(a, self.n))

    def pair(self, v, w):
        """g(v, w) on vector components."""
        return self._dot(self._rows, v, w)

    def pair_inv(self, a, b):
        """g^{-1}(a, b) on covector components."""
        return self._dot(self._inv_rows, a, b)

    def _image(self, m, v, s=1):
        """s * m v for checked components v, with m one of the int pairs."""
        nums, den = _apply_rows(m, v)
        return tuple(Fraction(s * x, den) for x in nums)

    def _dot(self, m, v, w):
        """w . (m v) in ints: the numerators of m v, as a one-row pair, applied to w."""
        nums, den = _apply_rows(m, _components(v, self.n))
        (x,), den = _apply_rows(((nums,), den), _components(w, self.n))
        return Fraction(x, den)

    def _minors_of(self, p):
        """Nonzero p x p minors of g and of g^{-1}, each as {rows: ((cols, det), ...)}.

        Built on the first request for grade p and kept with the metric, so a
        metric that never meets an adjoint never pays for them.
        """
        return self._cached(p, lambda: (compound(self._rows, p), compound(self._inv_rows, p)))


def adjoint(x, g):
    """Metric adjunction: the involutive antihomomorphism with

        (e_i)+ = g_ij (e^j),   (e^i)+ = g^ij (e_j),   (P)+ = (P).

    Reversing E(J, K) and mapping each factor through the metric gives, by
    Cauchy-Binet, the sign-free closed form

        E(J, K)+  =  sum_{A, B} det g[K, A] * det g^{-1}[J, B] * E(A, B),

    with |A| = |K| and |B| = |J|: the minors of g and g^{-1} carry every
    sign that re-canonicalizing the reversed words would produce.
    """
    if x.n != g.n:
        raise DimensionMismatchError("metric dimension must match element")
    out = {}
    for (up, lo), c in x._terms.items():
        covector_rows = g._minors_of(len(lo))[0][lo]
        vector_rows = g._minors_of(len(up))[1][up]
        for a, ma in covector_rows:
            cm = c * ma
            for b, mb in vector_rows:
                be = BasisElement(a, b)
                s = out.get(be)
                out[be] = cm * mb if s is None else s + cm * mb
    return AlgebraElement._raw(x.n, {be: v for be, v in out.items() if v})


def contract(x, p):
    """Full contraction of a pure grade-(p,p) element down to the vacuum line.

    E(J, K) with |J| = |K| = p contracts to [J == K] * E([], []); any term of
    a different grade raises GradeError.  On raw words built by basis_word
    this reproduces the generalized-delta contraction rule.
    """
    total = None
    for (up, lo), c in x._terms.items():
        if len(up) != p or len(lo) != p:
            raise GradeError(f"term E{(up, lo)} is not of grade ({p},{p})")
        if up == lo:
            total = c if total is None else total + c
    out = zero(x.n)
    if total is not None and total:
        return AlgebraElement._raw(x.n, {BasisElement((), ()): total})
    return out
