"""Exact rational matrix helpers (small n only).

A matrix m has one form here: the (int rows, den) pair of s * m and s,
with den = s > 0.  _read_rows reads it from the entries once, and
fraction-free Gauss-Jordan after Bareiss on the ints gives the
determinant of a block and, over [s * m | I], the adjugate of s * m.
Fractions appear only at the edges: the views g, g_inv, lam and lam_inv
of _InvertibleMatrix and the minors of compound.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul


class SingularMatrixError(ValueError):
    """Matrix has no exact inverse."""


# Fraction's string syntax: a sign, then digits over digits, or a decimal with an exponent
_ENTRY = re.compile(r"""\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:(?:/(?P<den>\d+(_\d+)*))?|(?:\.(?P<frac>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*""", re.VERBOSE | re.IGNORECASE)

# an entry string holds at most this many digits, and an exponent at most this large
MAX_ENTRY_DIGITS = 100


def _read_entry(x):
    """(numerator, denominator > 0) of an int, a Fraction or a rational string.

    A string in Fraction's syntax is read straight into ints.  One above
    MAX_ENTRY_DIGITS is refused before any arithmetic, so "1e1000000" never
    builds its million-digit numerator.
    """
    if isinstance(x, str):
        if len(x) <= MAX_ENTRY_DIGITS:
            try:
                return int(x), 1
            except ValueError:
                pass
        m = _ENTRY.fullmatch(x)
        if m is None:
            raise ValueError(f"invalid matrix entry {x!r}")
        num, den, frac, exp = (m[k].replace("_", "") if m[k] else ""
                               for k in ("num", "den", "frac", "exp"))
        if (len(num) + len(den) + len(frac) + len(exp) > MAX_ENTRY_DIGITS
                or abs(int(exp or 0)) > MAX_ENTRY_DIGITS):
            raise ValueError(f"matrix entry {x!r} is above the cap: at most {MAX_ENTRY_DIGITS} "
                             f"digits and an exponent of at most {MAX_ENTRY_DIGITS}")
        if den:
            a, d = int(num), int(den)
            if not d:
                raise ZeroDivisionError(f"matrix entry {x!r} divides by zero")
        else:
            e = int(exp or 0) - len(frac)
            a, d = int(num + frac) * 10 ** max(e, 0), 10 ** max(-e, 0)
        g = gcd(a, d)
        return (-a if m["sign"] == "-" else a) // g, d // g
    if isinstance(x, float):
        raise TypeError("float entries are not allowed; use Fraction or int")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def _read_rows(rows):
    """(int rows, den) of a matrix of entries read by _read_entry, of any
    shape, with den the lcm of their denominators."""
    entries = [[_read_entry(x) for x in row] for row in rows]
    scale = lcm(1, *(d for row in entries for _, d in row))
    return [[a * (scale // d) for a, d in row] for row in entries], scale


def _eye(n):
    """The n x n identity as an (int rows, den) pair."""
    return [[int(i == j) for j in range(n)] for i in range(n)], 1


def _bareiss(a):
    """Fraction-free Gauss-Jordan on n integer rows of width >= n, in place.

    Returns the determinant of the leading n x n block B.  When it is
    nonzero, B ends as d * I, with d = +-det B the last pivot, and every
    further column c ends as d * B^-1 c.  Each step divides exactly by the
    previous pivot, since every intermediate entry, above or below the
    pivot, is itself a minor of the input (Bareiss, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination", Math. Comp. 22
    (1968)), so all arithmetic stays in ints.
    """
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        row = a[k]
        pivot = row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(x * pivot - f * y) // prev for x, y in zip(a[i], row)]
        prev = pivot
    return sign * prev


def _inverse_rows(m):
    """m^-1 as an (int rows, den > 0) pair, for m given as an (int rows, den)
    pair, from one Bareiss pass over [s m | I]; raises if singular."""
    rows, scale = m
    n = len(rows)
    a = [row + e for row, e in zip(rows, _eye(n)[0])]
    if not _bareiss(a):
        raise SingularMatrixError("matrix is singular")
    # the left block ends as d * I, so (s m)^-1 = right block / d and m^-1 = s (s m)^-1
    d = a[0][0]
    k = scale if d > 0 else -scale
    return [[k * x for x in row[n:]] for row in a], abs(d)


def _fractions(m):
    rows, den = m
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def invert(m):
    """Exact inverse as Fractions; raises SingularMatrixError if singular and
    ValueError unless m is square and nonempty."""
    return _InvertibleMatrix(m)._inverse


class _InvertibleMatrix:
    """Invertible square matrix m; raises SingularMatrixError if singular.

    m and m^-1 are kept as (int rows, den) pairs with den > 0: m read
    straight from its entries (ints, Fractions or rational strings, by
    _read_rows, so no Fraction is built per string), m^-1 from one Bareiss
    pass over it.  Their Fraction matrices, and whatever else a subclass
    derives from them, are built on first use and kept in _cache.
    """

    __slots__ = ("n", "_rows", "_inv_rows", "_cache")

    def __init__(self, rows):
        self._rows = _read_rows(rows)
        self.n = len(self._rows[0])
        if not self.n or any(len(r) != self.n for r in self._rows[0]):
            raise ValueError("matrix must be square and nonempty")
        self._check()
        self._inv_rows = _inverse_rows(self._rows)
        self._cache = {}

    def _check(self):
        """Raise for a matrix the subclass does not take, before it is inverted."""

    @classmethod
    def identity(cls, n):
        return cls(_eye(n)[0])

    def _cached(self, key, build):
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build()
        return got

    @property
    def _matrix(self):
        return self._cached("m", lambda: _fractions(self._rows))

    @property
    def _inverse(self):
        return self._cached("m_inv", lambda: _fractions(self._inv_rows))

    def __eq__(self, other):
        return type(other) is type(self) and self._rows == other._rows

    def __repr__(self):
        return f"{type(self).__name__}({[list(r) for r in self._matrix]})"


def _apply_rows(m, v):
    """(int numerators, den) of m v, m an (int rows, den) pair; v is scaled to ints."""
    rows, den = m
    s = lcm(1, *(x.denominator for x in v))
    w = [x.numerator * (s // x.denominator) for x in v]
    return [sum(map(mul, row, w)) for row in rows], den * s


def compound(m, p):
    """Nonzero p x p minors of m, given as an (int rows, den) pair, grouped by row set.

    Returns {rows: ((cols, det m[rows, cols]), ...)} over all strictly
    increasing 1-based index tuples of length p, keeping only nonzero minors.
    """
    a, scale = m  # minors of a are scale^p times m's
    sets = list(combinations(range(1, len(a) + 1), p))
    out = {}
    for rows in sets:
        picked = [a[r - 1] for r in rows]
        dets = ((cols, _bareiss([[row[c - 1] for c in cols] for row in picked])) for cols in sets)
        out[rows] = tuple((cols, Fraction(d, scale ** p)) for cols, d in dets if d)
    return out
