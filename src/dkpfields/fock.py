"""Fermionic Fock-space oracle for the split-form Clifford algebra.

Vectors map to annihilation operators and covectors to creation operators
on the 2^n occupation basis, which realizes the defining anticommutation
relations directly.  Everything here is built from the combinatorial
definition of a_i / a+_j and dense exact matrix products only, never from
the structure-constant product, so equality

    represent(x * y) == represent(x) @ represent(y)

is an independent check of the algebra multiplication.

Basis states are occupation bitmasks: state s has mode i occupied iff bit
(i-1) of s is set, and the column/row index of |s> is s itself.  The
fermionic phase of a_i / a+_i on |s> is (-1)^(number of occupied modes
below i).  Dense matrices are fine here: n is capped at 4 (16 x 16).
"""

from fractions import Fraction
from functools import cache

from .algebra import AlgebraElement, IndexRangeError

_ORACLE_N_CAP = 4

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DenseOperator:
    """Dense 2^n x 2^n matrix of Fractions."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        self.n = n
        dim = 1 << n
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError(f"operator for n={n} must be {dim}x{dim}")
        self.rows = rows

    @classmethod
    def _trusted(cls, n, rows):
        # internal: rows already a tuple-of-tuples of Fractions
        op = object.__new__(cls)
        op.n = n
        op.rows = rows
        return op

    @classmethod
    def zero(cls, n):
        dim = 1 << n
        return cls._trusted(n, tuple((_ZERO,) * dim for _ in range(dim)))

    @classmethod
    def identity(cls, n):
        dim = 1 << n
        return cls._trusted(
            n, tuple(tuple(_ONE if i == j else _ZERO for j in range(dim)) for i in range(dim))
        )

    def __matmul__(self, other):
        dim = 1 << self.n
        out = [[_ZERO] * dim for _ in range(dim)]
        brows = other.rows
        for i, arow in enumerate(self.rows):
            orow = out[i]
            for k, a in enumerate(arow):
                if a:
                    brow = brows[k]
                    for j, b in enumerate(brow):
                        if b:
                            orow[j] += a * b
        return DenseOperator._trusted(self.n, tuple(map(tuple, out)))

    def __add__(self, other):
        return DenseOperator._trusted(
            self.n,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def transpose(self):
        return DenseOperator._trusted(self.n, tuple(zip(*self.rows)))

    @property
    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def __eq__(self, other):
        return isinstance(other, DenseOperator) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"DenseOperator(n={self.n})"


def _phase(state, i):
    below = state & ((1 << (i - 1)) - 1)
    return -1 if bin(below).count("1") % 2 else 1


def represent_generator(kind, index, n):
    """Matrix of one generator: 'vector' -> a_i, 'covector' -> a+_j."""
    if not 1 <= index <= n:
        raise IndexRangeError(f"index {index} outside 1..{n}")
    dim = 1 << n
    rows = [[_ZERO] * dim for _ in range(dim)]
    bit = 1 << (index - 1)
    if kind == "covector":
        for s in range(dim):
            if not s & bit:
                rows[s | bit][s] = Fraction(_phase(s, index))
    elif kind == "vector":
        for s in range(dim):
            if s & bit:
                rows[s & ~bit][s] = Fraction(_phase(s, index))
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return DenseOperator(n, rows)


@cache
def _vacuum_matrix(n):
    """Image of the vacuum word a_1 .. a_n a+_n .. a+_1, by multiplication."""
    m = DenseOperator.identity(n)
    for i in range(1, n + 1):
        m = m @ represent_generator("vector", i, n)
    for i in range(n, 0, -1):
        m = m @ represent_generator("covector", i, n)
    return m


@cache
def _basis_nonzeros(be, n):
    """(row, col, value) entries of one basis element's generator-product matrix."""
    m = _vacuum_matrix(n)
    for j in reversed(be.upper):
        m = represent_generator("covector", j, n) @ m
    for k in reversed(be.lower):
        m = m @ represent_generator("vector", k, n)
    return tuple(
        (i, j, x) for i, row in enumerate(m.rows) for j, x in enumerate(row) if x
    )


def represent(x: AlgebraElement) -> DenseOperator:
    """Represent an algebra element on the Fock space, term by term."""
    n = x.n
    if n > _ORACLE_N_CAP:
        raise IndexRangeError(f"oracle capped at n <= {_ORACLE_N_CAP}")
    dim = 1 << n
    acc = [[_ZERO] * dim for _ in range(dim)]
    for be, c in x.terms():
        for i, j, v in _basis_nonzeros(be, n):
            acc[i][j] += c * v
    return DenseOperator._trusted(n, tuple(map(tuple, acc)))
