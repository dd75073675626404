"""Fermionic Fock-space oracle for the split-form Clifford algebra.

Vectors map to annihilation operators and covectors to creation operators
on the 2^n occupation basis, which realizes the defining anticommutation
relations directly.  Everything here is built from the combinatorial
definition of a_i / a+_i as signed partial maps on occupation states
(_act), never from the structure-constant product, so equality

    represent(x * y) == represent(x) @ represent(y)

is an independent check of the algebra multiplication.

Basis states are occupation bitmasks: state s has mode i occupied iff bit
(i-1) of s is set, and the column/row index of |s> is s itself.  The
fermionic phase of a_i / a+_i on |s> is (-1)^(number of occupied modes
below i).  A basis element's image is found by applying its generator
word to each column state in turn, so it is built without any matrix
product; every image is a single +-1 entry.
"""

from fractions import Fraction
from functools import cache

from .algebra import AlgebraElement, _index

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

    def __eq__(self, other):
        return isinstance(other, DenseOperator) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"DenseOperator(n={self.n})"


def _phase(state, i):
    below = state & ((1 << (i - 1)) - 1)
    return -1 if bin(below).count("1") % 2 else 1


def _act(kind, i, state):
    """(state', sign) of a_i ('vector') or a+_i ('covector') on |state>, or
    None when it annihilates the state."""
    bit = 1 << (i - 1)
    if bool(state & bit) != (kind == "vector"):
        return None
    return state ^ bit, _phase(state, i)


def represent_generator(kind, index, n):
    """Matrix of one generator: 'vector' -> a_i, 'covector' -> a+_j."""
    _index(index, n)
    if kind not in ("vector", "covector"):
        raise ValueError(f"unknown generator kind {kind!r}")
    dim = 1 << n
    rows = [[_ZERO] * dim for _ in range(dim)]
    for s in range(dim):
        hit = _act(kind, index, s)
        if hit is not None:
            rows[hit[0]][s] = hit[1]
    return DenseOperator(n, rows)


@cache
def _basis_nonzeros(be, n):
    """(row, col, sign) entries of E(J, K): its word
    a+_j1 .. a+_jp a_1 .. a_n a+_n .. a+_1 a_kq .. a_k1 applied to each
    column state, rightmost factor first."""
    word = ([("vector", k) for k in be.lower]
            + [("covector", i) for i in range(1, n + 1)]
            + [("vector", i) for i in range(n, 0, -1)]
            + [("covector", j) for j in reversed(be.upper)])
    out = []
    for col in range(1 << n):
        state, sign = col, 1
        for kind, i in word:
            hit = _act(kind, i, state)
            if hit is None:
                break
            state, sign = hit[0], sign * hit[1]
        else:
            out.append((state, col, sign))
    return tuple(out)


def represent(x: AlgebraElement) -> DenseOperator:
    """Represent an algebra element on the Fock space, term by term."""
    n = x.n
    dim = 1 << n
    acc = [[_ZERO] * dim for _ in range(dim)]
    for be, c in x.terms():
        for i, j, v in _basis_nonzeros(be, n):
            acc[i][j] += c * v
    return DenseOperator._trusted(n, tuple(map(tuple, acc)))
