"""Exact rational matrix helpers (small n only)."""

from fractions import Fraction
from itertools import combinations
from math import lcm


class SingularMatrixError(ValueError):
    """Matrix has no exact inverse."""


def as_matrix(rows):
    """Normalize to a tuple-of-tuples of Fractions; rejects floats."""
    out = []
    for row in rows:
        frow = []
        for x in row:
            if isinstance(x, float):
                raise TypeError("float entries are not allowed; use Fraction or int")
            frow.append(Fraction(x))
        out.append(tuple(frow))
    if any(len(r) != len(out) for r in out):
        raise ValueError("matrix must be square")
    return tuple(out)


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def invert(m):
    """Gauss-Jordan inverse over Fractions.

    Raises SingularMatrixError if the matrix is not invertible.
    """
    n = len(m)
    aug = [list(m[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _bareiss(a):
    """Determinant of a square integer matrix, a list of row lists it overwrites.

    Fraction-free elimination: Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22 (1968).  Each
    step divides exactly by the previous pivot, since every intermediate
    entry is itself a minor of the input, so all arithmetic stays in ints.
    """
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


def compound(m, p):
    """Nonzero p x p minors of m, grouped by row set.

    Returns {rows: ((cols, det m[rows, cols]), ...)} over all strictly
    increasing 1-based index tuples of length p, keeping only nonzero minors.
    """
    m = [[Fraction(x) for x in row] for row in m]
    scale = lcm(1, *(x.denominator for row in m for x in row))
    a = [[int(x * scale) for x in row] for row in m]  # minors of a are scale^p times m's
    sets = list(combinations(range(1, len(a) + 1), p))
    out = {}
    for rows in sets:
        picked = [a[r - 1] for r in rows]
        dets = ((cols, _bareiss([[row[c - 1] for c in cols] for row in picked])) for cols in sets)
        out[rows] = tuple((cols, Fraction(d, scale ** p)) for cols, d in dets if d)
    return out


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def transpose(m):
    return tuple(tuple(row[j] for row in m) for j in range(len(m)))


def is_symmetric(m):
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))
