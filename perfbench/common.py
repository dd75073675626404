"""Seeded input helpers shared by the workloads.

Every draw is a nonzero rational or a choice of distinct indices, and every
matrix is dense with a dense inverse, so the seed never changes how many
terms a call sees.
"""

from fractions import Fraction

import dkpfields as dk

_NUMS = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
_DENS = (1, 2, 3)


def coeff(rng):
    """A nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice(_NUMS), rng.choice(_DENS))


def dense_vector(rng, n):
    return tuple(coeff(rng) for _ in range(n))


def _unit_lower(rng, n):
    """Integer unit lower-triangular matrix with entries in {+-1, +-2}."""
    return [[1 if i == j else rng.choice((-2, -1, 1, 2)) if i > j else 0
             for j in range(n)] for i in range(n)]


def _unit_lower_inverse(low):
    """Exact inverse of an integer unit lower-triangular matrix, in integers."""
    n = len(low)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j + 1, n):
            inv[i][j] = -sum(low[i][k] * inv[k][j] for k in range(j, i))
    return inv


def _mul(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in out]
    return out


def _transpose(m):
    return [list(col) for col in zip(*m)]


def _diag(d):
    return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]


def _dense(m):
    return all(x for row in m for x in row)


def dense_metric_rows(rng, n):
    """Symmetric L D L^T with L integer unit lower-triangular and D an
    indefinite diagonal in {+-1, +-2}, so the inverse L^-T D^-1 L^-1 has
    denominators at most 2.  Redrawn until the matrix and its inverse have
    no zero entry.
    """
    while True:
        low = _unit_lower(rng, n)
        d = [rng.choice((1, 2)) for _ in range(n)]
        d[rng.randrange(n)] *= -1
        rows = _mul(low, _diag(d), _transpose(low))
        inv = _unit_lower_inverse(low)
        twice_inverse = _mul(_transpose(inv), _diag([2 // x for x in d]), inv)
        if _dense(rows) and _dense(twice_inverse):
            return [[Fraction(x) for x in row] for row in rows]


def dense_frame_rows(rng, n):
    """L U S with L, U^T integer unit lower-triangular and S diagonal in
    {+-1, +-2}, redrawn until it and its inverse have no zero entry.
    """
    while True:
        low, up_t = _unit_lower(rng, n), _unit_lower(rng, n)
        lu = _mul(low, _transpose(up_t))
        lu_inv = _mul(_transpose(_unit_lower_inverse(up_t)), _unit_lower_inverse(low))
        s = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
        if _dense(lu) and _dense(lu_inv):
            return [[Fraction(x * s[j]) for j, x in enumerate(row)] for row in lu]


def element(n, terms):
    """AlgebraElement from {(J, K): coefficient}."""
    return dk.AlgebraElement(n, {dk.BasisElement(j, k): c for (j, k), c in terms.items()})


def perturb(value):
    """Add +1 to one coefficient of an algebra element or a Fock matrix."""
    if isinstance(value, dk.AlgebraElement):
        terms = value.terms()
        be = terms[0][0] if terms else dk.BasisElement((), ())
        return value + dk.single(value.n, be.upper, be.lower, 1)
    if isinstance(value, dk.DenseOperator):
        rows = [list(r) for r in value.rows]
        rows[0][0] += 1
        return dk.DenseOperator(value.n, rows)
    raise TypeError(f"no perturbation for {type(value).__name__}")
