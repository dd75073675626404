"""Reference routes the benchmark checks the program against.

Everything here is written from the defining formulas and uses no code of
dkpfields: exact Fraction linear algebra, the Cauchy-Binet form of the
metric adjoint, the closed forms of the projected DKP words, and a small
polynomial calculus for the De Donder-Weyl equations and the bracket.
"""

from fractions import Fraction
from itertools import combinations

# -- linear algebra ------------------------------------------------------------


def det(m):
    """Determinant by Gaussian elimination over Fractions."""
    a = [list(r) for r in m]
    size = len(a)
    out = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, size):
            f = a[r][col] / a[col][col]
            if f:
                for k in range(col, size):
                    a[r][k] -= f * a[col][k]
    return out


def inverse(m):
    """Inverse by the adjugate: inv[i][j] = (-1)^(i+j) minor(j, i) / det."""
    size = len(m)
    d = det(m)
    if not d:
        raise ZeroDivisionError("singular matrix")
    idx = range(size)
    return [
        [
            (-1) ** (i + j)
            * det([[m[r][c] for c in idx if c != i] for r in idx if r != j])
            / d
            for j in idx
        ]
        for i in idx
    ]


def matvec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def gram(m):
    """m m^T."""
    return [[sum(a * b for a, b in zip(r1, r2)) for r2 in m] for r1 in m]


def minor(m, rows, cols):
    """det of m restricted to 1-based index tuples rows x cols."""
    return det([[m[r - 1][c - 1] for c in cols] for r in rows])


def all_minors_nonzero(m):
    n = len(m)
    return all(
        minor(m, rows, cols)
        for k in range(1, n + 1)
        for rows in combinations(range(1, n + 1), k)
        for cols in combinations(range(1, n + 1), k)
    )


# -- algebra references (terms are dicts {(J, K): coefficient}) ----------------


def adjoint_terms(terms, g, g_inv, n):
    """Cauchy-Binet form of the metric adjoint:

        E(J, K)+  =  sum_{A, B} det g[K, A] * det g^-1[J, B] * E(A, B),

    with |A| = |K| and |B| = |J|.
    """
    out = {}
    for (up, lo), c in terms.items():
        for a in combinations(range(1, n + 1), len(lo)):
            ma = minor(g, lo, a) if lo else Fraction(1)
            if not ma:
                continue
            for b in combinations(range(1, n + 1), len(up)):
                mb = minor(g_inv, up, b) if up else Fraction(1)
                v = out.get((a, b), 0) + c * ma * mb
                if v:
                    out[(a, b)] = v
                else:
                    out.pop((a, b), None)
    return out


def left_word(a):
    """(a)(P) = sum_j a_j E({j}, {})."""
    return {((j,), ()): c for j, c in enumerate(a, start=1) if c}


def right_word(v):
    """(P)(v) = sum_j v_j E({}, {j})."""
    return {((), (j,)): c for j, c in enumerate(v, start=1) if c}


def combine(*scaled):
    """sum of s * terms over (s, terms) pairs."""
    out = {}
    for s, terms in scaled:
        for key, c in terms.items():
            v = out.get(key, 0) + s * c
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


# -- polynomial references -------------------------------------------------------
#
# A polynomial is a dict {monomial: Fraction}; a monomial is a tuple of
# (symbol, exponent) pairs sorted by symbol, and a symbol is
# (kind_rank, kind, idx, index) so that tuple order is the canonical order.

KIND_RANK = {"y": 0, "pi": 1, "p": 2, "Dy": 3, "Dpi": 4, "Dp": 5}


def sym(kind, idx, index):
    return (KIND_RANK[kind], kind, tuple(idx), tuple(index))


def poly_add(*polys, signs=None):
    out = {}
    for k, poly in enumerate(polys):
        s = 1 if signs is None else signs[k]
        for mono, c in poly.items():
            v = out.get(mono, 0) + s * c
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


def poly_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            exps = dict(m1)
            for s, e in m2:
                exps[s] = exps.get(s, 0) + e
            mono = tuple(sorted(exps.items()))
            v = out.get(mono, 0) + c1 * c2
            if v:
                out[mono] = v
            else:
                out.pop(mono, None)
    return out


def poly_partial(f, s):
    out = {}
    for mono, c in f.items():
        exps = dict(mono)
        e = exps.get(s)
        if not e:
            continue
        if e == 1:
            del exps[s]
        else:
            exps[s] = e - 1
        key = tuple(sorted(exps.items()))
        v = out.get(key, 0) + c * e
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def poly_text(f):
    """Input text in the dkpfields expression grammar."""
    parts = []
    for mono, c in f.items():
        factors = [str(abs(c))]
        for (_, kind, idx, index), e in mono:
            ix = ",".join(map(str, index))
            name = f"y[{ix}]" if kind == "y" else f"{kind}[{idx[0]}][{ix}]"
            factors.append(f"{name}^{e}" if e > 1 else name)
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" + {term}" if c > 0 else f" - {term}")
    return "".join(parts) or "0"


def dwh_equations(h, n, p):
    """(label, lhs, rhs) of the De Donder-Weyl equations of h, in y/p symbols:

        sum_mu d[mu]p[mu][I] = -dH/dy[I],     d[mu]y[I] = +dH/dp[mu][I].
    """
    ranks = list(combinations(range(1, n + 1), p))
    out = []
    for I in ranks:
        lhs = {((sym("Dp", (mu, mu), I), 1),): Fraction(1) for mu in range(1, n + 1)}
        rhs = poly_add(poly_partial(h, sym("y", (), I)), signs=(-1,))
        out.append((f"p-div[{','.join(map(str, I))}]", lhs, rhs))
    for I in ranks:
        for mu in range(1, n + 1):
            lhs = {((sym("Dy", (mu,), I), 1),): Fraction(1)}
            rhs = poly_partial(h, sym("p", (mu,), I))
            out.append((f"y-deriv[{mu}][{','.join(map(str, I))}]", lhs, rhs))
    return out


def bracket_closed_form(g, f, mu, n, p):
    """sum_I ( dG/dy[I] dF/dp[mu][I] - dF/dy[I] dG/dp[mu][I] )."""
    out = {}
    for I in combinations(range(1, n + 1), p):
        ys, ps = sym("y", (), I), sym("p", (mu,), I)
        out = poly_add(
            out,
            poly_mul(poly_partial(g, ys), poly_partial(f, ps)),
            poly_mul(poly_partial(f, ys), poly_partial(g, ps)),
            signs=(1, 1, -1),
        )
    return out
