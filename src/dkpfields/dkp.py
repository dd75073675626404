"""DKP generator families inside the split-form Clifford algebra.

A metric g on the vector side turns pairs of projected words into DKP
generators.  (P) kills all but n terms of each embedding, so a generator is
written term by term, its metric image read off g's integer rows.  Five
constructions are supported, tagged by family name; FAMILIES maps each name
to its sign s and its argument kind, which is all that tells them apart:

    b_upper        b^a   = (^a P) + (P_{sharp a})
    b_upper_neg    b_^a  = (^a P) - (P_{sharp a})
    b_lower_neg    b__v  = (P_v) - (^{flat v} P)
    beta_lower     B_i   = (P_i) + (^{flat e_i} P)
    beta_lower_neg B__i  = (P_i) - g_ij (^j P)

Each family satisfies a trilinear relation

    x1 x2 x3 + x3 x2 x1 = s * (w(1,2) x3 + w(3,2) x1)

with s = +1 for the plain families and -1 for the underscored ones, and
w the inverse metric for covector arguments or the metric for vector and
index arguments.  check_trilinear returns the left-minus-right residual,
which is exactly zero when the relation holds.

Frame-mapped operators contract the Euclidean-metric families with an
invertible matrix L:  beta_mu('upper_neg') = L^mu_a b_^a and
beta_mu('lower_neg') = (L^-1)^a_mu b__a.  The delta-form triple relation

    B^mu B^nu B^ga + B^ga B^nu B^mu = -delta^{mu nu} B^ga - delta^{ga nu} B^mu

is *not* frame-covariant: contracting the trilinear relation with L turns
delta^{mu nu} into (L L^T)^{mu nu}, so the delta form survives exactly when
L has orthonormal rows.  ndkc_residual checks the delta form literally;
ndkc_induced_residual checks the transformed relation, which holds for
every invertible L and reduces to the delta form when L L^T = 1.
"""

from fractions import Fraction
from operator import mul

from ._linalg import _eye, _InvertibleMatrix
from .algebra import AlgebraElement, BasisElement, Metric, _components, _index
from .algebra import projector_p, projector_pi

# family name -> (sign s, argument kind): a covector's components, a
# vector's components, or a basis index 1..n standing for e_i
FAMILIES = {
    "b_upper": (1, "covector"),
    "b_upper_neg": (-1, "covector"),
    "b_lower_neg": (-1, "vector"),
    "beta_lower": (1, "index"),
    "beta_lower_neg": (-1, "index"),
}


class FrameMap(_InvertibleMatrix):
    """Invertible square frame matrix L, kept as the (int rows, den) pairs
    of L and L^-1.

    dwh_derive, bracket, beta_mu('lower_neg') and the triple residuals read
    the pairs; the Fraction views lam and lam_inv are built on first use.
    """

    __slots__ = ()
    lam = _InvertibleMatrix._matrix
    lam_inv = _InvertibleMatrix._inverse


def _words(n, left, right):
    """(^left P) + (P_right) = sum_j left_j E([j], []) + sum_j right_j E([], [j]), zeros skipped."""
    terms = {BasisElement((j,), ()): c for j, c in enumerate(left, start=1) if c}
    terms.update((BasisElement((), (j,)), c) for j, c in enumerate(right, start=1) if c)
    return AlgebraElement._raw(n, terms)


def make_generator(family, arg, g: Metric):
    """Build one DKP generator.

    The argument kind of the family (see FAMILIES) says what arg is: the
    components of a covector or of a vector, or a basis index 1..n.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    n, (s, kind) = g.n, FAMILIES[family]
    if kind == "covector":
        a = _components(arg, n)
        return _words(n, a, g._image(g._inv_rows, a, s))
    if kind == "vector":
        v = _components(arg, n)
    else:
        i = _index(arg, n)
        v = tuple(Fraction(int(k == i)) for k in range(1, n + 1))
    return _words(n, g._image(g._rows, v, s), v)


def dkp_unit(n):
    """Idempotent identity of the DKP subalgebra: (P) + grade-1 projector."""
    return projector_p(n) + projector_pi(1, n)


def _residual(b1, b2, b3, c3, c1):
    """b1 b2 b3 + b3 b2 b1 - (c3 b3 + c1 b1); zero iff the triple relation with
    these right-hand coefficients holds."""
    return b1 * b2 * b3 + b3 * b2 * b1 - (c3 * b3 + c1 * b1)


def check_trilinear(family, args, g: Metric):
    """Residual L - R of the family's trilinear relation; zero iff it holds."""
    x1, x2, x3 = args
    b1, b2, b3 = (make_generator(family, x, g) for x in args)  # raises for an unknown family
    s, kind = FAMILIES[family]
    if kind == "index":
        w12, w32 = g.g[x1 - 1][x2 - 1], g.g[x3 - 1][x2 - 1]
    else:
        pair = g.pair_inv if kind == "covector" else g.pair
        w12, w32 = pair(x1, x2), pair(x3, x2)
    return _residual(b1, b2, b3, s * w12, s * w32)


def beta_mu(lam: FrameMap, mu, variant):
    """Frame-mapped operator for spacetime index mu.

    'upper_neg' contracts b_^a with the frame matrix, 'lower_neg' contracts
    b__a with its inverse.  Over the Euclidean metric b_^a = E([a],[]) -
    E([],[a]) = -b__a, so both are sum_a w_a (E([a],[]) - E([],[a])) with
    w_a = L[mu][a] or w_a = -L^-1[a][mu].
    """
    mu = _index(mu, lam.n)
    if variant == "upper_neg":
        w = lam.lam[mu - 1]
    elif variant == "lower_neg":
        rows, den = lam._inv_rows
        w = [Fraction(-row[mu - 1], den) for row in rows]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return _words(lam.n, w, [-c for c in w])


def _triple_residual(lam: FrameMap, mu, nu, gamma, w):
    """B^mu B^nu B^ga + B^ga B^nu B^mu + w^{mu nu} B^ga + w^{ga nu} B^mu,
    for w given as an (int rows, den) pair."""
    rows, den = w
    bs = {m: beta_mu(lam, m, "upper_neg") for m in {mu, nu, gamma}}
    return _residual(bs[mu], bs[nu], bs[gamma], Fraction(-rows[mu - 1][nu - 1], den),
                     Fraction(-rows[gamma - 1][nu - 1], den))


def ndkc_residual(lam: FrameMap, mu, nu, gamma):
    """Residual of the literal delta-form triple relation for beta^mu.

    It is the induced residual with the identity in place of L L^T, so it
    is exactly zero for every (mu, nu, gamma) iff the frame map has
    orthonormal rows; see module docstring.
    """
    return _triple_residual(lam, mu, nu, gamma, _eye(lam.n))


def ndkc_induced_residual(lam: FrameMap, mu, nu, gamma):
    """Residual of the frame-transformed triple relation for beta^mu.

    The delta of the Euclidean relation transforms into L L^T, so

        B^mu B^nu B^ga + B^ga B^nu B^mu
            = -(L L^T)^{mu nu} B^ga - (L L^T)^{ga nu} B^mu

    holds exactly for every invertible frame map.  With L = A / s, L L^T
    is the int Gram matrix A A^T over s^2.
    """
    a, s = lam._rows
    gram = [[sum(map(mul, r, q)) for q in a] for r in a]
    return _triple_residual(lam, mu, nu, gamma, (gram, s * s))
