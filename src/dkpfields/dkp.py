"""DKP generator families inside the split-form Clifford algebra.

A metric g on the vector side turns pairs of projected words into DKP
generators.  (P) kills all but n terms of each embedding, so a generator is
written term by term, its metric image read off g's integer rows.  Five
constructions are supported, tagged by family name:

    b_upper        b^a   = (^a P) + (P_{sharp a})
    b_upper_neg    b_^a  = (^a P) - (P_{sharp a})
    b_lower_neg    b__v  = (P_v) - (^{flat v} P)
    beta_lower     B_i   = (P_i) + (^{flat e_i} P)
    beta_lower_neg B__i  = (P_i) - g_ij (^j P)

Each family satisfies a trilinear relation

    x1 x2 x3 + x3 x2 x1 = s * (w(1,2) x3 + w(3,2) x1)

with s = +1 for the plain families and -1 for the underscored ones, and
w the inverse metric for covector arguments or the metric for vector
arguments.  check_trilinear returns the left-minus-right residual, which
is exactly zero when the relation holds.

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
from .algebra import AlgebraElement, BasisElement, IndexRangeError, Metric, _components
from .algebra import projector_p, projector_pi

FAMILIES = ("b_upper", "b_upper_neg", "b_lower_neg", "beta_lower", "beta_lower_neg")

_COVECTOR_FAMILIES = ("b_upper", "b_upper_neg")


class FrameMap(_InvertibleMatrix):
    """Invertible square frame matrix L, kept as the (int rows, den) pairs
    of L and L^-1.

    dwh_derive, bracket, beta_mu('lower_neg') and the triple residuals read
    the pairs; the Fraction views lam and lam_inv are built on first use.
    """

    __slots__ = ()
    lam = _InvertibleMatrix._matrix
    lam_inv = _InvertibleMatrix._inverse


def _index(i, n):
    """An index in 1..n; a non-int or an index outside raises, so none wraps."""
    if not isinstance(i, int):
        raise TypeError(f"index must be an int, not {type(i).__name__}")
    if not 1 <= i <= n:
        raise IndexRangeError(f"index {i} outside 1..{n}")
    return i


def _words(n, left, right):
    """(^left P) + (P_right) = sum_j left_j E([j], []) + sum_j right_j E([], [j]), zeros skipped."""
    terms = {BasisElement((j,), ()): c for j, c in enumerate(left, start=1) if c}
    terms.update((BasisElement((), (j,)), c) for j, c in enumerate(right, start=1) if c)
    return AlgebraElement._raw(n, terms)


def make_generator(family, arg, g: Metric):
    """Build one DKP generator.

    The b-families take component tuples (covector for the upper families,
    vector for b_lower_neg); the beta families take a basis index 1..n.
    """
    n, s = g.n, _family_sign(family)
    if family in _COVECTOR_FAMILIES:
        a = _components(arg, n)
        return _words(n, a, g._image(g._inv_rows, a, s))
    if family == "b_lower_neg":
        v = _components(arg, n)
    elif family in ("beta_lower", "beta_lower_neg"):
        i = _index(arg, n)
        v = tuple(Fraction(int(k == i)) for k in range(1, n + 1))
    else:
        raise ValueError(f"unknown family {family!r}")
    return _words(n, g._image(g._rows, v, s), v)


def _pairing(family, x, y, g: Metric):
    if family in _COVECTOR_FAMILIES:
        return g.pair_inv(x, y)
    if family == "b_lower_neg":
        return g.pair(x, y)
    # beta families take indices
    return g.g[x - 1][y - 1]


def _family_sign(family):
    return 1 if family in ("b_upper", "beta_lower") else -1


def dkp_unit(n):
    """Idempotent identity of the DKP subalgebra: (P) + grade-1 projector."""
    return projector_p(n) + projector_pi(1, n)


def check_trilinear(family, args, g: Metric):
    """Residual L - R of the family's trilinear relation; zero iff it holds."""
    x1, x2, x3 = args
    b1, b2, b3 = (make_generator(family, x, g) for x in args)
    lhs = b1 * b2 * b3 + b3 * b2 * b1
    s = _family_sign(family)
    rhs = (s * _pairing(family, x1, x2, g)) * b3 + (s * _pairing(family, x3, x2, g)) * b1
    return lhs - rhs


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
    lhs = bs[mu] * bs[nu] * bs[gamma] + bs[gamma] * bs[nu] * bs[mu]
    return (lhs + Fraction(rows[mu - 1][nu - 1], den) * bs[gamma]
            + Fraction(rows[gamma - 1][nu - 1], den) * bs[mu])


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
