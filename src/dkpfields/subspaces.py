"""Invariant subspaces Z_(p) carrying rank-p antisymmetric field pairs.

Z_(p) is spanned by the basis elements E([], I) and E([a], I) with |I| = p,
1 <= a <= n; its dimension is (n+1) * C(n, p).  The negative covector
family of DKP generators acts on Z_(p) from the left and maps it to
itself:

    b_^alpha [ (P_I) + (^gamma P_I) ]
        = (^alpha P_I) - g^{-1}(alpha, gamma) (P_I).

Elements of Z_(p) are plain algebra elements with a membership guard; the
action is ordinary algebra multiplication.
"""

from math import comb

from .algebra import AlgebraElement, BasisElement, _check_rank, _multi_indices


class MembershipError(ValueError):
    """Element is not supported on the requested Z_(p) basis."""


def zp_basis(n, p):
    """Basis of Z_(p) in deterministic order: E([], I) first, then E([a], I)."""
    _check_rank(n, p)
    ranks = _multi_indices(n, p)
    return [BasisElement(upper, ix) for upper in [()] + [(a,) for a in range(1, n + 1)]
            for ix in ranks]


def dim_zp(n, p):
    """dim Z_(p) = (n+1) * C(n, p)."""
    _check_rank(n, p)
    return (n + 1) * comb(n, p)


def in_zp(x: AlgebraElement, n, p):
    """True iff the support of x lies inside the Z_(p) basis.

    That basis is every E(J, I) with |J| <= 1 and |I| = p, so only the shape
    of each key is checked.
    """
    if x.n != n:
        return False
    _check_rank(n, p)
    return all(len(be.upper) <= 1 and len(be.lower) == p for be in x.support())


def act_dkp(gen: AlgebraElement, z: AlgebraElement, p):
    """Left action of a DKP generator on Z_(p); plain multiplication.

    Validates that z lies in Z_(p) and that the result stays there (it does
    for every generator of the negative upper-index family).
    """
    n = z.n
    if not in_zp(z, n, p):
        raise MembershipError(f"element is not supported on Z_({p}) for n={n}")
    out = gen * z
    if not in_zp(out, n, p):
        raise MembershipError(
            f"action left Z_({p}); generator is not from the covector DKP family"
        )
    return out
