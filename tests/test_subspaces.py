"""Invariant subspaces: bases, dimensions, closure under the DKP action."""

import random
from math import comb

import pytest

from dkpfields import algebra as al
from dkpfields.algebra import BasisElement, IndexRangeError
from dkpfields.dkp import dkp_unit, make_generator
from dkpfields.subspaces import MembershipError, act_dkp, dim_zp, in_zp, zp_basis
from dkpfields.suites import rand_metric, rand_vector, rand_zp_element


def test_zp_basis_n2_p0():
    assert set(zp_basis(2, 0)) == {
        BasisElement((), ()),
        BasisElement((1,), ()),
        BasisElement((2,), ()),
    }


def test_zp_basis_n2_p1():
    assert set(zp_basis(2, 1)) == {
        BasisElement((), (1,)),
        BasisElement((), (2,)),
        BasisElement((1,), (1,)),
        BasisElement((1,), (2,)),
        BasisElement((2,), (1,)),
        BasisElement((2,), (2,)),
    }


def test_zp_basis_n2_p2():
    assert len(zp_basis(2, 2)) == 3


def test_zp_basis_deterministic_order():
    assert zp_basis(2, 1) == [
        BasisElement((), (1,)),
        BasisElement((), (2,)),
        BasisElement((1,), (1,)),
        BasisElement((1,), (2,)),
        BasisElement((2,), (1,)),
        BasisElement((2,), (2,)),
    ]


def test_dim_anchors():
    assert dim_zp(3, 1) == 12
    assert dim_zp(2, 0) == 3
    assert dim_zp(4, 4) == 5


def test_dim_formula_by_enumeration():
    for n in range(1, 7):
        for p in range(n + 1):
            assert dim_zp(n, p) == len(zp_basis(n, p)) == (n + 1) * comb(n, p)


def test_range_errors():
    with pytest.raises(IndexRangeError):
        zp_basis(2, 3)
    with pytest.raises(IndexRangeError):
        dim_zp(2, -1)


@pytest.mark.parametrize("p", [-1, 3])
def test_one_rank_check_for_projectors_and_subspaces(p):
    """projector_pi and every Z_(p) function raise the one rank message."""
    for call in (lambda: al.projector_pi(p, 2), lambda: zp_basis(2, p),
                 lambda: dim_zp(2, p), lambda: in_zp(al.zero(2), 2, p)):
        with pytest.raises(IndexRangeError, match=rf"^rank {p} outside 0\.\.2$"):
            call()


def test_in_zp():
    assert in_zp(al.projector_p(2), 2, 0)
    assert not in_zp(al.single(2, (1,), (1,)), 2, 0)
    assert in_zp(al.single(2, (1,), (1,)), 2, 1)
    assert in_zp(al.zero(2), 2, 1)
    for n in (1, 2, 3):
        for p in range(n + 1):
            allowed = set(zp_basis(n, p))
            for be in al.basis_elements(n):
                assert in_zp(al.single(n, be.upper, be.lower), n, p) == (be in allowed)
    with pytest.raises(IndexRangeError):
        in_zp(al.zero(2), 2, 3)
    assert not in_zp(al.zero(2), 3, 4)  # another n is rejected before p is checked


def test_membership_guard():
    with pytest.raises(MembershipError):
        act_dkp(al.unit(2), al.single(2, (1,), (1, 2)), 0)
    with pytest.raises(MembershipError, match=r"action left Z_\(0\)"):
        act_dkp(al.single(2, (1, 2), ()), al.single(2, (), ()), 0)  # the result has grade (2,0)


def test_closure_random():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        g = rand_metric(n, rng)
        for p in range(n + 1):
            for _ in range(25):
                alpha = rand_vector(n, rng)
                z = rand_zp_element(n, p, rng)
                gen = make_generator("b_upper_neg", alpha, g)
                assert in_zp(act_dkp(gen, z, p), n, p)


def test_action_formula_scalar_case():
    """Rank 0: b_^a [ s(P) + (^g P) ] = s (^a P) - g^{-1}(a,g) (P)."""
    rng = random.Random(18)
    n = 3
    g = rand_metric(n, rng)
    for _ in range(15):
        s = rng.randint(-4, 4)
        alpha = rand_vector(n, rng)
        gamma = rand_vector(n, rng)
        P = al.projector_p(n)
        z = s * P + al.embed_covector(gamma, n) * P
        gen = make_generator("b_upper_neg", alpha, g)
        want = s * (al.embed_covector(alpha, n) * P) - g.pair_inv(alpha, gamma) * P
        assert act_dkp(gen, z, 0) == want


def test_action_formula_general_rank():
    rng = random.Random(19)
    for n in (2, 3):
        g = rand_metric(n, rng)
        for p in range(n + 1):
            for _ in range(10):
                alpha = rand_vector(n, rng)
                gamma = rand_vector(n, rng)
                members = tuple(sorted(rng.sample(range(1, n + 1), p)))
                p_i = al.basis_word(n, (), members)
                z = p_i + al.embed_covector(gamma, n) * p_i
                gen = make_generator("b_upper_neg", alpha, g)
                want = al.embed_covector(alpha, n) * p_i - g.pair_inv(alpha, gamma) * p_i
                assert act_dkp(gen, z, p) == want


def test_dkp_unit_acts_as_identity():
    rng = random.Random(20)
    for n in (1, 2, 3, 4):
        u = dkp_unit(n)
        for p in range(n + 1):
            for _ in range(10):
                z = rand_zp_element(n, p, rng)
                assert u * z == z
