"""DKP generator families, trilinear relations, and frame-mapped operators."""

import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from dkpfields import algebra as al
from dkpfields import dkp, suites
from dkpfields._linalg import _bareiss
from dkpfields.algebra import Metric, SingularMatrixError
from dkpfields.dkp import (
    FAMILIES,
    FrameMap,
    beta_mu,
    check_trilinear,
    dkp_unit,
    make_generator,
    ndkc_induced_residual,
    ndkc_residual,
)
from dkpfields.suites import rand_fraction, rand_frame, rand_metric, rand_orthogonal_frame
from dkpfields.suites import rand_vector


def basis_vec(i, n):
    return tuple(Fraction(int(k == i)) for k in range(1, n + 1))


def gauss_jordan_inverse(m):
    """m^-1 by plain Fraction Gauss-Jordan on [m | I]: a reference that shares
    nothing with the Bareiss pass of _linalg."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if a[r][k])
        a[k], a[pivot] = a[pivot], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k:
                a[i] = [x - a[i][k] * y for x, y in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def args_for(family, n):
    if family in ("b_upper", "b_upper_neg", "b_lower_neg"):
        return [basis_vec(i, n) for i in range(1, n + 1)]
    return list(range(1, n + 1))


def test_generator_goldens_euclidean_n2():
    g = Metric.euclidean(2)
    # grade >= 1 parts of the embeddings cancel against the idempotent,
    # leaving a single term per projected word
    got = make_generator("b_upper_neg", basis_vec(1, 2), g)
    assert got == al.single(2, (1,), ()) - al.single(2, (), (1,))
    got = make_generator("b_upper", basis_vec(1, 2), g)
    assert got == al.single(2, (1,), ()) + al.single(2, (), (1,))
    got = make_generator("beta_lower_neg", 2, g)
    assert got == al.single(2, (), (2,)) - al.single(2, (2,), ())


def test_generators_match_product_definitions():
    """make_generator equals the module docstring's embedding products.

    (P_v) = (P) (v) and (^a P) = (a) (P), built here from the full
    embeddings, over random rational metrics.
    """
    rng = random.Random(29)
    for n in range(1, 6):
        P = al.projector_p(n)

        def right(v):
            return P * al.embed_vector(v, n)

        def left(a):
            return al.embed_covector(a, n) * P

        for _ in range(3):
            g = rand_metric(n, rng)
            a, v = rand_vector(n, rng), rand_vector(n, rng)
            i = rng.randint(1, n)
            e = basis_vec(i, n)
            assert make_generator("b_upper", a, g) == left(a) + right(g.sharp(a))
            assert make_generator("b_upper_neg", a, g) == left(a) - right(g.sharp(a))
            assert make_generator("b_lower_neg", v, g) == right(v) - left(g.flat(v))
            assert make_generator("beta_lower", i, g) == right(e) + left(g.flat(e))
            assert make_generator("beta_lower_neg", i, g) == right(e) - left(g.flat(e))
    with pytest.raises(al.DimensionMismatchError):
        make_generator("b_upper", (1, 0, 0), Metric.euclidean(2))


def test_beta_cubes_euclidean():
    """Underscored beta with i=j=k gives 2 b^3 = -2 b, so b^3 = -b."""
    for n in (1, 2, 3):
        g = Metric.euclidean(n)
        for i in range(1, n + 1):
            b = make_generator("beta_lower_neg", i, g)
            assert b * b * b == -1 * b


def test_trilinear_all_basis_triples_euclidean():
    for n in (1, 2, 3, 4):
        g = Metric.euclidean(n)
        for family in FAMILIES:
            args = args_for(family, n)
            for trip in product(args, repeat=3):
                assert check_trilinear(family, trip, g).is_zero


def test_trilinear_random_metrics():
    rng = random.Random(7)
    for n in (1, 2, 3):
        for _ in range(4):
            g = rand_metric(n, rng)
            for family in FAMILIES:
                args = args_for(family, n)
                for trip in product(args, repeat=3):
                    assert check_trilinear(family, trip, g).is_zero


def test_trilinear_nontrivial_lhs():
    """The check is not vacuous: the triple products themselves are nonzero."""
    g = Metric.euclidean(2)
    b1 = make_generator("beta_lower", 1, g)
    assert not (b1 * b1 * b1).is_zero


def test_sign_flip_duality():
    rng = random.Random(8)
    for n in (1, 2, 3):
        g = rand_metric(n, rng)
        ng = Metric([[-x for x in row] for row in g.g])
        for i in range(1, n + 1):
            a = basis_vec(i, n)
            assert make_generator("b_upper", a, ng) == make_generator("b_upper_neg", a, g)
            assert make_generator("beta_lower", i, ng) == make_generator(
                "beta_lower_neg", i, g
            )
        for trip in product(range(1, n + 1), repeat=3):
            cov = tuple(basis_vec(i, n) for i in trip)
            assert check_trilinear("b_upper", cov, ng) == check_trilinear(
                "b_upper_neg", cov, g
            )
            assert check_trilinear("beta_lower", trip, ng) == check_trilinear(
                "beta_lower_neg", trip, g
            )


def test_b_lower_neg_matches_beta_lower_neg_on_basis():
    rng = random.Random(9)
    g = rand_metric(3, rng)
    for i in range(1, 4):
        assert make_generator("b_lower_neg", basis_vec(i, 3), g) == make_generator(
            "beta_lower_neg", i, g
        )


def test_dkp_unit():
    assert dkp_unit(1) == al.single(1, (), ()) + al.single(1, (1,), (1,))
    for n in (1, 2, 3):
        u = dkp_unit(n)
        assert u * u == u
        g = Metric.euclidean(n)
        for i in range(1, n + 1):
            b = make_generator("beta_lower", i, g)
            assert u * b == b and b * u == b
            bn = make_generator("b_upper_neg", basis_vec(i, n), g)
            assert u * bn == bn and bn * u == bn


def test_unknown_family_rejected():
    g = Metric.euclidean(2)
    with pytest.raises(ValueError, match="unknown family 'b_sideways'"):
        make_generator("b_sideways", 1, g)
    with pytest.raises(ValueError, match="unknown family 'b_sideways'"):
        check_trilinear("b_sideways", (1, 1, 1), g)


def test_trilinear_group_takes_argument_kinds_from_the_family_table(monkeypatch):
    """dkp/trilinear relations draws each family's arguments by the kind
    FAMILIES gives it, whatever the family's name."""
    renamed = {f"family_{i}": entry for i, entry in enumerate(FAMILIES.values())}
    monkeypatch.setattr(dkp, "FAMILIES", renamed)
    (check,) = suites.GROUPS["dkp/trilinear relations"].run(2, random.Random(0), size=1)
    assert (check.run, check.failed) == (2 * 5 * 2 ** 3, 0)


def test_singular_metric_rejected():
    with pytest.raises(SingularMatrixError):
        Metric([[1, 1], [1, 1]])


# -- frame-mapped operators -----------------------------------------------------


def test_frame_map_requires_invertible():
    with pytest.raises(SingularMatrixError):
        FrameMap([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="matrix must be square"):
        FrameMap([[1, 0], [0]])


def test_frame_map_pairs_are_canonical_with_positive_den():
    """L and L^-1 are kept as (int rows, den > 0) pairs equal to the Fraction
    matrices.  For -1,0;1,1 the last Bareiss pivot is -1, so the inverse's
    sign is moved into its rows."""
    rows = [[-1, 0, 1, 0], [1, 1, 0, 1]]
    assert _bareiss(rows) == -1 and rows[0][0] == -1
    for lam in (FrameMap([[-1, 0], [1, 1]]), FrameMap([["-1", "0"], ["1", "1"]])):
        assert lam._rows == ([[-1, 0], [1, 1]], 1)
        assert lam._inv_rows == ([[-1, 0], [1, 1]], 1)
        assert lam.lam_inv == gauss_jordan_inverse([[-1, 0], [1, 1]])
    rng = random.Random(89)
    for n in range(1, 5):
        for _ in range(5):
            lam = rand_frame(n, rng)
            (a, s), (b, t) = lam._rows, lam._inv_rows
            assert s > 0 and t > 0
            assert lam.lam == tuple(tuple(Fraction(x, s) for x in row) for row in a)
            assert lam.lam_inv == tuple(tuple(Fraction(x, t) for x in row) for row in b)
            assert lam.lam_inv == gauss_jordan_inverse(lam.lam)
            text = FrameMap([[str(x) for x in row] for row in lam.lam])
            assert text == lam and text._inv_rows == lam._inv_rows

def test_beta_mu_identity_frame():
    n = 3
    lam = FrameMap.identity(n)
    g = Metric.euclidean(n)
    for mu in range(1, n + 1):
        assert beta_mu(lam, mu, "upper_neg") == make_generator(
            "b_upper_neg", basis_vec(mu, n), g
        )
        assert beta_mu(lam, mu, "lower_neg") == make_generator(
            "b_lower_neg", basis_vec(mu, n), g
        )


def test_beta_mu_frame_recomposition():
    """Contracting the lowered family back with the frame map returns b__a."""
    rng = random.Random(10)
    n = 3
    lam = rand_frame(n, rng)
    g = Metric.euclidean(n)
    for b in range(1, n + 1):
        acc = al.zero(n)
        for mu in range(1, n + 1):
            acc = acc + lam.lam[mu - 1][b - 1] * beta_mu(lam, mu, "lower_neg")
        assert acc == make_generator("b_lower_neg", basis_vec(b, n), g)


def beta_mu_by_generators(lam, mu, variant):
    """Frame contraction of make_generator over the Euclidean metric, term by term."""
    n = lam.n
    g = Metric.euclidean(n)
    out = al.zero(n)
    if variant == "upper_neg":
        for a in range(1, n + 1):
            w = lam.lam[mu - 1][a - 1]
            if w:
                out = out + w * make_generator("b_upper_neg", basis_vec(a, n), g)
        return out
    for a in range(1, n + 1):
        w = lam.lam_inv[a - 1][mu - 1]
        if w:
            out = out + w * make_generator("b_lower_neg", basis_vec(a, n), g)
    return out


def test_beta_mu_matches_generator_contraction():
    rng = random.Random(67)
    for n in range(1, 6):
        for _ in range(4):
            lam = rand_frame(n, rng)
            for mu in range(1, n + 1):
                for variant in ("upper_neg", "lower_neg"):
                    assert beta_mu(lam, mu, variant) == beta_mu_by_generators(lam, mu, variant)


def is_orthogonal(lam):
    """L L^T == 1 in ints: A A^T == s^2 1 for L = A / s."""
    a, s = lam._rows
    return all(sum(map(mul, r, q)) == s * s * (i == j)
               for i, r in enumerate(a) for j, q in enumerate(a))


def test_ndkc_identity_frame():
    for n in (1, 2, 3):
        lam = FrameMap.identity(n)
        for mu, nu, ga in product(range(1, n + 1), repeat=3):
            assert ndkc_residual(lam, mu, nu, ga).is_zero


def cayley_by_product(n, rng):
    """The Cayley transform (1 - A)(1 + A)^-1 as a Fraction product, with A
    drawn as rand_orthogonal_frame draws it."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rand_fraction(rng, -2, 2, 3)
            a[j][i] = -a[i][j]
    plus = [[int(i == j) + a[i][j] for j in range(n)] for i in range(n)]
    minus = [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
    inv = gauss_jordan_inverse(plus)
    return FrameMap([[sum((minus[i][k] * inv[k][j] for k in range(n)), Fraction(0))
                      for j in range(n)] for i in range(n)])


def test_orthogonal_frame_matches_the_cayley_product():
    """2 (1 + A)^-1 - 1 equals (1 - A)(1 + A)^-1 on the same draws, and the
    two consume the same random numbers."""
    for seed in range(4):
        for n in range(1, 6):
            rng, ref = random.Random(seed), random.Random(seed)
            lam = rand_orthogonal_frame(n, rng)
            assert lam == cayley_by_product(n, ref) and is_orthogonal(lam)
            assert rng.random() == ref.random()


def test_ndkc_orthogonal_frames():
    rng = random.Random(11)
    for n in (2, 3):
        for _ in range(5):
            lam = rand_orthogonal_frame(n, rng)
            assert is_orthogonal(lam)
            for mu, nu, ga in product(range(1, n + 1), repeat=3):
                assert ndkc_residual(lam, mu, nu, ga).is_zero


def test_ndkc_induced_form_generic_frames():
    rng = random.Random(12)
    for n in (1, 2, 3):
        for _ in range(6):
            lam = rand_frame(n, rng)
            for mu, nu, ga in product(range(1, n + 1), repeat=3):
                assert ndkc_induced_residual(lam, mu, nu, ga).is_zero


def test_ndkc_delta_form_fails_off_orthogonal():
    """Pinned counterexamples: the plain delta relation is not frame-covariant.

    Contracting the trilinear relation with a frame map turns the Euclidean
    delta into the Gram matrix of the frame rows, so any frame with
    non-orthonormal rows violates the delta form.
    """
    shear = FrameMap([[1, 1], [0, 1]])
    assert not ndkc_residual(shear, 1, 1, 1).is_zero
    scale = FrameMap([[2]])
    assert not ndkc_residual(scale, 1, 1, 1).is_zero
    # delta form holds exactly on the orthogonal subgroup and only there
    rng = random.Random(13)
    for _ in range(6):
        lam = rand_frame(2, rng)
        holds = all(
            ndkc_residual(lam, mu, nu, ga).is_zero
            for mu, nu, ga in product((1, 2), repeat=3)
        )
        assert holds == is_orthogonal(lam)


def test_beta_mu_validation():
    lam = FrameMap.identity(2)
    with pytest.raises(al.IndexRangeError):
        beta_mu(lam, 3, "upper_neg")
    with pytest.raises(ValueError):
        beta_mu(lam, 1, "diagonal")


def test_beta_families_reject_bad_indices():
    """An index outside 1..n raises instead of building the zero element or wrapping."""
    g = Metric.euclidean(3)
    for family in ("beta_lower", "beta_lower_neg"):
        for i in (0, 4, -1, -3):
            with pytest.raises(al.IndexRangeError):
                make_generator(family, i, g)
        for i in ((1,), 1.0, Fraction(1), "1"):
            with pytest.raises(TypeError):
                make_generator(family, i, g)
        with pytest.raises(al.IndexRangeError):
            check_trilinear(family, (0, 1, 2), g)
        with pytest.raises(al.IndexRangeError):
            check_trilinear(family, (1, 2, -1), g)
    with pytest.raises(TypeError):
        beta_mu(FrameMap.identity(2), Fraction(1), "upper_neg")


def test_generators_are_normalized_elements():
    """Each generator and beta_mu equals its validated AlgebraElement and stores no zero.

    Arguments and frames have zero components, so every zero guard is exercised.
    """
    rng = random.Random(91)

    def check(x):
        assert x == al.AlgebraElement(x.n, dict(x.terms()))
        assert all(c and type(c) is Fraction for _, c in x.terms())

    for n in range(1, 6):
        for _ in range(3):
            g = rand_metric(n, rng)
            args = [tuple(rng.choice((0, 0, 2, Fraction(-1, 3))) for _ in range(n)), (0,) * n]
            for family in FAMILIES:
                for arg in (range(1, n + 1) if family.startswith("beta") else args):
                    check(make_generator(family, arg, g))
            rows = [[rng.choice((0, 1, Fraction(-3, 2))) for _ in range(n)] for _ in range(n)]
            try:
                lam = FrameMap(rows)
            except SingularMatrixError:
                continue
            for mu in range(1, n + 1):
                for variant in ("upper_neg", "lower_neg"):
                    check(beta_mu(lam, mu, variant))
    assert make_generator("b_upper", (0, 0), Metric.euclidean(2)).is_zero
    assert len(make_generator("b_lower_neg", (0, 1, 0), Metric.euclidean(3))) == 2
