"""Core algebra: canonicalization, product, projectors, adjunction, contraction."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from dkpfields import algebra as al
from dkpfields._linalg import MAX_ENTRY_DIGITS, SingularMatrixError, _read_entry, _read_rows
from dkpfields._linalg import compound, invert
from dkpfields.algebra import (
    AlgebraElement,
    BasisElement,
    DimensionMismatchError,
    GradeError,
    IndexRangeError,
    Metric,
)
from dkpfields.dkp import FrameMap
from dkpfields.suites import rand_element, rand_metric, rand_vector


def E(n, upper, lower, c=1):
    return al.single(n, tuple(upper), tuple(lower), c)


def basis_vec(i, n):
    return tuple(Fraction(int(k == i)) for k in range(1, n + 1))


def is_inverse(m, inv):
    """m inv == 1, the product summed in Fractions."""
    n = len(m)
    return all(sum((m[i][k] * inv[k][j] for k in range(n)), Fraction(0)) == int(i == j)
               for i in range(n) for j in range(n))


# -- canonicalize / gen_delta ------------------------------------------------


def test_canonicalize_transposition():
    assert al.canonicalize((2, 1), 2) == (-1, (1, 2))


def test_canonicalize_repeat_kills():
    assert al.canonicalize((1, 1), 2) == (0, ())


def test_canonicalize_even_permutation():
    assert al.canonicalize((3, 1, 2), 3) == (1, (1, 2, 3))


def test_canonicalize_empty_and_range():
    assert al.canonicalize((), 1) == (1, ())
    with pytest.raises(IndexRangeError, match=r"^index 0 outside 1\.\.3$"):
        al.canonicalize((0,), 3)
    with pytest.raises(IndexRangeError, match=r"^index 4 outside 1\.\.3$"):
        al.canonicalize((4,), 3)
    with pytest.raises(TypeError, match="^index must be an int, not Fraction$"):
        al.canonicalize((2, Fraction(1)), 3)


@given(st.lists(st.integers(1, 5), max_size=5))
def test_canonicalize_sign_is_sort_parity(seq):
    sign, ix = al.canonicalize(seq, 5)
    if len(set(seq)) != len(seq):
        assert sign == 0
    else:
        assert ix == tuple(sorted(seq))
        # parity by brute inversion count
        inv = sum(
            1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
        )
        assert sign == (-1) ** inv


def test_gen_delta_anchors():
    assert al.gen_delta((1, 2), (1, 2)) == 1
    assert al.gen_delta((2, 1), (1, 2)) == -1
    assert al.gen_delta((1, 3), (1, 2)) == 0
    assert al.gen_delta((1,), (1, 2)) == 0
    assert al.gen_delta((1, 1), (1, 1)) == 0
    assert al.gen_delta((), ()) == 1


# -- term keys -----------------------------------------------------------------


def _two_scan_check(ix, n):
    """The key check as a range scan over every entry, then an order scan."""
    ix = tuple(ix)
    if any(not 1 <= x <= n for x in ix):
        raise IndexRangeError(f"multi-index {ix} outside 1..{n}")
    if any(a >= b for a, b in zip(ix, ix[1:])):
        raise ValueError(f"multi-index {ix} must be strictly increasing")
    return ix


def _outcome(check, ix, n):
    try:
        return "ok", check(ix, n)
    except ValueError as exc:  # IndexRangeError is a ValueError
        return type(exc), str(exc)


def _term_keys(seed):
    """Keys for n = 1..5: empty, in range, 0, negative, above n at either
    end, repeated and decreasing, each as a tuple or a list."""
    rng = random.Random(seed)
    keys = []
    for n in range(1, 6):
        keys += [((), n), ((0,), n), ((-1, n), n), ((1, n + 1), n), ((n + 1, n + 2), n),
                 ((1, 1), n), ((n, 1), n), ((n + 1, 1), n), ([1, n + 1], n)]
        for _ in range(80):
            size = rng.randint(0, n + 1)
            draw = rng.choices(range(-1, n + 3), k=size)  # may repeat or leave 1..n
            ix = [sorted(rng.sample(range(1, n + 1), min(size, n))),  # in range
                  sorted(set(draw)),  # strictly increasing, may cross either end
                  draw,
                  sorted(draw, reverse=True)][rng.randrange(4)]
            keys.append((ix if rng.randrange(2) else tuple(ix), n))
    return keys


@pytest.mark.parametrize("seed", [0, 7, 7331])
def test_key_check_matches_the_two_scan_check(seed):
    """Same key or the same exception type and message, range before order."""
    keys = _term_keys(seed)
    got = [_outcome(al._check_multi_index, ix, n) for ix, n in keys]
    assert got == [_outcome(_two_scan_check, ix, n) for ix, n in keys]
    assert {kind for kind, _ in got} == {"ok", IndexRangeError, ValueError}


# -- product -----------------------------------------------------------------


def test_matrix_unit_product():
    n = 3
    assert E(n, [1], [2]) * E(n, [2], [3]) == E(n, [1], [3])
    assert (E(n, [1], [2]) * E(n, [3], [3])).is_zero


def test_vacuum_idempotent():
    for n in (1, 2, 3, 4):
        P = al.projector_p(n)
        assert P * P == P


def test_pairing_collapse():
    n = 2
    assert E(n, [], [1]) * E(n, [1], []) == E(n, [], [])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        E(2, [], []) * E(3, [], [])
    with pytest.raises(DimensionMismatchError, match="metric dimension must match element"):
        al.adjoint(E(2, [], []), Metric.euclidean(3))
    with pytest.raises(IndexRangeError, match="dimension n must be >= 1"):
        AlgebraElement(0, {})


def test_unit_is_identity():
    rng = random.Random(5)
    for n in (1, 2, 3):
        u = al.unit(n)
        for _ in range(20):
            x = rand_element(n, rng)
            assert u * x == x
            assert x * u == x


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.data())
def test_associativity(n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    x, y, z = (rand_element(n, rng) for _ in range(3))
    assert (x * y) * z == x * (y * z)


def test_basis_count():
    for n in (1, 2, 3, 4):
        assert len(al.basis_elements(n)) == 2 ** (2 * n)


# -- embeddings ---------------------------------------------------------------


def test_embed_vector_n1():
    assert al.embed_vector((1,), 1) == E(1, [], [1])


def test_embed_covector_n1():
    assert al.embed_covector((1,), 1) == E(1, [1], [])


def test_embed_vector_n2_golden():
    # frozen against the fermionic oracle: both coefficients are +1
    want = E(2, [], [1]) + E(2, [2], [1, 2])
    assert al.embed_vector((1, 0), 2) == want
    want = E(2, [], [2]) - E(2, [1], [1, 2])
    assert al.embed_vector((0, 1), 2) == want


def test_embed_covector_n2_golden():
    want = E(2, [1], []) + E(2, [1, 2], [2])
    assert al.embed_covector((1, 0), 2) == want


def test_clifford_relations_all_basis_pairs():
    for n in (1, 2, 3, 4):
        u = al.unit(n)
        vs = [al.embed_vector(basis_vec(i, n), n) for i in range(1, n + 1)]
        cs = [al.embed_covector(basis_vec(i, n), n) for i in range(1, n + 1)]
        for i in range(n):
            for j in range(n):
                assert (vs[i] * vs[j] + vs[j] * vs[i]).is_zero
                assert (cs[i] * cs[j] + cs[j] * cs[i]).is_zero
                want = u if i == j else al.zero(n)
                assert vs[i] * cs[j] + cs[j] * vs[i] == want


def test_zero_divisor_relations():
    rng = random.Random(9)
    for n in (1, 2, 3, 4):
        P = al.projector_p(n)
        for _ in range(20):
            assert (al.embed_vector(rand_vector(n, rng), n) * P).is_zero
            assert (P * al.embed_covector(rand_vector(n, rng), n)).is_zero


def test_embeddings_are_linear():
    rng = random.Random(21)
    n = 3
    v = rand_vector(n, rng)
    w = rand_vector(n, rng)
    s = Fraction(3, 2)
    vw = tuple(a + s * b for a, b in zip(v, w))
    assert al.embed_vector(vw, n) == al.embed_vector(v, n) + s * al.embed_vector(w, n)
    assert al.embed_covector(vw, n) == al.embed_covector(v, n) + s * al.embed_covector(w, n)


# -- projectors ----------------------------------------------------------------


def test_grade_projectors():
    assert al.projector_pi(1, 2) == E(2, [1], [1]) + E(2, [2], [2])
    with pytest.raises(IndexRangeError):
        al.projector_pi(3, 2)
    with pytest.raises(IndexRangeError):
        al.projector_pi(-1, 2)


def test_projector_resolution_of_unit():
    for n in (1, 2, 3, 4):
        total = al.zero(n)
        for p in range(n + 1):
            total = total + al.projector_pi(p, n)
        assert total == al.unit(n)


def test_projector_orthogonality():
    for n in (1, 2, 3, 4):
        for p in range(n + 1):
            for q in range(n + 1):
                prod = al.projector_pi(p, n) * al.projector_pi(q, n)
                want = al.projector_pi(p, n) if p == q else al.zero(n)
                assert prod == want


def test_sliding_rule():
    rng = random.Random(33)
    for n in (1, 2, 3, 4):
        def pi(p):
            return al.projector_pi(p, n) if 0 <= p <= n else al.zero(n)

        for _ in range(8):
            a = al.embed_covector(rand_vector(n, rng), n)
            v = al.embed_vector(rand_vector(n, rng), n)
            for p in range(-1, n + 2):
                assert a * pi(p) == pi(p + 1) * a
                assert pi(p) * v == v * pi(p + 1)


def test_minimal_left_ideal():
    for n in (1, 2, 3):
        P = al.projector_p(n)
        imgs = set()
        for be in al.basis_elements(n):
            t = al.single(n, be.upper, be.lower) * P
            if not t.is_zero:
                imgs.add(t)
        assert len(imgs) == 2**n
        assert all(next(iter(t.support())).lower == () for t in imgs)


def test_unit_n1_golden():
    assert al.unit(1) == E(1, [], []) + E(1, [1], [1])


# -- adjunction -----------------------------------------------------------------


def test_adjoint_euclidean_anchor():
    n = 2
    d = Metric.euclidean(n)
    assert al.adjoint(E(n, [], [1]), d) == E(n, [1], [])
    assert al.adjoint(E(n, [1, 2], [2]), d) == E(n, [2], [1, 2])


def test_adjoint_involution_and_antihom():
    rng = random.Random(41)
    for n in (1, 2, 3, 4, 5):
        g = rand_metric(n, rng)
        for _ in range(15):
            x, y = rand_element(n, rng), rand_element(n, rng)
            assert al.adjoint(al.adjoint(x, g), g) == x
            assert al.adjoint(x * y, g) == al.adjoint(y, g) * al.adjoint(x, g)


def test_adjoint_on_generators():
    rng = random.Random(43)
    n = 3
    g = rand_metric(n, rng)
    for i in range(1, n + 1):
        ei = al.embed_vector(basis_vec(i, n), n)
        want = al.embed_covector(g.flat(basis_vec(i, n)), n)
        assert al.adjoint(ei, g) == want
        ci = al.embed_covector(basis_vec(i, n), n)
        want = al.embed_vector(g.sharp(basis_vec(i, n)), n)
        assert al.adjoint(ci, g) == want


def adjoint_by_words(x, g):
    """Reference adjoint: reverse each basis word factor by factor.

    E(J, K)+ is the covector word (e^{k_1})+ .. (e^{k_q})+ followed by the
    vector word (e^{j_p})+ .. (e^{j_1})+, each factor expanded through g or
    g^-1 into n raw words and re-canonicalized by basis_word; n^(|J|+|K|)
    words per term, independent of the minors the library uses.
    """
    n = x.n
    acc = {}
    for (up, lo), c in x.terms():
        partial = [(c, (), ())]
        for k in lo:
            partial = [
                (coeff * g.g[k - 1][a - 1], useq + (a,), lseq)
                for coeff, useq, lseq in partial
                for a in range(1, n + 1)
                if g.g[k - 1][a - 1]
            ]
        for j in reversed(up):
            partial = [
                (coeff * g.g_inv[j - 1][b - 1], useq, lseq + (b,))
                for coeff, useq, lseq in partial
                for b in range(1, n + 1)
                if g.g_inv[j - 1][b - 1]
            ]
        for coeff, useq, lseq in partial:
            for be, v in al.basis_word(n, useq, lseq, coeff).terms():
                acc[be] = acc.get(be, 0) + v
    return AlgebraElement(n, acc)


def oracle_metrics(n, rng):
    """Dense, diagonal indefinite, and sparse metrics (the last has zero minors)."""
    diag = [[Fraction((-1) ** i * (i + 2), 2) if i == j else 0 for j in range(n)]
            for i in range(n)]
    exchange = [[min(i, j) + 1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        exchange[0][0] = -2  # breaks the pure exchange pattern; still invertible
    return [rand_metric(n, rng), Metric(diag), Metric(exchange)]


def test_adjoint_reads_minors_off_the_int_pairs():
    """adjoint builds the minors from the (int rows, den) pairs the metric
    keeps, never from its Fraction views g and g_inv, and they equal the
    minors of the views."""
    rng = random.Random(45)
    for n in (1, 2, 3, 4):
        for g in oracle_metrics(n, rng):
            al.adjoint(rand_element(n, rng), g)
            assert "m" not in g._cache and "m_inv" not in g._cache
            for p in range(n + 1):
                assert g._minors_of(p) == (compound(_read_rows(g.g), p),
                                           compound(_read_rows(g.g_inv), p))


def test_adjoint_matches_word_expansion():
    rng = random.Random(47)
    for n in (1, 2, 3, 4):
        for g in oracle_metrics(n, rng):
            xs = [rand_element(n, rng) for _ in range(8)]
            xs += [al.single(n, be.upper, be.lower) for be in al.basis_elements(n)]
            for x in xs:
                assert al.adjoint(x, g) == adjoint_by_words(x, g)


def test_sparse_oracle_metric_has_zero_minors():
    # compound keeps nonzero minors only, so a short row set has a zero one
    for n in (2, 3, 4):
        g = oracle_metrics(n, random.Random(0))[2]
        assert any(
            len(rows) < comb(n, p) for p in range(1, n) for rows in compound(g._rows, p).values()
        )


def leibniz_det(m):
    n = len(m)
    return sum(
        al.gen_delta(tuple(range(n)), perm)
        * prod((m[i][perm[i]] for i in range(n)), start=Fraction(1))
        for perm in permutations(range(n))
    )


def test_compound_minors_against_leibniz():
    rng = random.Random(53)
    for n in range(1, 5):
        sets = [list(combinations(range(1, n + 1), p)) for p in range(n + 1)]
        for _ in range(10):
            # zeros on and off the diagonal force pivot swaps and zero minors
            m = [[rng.choice((0, 0, 1, -2, Fraction(3, 2))) for _ in range(n)] for _ in range(n)]
            for p in range(n + 1):
                got = compound(_read_rows(m), p)
                for rows in sets[p]:
                    nonzero = dict(got[rows])
                    assert all(type(d) is Fraction and d for d in nonzero.values())
                    for cols in sets[p]:
                        sub = [[m[r - 1][c - 1] for c in cols] for r in rows]
                        assert nonzero.get(cols, 0) == leibniz_det(sub)


def check_inverse(m):
    """m * invert(m) == I, or SingularMatrixError exactly when det m == 0."""
    if leibniz_det(m) == 0:
        with pytest.raises(SingularMatrixError):
            invert(m)
    else:
        inv = invert(m)
        assert all(type(x) is Fraction for row in inv for x in row)
        assert is_inverse(m, inv)


def test_invert_int_rows_gives_exact_fractions():
    inv = invert([[2, 1], [1, 3]])
    assert inv == ((Fraction(3, 5), Fraction(-1, 5)), (Fraction(-1, 5), Fraction(2, 5)))
    assert all(type(x) is Fraction for row in inv for x in row)


def test_invert_all_small_2x2():
    for a, b, c, d in product(range(-2, 3), repeat=4):
        check_inverse([[a, b], [c, d]])


def test_invert_sparse_rational():
    rng = random.Random(71)
    for n in range(3, 6):
        for _ in range(40):
            # a zero corner and half zeros elsewhere force row swaps and singular cases
            m = [[rng.choice((0, 0, 1, -1, Fraction(-3, 2), Fraction(2, 5))) for _ in range(n)]
                 for _ in range(n)]
            m[0][0] = 0
            check_inverse(m)


@pytest.mark.parametrize("build, rows", [(invert, [[1, 2, 3], [0, 1, 0]]), (invert, []),
                                         (FrameMap, []), (Metric, [])],
                         ids=["invert-2x3", "invert-empty", "FrameMap-empty", "Metric-empty"])
def test_matrix_must_be_square_and_nonempty(build, rows):
    """invert, FrameMap and Metric share one shape check: a 2 x 3 matrix has
    no inverse, and an empty one has no n."""
    with pytest.raises(ValueError, match="^matrix must be square and nonempty$"):
        build(rows)


# -- contraction -----------------------------------------------------------------


def test_contract_anchors():
    n = 2
    assert al.contract(E(n, [1], [2]), 1).is_zero
    assert al.contract(E(n, [1], [1]), 1) == al.projector_p(n)


def test_contract_grade_error():
    with pytest.raises(GradeError):
        al.contract(E(2, [1], [1, 2]), 1)
    with pytest.raises(GradeError):
        al.contract(E(2, [1], [1]), 2)


def test_contract_word_delta_combination():
    """Grade-2 contraction of a raw word gives the two-delta combination."""
    n = 3
    for k in range(1, n + 1):
        for t in range(1, n + 1):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    w = al.basis_word(n, (k, t), (a, b))
                    got = al.contract(w, 2) if not w.is_zero else al.zero(n)
                    want_c = int(k == b and t == a) - int(t == b and k == a)
                    assert got == want_c * al.projector_p(n)
                    assert got == al.gen_delta((k, t), (b, a)) * al.projector_p(n)


def test_basis_word_antisymmetry():
    n = 3
    assert al.basis_word(n, (), (1, 2)) == -1 * al.basis_word(n, (), (2, 1))
    assert al.basis_word(n, (2, 1), ()) == -1 * al.basis_word(n, (1, 2), ())
    assert al.basis_word(n, (1, 1), ()).is_zero
    assert al.basis_word(n, (), (2, 2)).is_zero


# -- container behavior ------------------------------------------------------------


def test_no_zero_terms_stored():
    x = AlgebraElement(2, {BasisElement((), ()): Fraction(0)})
    assert x.is_zero and len(x) == 0
    y = E(2, [], []) - E(2, [], [])
    assert y.is_zero


def test_float_rejected():
    with pytest.raises(TypeError):
        AlgebraElement(2, {BasisElement((), ()): 0.5})
    with pytest.raises(TypeError):
        0.5 * al.unit(2)


def test_invalid_multi_index_rejected():
    with pytest.raises(ValueError):
        al.single(2, (2, 1), ())
    with pytest.raises(IndexRangeError):
        al.single(2, (3,), ())


def test_text_form():
    x = al.single(3, (1, 3), (2,), Fraction(3, 2))
    assert str(x) == "3/2 * E[1,3|2]"
    assert str(al.zero(2)) == "0"
    assert str(al.projector_p(1)) == "1 * E[|]"
    # deterministic order: by (|J|, |K|, J, K)
    y = E(3, [1], [1]) + E(3, [], [2]) + E(3, [], [1])
    assert str(y) == "1 * E[|1] + 1 * E[|2] + 1 * E[1|1]"


def test_matrix_entries_read_like_fraction():
    """The shared entry reader takes Fraction's string syntax straight into ints."""
    good = ["3", "-4", " +7 ", "0", "-0", "1/2", "-6/4", "1_000", "2/1_0", "1.5", "-.25", "3.",
            "1e3", "1E-3", "2.5e-2", "-1.2e+2", "0.000", "  12/18\n", "1" + "0" * 99, "9e100",
            "1e-100"]
    for text in good:
        want = Fraction(text)
        assert _read_entry(text) == (want.numerator, want.denominator), text
    for text in ["", "x", "1/", "/2", "1/2/3", "1.2/3", "e5", "1e", "--1", "1 2", "1.2.3"]:
        with pytest.raises(ValueError):
            Fraction(text)
        with pytest.raises(ValueError, match="invalid matrix entry"):
            _read_entry(text)
    with pytest.raises(ZeroDivisionError):
        _read_entry("1/0")
    for text in ["1" * (MAX_ENTRY_DIGITS + 1), "1e101", "1e-101", "1e1000000", "1/" + "3" * 100]:
        with pytest.raises(ValueError, match="above the cap"):
            _read_entry(text)
    assert _read_entry(Fraction(-3, 6)) == (-1, 2) and _read_entry(5) == (5, 1)
    with pytest.raises(TypeError):
        _read_entry(0.5)


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(al.SingularMatrixError):
        Metric([[1, 1], [1, 1]])  # singular
    with pytest.raises(ValueError, match="matrix must be square"):
        Metric([[1, 2]])
    with pytest.raises(ValueError, match="invalid matrix entry"):
        Metric([[1, "x"]])  # an entry error comes before the shape check
    g = Metric([[2, 1], [1, 1]])
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    got = [
        [sum(g.g[i][k] * g.g_inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert got == eye


def test_metric_flat_sharp_inverse():
    rng = random.Random(55)
    g = rand_metric(3, rng)
    v = rand_vector(3, rng)
    assert g.sharp(g.flat(v)) == v
    assert g.flat(g.sharp(v)) == v


def test_metric_rejects_wrong_component_count():
    g = Metric.euclidean(2)
    for bad in ((1, 2, 3), (1,)):
        for call in (
            lambda: g.flat(bad),
            lambda: g.sharp(bad),
            lambda: g.pair(bad, (1, 2)),
            lambda: g.pair((1, 2), bad),
            lambda: g.pair_inv(bad, (1, 2)),
            lambda: g.pair_inv((1, 2), bad),
        ):
            with pytest.raises(DimensionMismatchError):
                call()
    assert g.pair((1, 2), (3, 4)) == g.pair_inv((1, 2), (3, 4)) == 11


def rand_sparse_metric(n, rng):
    """A random invertible rational metric; from n = 2 on it has a zero and a non-integer entry."""
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice((0, 1, -2, Fraction(1, 2), Fraction(-5, 3)))
        flat = [x for row in rows for x in row]
        if n > 1 and (0 not in flat or all(x.denominator == 1 for x in flat)):
            continue
        try:
            return Metric(rows)
        except SingularMatrixError:
            continue


def test_metric_integer_path_matches_fraction_reference():
    """flat, sharp, pair and pair_inv equal sum_j m_ij v_j over Fractions.

    The metrics have zero and non-integer entries, and the arguments are int
    or Fraction tuples with zero components, so neither the rows' nor the
    argument's common denominator is 1.
    """

    def ref(m, v):
        return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m)

    def dot(x, y):
        return sum((a * b for a, b in zip(x, y)), Fraction(0))

    rng = random.Random(83)
    for n in range(1, 6):
        for _ in range(4):
            g = rand_sparse_metric(n, rng)
            assert is_inverse(g.g, g.g_inv)
            args = [tuple(rng.choice((0, 1, -3)) for _ in range(n)),
                    tuple(rng.choice((0, Fraction(2, 3), Fraction(-1, 4), 5)) for _ in range(n)),
                    (0,) * n]
            for v in args:
                want_flat, want_sharp = ref(g.g, v), ref(g.g_inv, v)
                assert g.flat(v) == want_flat and g.sharp(v) == want_sharp
                assert all(type(x) is Fraction for x in g.flat(v) + g.sharp(v))
                assert g.sharp(g.flat(v)) == tuple(v)
                for w in args:
                    assert g.pair(v, w) == dot(want_flat, w)
                    assert g.pair_inv(v, w) == dot(want_sharp, w)
                    assert type(g.pair(v, w)) is Fraction
    g = Metric([[Fraction(1, 2), 0], [0, 3]])
    for call in (g.flat, g.sharp, lambda v: g.pair(v, (1, 1)), lambda v: g.pair_inv((1, 1), v)):
        with pytest.raises(TypeError):
            call((1, 0.5))
