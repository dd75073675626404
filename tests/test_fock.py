"""Fock-space oracle: CAR matrices and the representation homomorphism."""

import random
from fractions import Fraction

import pytest

from dkpfields import algebra as al
from dkpfields import fock
from dkpfields.algebra import IndexRangeError, Metric
from dkpfields.fock import DenseOperator, represent, represent_generator
from dkpfields.suites import rand_element, rand_fraction


def test_single_mode_creation():
    c = represent_generator("covector", 1, 1)
    # maps |empty> (index 0) to |{1}> (index 1) with coefficient 1
    assert c.rows[1][0] == 1
    assert sum(1 for row in c.rows for x in row if x) == 1


def test_single_mode_annihilation_is_transpose():
    a = represent_generator("vector", 1, 1)
    c = represent_generator("covector", 1, 1)
    assert a == c.transpose()


def test_generator_index_range():
    with pytest.raises(IndexRangeError, match=r"^index 0 outside 1\.\.2$"):
        represent_generator("vector", 0, 2)
    with pytest.raises(IndexRangeError, match=r"^index 3 outside 1\.\.2$"):
        represent_generator("covector", 3, 2)
    with pytest.raises(TypeError, match="^index must be an int, not Fraction$"):
        represent_generator("covector", Fraction(1), 2)
    with pytest.raises(ValueError, match="unknown generator kind 'bogus'"):
        represent_generator("bogus", 1, 2)


def test_car_relations_matrices():
    for n in (1, 2, 3, 5):
        eye = DenseOperator.identity(n)
        zero = DenseOperator.zero(n)
        a = [represent_generator("vector", i, n) for i in range(1, n + 1)]
        c = [represent_generator("covector", i, n) for i in range(1, n + 1)]
        for i in range(n):
            for j in range(n):
                anti = a[i] @ c[j] + c[j] @ a[i]
                assert anti == (eye if i == j else zero)
                assert a[i] @ a[j] + a[j] @ a[i] == zero
                assert c[i] @ c[j] + c[j] @ c[i] == zero


def test_vacuum_projector():
    for n in (1, 2, 3):
        m = represent(al.projector_p(n))
        assert m.rows[0][0] == 1
        assert sum(1 for row in m.rows for x in row if x) == 1


def test_unit_is_identity_matrix():
    for n in (1, 2, 3):
        assert represent(al.unit(n)) == DenseOperator.identity(n)


def test_basis_elements_map_to_matrix_units():
    """Faithfulness: distinct basis elements give distinct single-entry matrices."""
    for n in (1, 2, 3):
        seen = set()
        for be in al.basis_elements(n):
            m = represent(al.single(n, be.upper, be.lower))
            nz = [(i, j, x) for i, row in enumerate(m.rows) for j, x in enumerate(row) if x]
            assert len(nz) == 1 and nz[0][2] == 1
            seen.add((nz[0][0], nz[0][1]))
        assert len(seen) == 2 ** (2 * n)


def test_representation_homomorphism_random():
    rng = random.Random(2)
    for n in (1, 2, 3):
        for _ in range(60):
            x, y = rand_element(n, rng), rand_element(n, rng)
            assert represent(x * y) == represent(x) @ represent(y)


def test_representation_is_linear():
    rng = random.Random(3)
    n = 2
    x, y = rand_element(n, rng), rand_element(n, rng)
    s = Fraction(5, 3)
    scaled = DenseOperator(n, [[s * a for a in row] for row in represent(y).rows])
    assert represent(x + s * y) == represent(x) + scaled


def test_adjoint_is_transpose_for_euclidean_metric():
    rng = random.Random(4)
    d3 = Metric.euclidean(3)
    for _ in range(15):
        x = rand_element(3, rng)
        assert represent(al.adjoint(x, d3)) == represent(x).transpose()


def _embeddings_match(n):
    """Whether each e_i embeds as a_i and each e^i as a+_i, one bool per check."""
    for i in range(1, n + 1):
        e = tuple(Fraction(int(k == i)) for k in range(1, n + 1))
        yield represent(al.embed_vector(e, n)) == represent_generator("vector", i, n)
        yield represent(al.embed_covector(e, n)) == represent_generator("covector", i, n)


def test_embeddings_match_generator_matrices():
    for n in (1, 2, 3, 5):
        assert all(_embeddings_match(n))


def dense_element(n, rng):
    """An element with all 4^n basis terms, each with a nonzero coefficient."""
    return al.AlgebraElement(n, {be: rng.choice((-1, 1)) * rand_fraction(rng, 1, 4)
                                 for be in al.basis_elements(n)})


@pytest.mark.parametrize("n, seed, dense", [(5, 5, 1), (6, 6, 0)], ids=["5-5", "6-6"])
def test_uncapped_homomorphism_and_transpose(n, seed, dense):
    """Four-term draws, plus `dense` pairs with every basis element present:
    four-term draws seldom meet the high-grade products that a dense pair
    holds all of."""
    rng = random.Random(seed)
    pairs = [(rand_element(n, rng), rand_element(n, rng)) for _ in range(20)]
    delta = Metric.euclidean(n)
    for _ in range(10):
        x = rand_element(n, rng)
        assert represent(al.adjoint(x, delta)) == represent(x).transpose()
    pairs += [(dense_element(n, rng), dense_element(n, rng)) for _ in range(dense)]
    for x, y in pairs:
        assert represent(x * y) == represent(x) @ represent(y)


@pytest.fixture
def mutant_act(monkeypatch):
    """Install a wrapper around fock._act, with the image cache cleared
    before and after so that no other test sees a mutant image."""
    real = fock._act

    def install(mutate):
        monkeypatch.setattr(fock, "_act", lambda kind, i, s: mutate(kind, i, real(kind, i, s)))
        fock._basis_nonzeros.cache_clear()

    yield install
    monkeypatch.undo()
    fock._basis_nonzeros.cache_clear()


def _homomorphism_holds(n, draws, seed):
    rng = random.Random(seed)
    return all(represent(x * y) == represent(x) @ represent(y)
               for x, y in ((rand_element(n, rng), rand_element(n, rng)) for _ in range(draws)))


def test_flipped_generator_sign_fails_homomorphism(mutant_act):
    """a_1 with the opposite sign: every basis image changes sign with the
    parity of its a_1 factors, so E * E' and E E' disagree on some pair."""
    assert _homomorphism_holds(5, 20, 7)
    mutant_act(lambda kind, i, hit: hit if hit is None or (kind, i) != ("vector", 1)
               else (hit[0], -hit[1]))
    assert not _homomorphism_holds(5, 20, 7)


def test_constant_phase_fails_embedding_match(mutant_act):
    """A constant +1 phase in place of the fermionic one.

    The homomorphism alone cannot see it: the product in the projector
    basis is the sign-free matrix-unit rule, and with a +1 phase every basis
    image is still one +1 matrix unit, so core/representation oracle passes.
    Only the embeddings, whose signs are fixed against the fermionic
    phase, catch it.
    """
    assert all(_embeddings_match(5))
    mutant_act(lambda kind, i, hit: hit and (hit[0], 1))
    assert _homomorphism_holds(5, 20, 7)
    assert not all(_embeddings_match(5))
