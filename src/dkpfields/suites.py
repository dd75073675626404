"""The registry of exact identity-check groups, with seeded random draws.

Each identity has one body here: a function registered under its report
name `suite/group` with its default sweep size (draws, frames or metrics).
Every group fills Check objects, each counting exact comparisons.

Two routes run the same bodies:

- `run_suites`, behind `dkpfields verify`, walks REGISTRY in order and
  gives each group its own random.Random, seeded by the seed and the
  group's first check name, so a fixed seed reproduces the identical
  report byte for byte, a group draws the same values alone as inside
  `--suite all`, and resizing one group moves no other group's draws;
- tests/test_acceptance.py runs single groups through GROUPS[name].run at
  its own n range, seed and sweep size.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, NamedTuple

from . import algebra as al
from . import dkp, fock, subspaces
from . import fields as fl


class Check:
    """One named group of exact checks."""

    __slots__ = ("name", "run", "failed", "first_failure")

    def __init__(self, name):
        self.name = name
        self.run = 0
        self.failed = 0
        self.first_failure = ""

    def ok(self, cond, note=""):
        self.run += 1
        if not cond:
            self.failed += 1
            if not self.first_failure:
                self.first_failure = note() if callable(note) else note

    @property
    def passed(self):
        return self.failed == 0

    @property
    def detail(self):
        base = f"{self.run} checks"
        if self.failed:
            base += f", {self.failed} failed"
            if self.first_failure:
                base += f" (first: {self.first_failure})"
        return base


# -- random generators -----------------------------------------------------


def rand_fraction(rng, lo=-4, hi=4, den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


@lru_cache(maxsize=4)
def _basis(n):
    """basis_elements(n) as a tuple in the same order, built once per n."""
    return tuple(al.basis_elements(n))


def rand_element(n, rng, nterms=4):
    bes = _basis(n)
    terms = {}
    for _ in range(nterms):
        terms[rng.choice(bes)] = rand_fraction(rng)
    return al.AlgebraElement(n, terms)


def rand_metric(n, rng):
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rand_fraction(rng, -3, 3, 2)
        try:
            return al.Metric(rows)
        except (al.SingularMatrixError, ValueError):
            continue


def rand_frame(n, rng):
    while True:
        try:
            return dkp.FrameMap(
                [[rand_fraction(rng, -3, 3, 2) for _ in range(n)] for _ in range(n)]
            )
        except al.SingularMatrixError:
            continue


def rand_orthogonal_frame(n, rng):
    """Random rational orthogonal matrix: Cayley transform of antisymmetric A,
    (1 - A)(1 + A)^-1 = 2 (1 + A)^-1 - 1."""
    plus = [[0] * n for _ in range(n)]
    for i in range(n):
        plus[i][i] = 1
        for j in range(i + 1, n):
            plus[i][j] = rand_fraction(rng, -2, 2, 3)
            plus[j][i] = -plus[i][j]
    inv = dkp.FrameMap(plus).lam_inv
    return dkp.FrameMap([[2 * x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(inv)])


def rand_vector(n, rng):
    return tuple(rand_fraction(rng, -3, 3, 2) for _ in range(n))


def rand_zp_element(n, p, rng):
    terms = {}
    for be in subspaces.zp_basis(n, p):
        if rng.random() < 0.6:
            c = rand_fraction(rng)
            if c:
                terms[be] = c
    return al.AlgebraElement(n, terms)


def rand_field_poly(n, p, rng, nterms=3, deg=2):
    syms = []
    for I in combinations(range(1, n + 1), p):
        syms.append(fl.y_sym(I))
        for mu in range(1, n + 1):
            syms.append(fl.p_sym(mu, I))
    out = fl.FieldPoly.zero()
    for _ in range(nterms):
        mono = fl.FieldPoly.const(rand_fraction(rng))
        for _ in range(rng.randint(0, deg)):
            mono = mono * fl.FieldPoly.of(rng.choice(syms))
        out = out + mono
    return out


def _basis_vectors(n):
    return [tuple(Fraction(int(k == i)) for k in range(1, n + 1)) for i in range(1, n + 1)]


# -- the registry ------------------------------------------------------------

class Group(NamedTuple):
    """One registry entry: the Checks `names`, filled by one body.

    The body is called as body(*checks, n, rng, size, metric=..., lam=...);
    `size` is its sweep (draws, frames or metrics), `max_n` the largest n at
    which `verify` runs it.
    """

    names: tuple
    body: Callable
    size: int | None
    max_n: int | None

    @property
    def suite(self):
        return self.names[0].split("/")[0]

    def run(self, n, rng, size=None, metric=None, lam=None):
        """Fresh Checks for `names` at n, with the default sweep unless `size` is given."""
        checks = [Check(name) for name in self.names]
        self.body(*checks, n, rng, self.size if size is None else size, metric=metric, lam=lam)
        return checks


REGISTRY = []  # filled once at import, in report order


def _group(*names, size=None, max_n=None):
    def register(body):
        REGISTRY.append(Group(names, body, size, max_n))
        return body

    return register


# -- core suite --------------------------------------------------------------


@_group("core/canonicalization")
def _canonicalization(c, n, rng, size, **_):
    c.ok(al.canonicalize((2, 1), 3) == (-1, (1, 2)))
    c.ok(al.canonicalize((1, 1), 3) == (0, ()))
    c.ok(al.canonicalize((3, 1, 2), 3) == (1, (1, 2, 3)))
    c.ok(al.gen_delta((1, 2), (1, 2)) == 1)
    c.ok(al.gen_delta((2, 1), (1, 2)) == -1)
    c.ok(al.gen_delta((1, 3), (1, 2)) == 0)


@_group("core/basis count")
def _basis_count(c, n, rng, size, **_):
    c.ok(len(al.basis_elements(n)) == 4**n)


@_group("core/clifford relations")
def _clifford(c, n, rng, size, **_):
    vs = [al.embed_vector(v, n) for v in _basis_vectors(n)]
    cs = [al.embed_covector(a, n) for a in _basis_vectors(n)]
    u = al.unit(n)
    for i in range(n):
        for j in range(n):
            c.ok((vs[i] * vs[j] + vs[j] * vs[i]).is_zero, f"vv {i + 1},{j + 1}")
            c.ok((cs[i] * cs[j] + cs[j] * cs[i]).is_zero, f"cc {i + 1},{j + 1}")
            want = u if i == j else al.zero(n)
            c.ok(vs[i] * cs[j] + cs[j] * vs[i] == want, f"vc {i + 1},{j + 1}")


@_group("core/zero divisors of the idempotent", size=25)
def _zero_divisors(c, n, rng, size, **_):
    pp = al.projector_p(n)
    for _ in range(size):
        c.ok((al.embed_vector(rand_vector(n, rng), n) * pp).is_zero)
        c.ok((pp * al.embed_covector(rand_vector(n, rng), n)).is_zero)


@_group("core/associativity", size=200)
def _associativity(c, n, rng, size, **_):
    for _ in range(size):
        x, y, z = (rand_element(n, rng) for _ in range(3))
        c.ok((x * y) * z == x * (y * z), lambda: f"residual {(x * y) * z - x * (y * z)}")


@_group("core/projector algebra", size=10)
def _projectors(c, n, rng, size, **_):
    pis = [al.projector_pi(p, n) for p in range(n + 1)]
    total = al.zero(n)
    for p, pi_p in enumerate(pis):
        total = total + pi_p
        c.ok(pi_p * pi_p == pi_p, f"idempotent p={p}")
        for q, pi_q in enumerate(pis):
            if p != q:
                c.ok((pi_p * pi_q).is_zero, f"orthogonal {p},{q}")
    c.ok(total == al.unit(n), "sum is unit")

    def pi_or_zero(p):
        return pis[p] if 0 <= p <= n else al.zero(n)

    for _ in range(size):
        a = al.embed_covector(rand_vector(n, rng), n)
        v = al.embed_vector(rand_vector(n, rng), n)
        for p in range(-1, n + 2):
            c.ok(a * pi_or_zero(p) == pi_or_zero(p + 1) * a, f"slide cov p={p}")
            c.ok(pi_or_zero(p) * v == v * pi_or_zero(p + 1), f"slide vec p={p}")
    pp = al.projector_p(n)
    imgs = {
        t
        for be in al.basis_elements(n)
        for t in (al.single(n, be.upper, be.lower) * pp,)
        if not t.is_zero
    }
    c.ok(len(imgs) == 2**n, "left ideal size")
    c.ok(all(next(iter(t.support())).lower == () for t in imgs), "left ideal support")


@_group("core/representation oracle", size=50, max_n=3)
def _representation(c, n, rng, size, **_):
    bes = al.basis_elements(n)
    singles = {be: al.single(n, be.upper, be.lower) for be in bes}
    reps = {be: fock.represent(singles[be]) for be in bes}
    c.ok(len(set(reps.values())) == len(bes), "faithful on basis")
    for b1 in bes:
        r1 = reps[b1]
        for b2 in bes:
            c.ok(fock.represent(singles[b1] * singles[b2]) == r1 @ reps[b2])
    for _ in range(size):
        x, y = rand_element(n, rng), rand_element(n, rng)
        c.ok(fock.represent(x * y) == fock.represent(x) @ fock.represent(y))
    c.ok(fock.represent(al.unit(n)) == fock.DenseOperator.identity(n), "unit is identity")
    pvac = fock.represent(al.projector_p(n))
    c.ok(
        pvac.rows[0][0] == 1
        and sum(1 for row in pvac.rows for x in row if x) == 1,
        "vacuum projector",
    )


@_group("core/adjunction", size=25)
def _adjunction(c, n, rng, size, metric=None, **_):
    g = metric if metric is not None else rand_metric(n, rng)
    for _ in range(size):
        x, y = rand_element(n, rng), rand_element(n, rng)
        c.ok(al.adjoint(al.adjoint(x, g), g) == x, "involution")
        c.ok(al.adjoint(x * y, g) == al.adjoint(y, g) * al.adjoint(x, g), "antihom")
    delta = al.Metric.euclidean(n)
    for _ in range(10):
        x = rand_element(n, rng)
        c.ok(
            fock.represent(al.adjoint(x, delta)) == fock.represent(x).transpose(),
            "transpose oracle",
        )


@_group("core/contraction")
def _contraction(c, n, rng, size, **_):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            want = al.projector_p(n) if i == j else al.zero(n)
            c.ok(al.contract(al.single(n, (i,), (j,)), 1) == want)
    if n >= 2:
        for k, t, a, b in product(range(1, n + 1), repeat=4):
            w = al.basis_word(n, (k, t), (a, b))
            got = al.contract(w, 2) if not w.is_zero else al.zero(n)
            c.ok(got == al.gen_delta((k, t), (b, a)) * al.projector_p(n), f"{k}{t}|{a}{b}")


@_group("core/embedding goldens")
def _embedding_goldens(c, n, rng, size, **_):
    c.ok(al.embed_vector((1,), 1) == al.single(1, (), (1,)))
    c.ok(al.embed_covector((1,), 1) == al.single(1, (1,), ()))
    if n >= 2:
        want = al.single(2, (), (1,)) + al.single(2, (2,), (1, 2))
        c.ok(al.embed_vector((1, 0), 2) == want, "e_1 at n=2")
        want = al.single(2, (1,), ()) + al.single(2, (1, 2), (2,))
        c.ok(al.embed_covector((1, 0), 2) == want, "e^1 at n=2")


# -- dkp suite ---------------------------------------------------------------


@_group("dkp/trilinear relations", size=3)
def _trilinear(c, n, rng, size, metric=None, **_):
    metrics = [al.Metric.euclidean(n)]
    if metric is not None:
        metrics.append(metric)
    metrics += [rand_metric(n, rng) for _ in range(size)]
    for g in metrics:
        for family, (_, kind) in dkp.FAMILIES.items():
            args = range(1, n + 1) if kind == "index" else _basis_vectors(n)
            for trip in product(args, repeat=3):
                r = dkp.check_trilinear(family, trip, g)
                c.ok(r.is_zero, lambda: f"{family} residual {r}")


@_group("dkp/unit")
def _dkp_unit(c, n, rng, size, **_):
    un = dkp.dkp_unit(n)
    g = al.Metric.euclidean(n)
    c.ok(un * un == un, "idempotent")
    for i, a in enumerate(_basis_vectors(n), start=1):
        b = dkp.make_generator("beta_lower", i, g)
        c.ok(un * b == b and b * un == b, f"identity on beta_{i}")
        bu = dkp.make_generator("b_upper_neg", a, g)
        c.ok(un * bu == bu, f"identity on b^{i}")


@_group("dkp/sign flip duality")
def _sign_flip(c, n, rng, size, **_):
    basis_cov = _basis_vectors(n)
    g = rand_metric(n, rng)
    ng = al.Metric([[-x for x in row] for row in g.g])
    for i, a in enumerate(basis_cov, start=1):
        c.ok(dkp.make_generator("b_upper", a, ng) == dkp.make_generator("b_upper_neg", a, g))
        c.ok(
            dkp.make_generator("beta_lower", i, ng)
            == dkp.make_generator("beta_lower_neg", i, g)
        )
    for trip in product(range(1, n + 1), repeat=3):
        args = tuple(basis_cov[i - 1] for i in trip)
        c.ok(dkp.check_trilinear("b_upper", args, ng) == dkp.check_trilinear("b_upper_neg", args, g))
        c.ok(dkp.check_trilinear("beta_lower", trip, ng) == dkp.check_trilinear("beta_lower_neg", trip, g))


@_group("dkp/frame relation, orthonormal frames", size=5)
def _frame_orthonormal(c, n, rng, size, **_):
    frames = [dkp.FrameMap.identity(n)] + [rand_orthogonal_frame(n, rng) for _ in range(size)]
    for lam in frames:
        for mu, nu, ga in product(range(1, n + 1), repeat=3):
            c.ok(dkp.ndkc_residual(lam, mu, nu, ga).is_zero)


@_group("dkp/frame relation, generic frames (induced metric)", size=5)
def _frame_generic(c, n, rng, size, **_):
    for _ in range(size):
        lam = rand_frame(n, rng)
        for mu, nu, ga in product(range(1, n + 1), repeat=3):
            c.ok(dkp.ndkc_induced_residual(lam, mu, nu, ga).is_zero)
    if n >= 2:
        shear_rows = [[Fraction(int(i == j or (i == 0 and j == 1))) for j in range(n)] for i in range(n)]
        shear = dkp.FrameMap(shear_rows)
        # the plain delta form is NOT frame-covariant: pin the counterexample
        c.ok(not dkp.ndkc_residual(shear, 1, 1, 1).is_zero, "delta form must fail for a shear")


# -- subspaces suite ---------------------------------------------------------


@_group("subspaces/dimension formula", size=6)
def _dimensions(c, n, rng, size, **_):
    for m in range(1, size + 1):
        for p in range(m + 1):
            c.ok(subspaces.dim_zp(m, p) == len(subspaces.zp_basis(m, p)), f"n={m} p={p}")


# One entry for two Checks: the action formula reuses the closure's metric draw.
@_group("subspaces/closure under the covector family", "subspaces/action formula", size=25)
def _covector_action(closure, action, n, rng, size, **_):
    g = rand_metric(n, rng)
    for p in range(n + 1):
        for _ in range(size):
            alpha = rand_vector(n, rng)
            z = rand_zp_element(n, p, rng)
            gen = dkp.make_generator("b_upper_neg", alpha, g)
            closure.ok(subspaces.in_zp(subspaces.act_dkp(gen, z, p), n, p))
    for p in range(n + 1):
        for _ in range(10):
            alpha = rand_vector(n, rng)
            gamma = rand_vector(n, rng)
            members = sorted(rng.sample(range(1, n + 1), p))
            p_i = al.basis_word(n, (), tuple(members))
            z = p_i + al.embed_covector(gamma, n) * p_i
            gen = dkp.make_generator("b_upper_neg", alpha, g)
            want = al.embed_covector(alpha, n) * p_i - g.pair_inv(alpha, gamma) * p_i
            action.ok(subspaces.act_dkp(gen, z, p) == want)


@_group("subspaces/unit acts as identity", size=10)
def _subspace_unit(c, n, rng, size, **_):
    un = dkp.dkp_unit(n)
    for p in range(n + 1):
        for _ in range(size):
            z = rand_zp_element(n, p, rng)
            c.ok(un * z == z)


# -- bracket suite -------------------------------------------------------------


def _frames(n, rng, lam):
    """Identity, the given frame if any, and one random frame."""
    base = [dkp.FrameMap.identity(n)]
    if lam is not None:
        base.append(lam)
    base.append(rand_frame(n, rng))
    return base


def _bracket_draws(n, rng, size, polys):
    """size draws per rank p = 0..n of (p, a random frame, `polys` random
    rank-p polynomials, a random mu), drawn in that order."""
    for p in range(n + 1):
        for _ in range(size):
            fr = rand_frame(n, rng)
            yield p, fr, [rand_field_poly(n, p, rng) for _ in range(polys)], rng.randint(1, n)


@_group("bracket/word route equals closed form", size=25)
def _closed_form(c, n, rng, size, **_):
    for p, fr, (g1, f1), mu in _bracket_draws(n, rng, size, 2):
        c.ok(fl.bracket(g1, f1, mu, p, fr, n) == fl.bracket_closed_form(g1, f1, mu, p, n))


@_group("bracket/canonical pairs")
def _canonical_pairs(c, n, rng, size, lam=None, **_):
    for p in range(n + 1):
        for fr in _frames(n, rng, lam):
            for I in combinations(range(1, n + 1), p):
                for J in combinations(range(1, n + 1), p):
                    for mu in range(1, n + 1):
                        got = fl.bracket(
                            fl.FieldPoly.of(fl.y_sym(I)),
                            fl.FieldPoly.of(fl.p_sym(mu, J)),
                            mu, p, fr, n,
                        )
                        c.ok(got == (1 if I == J else 0))
                        c.ok(
                            fl.bracket(
                                fl.FieldPoly.of(fl.y_sym(I)),
                                fl.FieldPoly.of(fl.y_sym(J)),
                                mu, p, fr, n,
                            )
                            == 0
                        )


@_group("bracket/antisymmetry", size=25)
def _antisymmetry(c, n, rng, size, **_):
    for p, fr, (g1, f1), mu in _bracket_draws(n, rng, size, 2):
        c.ok(fl.bracket(g1, f1, mu, p, fr, n) + fl.bracket(f1, g1, mu, p, fr, n) == 0)


@_group("bracket/leibniz rule", size=10)
def _leibniz(c, n, rng, size, **_):
    for p, fr, (g1, f1, k1), mu in _bracket_draws(n, rng, size, 3):
        c.ok(fl.check_leibniz(g1, f1, k1, mu, p, fr, n) == 0)


@_group("bracket/symmetrized jacobi identity", size=5)
def _jacobi(c, n, rng, size, lam=None, **_):
    for p in range(n + 1):
        for fr in _frames(n, rng, lam):
            for _ in range(size):
                g1, f1, k1 = (rand_field_poly(n, p, rng, deg=2) for _ in range(3))
                mu, nu = rng.randint(1, n), rng.randint(1, n)
                c.ok(fl.check_jacobi_sym(g1, f1, k1, mu, nu, p, fr, n) == 0)


def check_field_equations(c, h, p, n, rng, frames):
    """H's DWH equations: the same under `frames` random frames, rhs -dH/dy and dH/dp."""
    base = fl.dwh_derive(h, p, dkp.FrameMap.identity(n), n)
    for _ in range(frames):
        c.ok(fl.dwh_derive(h, p, rand_frame(n, rng), n) == base)
    for I, _lhs, rhs in base.momentum:
        c.ok(rhs == -h.partial(fl.y_sym(I)), "momentum rhs")
    for (mu, I), _lhs, rhs in base.field:
        c.ok(rhs == h.partial(fl.p_sym(mu, I)), "field rhs")


@_group("bracket/field equations frame invariance", size=3)
def _field_equations(c, n, rng, size, **_):
    for p in range(n + 1):
        check_field_equations(c, rand_field_poly(n, p, rng, nterms=4, deg=2), p, n, rng, size)


GROUPS = {name: group for group in REGISTRY for name in group.names}
SUITE_NAMES = tuple(dict.fromkeys(group.suite for group in REGISTRY))


def run_suites(names, n, seed, metric=None, lam=None):
    """Run the given suites in registry order, each group with its own
    generator random.Random(f"{seed}/{first check name}")."""
    for name in names:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {name!r}")
    return [
        check
        for name in names
        for group in REGISTRY
        if group.suite == name and (group.max_n is None or n <= group.max_n)
        for check in group.run(n, random.Random(f"{seed}/{group.names[0]}"),
                               metric=metric, lam=lam)
    ]
