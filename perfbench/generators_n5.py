"""Workload generators-n5: the five DKP families at n = 5.

Dense products, embeddings and make_generator at the north-star size; it
never calls adjoint or the Fock oracle.  Three strata:

  trilinear  for each metric and family, the three generators against the
             closed forms (a)(P) = sum a_j E({j},{}) and
             (P)(v) = sum v_j E({},{j}), and a zero check_trilinear residual;
  closure    for each metric and p = 0..5, b_^alpha acting on a dense
             element of Z_(p): the result against the closed form
             sum c_I alpha_j E({j},I) - sum (g^-1 alpha)_a d_(a,I) E({},I),
             and in_zp;
  frame      beta_mu against sum_a L[mu][a] (E({a},{}) - E({},{a})), and the
             induced triple relation
             B^mu B^nu B^ga + B^ga B^nu B^mu = -G[mu][nu] B^ga - G[ga][nu] B^mu
             with G = L L^T.

Metrics, frames and vector arguments are dense with dense images under
g, g^-1, so every embedding has all its terms whatever the seed.
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import dkpfields as dk

import common
import exact
from harness import Case

NAME = "generators-n5"
N = 5
METRICS = 3
TRIPLES = 8  # per metric and family
CLOSURES = 12  # per metric and rank p
FRAMES = 3
FRAME_TRIPLES = 12  # per frame
CONTROL_CASE = 0
perturb = common.perturb

FAMILIES = ("b_upper", "b_upper_neg", "b_lower_neg", "beta_lower", "beta_lower_neg")


class Inputs(NamedTuple):
    metric_rows: list
    metrics: list
    trilinear: list  # (metric index, family, args)
    closure: list  # (metric index, p, alpha, z_terms, z)
    frame_rows: list
    frames: list
    frame_triples: list  # (frame index, (mu, nu, ga))


def raising_call():
    return dk.make_generator("no_such_family", 1, dk.Metric.euclidean(N))


def _arg(rng, family, g_rows, g_inv):
    """A generator argument whose images under g and g^-1 are dense."""
    if family.startswith("beta"):
        return rng.randint(1, N)
    m = g_inv if family.startswith("b_upper") else g_rows
    while True:
        v = common.dense_vector(rng, N)
        if all(exact.matvec(m, v)):
            return v


def build(seed):
    rng = random.Random(f"{NAME}:{seed}")
    metric_rows = [common.dense_metric_rows(rng, N) for _ in range(METRICS)]
    inverses = [exact.inverse(r) for r in metric_rows]
    trilinear, closure = [], []
    for m, (rows, inv) in enumerate(zip(metric_rows, inverses)):
        for family in FAMILIES:
            for _ in range(TRIPLES):
                args = tuple(_arg(rng, family, rows, inv) for _ in range(3))
                trilinear.append((m, family, args))
        for p in range(N + 1):
            for _ in range(CLOSURES):
                alpha = _arg(rng, "b_upper_neg", rows, inv)
                z = {}
                for ix in combinations(range(1, N + 1), p):
                    z[((), ix)] = common.coeff(rng)
                    for a in range(1, N + 1):
                        z[((a,), ix)] = common.coeff(rng)
                closure.append((m, p, alpha, z, common.element(N, z)))
    frame_rows = [common.dense_frame_rows(rng, N) for _ in range(FRAMES)]
    triples = [
        (f, tuple(rng.randint(1, N) for _ in range(3)))
        for f in range(FRAMES)
        for _ in range(FRAME_TRIPLES)
    ]
    return Inputs(metric_rows, [dk.Metric(r) for r in metric_rows], trilinear, closure,
                  frame_rows, [dk.FrameMap(r) for r in frame_rows], triples)


def _generator(family, arg, g_rows, g_inv):
    """Closed form of make_generator from the projected words."""
    if family.startswith("beta"):
        arg = tuple(Fraction(int(k == arg)) for k in range(1, N + 1))
    if family.startswith("b_upper"):
        s = 1 if family == "b_upper" else -1
        return exact.combine((1, exact.left_word(arg)), (s, exact.right_word(exact.matvec(g_inv, arg))))
    s = 1 if family == "beta_lower" else -1
    return exact.combine((1, exact.right_word(arg)), (s, exact.left_word(exact.matvec(g_rows, arg))))


def cases(inp, references=True):
    zero = dk.zero(N)
    inverses = [exact.inverse(r) for r in inp.metric_rows] if references else None
    out = []
    for m, family, args in inp.trilinear:
        g = inp.metrics[m]
        shape = (family, tuple("index" if isinstance(a, int) else sum(map(bool, a)) for a in args))
        want = [common.element(N, _generator(family, a, inp.metric_rows[m], inverses[m]))
                for a in args] if references else None

        def tri_run(family=family, args=args, g=g):
            gens = [dk.make_generator(family, a, g) for a in args]
            return gens, dk.check_trilinear(family, args, g)

        def tri_check(res, want=want):
            gens, residual = res
            return [(residual, zero)] + list(zip(gens, want))

        out.append(Case(f"trilinear {family}", shape, tri_run, tri_check))

    for m, p, alpha, zt, z in inp.closure:
        g = inp.metrics[m]
        if references:
            rows, inv = inp.metric_rows[m], inverses[m]
            sharp = exact.matvec(inv, alpha)
            acted = {}
            for (up, ix), c in zt.items():
                if up:
                    acted[((), ix)] = acted.get(((), ix), 0) - sharp[up[0] - 1] * c
                else:
                    for j, aj in enumerate(alpha, start=1):
                        acted[((j,), ix)] = aj * c
            want_gen = common.element(N, _generator("b_upper_neg", alpha, rows, inv))
            want_out = common.element(N, acted)
        else:
            want_gen = want_out = None

        def closure_run(alpha=alpha, z=z, p=p, g=g):
            gen = dk.make_generator("b_upper_neg", alpha, g)
            acted = dk.act_dkp(gen, z, p)
            return gen, acted, dk.in_zp(acted, N, p)

        def closure_check(res, want_gen=want_gen, want_out=want_out):
            gen, acted, member = res
            return [(acted, want_out), (gen, want_gen), (member, True)]

        out.append(Case(f"closure p={p}", (p, len(z)), closure_run, closure_check))

    for f, (mu, nu, ga) in inp.frame_triples:
        lam = inp.frames[f]
        if references:
            rows = inp.frame_rows[f]
            gm = exact.gram(rows)
            want = [
                common.element(N, exact.combine(*(
                    (rows[i - 1][a - 1], exact.combine((1, {((a,), ()): 1}), (-1, {((), (a,)): 1})))
                    for a in range(1, N + 1)
                )))
                for i in (mu, nu, ga)
            ]
            c_ga, c_mu = -gm[mu - 1][nu - 1], -gm[ga - 1][nu - 1]
        else:
            want, c_ga, c_mu = None, 0, 0

        def frame_run(lam=lam, ix=(mu, nu, ga), c_ga=c_ga, c_mu=c_mu):
            b_mu, b_nu, b_ga = (dk.beta_mu(lam, i, "upper_neg") for i in ix)
            lhs = b_mu * b_nu * b_ga + b_ga * b_nu * b_mu
            return (b_mu, b_nu, b_ga), lhs, c_ga * b_ga + c_mu * b_mu

        def frame_check(res, want=want):
            bs, lhs, rhs = res
            return [(lhs, rhs)] + list(zip(bs, want))

        shape = sum(map(bool, (x for row in inp.frame_rows[f] for x in row)))
        out.append(Case("frame", shape, frame_run, frame_check))
    return out
