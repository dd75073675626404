"""Workload algebra-n4: metric adjunction and the Fock oracle at n = 4.

One stratum per grade pair (a, b) of the 25 at n = 4.  x has grade (a, b),
y has grade (b, n-a) and starts on x's lower indices, so x*y is nonzero and
has grade (a, n-a); both have two distinct terms unless only one basis
element has that grade.  Over the strata, x and y each run through all 25
grade pairs.  adjoint costs n^(a+b) words per term, so fixing the strata
fixes the cost; drawing grades at random would let the seed set it.  With
y of grade (b, n-a) rather than (b, a), the full-grade adjoints spread over
several strata instead of piling onto (4, *).  Each stratum is one case
that checks

  metric  adjoint(x) against the Cauchy-Binet form, the involution
          adjoint(adjoint(x)) = x and adjoint(x y) = adjoint(y) adjoint(x),
          over a dense indefinite metric whose minors are all nonzero (so
          every adjoint is dense in its grade): BASE_METRIC with rows and
          columns permuted and re-signed by the seed;
  oracle  represent(x y) = represent(x) @ represent(y), and the Euclidean
          adjoint is the transpose: represent(x+) = represent(x)^T.
"""

import random
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import dkpfields as dk

import common
import exact
from harness import Case

NAME = "algebra-n4"
N = 4
CONTROL_CASE = 0  # the (0, 0) stratum
perturb = common.perturb

# The size of the metric's entries sets the cost of every adjoint word, so
# the seed only permutes and re-signs the rows and columns of this metric.
# Its entries are +-1, +-2 and its inverse's +-1/2, +-3/2 (det 2); it is
# indefinite, and every minor of it and of its inverse is nonzero, which
# cases() checks.
BASE_METRIC = (
    (1, 2, 1, 2),
    (2, 2, -1, 1),
    (1, -1, -2, -2),
    (2, 1, -2, -1),
)


class Inputs(NamedTuple):
    metric_rows: list
    metric: dk.Metric
    euclid: dk.Metric
    strata: list  # (a, b, x_terms, y_terms, x, y)


def raising_call():
    return dk.adjoint(dk.unit(N), dk.Metric.euclidean(N + 1))


def _operands(rng, a, b):
    subsets = {k: list(combinations(range(1, N + 1), k)) for k in range(N + 1)}
    count = 1 if len(subsets[a]) * len(subsets[b]) == 1 else 2

    def pick(k):
        pool = subsets[k]
        return rng.sample(pool, count) if len(pool) >= count else pool * count

    # positive coefficients: where x*y merges two products into one term
    # (a = 0 or 4), they cannot cancel
    js, ks, ls = pick(a), pick(b), pick(N - a)
    x = {(j, k): abs(common.coeff(rng)) for j, k in zip(js, ks)}
    y = {(k, l): abs(common.coeff(rng)) for k, l in zip(ks, ls)}
    return x, y


def build(seed):
    rng = random.Random(f"{NAME}:{seed}")
    perm = rng.sample(range(N), N)
    sign = [rng.choice((-1, 1)) for _ in range(N)]
    rows = [[Fraction(sign[i] * sign[j] * BASE_METRIC[perm[i]][perm[j]]) for j in range(N)]
            for i in range(N)]
    strata = []
    for a in range(N + 1):
        for b in range(N + 1):
            x, y = _operands(rng, a, b)
            strata.append((a, b, x, y, common.element(N, x), common.element(N, y)))
    return Inputs(rows, dk.Metric(rows), dk.Metric.euclidean(N), strata)


def _grades(terms):
    return tuple(sorted((len(j), len(k)) for j, k in terms))


def cases(inp, references=True):
    g, euclid = inp.metric, inp.euclid
    g_rows = inp.metric_rows
    g_inv = exact.inverse(g_rows) if references else None
    if references and not (exact.all_minors_nonzero(g_rows) and exact.all_minors_nonzero(g_inv)):
        raise ValueError("the metric or its inverse has a zero minor")
    out = []
    for a, b, xt, yt, x, y in inp.strata:
        shape = (len(x), len(y), _grades(xt), _grades(yt))
        want = common.element(N, exact.adjoint_terms(xt, g_rows, g_inv, N)) if references else None

        def run(x=x, y=y):
            ad_x = dk.adjoint(x, g)
            rx = dk.represent(x)
            return (ad_x, dk.adjoint(ad_x, g), dk.adjoint(x * y, g), dk.adjoint(y, g) * ad_x,
                    dk.represent(x * y), rx @ dk.represent(y),
                    dk.represent(dk.adjoint(x, euclid)), rx.transpose())

        def check(res, x=x, want=want):
            ad_x, back, lhs, rhs, prod, composed, adj, transposed = res
            return [(ad_x, want), (back, x), (lhs, rhs), (prod, composed), (adj, transposed)]

        out.append(Case(f"({a},{b})", shape, run, check))
    return out
