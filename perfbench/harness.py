"""Case type, the timed pass over a workload's cases, and the self-tests."""

import hashlib
import math
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple


class Case(NamedTuple):
    """One checked unit of work.

    run() calls the program and returns its outputs; check(outputs) returns
    (value, expected) pairs that must be exactly equal.  shape describes the
    operands' sizes and grades and must not depend on the seed.
    """

    stratum: str
    shape: tuple
    run: Callable
    check: Callable


class PassResult(NamedTuple):
    wall_s: float
    latencies: list
    calibration: list  # per case, the calibration loop's time around it
    calibrating_s: float  # time spent in the calibration loop
    failed: int
    digest: str
    first_failure: str


def render(value):
    """Canonical text of one case result, for the output digest."""
    rows = getattr(value, "rows", None)
    if rows is not None:  # a Fock-space matrix
        return ";".join(",".join(map(str, row)) for row in rows)
    return str(value)


CALIBRATE_EVERY_S = 0.1
# calibrate()'s time at the reference speed: its fastest phase on the
# machine the benchmark was tuned on (2 vCPU Xeon VM, Python 3.11.7)
CALIBRATION_REF_S = 0.003


def calibrate():
    """Time a fixed piece of pure-Python exact arithmetic on dicts keyed by
    tuples; its duration tracks how fast the machine runs right now."""
    t = perf_counter()
    acc = {}
    for i in range(1, 600):
        x = Fraction(i % 9 + 1, i % 4 + 1)
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + x * x - x
    return perf_counter() - t


def run_pass(cases, tracer=None, perturb=None):
    """Run every case once; a case fails if it raises or any pair differs.

    perturb, if given, is applied to the first pair's value before the
    comparison (the negative control).
    """
    failed = 0
    first_failure = ""
    latencies = []
    digest = hashlib.sha256()
    t0 = perf_counter()
    cal = [calibrate()]
    cal_at = perf_counter()
    before = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        t = perf_counter()
        try:
            outputs = case.run()
            error = None
        except Exception as exc:  # a raising case is a failed case, not a crash
            error = exc
        latencies.append(perf_counter() - t)
        before.append(len(cal) - 1)
        span = tracer.open("bench.check") if tracer is not None else None
        if error is None:
            try:
                pairs = case.check(outputs)
                if perturb is not None:
                    pairs[0] = (perturb(pairs[0][0]), pairs[0][1])
                ok = all(v == e for v, e in pairs)
                text = "\n".join(render(v) for v, _ in pairs)
            except Exception as exc:
                error = exc
        if error is not None:
            ok = False
            text = f"error: {type(error).__name__}"
        if span is not None:
            tracer.close(span)
        digest.update(f"{i}:{text}\n".encode())
        if not ok:
            failed += 1
            if not first_failure:
                first_failure = f"case {i} ({case.stratum}): {error!r}" if error else (
                    f"case {i} ({case.stratum}): result differs from reference"
                )
        if perf_counter() - cal_at >= CALIBRATE_EVERY_S:
            cal.append(calibrate())
            cal_at = perf_counter()
    cal.append(calibrate())
    around = [(cal[b] + cal[b + 1]) / 2 for b in before]
    return PassResult(perf_counter() - t0, latencies, around, sum(cal), failed,
                      digest.hexdigest(), first_failure)


def at_reference_speed(seconds, calibration):
    """A time measured while calibrate() took `calibration` seconds, scaled
    to the speed at which it takes CALIBRATION_REF_S."""
    return seconds * CALIBRATION_REF_S / calibration


def case_times(results):
    """Per case, the median over passes of its time at reference speed."""
    per_pass = [[at_reference_speed(t, c) for t, c in zip(r.latencies, r.calibration)]
                for r in results]
    return [statistics.median(v) for v in zip(*per_pass)]


def self_test(workload, seed, cases):
    """Seed independence and negative controls; returns a list of problems."""
    problems = []
    other = workload.build(seed + 1)
    shapes = [(c.stratum, c.shape) for c in cases]
    other_shapes = [(c.stratum, c.shape) for c in workload.cases(other, references=False)]
    if shapes != other_shapes:
        problems.append("case strata or operand shapes depend on the seed")
    probe = [cases[workload.CONTROL_CASE]]
    if run_pass(probe).failed != 0:
        problems.append("control case fails unperturbed")
    if run_pass(probe, perturb=workload.perturb).failed != 1:
        problems.append("a result perturbed by +1 was not counted as failed")
    raising = Case("control/raises", (), workload.raising_call, lambda out: [])
    if run_pass([raising]).failed != 1:
        problems.append("a raising case was not counted as failed")
    return problems


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]
