"""dkpfields benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload algebra-n4 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
src/ directory, never from an installed copy.  With --trace 0 the run
reports the end-to-end metrics, with --trace 1 the per-layer metrics of a
separately traced run.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  Metric names and units
come from BENCHMARK.json.  See perfbench/NOTES.md for the design.
"""

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "algebra-n4": "algebra_n4",
    "generators-n5": "generators_n5",
    "fields-n4": "fields_n4",
}
MIN_PASSES = 3  # timed passes per run, even when one pass outlasts --seconds
SETUP_PROBES = 7  # at least this many fresh processes timed for setup_s
MIN_ATTRIBUTED = 0.95  # share of traced wall time the top-level spans must cover


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_program():
    """Put the checkout's src/ first on sys.path; None if it is not there."""
    if not (SRC / "dkpfields" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import dkpfields

    if Path(dkpfields.__file__).resolve().parent != SRC / "dkpfields":
        return None
    return dkpfields


def setup_probe(workload, seed):
    """Time import plus input construction in this fresh process, and the
    calibration loop around it."""
    before = harness.calibrate()
    t0 = perf_counter()
    if load_program() is None:
        return fail(f"no dkpfields package under {SRC}")
    importlib.import_module(WORKLOADS[workload]).build(seed)
    elapsed = perf_counter() - t0
    print(elapsed, (before + harness.calibrate()) / 2)
    return 0


def setup_probe_run(workload, seed):
    """Set-up time of one fresh process, at reference speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    elapsed, calibration = map(float, proc.stdout.split())
    return harness.at_reference_speed(elapsed, calibration)


def declared_metrics(key):
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def emit(correct, attempted, failed, values, key):
    units = declared_metrics(key)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


def end_to_end(args, cases, inputs):
    """Untraced passes for --seconds, with setup probes between them."""
    setups, results = [], []
    t0 = perf_counter()
    while len(results) < MIN_PASSES or perf_counter() - t0 < args.seconds:
        results.append(harness.run_pass(cases))
        setups.append(setup_probe_run(args.workload, args.seed))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe_run(args.workload, args.seed))
    times = harness.case_times(results)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times),
        "case_p50_ms": 1000 * statistics.median(times),
        "case_p95_ms": 1000 * harness.quantile(times, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {args.workload} seed {args.seed}: {len(results)} passes of "
          f"{len(cases)} cases, {len(setups)} setup probes")
    print(f"as measured, not scaled: fastest pass {min(r.wall_s for r in results):.6g} s, "
          f"median pass {statistics.median(r.wall_s for r in results):.6g} s")
    for command, calls in getattr(inputs, "timings", {}).items():
        ms = [1000 * statistics.median(harness.at_reference_speed(t, r.calibration[i])
                                       for t, r in zip(call, results))
              for i, call in enumerate(calls)]
        print(f"{command}_p50_ms = {statistics.median(ms):.6g} ms, "
              f"{command}_p95_ms = {harness.quantile(ms, 0.95):.6g} ms over {len(ms)} calls")
    return results, values, []


def per_layer(args, cases):
    """Untraced and traced passes, alternating so that drift in machine
    speed falls on both sides of trace.overhead_s."""
    import tracing

    tracer = tracing.Tracer()
    problems, results, traced, layers, shares = [], [], [], [], []
    t0 = perf_counter()
    while len(traced) < 2 or perf_counter() - t0 < args.seconds:
        results.append(harness.run_pass(cases))
        mark = len(tracer.spans)
        missing = tracer.install()
        try:
            traced.append(harness.run_pass(cases, tracer=tracer))
        finally:
            tracer.uninstall()
        layer, top = tracer.summary(mark)
        scale = harness.at_reference_speed(1.0, statistics.median(traced[-1].calibration))
        layers.append({k: v * scale if k.endswith(".self_s") else v for k, v in layer.items()})
        shares.append(top / (traced[-1].wall_s - traced[-1].calibrating_s))
    for name in missing:  # a renamed layer: its metrics read 0 until the map is updated
        print(f"warning: trace target dkpfields.{name} not found")
    HERE.joinpath("out").mkdir(exist_ok=True)
    spans_path = HERE / "out" / f"spans-{args.workload}.tsv"  # the latest traced run
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    values["trace.wall_s"] = sum(harness.case_times(traced))
    values["trace.overhead_s"] = values["trace.wall_s"] - sum(harness.case_times(results))
    values["trace.attributed_share"] = min(shares)
    if min(shares) < MIN_ATTRIBUTED:
        problems.append(f"top-level spans cover only {min(shares):.3f} of the traced wall time")
    return results + traced, values, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json in {ROOT}")
    if load_program() is None:
        return fail(f"no dkpfields package under {SRC}")

    module = importlib.import_module(WORKLOADS[args.workload])
    inputs = module.build(args.seed)
    cases = module.cases(inputs)
    problems = harness.self_test(module, args.seed, cases)
    for calls in getattr(inputs, "timings", {}).values():
        for call in calls:
            call.clear()  # keep only the timed passes' calls

    if args.trace:
        results, values, more = per_layer(args, cases)
    else:
        results, values, more = end_to_end(args, cases, inputs)
    problems += more
    if len({r.digest for r in results}) != 1:
        problems.append("case results differ between passes")
    attempted = len(cases) * len(results)
    failed = sum(r.failed for r in results)
    print(f"digest {args.workload} seed {args.seed}: {results[0].digest}")
    print(f"fail_share = {failed / attempted:.6g} ({failed} of {attempted} cases)")
    for r in results:
        if r.first_failure:
            print(f"failed: {r.first_failure}")
            break
    for p in problems:
        print(f"problem: {p}")
    correct = failed == 0 and not problems
    emit(correct, attempted, failed, values, "per_layer" if args.trace else "end_to_end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
