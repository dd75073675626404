"""Golden reports: derive-dwh, bracket and verify output, byte for byte.

The fixture holds the three README examples, dense-frame derive-dwh and
bracket cases at n = 3, 4 and p = 0..2, verify --n 1..4 --seed 42, the
core suite at n = 3 over a dense indefinite metric (the one report whose
adjoint is not the Euclidean one), verify --n 1, 2 --seed 0, and all suites
at n = 3 with seed 0 over that metric and a dense frame, each with its exit
code and full stdout.  Two more cases pin the polynomial kernel: a
derive-dwh at n = 4, p = 1 whose H has cubic and quartic monomials with
exponents 3 and 4, and a bracket at n = 4, p = 2 whose p -> pi frame
substitution cancels monomials of F.  The last two use dense frames with
non-integer entries in both L and L^-1: a derive-dwh at n = 3, p = 1 whose
H coefficients share factors, and a bracket at n = 4, p = 1 of F = 3/2 G,
whose value reduces to 0.  A bracket and a derive-dwh at n = 3, p = 1
pin a dense non-integer frame against polynomials of high degree: F has 5
terms of degree up to 7, G has 2 terms of degree up to 8, and H = F + G.
Two verify --suite dkp reports pin the generator layer: n = 5 with seed 42,
and n = 3 over the metric 1/2,1,0;1,-2/3,1;0,1,3, whose entries are not
all integers.  The last case runs the bracket suite at n = 4 over the
dense frame 2,1,-1,3;1/2,3,1,-2;-1,1,5,1;1,-2/3,1,7, which adds one frame
to bracket/canonical pairs and bracket/symmetrized jacobi identity.
Cases 17, 18, 22 and 29 (verify at n = 3 and 4 with seed 42, all suites
at n = 3 with seed 0 over a metric and a frame, and the dkp suite at
n = 5) were regenerated when every check group began to run at the
requested n, with ranks p = 0..n: their bracket and frame groups count
more checks, and at n = 4 the transpose oracle of core/adjunction runs.
Refactors must leave every report unchanged.
After a deliberate change of report content, rewrite the fixture with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import dkpfields
from dkpfields.cli import main

FIXTURE = pathlib.Path(__file__).with_name("golden_reports.json")
CASES = json.loads(FIXTURE.read_text())


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)]
)
def test_report_is_byte_identical(case):
    assert run_cli(case["argv"]) == (case["exit"], case["stdout"])


def test_fresh_process_report_is_byte_identical():
    """Goldens through python -m dkpfields, the path a shell user takes: one
    derive-dwh golden as is, and it and one verify golden under python -O,
    which strips assert statements, so no invariant of the report path may
    live in one."""
    derive = next(c for c in CASES if c["argv"][:3] == ["derive-dwh", "--n", "3"]
                  and "--lambda=1/2,1,2/3;1,-1/3,1;2,1,-3/2" in c["argv"])
    verify = next(c for c in CASES if c["argv"][:3] == ["verify", "--n", "3"]
                  and "--lambda" in c["argv"])
    src = str(pathlib.Path(dkpfields.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for flags, case in (([], derive), (["-O"], derive), (["-O"], verify)):
        done = subprocess.run(
            [sys.executable, *flags, "-m", "dkpfields", *case["argv"]],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert (done.returncode, done.stdout) == (case["exit"], case["stdout"]), (flags, done.stderr)


if __name__ == "__main__":
    for case in CASES:
        case["exit"], case["stdout"] = run_cli(case["argv"])
    FIXTURE.write_text(json.dumps(CASES, indent=1))
