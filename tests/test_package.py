"""The package namespace: names load their submodule on first use."""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import dkpfields

SRC = pathlib.Path(dkpfields.__file__).resolve().parents[1]


def run_fresh(script):
    """Last line a fresh interpreter prints after running script."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


_LOADED = """
import sys
def loaded():
    return sorted(k for k in sys.modules if k.startswith("dkpfields."))
"""


def test_import_loads_no_submodule():
    assert run_fresh(_LOADED + "import dkpfields\nprint(loaded())") == "[]"


def test_algebra_names_load_only_algebra():
    script = _LOADED + "import dkpfields as dk\ndk.Metric, dk.adjoint\nprint(loaded())"
    assert run_fresh(script) == "['dkpfields._linalg', 'dkpfields.algebra']"


def test_derive_dwh_loads_neither_fock_nor_suites():
    script = _LOADED + """
import contextlib, io
from dkpfields.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["derive-dwh", "--n", "2", "--p", "1", "--H", "y[1]*p[1][1]"])
print(code, [m for m in loaded() if m.endswith((".fock", ".suites"))])
"""
    assert run_fresh(script) == "0 []"


@pytest.mark.parametrize("name", dkpfields.__all__)
def test_name_is_its_home_module_object(name):
    home = importlib.import_module(f"dkpfields.{dkpfields._HOME[name]}")
    assert getattr(dkpfields, name) is getattr(home, name)


def test_namespace_lists_and_star_binds_exactly_all():
    assert dkpfields.__all__ == sorted(dkpfields.__all__)
    assert len(set(dkpfields.__all__)) == len(dkpfields.__all__) == 38
    assert set(dkpfields.__all__) <= set(dir(dkpfields))
    scope = {}
    exec("from dkpfields import *", scope)
    assert set(scope) - {"__builtins__"} == set(dkpfields.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        dkpfields.no_such_name
    assert not hasattr(dkpfields, "no_such_name")


def test_tracer_patches_and_restores_a_touched_package_name():
    """The benchmark's traced run wraps a layer wherever a dkpfields module
    holds it, the package included, and puts the original back after."""
    path = SRC.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from dkpfields import algebra

    original = dkpfields.adjoint
    assert vars(dkpfields)["adjoint"] is original is algebra.adjoint  # bound on first use
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert dkpfields.adjoint is algebra.adjoint is not original
    finally:
        tracer.uninstall()
    assert dkpfields.adjoint is algebra.adjoint is original
