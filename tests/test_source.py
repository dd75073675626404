"""Properties of the source tree itself."""

import ast
import importlib.util
import pathlib
import re

import dkpfields
from dkpfields import suites


def test_no_assert_statements_in_src():
    """Invariants must raise explicitly: python -O strips assert statements."""
    src = pathlib.Path(dkpfields.__file__).parent
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_rank_check_and_multi_indices_live_in_algebra_alone():
    """The rank check and the enumeration of multi-indices are written once,
    in algebra.py; every other module calls _check_rank and _multi_indices."""
    src = pathlib.Path(dkpfields.__file__).parent
    for text in ("combinations(range(1, n + 1)", "outside 0.."):
        homes = [path.name for path in sorted(src.glob("*.py")) if text in path.read_text()]
        assert homes == ["algebra.py"], text


def test_benchmark_trace_targets_resolve():
    """Every layer the benchmark traces names a function dkpfields still has.

    A renamed or removed target (say FieldPoly.substitute) would otherwise
    read as zero calls in a traced run instead of failing.
    """
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    assert missing == []


def test_registry_names_are_unique_and_cover_every_suite():
    """Each check name is suite/group, once; each suite has a group; --suite keeps its values."""
    names = [name for group in suites.REGISTRY for name in group.names]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[a-z]+/[^/]+", name) for name in names)
    assert all(name.startswith(group.suite + "/") for group in suites.REGISTRY for name in group.names)
    assert suites.SUITE_NAMES == ("core", "dkp", "subspaces", "bracket")
    assert all(any(g.suite == s for g in suites.REGISTRY) for s in suites.SUITE_NAMES)
