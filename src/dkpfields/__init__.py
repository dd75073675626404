"""Exact projector-basis Clifford/DKP algebra with covariant field equations.

Each public name lives in one submodule, and ``import dkpfields`` loads
none of them: the first use of a name imports its home submodule and binds
the name here, so later uses are plain attribute lookups.  ``dkpfields.Metric``
loads only ``algebra`` and ``_linalg``.
"""

from importlib import import_module

__version__ = "0.1.0"

_NAMES = {
    "algebra": (
        "AlgebraElement", "BasisElement", "Metric", "adjoint", "basis_elements", "basis_word",
        "canonicalize", "contract", "embed_covector", "embed_vector", "gen_delta",
        "projector_p", "projector_pi", "single", "unit", "zero",
    ),
    "dkp": ("FrameMap", "beta_mu", "check_trilinear", "dkp_unit", "make_generator"),
    "fields": (
        "FieldPoly", "FieldSymbol", "bracket", "bracket_closed_form", "check_jacobi_sym",
        "check_leibniz", "dwh_derive", "nabla", "nabla_adjoint",
    ),
    "fock": ("DenseOperator", "represent", "represent_generator"),
    "parser": ("parse_expr",),
    "subspaces": ("act_dkp", "dim_zp", "in_zp", "zp_basis"),
}
_HOME = {name: home for home, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
