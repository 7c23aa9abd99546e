"""Exact rational invariants of foliated surfaces.

Intersection theory on resolution dual graphs, continued-fraction data of
cyclic quotient points, local Riemann-Roch contributions of foliation
singularities, Zariski decomposition, and the effective pluricanonical-bound
pipeline, all in exact arithmetic. The ``folcalc`` command line exposes every
operation; see the README for the JSON formats.

Submodules load on first use (PEP 562): ``import folcalc`` imports none of
them, and ``folcalc.pipeline`` imports ``folcalc.bounds`` and what it needs.
"""

import sys
from importlib import import_module

# the public names of each submodule
_NAMES = {
    "bounds": (
        "CANONICAL", "WEAK_NEF", "BoundReport", "HilbertSamples", "ModelInvariants",
        "SingularityConfiguration", "bound_singularity_count", "compute_n1",
        "enumerate_configurations", "enumerate_reciprocal_tuples", "extract_invariants",
        "index_bounds", "pipeline", "relate_models",
    ),
    "contributions": (
        "Cusp", "Dihedral", "DihedralSumReport", "GorensteinCanonical", "SingularityDatum",
        "Terminal", "a_cusp", "a_cyclic_sheaf", "a_dihedral", "a_terminal", "chi_fchain",
        "chi_partial_crepant", "contribution", "dihedral_sum_verify", "global_chi",
    ),
    "cyclic": (
        "CyclicType", "HJExpansion", "WunramDegrees", "fchain_profile", "hj_expansion",
        "hj_string_graph", "wunram_degrees",
    ),
    "errors": (
        "DegenerateConfigurationError", "FolcalcError", "InconsistentModelError",
        "InconsistentSamplesError", "NotGeneralTypeError", "NotPseudoeffectiveError",
        "SearchBudgetError", "ValidationError",
    ),
    "jouanolou": ("AccumulationReport", "JouanolouEntry", "accumulation_report", "jouanolou_entry"),
    "lattice": (
        "Curve", "DualGraph", "HodgeReport", "IntersectionProfile", "QDivisor",
        "chi_additivity_check", "degree_against_curve", "hodge_inequality_check",
        "intersection_matrix", "is_negative_definite", "pair", "solve_pullback",
    ),
    "zariski": ("ZariskiResult", "pseudo_threshold", "zariski_decompose"),
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)

# submodules that are attributes of the package even before anything imports them
_SUBMODULES = (*_NAMES, "linalg", "rationals")


def __getattr__(name: str):
    """Import what ``name`` needs on first use and keep it in the module globals."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        # the plain lookup, without this hook, raises the AttributeError
        return object.__getattribute__(sys.modules[__name__], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
