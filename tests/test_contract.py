"""The argument contract, run: a foreign argument gets a result or a FolcalcError, nothing else.

``CALLS`` holds one valid call for each public name of ``folcalc`` and for
each public method of its records. The sweep replaces one argument of a call
at a time with each foreign value; ``self`` is never replaced, and a record
method is called on a record built from the swept arguments, so its fields
are swept too. ``tests/test_errors.py`` checks the same contract statically.
"""

import inspect
from fractions import Fraction

import pytest

import folcalc as f
from folcalc import lattice
from folcalc.errors import FolcalcError, ValidationError

# public names that are not callables: mode strings and a type alias
NOT_CALLABLE = {"CANONICAL", "WEAK_NEF", "SingularityDatum"}


def foreign_values():
    """Fresh on every call, so no call sees a list or dict another call changed."""
    return (5, None, True, 1.5, "x", [], {})


def field_values(record):
    return tuple(getattr(record, name) for name in record._fields)


GRAPH = f.DualGraph([f.Curve("C1", -2), f.Curve("C2", -3)], [("C1", "C2", 1)])
D1 = f.QDivisor(GRAPH, {"C1": 1, "C2": Fraction(1, 2)})
D2 = f.QDivisor(GRAPH, {"C2": 1})
PROFILE = f.IntersectionProfile(GRAPH, {"C1": -1})
T = f.CyclicType(5, 2)
DIHEDRAL = f.Dihedral(1, 1, 1, 1)
# chi(m) = m(m - 1)/2 + 1 plus a (1/2)(1,1) point: K^2 = K.K_Y = 1 and chi(O) = 1
SAMPLES = f.HilbertSamples(
    {m: f.global_chi(1, 1, 1, [f.Terminal(f.CyclicType(2, 1))], m) for m in range(7)}, period_hint=2
)
INV = f.extract_invariants(SAMPLES, f.WEAK_NEF)
CONFIG = f.SingularityConfiguration((2,))

# (name, function, positional arguments, keyword arguments)
CALLS = [
    # bounds
    ("BoundReport", f.BoundReport, field_values(f.pipeline(SAMPLES, f.WEAK_NEF)), {}),
    ("HilbertSamples", f.HilbertSamples, ({0: 1, 1: 1, 2: 2, 3: 4},), {"period_hint": 1}),
    ("ModelInvariants", f.ModelInvariants, field_values(INV), {}),
    ("SingularityConfiguration", f.SingularityConfiguration, ((2, 3), 1, 0), {}),
    (
        "SingularityConfiguration.contribution_sum",
        lambda *args: f.SingularityConfiguration(*args).contribution_sum(),
        ((2, 3), 1, 0),
        {},
    ),
    ("bound_singularity_count", f.bound_singularity_count, (Fraction(3, 4),), {}),
    ("compute_n1", f.compute_n1, (INV, 2), {}),
    ("enumerate_configurations", f.enumerate_configurations, (INV, f.CANONICAL), {}),
    ("enumerate_reciprocal_tuples", f.enumerate_reciprocal_tuples, (3, 1), {"n_min": 2}),
    ("extract_invariants", f.extract_invariants, (SAMPLES, f.WEAK_NEF), {}),
    ("index_bounds", f.index_bounds, ([CONFIG], f.WEAK_NEF), {}),
    ("pipeline", f.pipeline, (SAMPLES, f.WEAK_NEF), {}),
    ("relate_models", f.relate_models, ({0: 1, 1: 2}, {0: 3, 1: 2}, 2), {}),
    # contributions
    ("Cusp", f.Cusp, (), {}),
    ("Dihedral", f.Dihedral, (1, 1, 1, 1), {"variant": "e1"}),
    ("DihedralSumReport", f.DihedralSumReport, field_values(f.dihedral_sum_verify(DIHEDRAL)), {}),
    ("GorensteinCanonical", f.GorensteinCanonical, (), {}),
    ("Terminal", f.Terminal, (T,), {}),
    ("a_cusp", f.a_cusp, (1,), {}),
    ("a_cyclic_sheaf", f.a_cyclic_sheaf, (T, 2), {}),
    ("a_dihedral", f.a_dihedral, (1,), {}),
    ("a_terminal", f.a_terminal, (T, 3), {}),
    ("chi_fchain", f.chi_fchain, (T, 3), {}),
    ("chi_partial_crepant", f.chi_partial_crepant, (f.Cusp(), 0), {}),
    ("contribution", f.contribution, (f.Terminal(T), 3), {}),
    ("dihedral_sum_verify", f.dihedral_sum_verify, (DIHEDRAL,), {}),
    ("global_chi", f.global_chi, (1, 1, 1, [f.Terminal(T)], 2), {"require_integer": False}),
    # cyclic
    ("CyclicType", f.CyclicType, (5, 2), {}),
    ("HJExpansion", f.HJExpansion, ((3, 2),), {}),
    ("HJExpansion.evaluate", lambda entries: f.HJExpansion(entries).evaluate(), ((3, 2),), {}),
    ("WunramDegrees", f.WunramDegrees, field_values(f.wunram_degrees(T, 3)), {}),
    ("fchain_profile", f.fchain_profile, (T,), {}),
    ("hj_expansion", f.hj_expansion, (T,), {}),
    ("hj_string_graph", f.hj_string_graph, (T,), {}),
    ("wunram_degrees", f.wunram_degrees, (T, 3), {}),
    # errors
    *(
        (name, getattr(f, name), ("message",), {"location": "C1"})
        for name in (
            "DegenerateConfigurationError", "FolcalcError", "InconsistentModelError",
            "InconsistentSamplesError", "NotGeneralTypeError", "NotPseudoeffectiveError",
            "SearchBudgetError", "ValidationError",
        )
    ),
    # jouanolou
    ("AccumulationReport", f.AccumulationReport, field_values(f.accumulation_report(4)), {}),
    ("JouanolouEntry", f.JouanolouEntry, field_values(f.jouanolou_entry(3)), {}),
    ("accumulation_report", f.accumulation_report, (4,), {}),
    ("jouanolou_entry", f.jouanolou_entry, (3,), {}),
    # lattice
    ("Curve", f.Curve, ("C1", -2), {}),
    ("DualGraph", f.DualGraph, ([f.Curve("A", -2), f.Curve("B", -2)], [("A", "B", 1)]), {}),
    ("DualGraph.index_of", GRAPH.index_of, ("C2",), {}),
    ("HodgeReport", f.HodgeReport, field_values(f.hodge_inequality_check(D1, D2)), {}),
    ("IntersectionProfile", f.IntersectionProfile, (GRAPH, {"C1": -1}), {}),
    ("QDivisor", f.QDivisor, (GRAPH, {"C1": Fraction(1, 3)}), {}),
    ("QDivisor.coefficient", D1.coefficient, ("C2",), {}),
    ("QDivisor.__add__", D1.__add__, (D2,), {}),
    ("QDivisor.__sub__", D1.__sub__, (D2,), {}),
    ("QDivisor.__rmul__", D1.__rmul__, (Fraction(2, 3),), {}),
    ("chi_additivity_check", f.chi_additivity_check, ([(1, 2, 3)],), {}),
    ("degree_against_curve", f.degree_against_curve, (D1, "C1"), {}),
    ("hodge_inequality_check", f.hodge_inequality_check, (D1, D2), {}),
    ("intersection_matrix", f.intersection_matrix, (GRAPH,), {}),
    ("is_negative_definite", f.is_negative_definite, (GRAPH, ["C1", "C2"]), {}),
    ("pair", f.pair, (D1, D2), {}),
    ("solve_pullback", f.solve_pullback, (GRAPH, PROFILE), {}),
    ("divisor_from_json", lattice.divisor_from_json, (GRAPH, {"C1": "1/2"}), {}),
    ("divisor_to_json", lattice.divisor_to_json, (D1,), {}),
    ("graph_from_json", lattice.graph_from_json, ({"curves": [{"label": "A", "self": -2}]},), {}),
    ("profile_from_json", lattice.profile_from_json, (GRAPH, {"C1": -1}), {}),
    # zariski
    ("ZariskiResult", f.ZariskiResult, field_values(f.zariski_decompose(GRAPH, D1)), {}),
    ("pseudo_threshold", f.pseudo_threshold, (1, 2, 0), {}),
    ("zariski_decompose", f.zariski_decompose, (GRAPH, D1), {}),
]


def test_table_covers_every_public_name_and_method():
    names = {name for name, *_ in CALLS}
    assert set(f.__all__) - NOT_CALLABLE <= names
    assert NOT_CALLABLE <= set(f.__all__)
    methods = {
        f"{name}.{method}"
        for name in f.__all__
        if inspect.isclass(cls := getattr(f, name))
        for method, value in vars(cls).items()
        if inspect.isfunction(value) and not method.startswith("_")
    }
    assert methods and methods <= names


@pytest.mark.parametrize("name, call, args, kwargs", CALLS, ids=[case[0] for case in CALLS])
def test_foreign_arguments_get_a_result_or_a_folcalc_error(name, call, args, kwargs):
    call(*args, **kwargs)  # the valid call itself succeeds
    leaks = []
    for key in [*range(len(args)), *kwargs]:
        for value in foreign_values():
            swept_args, swept_kwargs = list(args), dict(kwargs)
            if isinstance(key, int):
                swept_args[key] = value
            else:
                swept_kwargs[key] = value
            try:
                call(*swept_args, **swept_kwargs)
            except FolcalcError:
                pass
            except Exception as exc:  # noqa: BLE001 - every other exception is the finding
                leaks.append(f"argument {key} = {value!r}: {type(exc).__name__}: {exc}")
    assert leaks == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: f.degree_against_curve(5, "C1"),
        lambda: lattice.divisor_to_json(5),
        lambda: f.intersection_matrix(5),
        lambda: f.extract_invariants(5, f.WEAK_NEF),
        lambda: f.pipeline(5, f.WEAK_NEF),
        lambda: f.enumerate_configurations(5, f.WEAK_NEF),
        lambda: f.compute_n1(5, 1),
        lambda: f.index_bounds(5, f.WEAK_NEF),
        lambda: f.index_bounds([5], f.WEAK_NEF),
        lambda: f.index_bounds([f.SingularityConfiguration(5)], f.WEAK_NEF),
        lambda: f.SingularityConfiguration(5).contribution_sum(),
        lambda: f.global_chi(1, 1, 1, 5, 2),
    ],
    ids=[
        "degree_against_curve", "divisor_to_json", "intersection_matrix", "extract_invariants",
        "pipeline", "enumerate_configurations", "compute_n1", "index_bounds-not-iterable",
        "index_bounds-not-a-configuration", "index_bounds-orders-not-a-tuple", "contribution_sum",
        "global_chi",
    ],
)
def test_argument_of_the_wrong_type_refused(call):
    with pytest.raises(ValidationError, match=r"expected \w+, got int$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: GRAPH.index_of([]),
        lambda: D1.coefficient({}),
        lambda: f.degree_against_curve(D1, []),
        lambda: f.is_negative_definite(GRAPH, [[]]),
    ],
    ids=["index_of", "coefficient", "degree_against_curve", "is_negative_definite"],
)
def test_unhashable_label_refused(call):
    with pytest.raises(ValidationError, match="unknown curve label"):
        call()


@pytest.mark.parametrize(
    "entries, message",
    [
        (5, "entries: expected tuple, got int"),
        ([3, 2], "entries: expected tuple, got list"),
        ((), "needs at least one entry"),
        (("x",), "entry must be an integer >= 2, not str"),
        ((3, 1), "entry out of range"),
        ((3, True), "not bool"),
    ],
)
def test_hj_expansion_refuses_foreign_entries(entries, message):
    with pytest.raises(ValidationError, match=message):
        f.HJExpansion(entries)
