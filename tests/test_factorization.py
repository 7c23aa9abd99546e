"""A graph is eliminated once: its kept factorization against fresh graphs and references.

``DualGraph`` eliminates its whole pairing at most once, to the end, for
whichever comes first of a ``solve_pullback`` call and a whole-graph
``is_negative_definite`` check, and every later one replays it. Every
answer from a graph that has been asked before must equal
the answer from a fresh equal graph, Fraction Gauss-Jordan and the cofactor
minors of ``tests/test_linalg.py``. A singular pairing names the support of
an exact kernel vector.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folcalc import Curve, DualGraph, IntersectionProfile, intersection_matrix, is_negative_definite, solve_pullback
from folcalc.cli import main
from folcalc.errors import DegenerateConfigurationError
from folcalc.lattice import degree_vector
from folcalc.linalg import factor

from conftest import random_graph
from test_linalg import cofactor_det, gauss_jordan, minors_negative_definite, solve_rational


def relabelled(graph, order, prefix):
    """The graph with its curves listed in ``order`` and label L renamed prefix + L."""
    labels = graph.labels
    curves = [Curve(prefix + labels[i], graph.curves[i].self_intersection) for i in order]
    edges = [
        (prefix + labels[i], prefix + labels[j], v)
        for i, row in enumerate(graph.sparse_rows)
        for j, v in row.items()
        if i < j
    ]
    return DualGraph(curves, edges)


def fresh(graph):
    return relabelled(graph, range(len(graph)), "")


def pullback(graph, degrees):
    """("ok", coefficient list) or ("degenerate", location) for one solve."""
    try:
        z = solve_pullback(graph, IntersectionProfile(graph, degrees))
    except DegenerateConfigurationError as err:
        return "degenerate", err.location
    return "ok", [z.coefficient(label) for label in graph.labels]


def cycle(labels, self_intersection=-2):
    curves = [Curve(label, self_intersection) for label in labels]
    edges = [(a, labels[(k + 1) % len(labels)], 1) for k, a in enumerate(labels)]
    return curves, edges


def kernel_support(graph):
    """The kernel vector of the graph's pairing, checked against every curve, and its labels."""
    z = factor(graph.sparse_rows).kernel
    assert z is not None and any(z)
    assert degree_vector(graph, dict(enumerate(z))) == [0] * len(graph)
    return ", ".join(label for label, x in zip(graph.labels, z) if x)


degrees_strategy = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=6, max_size=6)
query_strategy = st.one_of(st.just("definite"), degrees_strategy)


# --- the reuse path against its oracles ---------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_reused_graph_answers_like_a_fresh_one(rng, data):
    base = random_graph(rng, max_curves=6, self_range=(-4, 1))
    order = data.draw(st.permutations(range(len(base))))
    graph = relabelled(base, order, "R")
    key, twin = hash(graph), fresh(graph)
    matrix = intersection_matrix(graph)
    for query in data.draw(st.lists(query_strategy, min_size=1, max_size=6)):
        if query == "definite":
            verdict = is_negative_definite(graph, graph.labels)
            assert verdict == is_negative_definite(fresh(graph), graph.labels)
            assert verdict == minors_negative_definite(matrix)
            continue
        rhs = query[: len(graph)]
        degrees = dict(zip(graph.labels, rhs))
        outcome = pullback(graph, degrees)
        assert outcome == pullback(fresh(graph), degrees)
        expected = gauss_jordan(matrix, rhs)
        if expected is None:
            assert outcome[0] == "degenerate"
            named = [graph.index_of(label) for label in outcome[1].split(", ")]
            # M Z = 0 with supp Z = named makes the principal minor on named vanish
            assert cofactor_det([[matrix[i][j] for j in named] for i in named]) == 0
        else:
            assert outcome == ("ok", expected)
            # the same curves listed in the base order give the same divisor
            base_outcome = pullback(base, {label[1:]: x for label, x in degrees.items()})
            assert base_outcome == ("ok", [expected[order.index(i)] for i in range(len(base))])
    assert hash(graph) == key and graph == twin and twin == graph


# --- the replay's edge cases ---------------------------------------------------


def test_row_denominator_when_the_content_does_not_divide_the_rhs():
    # eliminating C1 turns row 2 into 4 * (2, -4) + 2 * (-4, 2) = (0, -12): content 12,
    # which does not divide the rhs entry 4 * 0 + 2 * 1 = 2; the replay starts from
    # |det| * rhs = (12, 0) instead, so that entry is (4 * 0 + 2 * 12) / 12 = 2, an integer
    record = factor([{0: -4, 1: 2}, {0: 2, 1: -4}])
    assert record.updates == [1, 0, 4, -2, 12]
    assert record.det == 12
    assert record.solve([1, 0]) == ([-2, -1], 6)
    assert record.solve([1, 0]) == ([-2, -1], 6)
    graph = DualGraph([Curve("A", -4), Curve("B", -4)], [("A", "B", 2)])
    assert pullback(graph, {"A": 1}) == ("ok", [Fraction(-1, 3), Fraction(-1, 6)])
    assert pullback(graph, {"B": Fraction(1, 5)}) == ("ok", [Fraction(-1, 30), Fraction(-1, 15)])
    assert is_negative_definite(graph, graph.labels)


def test_row_denominator_carried_into_a_later_pivot():
    # on rhs (1, 0, 0) row 2 would leave column 1 with entry 2 / 4 = 1/2 and then pivot
    # column 2; the replay starts from |det| * rhs = (20, 0, 0), so that entry is
    # (4 * 0 + 2 * 20) / 4 = 10, and the update of row 3 reads an integer
    matrix = [[-4, 2, 0], [2, -4, 1], [0, 1, -2]]
    record = factor([{j: v for j, v in enumerate(row) if v} for row in matrix])
    assert record.updates == [1, 0, 4, -2, 4, 2, 1, 3, -1, 5]
    assert record.det == 20
    for rhs in ([1, 0, 0], [Fraction(1, 3), 0, 1], [0, 1, Fraction(-1, 2)]):
        numerators, den = solve_rational(record, rhs)
        assert [Fraction(x, den) for x in numerators] == gauss_jordan(matrix, rhs)


def test_empty_graph():
    graph = DualGraph([])
    assert pullback(graph, {}) == ("ok", [])
    assert pullback(graph, {}) == ("ok", [])
    assert graph == DualGraph([])


@pytest.mark.parametrize(
    "self_intersection, definite, outcome",
    [
        (-3, True, ("ok", [Fraction(-2, 3)])),
        (2, False, ("ok", [Fraction(1)])),
        (0, False, ("degenerate", "A")),
    ],
)
def test_one_curve(self_intersection, definite, outcome):
    graph = DualGraph([Curve("A", self_intersection)])
    for _ in range(2):
        assert pullback(graph, {"A": 2}) == outcome
        assert is_negative_definite(graph, ["A"]) is definite


def test_singular_graph_queried_twice():
    graph = DualGraph(*cycle(["A", "B", "C"]))
    first = pullback(graph, {"A": 1})
    assert first == ("degenerate", "A, B, C")
    assert pullback(graph, {"B": Fraction(1, 2)}) == first
    assert not is_negative_definite(graph, graph.labels)
    assert pullback(graph, {"A": 1}) == first


def test_indefinite_graph_checked_first_then_solved():
    # pivots -1 then 3: nonsingular, not definite
    graph = DualGraph([Curve("A", -1), Curve("B", -1)], [("A", "B", 2)])
    assert not is_negative_definite(graph, graph.labels)
    record = graph._factorization
    assert record is not None and not record.definite  # the check ran to the end and kept it
    assert pullback(graph, {"A": 1}) == ("ok", [Fraction(1, 3), Fraction(2, 3)])
    assert graph._factorization is record
    assert not is_negative_definite(graph, graph.labels)
    assert pullback(graph, {"B": 3}) == ("ok", [Fraction(2), Fraction(1)])


def test_singular_graph_checked_first_then_solved():
    graph = DualGraph(*cycle(["A", "B", "C"]))
    assert not is_negative_definite(graph, graph.labels)
    record = graph._factorization
    assert record is not None and not record.definite  # a missing pivot is kept with its kernel
    assert pullback(graph, {"A": 1}) == ("degenerate", "A, B, C")
    assert graph._factorization is record
    assert not is_negative_definite(graph, graph.labels)


def test_definite_check_keeps_its_factorization_for_solves():
    graph = DualGraph(*cycle(["A", "B", "C", "D"], -3))
    assert is_negative_definite(graph, graph.labels)
    record = graph._factorization
    assert record is not None and record.definite
    assert pullback(graph, {"A": -1}) == pullback(fresh(graph), {"A": -1})
    assert graph._factorization is record


ORDERS = {
    "verdict first": ["verdict", "pullback", "verdict", "pullback"],
    "pullback first": ["pullback", "verdict", "pullback"],
}


@pytest.mark.parametrize("order", ORDERS.values(), ids=ORDERS)
@pytest.mark.parametrize(
    "curves, edges, definite",
    [
        (*cycle(["A", "B", "C", "D"], -3), True),
        ([Curve("A", -1), Curve("B", -1)], [("A", "B", 2)], False),
        (*cycle(["A", "B", "C"]), False),
    ],
    ids=["definite", "indefinite", "singular"],
)
def test_the_whole_pairing_is_eliminated_once(monkeypatch, curves, edges, definite, order):
    calls = []

    def counted(rows, **kwargs):
        calls.append(rows)
        return factor(rows, **kwargs)

    graph = DualGraph(curves, edges)
    expected = pullback(fresh(graph), {"A": 1})
    monkeypatch.setattr("folcalc.lattice.factor", counted)
    for question in order:
        if question == "verdict":
            assert is_negative_definite(graph, graph.labels) is definite
        else:
            assert pullback(graph, {"A": 1}) == expected
    assert [rows is graph.sparse_rows for rows in calls] == [True]


def test_proper_support_does_not_touch_the_kept_factorization():
    graph = DualGraph(*cycle(["A", "B", "C"]))
    assert is_negative_definite(graph, ["A", "B"])
    assert graph._factorization is None


# --- a singular pull-back names its curves --------------------------------------


def test_cycle_names_every_curve():
    graph = DualGraph(*cycle(["A", "B", "C", "D"]))
    assert kernel_support(graph) == "A, B, C, D"
    assert pullback(graph, {"A": 1}) == ("degenerate", "A, B, C, D")


@pytest.mark.parametrize("cycle_first", [False, True])
def test_definite_chain_beside_a_cycle_names_only_the_cycle(cycle_first):
    chain = [Curve(f"C{j}", -2) for j in range(1, 5)]
    chain_edges = [(f"C{j}", f"C{j + 1}", 1) for j in range(1, 4)]
    cycle_curves, cycle_edges = cycle(["X", "Y", "Z"])
    curves = cycle_curves + chain if cycle_first else chain + cycle_curves
    graph = DualGraph(curves, chain_edges + cycle_edges)
    assert kernel_support(graph) == "X, Y, Z"
    assert pullback(graph, {"C1": -1, "Y": 2}) == ("degenerate", "X, Y, Z")


def test_kernels_of_random_singular_graphs():
    rng = random.Random(23)
    found = 0
    while found < 40:
        graph = random_graph(rng, max_curves=7, self_range=(-3, 1))
        if factor(graph.sparse_rows).kernel is None:
            continue
        location = kernel_support(graph)
        assert pullback(graph, {}) == ("degenerate", location)
        found += 1


def test_cli_names_the_curves_of_a_singular_pairing(capsys, tmp_path):
    curves, edges = cycle(["A", "B", "C", "D"])
    graph = {
        "curves": [{"label": c.label, "self": c.self_intersection} for c in curves],
        "edges": [list(edge) for edge in edges],
    }
    gpath, ppath = tmp_path / "cycle.json", tmp_path / "profile.json"
    gpath.write_text(json.dumps(graph))
    ppath.write_text(json.dumps({"A": 1}))
    assert main(["pullback", str(gpath), str(ppath)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["code"] == "degenerate-configuration"
    assert error["location"] == "A, B, C, D"
