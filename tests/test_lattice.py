"""Dual graphs, the pairing, pull-back solves, and the index inequality."""

import math
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import folcalc as f
from folcalc import (
    Curve,
    DualGraph,
    IntersectionProfile,
    QDivisor,
    chi_additivity_check,
    hodge_inequality_check,
    intersection_matrix,
    is_negative_definite,
    pair,
    solve_pullback,
)
from folcalc.errors import DegenerateConfigurationError, ValidationError
from folcalc.lattice import (
    _by_index,
    _positive_point,
    _trivial_combination,
    degree_vector,
    divisor_from_json,
    graph_from_json,
    profile_from_json,
)
from folcalc.zariski import zariski_decompose

from conftest import (
    exponent_divisor,
    fraction_by_index,
    fraction_degree_vector,
    prime_denominator_divisor,
    random_divisor,
    random_graph,
    x1_closed_form,
)


def hj_graph(n, q):
    return f.hj_string_graph(f.CyclicType(n, q))


def cusp_cycle():
    curves = [Curve("A", -2), Curve("B", -2), Curve("Z", -2)]
    return DualGraph(curves, [("A", "B", 1), ("B", "Z", 1), ("A", "Z", 1)])


def naive_det(matrix):
    """Cofactor expansion; the independent determinant for minor oracles."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * naive_det(minor)
    return total


def fraction_trivial_combination(d1, d2):
    """Proportionality of the Fraction degree vectors; the reference for the
    cross-multiplied integer test."""
    v1 = fraction_degree_vector(d1.graph, fraction_by_index(d1))
    v2 = fraction_degree_vector(d2.graph, fraction_by_index(d2))
    if not any(v1):
        return (Fraction(1), Fraction(0))
    if not any(v2):
        return (Fraction(0), Fraction(1))
    j0 = next(j for j, v in enumerate(v1) if v)
    lam = v2[j0] / v1[j0]
    if all(v2[j] == lam * v1[j] for j in range(len(v1))):
        return (lam, Fraction(-1))
    return None


def some_divisors(rng, graph):
    """Divisors with small, pairwise distinct prime and exponent-form denominators."""
    return [random_divisor(rng, graph), prime_denominator_divisor(rng, graph), exponent_divisor(rng, graph)]


def naive_negative_definite(matrix):
    n = len(matrix)
    for k in range(1, n + 1):
        minor = naive_det([row[:k] for row in matrix[:k]])
        if (-1) ** k * minor <= 0:
            return False
    return True


class TestGraphConstruction:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            DualGraph([Curve("A", -2), Curve("A", -3)])

    def test_loop_edges_rejected(self):
        with pytest.raises(ValidationError):
            DualGraph([Curve("A", -2)], [("A", "A", 1)])

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValidationError):
            DualGraph([Curve("A", -2), Curve("B", -2)], [("A", "B", -1)])

    def test_divisor_rejects_unknown_label(self):
        g = hj_graph(3, 2)
        with pytest.raises(ValidationError):
            QDivisor(g, {"nope": 1})

    @pytest.mark.parametrize("value", [True, False, 1.5, -2.0, "2", Fraction(-2)])
    def test_curve_rejects_non_integer_self_intersection(self, value):
        with pytest.raises(ValidationError):
            Curve("A", value)

    @pytest.mark.parametrize("mult", [True, 1.0])
    def test_non_integer_multiplicity_rejected(self, mult):
        with pytest.raises(ValidationError):
            DualGraph([Curve("A", -2), Curve("B", -2)], [("A", "B", mult)])

    @pytest.mark.parametrize("edge", [("A", "B"), ("A", "B", 1, 0), "AB", 3])
    def test_edge_that_is_not_a_triple_rejected(self, edge):
        with pytest.raises(ValidationError, match="triple"):
            DualGraph([Curve("A", -2), Curve("B", -2)], [edge])

    def test_sparse_rows_match_matrix(self):
        g = DualGraph(
            [Curve("A", -2), Curve("B", 0), Curve("Z", -3)],
            [("A", "B", 1), ("B", "A", 2), ("A", "Z", 0)],
        )
        assert intersection_matrix(g) == [[-2, 3, 0], [3, 0, 0], [0, 0, -3]]
        assert g.sparse_rows == ({0: -2, 1: 3}, {0: 3}, {2: -3})

    def test_json_curve_flags_do_not_change_the_graph(self):
        plain = {"curves": [{"label": "A", "self": -2}, {"label": "B", "self": -1}], "edges": [["A", "B", 1]]}
        flagged = {
            "curves": [
                {"label": "A", "self": -2, "exceptional": False},
                {"label": "B", "self": -1, "node": True},
            ],
            "edges": [["A", "B", 1]],
        }
        assert graph_from_json(flagged) == graph_from_json(plain)
        assert hash(graph_from_json(flagged)) == hash(graph_from_json(plain))

    @pytest.mark.parametrize(
        "graph, message",
        [
            ({"curves": [{"label": "A"}]}, 'each curve needs "label" and "self" fields'),
            ({"curves": [{"label": "A", "self": -2}, {"label": "B", "self": -2}], "edges": [["A", "B"]]},
             r"each edge must be \[label, label, multiplicity\]"),
            ({"curves": [{"label": "A", "self": -2}], "edges": [["A", "B", 1]]}, "unknown label"),
        ],
        ids=["curve-without-self", "edge-of-two", "edge-to-unknown-label"],
    )
    def test_malformed_json_graph_refused(self, graph, message):
        with pytest.raises(ValidationError, match=message):
            graph_from_json(graph)

    @pytest.mark.parametrize("read", [divisor_from_json, profile_from_json], ids=["divisor", "profile"])
    def test_json_coefficients_must_be_an_object(self, read):
        with pytest.raises(ValidationError, match="JSON must be an object mapping labels to rationals"):
            read(one_curve()[0], [["C1", 1]])

    def test_equality_hash_and_json_ignore_edge_order(self):
        curves = [Curve("A", -2), Curve("B", -3), Curve("C", -2)]
        g1 = DualGraph(curves, [("A", "B", 1), ("B", "C", 2)])
        g2 = DualGraph(curves, [("C", "B", 2), ("B", "A", 1)])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != DualGraph(curves, [("A", "B", 1), ("B", "C", 1)])
        curves_json = [{"label": c.label, "self": c.self_intersection} for c in curves]
        assert graph_from_json({"curves": curves_json, "edges": [["C", "B", 2], ["A", "B", 1]]}) == g1

    def test_self_intersection_zero_differs_from_minus_one(self):
        # a 0 diagonal entry is dropped from its sparse row; equality still sees it
        g0 = DualGraph([Curve("A", 0), Curve("B", -2)], [("A", "B", 1)])
        g1 = DualGraph([Curve("A", -1), Curve("B", -2)], [("A", "B", 1)])
        assert g0 != g1 and g1 != g0
        assert g0 == DualGraph([Curve("A", 0), Curve("B", -2)], [("A", "B", 1)])


    @pytest.mark.parametrize("value", [-1.5, True], ids=["float", "bool"])
    def test_object_with_curve_fields_is_not_a_curve(self, value):
        # its self-intersection would enter the exact rows unchecked
        impostor = SimpleNamespace(label="A", self_intersection=value)
        with pytest.raises(ValidationError, match="curve: expected Curve, got SimpleNamespace"):
            DualGraph([impostor, Curve("B", -2)], [("A", "B", 1)])

    def test_curves_are_read_back_from_the_rows(self):
        # a self-intersection 0 is absent from its sparse row and still read back as 0
        g = graph_from_json(
            {"curves": [{"label": "A", "self": 0}, {"label": "B", "self": -2}], "edges": [["A", "B", 1]]}
        )
        assert g.sparse_rows == ({1: 1}, {0: 1, 1: -2})
        assert g.curves == (Curve("A", 0), Curve("B", -2))
        rng = random.Random(25)
        for _ in range(200):
            g = random_graph(rng, self_range=(-3, 1))
            edges = [
                (g.labels[i], g.labels[j], v) for i, row in enumerate(g.sparse_rows) for j, v in row.items() if i < j
            ]
            assert DualGraph(g.curves, edges) == g
            assert [c.label for c in g.curves] == list(g.labels) and len(g) == len(g.labels)


class TestDivisorScaling:
    def test_exact_scalars(self):
        g = hj_graph(3, 2)
        d = QDivisor(g, {"C1": 1, "C2": Fraction(1, 3)})
        assert 2 * d == QDivisor(g, {"C1": 2, "C2": Fraction(2, 3)})
        assert Fraction(3, 2) * d == QDivisor(g, {"C1": Fraction(3, 2), "C2": Fraction(1, 2)})

    @pytest.mark.parametrize("scalar", [0.1, 2.0, True, False])
    def test_floats_and_bools_rejected(self, scalar):
        d = QDivisor(hj_graph(3, 2), {"C1": 1})
        with pytest.raises(ValidationError):
            scalar * d


def one_curve():
    g = DualGraph([Curve("C1", -2)])
    return g, QDivisor(g, {"C1": 1})


@pytest.mark.parametrize(
    "call",
    [
        lambda g, d: pair(d, 5),
        lambda g, d: pair(5, d),
        lambda g, d: hodge_inequality_check(d, 5),
        lambda g, d: d + 5,
        lambda g, d: d - 5,
        lambda g, d: solve_pullback(g, 5),
        lambda g, d: zariski_decompose(g, 5),
        lambda g, d: is_negative_definite(g, 5),
        lambda g, d: is_negative_definite(5, ["C1"]),
        lambda g, d: DualGraph(5),
        lambda g, d: DualGraph([Curve("C1", -2)], 5),
        lambda g, d: DualGraph([5]),
        lambda g, d: QDivisor(5, {"C1": 1}),
        lambda g, d: QDivisor(5, {}),
        lambda g, d: IntersectionProfile(5, {}),
        lambda g, d: divisor_from_json(5, {}),
    ],
)
def test_foreign_graph_and_record_arguments_rejected(call):
    with pytest.raises(ValidationError):
        call(*one_curve())


class TestRecordSemantics:
    """Equality, repr, hashing and construction of divisors and profiles."""

    def test_equal_exactly_when_graph_and_map_are_equal(self):
        g, d = one_curve()
        other = DualGraph([Curve("C1", -3)])
        assert d == QDivisor(DualGraph([Curve("C1", -2)]), {"C1": Fraction(1)})
        assert d != QDivisor(g, {"C1": 2}) and d != QDivisor(other, {"C1": 1})
        assert QDivisor(g, {"C1": 0}) == QDivisor(g)
        p = IntersectionProfile(g, {"C1": -1})
        assert p == IntersectionProfile(g, {"C1": Fraction(-1)})
        assert p != IntersectionProfile(g) and p != IntersectionProfile(other, {"C1": -1})

    def test_never_equal_across_types_or_to_a_dict(self):
        g, d = one_curve()
        p = IntersectionProfile(g, {"C1": 1})
        assert d != p and p != d
        assert d != {"C1": Fraction(1)} and p != {"C1": Fraction(1)}

    def test_repr(self):
        g = hj_graph(5, 2)
        assert repr(QDivisor(g, {"C2": Fraction(-1, 5), "C1": 2})) == "QDivisor((2)*C1 + (-1/5)*C2)"
        assert repr(QDivisor(g)) == "QDivisor(0)"
        assert repr(IntersectionProfile(g, {"C1": -1})) == (
            "IntersectionProfile(graph=DualGraph(['C1', 'C2']), degrees={'C1': Fraction(-1, 1)})"
        )

    def test_unhashable(self):
        g, d = one_curve()
        with pytest.raises(TypeError):
            hash(d)
        with pytest.raises(TypeError):
            hash(IntersectionProfile(g))

    def test_keyword_construction(self):
        g, d = one_curve()
        assert QDivisor(graph=g, coefficients={"C1": 1}) == d
        assert QDivisor(g, coefficients={"C1": 1}) == d
        assert IntersectionProfile(graph=g, degrees={"C1": 1}).degrees == {"C1": Fraction(1)}


class TestIntersectionMatrix:
    def test_hj_3_2(self):
        assert intersection_matrix(hj_graph(3, 2)) == [[-2, 1], [1, -2]]

    def test_single_minus_one_curve(self):
        g = DualGraph([Curve("E", -1)])
        assert intersection_matrix(g) == [[-1]]

    def test_hj_12_5_tridiagonal(self):
        # expansion of 12/5 is [3, 2, 3]; cross-checked by re-evaluating it
        exp = f.hj_expansion(f.CyclicType(12, 5))
        assert exp.entries == (3, 2, 3)
        assert exp.evaluate() == Fraction(12, 5)
        assert intersection_matrix(hj_graph(12, 5)) == [
            [-3, 1, 0],
            [1, -2, 1],
            [0, 1, -3],
        ]


class TestNegativeDefinite:
    def test_hj_strings_are_negative_definite(self):
        for n, q in [(2, 1), (5, 2), (12, 5), (30, 11)]:
            g = hj_graph(n, q)
            assert is_negative_definite(g, g.labels)

    def test_zero_selfintersection_not_definite(self):
        g = DualGraph([Curve("A", 0)])
        assert not is_negative_definite(g, ["A"])

    def test_cusp_cycle_semidefinite(self):
        # leading minors -2, 3, 0: the zero determinant kills definiteness
        g = cusp_cycle()
        assert naive_det(intersection_matrix(g)) == 0
        assert not is_negative_definite(g, g.labels)

    def test_empty_support_rejected(self):
        with pytest.raises(ValidationError):
            is_negative_definite(hj_graph(3, 2), [])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            is_negative_definite(hj_graph(3, 2), ["X"])

    def test_agrees_with_minor_oracle_on_all_subsets(self):
        rng = random.Random(7)
        graphs = [hj_graph(12, 5), cusp_cycle()]
        for _ in range(12):
            graphs.append(random_graph(rng, max_curves=8, self_range=(-3, 1)))
        for g in graphs:
            labels = g.labels
            matrix = intersection_matrix(g)
            for r in range(1, len(labels) + 1):
                for subset in combinations(labels, r):
                    idxs = [g.index_of(l) for l in subset]
                    sub = [[matrix[i][j] for j in idxs] for i in idxs]
                    assert is_negative_definite(g, subset) == naive_negative_definite(sub)


class TestSolvePullback:
    def test_canonical_profile_first_coefficient(self):
        for n, q in [(5, 2), (7, 3), (12, 5), (9, 8)]:
            t = f.CyclicType(n, q)
            g = f.hj_string_graph(t)
            entries = f.hj_expansion(t).entries
            profile = IntersectionProfile(g, {f"C{j + 1}": b - 2 for j, b in enumerate(entries)})
            z = solve_pullback(g, profile)
            assert z.coefficient("C1") == x1_closed_form(t)

    def test_fchain_profile_first_coefficient(self):
        for n, q in [(3, 1), (5, 2), (12, 5)]:
            t = f.CyclicType(n, q)
            g = f.hj_string_graph(t)
            z = solve_pullback(g, f.fchain_profile(t))
            assert z.coefficient("C1") == Fraction(q, n)

    def test_zero_profile_gives_zero_divisor(self):
        g = hj_graph(7, 3)
        z = solve_pullback(g, IntersectionProfile(g, {}))
        assert z == QDivisor(g)

    def test_degenerate_configuration_raises(self):
        g = cusp_cycle()
        with pytest.raises(DegenerateConfigurationError):
            solve_pullback(g, IntersectionProfile(g, {"A": 1}))

    def test_roundtrip_prescribed_degrees_exact(self):
        rng = random.Random(11)
        done = 0
        while done < 40:
            g = random_graph(rng, max_curves=5)
            degrees = {
                label: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for label in g.labels
            }
            profile = IntersectionProfile(g, degrees)
            try:
                z = solve_pullback(g, profile)
            except DegenerateConfigurationError:
                continue
            for label in g.labels:
                assert f.degree_against_curve(z, label) == profile.degrees.get(label, 0)
            done += 1

    def test_maximum_principle_on_hj_strings(self):
        # nonpositive prescribed degrees force nonnegative coefficients
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 40)
            qs = [q for q in range(1, n) if math.gcd(n, q) == 1]
            t = f.CyclicType(n, rng.choice(qs))
            g = f.hj_string_graph(t)
            profile = IntersectionProfile(
                g, {label: -rng.randint(0, 4) for label in g.labels}
            )
            z = solve_pullback(g, profile)
            assert all(v >= 0 for v in z.coefficients.values())


class TestPair:
    def test_adjacent_curves_pair_to_one(self):
        g = hj_graph(3, 2)
        c1 = QDivisor(g, {"C1": 1})
        c2 = QDivisor(g, {"C2": 1})
        assert pair(c1, c2) == 1

    def test_pair_with_zero(self):
        g = hj_graph(5, 2)
        d = QDivisor(g, {"C1": Fraction(3, 7)})
        assert pair(d, QDivisor(g, {})) == 0

    def test_fchain_class_self_intersection(self):
        # Z . C1 = -1 and Z supported on the string give Z^2 = -q/n
        for n, q in [(3, 1), (5, 2), (12, 5), (11, 7), (1000, 999)]:
            t = f.CyclicType(n, q)
            g = f.hj_string_graph(t)
            z = solve_pullback(g, f.fchain_profile(t))
            assert pair(z, z) == Fraction(-q, n)

    def test_mismatched_graphs_rejected(self):
        d1 = QDivisor(hj_graph(3, 2), {"C1": 1})
        d2 = QDivisor(hj_graph(5, 2), {"C1": 1})
        with pytest.raises(ValidationError):
            pair(d1, d2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_dense_bilinear_form(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_graph(rng, max_curves=6, self_range=(-5, 2))
        d1 = random_divisor(rng, g)
        d2 = random_divisor(rng, g)
        m = intersection_matrix(g)
        x = [d1.coefficient(l) for l in g.labels]
        y = [d2.coefficient(l) for l in g.labels]
        expected = sum(x[i] * m[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))
        assert pair(d1, d2) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bilinear_and_symmetric(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_graph(rng, max_curves=5, self_range=(-5, 2))
        d1 = random_divisor(rng, g)
        d2 = random_divisor(rng, g)
        d3 = random_divisor(rng, g)
        s = Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 4)))
        assert pair(d1, d2) == pair(d2, d1)
        assert pair(d1 + d3, d2) == pair(d1, d2) + pair(d3, d2)
        assert pair(s * d1, d2) == s * pair(d1, d2)


class TestHodgeInequality:
    def test_equal_divisors_with_positive_square(self):
        g = DualGraph([Curve("H", 1)])
        d = QDivisor(g, {"H": 2})
        report = hodge_inequality_check(d, d)
        assert report.hypothesis_holds
        assert report.inequality_holds
        assert report.equality_with_trivial_combination
        b1, b2 = report.trivial_combination
        assert b1 * 1 + b2 * 1 == 0  # the combination is d - d

    def test_hyperbolic_plane_case(self):
        g = DualGraph([Curve("H", 1), Curve("E", -1)])
        d1 = QDivisor(g, {"H": 1})
        d2 = QDivisor(g, {"E": 1})
        report = hodge_inequality_check(d1, d2)
        assert report.hypothesis_holds
        assert report.inequality_holds
        assert report.products == (Fraction(1), Fraction(0), Fraction(-1))
        assert report.equality_with_trivial_combination is None

    def test_unwitnessed_hypothesis_makes_no_claim(self):
        g = DualGraph([Curve("E", -1)])
        d = QDivisor(g, {"E": 1})
        report = hodge_inequality_check(d, d)
        assert not report.hypothesis_holds
        assert report.inequality_holds is None

    def test_scaled_divisor_gives_scaled_combination(self):
        g = DualGraph([Curve("H", 2)])
        d1 = QDivisor(g, {"H": 1})
        d2 = 3 * d1
        report = hodge_inequality_check(d1, d2)
        assert report.hypothesis_holds and report.equality_with_trivial_combination
        b1, b2 = report.trivial_combination
        assert b1 + 3 * b2 == 0 and (b1, b2) != (0, 0)

    def test_random_pairs_on_indefinite_lattices(self):
        # divisors with arbitrary integer coordinates realize the full
        # signature (1, k) lattice on the diagonal graphs
        rng = random.Random(17)
        witnessed = 0
        for _ in range(250):
            k = rng.randint(1, 4)
            labels = ["H"] + [f"E{i}" for i in range(k)]
            diag = [1] + [-1] * k
            g = DualGraph([Curve(label, s) for label, s in zip(labels, diag)])
            d1 = QDivisor(g, {l: rng.randint(-3, 3) for l in g.labels})
            d2 = QDivisor(g, {l: rng.randint(-3, 3) for l in g.labels})
            report = hodge_inequality_check(d1, d2)
            # independent exhaustive scan of a small grid
            s11, s12, s22 = report.products
            brute = any(
                a1 * a1 * s11 + 2 * a1 * a2 * s12 + a2 * a2 * s22 > 0
                for a1 in range(-5, 6)
                for a2 in range(-5, 6)
                if (a1, a2) != (0, 0)
            )
            assert report.hypothesis_holds == brute
            if report.hypothesis_holds:
                witnessed += 1
                a1, a2 = report.witness
                assert a1 * a1 * s11 + 2 * a1 * a2 * s12 + a2 * a2 * s22 > 0
                assert report.inequality_holds
        assert witnessed > 50

    def test_thin_cone_witness_outside_any_small_grid(self):
        # (301 d1 + 2 d2)^2 = (H/5)^2 = 1/25 > 0, but the form is positive
        # only in a thin cone that misses the box [-100, 100]^2
        g = DualGraph([Curve("H", 1), Curve("E", -1)])
        d1 = QDivisor(g, {"E": 1})
        d2 = QDivisor(g, {"H": Fraction(1, 10), "E": Fraction(-301, 2)})
        report = hodge_inequality_check(d1, d2)
        assert report.hypothesis_holds
        a1, a2 = report.witness
        assert max(abs(a1), abs(a2)) > 100
        combination = a1 * d1 + a2 * d2
        assert pair(combination, combination) > 0
        assert report.inequality_holds
        assert report.products == (Fraction(-1), Fraction(301, 2), Fraction(1, 100) - Fraction(301, 2) ** 2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.fractions(-20, 20, max_denominator=12), min_size=3, max_size=3))
    @example([Fraction(0), Fraction(-3, 2), Fraction(0)])
    @example([Fraction(-1), Fraction(301, 2), Fraction(1, 100) - Fraction(301, 2) ** 2])
    @example([Fraction(-2), Fraction(2), Fraction(-2)])
    def test_positive_point_on_random_forms(self, form):
        s11, s12, s22 = form

        def value(a1, a2):
            return a1 * a1 * s11 + 2 * a1 * a2 * s12 + a2 * a2 * s22

        witness = _positive_point(s11, s12, s22)
        if witness is None:
            assert all(value(a1, a2) <= 0 for a1 in range(-4, 5) for a2 in range(-4, 5))
        else:
            a1, a2 = witness
            assert type(a1) is int and type(a2) is int
            assert (a1, a2) != (0, 0) and math.gcd(a1, a2) == 1
            assert value(a1, a2) > 0

    @pytest.mark.parametrize(
        "matrix, c1, c2",
        [
            ([[-1]], {"E": 1}, {"E": 2}),  # proportional, negative definite
            ([[-2, 0], [0, 0]], {"E": 1}, {"F": 1}),  # s22 = 0: semidefinite, not definite
            ([[-1, 0], [0, -1]], {"E": 1, "F": 1}, {"E": 1, "F": -1}),
        ],
    )
    def test_semidefinite_pair_at_cap_has_no_witness(self, matrix, c1, c2):
        # every matrix here is diagonal: disjoint curves
        g = DualGraph([Curve(label, row[i]) for i, (label, row) in enumerate(zip("EF", matrix))])
        report = hodge_inequality_check(QDivisor(g, c1), QDivisor(g, c2))
        assert not report.hypothesis_holds
        assert report.witness is None
        assert report.inequality_holds is None
        assert report.equality_with_trivial_combination is None
        assert report.trivial_combination is None


class TestIntegerDegrees:
    """Z . C on numerators over one common denominator against the Fraction sums."""

    def test_degree_vector_matches_fraction_reference(self):
        rng = random.Random(59)
        for _ in range(150):
            g = random_graph(rng, max_curves=6, self_range=(-5, 2))
            for d in some_divisors(rng, g) + [QDivisor(g)]:
                numerators, den = _by_index(d)
                assert den > 0 and all(type(x) is int for x in numerators.values())
                degrees = degree_vector(g, numerators)
                assert all(type(v) is int for v in degrees)
                expected = fraction_degree_vector(g, fraction_by_index(d))
                assert [Fraction(v, den) for v in degrees] == expected

    def test_pair_matches_fraction_reference(self):
        rng = random.Random(61)
        for _ in range(150):
            g = random_graph(rng, max_curves=6, self_range=(-5, 2))
            divisors = some_divisors(rng, g)
            for d1 in divisors:
                for d2 in divisors:
                    degrees = fraction_degree_vector(g, fraction_by_index(d2))
                    expected = sum((x * degrees[i] for i, x in fraction_by_index(d1).items()), Fraction(0))
                    value = pair(d1, d2)
                    assert type(value) is Fraction and value == expected

    def test_trivial_combination_matches_fraction_reference(self):
        rng = random.Random(67)
        cycle = cusp_cycle()
        kernel = QDivisor(cycle, {"A": 1, "B": 1, "Z": 1})  # pairs to 0 with every curve
        cases = [
            (kernel, QDivisor(cycle, {"A": Fraction(1, 3)})),
            (QDivisor(cycle, {"B": Fraction(-2, 7)}), Fraction(5, 11) * kernel),
        ]
        for _ in range(100):
            g = random_graph(rng, max_curves=5, self_range=(-5, 2))
            d1, d2, d3 = some_divisors(rng, g)
            s = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7]))
            cases += [(d1, d2), (d2, d3), (d1, s * d1), (s * d2, d2), (d3, s * d3), (QDivisor(g), d2)]
        claimed = 0
        for d1, d2 in cases:
            expected = fraction_trivial_combination(d1, d2)
            assert _trivial_combination(d1, d2) == expected
            report = hodge_inequality_check(d1, d2)
            if report.equality_with_trivial_combination is not None:
                assert report.trivial_combination == expected
                claimed += report.equality_with_trivial_combination
        assert claimed >= 50


class TestChiAdditivity:
    def test_all_zero(self):
        assert chi_additivity_check([(0, 0, 0)])

    def test_violation_detected(self):
        assert not chi_additivity_check([(1, 0, 0)])

    def test_crepant_composition_with_cusp(self):
        # a cusp point contributes its defect once along a composition
        cusp = f.Cusp()
        for m in range(0, 4):
            stage = f.chi_partial_crepant(cusp, m)
            assert chi_additivity_check([(0, stage, stage), (stage, 0, stage)])

    def test_rejects_negative_values(self):
        with pytest.raises(ValidationError):
            chi_additivity_check([(-1, 0, 0)])
