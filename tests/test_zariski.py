"""Decomposition into nef and contracted parts, and the multiplier bound."""

import random
from fractions import Fraction

import pytest

import folcalc as f
from folcalc import Curve, DualGraph, QDivisor, pseudo_threshold, zariski_decompose
from folcalc.errors import NotPseudoeffectiveError, ValidationError
from folcalc.lattice import degree_against_curve, intersection_matrix
from folcalc.linalg import is_negative_definite_matrix, solve_exact

from conftest import (
    decompose_or_none,
    exhaustive_zariski,
    exponent_divisor,
    first_primes,
    fraction_by_index,
    fraction_degree_vector,
    prime_denominator_divisor,
    random_divisor,
    random_graph,
)


def check_invariants(graph, d, result):
    for label in graph.labels:
        assert degree_against_curve(result.positive, label) >= 0
    assert all(v >= 0 for v in result.negative.coefficients.values())
    assert result.negative.support == result.support
    if result.support:
        assert f.is_negative_definite(graph, result.support)
    for label in result.support:
        assert degree_against_curve(result.positive, label) == 0
    assert result.positive + result.negative == d


def fraction_zariski(graph, d):
    """The pass loop with D . C and N . C in Fraction arithmetic; the reference
    for the integer loop. Returns N, or None when the support stops being
    negative definite."""
    labels = graph.labels
    matrix = intersection_matrix(graph)
    target = fraction_degree_vector(graph, fraction_by_index(d))
    support, coeffs = [], {}
    for _ in range(len(labels) + 1):
        if support:
            sub = [[matrix[i][j] for j in support] for i in support]
            if not is_negative_definite_matrix(sub):
                return None
            coeffs = dict(zip(support, solve_exact(sub, [target[i] for i in support])))
        n_degrees = fraction_degree_vector(graph, coeffs)
        adopted = [j for j in range(len(labels)) if j not in coeffs and target[j] < n_degrees[j]]
        if not adopted:
            break
        support = sorted(support + adopted)
    return QDivisor(graph, {labels[i]: x for i, x in coeffs.items()})


class TestDecompose:
    def test_nef_divisor_is_its_own_positive_part(self):
        t = f.CyclicType(5, 2)
        g = f.hj_string_graph(t)
        d = -1 * f.solve_pullback(g, f.fchain_profile(t))  # pairs to (1, 0) >= 0
        result = zariski_decompose(g, d)
        assert result.positive == d
        assert result.negative.coefficients == {}
        assert result.support == ()

    def test_single_negative_curve_absorbed(self):
        g = DualGraph([Curve("E", -1)])
        d = QDivisor(g, {"E": 1})
        result = zariski_decompose(g, d)
        assert result.positive.coefficients == {}
        assert result.negative == d
        assert result.support == ("E",)

    def test_full_string_absorbed(self):
        g = f.hj_string_graph(f.CyclicType(5, 2))
        d = QDivisor(g, {"C1": 1, "C2": 1})
        result = zariski_decompose(g, d)
        assert result.positive.coefficients == {}
        assert result.negative == d
        assert result.support == ("C1", "C2")

    def test_not_pseudoeffective_on_positive_curve(self):
        g = DualGraph([Curve("H", 1)])
        d = QDivisor(g, {"H": -1})
        with pytest.raises(NotPseudoeffectiveError):
            zariski_decompose(g, d)

    def test_location_names_the_curves_that_broke_definiteness(self):
        g = DualGraph([Curve("H", 1)])
        with pytest.raises(NotPseudoeffectiveError) as info:
            zariski_decompose(g, QDivisor(g, {"H": -1}))
        assert info.value.location == "H"
        # pass 1 adopts A alone; pass 2 adds B, and [[-1, 2], [2, -1]] is indefinite
        g = DualGraph([Curve("A", -1), Curve("B", -1)], [("A", "B", 2)])
        with pytest.raises(NotPseudoeffectiveError) as info:
            zariski_decompose(g, QDivisor(g, {"B": -1}))
        assert info.value.location == "B"
        # both curves adopted in the same pass are both named
        g = DualGraph([Curve("A", 1), Curve("B", 1)])
        with pytest.raises(NotPseudoeffectiveError) as info:
            zariski_decompose(g, QDivisor(g, {"A": -1, "B": -1}))
        assert info.value.location == "A, B"

    def test_mismatched_graph_rejected(self):
        g1 = f.hj_string_graph(f.CyclicType(3, 1))
        g2 = f.hj_string_graph(f.CyclicType(3, 2))
        with pytest.raises(ValidationError):
            zariski_decompose(g1, QDivisor(g2, {"C1": 1}))

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(41)
        agreements = failures = 0
        for _ in range(250):
            g = random_graph(rng, max_curves=6)
            d = random_divisor(rng, g)
            result = decompose_or_none(g, d)
            valid = exhaustive_zariski(g, d)
            if result is None:
                assert valid == []
                failures += 1
            else:
                assert len(valid) == 1
                subset, positive, negative = valid[0]
                assert set(subset) == set(result.support)
                assert positive == result.positive and negative == result.negative
                check_invariants(g, d, result)
                agreements += 1
        assert agreements >= 100 and failures >= 10

    def test_idempotent_on_positive_parts(self):
        rng = random.Random(43)
        done = 0
        while done < 40:
            g = random_graph(rng, max_curves=5)
            result = decompose_or_none(g, random_divisor(rng, g))
            if result is None:
                continue
            again = zariski_decompose(g, result.positive)
            assert again.positive == result.positive
            assert again.negative.coefficients == {}
            done += 1

    def test_orthogonality_and_square_growth(self):
        rng = random.Random(47)
        done = 0
        while done < 40:
            g = random_graph(rng, max_curves=5)
            d = random_divisor(rng, g)
            result = decompose_or_none(g, d)
            if result is None:
                continue
            p, n = result.positive, result.negative
            assert f.pair(p, n) == 0
            assert f.pair(p, p) == f.pair(d, d) - f.pair(n, n)
            assert f.pair(p, p) >= f.pair(d, d)
            if n.coefficients:
                assert f.pair(n, n) < 0
            done += 1


class TestIntegerPassLoop:
    """The pass loop on numerators over den * scale against the exhaustive
    search and the Fraction reference."""

    @pytest.mark.parametrize("make_divisor", [prime_denominator_divisor, exponent_divisor])
    def test_matches_exhaustive_enumeration(self, make_divisor):
        rng = random.Random(53)
        agreements = failures = 0
        for _ in range(150):
            g = random_graph(rng, max_curves=6)
            d = make_divisor(rng, g)
            result = decompose_or_none(g, d)
            valid = exhaustive_zariski(g, d)
            if result is None:
                assert valid == [] and fraction_zariski(g, d) is None
                failures += 1
            else:
                assert len(valid) == 1
                subset, positive, negative = valid[0]
                assert set(subset) == set(result.support)
                assert positive == result.positive and negative == result.negative
                assert fraction_zariski(g, d) == result.negative
                check_invariants(g, d, result)
                agreements += 1
        assert agreements >= 50 and failures >= 5

    def test_prime_chain_matches_fraction_reference(self):
        # (-2)-chain of 200 curves with coefficients 1/p over the first 200
        # primes: D's common denominator is their product, about 10^550
        labels = [f"C{i}" for i in range(200)]
        g = DualGraph([Curve(label, -2) for label in labels], [(a, b, 1) for a, b in zip(labels, labels[1:])])
        d = QDivisor(g, {label: Fraction(1, p) for label, p in zip(labels, first_primes(200))})
        result = zariski_decompose(g, d)
        assert result.support
        assert result.negative == fraction_zariski(g, d)
        assert result.positive + result.negative == d


class TestPseudoThreshold:
    def test_boundary_case(self):
        assert pseudo_threshold(1, 0, 0) == 0

    def test_direct_substitution(self):
        assert pseudo_threshold(2, 3, 1) == 4

    def test_negative_product(self):
        assert pseudo_threshold(7, -7, 0) == -2

    def test_exact_rational_output(self):
        assert pseudo_threshold(Fraction(3, 2), Fraction(1, 3), Fraction(1, 6)) == Fraction(11, 18)

    def test_nonpositive_square_rejected(self):
        with pytest.raises(ValidationError):
            pseudo_threshold(0, 1, 0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValidationError):
            pseudo_threshold(1, 1, -1)
