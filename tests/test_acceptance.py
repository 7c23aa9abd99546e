"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Every expected value is
exact; the only tolerance anywhere is the 1e-9 window of the double-precision
cross-check in the dihedral sum certification, and the stated wall-clock
budgets are asserted where the criterion pins one.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import folcalc as f
from folcalc import CANONICAL, WEAK_NEF

from conftest import (
    brute_reciprocal_tuples,
    coprime_pairs,
    decompose_or_none,
    exhaustive_zariski,
    make_synthetic_model,
    model_samples,
    random_divisor,
    random_graph,
    x1_closed_form,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_criterion_01_terminal_closed_form():
    with criterion(1, "terminal contribution closed form, n <= 500"):
        start = time.perf_counter()
        for n, q in coprime_pairs(500):
            t = f.CyclicType(n, q)
            expected = Fraction(-(n - 1), 2 * n)
            assert f.a_terminal(t, 1) == expected
            assert f.a_cyclic_sheaf(t, q) == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_local_chi_spot_values():
    with criterion(2, "contracted-string chi spot values"):
        t = f.CyclicType(3, 1)
        assert f.chi_fchain(t, 1) == 0
        assert f.chi_fchain(t, 2) == 1
        for n, q in coprime_pairs(200):
            assert f.chi_fchain(f.CyclicType(n, q), 1) == 0


def _crt(residues_moduli):
    value, modulus = 0, 1
    for r, m in residues_moduli:
        if m == 1:
            continue
        inv = pow(modulus, -1, m)
        value = value + modulus * ((inv * (r - value)) % m)
        modulus *= m
    return value % modulus, modulus


def _dihedral_tuples(max_two_n):
    for two_n in range(2, max_two_n + 1, 2):
        odd, a = two_n, 0
        while odd % 2 == 0:
            odd //= 2
            a += 1
        splits = [
            (l, odd // l)
            for l in range(1, odd + 1)
            if odd % l == 0 and gcd(l, odd // l) == 1
        ]
        for l, m_odd in splits:
            p, modulus = _crt([(-1, 2**a * m_odd), (1, l)])
            yield f.Dihedral(a_exp=a, l=l, m_odd=m_odd, p=p or modulus, variant="e1")
        if a >= 2:
            for l, m_odd in splits:
                p, modulus = _crt([(1, 2**a), (1, l), (-1, m_odd)])
                yield f.Dihedral(a_exp=a, l=l, m_odd=m_odd, p=p or modulus, variant="e2")


def test_criterion_03_dihedral_sums():
    with criterion(3, "dihedral root-of-unity sums equal n, 2n <= 200"):
        start = time.perf_counter()
        count = 0
        for datum in _dihedral_tuples(200):
            report = f.dihedral_sum_verify(datum)
            assert report.passed, datum
            assert abs(report.sum_value - report.expected_n) < 1e-9
            assert report.a_value == Fraction(-1, 2)
            count += 1
        elapsed = time.perf_counter() - start
        assert count >= 300
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_04_pullback_closed_forms():
    with criterion(4, "pull-back first coefficients on all strings, n <= 100"):
        from folcalc.lattice import IntersectionProfile

        for n, q in coprime_pairs(100):
            t = f.CyclicType(n, q)
            graph = f.hj_string_graph(t)
            entries = f.hj_expansion(t).entries
            canonical_profile = IntersectionProfile(
                graph, {f"C{j + 1}": b - 2 for j, b in enumerate(entries)}
            )
            assert f.solve_pullback(graph, canonical_profile).coefficient("C1") == x1_closed_form(t)
            assert f.solve_pullback(graph, f.fchain_profile(t)).coefficient("C1") == Fraction(q, n)


def test_criterion_05_zariski_oracle_equivalence():
    with criterion(5, "decomposition matches exhaustive enumeration, 1000 configs"):
        from folcalc.lattice import degree_against_curve

        start = time.perf_counter()
        rng = random.Random(515)
        decomposed = 0
        for _ in range(1000):
            graph = random_graph(rng, max_curves=6)
            d = random_divisor(rng, graph)
            result = decompose_or_none(graph, d)
            valid = exhaustive_zariski(graph, d)
            if result is None:
                assert valid == []
                continue
            assert len(valid) == 1
            subset, positive, negative = valid[0]
            assert set(subset) == set(result.support)
            assert positive == result.positive and negative == result.negative
            # the four decomposition invariants, re-checked exactly
            assert all(
                degree_against_curve(result.positive, label) >= 0 for label in graph.labels
            )
            assert all(v >= 0 for v in result.negative.coefficients.values())
            assert result.negative.support == result.support
            if result.support:
                assert f.is_negative_definite(graph, result.support)
            assert all(
                degree_against_curve(result.positive, label) == 0 for label in result.support
            )
            decomposed += 1
        elapsed = time.perf_counter() - start
        assert decomposed >= 400
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_06_boundedness_roundtrip():
    with criterion(6, "pipeline round trip on 100+ synthetic models"):
        rng = random.Random(606)
        for trial in range(120):
            mode = WEAK_NEF if trial % 2 == 0 else CANONICAL
            k2, k_dot_ky, chi_o, data, terminals, dihedrals, cusps, period = (
                make_synthetic_model(rng, mode)
            )
            values = model_samples(k2, k_dot_ky, chi_o, data, 3 * period)
            hint = period if trial % 4 < 2 else None
            report = f.pipeline(f.HilbertSamples(values, period_hint=hint), mode)
            inv = report.invariants
            assert inv.k2 == k2
            assert inv.k_dot_ky == k_dot_ky
            assert inv.chi_o == chi_o
            assert inv.contribution_sum == -sum(f.contribution(d, 1) for d in data)
            if mode == CANONICAL:
                assert inv.cusp_count == cusps
            generating = f.SingularityConfiguration(
                terminal_orders=tuple(sorted(t.n for t in terminals)),
                dihedral_count=dihedrals,
                cusp_count=cusps if mode == CANONICAL else 0,
            )
            assert generating in report.configurations


def test_criterion_07_unit_fraction_enumeration():
    with criterion(7, "unit-fraction tuples match brute force, k <= 4"):
        assert f.enumerate_reciprocal_tuples(3, 1) == [(2, 3, 6), (2, 4, 4), (3, 3, 3)]
        for k in range(0, 5):
            for c in [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(4, 3), Fraction(2)]:
                assert f.enumerate_reciprocal_tuples(k, c) == brute_reciprocal_tuples(k, c, 2)


def test_criterion_08_family_volumes():
    with criterion(8, "family volumes: exact identity up to d = 10^4"):
        assert f.jouanolou_entry(2).volume == Fraction(1, 7)
        previous = Fraction(0)
        for d in range(2, 10_001):
            entry = f.jouanolou_entry(d)
            assert previous < entry.volume < 1
            assert 1 - entry.volume == Fraction(3 * d, d * d + d + 1)
            previous = entry.volume


def test_criterion_09_n1_formula():
    with criterion(9, "explicit bound formula and monotonicity"):
        inv = f.ModelInvariants(Fraction(2), Fraction(0), 1, Fraction(0))
        assert f.compute_n1(inv, 1).n1 == 8
        for inv in [
            f.ModelInvariants(Fraction(2), Fraction(0), 1, Fraction(0)),
            f.ModelInvariants(Fraction(1, 3), Fraction(5), 0, Fraction(0)),
            f.ModelInvariants(Fraction(7), Fraction(-4), 2, Fraction(0)),
        ]:
            values = [f.compute_n1(inv, i).n1 for i in range(1, 51)]
            assert values == sorted(values)
            assert values[0] >= 5


def test_criterion_10_model_relation():
    with criterion(10, "crepant chi relation accepts shifts, rejects others"):
        rng = random.Random(1010)
        for cusps in range(0, 4):
            keys = list(range(0, 8))
            canonical = {m: rng.randint(-5, 30) for m in keys}
            weak = {m: canonical[m] + (-cusps if m == 0 else 0) for m in keys}
            assert f.relate_models(weak, canonical, cusps)
            for k in keys:
                perturbed = dict(weak)
                perturbed[k] += 1
                assert not f.relate_models(perturbed, canonical, cusps)
