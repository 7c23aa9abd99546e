"""Local contribution tables and their closed forms."""

import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import folcalc
from folcalc import (
    Cusp,
    CyclicType,
    Dihedral,
    GorensteinCanonical,
    Terminal,
    a_cusp,
    a_cyclic_sheaf,
    a_dihedral,
    a_terminal,
    chi_fchain,
    chi_partial_crepant,
    contribution,
    dihedral_sum_verify,
    global_chi,
    pseudo_threshold,
)
from folcalc.bounds import (
    HilbertSamples,
    ModelInvariants,
    SingularityConfiguration,
    bound_singularity_count,
    compute_n1,
    enumerate_reciprocal_tuples,
    index_bounds,
    relate_models,
)
from folcalc.contributions import MAX_NUMERIC_TWO_N, _exact_root_sum, dual_generator
from folcalc.cyclic import fchain_profile, hj_expansion, hj_string_graph, wunram_degrees
from folcalc.errors import InconsistentModelError, ValidationError
from folcalc.jouanolou import MAX_DMAX, accumulation_report, jouanolou_entry
from folcalc.lattice import (
    Curve,
    DualGraph,
    IntersectionProfile,
    QDivisor,
    chi_additivity_check,
    graph_from_json,
)
from folcalc.rationals import parse_integer

from conftest import coprime_pairs
from test_acceptance import _dihedral_tuples


def a_cyclic_by_direct_sum(t, i):
    """The displayed formula evaluated term by term; oracle for the fast path."""
    c = dual_generator(t)
    total = sum((c * j) % t.n for j in range(i))
    return Fraction(total, t.n) - Fraction(i * (t.n - 1), 2 * t.n)


def dihedral_two_n(datum):
    """2n = 2^a_exp * l * m_odd, built here since the library never builds it unguarded."""
    return 2**datum.a_exp * datum.l * datum.m_odd


def dihedral_exponents(datum):
    """Every exponent u_j with the j-th term equal to 1/(1 +- eps^(u_j)), listed."""
    two_n = dihedral_two_n(datum)
    step = (datum.p + 1) % two_n
    offset = 0 if datum.variant == "e1" else (datum.m_odd * datum.l) % two_n
    return [(step * j + offset) % two_n for j in range(two_n)]


def dihedral_sum_by_counting(datum):
    """The defining sum, pairing the counted exponents; oracle for the closed form."""
    two_n = dihedral_two_n(datum)
    pole = two_n // 2 if datum.variant == "e1" else 0
    counts = Counter(dihedral_exponents(datum))
    assert not counts.get(pole)
    total = Fraction(0)
    for u, cnt in counts.items():
        v = (two_n - u) % two_n
        if v == u:
            total += Fraction(cnt, 2)
        elif u < v:
            assert counts.get(v, 0) == cnt
            total += cnt
    return total


class TestCyclicSheafContribution:
    def test_3_1_first_sheaf(self):
        assert a_cyclic_sheaf(CyclicType(3, 1), 1) == Fraction(-1, 3)

    def test_zero_index_vanishes(self):
        for n, q in [(2, 1), (5, 3), (17, 5)]:
            assert a_cyclic_sheaf(CyclicType(n, q), 0) == 0

    def test_5_2_second_sheaf(self):
        # c = 2; remainders 0, 2 sum to 2; (1/5)(2 - 2*2) = -2/5
        assert a_cyclic_sheaf(CyclicType(5, 2), 2) == Fraction(-2, 5)

    def test_matches_direct_summation(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 120)
            q = rng.choice([q for q in range(1, n) if gcd(n, q) == 1])
            t = CyclicType(n, q)
            i = rng.randrange(n)
            assert a_cyclic_sheaf(t, i) == a_cyclic_by_direct_sum(t, i)

    def test_symmetry_q_vs_one(self):
        for n, q in coprime_pairs(120):
            t = CyclicType(n, q)
            assert a_cyclic_sheaf(t, q) == a_cyclic_sheaf(t, 1) == Fraction(-(n - 1), 2 * n)

    def test_dual_generator_is_a_unit_below_n(self):
        for n, q in coprime_pairs(120):
            c = dual_generator(CyclicType(n, q))
            assert 1 <= c <= n - 1 and (c * q + 1) % n == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            a_cyclic_sheaf(CyclicType(5, 2), 5)


class TestTerminalContribution:
    def test_first_multiple_closed_form(self):
        for n, q in [(2, 1), (3, 2), (9, 4), (31, 12)]:
            assert a_terminal(CyclicType(n, q), 1) == Fraction(-(n - 1), 2 * n)

    def test_zeroth_multiple_vanishes(self):
        assert a_terminal(CyclicType(7, 3), 0) == 0

    def test_3_1_second_multiple(self):
        assert a_terminal(CyclicType(3, 1), 2) == 0

    def test_periodicity(self):
        for n, q in [(4, 3), (7, 2), (12, 5)]:
            t = CyclicType(n, q)
            for m in range(-3, 2 * n):
                assert a_terminal(t, m) == a_terminal(t, m + n)

    def test_matches_eigensheaf_form_at_every_multiple(self):
        for n, q in coprime_pairs(40):
            t = CyclicType(n, q)
            for m in range(-n, 2 * n):
                assert a_terminal(t, m) == a_cyclic_by_direct_sum(t, (m * q) % n)


class TestSimpleTables:
    def test_dihedral_parity_table(self):
        assert a_dihedral(0) == 0
        assert a_dihedral(1) == Fraction(-1, 2)
        assert a_dihedral(7) == Fraction(-1, 2)
        assert a_dihedral(-4) == 0

    def test_cusp_table(self):
        assert a_cusp(0) == 0
        assert a_cusp(1) == -1
        assert a_cusp(-3) == -1

    def test_gorenstein_contributes_nothing(self):
        for m in range(-2, 5):
            assert contribution(GorensteinCanonical(), m) == 0

    def test_dispatcher_matches_specialized_functions(self):
        t = CyclicType(5, 3)
        for m in range(0, 7):
            assert contribution(Terminal(t), m) == a_terminal(t, m)
            assert contribution(Cusp(), m) == a_cusp(m)
            assert contribution(Dihedral(1, 1, 1, 1), m) == a_dihedral(m)


class TestDihedralVerify:
    def test_smallest_group(self):
        # 2n = 2, p = 1: both terms are 1/2, so the sum is 1
        report = dihedral_sum_verify(Dihedral(a_exp=1, l=1, m_odd=1, p=1))
        assert report.expected_n == 1
        assert report.sum_exact == 1
        assert report.passed

    def test_order_twelve_group(self):
        # 2n = 6 with p = 5 satisfies p = -1 mod 2*m_odd, so m_odd = 3, l = 1;
        # every exponent (p+1)j is 0 mod 6 and the six halves add up to 3
        report = dihedral_sum_verify(Dihedral(a_exp=1, l=1, m_odd=3, p=5))
        assert report.expected_n == 3
        assert report.sum_exact == 3
        assert abs(report.sum_value - 3) < 1e-9
        assert report.passed

    def test_e2_variant(self):
        # 2n = 4: a_exp = 2, l = m_odd = 1, p = 1
        report = dihedral_sum_verify(Dihedral(a_exp=2, l=1, m_odd=1, p=1, variant="e2"))
        assert report.expected_n == 2
        assert report.sum_exact == 2
        assert report.passed

    def test_contribution_is_minus_half(self):
        for datum in [
            Dihedral(1, 1, 1, 1),
            Dihedral(1, 3, 1, 7),
            Dihedral(2, 1, 3, 5, variant="e2"),
        ]:
            assert dihedral_sum_verify(datum).a_value == Fraction(-1, 2)

    def test_congruence_violations_named(self):
        with pytest.raises(ValidationError, match=r"p = -1 \(mod 2\^a_exp \* m_odd\)"):
            Dihedral(a_exp=2, l=1, m_odd=1, p=1)
        with pytest.raises(ValidationError, match=r"p = 1 \(mod l\)"):
            Dihedral(a_exp=1, l=3, m_odd=1, p=5)
        with pytest.raises(ValidationError, match="must be odd"):
            Dihedral(a_exp=1, l=2, m_odd=1, p=1)
        with pytest.raises(ValidationError, match="coprime"):
            Dihedral(a_exp=1, l=3, m_odd=3, p=5)
        with pytest.raises(ValidationError, match="a_exp >= 2"):
            Dihedral(a_exp=1, l=1, m_odd=1, p=1, variant="e2")
        with pytest.raises(ValidationError, match=r"p = 1 \(mod 2\^a_exp\)"):
            Dihedral(a_exp=2, l=1, m_odd=1, p=3, variant="e2")
        with pytest.raises(ValidationError, match=r"p = -1 \(mod m_odd\)"):
            Dihedral(a_exp=2, l=1, m_odd=3, p=9, variant="e2")
        with pytest.raises(ValidationError, match="unknown variant 'e3'"):
            Dihedral(a_exp=1, l=1, m_odd=1, p=1, variant="e3")

    def test_closed_form_matches_counting_on_every_tuple(self):
        count = 0
        for datum in _dihedral_tuples(200):
            two_n = dihedral_two_n(datum)
            g = gcd(datum.p + 1, two_n)
            counts = Counter(dihedral_exponents(datum))
            assert set(counts.values()) == {g}, datum
            assert len(counts) == two_n // g, datum
            assert dihedral_sum_verify(datum).sum_exact == dihedral_sum_by_counting(datum)
            count += 1
        assert count == 359

    def test_numeric_route_at_the_cap(self):
        # p = 1 forces a_exp = m_odd = 1, so 2n = 2l; l = 2047 is the largest under the cap
        datum = Dihedral(a_exp=1, l=2047, m_odd=1, p=1)
        assert dihedral_two_n(datum) <= MAX_NUMERIC_TWO_N < dihedral_two_n(datum) + 4
        report = dihedral_sum_verify(datum)
        assert abs(report.sum_value - 2047) < 1e-10
        assert report.sum_value.imag == 0
        assert report.passed

    def test_above_the_cap_refused(self):
        with pytest.raises(ValidationError, match="2n must be at most"):
            dihedral_sum_verify(Dihedral(a_exp=1, l=2049, m_odd=1, p=1))
        # valid data whose 2n = 2^a_exp would be astronomically large
        with pytest.raises(ValidationError, match="2n must be at most"):
            dihedral_sum_verify(Dihedral(a_exp=10**9, l=1, m_odd=1, p=1, variant="e2"))
        with pytest.raises(ValidationError, match="2n must be at most"):
            dihedral_sum_verify(Dihedral(a_exp=40, l=1, m_odd=1, p=2**40 - 1))

    def test_huge_group_goes_through_contribution_quickly(self):
        # nothing on the way builds 2^a_exp: the datum, its contribution, the refusal
        start = time.perf_counter()
        datum = Dihedral(a_exp=10**9, l=1, m_odd=1, p=1, variant="e2")
        assert contribution(datum, 3) == Fraction(-1, 2)
        with pytest.raises(ValidationError, match="2n must be at most"):
            dihedral_sum_verify(datum)
        assert time.perf_counter() - start < 1.0

    def test_certificate_checks(self):
        # 2n = 8: the odd coset 1 + 2Z misses both poles 0 and 4 and pairs up
        assert _exact_root_sum(8, True, 1, 2) == 4
        assert _exact_root_sum(8, False, 1, 2) == 4
        # eight copies of the self-conjugate u = n = 4 under the minus sign: 8 halves
        assert _exact_root_sum(8, False, 4, 8) == 4
        with pytest.raises(ValidationError, match="vanishing denominator"):
            _exact_root_sum(8, True, 0, 2)
        with pytest.raises(ValidationError, match="vanishing denominator"):
            _exact_root_sum(8, False, 0, 4)
        # the coset 1 + 4Z mod 8 = {1, 5} is not closed under negation
        with pytest.raises(InconsistentModelError):
            _exact_root_sum(8, False, 1, 4)

    def test_import_leaves_mpmath_out(self):
        src = os.path.dirname(os.path.dirname(folcalc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", "import sys, folcalc.cli; print('mpmath' in sys.modules)"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestChiFchain:
    def test_3_1_values(self):
        t = CyclicType(3, 1)
        assert chi_fchain(t, 1) == 0
        assert chi_fchain(t, 2) == 1

    def test_zero_multiple(self):
        for n, q in [(2, 1), (9, 5), (30, 7)]:
            assert chi_fchain(CyclicType(n, q), 0) == 0

    def test_first_multiple_vanishes_everywhere(self):
        for n, q in coprime_pairs(80):
            assert chi_fchain(CyclicType(n, q), 1) == 0

    def test_nonnegative_integer_values(self):
        rng = random.Random(31)
        for _ in range(80):
            n = rng.randint(2, 60)
            q = rng.choice([q for q in range(1, n) if gcd(n, q) == 1])
            value = chi_fchain(CyclicType(n, q), rng.randint(0, 3 * n))
            assert value.denominator == 1 and value >= 0

    def test_matches_eigensheaf_form(self):
        for n, q in coprime_pairs(30):
            t = CyclicType(n, q)
            c = dual_generator(t)
            for m in range(3 * n):
                mq = (m * q) % n
                remainder_sum = sum((c * j) % n for j in range(mq))
                num = (m - mq) * (n - 1) + m * (m - 1) * q + 2 * remainder_sum
                assert chi_fchain(t, m) == Fraction(num, 2 * n)

    def test_negative_multiple_rejected(self):
        with pytest.raises(ValidationError):
            chi_fchain(CyclicType(3, 1), -1)


class TestChiPartialCrepant:
    def test_cusp_table(self):
        assert chi_partial_crepant(Cusp(), 0) == 1
        assert chi_partial_crepant(Cusp(), 5) == 0
        assert chi_partial_crepant(Cusp(), -2) == 0

    def test_dihedral_cancellation(self):
        # -1/2 + 1/4 + 1/4 = 0, recomputed from the primitive contributions
        assert a_dihedral(1) - 2 * a_cyclic_sheaf(CyclicType(2, 1), 1) == 0
        for m in range(-3, 6):
            assert chi_partial_crepant(Dihedral(1, 1, 1, 1), m) == 0

    def test_terminal_and_gorenstein_vanish(self):
        assert chi_partial_crepant(Terminal(CyclicType(5, 2)), 3) == 0
        assert chi_partial_crepant(GorensteinCanonical(), 0) == 0


@pytest.mark.parametrize(
    "call", [contribution, chi_partial_crepant], ids=["contribution", "chi_partial_crepant"]
)
def test_unknown_datum_refused(call):
    with pytest.raises(ValidationError, match="unknown singularity datum: 5"):
        call(5, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: hj_expansion(5),
        lambda: hj_string_graph(5),
        lambda: wunram_degrees(5, 1),
        lambda: fchain_profile(5),
        lambda: dual_generator(5),
        lambda: a_cyclic_sheaf(5, 1),
        lambda: a_terminal(5, 1),
        lambda: chi_fchain(5, 1),
        lambda: contribution(Terminal(5), 1),
        lambda: dihedral_sum_verify(5),
    ],
    ids=[
        "hj_expansion", "hj_string_graph", "wunram_degrees", "fchain_profile", "dual_generator",
        "a_cyclic_sheaf", "a_terminal", "chi_fchain", "Terminal", "dihedral_sum_verify",
    ],
)
def test_record_arguments_of_the_wrong_type_refused(call):
    with pytest.raises(ValidationError, match=r"expected (CyclicType|Dihedral), got int"):
        call()


class TestGlobalChi:
    def test_no_singularities_at_zero(self):
        assert global_chi(Fraction(5, 2), 1, 7, [], 0) == 7

    def test_single_cusp_shift(self):
        for m in range(0, 6):
            poly = Fraction(m * m, 2) * 2 - Fraction(m, 2) * 0 + 1
            value = global_chi(2, 0, 1, [Cusp()], m)
            assert value - poly == (0 if m == 0 else -1)

    def test_half_point_example(self):
        value = global_chi(0, 0, 0, [Terminal(CyclicType(2, 1))], 1)
        assert value == Fraction(-1, 4)

    def test_require_integer_flags_inconsistency(self):
        with pytest.raises(InconsistentModelError):
            global_chi(0, 0, 0, [Terminal(CyclicType(2, 1))], 1, require_integer=True)

    def test_negative_multiple_rejected(self):
        with pytest.raises(ValidationError):
            global_chi(1, 0, 0, [], -1)


def _divisor():
    return QDivisor(DualGraph([Curve("C1", -2)]), {"C1": 1})


@pytest.mark.parametrize(
    "call",
    [
        lambda: global_chi(1, 0, 0.5, [], 2),
        lambda: global_chi(0.1, 0, 1, [], 2),
        lambda: global_chi(1, 0.5, 1, [], 2),
        lambda: global_chi(1, 0, True, [], 2),
        lambda: CyclicType(5, True),
        lambda: CyclicType(True, 1),
        lambda: HilbertSamples({0: 1}, period_hint=True),
        lambda: bound_singularity_count(0.3),
        lambda: enumerate_reciprocal_tuples(2, 0.5),
        lambda: enumerate_reciprocal_tuples(2, 1, True),
        lambda: pseudo_threshold(0.1, 1, 0),
        lambda: pseudo_threshold(1, 0.1, 0),
        lambda: pseudo_threshold(1, 1, 0.5),
        lambda: ModelInvariants(0.5, 0.25, 1, 0),
        lambda: ModelInvariants(2, 0, 1, 0.5),
        lambda: ModelInvariants(2, True, 1, 0),
        lambda: ModelInvariants(2, 0, 1.0, 0),
        lambda: ModelInvariants(2, 0, 1, 0, cusp_count=True),
        lambda: ModelInvariants(2, 0, 1, 0, cusp_count=[1]),
        lambda: ModelInvariants("1/2", 0, 1, 0),
        # every site of the integer contract: a bool, a float, a digit string
        # and an out-of-range int wherever the site has a range
        lambda: HilbertSamples({True: 1}),
        lambda: HilbertSamples({1.0: 1}),
        lambda: HilbertSamples({"1": 1}),
        lambda: HilbertSamples({-1: 1}),
        lambda: HilbertSamples({0: 1}, period_hint=2.0),
        lambda: HilbertSamples({0: 1}, period_hint="2"),
        lambda: HilbertSamples({0: 1}, period_hint=0),
        lambda: ModelInvariants(2, 0, True, 0),
        lambda: ModelInvariants(2, 0, "1", 0),
        lambda: ModelInvariants(2, 0, 1, 0, cusp_count=1.0),
        lambda: ModelInvariants(2, 0, 1, 0, cusp_count="1"),
        lambda: enumerate_reciprocal_tuples(True, 1),
        lambda: enumerate_reciprocal_tuples(2.0, 1),
        lambda: enumerate_reciprocal_tuples("2", 1),
        lambda: enumerate_reciprocal_tuples(-1, 1),
        lambda: enumerate_reciprocal_tuples(2, 1, 2.0),
        lambda: enumerate_reciprocal_tuples(2, 1, "2"),
        lambda: enumerate_reciprocal_tuples(2, 1, 0),
        lambda: compute_n1(ModelInvariants(2, 0, 1, 0), True),
        lambda: compute_n1(ModelInvariants(2, 0, 1, 0), 1.0),
        lambda: compute_n1(ModelInvariants(2, 0, 1, 0), "1"),
        lambda: compute_n1(ModelInvariants(2, 0, 1, 0), 0),
        lambda: relate_models({0: 1}, {0: 1}, True),
        lambda: relate_models({0: 1}, {0: 1}, 0.0),
        lambda: relate_models({0: 1}, {0: 1}, "0"),
        lambda: relate_models({0: 1}, {0: 1}, -1),
        lambda: Dihedral(True, 1, 1, 1),
        lambda: Dihedral(1.0, 1, 1, 1),
        lambda: Dihedral(1, "1", 1, 1),
        lambda: Dihedral(1, 1, 1, 0),
        lambda: a_cyclic_sheaf(CyclicType(5, 2), True),
        lambda: a_cyclic_sheaf(CyclicType(5, 2), 1.0),
        lambda: a_cyclic_sheaf(CyclicType(5, 2), "1"),
        lambda: a_cyclic_sheaf(CyclicType(5, 2), 5),
        lambda: a_terminal(CyclicType(5, 2), True),
        lambda: a_terminal(CyclicType(5, 2), 1.0),
        lambda: a_terminal(CyclicType(5, 2), "1"),
        lambda: a_dihedral(True),
        lambda: a_dihedral(1.0),
        lambda: a_dihedral("1"),
        lambda: a_cusp(True),
        lambda: a_cusp(1.0),
        lambda: a_cusp("1"),
        lambda: chi_fchain(CyclicType(5, 2), True),
        lambda: chi_fchain(CyclicType(5, 2), 2.0),
        lambda: chi_fchain(CyclicType(5, 2), "2"),
        lambda: chi_fchain(CyclicType(5, 2), -1),
        lambda: chi_partial_crepant(Cusp(), True),
        lambda: chi_partial_crepant(Cusp(), 0.0),
        lambda: chi_partial_crepant(Cusp(), "0"),
        lambda: global_chi(1, 0, 1, [], True),
        lambda: global_chi(1, 0, 1, [], 2.0),
        lambda: global_chi(1, 0, 1, [], "2"),
        lambda: CyclicType(5.0, 2),
        lambda: CyclicType("5", 2),
        lambda: CyclicType(1, 1),
        lambda: CyclicType(5, 2.0),
        lambda: CyclicType(5, "2"),
        lambda: CyclicType(5, 5),
        lambda: wunram_degrees(CyclicType(5, 2), True),
        lambda: wunram_degrees(CyclicType(5, 2), 1.0),
        lambda: wunram_degrees(CyclicType(5, 2), "1"),
        lambda: jouanolou_entry(True),
        lambda: jouanolou_entry(2.0),
        lambda: jouanolou_entry("2"),
        lambda: jouanolou_entry(1),
        lambda: accumulation_report(True),
        lambda: accumulation_report(3.0),
        lambda: accumulation_report("3"),
        lambda: accumulation_report(1),
        lambda: accumulation_report(MAX_DMAX + 1),
        lambda: DualGraph([Curve("A", -2), Curve("B", -2)], [("A", "B", "1")]),
        lambda: DualGraph([Curve("A", -2), Curve("B", -2)], [("A", "B", -1)]),
        lambda: chi_additivity_check([(True, 0, 1)]),
        lambda: chi_additivity_check([(0, 1.0, 1)]),
        lambda: chi_additivity_check([(0, 1, "1")]),
        lambda: chi_additivity_check([(0, -1, -1)]),
        lambda: graph_from_json({"curves": [{"label": "A", "self": True}]}),
        lambda: graph_from_json({"curves": [{"label": "A", "self": -2.0}]}),
        lambda: graph_from_json({"curves": [{"label": "A", "self": "-2"}]}),
        lambda: parse_integer(True),
        lambda: parse_integer(1.0),
        lambda: index_bounds([SingularityConfiguration((0,))], "weak-nef"),
        lambda: index_bounds([SingularityConfiguration((1,))], "weak-nef"),
        lambda: index_bounds([SingularityConfiguration((-3,))], "weak-nef"),
        lambda: index_bounds([SingularityConfiguration((True,))], "weak-nef"),
        lambda: index_bounds([SingularityConfiguration((2, 1.5))], "canonical"),
        lambda: index_bounds([SingularityConfiguration((2, 2.0))], "weak-nef"),
        lambda: index_bounds([SingularityConfiguration((3, True))], "weak-nef"),
        lambda: index_bounds([SingularityConfiguration((2,)), SingularityConfiguration(([2],))], "weak-nef"),
        lambda: SingularityConfiguration((0,)).contribution_sum(),
        lambda: SingularityConfiguration((1.5,)).contribution_sum(),
        lambda: SingularityConfiguration((), 1.5).contribution_sum(),
        lambda: SingularityConfiguration((), True, -1).contribution_sum(),
        lambda: SingularityConfiguration((), 0, 1.0).contribution_sum(),
        lambda: SingularityConfiguration((), -1).contribution_sum(),
        # containers that are not mappings or iterables of the right shape
        lambda: chi_additivity_check([(1, 2)]),
        lambda: chi_additivity_check(5),
        lambda: QDivisor(_divisor().graph, 5),
        lambda: QDivisor(_divisor().graph, [("C1", 1, 2)]),
        lambda: IntersectionProfile(_divisor().graph, 5),
        lambda: HilbertSamples(5),
        lambda: relate_models(5, {}, 0),
        lambda: relate_models({0: 1}, [1], 0),
    ],
)
def test_public_entry_points_reject_floats_and_bools(call):
    with pytest.raises(ValidationError):
        call()
