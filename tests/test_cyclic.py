"""Continued-fraction expansions and sheaf-transform degrees."""

import copy
import pickle
import sys
import threading
import time
import typing
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folcalc import (
    Curve,
    CyclicType,
    DualGraph,
    IntersectionProfile,
    fchain_profile,
    hj_expansion,
    hj_string_graph,
    is_negative_definite,
    solve_pullback,
    wunram_degrees,
)
from folcalc.cyclic import MAX_STRING_CURVES
from folcalc.errors import ValidationError

from conftest import coprime_pairs


class TestCyclicType:
    def test_gcd_must_be_one(self):
        with pytest.raises(ValidationError, match="gcd"):
            CyclicType(4, 2)

    def test_q_range(self):
        with pytest.raises(ValidationError):
            CyclicType(4, 0)
        with pytest.raises(ValidationError):
            CyclicType(4, 5)

    def test_n_at_least_two(self):
        with pytest.raises(ValidationError):
            CyclicType(1, 1)


class TestKeptStringGraph:
    """``hj_string_graph`` builds the string once per ``CyclicType`` and keeps it there."""

    def test_one_graph_per_cyclic_type(self):
        t = CyclicType(12, 5)
        graph = hj_string_graph(t)
        assert hj_string_graph(t) is graph
        assert fchain_profile(t).graph is graph
        solve_pullback(graph, fchain_profile(t))
        assert hj_string_graph(t)._factorization is graph._factorization is not None
        # an equal type built apart keeps its own graph, equal to this one
        other = hj_string_graph(CyclicType(12, 5))
        assert other is not graph and other == graph

    def test_kept_graph_is_not_part_of_the_record(self):
        t, twin = CyclicType(241, 239), CyclicType(241, 239)
        before = (hash(t), repr(t), pickle.dumps(t))
        graph = hj_string_graph(t)
        assert t == twin and twin == t
        assert (hash(t), repr(t), pickle.dumps(t)) == before
        for clone in (pickle.loads(before[2]), pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert type(clone) is CyclicType and clone == t and hash(clone) == hash(t)
            assert repr(clone) == repr(t) and pickle.dumps(clone) == before[2]
            # a copy builds its own string
            assert hj_string_graph(clone) == graph and hj_string_graph(clone) is not graph

    @pytest.mark.parametrize("call", [hj_string_graph, fchain_profile])
    def test_foreign_type_refused_before_the_kept_graph_is_read(self, call):
        impostor = SimpleNamespace(n=5, q=2, _graph=hj_string_graph(CyclicType(5, 2)))
        for t in (impostor, 5, None):
            with pytest.raises(ValidationError, match="t: expected CyclicType"):
                call(t)


class TestExpansion:
    @pytest.mark.parametrize(
        "n, q, expected",
        [(2, 1, (2,)), (3, 2, (2, 2)), (12, 5, (3, 2, 3)), (3, 1, (3,)), (5, 2, (3, 2))],
    )
    def test_known_expansions(self, n, q, expected):
        assert hj_expansion(CyclicType(n, q)).entries == expected

    def test_entries_at_least_two_and_evaluation_roundtrip(self):
        for n, q in coprime_pairs(200):
            exp = hj_expansion(CyclicType(n, q))
            assert all(b >= 2 for b in exp.entries)
            assert exp.evaluate() == Fraction(n, q)


class TestStringCap:
    def test_longest_string_is_built(self):
        # (1/n)(1, n-1) resolves into n - 1 curves of self-intersection -2
        entries = hj_expansion(CyclicType(MAX_STRING_CURVES + 1, MAX_STRING_CURVES)).entries
        assert entries == (2,) * MAX_STRING_CURVES

    @pytest.mark.parametrize(
        "call",
        [
            hj_expansion,
            hj_string_graph,
            fchain_profile,
            lambda t: wunram_degrees(t, 0),
        ],
    )
    @pytest.mark.parametrize("n", [MAX_STRING_CURVES + 2, 10**12 + 1])
    def test_longer_string_refused_quickly(self, call, n):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=f"\\(1/{n}\\)\\(1,{n - 1}\\).*{MAX_STRING_CURVES}"):
            call(CyclicType(n, n - 1))
        assert time.perf_counter() - start < 1.0


class TestWunramDegrees:
    def test_radix_ends_at_one(self):
        for n, q in coprime_pairs(80):
            data = wunram_degrees(CyclicType(n, q), 0)
            assert data.s[0] == n and data.s[1] == q and data.s[-1] == 1

    def test_q_index_gives_leading_digit_only(self):
        for n, q in coprime_pairs(60):
            data = wunram_degrees(CyclicType(n, q), q)
            assert data.d[0] == 1
            assert all(dj == 0 for dj in data.d[1:])

    def test_zero_index_gives_zero_digits(self):
        data = wunram_degrees(CyclicType(12, 5), 0)
        assert all(dj == 0 for dj in data.d)

    @pytest.mark.parametrize("i, expected", [(2, (1, 0)), (3, (1, 1))])
    def test_examples_on_5_2(self, i, expected):
        assert wunram_degrees(CyclicType(5, 2), i).d == expected

    def test_digit_constraints_and_reconstruction(self):
        for n, q in coprime_pairs(40):
            t = CyclicType(n, q)
            for i in range(n):
                data = wunram_degrees(t, i)
                assert sum(dj * sj for dj, sj in zip(data.d, data.s[1:])) == i
                assert all(0 <= rem < sj for rem, sj in zip(data.remainders, data.s[1:]))
                assert all(dj >= 0 for dj in data.d)

    def test_digits_injective(self):
        for n, q in coprime_pairs(60):
            t = CyclicType(n, q)
            seen = {wunram_degrees(t, i).d for i in range(n)}
            assert len(seen) == n

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            wunram_degrees(CyclicType(5, 2), 5)
        with pytest.raises(ValidationError):
            wunram_degrees(CyclicType(5, 2), -1)


class TestFchainProfile:
    def test_single_curve_string(self):
        profile = fchain_profile(CyclicType(3, 1))
        assert len(profile.graph) == 1
        assert profile.degrees.get("C1") == -1

    def test_5_2_string(self):
        profile = fchain_profile(CyclicType(5, 2))
        assert [profile.degrees.get(label, 0) for label in profile.graph.labels] == [-1, 0]

    def test_12_5_string(self):
        profile = fchain_profile(CyclicType(12, 5))
        assert [profile.degrees.get(label, 0) for label in profile.graph.labels] == [-1, 0, 0]


def test_annotations_naming_lattice_types_resolve():
    # cyclic names them through the package (folcalc.lattice.DualGraph), not through an import of lattice
    assert typing.get_type_hints(hj_string_graph) == {"t": CyclicType, "return": DualGraph}
    assert typing.get_type_hints(fchain_profile) == {"t": CyclicType, "return": IntersectionProfile}


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 400), st.data())
def test_expansion_roundtrip_property(n, data):
    qs = [q for q in range(1, n) if Fraction(q, n).denominator == n]
    if not qs:
        return
    q = data.draw(st.sampled_from(qs))
    exp = hj_expansion(CyclicType(n, q))
    assert exp.evaluate() == Fraction(n, q)


@st.composite
def cyclic_types(draw, n_max=2000):
    n = draw(st.integers(2, n_max))
    q = draw(st.integers(1, n - 1))
    g = gcd(n, q)  # g < n, so n // g >= 2
    return CyclicType(n // g, q // g)


def checked_string_graph(t):
    """The resolution string through the public constructor, every curve and edge checked."""
    entries = hj_expansion(t).entries
    curves = [Curve(f"C{j}", -b) for j, b in enumerate(entries, 1)]
    return DualGraph(curves, [(f"C{j}", f"C{j + 1}", 1) for j in range(1, len(entries))])


@settings(max_examples=60, deadline=None)
@given(cyclic_types())
def test_row_built_string_is_the_checked_graph(t):
    graph, checked = hj_string_graph(t), checked_string_graph(t)
    assert graph == checked and hash(graph) == hash(checked)
    assert graph.curves == checked.curves and len(graph) == len(checked)
    assert fchain_profile(t).graph == graph
    edges = [(a, b, 1) for a, b in zip(graph.labels, graph.labels[1:])]
    assert DualGraph(graph.curves, edges) == graph
    # each graph factors its own pairing; the answers agree
    canonical = {c.label: -c.self_intersection - 2 for c in checked.curves}
    for degrees in ({"C1": -1}, canonical):
        solutions = [solve_pullback(g, IntersectionProfile(g, degrees)) for g in (graph, checked)]
        assert solutions[0].coefficients == solutions[1].coefficients
    head = graph.labels[: len(graph) // 2 + 1]
    for support in (graph.labels, head):
        assert is_negative_definite(graph, support) and is_negative_definite(checked, support)


def test_concurrent_callers_share_or_rebuild_equal_strings():
    # threads may race to build a type's string; whichever graph each gets, the answers agree
    types = [CyclicType(n, q) for n, q in coprime_pairs(30)]
    expected = [solve_pullback(g, IntersectionProfile(g, {"C1": -1})) for g in map(checked_string_graph, types)]
    results = [[] for _ in range(6)]

    def work(out):
        for t in types:
            out.append(solve_pullback(hj_string_graph(t), fchain_profile(t)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in results:
        assert [z.coefficients for z in out] == [z.coefficients for z in expected]
    assert [hj_string_graph(t) for t in types] == [z.graph for z in expected]
