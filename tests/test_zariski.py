"""Decomposition into nef and contracted parts, and the multiplier bound."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folcalc as f
import folcalc.zariski
from folcalc.cli import main
from folcalc import Curve, DualGraph, QDivisor, pseudo_threshold, zariski_decompose
from folcalc.errors import FolcalcError, NotPseudoeffectiveError, ValidationError
from folcalc.lattice import _on_graph, degree_against_curve, degree_vector, intersection_matrix
from folcalc.linalg import Factorization, is_negative_definite_matrix, solve_exact
from folcalc.zariski import ZariskiResult

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
from test_linalg import reference_factor

factor = reference_factor  # the name the verbatim pass loop below calls


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


# --- the passes before bordering: a fresh elimination of the whole support each pass ---
#
# ``reference_zariski`` is the pass loop as it was before the passes shared one
# growing elimination, and ``principal_rows`` the helper it used, verbatim but
# for the name of the function; ``factor`` is the verbatim kernel of that time
# from ``tests/test_linalg.py``.


def principal_rows(graph: DualGraph, idxs) -> list[dict[int, int]]:
    """Sparse rows of the principal submatrix on the curve indices ``idxs``.

    Row and column k of the result stand for curve ``idxs[k]``.
    """
    position = {i: k for k, i in enumerate(idxs)}
    return [
        {position[j]: v for j, v in graph.sparse_rows[i].items() if j in position}
        for i in idxs
    ]


def reference_zariski(graph: DualGraph, d: QDivisor) -> ZariskiResult:
    _on_graph(graph, d)
    labels = graph.labels
    target = degree_vector(graph, d._numerators)
    support: list[int] = []
    coeffs: dict[int, int] = {}
    scale = 1
    adopted: list[int] = []
    for _ in range(len(labels) + 1):
        if support:
            record = factor(principal_rows(graph, support), stop_early=True)
            if record is None:
                raise NotPseudoeffectiveError(
                    "not pseudoeffective relative to configuration: "
                    "support is not negative definite",
                    location=", ".join(labels[i] for i in adopted),
                )
            xs, scale = record.solve([target[i] for i in support])
            coeffs = dict(zip(support, xs))
        n_degrees = degree_vector(graph, coeffs)
        adopted = [
            j for j in range(len(labels)) if j not in coeffs and target[j] * scale < n_degrees[j]
        ]
        if not adopted:
            break
        support = sorted(support + adopted)
    positive = {i: x * scale for i, x in d._numerators.items()}
    for i, x in coeffs.items():
        positive[i] = positive.get(i, 0) - x
    negative = QDivisor._reduced(graph, coeffs, d._den * scale)
    return ZariskiResult(QDivisor._reduced(graph, positive, d._den * scale), negative, negative.support)


def decomposition(decompose, graph, d):
    """The result's repr, or the refusal's (code, message, location)."""
    try:
        return repr(decompose(graph, d))
    except FolcalcError as err:
        return err.code, err.message, err.location


SHAPES = ["chain", "chain numbered backwards", "star, hub first", "star, hub last", "cycle", "dense"]


@st.composite
def pass_cases(draw):
    """A graph of at most 12 curves of one of ``SHAPES``, its curves listed as drawn, and a divisor on it."""
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(1, 12))
    if shape == "dense":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [(i, j, m) for (i, j), m in zip(pairs, draw(st.lists(st.sampled_from([0, 0, 1, 1, 2]), min_size=len(pairs), max_size=len(pairs)))) if m]
    elif shape.startswith("star"):
        edges = [(0, j, 1) for j in range(1, n)]
    else:
        edges = [(k, k + 1, 1) for k in range(n - 1)] + ([(n - 1, 0, 1)] if shape == "cycle" and n > 2 else [])
    selfs = draw(st.lists(st.sampled_from([-1, -2, -2, -2, -3, -4, 0, 1]), min_size=n, max_size=n))
    if shape.startswith("star"):
        selfs[0] = -draw(st.integers(1, n + 1))
    order = list(range(n))
    if shape in ("chain numbered backwards", "star, hub last"):
        order.reverse()
    if draw(st.integers(0, 3)) == 0:
        order = draw(st.permutations(range(n)))  # a random relabelling
    labels = [f"E{k}" for k in range(n)]
    graph = DualGraph([Curve(labels[k], selfs[k]) for k in order], [(labels[i], labels[j], m) for i, j, m in edges])
    values = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=6))
    if draw(st.booleans()):  # mostly positive with a few negative curves: supports that grow pass by pass
        values = st.sampled_from([1, 1, 1, 2, Fraction(1, 2), Fraction(2, 3), 0, -1])
    coefficients = draw(st.lists(values, min_size=n, max_size=n))
    return graph, QDivisor(graph, dict(zip(labels, coefficients)))


def cascade(r, backwards=False):
    """The all-(-2) chain C1 - ... - Cr, listed forwards or backwards, and D = -C1 + C2 + ... + Cr."""
    labels = [f"C{k}" for k in range(1, r + 1)]
    listed = labels[::-1] if backwards else labels
    graph = DualGraph([Curve(label, -2) for label in listed], list(zip(labels, labels[1:], [1] * r)))
    return graph, QDivisor(graph, {label: -1 if k == 0 else 1 for k, label in enumerate(labels)})


class TestOneGrowingElimination:
    """The passes share one growing elimination; the fresh pass loop before that is the reference."""

    @settings(max_examples=600, deadline=None)
    @given(pass_cases())
    def test_same_result_as_fresh_passes(self, case):
        graph, d = case
        assert decomposition(zariski_decompose, graph, d) == decomposition(reference_zariski, graph, d)

    @pytest.mark.parametrize("backwards", [False, True], ids=["forwards", "backwards"])
    @pytest.mark.parametrize("r", [1, 2, 3, 40, 81])
    def test_cascades_match_fresh_passes(self, r, backwards):
        graph, d = cascade(r, backwards)
        result = zariski_decompose(graph, d)
        assert repr(result) == repr(reference_zariski(graph, d))
        assert len(result.support) == r - 1

    @pytest.mark.parametrize("hub_first", [False, True], ids=["hub last", "hub first"])
    def test_star_whose_hub_is_adopted_first_starts_over(self, monkeypatch, hub_first):
        # the hub is adopted in the first pass; bringing the leaves adopted later up to date against
        # the hub's pivot row would fill each with every other leaf, so the elimination starts over
        # in index order, and makes no more row updates than the fresh passes did
        r = 40
        hub, leaves = Curve("H", -(r + 1)), [Curve(f"L{k}", -2) for k in range(r)]
        graph = DualGraph([hub] + leaves if hub_first else leaves + [hub], [("H", f"L{k}", 1) for k in range(r)])
        rng = random.Random(7)
        d = QDivisor(graph, {"H": 2, **{f"L{k}": Fraction(rng.randint(0, 1000), 1000) for k in range(r)}})
        made, dropped = [], []

        class Counted(Factorization):
            __slots__ = ()

            def __init__(self, rows):
                if made:  # starting over: the updates made so far are dropped
                    dropped.append(len(self.updates) // 5)
                super().__init__(rows)
                made.append(self)

        monkeypatch.setattr(folcalc.zariski, "Factorization", Counted)
        result = zariski_decompose(graph, d)
        fresh = []

        def counted(rows, **kwargs):
            record = reference_factor(rows, **kwargs)
            fresh.append(len(record.updates) // 5)
            return record

        monkeypatch.setitem(globals(), "factor", counted)
        assert repr(reference_zariski(graph, d)) == repr(result)
        assert len(fresh) > 2 and dropped and len(set(map(id, made))) == 1
        assert sum(dropped) + len(made[-1].updates) // 5 <= sum(fresh)

    def test_cli_prints_the_recorded_cascade(self, tmp_path, capsys):
        # the bytes of tests/cascade40-zariski.out were printed by the fresh elimination per pass;
        # CI compares the installed console script's output with the same file
        labels = [f"C{k}" for k in range(1, 41)]
        graph = {"curves": [{"label": c, "self": -2} for c in labels], "edges": [[a, b, 1] for a, b in zip(labels, labels[1:])]}
        (tmp_path / "graph.json").write_text(json.dumps(graph))
        (tmp_path / "divisor.json").write_text(json.dumps({c: -1 if c == "C1" else 1 for c in labels}))
        assert main(["zariski", str(tmp_path / "graph.json"), str(tmp_path / "divisor.json")]) == 0
        assert capsys.readouterr().out == (Path(__file__).parent / "cascade40-zariski.out").read_text()

    def test_row_updates_over_all_passes_are_linear_in_the_support(self, monkeypatch):
        # the 320-curve cascade: one growing elimination makes at most one row update per
        # curve of the final support, where a fresh elimination per pass makes one per curve
        # of every pass's support
        graph, d = cascade(320)
        made = []

        class Counted(Factorization):
            __slots__ = ()

            def __init__(self, rows):
                super().__init__(rows)
                made.append(self)

        monkeypatch.setattr(folcalc.zariski, "Factorization", Counted)
        result = zariski_decompose(graph, d)
        support = len(result.support)
        assert support == 319 and len(made) == 1
        assert len(made[0].updates) // 5 <= support

        fresh = []

        def counted(rows, **kwargs):
            record = reference_factor(rows, **kwargs)
            fresh.append(len(record.updates) // 5)
            return record

        monkeypatch.setitem(globals(), "factor", counted)
        assert repr(reference_zariski(graph, d)) == repr(result)
        assert len(fresh) == 160 and sum(fresh) > support * support // 8


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
