"""The sparse elimination kernel against references that share no code with it.

Solutions are checked against Fraction Gauss-Jordan elimination with partial
pivoting; definiteness verdicts against the signs of leading principal minors
computed by cofactor expansion (n <= 7), and on larger forests against the
leaf-to-root Schur recursion. Strings are checked against the closed forms
of the first pull-back coefficient.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folcalc.errors import ValidationError
from folcalc.lattice import intersection_matrix
from folcalc.linalg import factor, is_negative_definite_matrix, solve_exact

from conftest import random_graph


# --- references ------------------------------------------------------------


def gauss_jordan(matrix, rhs):
    """Fraction Gauss-Jordan with partial pivoting; None when singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[piv][k] == 0:
            return None
        a[k], a[piv] = a[piv], a[k]
        pk = a[k][k]
        nonzero = [j for j in range(k, n + 1) if a[k][j]]
        for j in nonzero:
            a[k][j] /= pk
        for i in range(n):
            f = a[i][k]
            if i != k and f:
                for j in nonzero:
                    a[i][j] -= f * a[k][j]
    return [row[n] for row in a]


def cofactor_det(matrix):
    """Laplace expansion along the first remaining row, memoized on column sets."""
    n = len(matrix)

    @lru_cache(maxsize=None)
    def det(row, cols):
        if row == n:
            return 1
        total, sign = 0, 1
        for pos, j in enumerate(cols):
            entry = matrix[row][j]
            if entry:
                total += sign * entry * det(row + 1, cols[:pos] + cols[pos + 1 :])
            sign = -sign
        return total

    return Fraction(det(0, tuple(range(n))))


def minors_negative_definite(matrix):
    """Sylvester: (-1)^k D_k > 0 for every leading principal minor D_k."""
    n = len(matrix)
    assert n <= 7
    return all(
        (-1) ** k * cofactor_det([row[:k] for row in matrix[:k]]) > 0 for k in range(1, n + 1)
    )


def forest_negative_definite(parent, diag, mult):
    """Leaf-to-root Schur values s_v = a_vv - sum m^2 / s_child must all be negative.

    Needs parent[v] < v, so decreasing index visits children before parents.
    """
    s = [Fraction(d) for d in diag]
    for v in reversed(range(len(diag))):
        if s[v] >= 0:
            return False
        if parent[v] >= 0:
            s[parent[v]] -= Fraction(mult[v] ** 2) / s[v]
    return True


def string_type(entries):
    """(n, q) with n/q = b1 - 1/(b2 - 1/(... - 1/br))."""
    value = Fraction(entries[-1])
    for b in reversed(entries[:-1]):
        value = b - 1 / value
    return value.numerator, value.denominator


def chain_matrix(entries):
    size = len(entries)
    return [
        [-entries[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(size)]
        for i in range(size)
    ]


def check_against_references(matrix, rhs):
    assert solve_exact(matrix, rhs) == gauss_jordan(matrix, rhs)
    n = len(matrix)
    if n <= 7 and all(matrix[i][j] == matrix[j][i] for i in range(n) for j in range(i)):
        assert is_negative_definite_matrix(matrix) == minors_negative_definite(matrix)


def solve_rational(record, rhs):
    """``record.solve`` on a rhs of ints and Fractions: the rhs over its lcm r, and r into den.

    The kernel's own answer for the integer numerators must already be least; the
    result is reduced once more by the common factor of r and the numerators.
    """
    r = lcm(*(Fraction(b).denominator for b in rhs))
    solution = record.solve([int(b * r) for b in rhs])
    if solution is None:
        return None
    numerators, den = solution
    assert den > 0 and gcd(den, *numerators) == 1
    h = gcd(r, *numerators)
    return [x // h for x in numerators], den * r // h


# --- strategies ------------------------------------------------------------


@st.composite
def forests(draw, max_curves=60):
    """(matrix, parent, diag, mult) of a random forest, parents before children."""
    n = draw(st.integers(1, max_curves))
    parent = [draw(st.integers(-1, v - 1)) if v else -1 for v in range(n)]
    diag = draw(st.lists(st.sampled_from([-1, -2, -2, -3, -4, -6, 0, 1]), min_size=n, max_size=n))
    mult = draw(st.lists(st.sampled_from([1, 1, 2]), min_size=n, max_size=n))
    matrix = [[0] * n for _ in range(n)]
    for v in range(n):
        matrix[v][v] = diag[v]
        if parent[v] >= 0:
            matrix[v][parent[v]] = matrix[parent[v]][v] = mult[v]
    return matrix, parent, diag, mult


def rhs_for(n):
    values = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.lists(values, min_size=n, max_size=n)


@st.composite
def square_systems(draw, entries, max_size=6, symmetric=False, zero_diagonal=False):
    n = draw(st.integers(1, max_size))
    matrix = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if symmetric:
        matrix = [[matrix[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if zero_diagonal:
        for i in range(n):
            matrix[i][i] = 0
    return matrix, draw(rhs_for(n))


small_ints = st.integers(-3, 3)


# --- trees, forests and strings --------------------------------------------


@settings(max_examples=25, deadline=None)
@given(forests(), st.data())
def test_forests_match_references(forest, data):
    matrix, parent, diag, mult = forest
    rhs = data.draw(rhs_for(len(matrix)))
    assert solve_exact(matrix, rhs) == gauss_jordan(matrix, rhs)
    verdict = is_negative_definite_matrix(matrix)
    assert verdict == forest_negative_definite(parent, diag, mult)
    if len(matrix) <= 7:
        assert verdict == minors_negative_definite(matrix)


@settings(max_examples=60, deadline=None)
@given(forests(max_curves=7))
def test_small_forests_match_minors(forest):
    matrix = forest[0]
    assert is_negative_definite_matrix(matrix) == minors_negative_definite(matrix)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 6), min_size=1, max_size=400))
def test_strings_match_closed_forms(entries):
    n, q = string_type(entries)
    matrix = chain_matrix(entries)
    fchain_rhs = [-1] + [0] * (len(entries) - 1)
    canonical_rhs = [b - 2 for b in entries]
    fchain = solve_exact(matrix, fchain_rhs)
    canonical = solve_exact(matrix, canonical_rhs)
    assert fchain[0] == Fraction(q, n)
    assert canonical[0] == -1 + Fraction(q + 1, n)
    for xs, rhs in ((fchain, fchain_rhs), (canonical, canonical_rhs)):
        for i, row in enumerate(matrix):
            assert sum(row[j] * xs[j] for j in range(max(0, i - 1), min(len(xs), i + 2))) == rhs[i]
    assert is_negative_definite_matrix(matrix)


@pytest.mark.parametrize("seed", [1, 2])
def test_long_mixed_strings(seed):
    rng = random.Random(seed)
    entries = [rng.randint(2, 6) for _ in range(400)]
    n, q = string_type(entries)
    matrix = chain_matrix(entries)
    assert solve_exact(matrix, [-1] + [0] * 399)[0] == Fraction(q, n)
    assert solve_exact(matrix, [b - 2 for b in entries])[0] == -1 + Fraction(q + 1, n)


@pytest.mark.parametrize("length", [1, 2, 199, 400])
def test_all_minus_two_strings(length):
    # the string of type (length + 1, length)
    matrix = chain_matrix([2] * length)
    xs = solve_exact(matrix, [-1] + [0] * (length - 1))
    assert xs == [Fraction(length - j, length + 1) for j in range(length)]
    assert is_negative_definite_matrix(matrix)


# --- general matrices ------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(square_systems(st.integers(0, 2), max_size=7, symmetric=True), st.data())
def test_graphs_with_cycles_match_references(system, data):
    matrix, rhs = system
    for i, row in enumerate(matrix):
        row[i] = data.draw(st.integers(-6, 1))
    check_against_references(matrix, rhs)


def test_criterion_five_generator():
    rng = random.Random(2024)
    for _ in range(300):
        graph = random_graph(rng, max_curves=6)
        matrix = intersection_matrix(graph)
        rhs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in matrix]
        check_against_references(matrix, rhs)


@settings(max_examples=60, deadline=None)
@given(square_systems(small_ints))
def test_integer_matrices_match_references(system):
    check_against_references(*system)


@settings(max_examples=60, deadline=None)
@given(square_systems(small_ints, zero_diagonal=True))
def test_zero_diagonal_matrices_match_references(system):
    matrix, rhs = system
    assert solve_exact(matrix, rhs) == gauss_jordan(matrix, rhs)
    assert not is_negative_definite_matrix(matrix)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), Fraction(0), 1.5, 0.0, True, False])
def test_front_ends_refuse_entries_that_are_not_ints(entry):
    matrix = [[-2, 1], [1, entry]]
    with pytest.raises(ValidationError):
        solve_exact(matrix, [1, 0])
    with pytest.raises(ValidationError):
        is_negative_definite_matrix(matrix)


@pytest.mark.parametrize(
    "matrix", [[[-2, 1]], [[-2], [1]], [[-2, 1], [1]], [1], [[-2], 1], None, ((-2,),), [(-2,)]]
)
def test_front_ends_refuse_matrices_that_are_not_square(matrix):
    with pytest.raises(ValidationError, match="square"):
        solve_exact(matrix, [1])
    with pytest.raises(ValidationError, match="square"):
        is_negative_definite_matrix(matrix)


@pytest.mark.parametrize("rhs", [[1, 2], [], [0.5], ["1"], [True], [None], 5, None, (1,)])
def test_solve_refuses_rhs_of_wrong_length_or_type(rhs):
    with pytest.raises(ValidationError):
        solve_exact([[-2]], rhs)


@pytest.mark.parametrize(
    "matrix",
    [
        [[0]],
        [[0, 0], [0, 0]],
        [[1, 2], [2, 4]],
        [[-1, 1], [1, -1]],
        [[-2, 1, 1], [1, -2, 1], [1, 1, -2]],  # a cusp cycle
        [[-2, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 1], [1, 0, 1, -2]],
        [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        [[4, 2, 1], [4, 2, 1], [1, 1, 1]],  # a fit through a repeated abscissa
    ],
)
def test_singular_matrices_return_none(matrix):
    rhs = list(range(1, len(matrix) + 1))
    assert gauss_jordan(matrix, rhs) is None
    assert solve_exact(matrix, rhs) is None
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    record = factor(rows)
    assert not record.definite and record.solve(rhs) is None
    assert factor(rows, stop_early=True) is None
    assert not is_negative_definite_matrix(matrix)


def test_swap_matrix():
    assert solve_exact([[0, 1], [1, 0]], [3, Fraction(1, 2)]) == [Fraction(1, 2), 3]
    assert not is_negative_definite_matrix([[0, 1], [1, 0]])


@pytest.mark.parametrize("abscissas", [(0, 1, 2), (0, 5, 10), (3, 6, 9), (2, 4, 6), (1, 2, 3)])
def test_vandermonde_fit(abscissas):
    a, b, c = Fraction(3, 2), Fraction(-1, 3), 7
    rows = [[m * m, m, 1] for m in abscissas]
    rhs = [a * m * m + b * m + c for m in abscissas]
    assert solve_exact(rows, rhs) == gauss_jordan(rows, rhs) == [a, b, c]


def test_empty_matrix():
    assert solve_exact([], []) == []
    assert is_negative_definite_matrix([]) is True
    assert factor([], stop_early=True).definite is True
    record = factor([])
    assert record.definite is True and record.solve([]) == ([], 1)


# --- the kernel's own contract ----------------------------------------------


def test_one_pass_gives_verdict_and_solution():
    rows = [{0: -2, 1: 1}, {0: 1, 1: -2}]
    record = factor(rows, stop_early=True)
    assert record.definite is True
    # x = (2/3, 1/3): numerators over their least common denominator
    assert record.solve([-1, 0]) == ([2, 1], 3)
    assert solve_rational(record, [Fraction(-1, 2), 0]) == ([2, 1], 6)
    indefinite = [{0: 1, 1: 1}, {0: 1, 1: -2}]
    record = factor(indefinite)
    assert record.definite is False and record.solve([3, 0]) == ([2, 1], 1)
    assert factor(indefinite, stop_early=True) is None


def test_rows_are_not_modified():
    rows = [{0: -2, 1: 1}, {0: 1, 1: -5}]
    copies = [dict(row) for row in rows]
    solve_rational(factor(rows), [1, Fraction(1, 3)])
    factor(rows, stop_early=True)
    assert rows == copies


@settings(max_examples=80, deadline=None)
@given(square_systems(small_ints, max_size=7))
def test_solution_is_numerators_over_least_denominator(system):
    matrix, rhs = system
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    record = factor(rows)
    assert record.det == abs(cofactor_det(matrix))
    solution = solve_rational(record, rhs)
    expected = gauss_jordan(matrix, rhs)
    if expected is None:
        assert solution is None
        return
    numerators, den = solution
    assert den > 0 and gcd(den, *numerators) == 1
    assert [Fraction(x, den) for x in numerators] == expected


@settings(max_examples=80, deadline=None)
@given(square_systems(small_ints, max_size=7), st.data())
def test_one_record_replays_on_every_rhs(system, data):
    matrix, rhs = system
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    record = factor(rows)
    for b in [rhs] + data.draw(st.lists(rhs_for(len(matrix)), max_size=3)):
        solution = solve_rational(record, b)
        assert solution == solve_rational(factor(rows), b)  # one record, or a fresh one per rhs
        expected = gauss_jordan(matrix, b)
        assert (None if solution is None else [Fraction(x, solution[1]) for x in solution[0]]) == expected
    if record.kernel is None:
        assert gauss_jordan(matrix, rhs) is not None
    else:
        # rows @ Z = 0 for the primitive integer Z
        z = record.kernel
        assert gcd(*z) == 1
        assert all(sum(v * z[j] for j, v in row.items()) == 0 for row in rows)


@settings(max_examples=80, deadline=None)
@given(square_systems(small_ints, max_size=7))
def test_early_stop_is_the_verdict(system):
    # a record with stop_early is complete: the same record and solution as without it
    matrix, rhs = system
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    early = factor(rows, stop_early=True)
    assert (early is None) == (not minors_negative_definite(matrix))
    if early is not None:
        full = factor(rows)
        assert early.definite and full.definite
        assert (early.pivots, early.updates) == (full.pivots, full.updates)
        assert solve_rational(early, rhs) == solve_rational(full, rhs)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), Fraction(0), True, False, 1.5, 2.0])
def test_replay_refuses_entries_that_are_not_ints(entry):
    # an integral Fraction is refused too: the replay's // would round a Fraction silently
    for record in (factor([{0: -2, 1: 1}, {0: 1, 1: -2}]), factor([{}, {1: -1}])):
        with pytest.raises(ValidationError, match="ints only"):
            record.solve([1, entry])
    assert factor([{0: -2, 1: 1}, {0: 1, 1: -2}]).solve([1, 2]) == ([-4, -5], 3)


def test_missing_pivot_stops_early():
    # eliminating column 0 empties row 1, so column 1 has no pivot: no record with stop_early
    rows = [{0: -1, 1: 1}, {0: 1, 1: -1}]
    assert factor(rows, stop_early=True) is None
    assert factor(rows).kernel == [1, 1]
