"""Independent oracles for the benchmark's output checks.

Nothing here imports folcalc: every check recomputes its answer with code of
its own (sparse LDL^T pivots, Gauss-Jordan with pivoting, three-term minor
recurrences, a scan-and-break unit-fraction search), so a defect in the
library cannot hide behind a shared helper.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


# --- exact linear algebra ----------------------------------------------------


def matvec(matrix, x):
    """Row-by-row products (matrix . x) with exact arithmetic."""
    return [sum((a * b for a, b in zip(row, x) if a and b), Fraction(0)) for row in matrix]


def is_negative_definite(matrix) -> bool:
    """Negative definiteness from the LDL^T pivots of a symmetric matrix.

    Without row swaps the k-th pivot is d_k / d_{k-1}, the ratio of leading
    principal minors, so the sign pattern (-1)^k d_k > 0 holds exactly when
    every pivot is negative. Rows are kept sparse, so chains and trees in
    their natural order cost linear time.
    """
    n = len(matrix)
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in matrix]
    for k in range(n):
        pivot = rows[k].get(k, Fraction(0))
        if pivot >= 0:
            return False
        tail = {j: v for j, v in rows[k].items() if j > k}
        for i, aik in tail.items():
            factor = aik / pivot
            row_i = rows[i]
            for j, akj in tail.items():
                value = row_i.get(j, Fraction(0)) - factor * akj
                if value:
                    row_i[j] = value
                else:
                    row_i.pop(j, None)
    return True


def string_is_negative_definite(diagonal, off_diagonal) -> bool:
    """Leading principal minors of a tridiagonal matrix by their recurrence.

    d_k = a_k d_{k-1} - c_{k-1}^2 d_{k-2}; negative definite iff
    (-1)^k d_k > 0 for every k.
    """
    before, current = 1, 1
    for k, a in enumerate(diagonal):
        c = off_diagonal[k - 1] if k else 0
        before, current = current, a * current - c * c * before
        if current == 0 or (current > 0) != (k % 2 == 1):
            return False
    return True


def solve(matrix, rhs):
    """Gauss-Jordan with largest-magnitude pivots; None for a singular matrix."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        best = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[best][col] == 0:
            return None
        aug[col], aug[best] = aug[best], aug[col]
        pivot_row = aug[col]
        inv = 1 / pivot_row[col]
        pivot_row[:] = [v * inv for v in pivot_row]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], pivot_row)]
    return [row[n] for row in aug]


def submatrix(matrix, idxs):
    return [[matrix[i][j] for j in idxs] for i in idxs]


# --- pull-backs and Zariski decompositions -----------------------------------


def check_pullback(matrix, profile, z) -> list[str]:
    """Z . C_j must equal the prescribed degree on every curve."""
    got = matvec(matrix, z)
    return [
        f"Z.C{j + 1} = {g}, prescribed {p}" for j, (g, p) in enumerate(zip(got, profile)) if g != p
    ]


def check_zariski(matrix, d, p, n) -> list[str]:
    """The defining conditions of D = P + N, all as coefficient vectors.

    P + N = D, P . C >= 0 everywhere, P . C = 0 on supp N, N effective, and
    supp N negative definite by the pivot test above.
    """
    problems = []
    if any(pi + ni != di for pi, ni, di in zip(p, n, d)):
        problems.append("P + N differs from D")
    support = [j for j, v in enumerate(n) if v]
    degrees = matvec(matrix, p)
    problems += [f"P.C{j + 1} = {v} < 0" for j, v in enumerate(degrees) if v < 0]
    problems += [f"P.C{j + 1} = {degrees[j]} on supp N" for j in support if degrees[j]]
    problems += [f"N has coefficient {n[j]} < 0" for j in support if n[j] < 0]
    if support and not is_negative_definite(submatrix(matrix, support)):
        problems.append("supp N is not negative definite")
    return problems


def exhaustive_zariski(matrix, d):
    """Every support subset meeting the decomposition conditions, as N vectors.

    Subsets of a negative definite set are negative definite, so the search
    only extends subsets that pass the pivot test.
    """
    size = len(matrix)
    degrees = matvec(matrix, d)
    found = []

    def consider(subset):
        coeffs = solve(submatrix(matrix, subset), [degrees[j] for j in subset]) if subset else []
        if coeffs is None or any(v <= 0 for v in coeffs):
            return
        n = [Fraction(0)] * size
        for j, v in zip(subset, coeffs):
            n[j] = v
        p = [a - b for a, b in zip(d, n)]
        if all(v >= 0 for v in matvec(matrix, p)):
            found.append(n)

    def extend(subset, start):
        consider(subset)
        for j in range(start, size):
            grown = subset + [j]
            if is_negative_definite(submatrix(matrix, grown)):
                extend(grown, j + 1)

    extend([], 0)
    return found


def iterative_zariski(matrix, d):
    """The support-growth iteration, written independently; None if it fails.

    Used for configurations too large for the exhaustive search.
    """
    size = len(matrix)
    degrees = matvec(matrix, d)
    support: list[int] = []
    n = [Fraction(0)] * size
    while True:
        p = [a - b for a, b in zip(d, n)]
        pc = matvec(matrix, p)
        grow = [j for j in range(size) if j not in support and pc[j] < 0]
        if not grow:
            break
        support = sorted(support + grow)
        if not is_negative_definite(submatrix(matrix, support)):
            return None
        coeffs = solve(submatrix(matrix, support), [degrees[j] for j in support])
        n = [Fraction(0)] * size
        for j, v in zip(support, coeffs):
            n[j] = v
    if any(v < 0 for v in n):
        return None
    return n


EXHAUSTIVE_MAX_CURVES = 8


def expected_zariski(matrix, d):
    """The unique N vector, or None when no decomposition exists."""
    if len(matrix) <= EXHAUSTIVE_MAX_CURVES:
        found = exhaustive_zariski(matrix, d)
        if len(found) > 1:
            raise AssertionError("decomposition conditions admit two supports")
        return found[0] if found else None
    return iterative_zariski(matrix, d)


# --- cyclic quotient strings ---------------------------------------------------


def string_type(entries) -> tuple[int, int]:
    """(n, q) with n/q = b_1 - 1/(b_2 - ... - 1/b_r)."""
    value = Fraction(entries[-1])
    for b in reversed(entries[:-1]):
        value = b - 1 / value
    return value.numerator, value.denominator


def string_entries(n: int, q: int) -> list[int]:
    """The entries b_j >= 2 of n/q, by repeated ceilings."""
    out = []
    value = Fraction(n, q)
    while True:
        b = -((-value.numerator) // value.denominator)
        out.append(b)
        if value == b:
            return out
        value = 1 / (b - value)


# --- unit fractions, configurations and N1 -------------------------------------


class UnitFractionScan:
    """Scan-and-break enumeration of nondecreasing unit-fraction tuples.

    Walks candidate entries upward one at a time and stops once ``slots``
    copies of the current unit fraction fall short of the target; memoized
    per instance, with no arithmetic shared with the library's recursion.
    """

    def __init__(self):
        self._memo: dict = {}

    def tuples(self, slots: int, remaining: Fraction, lo: int = 2):
        key = (slots, remaining, lo)
        if key in self._memo:
            return self._memo[key]
        num, den = remaining.numerator, remaining.denominator
        if slots == 0 or remaining <= 0:
            out = [()] if slots == 0 and remaining == 0 else []
        elif slots == 1:  # a single entry must be the reciprocal itself
            out = [(den,)] if num == 1 and den >= lo else []
        else:
            out = []
            entry = lo
            while slots * den >= entry * num:  # slots copies of 1/entry still reach it
                if den <= entry * num:  # 1/entry fits
                    out += [(entry,) + t for t in self.tuples(slots - 1, remaining - Fraction(1, entry), entry)]
                entry += 1
        self._memo[key] = out
        return out

    def terminal_multisets(self, target: Fraction):
        """Orders n_i >= 2 with sum (n_i - 1)/(2 n_i) = target."""
        out = []
        k = 0
        while Fraction(k, 4) <= target:  # each point adds at least 1/4
            if k >= 2 * target:
                out += self.tuples(k, k - 2 * target)
            k += 1
        return out

    def configurations(self, mode: str, total: Fraction, cusps):
        """Set of (terminal orders, dihedrals, cusps) adding up to ``total``."""
        if mode == "weak-nef":
            return {(orders, 0, 0) for orders in self.terminal_multisets(total)}
        out = set()
        cusp_options = [cusps] if cusps is not None else range(int(total) + 1)
        for c in cusp_options:
            rest = total - c
            dihedrals = 0
            while Fraction(dihedrals, 2) <= rest:
                for orders in self.terminal_multisets(rest - Fraction(dihedrals, 2)):
                    out.add((orders, dihedrals, c))
                dihedrals += 1
        return out


def index_candidate(orders, mode: str) -> int:
    return (2 if mode == "canonical" else 1) * lcm(1, *orders)


def n1_bound(k2: Fraction, k_dot_ky: Fraction, i: int) -> int:
    """N1 = 4i + ceil(max(2 K.K_Y / K^2 + 3i, 0)) + 1."""
    gamma = max(2 * k_dot_ky / k2 + 3 * i, Fraction(0))
    return 4 * i + -((-gamma.numerator) // gamma.denominator) + 1


# --- quasi-polynomial samples ---------------------------------------------------


def terminal_contribution(n: int, q: int, m: int) -> Fraction:
    """a(y, mK) at a terminal point of type (1/n)(1,q), by the direct sum."""
    c = (-pow(q, -1, n)) % n or n
    i = (m * q) % n
    return Fraction(2 * sum((c * j) % n for j in range(i)) - i * (n - 1), 2 * n)


def model_chi(k2, k_dot_ky, chi_o, terminals, dihedrals, cusps, m) -> Fraction:
    """chi(mK) of a model with the given invariants and singular points."""
    total = Fraction(m * m, 2) * k2 - Fraction(m, 2) * k_dot_ky + chi_o
    total += sum((terminal_contribution(n, q, m) for n, q in terminals), Fraction(0))
    total -= Fraction(dihedrals, 2) if m % 2 else 0
    total -= cusps if m else 0
    return total


def fits_period(values: dict, mode: str, period: int) -> bool:
    """Whether the samples are a quadratic plus constants per residue mod period.

    The quadratic comes from Lagrange interpolation through three multiples of
    the period (1, 2, 3 on canonical models, whose m = 0 value is shifted;
    0, 1, 2 otherwise).
    """
    ks = (1, 2, 3) if mode == "canonical" else (0, 1, 2)
    xs = [k * period for k in ks]
    if not all(x in values for x in xs + [0, 1, 3 * period]):
        return False
    # leading and linear coefficients of the interpolating quadratic
    a = Fraction(0)
    b = Fraction(0)
    for i, xi in enumerate(xs):
        others = [x for j, x in enumerate(xs) if j != i]
        weight = values[xi] / ((xi - others[0]) * (xi - others[1]))
        a += weight
        b -= weight * (others[0] + others[1])
    constants = {}
    for m, v in values.items():
        if mode == "canonical" and m == 0:
            continue
        c = v - a * m * m - b * m
        if constants.setdefault(m % period, c) != c:
            return False
    return True
