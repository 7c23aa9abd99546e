"""Exact linear algebra: one sparse, fraction-free elimination kernel.

Every caller needs the same two facts about a square exact matrix: whether
it is negative definite, and the solution of a system against it.
``eliminate`` computes both in a single pass; ``solve_exact`` and
``is_negative_definite_matrix`` are its dense-matrix front ends.

Rows. Each row is a sparse ``{column: entry}`` dict of its nonzero integer
entries. The rhs, ints or Fractions, is put over its least common denominator
once per call, and its numerators become one more column of the rows.

Order. Columns are eliminated in index order. On a string whose curves are
numbered along the path, as resolution strings are, the pivot row of column
c meets only row c + 1, so no row ever grows; other sparse patterns may fill
in.

Pivot rule. The pivot of column c is the diagonal entry when row c remains
and that entry is nonzero; otherwise it is the first remaining row, by
index, with a nonzero entry in column c. When there is none, the matrix is
singular.

Update. Every other remaining row i with a_ic != 0 becomes
``|p| * row_i - sign(p) * a_ic * row_pivot`` and is divided by the gcd of its
entries. All arithmetic is on integers, and rows the step does not touch are
left alone.

Verdict. With diagonal pivots the elimination is Gaussian elimination of the
matrix itself, and its k-th pivot is, up to a positive factor, the ratio
D_k / D_(k-1) of consecutive leading principal minors. By Sylvester's
criterion a symmetric matrix is therefore negative definite exactly when
every pivot was diagonal and negative. When only the verdict is wanted, elimination stops at the first
pivot that is not.

Complexity. A step costs the lengths of the rows it touches. On a string of
r curves that is O(r) in all, against O(r^3) for dense elimination; a dense
matrix still costs O(r^3).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import ValidationError
from .rationals import exact_int


def eliminate(rows, rhs=None, *, require_definite: bool = False):
    """Negative-definiteness verdict and exact solution of ``rows @ x = rhs``.

    ``rows`` gives the nonzero entries of a square integer matrix, one
    ``{column: int}`` mapping per row; it is not modified. ``rhs`` holds ints
    or Fractions. Returns ``(definite, solution)``. ``definite`` says whether
    the matrix is negative definite; it is meaningful for symmetric matrices.
    ``solution`` is ``(numerators, den)`` with x_i = numerators[i] / den and
    den > 0 least, so gcd(den, *numerators) == 1, or None when the matrix is
    singular or ``rhs`` is None. Without ``rhs``, or with ``require_definite``,
    elimination stops at the first pivot that rules definiteness out and
    returns ``(False, None)``.
    """
    n = len(rows)
    work = [dict(row) for row in rows]
    rhs_den = 1 if rhs is None else lcm(*(b.denominator for b in rhs))
    for row, b in zip(work, rhs or ()):
        if b:
            row[n] = b.numerator * (rhs_den // b.denominator)
    # cols[c]: the remaining rows with a nonzero entry in column c
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    definite = True
    pivots: list[dict[int, int]] = []
    for c in range(n):
        col = cols[c]
        k = c if c in col else min(col, default=None)
        if k is None:
            return False, None
        pivot_row = work[k]
        p = pivot_row[c]
        if k != c or p > 0:
            if require_definite or rhs is None:
                return False, None
            definite = False
        pivots.append(pivot_row)
        for j in pivot_row:
            if j != n:
                cols[j].discard(k)
        scale = abs(p)
        sign = 1 if p > 0 else -1
        for i in col:
            row = work[i]
            f = sign * row.pop(c)
            if scale != 1:
                for j in row:
                    row[j] *= scale
            for j, v in pivot_row.items():
                if j == c:
                    continue
                old = row.get(j, 0)
                new = old - f * v
                if new:
                    row[j] = new
                    if not old and j != n:
                        cols[j].add(i)
                else:
                    del row[j]
                    if j != n:
                        cols[j].discard(i)
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        col.clear()
    if rhs is None:
        return definite, None
    # back substitution on reduced (numerator, positive denominator) pairs of x
    nums, dens = [0] * n, [1] * n
    for c in reversed(range(n)):
        row = pivots[c]
        num, den = row.get(n, 0), rhs_den
        for j, v in row.items():
            if j != c and j != n:
                num = num * dens[j] - v * nums[j] * den
                den *= dens[j]
        den *= row[c]
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        nums[c], dens[c] = num // g, den // g
    common = lcm(*dens)
    return definite, ([x * (common // d) for x, d in zip(nums, dens)], common)


def _sparse(matrix) -> list[dict[int, int]]:
    """The nonzero entries of a square integer matrix; any other matrix is refused."""
    if not isinstance(matrix, list) or any(
        not isinstance(row, list) or len(row) != len(matrix) for row in matrix
    ):
        raise ValidationError("matrix must be a square list of row lists")
    return [{j: v for j, v in enumerate(row) if exact_int(v, "matrix entry")} for row in matrix]


def solve_exact(matrix, rhs) -> list[Fraction] | None:
    """Solve the square system ``matrix @ x = rhs`` exactly.

    Returns None when the matrix is singular. The matrix must be a square list
    of int rows and the rhs a list of one int or Fraction per row, else
    ``ValidationError``.
    """
    rows = _sparse(matrix)
    if not isinstance(rhs, list) or len(rhs) != len(rows) or any(
        type(b) not in (int, Fraction) for b in rhs
    ):
        raise ValidationError(f"rhs must be a list of {len(rows)} ints or Fractions, one per row")
    solution = eliminate(rows, rhs)[1]
    return None if solution is None else [Fraction(x, solution[1]) for x in solution[0]]


def is_negative_definite_matrix(matrix) -> bool:
    """Whether the symmetric integer ``matrix`` is negative definite (True when empty)."""
    return eliminate(_sparse(matrix))[0]
